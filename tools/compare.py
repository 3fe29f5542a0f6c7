"""Paired runs of the benchmark on two revisions, written to ``BENCH_<n>.json``.

Usage, from anywhere in a checkout::

    python3 tools/compare.py PARENT CHANGE --workload exact_tables --pairs 10 --seconds 25

Each revision is extracted with ``git archive`` into a temporary directory,
so neither side starts with a ``__pycache__``, and the worktree is left
alone.  Pair i runs the side's own, unchanged ``bench/run.py`` untraced on
both sides with the seed ``--first-seed + i``: the parent first in even
pairs and the change first in odd ones, so that a drift of the host's speed
weighs on both sides alike.  The runs set ``PYTHONDONTWRITEBYTECODE``, so
no run reads bytecode that an earlier run wrote.

The report goes to the next free ``BENCH_<n>.json`` at the repository root
(numbered after every ``BENCH_*.json`` there and in ``bench/``).  For each
end-to-end metric it holds each side's median and quartiles over the pairs,
the count of pairs that each side won (ties count for neither), and two
verdicts against ``BENCHMARK.json``:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile spread;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's bound.

It also keeps each run's metrics and fail counts, and each side's ``env``
line, the one ``bench/run.py`` prints, from its first run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

#: ``run(checkout, workload, seed, seconds)`` -> ``(env, result)``: the
#: ``env`` line and the last line of one ``bench/run.py`` run, parsed.
Runner = Callable[[Path, str, int, float], tuple]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float):
    """One untraced ``bench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def commit(revision: str) -> str:
    """The full hash of the commit that ``revision`` names."""
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def extract(revision: str, dest: Path) -> None:
    """The files of ``revision``, as ``git archive`` gives them, under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(checkouts: dict[str, Path], workload: str, pairs: int, seconds: float,
            first_seed: int, bounds: dict[str, dict[str, Any]], run: Runner = run_bench):
    """Run the pairs on the two ``checkouts`` (keyed by side) and report them."""
    envs: dict[str, dict[str, Any]] = {}
    runs = []
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict[str, Any] = {"seed": seed, "first": order[0]}
        for side in order:
            env, result = run(checkouts[side], workload, seed, seconds)
            envs.setdefault(side, env)
            pair[side] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
        runs.append(pair)

    metrics = {}
    for name, spec in bounds.items():
        values = {side: [pair[side]["metrics"][name] for pair in runs] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1  # sign * (change - parent) < 0 is better
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"], strict=True)]
        parent, change = _summary(values["parent"]), _summary(values["change"])
        wins = sum(d < 0 for d in diffs)
        gap = sign * (change["median"] - parent["median"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "parent_wins": sum(d > 0 for d in diffs),
            "gain": 10 * wins >= 9 * pairs and -gap > parent["q3"] - parent["q1"],
            "within_bound": gap <= spec["bound"] * parent["median"],
        }
    return {
        "workload": workload,
        "pairs": pairs,
        "seconds": seconds,
        "seeds": [pair["seed"] for pair in runs],
        "env": envs,
        "metrics": metrics,
        "runs": runs,
    }


def next_report_path(root: Path) -> Path:
    """``BENCH_<n>.json`` at ``root``, numbered after every report there and in ``bench/``."""
    taken = [int(m.group(1)) for path in (*root.glob("BENCH_*.json"), *root.glob("bench/BENCH_*.json"))
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return root / f"BENCH_{max(taken, default=-1) + 1}.json"


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision measured against")
    parser.add_argument("change", help="the revision measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of each run")
    parser.add_argument("--first-seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    revisions = {"parent": commit(args.parent), "change": commit(args.change)}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        checkouts = {side: Path(tmp, side) for side in SIDES}
        for side, path in checkouts.items():
            path.mkdir()
            extract(revisions[side], path)
        report = compare(checkouts, args.workload, args.pairs, args.seconds,
                         args.first_seed, bounds)
    report = {
        "description": f"tools/compare.py {args.parent} {args.change}: paired untraced "
        "bench/run.py runs of the two revisions, extracted with git archive",
        "revisions": revisions,
        **report,
    }
    path = next_report_path(ROOT)
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name:12s} parent {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, "
              f"{m['parent']['q3']:.6g}]  change {m['change']['median']:.6g} "
              f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  wins "
              f"{m['change_wins']}/{args.pairs}  gain {m['gain']}  within bound {m['within_bound']}")
    print(f"wrote {path}")
    return path


if __name__ == "__main__":
    main()
