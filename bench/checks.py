"""Output checks for the benchmark workloads.

Every checker returns a list of problems; an empty list means the output is
correct.  A non-empty list makes the operation count as failed.

The checks hold the program to its published contract, not to its current
formatting:

* seeded counts lie within a wide z-bound of the exact probability, and at
  the default workload seed they equal counts recorded in
  ``fingerprints.json`` (seed-pinned ensembles must stay bit-identical);
* exact tables satisfy invariants that do not use the closed form, and a
  digest of every table and verdict list equals the recorded one;
* CLI output exits 0 and its JSON/CSV carry the right exact fractions,
  seeded counts, verdicts and ``p_transmission``.  Float formatting and
  ``half_width`` are deliberately not pinned.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

#: Width of the acceptance band for a seeded count, in standard deviations.
#: A correct ensemble leaves it with probability about 2e-9.
Z_BOUND = 6.0

#: ``p_transmission`` must equal E / (g^2 + E) to this absolute tolerance.
SCATTER_TOL = 1e-12

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

#: Problems reported per check before the rest are summarised.
MAX_PROBLEMS = 5


def load_fingerprints() -> dict[str, Any]:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)


def count_problems(count: int, n: int, p: Fraction | float, what: str) -> list[str]:
    """A count of successes out of ``n`` must lie within Z_BOUND sigma of n*p."""
    p = float(p)
    mean = n * p
    sigma = math.sqrt(n * p * (1.0 - p))
    if not isinstance(count, int) or not 0 <= count <= n:
        return [f"{what}: count {count!r} is not an integer in [0, {n}]"]
    if abs(count - mean) > Z_BOUND * sigma + 1e-9:
        return [
            f"{what}: count {count} of {n} is {abs(count - mean) / max(sigma, 1e-300):.1f}"
            f" sigma from the exact mean {mean:.3f}"
        ]
    return []


def equal_problems(got: Any, expected: Any, what: str) -> list[str]:
    return [] if got == expected else [f"{what}: got {got!r}, expected {expected!r}"]


# -- exact tables ---------------------------------------------------------------


def table_cells(table) -> list[list[Fraction]]:
    """Rows k = 1..K of a ``ProbabilityTable`` as lists over K+ = 0..K."""
    return [[p for _, p in row.entries] for row in table.rows]


def table_digest(cells: list[list[Fraction]]) -> str:
    text = "\n".join(
        ",".join(f"{p.numerator}/{p.denominator}" for p in row) for row in cells
    )
    return hashlib.sha256(text.encode()).hexdigest()


def table_problems(K: int, cells: list[list[Fraction]], digest: str | None) -> list[str]:
    """Invariants of an exact transmission table that do not use the closed form.

    * rows k = 1 and 2 equal the Born values K+/K;
    * every even row equals the odd row before it;
    * charge-swap symmetry P(K+, K-) + P(K-, K+) = 1;
    * rows with k >= 2 min(K+, K-) + 1 are deterministic, won by the majority;
    * the digest equals the recorded one (when one is given).
    """
    if len(cells) != K or any(len(row) != K + 1 for row in cells):
        return [f"table K={K}: shape is not {K} x {K + 1}"]
    problems = []
    for k in range(1, min(K, 2) + 1):
        for kp, p in enumerate(cells[k - 1]):
            if p != Fraction(kp, K):
                problems.append(f"table K={K}: P(k={k}, K+={kp}) = {p}, expected {kp}/{K}")
    for k in range(2, K + 1, 2):
        if cells[k - 1] != cells[k - 2]:
            problems.append(f"table K={K}: row k={k} differs from row k={k - 1}")
    for k, row in enumerate(cells, start=1):
        for kp, p in enumerate(row):
            q = row[K - kp]
            if p.denominator != q.denominator or p.numerator + q.numerator != p.denominator:
                problems.append(f"table K={K}: P(k={k}, K+={kp}) + P(K+={K - kp}) != 1")
            if k >= 2 * min(kp, K - kp) + 1 and p != (1 if 2 * kp > K else 0):
                problems.append(f"table K={K}: P(k={k}, K+={kp}) = {p} should be deterministic")
    if digest is not None and table_digest(cells) != digest:
        problems.append(f"table K={K}: digest differs from the recorded one")
    return _capped(problems)


def _witness_text(kind: str, k_plus: int | None, k_minus: int | None) -> str:
    return kind if k_plus is None else f"{kind}({k_plus}/{k_minus})"


def verdict_lines(verdicts) -> list[str]:
    """Canonical lines ``k:verdict:witnesses:note`` of a ``classify_table`` result."""
    lines = []
    for k in sorted(verdicts):
        v = verdicts[k]
        witnesses = ";".join(
            _witness_text(
                w.kind.value,
                None if w.state is None else w.state.k_plus,
                None if w.state is None else w.state.k_minus,
            )
            for w in v.witnesses
        )
        lines.append(f"{k}:{v.verdict.value}:{witnesses}:{v.note or ''}")
    return lines


def verdict_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verdict_problems(K: int, lines: list[str], digest: str | None) -> list[str]:
    if len(lines) != K:
        return [f"verdicts K={K}: {len(lines)} rows, expected {K}"]
    if digest is not None and verdict_digest(lines) != digest:
        return [f"verdicts K={K}: digest differs from the recorded one"]
    return []


# -- CLI output -------------------------------------------------------------------


def _csv_rows(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout)))


def fraction(num: Any, den: Any) -> Fraction:
    return Fraction(int(num), int(den))


def cli_problems(returncode: int, stdout: str, fmt: str, check_parsed) -> list[str]:
    """Exit code 0 always; JSON and CSV output is parsed and checked.

    ``check_parsed(fmt, parsed)`` receives the decoded JSON object or the list
    of CSV rows (dicts).  Text output is only required to be non-empty.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if not stdout.strip():
        return ["empty output"]
    if fmt == "text":
        return []
    parsed = json.loads(stdout) if fmt == "json" else _csv_rows(stdout)
    return _capped(check_parsed(fmt, parsed))


def cli_table_cells(fmt: str, parsed, K: int) -> list[list[Fraction]]:
    if fmt == "json":
        return [[fraction(c["num"], c["den"]) for c in row["cells"]] for row in parsed["rows"]]
    cells = [[None] * (K + 1) for _ in range(K)]
    for r in parsed:
        cells[int(r["k"]) - 1][int(r["k_plus"])] = fraction(r["p_tr_num"], r["p_tr_den"])
    return cells


def cli_verdict_lines(fmt: str, parsed) -> list[str]:
    if fmt == "json":
        keys = sorted(parsed["verdicts"], key=int)
        return [
            f"{k}:{parsed['verdicts'][k]}:"
            + ";".join(_witness_text(w["kind"], w["k_plus"], w["k_minus"]) for w in parsed["witnesses"][k])
            + f":{parsed['notes'][k] or ''}"
            for k in keys
        ]
    return [f"{r['k']}:{r['verdict']}:{r['witnesses']}:{r['note']}" for r in parsed]


def cli_ensemble_fields(fmt: str, parsed, key: str = "result") -> dict[str, Any]:
    """n_trials, transmitted, seed, generator of a single-ensemble command."""
    if fmt == "json":
        e = parsed[key]
        return {k: e[k] for k in ("n_trials", "transmitted", "seed", "generator")}
    (r,) = parsed
    return {
        "n_trials": int(r["n_trials"]),
        "transmitted": int(r["transmitted"]),
        "seed": int(r["seed"]),
        "generator": r["generator"],
    }


def cli_scatter_problems(fmt: str, parsed, coupling: float, n_points: int) -> list[str]:
    if fmt == "json":
        points = [(p["energy"], p["p_transmission"]) for p in parsed["points"]]
    else:
        points = [(float(r["energy"]), float(r["p_tr"])) for r in parsed]
    problems = equal_problems(len(points), n_points, "scatter point count")
    g2 = coupling * coupling
    for e, p in points:
        if not abs(p - e / (g2 + e)) <= SCATTER_TOL:
            problems.append(f"scatter E={e!r}: p_transmission {p!r} != E/(g^2+E)")
    return problems


def _capped(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_PROBLEMS:
        return problems
    return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
