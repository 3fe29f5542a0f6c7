"""Benchmark for deltamachine: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload monte_carlo --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``monte_carlo``,
``exact_tables`` and ``cli_session``.  The load is a closed loop from one
client in one process; ``cli_session`` runs one child process at a time.

``--trace 0`` repeats the workload's cycle for ``--seconds`` (and at least
100 operations), checks every output and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of cycles twice, untraced and then with
spans around every layer, and reports the per-layer metrics and the tracing
overhead; its counts repeat exactly for a given seed.

The package is imported from ``src/`` of the checkout; nothing is installed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Numeric libraries run single-threaded in this process and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Environment overrides of the program that would change what it does.
PROGRAM_VARS = ("DELTAMACHINE_OUTPUT", "DELTAMACHINE_TABLE_CEILING")

WORKLOADS = {
    "monte_carlo": "seeded run_ensemble over small K and K = 64, 256 with k << K and k ~ K, "
    "plus simulate_elastic and a small empirical_table",
    "exact_tables": "probability_table and classify_table for K = 16..128: exact Fraction arithmetic only",
    "cli_session": "README commands as fresh python -m deltamachine processes in text, json and csv",
}

#: (metric, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: What one unit of ``work_per_s`` is, per workload.
WORK_UNIT = {"monte_carlo": "trials", "exact_tables": "table cells", "cli_session": "output bytes"}

MIN_OPS = 100  # at least ten samples beyond p90
LIMIT_S = 150.0  # a run stops measuring here whatever it has done
REPEATS = 7  # fresh interpreters per start-up measurement
TRACE_CYCLES = {"monte_carlo": 4, "exact_tables": 2, "cli_session": 2}
#: What a fresh interpreter imports for the set-up measurement.
SETUP_IMPORT = {
    "monte_carlo": "import deltamachine",
    "exact_tables": "import deltamachine",
    "cli_session": "import deltamachine.cli",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_VARS}
    env.update({var: "1" for var in THREAD_VARS})
    # Every child compiles its modules afresh and writes nothing into src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(env: dict[str, str], code: str, probes: tuple[str, ...], *flags: str):
    """Run ``code`` in fresh interpreters; yield (process, wall, rescaled time)."""
    import calibrate

    for _ in range(REPEATS):
        yield calibrate.timed(lambda: subprocess.run(
            [sys.executable, *flags, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=60), probes)


def fresh_python_s(env: dict[str, str], code: str, probes: tuple[str, ...]) -> tuple[float, float]:
    """Median (wall, rescaled) time of a fresh interpreter running ``code``."""
    runs = list(fresh_python(env, code, probes))
    return statistics.median(r[1] for r in runs), statistics.median(r[2] for r in runs)


def numpy_import_s(env: dict[str, str], probes: tuple[str, ...]) -> float:
    """Median cumulative import time of numpy in ``import deltamachine.cli``, rescaled."""
    times = []
    for proc, wall, scaled in fresh_python(env, "import deltamachine.cli", probes, "-X", "importtime"):
        us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                us = int(parts[1])
        times.append(us / 1e6 * scaled / wall)
    return statistics.median(times)


def environment(workload: str, seed: int) -> dict[str, object]:
    import numpy
    from deltamachine import rng

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "deltamachine").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "generator": rng.GENERATOR_NAME,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def cycle(workload: str, seed: int, env: dict[str, str], in_process: bool = False):
    import workloads

    if workload == "monte_carlo":
        return workloads.monte_carlo(seed)
    if workload == "exact_tables":
        return workloads.exact_tables(seed)
    run = workloads.inprocess_run if in_process else workloads.subprocess_runner(ROOT, env)
    return workloads.cli_session(seed, run)


def measure(workload: str, seed: int, seconds: float, env: dict[str, str]):
    """Untraced run: the end-to-end metrics."""
    import workloads

    probes = workloads.PROBES[workload]
    setup_wall, setup_s = fresh_python_s(env, SETUP_IMPORT[workload], probes)
    ops = cycle(workload, seed, env)
    tally = workloads.run_loop(ops, seconds, MIN_OPS, LIMIT_S)
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF

    def timing(latencies: list[float]) -> dict[str, float]:
        busy = sum(latencies)
        deciles = statistics.quantiles(latencies, n=10)
        return {
            "ops_per_s": len(latencies) / busy,
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "work_per_s": tally.work / busy,
        }

    metrics = {"setup_s": setup_s, **timing(tally.scaled),
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}  # KiB on Linux
    wall = timing(tally.latencies)
    notes = [
        "times at the reference speed (see calibrate.py); as measured on the wall clock: "
        f"setup_s {setup_wall:.4g}, " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()),
        f"{tally.attempted} operations in {sum(tally.latencies):.3f} s of calls, cycle of {len(ops)}",
        f"work_per_s counts {WORK_UNIT[workload]} ({tally.work} in all)",
        f"setup_s: median of {REPEATS} fresh interpreters running '{SETUP_IMPORT[workload]}'",
    ]
    if workload == "cli_session":
        notes.append("peak_rss_mb: largest child process")
    return metrics, dict(END_TO_END), tally, notes


def measure_traced(workload: str, seed: int, env: dict[str, str]):
    """Traced run: per-layer metrics and the tracing overhead.

    After one untraced warm-up cycle, every operation runs untraced and then
    traced, back to back, so that drift in machine speed cancels out of the
    overhead.  All three passes are checked.
    """
    import tracing
    import workloads

    probes = workloads.PROBES[workload]
    ops = cycle(workload, seed, env, in_process=True)
    warm, plain, traced = workloads.Tally(), workloads.Tally(), workloads.Tally()
    for op in ops:
        workloads.execute(op, warm)
    tracer = tracing.Tracer()

    def traced_call(op):
        # Installed around the call only: the output check stays untraced.
        with tracer.installed():
            return tracer.wrap("op", op.run)()

    for op in ops * TRACE_CYCLES[workload]:
        workloads.execute(op, plain)
        workloads.execute(op, traced, run=lambda: traced_call(op))
    metrics = tracing.layer_metrics(tracer, sum(traced.scaled) / sum(traced.latencies))
    startup = numpy_s = 0.0
    if workload == "cli_session":
        startup = (fresh_python_s(env, "import deltamachine.cli", probes)[1]
                   - fresh_python_s(env, "pass", probes)[1])
        numpy_s = numpy_import_s(env, probes)
    metrics["cli.startup_s"] = startup
    metrics["cli.numpy_import_s"] = numpy_s
    metrics["trace.overhead_ratio"] = sum(traced.scaled) / sum(plain.scaled) - 1.0
    notes = [
        f"{len(plain.latencies)} operations ({TRACE_CYCLES[workload]} cycles) untraced in "
        f"{sum(plain.latencies):.3f} s, traced in {sum(traced.latencies):.3f} s",
        "computed from inputs: machine.useful_step_ratio, machine.chunk_bytes_max, "
        "spheres.cells, regimes.rows",
        "exact counts (repeat for a seed): " + ", ".join(tracing.EXACT_COUNTS),
    ]
    if workload == "cli_session":
        notes.append("commands run in-process through cli.main; start-up measured in fresh interpreters")
    else:
        notes.append("cli.* metrics are 0: this workload does not use the CLI")
    total = workloads.Tally()
    for tally in (warm, plain, traced):
        total.latencies += tally.latencies
        total.scaled += tally.scaled
        total.failed += tally.failed
        total.problems += tally.problems
    order = [name for name, _ in tracing.PER_LAYER]
    return {name: metrics[name] for name in order}, dict(tracing.PER_LAYER), total, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltamachine" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'deltamachine'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})  # before numpy loads
    # One CPU for this process and its children: the speed probe then runs
    # where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in PROGRAM_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import deltamachine

    if Path(deltamachine.__file__).resolve().parent != (SRC / "deltamachine").resolve():
        print(f"error: deltamachine was imported from {deltamachine.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.seed is None:
        import workloads

        args.seed = workloads.DEFAULT_SEED
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    if args.trace:
        metrics, units, tally, notes = measure_traced(args.workload, args.seed, env)
    else:
        metrics, units, tally, notes = measure(args.workload, args.seed, args.seconds, env)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>18.6g} {units[name]}")
    print(f"  {'fail_ratio':28s} {tally.failed / tally.attempted:>18.6g} ratio "
          f"({tally.failed} of {tally.attempted} failed or wrong)")
    for note in notes:
        print(f"  # {note}")
    for problem in tally.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
