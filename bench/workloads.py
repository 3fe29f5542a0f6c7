"""Workloads: fixed, cyclic operation lists generated from a workload seed.

Each workload is a list of operations that the benchmark repeats in order,
one at a time (a closed loop with one client).  The seed chooses only the
inputs that leave the cost of an operation unchanged — ensemble seeds,
charge splits of odd tranches, energies, angles and the order of the exact
tables — so every seed gives the same amount of work.  The library receives
only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from deltamachine import cli, elastic, machine, regimes, rng, spheres

import calibrate
import checks

#: Reference work that calibrates each workload's times (see
#: ``calibrate.py``): its set-up, and every operation that names no other.
PROBES = {
    "monte_carlo": ("numpy",),
    "exact_tables": ("fractions",),
    "cli_session": ("numpy", "fractions"),
}
#: Ensembles whose chunk (32768 trials x K bytes) outgrows the cache are
#: calibrated with the large-matrix probe.
LARGE_CHUNK_K = 128

#: Workload seed whose Monte Carlo counts are pinned in ``fingerprints.json``.
DEFAULT_SEED = 1

#: (K+, K-, k, n_trials) of the sphere-machine ensembles in one monte_carlo
#: cycle: small K, and K = 64 and 256 with k << K and k close to K.  The
#: charge split is fixed because it sets how often a tie needs an extra draw.
MC_SMALL = ((2, 1, 1, 1 << 17), (4, 3, 3, 1 << 16), (8, 8, 8, 1 << 16))
MC_MID = ((32, 32, 10, 1 << 15), (32, 32, 60, 1 << 15))
MC_LARGE = ((128, 128, 10, 1 << 15), (128, 128, 250, 1 << 15))
ELASTIC_TRIALS = 1 << 20
EMPIRICAL_K, EMPIRICAL_TRIALS = 4, 1 << 12

#: Sizes of the exact tables; K above 64 goes through ``ceiling=``.  The
#: cycle has 25 operations, an odd count that puts its median and p90 inside
#: one size instead of between two.
TABLE_SIZES = (16, 20, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128)
CLASSIFY_SIZES = TABLE_SIZES[1:]

CLI_FORMATS = ("text", "json", "csv")
CLI_TRIALS = 100_000
CLI_GRID_POINTS = 10_000
CLI_TIMEOUT_S = 20  # a command normally takes under 2 s


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` judges its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    #: Units of work the output represents: trials, table cells or bytes.
    work: Callable[[Any], int]
    #: Reference work timed around every call (see ``calibrate.py``).
    probes: tuple[str, ...]


@dataclass
class Tally:
    #: Wall time of every call, and the same at the reference speed.
    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    work: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def execute(op: Op, tally: Tally, run: Callable[[], Any] | None = None) -> None:
    """Time one call of the operation and record it, checked, in ``tally``.

    Only the call is timed.  An exception, from the call or the check,
    counts as a failed operation.
    """
    failure: list[Exception] = []

    def call() -> Any:
        try:
            return (run or op.run)()
        except Exception as exc:  # a failed operation, not a failed benchmark
            failure.append(exc)

    out, wall, scaled = calibrate.timed(call, op.probes)
    tally.latencies.append(wall)
    tally.scaled.append(scaled)
    if failure:
        problems = [f"raised {failure[0]!r}"]
    else:
        try:
            problems = op.check(out)
            tally.work += op.work(out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    if problems:
        tally.failed += 1
        tally.problems.extend(f"{op.name}: {p}" for p in problems)


def run_loop(ops: list[Op], seconds: float, min_ops: int, limit_s: float) -> Tally:
    """Repeat whole cycles until ``seconds`` have passed and ``min_ops`` ran.

    Stopping only between cycles keeps the mix of operations, and so the
    percentiles, the same from run to run.  ``limit_s`` stops the loop
    anywhere, so a very slow program still ends the run in time.
    """
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while True:
        execute(ops[i % len(ops)], tally)
        i += 1
        elapsed = time.perf_counter() - start
        whole = i % len(ops) == 0
        if (whole and i >= min_ops and elapsed >= seconds) or elapsed >= limit_s:
            return tally


def _rand(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- monte_carlo --------------------------------------------------------------------


def ensemble_op(kp: int, km: int, k: int, n: int, seed: int, pinned: list[int] | None) -> Op:
    state = spheres.ElectricState(kp, km)
    meas = spheres.KMeasurement(k)
    p = spheres.transmission_probability_exact(state, meas)
    what = f"ensemble K+={kp} K-={km} k={k} seed={seed}"

    def check(result) -> list[str]:
        problems = checks.equal_problems(result.n_trials, n, what + " n_trials")
        problems += checks.equal_problems(result.generator, rng.GENERATOR_NAME, what + " generator")
        problems += checks.count_problems(result.transmitted, n, p, what)
        if pinned is not None:
            problems += checks.equal_problems([result.transmitted], pinned, what + " pinned count")
        return problems

    return Op(
        f"ensemble K={kp + km} k={k}",
        lambda: machine.run_ensemble(state, meas, n, seed),
        check,
        lambda result: n,
        ("numpy_large",) if kp + km >= LARGE_CHUNK_K else PROBES["monte_carlo"],
    )


def elastic_op(theta: float, eps: float, n: int, seed: int, pinned: list[int] | None) -> Op:
    experiment = elastic.ElasticExperiment(theta=theta, epsilon=eps)
    p = elastic.epsilon_probabilities(experiment).p_plus
    what = f"elastic theta={theta!r} eps={eps!r} seed={seed}"

    def check(result) -> list[str]:
        problems = checks.count_problems(result.transmitted, n, p, what)
        if pinned is not None:
            problems += checks.equal_problems([result.transmitted], pinned, what + " pinned count")
        return problems

    return Op(
        "elastic",
        lambda: elastic.simulate_elastic(experiment, n, seed),
        check,
        lambda result: n,
        ("numpy", "fractions"),  # float arrays and a scalar Python loop per chunk
    )


def empirical_counts(table) -> list[int]:
    return [result.transmitted for row in table.rows for _, result in row.entries]


def empirical_op(K: int, n: int, seed: int, pinned: list[int] | None) -> Op:
    def check(table) -> list[str]:
        problems = []
        for row in table.rows:
            meas = spheres.KMeasurement(row.k)
            for state, result in row.entries:
                p = spheres.transmission_probability_exact(state, meas)
                problems += checks.count_problems(
                    result.transmitted, n, p, f"empirical K={K} k={row.k} K+={state.k_plus}"
                )
        if pinned is not None:
            problems += checks.equal_problems(empirical_counts(table), pinned, "empirical pinned counts")
        return problems

    return Op(
        f"empirical_table K={K}",
        lambda: machine.empirical_table(K, n, seed),
        check,
        lambda table: K * (K + 1) * n,
        PROBES["monte_carlo"],
    )


def monte_carlo(seed: int, pin: bool = True) -> list[Op]:
    """15 operations: ensembles on every cell, two elastic runs, one small table.

    At the default seed the counts are also compared with the pinned ones,
    unless ``pin`` is off.
    """
    rand = _rand("monte_carlo", seed)
    fingerprints = checks.load_fingerprints()
    pinned = fingerprints["monte_carlo"] if pin and seed == fingerprints["default_seed"] else None
    plan = [
        MC_SMALL[0], MC_MID[0], "elastic", MC_SMALL[1], MC_LARGE[0], MC_SMALL[2], MC_MID[1],
        "empirical",
        MC_SMALL[0], MC_MID[0], "elastic", MC_SMALL[1], MC_LARGE[1], MC_SMALL[2], MC_MID[1],
    ]
    ops = []
    for i, item in enumerate(plan):
        expected = None if pinned is None else pinned[i]
        if item == "elastic":
            # The particle lands on the breakable part: a fractional probability.
            eps = rand.uniform(0.2, 1.0)
            theta = math.acos(rand.uniform(-0.9, 0.9) * eps)
            ops.append(elastic_op(theta, eps, ELASTIC_TRIALS, rand.getrandbits(64), expected))
        elif item == "empirical":
            ops.append(empirical_op(EMPIRICAL_K, EMPIRICAL_TRIALS, rand.getrandbits(64), expected))
        else:
            kp, km, k, n = item
            ops.append(ensemble_op(kp, km, k, n, rand.getrandbits(64), expected))
    return ops


# -- exact_tables ---------------------------------------------------------------------


def _ceiling(K: int) -> dict[str, int]:
    return {"ceiling": K} if K > spheres.DEFAULT_TABLE_CEILING else {}


def table_op(K: int, digest: str | None) -> Op:
    return Op(
        f"probability_table K={K}",
        lambda: spheres.probability_table(K, **_ceiling(K)),
        lambda table: checks.table_problems(K, checks.table_cells(table), digest),
        lambda table: K * (K + 1),
        PROBES["exact_tables"],
    )


def classify_op(K: int, digest: str | None) -> Op:
    return Op(
        f"classify_table K={K}",
        lambda: regimes.classify_table(K, **_ceiling(K)),
        lambda verdicts: checks.verdict_problems(K, checks.verdict_lines(verdicts), digest),
        lambda verdicts: K * (K + 1),
        PROBES["exact_tables"],
    )


def exact_tables(seed: int) -> list[Op]:
    """Every table size once through ``probability_table`` and ``classify_table``."""
    fingerprints = checks.load_fingerprints()
    ops = [table_op(K, fingerprints["tables"][str(K)]) for K in TABLE_SIZES]
    ops += [classify_op(K, fingerprints["verdicts"][str(K)]) for K in CLASSIFY_SIZES]
    _rand("exact_tables", seed).shuffle(ops)
    return ops


# -- cli_session ------------------------------------------------------------------------


@dataclass
class CliCommand:
    argv: list[str]
    #: ``check(fmt, parsed)`` for parsed JSON or CSV output.
    check: Callable[[str, Any], list[str]]


def _ref(compute: Callable[[], Any]) -> Callable[[], Any]:
    """Compute a library reference value once, on first use."""
    memo: list[Any] = []

    def get() -> Any:
        if not memo:
            memo.append(compute())
        return memo[0]

    return get


def _ensemble_checks(fields: dict[str, Any], n: int, seed: int, count: int, p: Fraction, what: str) -> list[str]:
    problems = checks.equal_problems(fields["n_trials"], n, what + " n_trials")
    problems += checks.equal_problems(fields["seed"], seed, what + " seed")
    problems += checks.equal_problems(fields["generator"], rng.GENERATOR_NAME, what + " generator")
    problems += checks.equal_problems(fields["transmitted"], count, what + " seeded count")
    problems += checks.count_problems(fields["transmitted"], n, p, what)
    return problems


def _cli_tables(K: int, golden: bool, fingerprints) -> CliCommand:
    def check(fmt, parsed) -> list[str]:
        cells = checks.cli_table_cells(fmt, parsed, K)
        problems = checks.table_problems(K, cells, fingerprints["tables"][str(K)])
        if golden and fmt == "json":
            problems += checks.equal_problems(parsed.get("golden_checked"), True, "golden_checked")
        return problems

    return CliCommand(["tables", "--K", str(K)] + (["--golden"] if golden else []), check)


def _cli_classify(K: int, fingerprints) -> CliCommand:
    def check(fmt, parsed) -> list[str]:
        lines = checks.cli_verdict_lines(fmt, parsed)
        return checks.verdict_problems(K, lines, fingerprints["verdicts"][str(K)])

    return CliCommand(["classify", "--K", str(K)], check)


def _cli_simulate(kp: int, km: int, k: int, n: int, seed: int) -> CliCommand:
    state, meas = spheres.ElectricState(kp, km), spheres.KMeasurement(k)
    p = spheres.transmission_probability_exact(state, meas)
    count = _ref(lambda: machine.run_ensemble(state, meas, n, seed).transmitted)

    def check(fmt, parsed) -> list[str]:
        if fmt == "json":
            expected = checks.fraction(parsed["expected"]["num"], parsed["expected"]["den"])
        else:
            expected = checks.fraction(parsed[0]["expected_num"], parsed[0]["expected_den"])
        problems = checks.equal_problems(expected, p, "simulate expected")
        fields = checks.cli_ensemble_fields(fmt, parsed)
        return problems + _ensemble_checks(fields, n, seed, count(), p, "simulate")

    argv = ["simulate", "--kp", str(kp), "--km", str(km), "--k", str(k), "--n", str(n), "--seed", str(seed)]
    return CliCommand(argv, check)


def _cli_scatter(energies: list[float], coupling: float) -> CliCommand:
    argv = ["scatter", "--coupling", repr(coupling)]
    for e in energies:
        argv += ["--E", repr(e)]
    return CliCommand(argv, lambda fmt, parsed: checks.cli_scatter_problems(fmt, parsed, coupling, len(energies)))


def _cli_grid(lo: float, hi: float, n: int, coupling: float) -> CliCommand:
    argv = ["scatter", "--grid", f"{lo!r}:{hi!r}:{n}", "--coupling", repr(coupling)]
    return CliCommand(argv, lambda fmt, parsed: checks.cli_scatter_problems(fmt, parsed, coupling, n))


def _cli_epsilon(theta: float, eps: float, n: int, seed: int) -> CliCommand:
    experiment = elastic.ElasticExperiment(theta=theta, epsilon=eps)
    p_plus = elastic.epsilon_probabilities(experiment).p_plus
    count = _ref(lambda: elastic.simulate_elastic(experiment, n, seed).transmitted)

    def check(fmt, parsed) -> list[str]:
        got = parsed["closed_form"]["p_plus"] if fmt == "json" else float(parsed[0]["p_plus"])
        problems = [] if abs(got - p_plus) <= checks.SCATTER_TOL else [f"epsilon p_plus {got!r} != {p_plus!r}"]
        fields = checks.cli_ensemble_fields(fmt, parsed, key="simulation")
        return problems + _ensemble_checks(fields, n, seed, count(), p_plus, "epsilon")

    argv = ["epsilon", "--theta", repr(theta), "--eps", repr(eps), "--n", str(n), "--seed", str(seed)]
    return CliCommand(argv, check)


def _cli_convergence(kp: int, km: int, k: int, seed: int) -> CliCommand:
    state, meas = spheres.ElectricState(kp, km), spheres.KMeasurement(k)
    p = spheres.transmission_probability_exact(state, meas)
    schedule = cli.DEFAULT_SCHEDULE
    counts = _ref(lambda: [machine.run_ensemble(state, meas, n, seed).transmitted for n in schedule])

    def check(fmt, parsed) -> list[str]:
        if fmt == "json":
            series = parsed["series"]
            problems = checks.equal_problems(
                checks.fraction(parsed["expected"]["num"], parsed["expected"]["den"]), p, "convergence expected"
            )
        else:
            series = [
                {"n_trials": int(r["n_trials"]), "transmitted": int(r["transmitted"]),
                 "seed": int(r["seed"]), "generator": r["generator"]}
                for r in parsed
            ]
            problems = []
        problems += checks.equal_problems(len(series), len(schedule), "convergence series length")
        for entry, n, count in zip(series, schedule, counts()):
            problems += _ensemble_checks(entry, n, seed, count, p, f"convergence n={n}")
        return problems

    argv = ["convergence", "--kp", str(kp), "--km", str(km), "--k", str(k), "--seed", str(seed)]
    return CliCommand(argv, check)


def cli_commands(seed: int) -> list[CliCommand]:
    """The README commands, with seed-chosen inputs of fixed cost."""
    rand = _rand("cli_session", seed)
    fingerprints = checks.load_fingerprints()
    kp_sim, kp_conv = rand.randint(1, 15), rand.randint(1, 8)
    lo = rand.uniform(0.01, 1.0)
    return [
        _cli_tables(rand.randint(6, 12), False, fingerprints),
        _cli_tables(rand.randint(2, 7), True, fingerprints),
        _cli_classify(64, fingerprints),
        _cli_simulate(kp_sim, 16 - kp_sim, 5, CLI_TRIALS, rand.getrandbits(64)),
        _cli_scatter([rand.uniform(0.0, 50.0) for _ in range(3)], rand.uniform(0.5, 2.0)),
        _cli_grid(lo, lo + rand.uniform(10.0, 100.0), CLI_GRID_POINTS, rand.uniform(0.5, 2.0)),
        _cli_epsilon(rand.uniform(0.0, math.pi), rand.uniform(0.1, 1.0), CLI_TRIALS, rand.getrandbits(64)),
        _cli_convergence(kp_conv, 9 - kp_conv, 3, rand.getrandbits(64)),
    ]


def cli_op(command: CliCommand, fmt: str, run: Callable[[list[str]], tuple[int, str]]) -> Op:
    argv = command.argv + ["--format", fmt]
    return Op(
        f"deltamachine {' '.join(argv)}",
        lambda: run(argv),
        lambda out: checks.cli_problems(out[0], out[1], fmt, command.check),
        lambda out: len(out[1].encode()),
        PROBES["cli_session"],
    )


def cli_session(seed: int, run: Callable[[list[str]], tuple[int, str]]) -> list[Op]:
    """24 operations: each command once in each output format.

    ``run(argv)`` executes one command and returns ``(exit code, stdout)``.
    """
    commands = cli_commands(seed)
    return [
        cli_op(command, CLI_FORMATS[(i + r) % len(CLI_FORMATS)], run)
        for r in range(len(CLI_FORMATS))
        for i, command in enumerate(commands)
    ]


def subprocess_runner(root: Path, env: dict[str, str]) -> Callable[[list[str]], tuple[int, str]]:
    """Run each command as a fresh ``python -m deltamachine`` process."""

    def run(argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "deltamachine", *argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    return run


def inprocess_run(argv: list[str]) -> tuple[int, str]:
    """Run one command through ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()
