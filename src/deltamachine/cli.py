"""Command-line interface: tables, simulations, scattering, classification.

Exit codes: 0 success, 2 usage or validation error (an unwritable output
path included), 3 golden-table mismatch.
Every randomized command reports its seed and generator name, so any
published number can be reproduced bit-for-bit; when no seed is given a
fresh one is drawn and printed in the report header.

Environment overrides (these two only): ``DELTAMACHINE_OUTPUT`` for the
default output path, ``DELTAMACHINE_TABLE_CEILING`` for the largest K the
table builders accept.  argparse resolves every option, flag over
environment variable over default, and converts it, so a malformed value is
a usage error before any command runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import secrets
import sys
from typing import Any

from . import serialize
from .elastic import ElasticExperiment, epsilon_probabilities, simulate_elastic
from .ensemble import DEFAULT_Z
from .golden import GOLDEN_SIZES, golden_table
from .machine import run_ensemble
from .regimes import classify_table
from .scattering import (
    ScatteringConfig,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_probability,
)
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    KMeasurement,
    probability_table,
    transmission_probability_exact,
)

ENV_OUTPUT = "DELTAMACHINE_OUTPUT"
ENV_CEILING = "DELTAMACHINE_TABLE_CEILING"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GOLDEN_MISMATCH = 3

DEFAULT_SCHEDULE = (100, 1000, 10_000, 100_000)


class GoldenMismatch(Exception):
    pass


def _parse_ceiling(spec: str) -> int:
    try:
        return int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--ceiling and {ENV_CEILING} take an integer, got {spec!r}"
        ) from None


# -- rendering ---------------------------------------------------------------


def _render_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _grid_text(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fraction_text(payload: dict[str, Any]) -> str:
    num, den = payload["num"], payload["den"]
    return str(num) if den == 1 else f"{num}/{den}"


# -- tables ------------------------------------------------------------------


def _check_golden(table) -> None:
    mismatches = [
        f"k={row.k} K+={state.k_plus}: computed {value}, golden {expected}"
        for row, ref_row in zip(table.rows, golden_table(table.K))
        for (state, value), expected in zip(row.entries, ref_row)
        if value != expected
    ]
    if mismatches:
        raise GoldenMismatch("; ".join(mismatches))


def _cmd_tables(args: argparse.Namespace) -> dict[str, Any]:
    if args.golden and args.K not in GOLDEN_SIZES:
        raise ValueError(
            f"--golden is available for K in {GOLDEN_SIZES}, got K={args.K}"
        )
    table = probability_table(args.K, ceiling=args.ceiling)
    payload = serialize.table_payload(table)
    if args.golden:
        _check_golden(table)
        payload["golden_checked"] = True
    return payload


def _tables_text(payload: dict[str, Any]) -> str:
    grid_header = ["k\\E"] + [s["energy"] for s in payload["states"]]
    frac_rows = [
        [str(row["k"])] + [_fraction_text(p) for p in row["cells"]]
        for row in payload["rows"]
    ]
    dec_rows = [
        [str(row["k"])] + [f"{p['decimal']:.6f}" for p in row["cells"]]
        for row in payload["rows"]
    ]
    text = (
        f"transmission probabilities, K = {payload['K']} "
        "(rows: tranche size k; columns: state energy K+/K-)\n"
        + _grid_text(grid_header, frac_rows)
        + "decimal equivalents\n"
        + _grid_text(grid_header, dec_rows)
    )
    if payload.get("golden_checked"):
        text += f"golden check passed for K = {payload['K']}\n"
    return text


# -- simulate ----------------------------------------------------------------


def _cell_payload(
    args: argparse.Namespace, command: str
) -> tuple[ElectricState, KMeasurement, dict[str, Any]]:
    """The cell of ``--kp/--km/--k`` and the payload head with its exact value."""
    state = ElectricState(args.kp, args.km)
    meas = KMeasurement(args.k)
    expected = transmission_probability_exact(state, meas)
    payload = {
        "command": command,
        "k_plus": state.k_plus,
        "k_minus": state.k_minus,
        "k": meas.k,
        "expected": serialize.fraction_payload(expected),
    }
    return state, meas, payload


def _cmd_simulate(args: argparse.Namespace) -> dict[str, Any]:
    state, meas, payload = _cell_payload(args, "simulate")
    result = run_ensemble(state, meas, args.n, args.seed, z=args.z)
    payload["result"] = serialize.ensemble_payload(result)
    return payload


def _simulate_text(payload: dict[str, Any]) -> str:
    expected, result = payload["expected"], payload["result"]
    return (
        "sphere-machine ensemble\n"
        f"seed={result['seed']} generator={result['generator']} z={result['z']}\n"
        f"k_plus={payload['k_plus']} k_minus={payload['k_minus']} k={payload['k']} "
        f"n_trials={result['n_trials']}\n"
        f"expected    = {_fraction_text(expected)} = {expected['decimal']!r}\n"
        f"transmitted = {result['transmitted']}\n"
        f"frequency   = {_fraction_text(result['frequency'])} = "
        f"{result['frequency']['decimal']!r}\n"
        f"half_width  = {result['half_width']!r}\n"
    )


# -- scatter -----------------------------------------------------------------


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI:N, got {spec!r}") from None
    if n < 2 or not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise argparse.ArgumentTypeError("expected finite LO < HI and N >= 2")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _cmd_scatter(args: argparse.Namespace) -> dict[str, Any]:
    energies: list[float] = (args.E or []) + (args.grid or [])
    if not energies:
        raise ValueError("scatter requires --E and/or --grid")
    config = ScatteringConfig(coupling=args.coupling)

    points = [
        serialize.scatter_point_payload(
            amplitudes(e, config),
            transmission_probability(e, config),
            reflection_probability(e, config),
            jump_condition_residual(e, config),
        )
        for e in energies
    ]
    return {"command": "scatter", "coupling": config.coupling, "points": points}


def _scatter_text(payload: dict[str, Any]) -> str:
    # The text grid shows the CSV columns, each in its own number format.
    _, rows = serialize.scatter_csv_rows(payload)
    specs = ("g", ".12g", ".12g", ".12g", ".12g", ".12g", ".12g", ".3g")
    grid_header = ["energy", "T_re", "T_im", "R_re", "R_im", "P_tr", "P_re", "residual"]
    text_rows = [[format(v, spec) for v, spec in zip(row, specs)] for row in rows]
    return (
        f"delta-potential scattering, coupling = {payload['coupling']:g} "
        "(multiples of sqrt(2 hbar^2 / m))\n" + _grid_text(grid_header, text_rows)
    )


# -- epsilon -----------------------------------------------------------------


def _cmd_epsilon(args: argparse.Namespace) -> dict[str, Any]:
    experiment = ElasticExperiment(theta=args.theta, epsilon=args.eps)
    simulation = None
    if args.n is not None:
        result = simulate_elastic(experiment, args.n, args.seed, z=args.z)
        simulation = serialize.ensemble_payload(result)
    return {
        "command": "epsilon",
        "theta": experiment.theta,
        "epsilon": experiment.epsilon,
        "cos_theta": experiment.cos_theta,
        "closed_form": serialize.outcome_pair_payload(epsilon_probabilities(experiment)),
        "simulation": simulation,
    }


def _epsilon_text(payload: dict[str, Any]) -> str:
    pair, sim = payload["closed_form"], payload["simulation"]
    text = (
        "elastic-band measurement\n"
        f"theta={payload['theta']!r} epsilon={payload['epsilon']!r} "
        f"cos_theta={payload['cos_theta']!r}\n"
        f"closed form: p_plus={pair['p_plus']!r} p_minus={pair['p_minus']!r}\n"
    )
    if sim is not None:
        text += (
            f"simulation: seed={sim['seed']} generator={sim['generator']} "
            f"z={sim['z']}\n"
            f"n_trials={sim['n_trials']} plus_outcomes={sim['transmitted']} "
            f"frequency={sim['frequency']['decimal']!r} "
            f"half_width={sim['half_width']!r}\n"
        )
    return text


# -- classify ----------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    verdicts = classify_table(args.K, ceiling=args.ceiling)
    return {"command": "classify", "K": args.K, **serialize.verdicts_payload(verdicts)}


def _classify_text(payload: dict[str, Any]) -> str:
    lines = [f"regime classification, K = {payload['K']}"]
    for key, verdict in payload["verdicts"].items():
        witnesses = ", ".join(
            serialize.witness_label(w) for w in payload["witnesses"][key]
        )
        line = f"k={key}: {verdict}  [{witnesses}]"
        if payload["notes"][key]:
            line += f"  note: {payload['notes'][key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- convergence -------------------------------------------------------------


def _parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {spec!r}"
        ) from None
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("entries must be positive")
    return values


def _cmd_convergence(args: argparse.Namespace) -> dict[str, Any]:
    state, meas, payload = _cell_payload(args, "convergence")
    payload["schedule"] = list(args.schedule)
    payload["series"] = []
    for n in args.schedule:
        result = run_ensemble(state, meas, n, args.seed, z=args.z)
        entry = serialize.ensemble_payload(result)
        entry["abs_error"] = abs(float(result.frequency) - payload["expected"]["decimal"])
        payload["series"].append(entry)
    return payload


def _convergence_text(payload: dict[str, Any]) -> str:
    series, expected = payload["series"], payload["expected"]
    grid_header = ["n_trials", "frequency", "abs_error", "half_width"]
    text_rows = [
        [
            str(e["n_trials"]),
            f"{e['frequency']['decimal']:.6f}",
            f"{e['abs_error']:.6f}",
            f"{e['half_width']:.6f}",
        ]
        for e in series
    ]
    return (
        "frequency convergence, sphere-machine ensemble\n"
        f"seed={series[0]['seed']} generator={series[0]['generator']} "
        f"z={series[0]['z']}\n"
        f"k_plus={payload['k_plus']} k_minus={payload['k_minus']} k={payload['k']} "
        f"expected={_fraction_text(expected)}={expected['decimal']!r}\n"
        + _grid_text(grid_header, text_rows)
    )


# -- parser / entry point ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamachine",
        description=(
            "Exact tables, seeded simulations, delta-potential scattering, and "
            "regime classification for the charged-sphere machine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, declared once as parent parsers.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"), default="text", help="output format (default: text)")
    output.add_argument("--output", default=os.environ.get(ENV_OUTPUT), help=f"write output to this path (default: ${ENV_OUTPUT} or stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--K", type=int, required=True, help="cluster size")
    table.add_argument("--ceiling", type=_parse_ceiling, default=os.environ.get(ENV_CEILING, DEFAULT_TABLE_CEILING), help=f"table size ceiling (default: ${ENV_CEILING} or {DEFAULT_TABLE_CEILING})")
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--kp", type=int, required=True, help="positive-sphere count")
    cell.add_argument("--km", type=int, required=True, help="negative-sphere count")
    cell.add_argument("--k", type=int, required=True, help="tranche size")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=secrets.randbits(64), help="master seed (default: random, recorded in the report)")
    seeded.add_argument("--z", type=float, default=DEFAULT_Z, help="confidence level for the half-width")

    p = sub.add_parser("tables", parents=[table, output], help="exact transmission-probability table")
    p.add_argument("--golden", action="store_true", help="check against the frozen reference tables (K in 2..7)")

    p = sub.add_parser("simulate", parents=[cell, seeded, output], help="seeded sphere-machine ensemble")
    p.add_argument("--n", type=int, required=True, help="number of trials")

    p = sub.add_parser("scatter", parents=[output], help="delta-potential amplitudes and probabilities")
    p.add_argument("--E", type=float, action="append", help="energy (repeatable)")
    p.add_argument("--grid", type=_parse_grid, default=None, help="energy grid LO:HI:N")
    p.add_argument("--coupling", type=float, default=1.0, help="coupling, multiples of sqrt(2 hbar^2/m) (default 1)")

    p = sub.add_parser("epsilon", parents=[seeded, output], help="breakable-elastic spin measurement")
    p.add_argument("--theta", type=float, required=True, help="angle in radians, [0, pi]")
    p.add_argument("--eps", type=float, required=True, help="breakable fraction, [0, 1]")
    p.add_argument("--n", type=int, default=None, help="also simulate this many trials")

    sub.add_parser("classify", parents=[table, output], help="regime verdict for every tranche size")

    p = sub.add_parser("convergence", parents=[cell, seeded, output], help="frequency-vs-n series for one cell")
    p.add_argument("--schedule", type=_parse_schedule, default=DEFAULT_SCHEDULE, help="comma-separated trial counts")

    return parser


#: Each command's payload builder; every output format is rendered from the
#: payload it returns.
_DISPATCH = {
    "tables": _cmd_tables,
    "simulate": _cmd_simulate,
    "scatter": _cmd_scatter,
    "epsilon": _cmd_epsilon,
    "classify": _cmd_classify,
    "convergence": _cmd_convergence,
}

#: Each command's text report and CSV rows, both functions of its payload.
_RENDERERS = {
    "tables": (_tables_text, serialize.table_csv_rows),
    "simulate": (_simulate_text, serialize.simulate_csv_rows),
    "scatter": (_scatter_text, serialize.scatter_csv_rows),
    "epsilon": (_epsilon_text, serialize.epsilon_csv_rows),
    "classify": (_classify_text, serialize.classify_csv_rows),
    "convergence": (_convergence_text, serialize.convergence_csv_rows),
}


def _write_output(args: argparse.Namespace, rendered: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        payload = _DISPATCH[args.command](args)
    except GoldenMismatch as exc:
        print(f"golden mismatch: {exc}", file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    render_text, csv_rows = _RENDERERS[args.command]
    if args.format == "json":
        rendered = _render_json(payload)
    elif args.format == "csv":
        rendered = _render_csv(*csv_rows(payload))
    else:
        rendered = render_text(payload)
    try:
        _write_output(args, rendered)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
