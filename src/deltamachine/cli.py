"""Command-line interface: tables, simulations, scattering, classification.

Exit codes: 0 success, 2 usage or validation error (an unwritable output
path included, refused before the command runs), 3 golden-table mismatch.
Every randomized command reports its seed and generator name, so any
published number can be reproduced bit-for-bit; when no seed is given a
fresh one is drawn and reported.  Every list report's text is drawn from its
CSV rows: a title over the CSV grid for ``simulate``, ``epsilon`` and
``convergence`` (their payload, flattened), a format per column for
``scatter``, a line per row for ``classify``.  Only ``tables`` has a text
layout of its own, a 2-D grid.

The command line reads no shell variable: argv alone decides every
report (a ``--seed`` left out is still drawn, and reported).  argparse
resolves and converts every option, so a malformed value is a usage error
before any command runs.  Every size has a constant bound: ``tables`` and
``classify`` take K of at most :data:`MAX_TABLE_SIZE`, ``simulate`` and
``convergence`` a cluster of at most :data:`MAX_CLUSTER_SIZE` spheres,
``--n`` and every ``--schedule`` entry at most :data:`MAX_TRIALS` trials
(the interval's bound, checked when argv is parsed), ``--grid`` at most
:data:`MAX_GRID_POINTS` points, and ``scatter`` at most
:data:`MAX_ENERGIES` ``--E`` values.  An argv of more than :data:`MAX_ARGS`
arguments is refused before argparse reads it: argparse's time grows with
the square of argv's length when an option repeats.

The simulation commands (``simulate``, ``convergence``, and ``epsilon``
with ``--n``) import their numpy-backed modules when they run, so the other
commands start without loading numpy.  ``epsilon`` takes its closed form
from the numpy-free :mod:`~deltamachine.band`, and loads the simulator of
:mod:`~deltamachine.elastic` only for ``--n``.  ``json`` and ``csv`` are
imported by the generic renderers, when one runs.

``scatter`` gets each energy's amplitudes once, from :func:`amplitudes`,
and their row of CSV columns from :func:`~deltamachine.scattering.scatter_row`,
and writes every format from per-row templates: the JSON is the bytes of
``json.dumps(indent=2)`` (``%r`` writes a finite float as ``json`` does, and
every value is finite), the CSV the bytes of ``csv.writer``, and the text a
``%``-format per column, right-aligned by the same grid writer as every other
text grid.  The last point of ``--grid`` is HI itself.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, Sequence

from . import serialize
from .golden import GOLDEN_SIZES, golden_table
from .interval import DEFAULT_Z, MAX_TRIALS
from .regimes import classify_table
# scatter calls amplitudes here by name, where bench/tracing.py counts the
# points, and builds each row with scatter_row; the tracer also wraps the
# three scalar functions here by name.
from .scattering import (  # noqa: F401
    ScatteringConfig,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    scatter_row,
    transmission_probability,
)
from .spheres import (
    ElectricState,
    KMeasurement,
    probability_table,
    transmission_probability_exact,
)
from .values import as_real

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GOLDEN_MISMATCH = 3

DEFAULT_SCHEDULE = (100, 1000, 10_000, 100_000)


class GoldenMismatch(Exception):
    pass


def _parse_z(spec: str) -> float:
    try:
        z = float(spec)
    except ValueError:
        z = math.nan
    if not (math.isfinite(z) and z >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a nonnegative finite real, got {spec!r}")
    return as_real(z, "z")


def _positive_int(spec: str) -> int:
    """``int(spec)`` as a trial count, refused below 1 or above
    :data:`MAX_TRIALS` before any command runs."""
    value = int(spec)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {spec!r}")
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"expected at most 2**53 = {MAX_TRIALS} trials")
    return value


# argparse names the type when ``int`` refuses the text: "invalid int value".
_positive_int.__name__ = "int"


# -- rendering ---------------------------------------------------------------


def _render_json(payload: dict[str, Any]) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _render_csv(header: list[str], rows: list[list[Any]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _grid_text(header: Sequence[str], rows: list[Sequence[str]]) -> str:
    """``header`` over ``rows``, each column right-aligned to its widest cell.

    A row longer or shorter than the header raises ``ValueError``.
    """
    cells = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*cells, strict=True)]
    line = "  ".join(f"%{w}s" for w in widths) + "\n"
    return "".join([line % tuple(c) for c in cells])


def _formats(render_text: Callable, csv_rows: Callable) -> dict[str, Callable]:
    """The renderer of each format, for a command whose payload is its JSON document.

    ``_render_json`` and ``_render_csv`` are looked up at each call, so a
    wrapper set on the module attribute (``bench/tracing.py``) sees it.
    """
    return {
        "json": lambda payload: _render_json(payload),
        "csv": lambda payload: _render_csv(*csv_rows(payload)),
        "text": render_text,
    }


def _titled_csv(title: str, csv_rows: Callable) -> dict[str, Callable]:
    """The renderers of a command whose text report is ``title`` over its CSV grid.

    The grid shows every CSV value as ``str``, so text and CSV carry the same digits.
    """

    def render_text(payload: dict[str, Any]) -> str:
        header, rows = csv_rows(payload)
        return f"{title}\n" + _grid_text(header, [[str(v) for v in row] for row in rows])

    return _formats(render_text, csv_rows)


def _fraction_text(payload: dict[str, Any]) -> str:
    num, den = payload["num"], payload["den"]
    return str(num) if den == 1 else f"{num}/{den}"


# -- tables ------------------------------------------------------------------

#: The largest K that ``tables`` and ``classify`` accept.  A K = 256 table
#: peaks near 80 MiB and K = 512 near 290 MiB.
MAX_TABLE_SIZE = 256


def _check_golden(table) -> None:
    reference = golden_table(table.K)
    shape = [len(row.entries) for row in table.rows]
    golden_shape = [len(row) for row in reference]
    if shape != golden_shape:
        raise GoldenMismatch(f"computed row lengths {shape}, golden {golden_shape}")
    mismatches = [
        f"k={row.k} K+={state.k_plus}: computed {value}, golden {expected}"
        for row, ref_row in zip(table.rows, reference, strict=True)
        for (state, value), expected in zip(row.entries, ref_row, strict=True)
        if value != expected
    ]
    if mismatches:
        raise GoldenMismatch("; ".join(mismatches))


def _cmd_tables(args: argparse.Namespace) -> dict[str, Any]:
    if args.golden and args.K not in GOLDEN_SIZES:
        raise ValueError(
            f"--golden is available for K in {GOLDEN_SIZES}, got K={args.K}"
        )
    table = probability_table(args.K, ceiling=MAX_TABLE_SIZE)
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


#: The largest cluster K+ + K- that ``simulate`` and ``convergence`` accept.
#: A trial holds up to K bytes, and the slot labels 0..K-1 fit ``int16``.
MAX_CLUSTER_SIZE = 2**15


def _cell_payload(
    args: argparse.Namespace, command: str
) -> tuple[ElectricState, KMeasurement, dict[str, Any]]:
    """The cell of ``--kp/--km/--k`` and the payload head with its exact value."""
    state = ElectricState(args.kp, args.km)
    if state.total > MAX_CLUSTER_SIZE:
        raise ValueError(f"K+ + K- is at most {MAX_CLUSTER_SIZE}, got {state.total}")
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
    from .machine import run_ensemble

    state, meas, payload = _cell_payload(args, "simulate")
    result = run_ensemble(state, meas, args.n, args.seed)
    payload["result"] = serialize.ensemble_payload(result, args.z)
    return payload


# -- scatter -----------------------------------------------------------------

#: The most points ``--grid`` accepts, ten times the benchmark's grid.
MAX_GRID_POINTS = 100_000
#: The most ``--E`` values one ``scatter`` takes; a grid spans more energies.
MAX_ENERGIES = 1_000


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI:N, got {spec!r}") from None
    if n < 2 or not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise argparse.ArgumentTypeError("expected finite LO < HI and N >= 2")
    if n > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"N is at most {MAX_GRID_POINTS}, got {n}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]  # HI exactly, as numpy.linspace


def _cmd_scatter(args: argparse.Namespace) -> dict[str, Any]:
    """One ``scatter_row`` of ``serialize.SCATTER_COLUMNS`` per energy, from
    one ``amplitudes`` call; every value equals its library function's bit
    for bit.

    Every value is finite, so ``_scatter_json`` needs no ``NaN`` or
    ``Infinity``: ``amplitudes`` checks kappa^2 and ``scatter_row`` 2 E to
    be finite, |T|, |R| <= 1 and both probabilities lie in [0, 1], and the
    residual's products of sqrt(2 E), the coupling and the amplitudes stay
    below about 1e155.
    """
    if len(args.E or []) > MAX_ENERGIES:
        raise ValueError(f"scatter takes at most {MAX_ENERGIES} --E values, got {len(args.E)}")
    energies: list[float] = (args.E or []) + (args.grid or [])
    if not energies:
        raise ValueError("scatter requires --E and/or --grid")
    config = ScatteringConfig(coupling=args.coupling)
    rows = [scatter_row(amplitudes(e, config), config) for e in energies]
    return {"command": "scatter", "coupling": config.coupling, "rows": rows}


# A point of ``json.dumps(document, indent=2)``: ``%r`` writes a float as
# ``float.__repr__``, which is what ``json`` writes for a finite float.
_SCATTER_JSON_POINT = """\
    {
      "energy": %r,
      "transmission": {
        "re": %r,
        "im": %r
      },
      "reflection": {
        "re": %r,
        "im": %r
      },
      "p_transmission": %r,
      "p_reflection": %r,
      "jump_residual": %r
    }"""

_SCATTER_CSV_ROW = ",".join(["%r"] * len(serialize.SCATTER_COLUMNS)) + "\n"

_SCATTER_TEXT_HEADER = ("energy", "T_re", "T_im", "R_re", "R_im", "P_tr", "P_re", "residual")
_SCATTER_TEXT_CELLS = "%g %.12g %.12g %.12g %.12g %.12g %.12g %.3g"


def _scatter_json(payload: dict[str, Any]) -> str:
    """``json.dumps(indent=2)`` of the document whose points are
    ``serialize.scatter_point_payload`` of each row, newline-ended."""
    points = ",\n".join([_SCATTER_JSON_POINT % row for row in payload["rows"]])
    return (
        f'{{\n  "command": "scatter",\n  "coupling": {payload["coupling"]!r},\n'
        f'  "points": [\n{points}\n  ]\n}}\n'
    )


def _scatter_csv(payload: dict[str, Any]) -> str:
    """What ``csv.writer`` writes: no float repr needs quoting."""
    header, rows = serialize.scatter_csv_rows(payload)
    return ",".join(header) + "\n" + "".join([_SCATTER_CSV_ROW % row for row in rows])


def _scatter_text(payload: dict[str, Any]) -> str:
    """The CSV columns, each in its own number format, right-aligned."""
    _, rows = serialize.scatter_csv_rows(payload)
    return (
        f"delta-potential scattering, coupling = {payload['coupling']:g} "
        "(multiples of sqrt(2 hbar^2 / m))\n"
        + _grid_text(_SCATTER_TEXT_HEADER, [(_SCATTER_TEXT_CELLS % row).split() for row in rows])
    )


# -- epsilon -----------------------------------------------------------------


def _cmd_epsilon(args: argparse.Namespace) -> dict[str, Any]:
    from .band import ElasticExperiment, epsilon_probabilities

    experiment = ElasticExperiment(theta=args.theta, epsilon=args.eps)
    simulation = None
    if args.n is not None:
        from .elastic import simulate_elastic

        result = simulate_elastic(experiment, args.n, args.seed)
        simulation = serialize.ensemble_payload(result, args.z)
    return {
        "command": "epsilon",
        "theta": experiment.theta,
        "epsilon": experiment.epsilon,
        "cos_theta": experiment.cos_theta,
        "closed_form": serialize.outcome_pair_payload(epsilon_probabilities(experiment)),
        "simulation": simulation,
    }


# -- classify ----------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    verdicts = classify_table(args.K, ceiling=MAX_TABLE_SIZE)
    return {"command": "classify", "K": args.K, **serialize.verdicts_payload(verdicts)}


def _classify_text(payload: dict[str, Any]) -> str:
    # No witness label holds a ";", so the witnesses cell splits back into its labels.
    lines = [f"regime classification, K = {payload['K']}"]
    for k, verdict, witnesses, note in serialize.classify_csv_rows(payload)[1]:
        line = f"k={k}: {verdict}  [{witnesses.replace(';', ', ')}]"
        lines.append(f"{line}  note: {note}" if note else line)
    return "\n".join(lines) + "\n"


# -- convergence -------------------------------------------------------------


def _parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        return tuple(_positive_int(part) for part in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {spec!r}"
        ) from None


def _cmd_convergence(args: argparse.Namespace) -> dict[str, Any]:
    from .machine import run_ensemble

    state, meas, payload = _cell_payload(args, "convergence")
    payload["schedule"] = list(args.schedule)
    payload["series"] = []
    for n in args.schedule:
        result = run_ensemble(state, meas, n, args.seed)
        abs_error = abs(float(result.frequency) - payload["expected"]["decimal"])
        payload["series"].append(serialize.ensemble_payload(result, args.z, abs_error=abs_error))
    return payload


# -- parser / entry point ----------------------------------------------------

#: The most arguments one command line takes: ``MAX_ENERGIES`` ``--E``
#: values, each with its flag, and every other option.
MAX_ARGS = 2**11


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
    output.add_argument("--output", help="write output to this path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--K", type=int, required=True, help=f"cluster size, 1..{MAX_TABLE_SIZE}")
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--kp", type=int, required=True, help="positive-sphere count")
    cell.add_argument("--km", type=int, required=True, help="negative-sphere count")
    cell.add_argument("--k", type=int, required=True, help="tranche size")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=int.from_bytes(os.urandom(8), "little"), help="master seed (default: random, recorded in the report)")
    seeded.add_argument("--z", type=_parse_z, default=DEFAULT_Z, help="level z of the Wilson interval")

    p = sub.add_parser("tables", parents=[table, output], help="exact transmission-probability table")
    p.add_argument("--golden", action="store_true", help="check against the frozen reference tables (K in 2..7)")

    p = sub.add_parser("simulate", parents=[cell, seeded, output], help="seeded sphere-machine ensemble")
    p.add_argument("--n", type=_positive_int, required=True, help="number of trials")

    p = sub.add_parser("scatter", parents=[output], help="delta-potential amplitudes and probabilities")
    p.add_argument("--E", type=float, action="append", help="energy (repeatable)")
    p.add_argument("--grid", type=_parse_grid, default=None, help="energy grid LO:HI:N")
    p.add_argument("--coupling", type=float, default=1.0, help="coupling, multiples of sqrt(2 hbar^2/m) (default 1)")

    p = sub.add_parser("epsilon", parents=[seeded, output], help="breakable-elastic spin measurement")
    p.add_argument("--theta", type=float, required=True, help="angle in radians, [0, pi]")
    p.add_argument("--eps", type=float, required=True, help="breakable fraction, [0, 1]")
    p.add_argument("--n", type=_positive_int, default=None, help="also simulate this many trials")

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

#: Each command's renderer of each format, all functions of its payload.
_RENDERERS = {
    "tables": _formats(_tables_text, serialize.table_csv_rows),
    "simulate": _titled_csv("sphere-machine ensemble", serialize.ensemble_csv_rows),
    "scatter": {"json": _scatter_json, "csv": _scatter_csv, "text": _scatter_text},
    "epsilon": _titled_csv("elastic-band measurement", serialize.ensemble_csv_rows),
    "classify": _formats(_classify_text, serialize.classify_csv_rows),
    "convergence": _titled_csv(
        "frequency convergence, sphere-machine ensemble", serialize.ensemble_csv_rows
    ),
}


def _write_output(output: str | None, rendered: str) -> None:
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > MAX_ARGS:
        print(f"error: at most {MAX_ARGS} arguments, got {len(argv)}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    command, fmt, output = args.command, args.format, args.output
    if output is not None:
        # Refuse an unwritable path before any work; append mode creates a
        # missing file and leaves an existing file's bytes as they are.
        try:
            open(output, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    # An exact value can have more digits than CPython converts to a string
    # by default (4300).  That limit guards the parsing of untrusted text,
    # and argv is parsed by now, so it is lifted while the command renders
    # its own ints, and restored for the caller.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            payload = _DISPATCH[command](args)
        except GoldenMismatch as exc:
            print(f"golden mismatch: {exc}", file=sys.stderr)
            return EXIT_GOLDEN_MISMATCH
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # Free the parsed inputs (a --grid list among them) before rendering.
        del args

        rendered = _RENDERERS[command][fmt](payload)
        try:
            _write_output(output, rendered)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_OK
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
