"""JSON payloads and the CSV rows of every CLI command.

Serialization goes one way: library result -> JSON payload -> CSV rows.
Every exact value is carried as integers: a rational as a ``{"num", "den"}``
pair plus an advisory ``decimal`` field, a sphere state as its
``(k_plus, k_minus)`` counts.  Every command's CSV header and rows are built
here from its JSON payload (the ``*_csv_rows`` functions), so the two formats
always carry identical values.  One rule, :func:`ensemble_csv_rows`, writes the
rows of every ensemble command: its payload flattened by :func:`_record`, once
per ``series`` entry of ``convergence``, and its text report is that CSV grid.
Every ensemble payload carries the Wilson interval as ``lower`` and ``upper``,
computed once, in :func:`ensemble_payload`, from the result's counts and seed.

A ``scatter`` payload holds each point as its CSV row;
:func:`scatter_point_payload` is the JSON object of one row.  A verdict's
witness labels are built only in :func:`classify_csv_rows`, whose rows the
``classify`` text report also reads.

At run time the module imports only ``interval``, whose Wilson interval it
computes.  The value types it reads, ``EnsembleResult`` (a simulation
result, whose module loads numpy) and the rest alike, are imported for the
annotations only, so loading it loads neither numpy nor ``band``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .interval import wilson_interval

if TYPE_CHECKING:
    from fractions import Fraction

    from .band import OutcomePair
    from .ensemble import EnsembleResult
    from .regimes import RegimeVerdict, Witness
    from .spheres import ProbabilityTable


def fraction_payload(value: Fraction) -> dict[str, Any]:
    """``num``/``den`` in lowest terms, and ``decimal``, their correctly rounded quotient."""
    num, den = value.numerator, value.denominator
    return {"num": num, "den": den, "decimal": num / den}


# -- probability tables ------------------------------------------------------


def table_payload(table: ProbabilityTable) -> dict[str, Any]:
    """The table's states and rows; an even row shares its odd row's cell list.

    Row k + 1 of an odd k holds row k's ``entries`` tuple, so that row's
    cells are built once and the same list serves both rows.
    """
    states = [
        {"k_plus": s.k_plus, "k_minus": s.k_minus, "energy": s.energy_label}
        for s, _ in table.rows[0].entries
    ]
    rows, entries, cells = [], None, None
    for row in table.rows:
        if row.entries is not entries:
            entries = row.entries
            cells = [fraction_payload(p) for _, p in entries]
        rows.append({"k": row.k, "cells": cells})
    return {"command": "tables", "K": table.K, "states": states, "rows": rows}


def table_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    header = ["k", "k_plus", "k_minus", "p_tr_num", "p_tr_den", "p_tr_decimal"]
    rows = [
        [row["k"], s["k_plus"], s["k_minus"], cell["num"], cell["den"], cell["decimal"]]
        for row in payload["rows"]
        for s, cell in zip(payload["states"], row["cells"], strict=True)
    ]
    return header, rows


# -- ensembles ----------------------------------------------------------------


def ensemble_payload(result: EnsembleResult, z: float, **extra: Any) -> dict[str, Any]:
    """The ensemble's counts and stream, with the Wilson interval at level ``z``.

    The ``extra`` fields go between the interval and ``z``, which is recorded
    as the ``float`` that :func:`wilson_interval` took it as.
    """
    lower, upper = wilson_interval(result.transmitted, result.n_trials, z)
    return {
        "n_trials": result.n_trials,
        "transmitted": result.transmitted,
        "frequency": fraction_payload(result.frequency),
        "lower": lower,
        "upper": upper,
        **extra,
        "z": float(z),
        "seed": result.seed,
        "generator": result.generator,
    }


def _record(payload: dict[str, Any]) -> dict[str, Any]:
    """The CSV columns of a payload, in its key order.

    A rational ``{num, den, decimal}`` under ``key`` gives the columns
    ``key_num``, ``key_den`` and ``key_decimal``; any other nested object
    gives its own columns; ``command``, lists and ``None`` give none.
    """
    record: dict[str, Any] = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            if value.keys() == {"num", "den", "decimal"}:
                record.update({f"{key}_{part}": v for part, v in value.items()})
            else:
                record.update(_record(value))
        elif not (key == "command" or value is None or isinstance(value, list)):
            record[key] = value
    return record


def ensemble_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    """The payload flattened by :func:`_record`: one row per ``series`` entry, else one."""
    cell = _record(payload)
    records = [{**cell, **_record(entry)} for entry in payload.get("series", [{}])]
    return list(records[0]), [list(record.values()) for record in records]


# -- outcome pairs -------------------------------------------------------------


def outcome_pair_payload(pair: OutcomePair) -> dict[str, float]:
    return {"p_plus": pair.p_plus, "p_minus": pair.p_minus}


# -- scattering ---------------------------------------------------------------

#: The CSV header of ``scatter``; a scatter payload holds one row per point,
#: its values in this order.
SCATTER_COLUMNS = ("energy", "t_re", "t_im", "r_re", "r_im", "p_tr", "p_re", "jump_residual")


def scatter_point_payload(row: Sequence[float]) -> dict[str, Any]:
    """The JSON object of one point, from its row of :data:`SCATTER_COLUMNS`."""
    energy, t_re, t_im, r_re, r_im, p_tr, p_re, residual = row
    return {
        "energy": energy,
        "transmission": {"re": t_re, "im": t_im},
        "reflection": {"re": r_re, "im": r_im},
        "p_transmission": p_tr,
        "p_reflection": p_re,
        "jump_residual": residual,
    }


def scatter_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[tuple[float, ...]]]:
    return list(SCATTER_COLUMNS), payload["rows"]


# -- regime verdicts -----------------------------------------------------------


def witness_payload(witness: Witness) -> dict[str, Any]:
    state = witness.state
    return {
        "kind": witness.kind.value,
        "k_plus": None if state is None else state.k_plus,
        "k_minus": None if state is None else state.k_minus,
    }


def verdicts_payload(verdicts: dict[int, RegimeVerdict]) -> dict[str, Any]:
    return {
        "verdicts": {str(k): v.verdict.value for k, v in verdicts.items()},
        "witnesses": {
            str(k): [witness_payload(w) for w in v.witnesses]
            for k, v in verdicts.items()
        },
        "notes": {str(k): v.note for k, v in verdicts.items()},
    }


def classify_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    """One row per k; a witness is ``kind``, or ``kind(k_plus/k_minus)`` when tied to a state."""
    rows = []
    for key, verdict in payload["verdicts"].items():
        labels = [w["kind"] if w["k_plus"] is None else f"{w['kind']}({w['k_plus']}/{w['k_minus']})"
                  for w in payload["witnesses"][key]]
        rows.append([int(key), verdict, ";".join(labels), payload["notes"][key] or ""])
    return ["k", "verdict", "witnesses", "note"], rows
