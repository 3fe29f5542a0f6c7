"""JSON payloads and the CSV rows of every CLI command.

Serialization goes one way: library result -> JSON payload -> CSV rows.
Every exact value is carried as integers: a rational as a ``{"num", "den"}``
pair plus an advisory ``decimal`` field, a sphere state as its
``(k_plus, k_minus)`` counts.  Every command's CSV header and rows are built
here from its JSON payload (the ``*_csv_rows`` functions), so the two formats
always carry identical values.  The ensemble commands' text reports are
these CSV grids too.  Every ensemble payload carries the Wilson interval as
``lower`` and ``upper``, computed once, in :func:`ensemble_payload`.

The module loads no numpy: the simulation result types it reads
(``EnsembleResult``, ``OutcomePair``) and ``ScatteringAmplitudes`` are
imported for the annotations only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .interval import wilson_interval
from .regimes import RegimeVerdict, Witness
from .spheres import ProbabilityTable

if TYPE_CHECKING:
    from .elastic import OutcomePair
    from .ensemble import EnsembleResult
    from .scattering import ScatteringAmplitudes


def fraction_payload(value: Fraction) -> dict[str, Any]:
    """``num``/``den`` in lowest terms, and ``decimal``, their correctly rounded quotient."""
    num, den = value.numerator, value.denominator
    return {"num": num, "den": den, "decimal": num / den}


def _fraction_columns(name: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {f"{name}_{part}": payload[part] for part in ("num", "den", "decimal")}


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
        for s, cell in zip(payload["states"], row["cells"])
    ]
    return header, rows


# -- ensembles ----------------------------------------------------------------


def ensemble_payload(result: EnsembleResult, z: float) -> dict[str, Any]:
    """The ensemble's counts and stream, with the Wilson interval at level ``z``."""
    lower, upper = wilson_interval(result.transmitted, result.n_trials, z)
    return {
        "n_trials": result.n_trials,
        "transmitted": result.transmitted,
        "frequency": fraction_payload(result.frequency),
        "lower": lower,
        "upper": upper,
        "z": z,
        "seed": result.seed,
        "generator": result.generator,
    }


def _ensemble_csv_record(payload: dict[str, Any], **extra: Any) -> dict[str, Any]:
    """CSV columns of an ensemble payload.

    The ``extra`` columns go between the interval and the stream (``z``,
    ``seed``, ``generator``) columns.
    """
    return {
        "n_trials": payload["n_trials"],
        "transmitted": payload["transmitted"],
        **_fraction_columns("frequency", payload["frequency"]),
        "lower": payload["lower"],
        "upper": payload["upper"],
        **extra,
        "z": payload["z"],
        "seed": payload["seed"],
        "generator": payload["generator"],
    }


def _cell_csv_record(
    payload: dict[str, Any], ensemble: dict[str, Any], **extra: Any
) -> dict[str, Any]:
    """The sphere cell and its exact value, then the ensemble's columns."""
    return {
        "k_plus": payload["k_plus"],
        "k_minus": payload["k_minus"],
        "k": payload["k"],
        **_fraction_columns("expected", payload["expected"]),
        **_ensemble_csv_record(ensemble, **extra),
    }


def _csv_records(records: list[dict[str, Any]]) -> tuple[list[str], list[list[Any]]]:
    return list(records[0]), [list(record.values()) for record in records]


def simulate_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    return _csv_records([_cell_csv_record(payload, payload["result"])])


def convergence_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    return _csv_records(
        [_cell_csv_record(payload, e, abs_error=e["abs_error"]) for e in payload["series"]]
    )


# -- outcome pairs -------------------------------------------------------------


def outcome_pair_payload(pair: OutcomePair) -> dict[str, float]:
    return {"p_plus": pair.p_plus, "p_minus": pair.p_minus}


def epsilon_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    """The closed form, followed by the ensemble columns when simulated."""
    record = {
        "theta": payload["theta"],
        "epsilon": payload["epsilon"],
        "cos_theta": payload["cos_theta"],
        "p_plus": payload["closed_form"]["p_plus"],
        "p_minus": payload["closed_form"]["p_minus"],
    }
    if payload["simulation"] is not None:
        record.update(_ensemble_csv_record(payload["simulation"]))
    return _csv_records([record])


# -- scattering ---------------------------------------------------------------


def _complex_payload(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


def scatter_point_payload(
    amp: ScatteringAmplitudes, p_tr: float, p_re: float, residual: float
) -> dict[str, Any]:
    return {
        "energy": amp.energy,
        "transmission": _complex_payload(amp.transmission),
        "reflection": _complex_payload(amp.reflection),
        "p_transmission": p_tr,
        "p_reflection": p_re,
        "jump_residual": residual,
    }


def scatter_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    header = ["energy", "t_re", "t_im", "r_re", "r_im", "p_tr", "p_re", "jump_residual"]
    rows = [
        [
            p["energy"],
            p["transmission"]["re"],
            p["transmission"]["im"],
            p["reflection"]["re"],
            p["reflection"]["im"],
            p["p_transmission"],
            p["p_reflection"],
            p["jump_residual"],
        ]
        for p in payload["points"]
    ]
    return header, rows


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


def witness_label(payload: dict[str, Any]) -> str:
    """``kind``, or ``kind(k_plus/k_minus)`` for a witness tied to a state."""
    if payload["k_plus"] is None:
        return payload["kind"]
    return f"{payload['kind']}({payload['k_plus']}/{payload['k_minus']})"


def classify_csv_rows(payload: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    rows = []
    for key, verdict in payload["verdicts"].items():
        witnesses = ";".join(witness_label(w) for w in payload["witnesses"][key])
        rows.append([int(key), verdict, witnesses, payload["notes"][key] or ""])
    return ["k", "verdict", "witnesses", "note"], rows
