"""JSON payloads are lossless: every field, sent through ``json``, equals the
library value it was built from.

Exact values travel as integers (rationals as ``num``/``den`` pairs, sphere
states as ``k_plus``/``k_minus`` counts), so the checks below are equalities,
never tolerances.
"""

import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from deltamachine import serialize
from deltamachine.elastic import ElasticExperiment, epsilon_probabilities
from deltamachine.interval import wilson_interval
from deltamachine.machine import run_ensemble
from deltamachine.regimes import classify_row, classify_table
from deltamachine.scattering import (
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_probability,
)
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    ProbabilityTableRow,
    probability_table,
)


def through_json(payload):
    return json.loads(json.dumps(payload))


def test_fraction_payload_is_exact():
    for f in (Fraction(0), Fraction(22, 35), Fraction(1), Fraction(2**70 + 1, 3**45)):
        payload = through_json(serialize.fraction_payload(f))
        assert set(payload) == {"num", "den", "decimal"}
        assert (payload["num"], payload["den"]) == (f.numerator, f.denominator)
        assert Fraction(payload["num"], payload["den"]) == f
        assert payload["decimal"] == float(f)


def test_table_payload_is_exact():
    table = probability_table(5)
    payload = through_json(serialize.table_payload(table))
    assert (payload["command"], payload["K"]) == ("tables", table.K)
    # One list of states serves every row, so it must be every row's states.
    states = [(s["k_plus"], s["k_minus"]) for s in payload["states"]]
    for row in table.rows:
        assert states == [(s.k_plus, s.k_minus) for s, _ in row.entries]
    assert [s["energy"] for s in payload["states"]] == [
        s.energy_label for s, _ in table.rows[0].entries
    ]
    assert [row["k"] for row in payload["rows"]] == [row.k for row in table.rows]
    for row, library_row in zip(payload["rows"], table.rows):
        cells = [Fraction(cell["num"], cell["den"]) for cell in row["cells"]]
        assert cells == list(library_row.probabilities())


@pytest.mark.parametrize("K", [*range(1, 65), 256])
def test_table_payload_cells_match_the_library(K):
    table = probability_table(K, ceiling=K)
    payload = serialize.table_payload(table)
    # Every cell up to K = 64; at K = 256, a spread of rows and columns.
    step = 1 if K <= 64 else 13
    for row, library_row in zip(payload["rows"][::step], table.rows[::step]):
        for cell, (_, p) in zip(row["cells"][::step], library_row.entries[::step]):
            assert (cell["num"], cell["den"]) == (p.numerator, p.denominator)
            assert cell["decimal"] == float(p)
    # Row k + 1 of an odd k shares row k's entries, and so its cells.
    for k in range(1, K, 2):
        assert payload["rows"][k]["cells"] is payload["rows"][k - 1]["cells"]


def test_table_csv_values_match_payload():
    table = probability_table(3)
    header, rows = serialize.table_csv_rows(serialize.table_payload(table))
    assert header == ["k", "k_plus", "k_minus", "p_tr_num", "p_tr_den", "p_tr_decimal"]
    by_cell = {(r[0], r[1]): (r[3], r[4]) for r in rows}
    assert by_cell[(3, 2)] == (1, 1)
    assert by_cell[(1, 1)] == (1, 3)


def test_ensemble_payload_is_exact():
    result = run_ensemble(ElectricState(2, 1), KMeasurement(1), 1000, 42)
    payload = through_json(serialize.ensemble_payload(result, 2.5))
    assert list(payload) == [
        "n_trials", "transmitted", "frequency", "lower", "upper", "z", "seed", "generator"
    ]
    frequency = payload.pop("frequency")
    assert Fraction(frequency["num"], frequency["den"]) == result.frequency
    # The report adds the interval: the library result carries counts only.
    lower, upper = payload.pop("lower"), payload.pop("upper")
    assert (lower, upper) == wilson_interval(result.transmitted, 1000, 2.5)
    assert 0.0 < lower < frequency["decimal"] < upper < 1.0
    assert payload.pop("z") == 2.5
    # The payload's fields and the derived generator; the frequency is above.
    assert set(payload) == {field.name for field in fields(result)} | {"generator"}
    for name, value in payload.items():
        assert value == getattr(result, name), name


def test_ensemble_payload_rejects_a_bool_level():
    result = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10, 42)
    with pytest.raises(TypeError, match="z must be a real number"):
        serialize.ensemble_payload(result, True)


@pytest.mark.parametrize("z", [3, np.float32(3.0), np.float64(3.0)])
def test_ensemble_payload_records_the_level_as_a_float(z):
    result = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10, 42)
    payload = serialize.ensemble_payload(result, z)
    assert json.dumps(payload) == json.dumps(serialize.ensemble_payload(result, 3.0))
    assert type(payload["z"]) is float


def test_ensemble_payload_extra_fields_precede_z():
    result = run_ensemble(ElectricState(2, 1), KMeasurement(1), 100, 42)
    payload = serialize.ensemble_payload(result, 3.0, abs_error=0.25)
    assert list(payload) == [
        "n_trials", "transmitted", "frequency", "lower", "upper", "abs_error", "z", "seed",
        "generator",
    ]
    assert payload["abs_error"] == 0.25


def test_csv_record_flattens_the_payload():
    payload = {
        "command": "simulate",
        "k": 1,
        "expected": serialize.fraction_payload(Fraction(2, 3)),
        "schedule": [10, 20],
        "result": {"n": 10, "frequency": serialize.fraction_payload(Fraction(1, 2))},
        "simulation": None,
        "closed_form": {"p_plus": 0.75},
    }
    # command, lists and None give no column; order is the payload's
    assert list(serialize._record(payload).items()) == [
        ("k", 1),
        ("expected_num", 2), ("expected_den", 3), ("expected_decimal", 2 / 3),
        ("n", 10),
        ("frequency_num", 1), ("frequency_den", 2), ("frequency_decimal", 0.5),
        ("p_plus", 0.75),
    ]


def test_amplitudes_payload_is_exact():
    amp = amplitudes(2.5)
    p_tr = transmission_probability(2.5)
    p_re = reflection_probability(2.5)
    residual = jump_condition_residual(2.5)
    t, r = amp.transmission, amp.reflection
    row = (amp.energy, t.real, t.imag, r.real, r.imag, p_tr, p_re, residual)
    assert len(row) == len(serialize.SCATTER_COLUMNS)
    point = through_json(serialize.scatter_point_payload(row))
    assert point["energy"] == amp.energy
    for name in ("transmission", "reflection"):
        value = point[name]
        assert complex(value["re"], value["im"]) == getattr(amp, name), name
    assert (point["p_transmission"], point["p_reflection"]) == (p_tr, p_re)
    assert point["jump_residual"] == residual


def _noted_verdicts():
    # Indeterministic, no transmission zeros, off the Born curve: the only
    # kind of row whose verdict carries a note (see test_regimes).
    states = [ElectricState(i, 3 - i) for i in range(4)]
    probabilities = [Fraction(p) for p in ("0", "1/3", "1/2", "1")]
    row = ProbabilityTableRow(k=2, entries=tuple(zip(states, probabilities)))
    return {2: classify_row(row)}


@pytest.mark.parametrize("verdicts", [classify_table(6), _noted_verdicts()])
def test_verdicts_payload_is_exact(verdicts):
    payload = through_json(serialize.verdicts_payload(verdicts))
    for part in ("verdicts", "witnesses", "notes"):
        assert list(payload[part]) == [str(k) for k in verdicts], part
    for k, verdict in verdicts.items():
        assert payload["verdicts"][str(k)] == verdict.verdict.value
        witnesses = [
            (w["kind"], w["k_plus"], w["k_minus"]) for w in payload["witnesses"][str(k)]
        ]
        assert witnesses == [
            (
                w.kind.value,
                None if w.state is None else w.state.k_plus,
                None if w.state is None else w.state.k_minus,
            )
            for w in verdict.witnesses
        ]
        assert payload["notes"][str(k)] == verdict.note


def test_outcome_pair_payload_is_exact():
    pair = epsilon_probabilities(ElasticExperiment(1.1, 0.7))
    payload = through_json(serialize.outcome_pair_payload(pair))
    assert payload == {"p_plus": pair.p_plus, "p_minus": pair.p_minus}
