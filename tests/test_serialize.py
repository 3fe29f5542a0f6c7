"""Lossless JSON round-trips for every serialized result type."""

import json
from fractions import Fraction

from deltamachine import serialize
from deltamachine.machine import run_ensemble
from deltamachine.regimes import classify_table
from deltamachine.scattering import (
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_probability,
)
from deltamachine.spheres import ElectricState, KMeasurement, probability_table


def through_json(payload):
    return json.loads(json.dumps(payload))


def test_fraction_round_trip():
    for f in (Fraction(0), Fraction(22, 35), Fraction(1)):
        payload = serialize.fraction_payload(f)
        assert set(payload) == {"num", "den", "decimal"}
        assert serialize.fraction_from_payload(through_json(payload)) == f


def test_table_round_trip():
    table = probability_table(5)
    payload = through_json(serialize.table_payload(table))
    assert serialize.table_from_payload(payload) == table


def test_table_csv_values_match_payload():
    table = probability_table(3)
    header, rows = serialize.table_csv_rows(serialize.table_payload(table))
    assert header == ["k", "k_plus", "k_minus", "p_tr_num", "p_tr_den", "p_tr_decimal"]
    by_cell = {(r[0], r[1]): (r[3], r[4]) for r in rows}
    assert by_cell[(3, 2)] == (1, 1)
    assert by_cell[(1, 1)] == (1, 3)


def test_ensemble_round_trip():
    result = run_ensemble(ElectricState(2, 1), KMeasurement(1), 1000, 42)
    payload = through_json(serialize.ensemble_payload(result))
    assert serialize.ensemble_from_payload(payload) == result


def test_amplitudes_round_trip():
    amp = amplitudes(2.5)
    point = serialize.scatter_point_payload(
        amp,
        transmission_probability(2.5),
        reflection_probability(2.5),
        jump_condition_residual(2.5),
    )
    restored = serialize.amplitudes_from_payload(through_json(point))
    assert restored == amp


def test_verdicts_round_trip():
    verdicts = classify_table(6)
    payload = through_json(serialize.verdicts_payload(verdicts))
    assert serialize.verdicts_from_payload(payload) == verdicts


def test_outcome_pair_round_trip():
    from deltamachine.elastic import ElasticExperiment, epsilon_probabilities

    pair = epsilon_probabilities(ElasticExperiment(1.1, 0.7))
    payload = through_json(serialize.outcome_pair_payload(pair))
    assert serialize.outcome_pair_from_payload(payload) == pair
