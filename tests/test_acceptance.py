"""Acceptance suite: one test per shipped criterion, at the stated tolerance.

Run ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion (add ``-s`` to also see the plain PASS lines with timings).

Statistical criteria use the published master seed below and are fully
deterministic.  At z = 4 the per-cell false-alarm probability under a fresh
seed is about 6.3e-5; across the ~123 simulated cells checked here that is
a <1% chance of a single marginal failure for an arbitrary seed, and the
published seed passes.
"""

import math
import time
from fractions import Fraction

import numpy as np

from deltamachine import cli
from deltamachine.band import ElasticExperiment, epsilon_probabilities
from deltamachine.elastic import simulate_elastic
from deltamachine.machine import empirical_table
from deltamachine.regimes import Regime, WitnessKind, classify_table
from deltamachine.rng import substream_seed
from deltamachine.scattering import (
    WavePacket,
    amplitudes,
    jump_condition_residual,
    transmission_probability,
    wavepacket_transmission,
)
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    determinism_threshold,
    probability_table,
    transmission_probability_exact,
)

from oracles import (
    born_transmission,
    cubic_tranche_transmission,
    enumerated_transmission,
    normal_half_width,
)

MASTER_SEED = 20260811


def check_budget(num: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {num:02d} [{elapsed:6.2f}s < {budget:g}s] {label}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_golden_tables(capsys):
    started = time.perf_counter()
    for K in range(2, 8):
        assert cli.main(["tables", "--K", str(K), "--golden"]) == 0
    table7 = probability_table(7)
    assert table7.value(3, 4) == Fraction(22, 35)
    table5 = probability_table(5)
    assert table5.value(4, 3) == Fraction(7, 10)
    capsys.readouterr()
    with capsys.disabled():
        check_budget(1, "golden tables K=2..7 reproduced exactly", started, 1.0)


def test_criterion_02_closed_form_specializations(capsys):
    started = time.perf_counter()
    for K in range(1, 21):
        for kp in range(K + 1):
            state = ElectricState(kp, K - kp)
            assert transmission_probability_exact(
                state, KMeasurement(1)
            ) == born_transmission(kp, K)
            if K >= 3:
                assert transmission_probability_exact(
                    state, KMeasurement(3)
                ) == cubic_tranche_transmission(kp, K)
    with capsys.disabled():
        check_budget(2, "k=1 and k=3 closed forms, all K <= 20, exact", started, 1.0)


def test_criterion_03_oracle_equivalence(capsys):
    started = time.perf_counter()
    for K in range(1, 13):
        for kp in range(K + 1):
            state = ElectricState(kp, K - kp)
            for k in range(1, K + 1):
                assert transmission_probability_exact(
                    state, KMeasurement(k)
                ) == enumerated_transmission(kp, K - kp, k), (kp, K - kp, k)
    with capsys.disabled():
        check_budget(
            3, "closed form equals tranche enumeration, all K <= 12, exact", started, 30.0
        )


def test_criterion_04_pairwise_equality(capsys):
    started = time.perf_counter()
    for K in range(2, 21):
        for kp in range(K + 1):
            state = ElectricState(kp, K - kp)
            for k in range(1, K, 2):
                assert transmission_probability_exact(
                    state, KMeasurement(k)
                ) == transmission_probability_exact(state, KMeasurement(k + 1))
    with capsys.disabled():
        check_budget(4, "odd/even tranche pairs equal, all K <= 20, exact", started, 5.0)


def test_criterion_05_monte_carlo_convergence(capsys):
    started = time.perf_counter()
    n = 100_000
    for K in (3, 5, 7):
        exact = probability_table(K)
        empirical = empirical_table(K, n, substream_seed(MASTER_SEED, K))
        for exact_row, emp_row in zip(exact.rows, empirical.rows):
            for (state, p), (_, res) in zip(exact_row.entries, emp_row.entries):
                pf = float(p)
                bound = normal_half_width(pf, n, 4.0)
                delta = abs(float(res.frequency) - pf)
                assert delta <= bound, (K, exact_row.k, state, delta, bound)
    with capsys.disabled():
        check_budget(
            5,
            "machine ensembles within z=4 of exact values, K in {3,5,7}, 1e5 trials",
            started,
            60.0,
        )


def test_criterion_06_scattering_identities(capsys):
    started = time.perf_counter()
    for energy in np.linspace(0.1, 100.0, 1000):
        amp = amplitudes(energy)
        assert abs(abs(amp.transmission) ** 2 + abs(amp.reflection) ** 2 - 1) < 1e-12
        assert abs(1 + amp.reflection - amp.transmission) < 1e-12
        assert jump_condition_residual(energy) < 1e-12
    assert transmission_probability(1.0) == 1.0 / (1.0 + 1.0)
    assert transmission_probability(4.0) == 4.0 / (1.0 + 4.0)
    with capsys.disabled():
        check_budget(
            6, "unitarity/continuity/jump identities over 1e3 energies", started, 1.0
        )


def test_criterion_07_wavepacket_limit(capsys):
    started = time.perf_counter()
    packet = WavePacket.gaussian(4.0, 0.01)
    value = wavepacket_transmission(packet)
    assert abs(value - 0.8) < 1e-3
    with capsys.disabled():
        check_budget(7, "width-0.01 packet at E=4 transmits 4/5 within 1e-3", started, 1.0)


def test_criterion_08_elastic_model(capsys):
    started = time.perf_counter()
    for theta in np.linspace(0.0, math.pi, 1000):
        pair = epsilon_probabilities(ElasticExperiment(theta, 1.0))
        assert abs(pair.p_plus - math.cos(theta / 2.0) ** 2) <= 1e-12

    n = 100_000
    thetas = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
    epsilons = (0.0, 0.25, 0.5, 0.75, 1.0)
    for i, theta in enumerate(thetas):
        for j, eps in enumerate(epsilons):
            experiment = ElasticExperiment(theta, eps)
            p = epsilon_probabilities(experiment).p_plus
            seed = substream_seed(MASTER_SEED, 100 + i * len(epsilons) + j)
            freq = float(simulate_elastic(experiment, n, seed).frequency)
            bound = normal_half_width(p, n, 4.0)
            assert abs(freq - p) <= bound, (theta, eps, freq, p)
    with capsys.disabled():
        check_budget(
            8,
            "elastic closed forms (1e-12 sweep) and 5x5 simulation grid at z=4",
            started,
            30.0,
        )


def test_criterion_09_classification(capsys):
    started = time.perf_counter()
    v5 = classify_table(5)
    assert [v5[k].verdict for k in range(1, 6)] == [
        Regime.QUANTUM,
        Regime.QUANTUM,
        Regime.INTERMEDIATE,
        Regime.INTERMEDIATE,
        Regime.CLASSICAL,
    ]
    v7 = classify_table(7)
    assert [v7[k].verdict for k in range(1, 8)] == [
        Regime.QUANTUM,
        Regime.QUANTUM,
        Regime.INTERMEDIATE,
        Regime.INTERMEDIATE,
        Regime.INTERMEDIATE,
        Regime.INTERMEDIATE,
        Regime.CLASSICAL,
    ]
    v3 = classify_table(3)
    assert all(v.verdict is not Regime.INTERMEDIATE for v in v3.values())
    v6 = classify_table(6)
    assert v6[5].verdict is Regime.CLASSICAL_WITH_TIE
    assert v6[6].verdict is Regime.CLASSICAL_WITH_TIE
    t6 = probability_table(6)
    assert t6.row(5).probabilities() == t6.row(6).probabilities()
    zeros = v5[3].witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
    assert [(w.state.k_plus, w.state.k_minus) for w in zeros] == [(1, 4)]
    with capsys.disabled():
        check_budget(9, "regime verdicts for K=3,5,6,7 with witnesses, exact", started, 1.0)


def test_criterion_10_determinism_threshold(capsys):
    started = time.perf_counter()
    for K in range(1, 16):
        for kp in range(K + 1):
            state = ElectricState(kp, K - kp)
            threshold = determinism_threshold(state)
            assert threshold == 2 * min(kp, K - kp) + 1
            for k in range(threshold, K + 1):
                assert transmission_probability_exact(state, KMeasurement(k)) in (0, 1)
            if min(kp, K - kp) >= 1 and threshold <= K:
                indeterminate = [
                    k
                    for k in range(1, threshold)
                    if transmission_probability_exact(state, KMeasurement(k))
                    not in (0, 1)
                ]
                assert indeterminate, (kp, K - kp)
    with capsys.disabled():
        check_budget(
            10, "certainty at and only at k >= 2*min(K+,K-)+1, all K <= 15", started, 5.0
        )
