"""Breakable-elastic spin measurement: closed forms and simulation."""

import math

import numpy as np
import pytest

from deltamachine.elastic import (
    ElasticExperiment,
    epsilon_probabilities,
    quantum_spin_probabilities,
    simulate_elastic,
)
from deltamachine.ensemble import normal_half_width


class TestQuantumSpin:
    def test_aligned(self):
        pair = quantum_spin_probabilities(0.0)
        assert pair.p_plus == 1.0 and pair.p_minus == 0.0

    def test_orthogonal(self):
        pair = quantum_spin_probabilities(math.pi / 2)
        assert pair.p_plus == pytest.approx(0.5, abs=1e-12)

    def test_sixty_degrees(self):
        pair = quantum_spin_probabilities(math.pi / 3)
        assert pair.p_plus == pytest.approx(0.75, abs=1e-12)
        assert pair.p_minus == pytest.approx(0.25, abs=1e-12)

    def test_half_angle_identity(self):
        for theta in np.linspace(0.0, math.pi, 1000):
            pair = quantum_spin_probabilities(theta)
            assert abs(pair.p_plus - math.cos(theta / 2) ** 2) <= 1e-12
            assert abs(pair.p_minus - math.sin(theta / 2) ** 2) <= 1e-12
            assert abs(pair.p_plus + pair.p_minus - 1.0) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantum_spin_probabilities(-0.1)
        with pytest.raises(ValueError):
            quantum_spin_probabilities(math.pi + 0.1)


class TestElasticExperiment:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticExperiment(-0.1, 0.5)
        with pytest.raises(ValueError):
            ElasticExperiment(0.5, 1.5)
        with pytest.raises(ValueError):
            ElasticExperiment(0.5, -0.1)
        with pytest.raises(ValueError):
            ElasticExperiment(float("nan"), 0.5)
        with pytest.raises(ValueError):
            ElasticExperiment(0.5, 0.5, projection=1.5)

    def test_from_vectors_reduces_via_dot(self):
        exp = ElasticExperiment.from_vectors([0.0, 0.0, 2.0], [0.0, 0.0, 5.0], 0.3)
        assert exp.cos_theta == 1.0
        exp2 = ElasticExperiment.from_vectors([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.3)
        assert exp2.cos_theta == -1.0

    def test_from_vectors_keeps_exact_orthogonality(self):
        exp = ElasticExperiment.from_vectors([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)
        assert exp.cos_theta == 0.0

    def test_from_vectors_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ElasticExperiment.from_vectors([1.0, 0.0], [0.0, 1.0, 0.0], 0.5)
        with pytest.raises(ValueError):
            ElasticExperiment.from_vectors([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5)


class TestEpsilonProbabilities:
    def test_fully_breakable_reduces_to_quantum(self):
        for theta in np.linspace(0.0, math.pi, 1000):
            pair = epsilon_probabilities(ElasticExperiment(theta, 1.0))
            quantum = quantum_spin_probabilities(theta)
            assert abs(pair.p_plus - quantum.p_plus) <= 1e-12
            assert abs(pair.p_minus - quantum.p_minus) <= 1e-12

    def test_rigid_band_is_deterministic(self):
        assert epsilon_probabilities(ElasticExperiment(0.3, 0.0)).p_plus == 1.0
        assert epsilon_probabilities(ElasticExperiment(math.pi - 0.3, 0.0)).p_minus == 1.0

    def test_rigid_band_knife_edge_splits_evenly(self):
        exp = ElasticExperiment.from_vectors([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)
        pair = epsilon_probabilities(exp)
        assert pair.p_plus == 0.5 and pair.p_minus == 0.5

    def test_central_segment_formula(self):
        exp = ElasticExperiment(math.acos(0.25), 0.5)
        pair = epsilon_probabilities(exp)
        assert pair.p_plus == pytest.approx(0.75, abs=1e-12)
        assert pair.p_minus == pytest.approx(0.25, abs=1e-12)

    def test_central_segment_against_independent_monte_carlo(self):
        # Oracle with numpy's own generator: break uniformly on [-eps, eps],
        # the particle stays with the fragment holding it.
        gen = np.random.default_rng(20260811)
        n = 400_000
        for c, eps in ((0.25, 0.5), (-0.3, 0.8), (0.05, 0.1)):
            breaks = gen.uniform(-eps, eps, size=n)
            oracle = float(np.mean(breaks < c))
            exp = ElasticExperiment(math.acos(c), eps)
            p = epsilon_probabilities(exp).p_plus
            assert abs(p - oracle) <= 4.0 * math.sqrt(p * (1 - p) / n), (c, eps)

    def test_unbreakable_segments(self):
        # Particle beyond the breakable region: outcome certain either way.
        assert epsilon_probabilities(ElasticExperiment(0.0, 0.5)).p_plus == 1.0
        assert epsilon_probabilities(ElasticExperiment(math.pi, 0.5)).p_minus == 1.0

    def test_normalization_grid(self):
        for eps in (0.0, 0.1, 0.4, 0.7, 1.0):
            for theta in np.linspace(0.0, math.pi, 201):
                pair = epsilon_probabilities(ElasticExperiment(theta, eps))
                assert abs(pair.p_plus + pair.p_minus - 1.0) <= 1e-12
                assert -1e-15 <= pair.p_plus <= 1.0 + 1e-15

    def test_continuity_at_segment_boundaries(self):
        for eps in (0.1, 0.5, 0.9):
            inside_top = ElasticExperiment(0.1, eps, projection=eps * (1 - 1e-13))
            inside_bottom = ElasticExperiment(3.0, eps, projection=-eps * (1 - 1e-13))
            assert epsilon_probabilities(inside_top).p_plus == pytest.approx(1.0, abs=1e-12)
            assert epsilon_probabilities(inside_bottom).p_minus == pytest.approx(1.0, abs=1e-12)
            at_top = ElasticExperiment(0.1, eps, projection=eps)
            at_bottom = ElasticExperiment(3.0, eps, projection=-eps)
            assert epsilon_probabilities(at_top).p_plus == 1.0
            assert epsilon_probabilities(at_bottom).p_minus == 1.0

    def test_antisymmetry(self):
        for eps in (0.05, 0.3, 0.6, 1.0):
            for theta in np.linspace(0.05, math.pi - 0.05, 101):
                direct = epsilon_probabilities(ElasticExperiment(theta, eps))
                mirrored = epsilon_probabilities(ElasticExperiment(math.pi - theta, eps))
                assert abs(direct.p_plus - mirrored.p_minus) <= 1e-12


class TestSimulateElastic:
    def test_matches_quantum_at_full_breakability(self):
        result = simulate_elastic(ElasticExperiment(math.pi / 2, 1.0), 100_000, 42)
        assert abs(float(result.frequency) - 0.5) <= normal_half_width(0.5, 100_000, 3.0)

    def test_unbreakable_segment_is_exact(self):
        exp = ElasticExperiment(math.acos(0.5), 0.2)  # landing above the breakable part
        assert simulate_elastic(exp, 1000, 8).frequency == 1

    def test_central_segment_agreement(self):
        exp = ElasticExperiment(math.acos(0.25), 0.5)
        result = simulate_elastic(exp, 100_000, 1905)
        assert abs(float(result.frequency) - 0.75) <= normal_half_width(0.75, 100_000, 3.0)

    def test_agreement_grid(self):
        n = 20_000
        for eps in (0.0, 0.25, 0.5, 1.0):
            for theta in (0.4, math.pi / 2, 2.2):
                exp = ElasticExperiment(theta, eps)
                p = epsilon_probabilities(exp).p_plus
                freq = float(simulate_elastic(exp, n, 7).frequency)
                assert abs(freq - p) <= normal_half_width(p, n, 4.0), (eps, theta)

    def test_knife_edge_simulation_splits(self):
        # Exact projection 0 with a rigid band: every trial is a coin flip.
        exp = ElasticExperiment.from_vectors([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)
        result = simulate_elastic(exp, 50_000, 99)
        assert abs(float(result.frequency) - 0.5) <= normal_half_width(0.5, 50_000, 4.0)

    def test_deterministic_and_seed_sensitive(self):
        exp = ElasticExperiment(1.0, 0.8)
        assert simulate_elastic(exp, 5000, 4) == simulate_elastic(exp, 5000, 4)
        assert simulate_elastic(exp, 5000, 4) != simulate_elastic(exp, 5000, 5)

    @pytest.mark.parametrize("seed", (4.0, 1.2, True, "4"))
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError, match="seed"):
            simulate_elastic(ElasticExperiment(1.0, 0.8), 100, seed)

    def test_numpy_and_negative_seeds(self):
        exp = ElasticExperiment(1.0, 0.8)
        assert simulate_elastic(exp, 500, np.int64(4)) == simulate_elastic(exp, 500, 4)
        assert simulate_elastic(exp, 500, -1) == simulate_elastic(exp, 500, 2**64 - 1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_elastic(ElasticExperiment(1.0, 0.5), 0, 1)
