"""Breakable-elastic spin measurement: closed forms and simulation."""

import math
import random

import numpy as np
import pytest

import oracles
from oracles import normal_half_width
from deltamachine import elastic, rng
from deltamachine.band import (
    ElasticExperiment,
    epsilon_probabilities,
    quantum_spin_probabilities,
)
from deltamachine.elastic import simulate_elastic


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

    @pytest.mark.parametrize("theta", ["1", b"1", True])
    def test_rejects_non_real_angle(self, theta):
        with pytest.raises(TypeError, match="theta must be a real number"):
            quantum_spin_probabilities(theta)


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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"theta": "1.0", "epsilon": 0.5}, "theta"),
            ({"theta": True, "epsilon": 0.5}, "theta"),
            ({"theta": 1.0, "epsilon": b"0.5"}, "epsilon"),
            ({"theta": 1.0, "epsilon": 0.5, "projection": False}, "projection"),
        ],
    )
    def test_rejects_non_real_inputs(self, kwargs, name):
        with pytest.raises(TypeError, match=f"{name} must be a real number"):
            ElasticExperiment(**kwargs)

    @pytest.mark.parametrize("flag", [np.True_, np.array(True)])
    def test_rejects_numpy_bools(self, flag):
        with pytest.raises(TypeError, match="theta must be a real number"):
            ElasticExperiment(flag, 0.5)
        with pytest.raises(TypeError, match="epsilon must be a real number"):
            ElasticExperiment(1.0, flag)

    def test_accepts_ints_and_numpy_floats(self):
        exp = ElasticExperiment(np.float64(1.0), 1, projection=np.float32(0.5))
        assert (exp.theta, exp.epsilon, exp.cos_theta) == (1.0, 1.0, 0.5)
        assert {type(v) for v in (exp.theta, exp.epsilon, exp.projection)} == {float}

    def test_negative_zero_inputs_are_zero(self):
        exp = ElasticExperiment(-0.0, -0.0, projection=-0.0)
        assert exp == ElasticExperiment(0.0, 0.0, projection=0.0)
        for value in (exp.theta, exp.epsilon, exp.projection, exp.cos_theta):
            assert math.copysign(1, value) == 1

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

    @pytest.mark.parametrize("state", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]])
    def test_from_vectors_rejects_non_finite_components(self, state):
        with pytest.raises(ValueError, match="finite"):
            ElasticExperiment.from_vectors(state, [0.0, 0.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="finite"):
            ElasticExperiment.from_vectors([0.0, 0.0, 1.0], state, 0.5)

    @pytest.mark.parametrize(
        "vector", [[1, 0, True], [1.0, 0.0, np.True_], np.array([1, 0, 1], dtype=bool)]
    )
    def test_from_vectors_rejects_bool_components(self, vector):
        with pytest.raises(TypeError, match="state must be"):
            ElasticExperiment.from_vectors(vector, [0.0, 0.0, 1.0], 0.5)
        with pytest.raises(TypeError, match="axis must be"):
            ElasticExperiment.from_vectors([0.0, 0.0, 1.0], vector, 0.5)

    def test_from_vectors_rejects_strings(self):
        with pytest.raises(TypeError, match="state must be a real number"):
            ElasticExperiment.from_vectors(["1", "0", "0"], [0.0, 0.0, 1.0], 0.5)

    @pytest.mark.parametrize(
        "vector", [[[1.0], [0.0], [0.0]], np.zeros((3, 1)), [np.ones(1), 0.0, 0.0], {0.0, 1.0, 2.0}, iter([0.0, 0.0, 1.0])]
    )
    def test_from_vectors_rejects_what_is_not_three_scalars(self, vector):
        with pytest.raises(ValueError, match="state and axis must be 3-vectors"):
            ElasticExperiment.from_vectors(vector, [0.0, 0.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="state and axis must be 3-vectors"):
            ElasticExperiment.from_vectors([0.0, 0.0, 1.0], vector, 0.5)

    @pytest.mark.parametrize("vector", [[None, 0.0, 1.0], [b"1", 0.0, 1.0], [1j, 0.0, 1.0], b"abc", "abc"])
    def test_from_vectors_names_the_vector_of_a_non_real_component(self, vector):
        with pytest.raises(TypeError, match="state must be"):
            ElasticExperiment.from_vectors(vector, [0.0, 0.0, 1.0], 0.5)
        with pytest.raises(TypeError, match="axis must be"):
            ElasticExperiment.from_vectors([0.0, 0.0, 1.0], vector, 0.5)

    def test_from_vectors_reads_numpy_components_to_the_same_bits(self):
        v = [0.2532965817336079, -0.39794760314898925, 0.014485967658119048]
        u = [-0.2282674823101949, -0.2981790224596399, 0.17014821481072695]
        expected = ElasticExperiment.from_vectors(v, u, 0.5)
        assert ElasticExperiment.from_vectors(np.array(v), tuple(map(np.float64, u)), 0.5) == expected
        v32 = np.array(v, dtype=np.float32)
        assert ElasticExperiment.from_vectors(v32, u, 0.5) == ElasticExperiment.from_vectors(v32.tolist(), u, 0.5)

    def test_from_vectors_huge_components_do_not_overflow(self):
        exp = ElasticExperiment.from_vectors([1e308, 0.0, 1e308], [0.0, 0.0, 1.0], 0.5)
        assert exp.cos_theta == 0.7071067811865475

    def test_from_vectors_tiny_components_do_not_underflow(self):
        exp = ElasticExperiment.from_vectors([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0], 0.5)
        assert exp.cos_theta == 1.0
        exp = ElasticExperiment.from_vectors([0.0, 5e-324, 0.0], [0.0, -3.0, 0.0], 0.5)
        assert exp.cos_theta == -1.0

    def test_from_vectors_gives_the_same_bits_on_every_machine(self):
        # numpy's dot and norm go through the BLAS kernel picked at run time;
        # OpenBLAS's Haswell kernel gave 0x1.4d2b53fae721cp-2 for this pair.
        v = (0.2532965817336079, -0.39794760314898925, 0.014485967658119048)
        u = (-0.2282674823101949, -0.2981790224596399, 0.17014821481072695)
        exp = ElasticExperiment.from_vectors(v, u, 0.5)
        assert exp.cos_theta == float.fromhex("0x1.4d2b53fae721ap-2")

    def test_from_vectors_is_the_fsum_formula(self):
        gen = random.Random(37)
        for _ in range(1000):
            v = [gen.gauss(0.0, 1.0) for _ in range(3)]
            u = [gen.gauss(0.0, 1.0) for _ in range(3)]
            sv, su = max(map(abs, v)), max(map(abs, u))
            vs, us = [x / sv for x in v], [x / su for x in u]
            norms = math.sqrt(math.fsum(x * x for x in vs)) * math.sqrt(math.fsum(x * x for x in us))
            c = math.fsum(a * b for a, b in zip(vs, us)) / norms
            assert ElasticExperiment.from_vectors(v, u, 0.5).cos_theta == max(-1.0, min(1.0, c)), (v, u)


class TestEpsilonProbabilities:
    def test_fully_breakable_reduces_to_quantum(self):
        # quantum_spin_probabilities is this band, so compare with the
        # half-angle forms themselves.
        for theta in np.linspace(0.0, math.pi, 1000):
            pair = epsilon_probabilities(ElasticExperiment(theta, 1.0))
            assert abs(pair.p_plus - math.cos(theta / 2) ** 2) <= 1e-12
            assert abs(pair.p_minus - math.sin(theta / 2) ** 2) <= 1e-12

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

    @staticmethod
    def two_branch_rule(c, eps):
        """The closed form with its own eps = 0 branch: sign rule, fair tie."""
        if eps == 0.0:
            return (1.0, 0.0) if c > 0.0 else (0.0, 1.0) if c < 0.0 else (0.5, 0.5)
        if c >= eps:
            return (1.0, 0.0)
        if c <= -eps:
            return (0.0, 1.0)
        return ((eps + c) / (2.0 * eps), (eps - c) / (2.0 * eps))

    @pytest.mark.parametrize("eps", [0.0, 5e-324, 0.5, 1.0])
    @pytest.mark.parametrize("c", [-1.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0])
    def test_one_special_case_matches_the_two_branch_rule(self, c, eps):
        # repr tells -0.0 from 0.0, so the pairs agree in value and in sign.
        exp = ElasticExperiment(math.acos(c), eps, projection=c)
        pair = epsilon_probabilities(exp)
        expected = self.two_branch_rule(exp.cos_theta, eps)
        assert (repr(pair.p_plus), repr(pair.p_minus)) == tuple(map(repr, expected))
        if eps == 0.0:
            assert expected == ((1.0, 0.0) if c > 0.0 else (0.0, 1.0) if c < 0.0 else (0.5, 0.5))

    def test_antisymmetry(self):
        for eps in (0.05, 0.3, 0.6, 1.0):
            for theta in np.linspace(0.05, math.pi - 0.05, 101):
                direct = epsilon_probabilities(ElasticExperiment(theta, eps))
                mirrored = epsilon_probabilities(ElasticExperiment(math.pi - theta, eps))
                assert abs(direct.p_plus - mirrored.p_minus) <= 1e-12


def plus_mask(c, eps, seeds):
    """The kernel's decisions for the particle at ``c``, through its bounds."""
    return elastic._plus_mask(*elastic._draw_bounds(c, eps), seeds)


class TestKernelParity:
    """The vectorized band-breaking kernel against a scalar trial per seed."""

    SEEDS = rng.substream_seeds(2024, 0, 64)

    def check(self, c, eps, seeds=SEEDS):
        got = plus_mask(c, eps, seeds)
        assert got.tolist() == [oracles.elastic_trial(c, eps, s) for s in seeds.tolist()], (c, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_grid(self, eps):
        for c in (-1.0, -0.5, -0.05, 0.0, 0.05, 0.5, 1.0):
            self.check(c, eps)

    def test_knife_edge_is_the_coin_of_draw_one(self):
        # eps = 0 and c = 0: every break lands on the particle.
        self.check(0.0, 0.0)
        plus = plus_mask(0.0, 0.0, self.SEEDS).tolist()
        coins = [oracles.coin(oracles.reference_draw(s, 1)) for s in self.SEEDS.tolist()]
        assert plus == coins and 0 < sum(plus) < len(plus)

    def test_exact_tie_inside_the_breakable_segment(self):
        # Place the particle exactly on the break point of one seed.
        eps, seed = 0.5, int(self.SEEDS[5])
        c = -eps + 2.0 * eps * oracles.unit_double(oracles.reference_draw(seed, 0))
        self.check(c, eps)
        # This seed's coin is heads, so only the tie rule makes the trial go up.
        assert oracles.coin(oracles.reference_draw(seed, 1))
        assert plus_mask(c, eps, self.SEEDS[5:6]).tolist() == [True]

    def test_draw_bounds_match_reference_unit_doubles(self, monkeypatch):
        # Draw 0 pinned to the range ends and to both sides of each bound:
        # each decides as the reference break point -eps + 2 eps u does.
        pinned = []
        draws_at = rng.draws_at
        monkeypatch.setattr(
            rng, "draws_at", lambda s, i: np.array(pinned, np.uint64) if i == 0 else draws_at(s, i)
        )
        for eps in (0.0, 0.5, 1.0):
            for c in (-eps, 0.0, 0.3 * eps, -eps + 2.0 * eps * oracles.unit_double(2**63), eps):
                below, at = elastic._draw_bounds(c, eps)
                edges = (0, 1, 2**11 - 1, 2**11, 2**63, below - 1, below, at - 1, at, rng.MASK64)
                pinned[:] = sorted({v for v in edges if 0 <= v <= rng.MASK64})
                seeds = self.SEEDS[: len(pinned)]
                expected = []
                for v, seed in zip(pinned, seeds.tolist()):
                    point = -eps + 2.0 * eps * oracles.unit_double(v)
                    tie = point == c and oracles.coin(oracles.reference_draw(seed, 1))
                    expected.append(point < c or tie)
                assert elastic._plus_mask(below, at, seeds).tolist() == expected, (c, eps)


EPSILONS = (0.0, 5e-324, 1e-300, 0.1, 0.5, 1.0)
#: The ensemble of the count test, and draw 0 of its trial 5, on whose break
#: point one particle per eps sits.
MASTER = 20261019
TIE_DRAW = oracles.reference_draw(rng.substream_seed(MASTER, 5), 0)


def break_point(eps, draw):
    """Reference break point of a draw, from its top 53 bits."""
    return -eps + 2.0 * eps * oracles.unit_double(draw)


def bound_cases():
    cases = []
    for eps in EPSILONS:
        for c in (-1.0, -eps, -5e-324, 0.0, 5e-324, eps, 1.0, break_point(eps, TIE_DRAW)):
            cases.append((c, eps))
    gen = np.random.default_rng(1993)
    for _ in range(16):
        eps = float(gen.uniform(0.0, 1.0))
        # Half the particles sit on a break point, half anywhere on the band.
        if len(cases) % 2:
            c = break_point(eps, int(gen.integers(2**63)) << 1)
        else:
            c = float(gen.uniform(-1.0, 1.0))
        cases.append((c, eps))
    return cases


class TestDrawBounds:
    """The integer draw bounds against the float kernel they replaced."""

    @pytest.mark.parametrize("c, eps", bound_cases())
    def test_bounds_split_the_53_bit_range(self, c, eps):
        below, at = elastic._draw_bounds(c, eps)
        assert 0 <= below <= at <= 2**64 and below % 2**11 == at % 2**11 == 0
        # The break point just below each bound is under c (at most c), the
        # one at the bound is not; a bound of 0 or 2**64 has only one side.
        if below > 0:
            assert break_point(eps, below - 2**11) < c
        if below < 2**64:
            assert break_point(eps, below) >= c
        if at > 0:
            assert break_point(eps, at - 2**11) <= c
        if at < 2**64:
            assert break_point(eps, at) > c

    @pytest.mark.parametrize("c, eps", bound_cases())
    def test_counts_match_the_float_kernel(self, c, eps):
        n = 2**17
        seeds = rng.substream_seeds(MASTER, 0, n)
        reference = oracles.elastic_plus_mask(c, eps, seeds)
        assert (plus_mask(c, eps, seeds) == reference).all()
        result = simulate_elastic(ElasticExperiment(0.0, eps, projection=c), n, MASTER)
        assert result.transmitted == np.count_nonzero(reference)

    def test_break_point_case_ties(self):
        # The break-point cases put trial 5 on a tie; eps = c = 0 ties all.
        for eps in EPSILONS:
            below, at = elastic._draw_bounds(break_point(eps, TIE_DRAW), eps)
            assert below <= TIE_DRAW < at, eps
        assert elastic._draw_bounds(0.0, 0.0) == (0, 2**64)

    def test_certain_experiments_draw_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew for a certain experiment")

        monkeypatch.setattr(elastic, "_plus_mask", refuse)
        monkeypatch.setattr(rng, "substream_seeds", refuse)
        for c, eps, count in ((1.0, 0.5, 50), (-1.0, 0.5, 0), (0.25, 0.0, 50), (-0.25, 0.0, 0)):
            assert elastic._draw_bounds(c, eps) in ((0, 0), (2**64, 2**64))
            result = simulate_elastic(ElasticExperiment(0.0, eps, projection=c), 50, -3)
            assert (result.transmitted, result.seed) == (count, 2**64 - 3)


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

