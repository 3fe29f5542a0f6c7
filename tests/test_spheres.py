"""Exact-probability module: frozen values, oracle equivalence, invariants."""

import math
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest

from deltamachine import spheres
from deltamachine.scattering import transmission_probability
from deltamachine.spheres import (
    _CERTAIN,
    ElectricState,
    KMeasurement,
    determinism_threshold,
    mixed_transmission,
    probability_table,
    reflection_probability_exact,
    transmission_probability_exact,
)

from oracles import enumerated_transmission


def p_tr(kp, km, k):
    return transmission_probability_exact(ElectricState(kp, km), KMeasurement(k))


class TestElectricState:
    def test_derived_quantities(self):
        s = ElectricState(4, 3)
        assert s.total == 7
        assert s.charge == 1
        assert s.energy_ratio == Fraction(4, 3)
        assert s.energy_label == "4/3"

    def test_infinite_energy_is_structural(self):
        s = ElectricState(5, 0)
        assert s.energy_ratio is None
        assert s.energy_label == "inf"

    def test_zero_energy(self):
        assert ElectricState(0, 5).energy_label == "0"

    @pytest.mark.parametrize("kp,km", [(-1, 2), (2, -1), (0, 0)])
    def test_invalid_counts(self, kp, km):
        with pytest.raises((ValueError, TypeError)):
            ElectricState(kp, km)

    def test_non_integer_counts(self):
        with pytest.raises(TypeError):
            ElectricState(1.5, 2)

    @pytest.mark.parametrize("kp,km", [(True, 1), (1, False)])
    def test_bool_counts_rejected(self, kp, km):
        with pytest.raises(TypeError):
            ElectricState(kp, km)

    def test_numpy_integer_counts_stored_as_int(self):
        state = ElectricState(np.int64(2), np.int32(1))
        assert state == ElectricState(2, 1)
        assert type(state.k_plus) is int and type(state.k_minus) is int


class TestKMeasurement:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KMeasurement(0)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            KMeasurement(2.0)
        with pytest.raises(TypeError):
            KMeasurement(True)

    def test_numpy_integer_stored_as_int(self):
        meas = KMeasurement(np.int64(3))
        assert meas == KMeasurement(3) and type(meas.k) is int


class TestTransmissionValues:
    # Frozen cells of the reference tables plus degenerate cases.
    @pytest.mark.parametrize(
        "kp,km,k,expected",
        [
            (4, 3, 3, Fraction(22, 35)),
            (3, 2, 4, Fraction(7, 10)),
            (0, 5, 1, Fraction(0)),
            (1, 4, 3, Fraction(0)),
            (2, 3, 3, Fraction(3, 10)),
            (1, 1, 1, Fraction(1, 2)),
            (1, 1, 2, Fraction(1, 2)),
            (3, 3, 6, Fraction(1, 2)),
            (4, 1, 3, Fraction(1)),
            (2, 5, 5, Fraction(0)),
            (3, 4, 5, Fraction(2, 7)),
        ],
    )
    def test_frozen_cells(self, kp, km, k, expected):
        assert p_tr(kp, km, k) == expected

    def test_reflection_complements(self):
        state, meas = ElectricState(4, 3), KMeasurement(3)
        assert reflection_probability_exact(state, meas) == Fraction(13, 35)
        assert reflection_probability_exact(ElectricState(1, 1), KMeasurement(1)) == Fraction(1, 2)

    def test_all_positive_never_reflects(self):
        for k in range(1, 6):
            assert reflection_probability_exact(ElectricState(5, 0), KMeasurement(k)) == 0

    @pytest.mark.parametrize("k", [0, -1, 8])
    def test_tranche_size_out_of_range(self, k):
        state = ElectricState(4, 3)
        if k < 1:
            with pytest.raises(ValueError):
                KMeasurement(k)
        else:
            with pytest.raises(ValueError):
                transmission_probability_exact(state, KMeasurement(k))

    def test_result_is_reduced_rational_in_unit_interval(self):
        for K in range(1, 11):
            for kp in range(K + 1):
                for k in range(1, K + 1):
                    p = p_tr(kp, K - kp, k)
                    assert 0 <= p <= 1
                    assert p.denominator > 0  # Fraction keeps lowest terms


class TestMixedTransmission:
    """A weight vector over the K + 1 states: the lattice wave packet."""

    def test_point_mass_is_its_table_cell(self):
        # The closed form, called per weight, against the table's _odd_rows.
        for K in range(1, 13):
            table = probability_table(K)
            for i in range(K + 1):
                point = [0] * (K + 1)
                point[i] = 1
                for k in range(1, K + 1):
                    assert mixed_transmission(point, k) == table.value(k, i), (K, i, k)

    def test_k1_is_the_packet_average_of_born_values(self):
        for K in range(1, 13):
            weights = [Fraction(j * j + 1, K + j + 1) for j in range(K + 1)]
            expected = sum(w * Fraction(i, K) for i, w in enumerate(weights)) / sum(weights)
            assert mixed_transmission(weights, 1) == expected
            for i in range(K):
                # |T(E_i)|^2 at the lattice energy E_i = i / (K - i) is i / K.
                born = transmission_probability(i / (K - i))
                assert abs(born - i / K) <= math.ulp(i / K), (K, i)

    def test_positive_energy_packet_that_never_transmits(self):
        # h = ceil(5 / 2) = 3: states 1 and 2 are below every k = 5 majority.
        value = mixed_transmission([0, Fraction(1, 3), 2.5, 0, 0, 0, 0, 0, 0, 0], 5)
        assert value == Fraction(0) and type(value) is Fraction

    def test_weights_are_read_exactly_and_need_not_sum_to_one(self):
        floats = mixed_transmission([0.1, 0.2, 0.3], 1)
        assert floats == (Fraction(0.2) / 2 + Fraction(0.3)) / (Fraction(0.1) + Fraction(0.2) + Fraction(0.3))
        assert mixed_transmission([2, 4, 6], 2) == mixed_transmission([Fraction(1, 6), Fraction(1, 3), 0.5], 2)
        assert mixed_transmission((np.int64(1), np.float64(1.0)), 1) == Fraction(1, 2)

    def test_one_closed_form_call_per_nonzero_weight(self, monkeypatch):
        calls = []

        def counted(state, meas):
            calls.append(state.k_plus)
            return transmission_probability_exact(state, meas)

        monkeypatch.setattr(spheres, "transmission_probability_exact", counted)
        weights = [0] * 65
        weights[20] = weights[40] = 1
        assert mixed_transmission(weights, 3) == (p_tr(20, 44, 3) + p_tr(40, 24, 3)) / 2
        assert calls == [20, 40]

    def test_reader_messages_name_the_weight(self):
        # values.as_fraction reads each weight; its messages carry the index.
        with pytest.raises(TypeError, match="^weight 2 must be a real number, not str$"):
            mixed_transmission([1, 1, "1"], 1)
        with pytest.raises(ValueError, match="^weight 0 must be finite, not inf$"):
            mixed_transmission([float("inf"), 1], 1)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([1, -1], "weight 1 must be nonnegative"),
            ([1, -0.5], "weight 1 must be nonnegative"),
            ([0, 0.0, Fraction(0)], "must not all be zero"),
            ([1], "at least two weights"),
            ([], "at least two weights"),
        ],
        ids=["negative-int", "negative-float", "all-zero", "one-weight", "empty"],
    )
    def test_rejects_bad_weight_vectors(self, weights, match):
        with pytest.raises(ValueError, match=match):
            mixed_transmission(weights, 1)

    def test_k_is_checked_as_a_measurement_of_the_cluster(self):
        with pytest.raises(ValueError, match="at least 1"):
            mixed_transmission([1, 1], 0)
        with pytest.raises(ValueError, match="k=3 exceeds cluster size K=2"):
            mixed_transmission([1, 1, 1], 3)
        with pytest.raises(TypeError):
            mixed_transmission([1, 1], True)

    def test_rejects_a_numpy_bool_array(self):
        with pytest.raises(TypeError, match="must be a real number, not bool"):
            mixed_transmission(np.array([True, False]), 1)

    @pytest.mark.parametrize("K", range(1, 13))
    def test_mixture_is_the_weighted_mean_of_its_table_rows(self, K):
        rng = random.Random(K)
        weights = [Fraction(rng.randrange(4), rng.randrange(1, 9)) for _ in range(K + 1)]
        weights[rng.randrange(K + 1)] += 1
        table = probability_table(K)
        for k in range(1, K + 1):
            expected = sum(w * table.value(k, i) for i, w in enumerate(weights)) / sum(weights)
            assert mixed_transmission(weights, k) == expected, k
        # Measuring the whole cluster reads its majority: a tie at i = K / 2 is 1/2.
        majority = sum(w * Fraction(1 + (2 * i > K), 2) for i, w in enumerate(weights) if 2 * i >= K)
        assert mixed_transmission(weights, K) == majority / sum(weights)

    @pytest.mark.parametrize("K", range(1, 13))
    def test_reversed_weights_transmit_the_complement(self, K):
        # State i reversed is state K - i, whose charges are swapped: P_k(i) + P_k(K - i) = 1.
        weights = [Fraction(i * i + 1, K + 2) for i in range(K + 1)]
        for k in range(1, K + 1):
            assert mixed_transmission(weights, k) + mixed_transmission(weights[::-1], k) == 1, k

    @pytest.mark.parametrize("K", range(3, 13))
    def test_positive_energy_witness_at_every_majority(self, K):
        for k in range(3, K + 1):
            h = -(-k // 2)
            below = [1 if 1 <= i < h else 0 for i in range(K + 1)]
            assert mixed_transmission(below, k) == 0, k
            # Each weighted state sits at E_i = i / (K - i) > 0, where every 1-D potential transmits.
            assert all(transmission_probability(i / (K - i)) > 0 for i in range(1, h)), k


class TestClosedFormTerms:
    """The closed form steps its composition sum by exact term ratios."""

    @staticmethod
    def counted_comb(monkeypatch):
        calls = []

        def counted(n, r):
            calls.append((n, r))
            return comb(n, r)

        monkeypatch.setattr(spheres, "comb", counted)
        return calls

    def test_small_cells_match_the_enumeration(self, monkeypatch):
        calls = self.counted_comb(monkeypatch)
        for K in range(1, 11):
            for kp in range(K + 1):
                for k in range(1, K + 1):
                    calls.clear()
                    assert p_tr(kp, K - kp, k) == enumerated_transmission(kp, K - kp, k)
                    assert len(calls) <= 5

    @pytest.mark.parametrize(
        "kp,km", [(1000, 1000), (1500, 500), (500, 1500), (2000, 1), (1, 2000), (2001, 0)]
    )
    def test_binomials_per_cell_do_not_grow_with_k(self, kp, km, monkeypatch):
        calls = self.counted_comb(monkeypatch)
        K = kp + km
        for k in (1, 2, 3, 999, 1000, 1001, K - 2, K - 1, K):
            calls.clear()
            p = p_tr(kp, km, k)
            assert len(calls) <= 5
            assert 0 <= p <= 1 and p + p_tr(km, kp, k) == 1


class TestInvariants:
    def test_normalization(self):
        for K in range(1, 13):
            for kp in range(K + 1):
                state = ElectricState(kp, K - kp)
                for k in range(1, K + 1):
                    meas = KMeasurement(k)
                    total = transmission_probability_exact(state, meas) + reflection_probability_exact(state, meas)
                    assert total == 1

    def test_monotone_in_positive_count(self):
        for K in range(1, 16):
            for k in range(1, K + 1):
                values = [p_tr(kp, K - kp, k) for kp in range(K + 1)]
                assert all(a <= b for a, b in zip(values, values[1:]))

    def test_endpoint_determinism(self):
        for K in range(1, 12):
            for k in range(1, K + 1):
                assert p_tr(0, K, k) == 0
                assert p_tr(K, 0, k) == 1

    def test_charge_swap_symmetry(self):
        for K in range(1, 13):
            for kp in range(K + 1):
                for k in range(1, K + 1):
                    assert p_tr(kp, K - kp, k) == 1 - p_tr(K - kp, kp, k)


class TestDeterminismThreshold:
    @pytest.mark.parametrize(
        "kp,km,expected",
        [(4, 1, 3), (0, 5, 1), (3, 3, 7), (1, 4, 3), (6, 0, 1)],
    )
    def test_examples(self, kp, km, expected):
        assert determinism_threshold(ElectricState(kp, km)) == expected


class TestProbabilityTable:
    def test_matches_reference_small(self):
        table = probability_table(3)
        assert [row.probabilities() for row in table.rows] == [
            (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)),
            (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        ]
        table2 = probability_table(2)
        assert [row.probabilities() for row in table2.rows] == [
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            (Fraction(0), Fraction(1, 2), Fraction(1)),
        ]

    def test_single_sphere(self):
        table = probability_table(1)
        assert len(table.rows) == 1
        assert table.rows[0].probabilities() == (Fraction(0), Fraction(1))

    def test_geometry_and_accessors(self):
        table = probability_table(5)
        assert len(table.rows) == 5
        for row in table.rows:
            assert len(row.entries) == 6
            assert [s.k_plus for s, _ in row.entries] == list(range(6))
        assert table.value(3, 2) == Fraction(3, 10)
        assert table.row(4).k == 4
        with pytest.raises(KeyError):
            table.row(6)
        with pytest.raises(KeyError):
            table.value(1, 7)

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            probability_table(0)
        with pytest.raises(ValueError):
            probability_table(65)
        with pytest.raises(TypeError):
            probability_table(3.0)
        assert probability_table(65, ceiling=70).K == 65
        assert probability_table(65, ceiling=np.int64(65)).K == 65

    def test_bool_size_rejected(self):
        with pytest.raises(TypeError):
            probability_table(True)

    @pytest.mark.parametrize("ceiling", (5.5, 70.0, True))
    def test_non_integer_ceiling_rejected(self, ceiling):
        with pytest.raises(TypeError, match="ceiling"):
            probability_table(5, ceiling=ceiling)

    def test_numpy_integer_size_stored_as_int(self):
        table = probability_table(np.int64(3))
        assert table.K == 3 and type(table.K) is int
        assert table.rows == probability_table(3).rows

    def test_bool_and_float_indices_rejected(self):
        table = probability_table(3)
        for bad in (True, False, 1.0):
            with pytest.raises(TypeError):
                table.row(bad)
            with pytest.raises(TypeError):
                table.value(bad, 1)
            with pytest.raises(TypeError):
                table.value(1, bad)

    def test_numpy_integer_indices(self):
        table = probability_table(3)
        assert table.row(np.int64(2)) is table.rows[1]
        assert table.value(np.int64(1), np.int64(2)) == Fraction(2, 3)
        with pytest.raises(KeyError):
            table.row(np.int64(4))


class TestTableRecurrence:
    """The table builder against the closed form and the enumeration."""

    def test_matches_closed_form(self):
        for K in range(1, 41):
            for row in probability_table(K).rows:
                meas = KMeasurement(row.k)
                for state, p in row.entries:
                    assert type(p) is Fraction
                    assert p == transmission_probability_exact(state, meas)

    def test_matches_enumeration_small(self):
        for K in range(1, 11):
            for row in probability_table(K).rows:
                for state, p in row.entries:
                    assert p == enumerated_transmission(
                        state.k_plus, state.k_minus, row.k
                    )

    def test_large_table_identities(self):
        K = 256
        table = probability_table(K, ceiling=K)
        assert [row.k for row in table.rows] == list(range(1, K + 1))
        for row in table.rows:
            probs = row.probabilities()
            if row.k % 2 == 0:
                assert probs == table.row(row.k - 1).probabilities()
            else:
                assert all(probs[i] == 1 - probs[K - i] for i in range(K + 1))
        for k_plus in (0, 1, 2, 37, 100, 128, 129, 200, 255, 256):
            state = ElectricState(k_plus, K - k_plus)
            # A row's fractional cells end at the determinism threshold: check
            # the last odd row with a fractional cell and the first certain one.
            threshold = determinism_threshold(state)
            edges = [k for k in (threshold - 2, threshold) if 1 <= k <= K]
            for k in [*range(1, K + 1, 17), *edges]:
                assert table.value(k, k_plus) == transmission_probability_exact(
                    state, KMeasurement(k)
                )


class TestMedianRankLaw:
    """Row k = 2h - 1 is the CDF of the first tranche's median slot."""

    def test_row_steps_are_the_median_slot_weights(self):
        for K in range(1, 41):
            table = probability_table(K)
            for k in range(1, K + 1, 2):
                h = (k + 1) // 2
                probs = table.row(k).probabilities()
                weights = [comb(i - 1, h - 1) * comb(K - i, h - 1) for i in range(1, K + 1)]
                assert sum(weights) == comb(K, k)
                for i, w in enumerate(weights, start=1):
                    assert probs[i] - probs[i - 1] == Fraction(w, comb(K, k))

    @pytest.mark.parametrize("K", [63, 64, 65, 127, 128, 129])
    def test_cells_at_the_swap_and_threshold_edges(self, K):
        table = probability_table(K, ceiling=K)
        for k in range(1, K + 1, 2):
            h = (k + 1) // 2
            meas = KMeasurement(k)
            row = table.row(k).entries
            edges = {h - 1, h, K // 2, K // 2 + 1, K - h + 1, K - h + 2}
            for k_plus in sorted(edges & set(range(K + 1))):
                state, p = row[k_plus]
                assert p == transmission_probability_exact(state, meas)
                assert gcd(p.numerator, p.denominator) == 1


class TestIndependentCrossChecks:
    """The table builder and the closed form never call each other."""

    def test_tables_build_without_the_closed_form(self, monkeypatch):
        expected = [probability_table(K) for K in range(1, 13)]

        def closed_form(*args):
            raise AssertionError("the table builder called the closed form")

        monkeypatch.setattr(spheres, "transmission_probability_exact", closed_form)
        assert [probability_table(K) for K in range(1, 13)] == expected

    def test_closed_form_answers_without_the_table_builder(self, monkeypatch):
        def odd_rows(K):
            raise AssertionError("the closed form called the table builder")

        monkeypatch.setattr(spheres, "_odd_rows", odd_rows)
        for K in range(1, 9):
            for kp in range(K + 1):
                for k in range(1, K + 1):
                    assert p_tr(kp, K - kp, k) == enumerated_transmission(kp, K - kp, k)


class TestTableSharing:
    """The object sharing that keeps a table about half constants."""

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_even_rows_share_the_odd_row_entries(self, K):
        table = probability_table(K, ceiling=K)
        for k in range(1, K, 2):
            assert table.rows[k].entries is table.rows[k - 1].entries

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_certain_cells_are_the_shared_constants(self, K):
        table = probability_table(K, ceiling=K)
        for row in table.rows:
            for state, p in row.entries:
                if row.k >= determinism_threshold(state):
                    assert p in (0, 1)
                    assert p is _CERTAIN[0] or p is _CERTAIN[1]

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_certain_entries_are_one_pair_per_table(self, K):
        table = probability_table(K, ceiling=K)
        pairs = {}
        for row in table.rows:
            for k_plus, entry in enumerate(row.entries):
                if row.k >= determinism_threshold(entry[0]):
                    assert pairs.setdefault((k_plus, entry[1]), entry) is entry
        # One constant per column; the balanced column of an even K has none.
        assert len(pairs) == K + K % 2

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_entries_hold_the_column_states(self, K):
        table = probability_table(K, ceiling=K)
        states = [state for state, _ in table.rows[0].entries]
        assert states == [ElectricState(i, K - i) for i in range(K + 1)]
        for row in table.rows:
            assert all(entry[0] is state for entry, state in zip(row.entries, states))

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_every_entry_holds_row_ones_state_object(self, K):
        # A builder that made a new state per pair would pass every equality test.
        table = probability_table(K, ceiling=K)
        first = [state for state, _ in table.rows[0].entries]
        computed = 0
        for row in table.rows:
            for k_plus, ((state, _), shared) in enumerate(zip(row.entries, first, strict=True)):
                assert state is shared, (row.k, k_plus)
                computed += row.k < determinism_threshold(state)
        assert computed == sum(min(kp, K - kp) * 2 for kp in range(K + 1))


def assert_plain_fraction(p, num, den):
    """``p`` is indistinguishable from the normalized ``Fraction(num, den)``."""
    ref = Fraction(num, den)
    assert type(p) is Fraction
    assert type(p.numerator) is type(p.denominator) is int
    assert (p.numerator, p.denominator) == (ref.numerator, ref.denominator)
    assert p == ref and hash(p) == hash(ref) and repr(p) == repr(ref)
    copy = pickle.loads(pickle.dumps(p))
    assert (copy.numerator, copy.denominator) == (ref.numerator, ref.denominator)
    assert str(p) == str(ref)
    assert float(p) == num / den
    assert p + 1 == Fraction(num + den, den) and 1 - p == Fraction(den - num, den)
    assert p * den == num and (p < 1) == (num < den)


class TestLowestTerms:
    """The table builder sets ``Fraction``'s slots without its normalization,
    so its cells must already be in lowest terms with a positive denominator,
    and behave as the normalized ``Fraction`` in every operation."""

    @pytest.mark.parametrize("K", [*range(1, 41), 64, 65, 128])
    def test_every_cell_is_in_lowest_terms(self, K):
        for row in probability_table(K, ceiling=K).rows[::2]:
            for _, p in row.entries:
                num, den = p.numerator, p.denominator
                assert den > 0 and gcd(num, den) == 1
                assert_plain_fraction(p, num, den)
