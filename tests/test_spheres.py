"""Exact-probability module: frozen values, oracle equivalence, invariants."""

from fractions import Fraction

import numpy as np
import pytest

from deltamachine.spheres import (
    _CERTAIN,
    ElectricState,
    KMeasurement,
    choose,
    determinism_threshold,
    probability_table,
    reflection_probability_exact,
    transmission_probability_exact,
)

from oracles import born_transmission, cubic_tranche_transmission, enumerated_transmission


def p_tr(kp, km, k):
    return transmission_probability_exact(ElectricState(kp, km), KMeasurement(k))


class TestChoose:
    def test_matches_pascal(self):
        assert choose(7, 3) == 35
        assert choose(5, 0) == 1
        assert choose(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert choose(3, 4) == 0
        assert choose(3, -1) == 0
        assert choose(0, 1) == 0


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


class TestOracleEquivalence:
    def test_matches_enumeration_small(self):
        # K <= 9 here; the acceptance suite extends this to K <= 12.
        for K in range(1, 10):
            for kp in range(K + 1):
                for k in range(1, K + 1):
                    assert p_tr(kp, K - kp, k) == enumerated_transmission(kp, K - kp, k), (
                        kp,
                        K - kp,
                        k,
                    )


class TestInvariants:
    def test_normalization(self):
        for K in range(1, 13):
            for kp in range(K + 1):
                state = ElectricState(kp, K - kp)
                for k in range(1, K + 1):
                    meas = KMeasurement(k)
                    total = transmission_probability_exact(state, meas) + reflection_probability_exact(state, meas)
                    assert total == 1

    def test_pairwise_equality_odd_k(self):
        for K in range(2, 16):
            for kp in range(K + 1):
                for k in range(1, K, 2):
                    assert p_tr(kp, K - kp, k) == p_tr(kp, K - kp, k + 1)

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

    def test_single_sphere_specialization(self):
        for K in range(1, 16):
            for kp in range(K + 1):
                assert p_tr(kp, K - kp, 1) == born_transmission(kp, K)

    def test_triple_tranche_specialization(self):
        for K in range(3, 16):
            for kp in range(K + 1):
                assert p_tr(kp, K - kp, 3) == cubic_tranche_transmission(kp, K)


class TestDeterminismThreshold:
    @pytest.mark.parametrize(
        "kp,km,expected",
        [(4, 1, 3), (0, 5, 1), (3, 3, 7), (1, 4, 3), (6, 0, 1)],
    )
    def test_examples(self, kp, km, expected):
        assert determinism_threshold(ElectricState(kp, km)) == expected

    def test_threshold_marks_certain_outcomes(self):
        for K in range(1, 13):
            for kp in range(K + 1):
                state = ElectricState(kp, K - kp)
                threshold = determinism_threshold(state)
                for k in range(1, K + 1):
                    p = transmission_probability_exact(state, KMeasurement(k))
                    if k >= threshold:
                        assert p in (0, 1)


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
    """The column recurrence against the closed form and the enumeration."""

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
            # The recurrence stops below the determinism threshold: check the
            # last computed odd row and the first filled one as well.
            threshold = determinism_threshold(state)
            edges = [k for k in (threshold - 2, threshold) if 1 <= k <= K]
            for k in [*range(1, K + 1, 17), *edges]:
                assert table.value(k, k_plus) == transmission_probability_exact(
                    state, KMeasurement(k)
                )


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
