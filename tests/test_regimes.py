"""Regime classification: verdicts, witnesses, precedence, cross-checks."""

from fractions import Fraction

import numpy as np
import pytest

from deltamachine import regimes, spheres
from deltamachine.regimes import (
    Regime,
    WitnessKind,
    classify_row,
    classify_table,
    wronskian_witnesses,
)
from deltamachine.scattering import transmission_probability
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    ProbabilityTableRow,
    probability_table,
    transmission_probability_exact,
)

from oracles import reference_verdict


def make_row(k, values):
    """Row ``k`` whose probabilities are ``values`` as they are: ``classify_row``
    parses a ``str`` such as ``"1/3"`` and reads any other value exactly."""
    states = [ElectricState(i, len(values) - 1 - i) for i in range(len(values))]
    return ProbabilityTableRow(k=k, entries=tuple(zip(states, values)))


class TestClassifyRow:
    def test_intermediate_with_both_witness_kinds(self):
        row = probability_table(5).row(3)
        verdict = classify_row(row)
        assert verdict.verdict is Regime.INTERMEDIATE
        zeros = verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
        frac = verdict.witnesses_of(WitnessKind.NON_CLASSICAL_INDETERMINISM)
        assert [(w.state.k_plus, w.state.k_minus) for w in zeros] == [(1, 4)]
        assert [(w.state.k_plus, w.state.k_minus) for w in frac] == [(2, 3), (3, 2)]
        assert verdict.note is None

    def test_born_row_is_quantum(self):
        verdict = classify_row(probability_table(5).row(1))
        assert verdict.verdict is Regime.QUANTUM
        assert verdict.witnesses_of(WitnessKind.MATCHES_BORN_RULE)

    def test_deterministic_row_is_classical(self):
        verdict = classify_row(probability_table(3).row(3))
        assert verdict.verdict is Regime.CLASSICAL
        assert verdict.witnesses_of(WitnessKind.ALL_DETERMINISTIC)

    def test_balanced_half_row(self):
        verdict = classify_row(probability_table(6).row(5))
        assert verdict.verdict is Regime.CLASSICAL_WITH_TIE
        (witness,) = verdict.witnesses_of(
            WitnessKind.DETERMINISTIC_EXCEPT_BALANCED_HALF
        )
        assert (witness.state.k_plus, witness.state.k_minus) == (3, 3)

    def test_born_failure_only_row_carries_note(self):
        # Indeterministic, no transmission zeros, not the Born curve: the
        # classifier cannot rule out some other potential and says so.
        verdict = classify_row(make_row(2, ["0", "1/3", "1/2", "1"]))
        assert verdict.verdict is Regime.INTERMEDIATE
        assert not verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
        assert verdict.witnesses_of(WitnessKind.NON_CLASSICAL_INDETERMINISM)
        assert verdict.note is not None

    def test_zero_at_infinite_energy_is_flagged(self):
        verdict = classify_row(make_row(1, ["0", "1/3", "0"]))
        zeros = verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
        assert [(w.state.k_plus, w.state.k_minus) for w in zeros] == [(2, 0)]

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            classify_row(make_row(1, ["0", "3/2", "1"]))

    def test_rejects_wrong_arity(self):
        row = probability_table(5).row(1)
        truncated = ProbabilityTableRow(k=1, entries=row.entries[:-1])
        with pytest.raises(ValueError):
            classify_row(truncated)

    def test_rejects_misordered_states(self):
        row = probability_table(3).row(1)
        swapped = ProbabilityTableRow(
            k=1, entries=(row.entries[1], row.entries[0]) + row.entries[2:]
        )
        with pytest.raises(ValueError):
            classify_row(swapped)

    def test_rejects_non_state_entries(self):
        row = ProbabilityTableRow(k=1, entries=((0, Fraction(0)), (1, Fraction(1))))
        with pytest.raises(TypeError):
            classify_row(row)
        with pytest.raises(TypeError):
            wronskian_witnesses(row)

    @pytest.mark.parametrize(
        "value", [float("nan"), np.float64("nan"), float("inf"), -float("inf")]
    )
    def test_rejects_non_finite_probability(self, value):
        row = make_row(1, [0, value])
        for check in (classify_row, wronskian_witnesses):
            with pytest.raises(ValueError, match=r"^probability at K\+=1 must be finite, not "):
                check(row)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, None, 1j, b"1"], ids=repr)
    def test_rejects_non_real_probability_naming_its_column(self, value):
        row = make_row(1, [0, value, 1])
        for check in (classify_row, wronskian_witnesses):
            with pytest.raises(TypeError, match=r"^probability at K\+=1 must be a real number, not "):
                check(row)

    @pytest.mark.parametrize("literal", ["1/0", "abc", "nan", ""])
    def test_rejects_a_malformed_literal_naming_its_column(self, literal):
        row = make_row(1, [0, literal, 1])
        for check in (classify_row, wronskian_witnesses):
            with pytest.raises(ValueError, match=r"^probability at K\+=1 must be a rational literal, not "):
                check(row)

    @pytest.mark.parametrize("width", [np.float16, np.float32, np.longdouble])
    def test_reads_numpy_floats_of_every_width(self, width):
        verdict = classify_row(make_row(1, [0, width(0.5), 1]))
        assert verdict == classify_row(make_row(1, [0, Fraction(1, 2), 1]))
        assert verdict.verdict is Regime.CLASSICAL_WITH_TIE

    def test_witnesses_hold_the_rows_states(self):
        rows = [probability_table(5).row(3), probability_table(6).row(5)]
        rows.append(make_row(1, ["0", "1/3", "0"]))
        for row in rows:
            states = {state.k_plus: state for state, _ in row.entries}
            witnesses = classify_row(row).witnesses
            assert witnesses
            for witness in witnesses:
                assert witness.state is states[witness.state.k_plus]
            for state in wronskian_witnesses(row):
                assert state is states[state.k_plus]

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            classify_row(ProbabilityTableRow(k=1, entries=()))

    def test_rejects_mixed_cluster_sizes(self):
        entries = probability_table(3).row(1).entries
        mixed = entries[:3] + ((ElectricState(3, 1), Fraction(1)),)
        with pytest.raises(ValueError, match=r"expected \(3, 0\)"):
            classify_row(ProbabilityTableRow(k=1, entries=mixed))

    def test_accepts_int_entries(self):
        row = ProbabilityTableRow(
            k=3,
            entries=tuple((ElectricState(i, 3 - i), int(i >= 2)) for i in range(4)),
        )
        assert classify_row(row) == classify_row(probability_table(3).row(3))
        assert classify_row(row).verdict is Regime.CLASSICAL
        tie = ProbabilityTableRow(
            k=1,
            entries=(
                (ElectricState(0, 2), 0),
                (ElectricState(1, 1), Fraction(1, 2)),
                (ElectricState(2, 0), 1),
            ),
        )
        assert classify_row(tie).verdict is Regime.CLASSICAL_WITH_TIE


class TestClassifyTable:
    def test_seven_sphere_pattern(self):
        verdicts = classify_table(7)
        assert {k: v.verdict for k, v in verdicts.items()} == {
            1: Regime.QUANTUM,
            2: Regime.QUANTUM,
            3: Regime.INTERMEDIATE,
            4: Regime.INTERMEDIATE,
            5: Regime.INTERMEDIATE,
            6: Regime.INTERMEDIATE,
            7: Regime.CLASSICAL,
        }

    def test_three_sphere_has_no_intermediate(self):
        verdicts = classify_table(3)
        assert [v.verdict for v in verdicts.values()] == [
            Regime.QUANTUM,
            Regime.QUANTUM,
            Regime.CLASSICAL,
        ]

    def test_single_sphere_is_classical(self):
        # The one-sphere row is {0, 1}-valued and Born-valued at once;
        # the deterministic verdict takes precedence.
        assert classify_table(1)[1].verdict is Regime.CLASSICAL

    def test_tables_carry_no_note(self):
        # Every Intermediate row of a table has a transmission zero at K+ = 1,
        # so the undecided note appears only on hand-built rows.
        for K in range(1, 41):
            for k, verdict in classify_table(K).items():
                assert verdict.note is None, (K, k)
                if verdict.verdict is Regime.INTERMEDIATE:
                    zeros = verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
                    assert zeros[0].state == ElectricState(1, K - 1), (K, k)

    def test_two_sphere_rows_take_tie_precedence_over_born(self):
        verdicts = classify_table(2)
        assert [v.verdict for v in verdicts.values()] == [
            Regime.CLASSICAL_WITH_TIE,
            Regime.CLASSICAL_WITH_TIE,
        ]

    @pytest.mark.parametrize("K", [5, 7, 9, 11, 13, 15])
    def test_odd_pattern(self, K):
        verdicts = classify_table(K)
        assert verdicts[1].verdict is Regime.QUANTUM
        assert verdicts[2].verdict is Regime.QUANTUM
        for k in range(3, K):
            assert verdicts[k].verdict is Regime.INTERMEDIATE
        assert verdicts[K].verdict is Regime.CLASSICAL

    @pytest.mark.parametrize("K", [2, 4, 6, 8, 10, 12, 14])
    def test_even_top_rows_tie_and_coincide(self, K):
        verdicts = classify_table(K)
        assert verdicts[K - 1].verdict is Regime.CLASSICAL_WITH_TIE
        assert verdicts[K].verdict is Regime.CLASSICAL_WITH_TIE
        table = probability_table(K)
        assert table.row(K - 1).probabilities() == table.row(K).probabilities()


def plain_verdict(verdict):
    """A verdict in the plain form of ``oracles.reference_verdict``."""
    witnesses = [
        (w.kind.value, None if w.state is None else (w.state.k_plus, w.state.k_minus))
        for w in verdict.witnesses
    ]
    return verdict.verdict.value, witnesses, verdict.note is not None


class TestClassifyTableFastPath:
    """``classify_table`` derives its verdicts from the determinism
    threshold and reads no cell; it must agree with ``classify_row`` on the
    rows of ``probability_table``, which validates and converts every
    entry."""

    @pytest.mark.parametrize("K", range(1, 129))
    def test_matches_classify_row(self, K):
        table = probability_table(K, ceiling=K)
        verdicts = classify_table(K, ceiling=K)
        assert list(verdicts) == list(range(1, K + 1))
        for k, verdict in verdicts.items():
            assert verdict == classify_row(table.row(k))

    def test_no_verdict_carries_the_note(self):
        # Every Intermediate row has a transmission zero above threshold.
        for K in range(1, 257):
            for verdict in classify_table(K, ceiling=K).values():
                assert verdict.note is None

    def test_builds_no_table(self, monkeypatch):
        expected = classify_table(64)

        def no_table(*args, **kwargs):
            raise AssertionError("classify_table built a probability table")

        monkeypatch.setattr(regimes, "probability_table", no_table)
        monkeypatch.setattr(spheres, "probability_table", no_table)
        assert classify_table(64) == expected

    def test_matches_reference_classifier(self):
        for K in range(1, 41):
            table = probability_table(K)
            for k, verdict in classify_table(K).items():
                probabilities = list(table.row(k).probabilities())
                assert plain_verdict(verdict) == reference_verdict(probabilities)

    def test_verdict_pattern(self):
        # Independent of the shared row core: rows 1-2 are Born, the top
        # row is deterministic (odd K) or the top two tie (even K), and
        # everything between is intermediate.
        for K in range(3, 41):
            top = [Regime.CLASSICAL] if K % 2 else [Regime.CLASSICAL_WITH_TIE] * 2
            middle = [Regime.INTERMEDIATE] * (K - 2 - len(top))
            expected = [Regime.QUANTUM] * 2 + middle + top
            assert [v.verdict for v in classify_table(K).values()] == expected

    def test_witnesses_match_table(self):
        for K in range(3, 41):
            table = probability_table(K)
            for k, verdict in classify_table(K).items():
                if verdict.verdict is not Regime.INTERMEDIATE:
                    continue
                zeros = verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
                frac = verdict.witnesses_of(WitnessKind.NON_CLASSICAL_INDETERMINISM)
                entries = table.row(k).entries
                assert [w.state for w in zeros] == [
                    s for s, p in entries if s.k_plus >= 1 and p == 0
                ]
                assert [w.state for w in frac] == [s for s, p in entries if p not in (0, 1)]

    def test_bool_size_rejected(self):
        with pytest.raises(TypeError):
            classify_table(True)

    @pytest.mark.parametrize("ceiling", (5.5, 70.0, True))
    def test_non_integer_ceiling_rejected(self, ceiling):
        with pytest.raises(TypeError, match="ceiling"):
            classify_table(5, ceiling=ceiling)

    def test_numpy_integer_size(self):
        verdicts = classify_table(np.int64(3))
        assert verdicts == classify_table(3)
        assert all(type(k) is int for k in verdicts)


class TestVerdictSharing:
    """One verdict per odd/even row pair and one witness per (kind, state)."""

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_even_rows_share_the_odd_row_verdict(self, K):
        verdicts = classify_table(K, ceiling=K)
        for k in range(1, K, 2):
            assert verdicts[k + 1] is verdicts[k]

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_witnesses_are_shared_within_a_table(self, K):
        seen = {}
        for verdict in classify_table(K, ceiling=K).values():
            for witness in verdict.witnesses:
                first = seen.setdefault((witness.kind, witness.state), witness)
                assert witness is first

    @pytest.mark.parametrize("K", [1, 2, 7, 64, 65])
    def test_witnesses_at_a_state_share_its_object(self, K):
        states = {}
        for verdict in classify_table(K, ceiling=K).values():
            for witness in verdict.witnesses:
                if witness.state is not None:
                    first = states.setdefault(witness.state.k_plus, witness.state)
                    assert witness.state is first


class TestWitnessIntegrity:
    def test_non_classical_verdicts_carry_witnesses(self):
        for K in range(1, 13):
            for verdict in classify_table(K).values():
                if verdict.verdict is not Regime.CLASSICAL:
                    assert verdict.witnesses

    def test_intermediate_witnesses_reverify(self):
        for K in range(1, 13):
            for k, verdict in classify_table(K).items():
                if verdict.verdict is not Regime.INTERMEDIATE:
                    continue
                meas = KMeasurement(k)
                zeros = verdict.witnesses_of(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION)
                frac = verdict.witnesses_of(WitnessKind.NON_CLASSICAL_INDETERMINISM)
                assert zeros and frac
                for w in zeros:
                    assert w.state.k_plus >= 1
                    assert transmission_probability_exact(w.state, meas) == 0
                for w in frac:
                    p = transmission_probability_exact(w.state, meas)
                    assert p not in (0, 1)

    def test_quantum_rows_match_scattering_lattice(self):
        # Born verdicts and only Born verdicts coincide with the analytic
        # transmission curve at the lattice energies (K >= 3; at K <= 2 the
        # Born row degenerates into a deterministic/tie row and precedence
        # reclassifies it).
        for K in range(3, 16):
            table = probability_table(K)
            verdicts = classify_table(K)
            for row in table.rows:
                is_born = all(
                    (p == 1 if s.k_minus == 0 else p == Fraction(s.k_plus, K))
                    for s, p in row.entries
                )
                assert (verdicts[row.k].verdict is Regime.QUANTUM) == is_born
                if is_born:
                    for s, p in row.entries:
                        if s.k_minus:
                            analytic = transmission_probability(s.k_plus / s.k_minus)
                            assert abs(analytic - float(p)) < 1e-12


class TestWronskianWitnesses:
    def test_examples(self):
        t5 = probability_table(5)
        assert [
            (s.k_plus, s.k_minus) for s in wronskian_witnesses(t5.row(3))
        ] == [(1, 4)]
        assert wronskian_witnesses(t5.row(1)) == ()
        t7 = probability_table(7)
        assert [
            (s.k_plus, s.k_minus) for s in wronskian_witnesses(t7.row(5))
        ] == [(1, 6), (2, 5)]

    def test_zero_energy_state_never_a_witness(self):
        for K in range(1, 10):
            for row in probability_table(K).rows:
                assert all(s.k_plus >= 1 for s in wronskian_witnesses(row))
