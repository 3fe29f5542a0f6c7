"""Classify transmission-probability tables as classical, quantum, or hybrid.

A row (fixed tranche size k, states K+ = 0..K) is judged by three criteria:

* classical — every outcome is predetermined: all probabilities in {0, 1};
* classical-with-tie — deterministic except the balanced state K+ = K- of an
  even-K cluster, which sits at exactly 1/2 (a particle stopping on top of a
  potential barrier and toppling either way);
* quantum — the row is exactly the Born values of the delta-potential
  problem at the lattice energies: P = K+/K (and 1 at infinite energy).

Anything else is irreducibly intermediate, and the verdict always carries
machine-checkable witnesses: a state with K+ >= 1 but zero transmission
certifies non-quantumness (the Wronskian of two independent scattering
solutions forbids a transmission zero at positive energy), while any strictly
fractional probability certifies non-classicality.

Degenerate tiny-K rows can satisfy several criteria at once; the verdict
precedence is Classical > ClassicalWithTie > Quantum > Intermediate
(determinism is the strongest, most falsifiable property).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    ProbabilityTableRow,
    probability_table,
)

HALF = Fraction(1, 2)


class Regime(Enum):
    CLASSICAL = "Classical"
    CLASSICAL_WITH_TIE = "ClassicalWithTie"
    QUANTUM = "Quantum"
    INTERMEDIATE = "Intermediate"


class WitnessKind(Enum):
    ALL_DETERMINISTIC = "AllDeterministic"
    DETERMINISTIC_EXCEPT_BALANCED_HALF = "DeterministicExceptBalancedHalf"
    MATCHES_BORN_RULE = "MatchesBornRule"
    NON_QUANTUM_ZERO_TRANSMISSION = "NonQuantumZeroTransmission"
    NON_CLASSICAL_INDETERMINISM = "NonClassicalIndeterminism"


@dataclass(frozen=True)
class Witness:
    kind: WitnessKind
    state: ElectricState | None = None


@dataclass(frozen=True)
class RegimeVerdict:
    """Verdict plus the concrete witnesses justifying it.

    An Intermediate verdict with no zero-transmission witness failed only
    the Born-curve match; whether some other 1-D potential could realize
    such a row is not decided by this classifier, and ``note`` says so.
    """

    verdict: Regime
    witnesses: tuple[Witness, ...]
    note: str | None = None

    def witnesses_of(self, kind: WitnessKind) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if w.kind is kind)


_UNDECIDED_NOTE = (
    "no transmission zero above threshold: only the Born-curve match failed; "
    "realizability by some other 1-D potential is not decided here"
)


def _validated_entries(
    row: ProbabilityTableRow,
) -> tuple[tuple[ElectricState, Fraction], ...]:
    entries = tuple(row.entries)
    if not entries:
        raise ValueError("row has no entries")
    total = entries[0][0].total
    if len(entries) != total + 1:
        raise ValueError(
            f"row must cover K+ = 0..{total}: expected {total + 1} entries, "
            f"got {len(entries)}"
        )
    checked = []
    for i, (state, p) in enumerate(entries):
        if state.k_plus != i or state.total != total:
            raise ValueError(
                f"entry {i} has state ({state.k_plus}, {state.k_minus}); "
                f"expected ({i}, {total - i})"
            )
        p = Fraction(p)
        if p < 0 or p > 1:
            raise ValueError(f"probability {p} at K+={i} is outside [0, 1]")
        checked.append((state, p))
    return tuple(checked)


def wronskian_witnesses(row: ProbabilityTableRow) -> tuple[ElectricState, ...]:
    """States whose zero transmission rules out any 1-D scattering origin.

    Every state with at least one positive sphere (energy label > 0,
    including the all-positive infinite-energy state) and transmission
    exactly 0 is returned; a nonempty result certifies the row cannot come
    from a stationary 1-D scattering problem at positive energy.
    """
    entries = _validated_entries(row)
    return tuple(s for s, p in entries if s.k_plus >= 1 and p == 0)


def _classify_entries(
    entries: tuple[tuple[ElectricState, Fraction], ...], total: int
) -> RegimeVerdict:
    """Verdict of a well-formed row.

    ``entries[i]`` must hold state K+ = i and a ``Fraction`` in [0, 1]:
    :func:`classify_row` checks this, and :func:`probability_table` builds
    only such rows.
    """
    fractional = [i for i, (_, p) in enumerate(entries) if p.denominator != 1]
    if not fractional:
        return RegimeVerdict(
            verdict=Regime.CLASSICAL,
            witnesses=(Witness(WitnessKind.ALL_DETERMINISTIC),),
        )

    if total % 2 == 0 and fractional == [total // 2]:
        balanced_state, balanced_p = entries[total // 2]
        if balanced_p == HALF:
            return RegimeVerdict(
                verdict=Regime.CLASSICAL_WITH_TIE,
                witnesses=(
                    Witness(
                        WitnessKind.DETERMINISTIC_EXCEPT_BALANCED_HALF,
                        balanced_state,
                    ),
                ),
            )

    # Born value K+/K, cross-multiplied; at K+ = K it is 1.
    born = all(
        p.numerator * total == i * p.denominator
        for i, (_, p) in enumerate(entries)
    )
    if born:
        return RegimeVerdict(
            verdict=Regime.QUANTUM,
            witnesses=(Witness(WitnessKind.MATCHES_BORN_RULE),),
        )

    zero_witnesses = tuple(
        Witness(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, s)
        for s, p in entries[1:]
        if p.numerator == 0
    )
    indeterminism_witnesses = tuple(
        Witness(WitnessKind.NON_CLASSICAL_INDETERMINISM, entries[i][0])
        for i in fractional
    )
    return RegimeVerdict(
        verdict=Regime.INTERMEDIATE,
        witnesses=zero_witnesses + indeterminism_witnesses,
        note=None if zero_witnesses else _UNDECIDED_NOTE,
    )


def classify_row(row: ProbabilityTableRow) -> RegimeVerdict:
    """Classify one table row; see the module docstring for the criteria.

    The row is validated first, and entries of any rational type (``int``,
    ``str``, ``Fraction``...) are converted to ``Fraction``.
    """
    entries = _validated_entries(row)
    return _classify_entries(entries, entries[0][0].total)


def classify_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> dict[int, RegimeVerdict]:
    """Classify every row k = 1..K of the exact transmission table.

    The rows come from :func:`probability_table`, so they skip the
    validation of :func:`classify_row`; an even row that shares its odd
    neighbour's entries shares its verdict too.
    """
    table = probability_table(K, ceiling=ceiling)
    verdicts: dict[int, RegimeVerdict] = {}
    for i, row in enumerate(table.rows):
        if i and row.entries is table.rows[i - 1].entries:
            verdicts[row.k] = verdicts[row.k - 1]
        else:
            verdicts[row.k] = _classify_entries(row.entries, table.K)
    return verdicts
