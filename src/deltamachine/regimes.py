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

Every criterion is decided on integers.  A cell P = num / den, with
den > 0 and the pair reduced or not, is fractional iff 0 < num < den, the
balanced half iff 2 num = den, the Born value iff num K = K+ den, and a
transmission zero iff num = 0.  :func:`classify_table` reads the odd-row
subset counts of the table builder directly and never forms a ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

# ``probability_table`` is not called here, but stays importable from this
# module: bench/tracing.py wraps ``regimes.probability_table``.
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    ProbabilityTableRow,
    _odd_rows,
    _table_size,
    probability_table,
)


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

_CLASSICAL = RegimeVerdict(
    verdict=Regime.CLASSICAL, witnesses=(Witness(WitnessKind.ALL_DETERMINISTIC),)
)
_QUANTUM = RegimeVerdict(
    verdict=Regime.QUANTUM, witnesses=(Witness(WitnessKind.MATCHES_BORN_RULE),)
)


def _validated_entries(
    row: ProbabilityTableRow,
) -> tuple[tuple[ElectricState, Fraction], ...]:
    entries = tuple(row.entries)
    if not entries:
        raise ValueError("row has no entries")
    for i, (state, _) in enumerate(entries):
        if not isinstance(state, ElectricState):
            raise TypeError(
                f"entry {i} has state of type {type(state).__name__}; "
                "expected ElectricState"
            )
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
        try:
            p = Fraction(p)
        except OverflowError:
            raise ValueError(f"probability {p!r} at K+={i} is not finite") from None
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


def _witnesses(
    cache: dict[WitnessKind, dict[int, Witness]],
    kind: WitnessKind,
    k_plus: Iterable[int],
    total: int,
) -> tuple[Witness, ...]:
    """Witnesses of ``kind`` for the states K+ in ``k_plus``, built once each."""
    known = cache.setdefault(kind, {})
    found = []
    for i in k_plus:
        witness = known.get(i)
        if witness is None:
            witness = known[i] = Witness(kind, ElectricState(i, total - i))
        found.append(witness)
    return tuple(found)


def _row_verdict(
    cells: Sequence[tuple[int, int]],
    cache: dict[WitnessKind, dict[int, Witness]],
) -> RegimeVerdict:
    """Verdict of a row whose cell K+ = i is P = num / den, ``cells[i]``.

    Each pair must have den > 0 and 0 <= num <= den; it need not be reduced.
    ``cache`` holds the witnesses built so far; the rows of one table share
    it, so each (kind, state) has one :class:`Witness`.
    """
    total = len(cells) - 1
    fractional = [i for i, (num, den) in enumerate(cells) if 0 < num < den]
    if not fractional:
        return _CLASSICAL

    if total % 2 == 0 and fractional == [total // 2]:
        num, den = cells[total // 2]
        if 2 * num == den:
            return RegimeVerdict(
                verdict=Regime.CLASSICAL_WITH_TIE,
                witnesses=_witnesses(
                    cache,
                    WitnessKind.DETERMINISTIC_EXCEPT_BALANCED_HALF,
                    fractional,
                    total,
                ),
            )

    # Born value K+/K, cross-multiplied; at K+ = K it is 1.
    if all(num * total == i * den for i, (num, den) in enumerate(cells)):
        return _QUANTUM

    zeros = [i for i, (num, _) in enumerate(cells) if i and num == 0]
    zero_witnesses = _witnesses(
        cache, WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, zeros, total
    )
    indeterminism_witnesses = _witnesses(
        cache, WitnessKind.NON_CLASSICAL_INDETERMINISM, fractional, total
    )
    return RegimeVerdict(
        verdict=Regime.INTERMEDIATE,
        witnesses=zero_witnesses + indeterminism_witnesses,
        note=None if zero_witnesses else _UNDECIDED_NOTE,
    )


def classify_row(row: ProbabilityTableRow) -> RegimeVerdict:
    """Classify one table row; see the module docstring for the criteria.

    The row is validated first, and entries of any rational type (``int``,
    ``str``, ``Fraction``...) are converted to ``Fraction``.  States that
    are not :class:`ElectricState` raise ``TypeError``; a misshapen row or
    a probability that is not finite or lies outside [0, 1] raises
    ``ValueError``.
    """
    entries = _validated_entries(row)
    return _row_verdict([(p.numerator, p.denominator) for _, p in entries], {})


def classify_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> dict[int, RegimeVerdict]:
    """Classify every row k = 1..K of the exact transmission table.

    No table is built: each odd row of :func:`~deltamachine.spheres._odd_rows`
    is classified on its integer cells (num, den), and the even row k + 1,
    which equals row k, shares its verdict.  The rows share one
    :class:`Witness` per state and kind.  The verdicts equal those of
    :func:`classify_row` on the rows of :func:`probability_table`.
    """
    K = _table_size(K, ceiling)
    cache: dict[WitnessKind, dict[int, Witness]] = {}
    odd = [_row_verdict(cells, cache) for cells in _odd_rows(K)]
    return {k: odd[(k - 1) // 2] for k in range(1, K + 1)}
