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

_CLASSICAL = RegimeVerdict(Regime.CLASSICAL, (Witness(WitnessKind.ALL_DETERMINISTIC),))
_QUANTUM = RegimeVerdict(Regime.QUANTUM, (Witness(WitnessKind.MATCHES_BORN_RULE),))

#: The witnesses built so far, by kind and K+; the rows of one table share it.
_Cache = dict[WitnessKind, dict[int, Witness]]


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
    cache: _Cache, kind: WitnessKind, k_plus: Iterable[int], total: int
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


def _tie(cache: _Cache, total: int) -> RegimeVerdict:
    """ClassicalWithTie, witnessed by the balanced state K+ = K/2 of an even K."""
    witnesses = _witnesses(
        cache, WitnessKind.DETERMINISTIC_EXCEPT_BALANCED_HALF, [total // 2], total
    )
    return RegimeVerdict(Regime.CLASSICAL_WITH_TIE, witnesses)


def _intermediate(
    cache: _Cache, zeros: Iterable[int], fractional: Iterable[int], total: int
) -> RegimeVerdict:
    """Intermediate, with zero witnesses at K+ in ``zeros`` (each >= 1) and
    indeterminism witnesses at ``fractional``; the note iff no zero exists."""
    zero = _witnesses(cache, WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, zeros, total)
    witnesses = zero + _witnesses(
        cache, WitnessKind.NON_CLASSICAL_INDETERMINISM, fractional, total
    )
    note = None if zero else _UNDECIDED_NOTE
    return RegimeVerdict(Regime.INTERMEDIATE, witnesses, note)


def _row_verdict(probabilities: Sequence[Fraction]) -> RegimeVerdict:
    """Verdict of a row whose cell K+ = i is ``probabilities[i]``, in [0, 1]."""
    total = len(probabilities) - 1
    fractional = [i for i, p in enumerate(probabilities) if 0 < p < 1]
    if not fractional:
        return _CLASSICAL
    half = total // 2
    if total % 2 == 0 and fractional == [half] and 2 * probabilities[half] == 1:
        return _tie({}, total)
    # Born value K+/K, cross-multiplied; at K+ = K it is 1.
    if all(p * total == i for i, p in enumerate(probabilities)):
        return _QUANTUM
    zeros = [i for i, p in enumerate(probabilities) if i and p == 0]
    return _intermediate({}, zeros, fractional, total)


def classify_row(row: ProbabilityTableRow) -> RegimeVerdict:
    """Classify one table row; see the module docstring for the criteria.

    The row is validated first, and entries of any rational type (``int``,
    ``str``, ``Fraction``...) are converted to ``Fraction``.  States that
    are not :class:`ElectricState` raise ``TypeError``; a misshapen row or
    a probability that is not finite or lies outside [0, 1] raises
    ``ValueError``.
    """
    return _row_verdict([p for _, p in _validated_entries(row)])


def classify_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> dict[int, RegimeVerdict]:
    """Classify every row k = 1..K of the exact transmission table.

    No cell is computed, because the determinism threshold fixes every
    verdict.  An odd first tranche k tilts right iff it holds at least
    h = (k + 1) / 2 positive spheres, so cell K+ is 0 if K+ < h, 1 if
    K- < h, and fractional iff h <= K+ <= K - h.  Hence, for odd k:

    * k = K: no cell is fractional.  Classical.
    * k = K - 1, K even: only K+ = K/2 = K- is, at 1/2 by the charge swap
      P(K+, K-) = 1 - P(K-, K+).  ClassicalWithTie.
    * k = 1: P = K+/K, the Born values.  Quantum.
    * otherwise 3 <= k <= K - 2, so 2 <= h <= K - h: the zeros K+ = 1..h-1
      and the fractional cells K+ = h..K-h both exist.  Intermediate, and
      never with the note.

    The cases go in verdict precedence (K = 1 is Classical, K = 2 a tie).
    Row k + 1 equals row k and shares its verdict, and the rows share one
    :class:`Witness` per state and kind.  The verdicts equal those of
    :func:`classify_row` on the rows of :func:`probability_table`.
    """
    K = _table_size(K, ceiling)
    cache: _Cache = {}
    odd = []
    for k in range(1, K + 1, 2):
        h = (k + 1) // 2
        if k == K:
            odd.append(_CLASSICAL)
        elif k == K - 1:
            odd.append(_tie(cache, K))
        elif k == 1:
            odd.append(_QUANTUM)
        else:
            odd.append(_intermediate(cache, range(1, h), range(h, K - h + 1), K))
    return {k: odd[(k - 1) // 2] for k in range(1, K + 1)}
