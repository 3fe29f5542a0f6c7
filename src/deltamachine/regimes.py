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

A verdict concerns the map from state to probability within one
measurement k; an Intermediate verdict is not a contextuality claim.  In
the machine one hidden variable, lambda (the queue and the tie coin, drawn
by the measurement independently of the state: a trial's draws depend only
on K and the seed), decides the outcome of every (k, K+) cell that shares
a seed.  So for one state all the k-measurements have a joint
distribution, and no Bell-type inequality between them can be violated
(Fine, Phys. Rev. Lett. 48, 291 (1982)); see :mod:`deltamachine.machine`.

Degenerate tiny-K rows can satisfy several criteria at once; the verdict
precedence is Classical > ClassicalWithTie > Quantum > Intermediate
(determinism is the strongest, most falsifiable property).

:func:`classify_row` finds cells by column index and puts its witnesses on
the row's own states; :func:`classify_table` builds one witness tuple per
kind over the K + 1 states and gives each row slices of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

# ``probability_table`` is not called here, but stays importable from this
# module: bench/tracing.py wraps ``regimes.probability_table``.
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    ProbabilityTableRow,
    _states,
    probability_table,
)
from .values import is_bool, value_type


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


@value_type
class Witness:
    __slots__ = ("kind", "state")
    kind: WitnessKind
    state: ElectricState | None

    def __init__(self, kind: WitnessKind, state: ElectricState | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "state", state)


@value_type
class RegimeVerdict:
    """Verdict plus the concrete witnesses justifying it.

    An Intermediate verdict with no zero-transmission witness failed only
    the Born-curve match; whether some other 1-D potential could realize
    such a row is not decided by this classifier, and ``note`` says so.
    """

    __slots__ = ("verdict", "witnesses", "note")
    verdict: Regime
    witnesses: tuple[Witness, ...]
    note: str | None

    def __init__(
        self, verdict: Regime, witnesses: tuple[Witness, ...], note: str | None = None
    ) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "note", note)

    def witnesses_of(self, kind: WitnessKind) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if w.kind is kind)


_UNDECIDED_NOTE = (
    "no transmission zero above threshold: only the Born-curve match failed; "
    "realizability by some other 1-D potential is not decided here"
)

_CLASSICAL = RegimeVerdict(Regime.CLASSICAL, (Witness(WitnessKind.ALL_DETERMINISTIC),))
_QUANTUM = RegimeVerdict(Regime.QUANTUM, (Witness(WitnessKind.MATCHES_BORN_RULE),))
_ZERO = WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION
_FRACTIONAL = WitnessKind.NON_CLASSICAL_INDETERMINISM


def _validated_entries(
    row: ProbabilityTableRow,
) -> tuple[tuple[ElectricState, Fraction], ...]:
    entries = tuple(row.entries)
    if not entries:
        raise ValueError("row has no entries")
    total = len(entries) - 1
    checked = []
    for i, (state, p) in enumerate(entries):
        if not isinstance(state, ElectricState):
            raise TypeError(
                f"entry {i} has state of type {type(state).__name__}; "
                "expected ElectricState"
            )
        if state.k_plus != i or state.total != total:
            raise ValueError(
                f"entry {i} of {len(entries)} has state ({state.k_plus}, "
                f"{state.k_minus}); expected ({i}, {total - i})"
            )
        if is_bool(p):
            raise TypeError(f"probability at K+={i} must be a rational number, not bool")
        try:
            p = Fraction(p)
        except (OverflowError, ValueError):
            if isinstance(p, str):
                raise
            # Fraction raises OverflowError for an infinity, ValueError for NaN.
            raise ValueError(f"probability {p!r} at K+={i} is not finite") from None
        if p < 0 or p > 1:
            raise ValueError(f"probability {p} at K+={i} is outside [0, 1]")
        checked.append((state, p))
    return tuple(checked)


def _zeros(entries: Sequence[tuple[ElectricState, Fraction]]) -> list[int]:
    """Columns K+ >= 1 of validated ``entries`` whose transmission is 0."""
    return [i for i, (_, p) in enumerate(entries) if i and p == 0]


def wronskian_witnesses(row: ProbabilityTableRow) -> tuple[ElectricState, ...]:
    """States whose zero transmission rules out any 1-D scattering origin.

    Every state with at least one positive sphere (energy label > 0,
    including the all-positive infinite-energy state) and transmission
    exactly 0 is returned; a nonempty result certifies the row cannot come
    from a stationary 1-D scattering problem at positive energy.
    """
    entries = _validated_entries(row)
    return tuple(entries[i][0] for i in _zeros(entries))


def _tie(state: ElectricState) -> RegimeVerdict:
    """ClassicalWithTie, witnessed by the balanced ``state`` K+ = K/2 of an even K."""
    witness = Witness(WitnessKind.DETERMINISTIC_EXCEPT_BALANCED_HALF, state)
    return RegimeVerdict(Regime.CLASSICAL_WITH_TIE, (witness,))


def _row_verdict(entries: Sequence[tuple[ElectricState, Fraction]]) -> RegimeVerdict:
    """Verdict of validated ``entries`` (entry i holds K+ = i), witnessed by their states."""
    total = len(entries) - 1
    fractional = [i for i, (_, p) in enumerate(entries) if 0 < p < 1]
    if not fractional:
        return _CLASSICAL
    half = total // 2
    if total % 2 == 0 and fractional == [half] and 2 * entries[half][1] == 1:
        return _tie(entries[half][0])
    # Born value K+/K, cross-multiplied; at K+ = K it is 1.
    if all(p * total == i for i, (_, p) in enumerate(entries)):
        return _QUANTUM
    # Zero-transmission witnesses first; the note iff there is none.
    zero = tuple(Witness(_ZERO, entries[i][0]) for i in _zeros(entries))
    witnesses = zero + tuple(Witness(_FRACTIONAL, entries[i][0]) for i in fractional)
    return RegimeVerdict(Regime.INTERMEDIATE, witnesses, None if zero else _UNDECIDED_NOTE)


def classify_row(row: ProbabilityTableRow) -> RegimeVerdict:
    """Classify one table row; see the module docstring for the criteria.

    The row is validated first, and entries of any rational type (``int``,
    ``str``, ``Fraction``...) are converted to ``Fraction``.  States that
    are not :class:`ElectricState` and probabilities that are a Python or
    numpy ``bool`` raise ``TypeError``; a misshapen row or a probability
    that is not finite (NaN included) or lies outside [0, 1] raises
    ``ValueError``.
    """
    return _row_verdict(_validated_entries(row))


def classify_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> dict[int, RegimeVerdict]:
    """Classify every row k = 1..K of the exact transmission table.

    No cell is computed, because the determinism threshold fixes every
    verdict.  An odd first tranche k tilts right iff it holds at least
    h = (k + 1) / 2 positive spheres, so cell K+ is 0 if K+ < h, 1 if
    K- < h, and fractional iff h <= K+ <= K - h.  A row's fractional cells
    are exactly its density's support [h, K - h + 1], the slots the tranche
    median can take (see :mod:`deltamachine.spheres`), less the last slot,
    where the CDF reaches 1.  Hence, for odd k:

    * k = K: no cell is fractional.  Classical.
    * k = K - 1, K even: only K+ = K/2 = K- is, at 1/2 by the charge swap
      P(K+, K-) = 1 - P(K-, K+).  ClassicalWithTie.
    * k = 1: P = K+/K, the Born values.  Quantum.
    * otherwise 3 <= k <= K - 2, so 2 <= h <= K - h: the zeros K+ = 1..h-1
      and the fractional cells K+ = h..K-h both exist.  Intermediate, and
      never with the note.

    The cases go in verdict precedence (K = 1 is Classical, K = 2 a tie).
    Row k + 1 equals row k and shares its verdict.  Each Intermediate
    witness kind has one tuple over the states K+ = 0..K, which the rows
    slice (``zero[1:h]``, ``fractional[h:K-h+1]``): the rows share one
    :class:`Witness` per state and kind, and one state object per K+.
    The verdicts equal those of :func:`classify_row` on the rows of
    :func:`probability_table`.
    """
    states = _states(K, ceiling)
    K = len(states) - 1
    make = Witness._make  # the states are valid: _states checked K
    zero = tuple([make(_ZERO, s) for s in states])
    fractional = tuple([make(_FRACTIONAL, s) for s in states])
    odd = []
    for k in range(1, K + 1, 2):
        h = (k + 1) // 2
        if k == K:
            odd.append(_CLASSICAL)
        elif k == K - 1:
            odd.append(_tie(states[K // 2]))
        elif k == 1:
            odd.append(_QUANTUM)
        else:
            witnesses = zero[1:h] + fractional[h : K - h + 1]
            odd.append(RegimeVerdict(Regime.INTERMEDIATE, witnesses))
    return {k: odd[(k - 1) // 2] for k in range(1, K + 1)}
