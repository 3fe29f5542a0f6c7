"""Exact transmission/reflection probabilities for the charged-sphere machine.

The entity under study is a cluster of ``K`` tiny spheres, each carrying unit
charge +1 or -1.  A measurement of tranche size ``k`` releases the spheres in
uniformly random order and routes the whole cluster right ("transmitted") or
left ("reflected") according to the sign of the total charge of the first
tranche of ``k`` spheres; an exactly balanced tranche (possible only for even
``k``) tips either way with probability 1/2.

All probabilities here are exact rationals, computed with arbitrary-precision
integers.  A single cell comes from the closed form: counting k-subsets by
charge composition gives a hypergeometric sum over binomial coefficients.
Full tables instead walk each column (fixed K+) up the odd tranche sizes:
the count of positive-majority k-subsets at k + 2 follows from the count at
k in O(1) big-integer steps, so a table costs O(K^2) cells rather than O(K^3)
terms.  A column stops at its determinism threshold 2 min(K+, K-) + 1,
from which on every cell is exactly 0 or 1, so about half of the cells are
shared constants and never computed.  Columns with K+ > K/2 follow from
the charge-swap identity P(K+, K-) = 1 - P(K-, K+), and each even row k
equals the odd row k - 1.  ``_odd_rows`` lays out the odd rows with every
cell in place as a ``Fraction``.  Each count S / C is reduced by one gcd,
which reduces its charge swap (C - S) / C as well, and :func:`_reduced`
wraps both lowest-terms pairs without normalizing them again.  The table
builder never calls the closed form, so the two check each other.
Floats never enter; rendering a value as a decimal is presentation-side only.

The value types of the numpy-free modules, here and in ``regimes`` and
``scattering``, are ``__slots__`` classes finished by one decorator,
:func:`value_type`: it adds the equality, hashing, ``repr``, pickling and
immutability of a frozen dataclass, built with closures from the class's
``__slots__``, so the exact and scalar commands neither import
:mod:`dataclasses` (and through it ``inspect``) nor ``exec`` generated
methods at start-up.  Each class writes its own ``__init__``, which
validates first and then sets each slot once.  The result types of the
simulations stay dataclasses, since numpy costs their commands far more.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd

#: Exact probability values are reduced rationals in [0, 1]: ``Fraction``s in
#: lowest terms with a positive denominator.  The table builder reduces each
#: count once and keeps lowest terms through :func:`_reduced`.
ExactProbability = Fraction

#: Largest K accepted by the table builders unless overridden.  Purely an
#: output-size guard; the arithmetic itself has no limit.
DEFAULT_TABLE_CEILING = 64


def as_int(value: object, what: str) -> int:
    """``value`` as a plain ``int``.

    Anything that supports ``operator.index`` passes, numpy integers
    included; ``bool`` and non-integers raise ``TypeError``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer") from None


def is_bool(value: object) -> bool:
    """Whether ``value`` is a Python or a numpy ``bool``."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def as_real(value: object, what: str) -> float:
    """``value`` as a ``float``; any bool, ``str`` or ``bytes`` raises ``TypeError``."""
    if is_bool(value) or isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{what} must be a real number, not {type(value).__name__}")
    return float(value)


class FrozenInstanceError(AttributeError):
    """A write to, or a deletion of, an attribute of a :func:`value_type` instance."""


def value_type(cls: type) -> type:
    """Give a ``__slots__`` class the methods of a frozen dataclass.

    The fields are ``cls.__slots__``, in order, and the class's own
    ``__init__`` sets each of them once with ``object.__setattr__``.  Added:

    * ``__eq__`` and ``__hash__`` over the tuple of the fields (an instance
      equals only an instance of the same class);
    * ``__repr__``, e.g. ``ElectricState(k_plus=1, k_minus=2)``;
    * ``__reduce__``, which rebuilds an instance through its constructor,
      for ``pickle`` and ``copy``;
    * ``__setattr__`` and ``__delattr__``, which raise
      :class:`FrozenInstanceError`;
    * ``__match_args__``, the field names.
    """
    names = cls.__slots__
    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    template = ", ".join(f"{name}=%r" for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({template % fields(self)})"

    def __reduce__(self):
        return type(self), fields(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__eq__, __hash__, __repr__, __reduce__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@value_type
class ElectricState:
    """Prepared charge state of the cluster: counts of +1 and -1 spheres.

    The energy-like label of the state is the exact pair
    ``(k_plus, k_minus)`` — conceptually the ratio ``k_plus / k_minus``, with
    ``k_minus == 0`` playing the role of infinite energy.  It is deliberately
    never stored as a float.
    """

    __slots__ = ("k_plus", "k_minus")
    k_plus: int
    k_minus: int

    def __init__(self, k_plus: int, k_minus: int) -> None:
        k_plus = as_int(k_plus, "sphere counts")
        k_minus = as_int(k_minus, "sphere counts")
        if k_plus < 0 or k_minus < 0:
            raise ValueError("sphere counts must be nonnegative")
        if k_plus + k_minus < 1:
            raise ValueError("the cluster must contain at least one sphere")
        object.__setattr__(self, "k_plus", k_plus)
        object.__setattr__(self, "k_minus", k_minus)

    @property
    def total(self) -> int:
        """Total number of spheres K."""
        return self.k_plus + self.k_minus

    @property
    def charge(self) -> int:
        """Net charge in units of the elementary sphere charge."""
        return self.k_plus - self.k_minus

    @property
    def energy_ratio(self) -> Fraction | None:
        """k_plus / k_minus as an exact Fraction, or None when k_minus == 0."""
        if self.k_minus == 0:
            return None
        return Fraction(self.k_plus, self.k_minus)

    @property
    def energy_label(self) -> str:
        """Display form of the energy label, e.g. ``"4/3"``, ``"0"``, ``"inf"``."""
        if self.k_minus == 0:
            return "inf"
        if self.k_plus == 0:
            return "0"
        return f"{self.k_plus}/{self.k_minus}"


@value_type
class KMeasurement:
    """A measurement that releases spheres in tranches of size ``k``."""

    __slots__ = ("k",)
    k: int

    def __init__(self, k: int) -> None:
        k = as_int(k, "tranche size")
        if k < 1:
            raise ValueError("tranche size must be at least 1")
        object.__setattr__(self, "k", k)


def _require_valid(state: ElectricState, meas: KMeasurement) -> None:
    if meas.k > state.total:
        raise ValueError(
            f"tranche size k={meas.k} exceeds cluster size K={state.total}"
        )


def transmission_probability_exact(
    state: ElectricState, meas: KMeasurement
) -> ExactProbability:
    """Exact probability that the cluster exits on the transmitted side.

    Counting first tranches by their number ``m`` of negative spheres::

        P = [ sum_{m < k/2} C(K+, k-m) C(K-, m)
              + (1/2) C(K+, k/2) C(K-, k/2)   (even k only) ] / C(K, k)

    The first sum covers strict positive majorities; the halved term is the
    exactly balanced tranche resolved by a fair coin.  States short of one
    species need no special case: ``comb(n, r)`` is 0 for r > n.
    """
    _require_valid(state, meas)
    kp, km, k = state.k_plus, state.k_minus, meas.k
    total = state.total
    majority = sum(comb(kp, k - m) * comb(km, m) for m in range((k + 1) // 2))
    tie = comb(kp, k // 2) * comb(km, k // 2) if k % 2 == 0 else 0
    return Fraction(2 * majority + tie, 2 * comb(total, k))


def reflection_probability_exact(
    state: ElectricState, meas: KMeasurement
) -> ExactProbability:
    """Exact complement of :func:`transmission_probability_exact`."""
    return 1 - transmission_probability_exact(state, meas)


def determinism_threshold(state: ElectricState) -> int:
    """Smallest tranche size at and above which the outcome is certain.

    Equals ``2 * min(K+, K-) + 1``: once a tranche must contain a strict
    majority of the more numerous species, the tilt is decided in advance.
    The returned value may exceed K, in which case no measurement on this
    state is deterministic.
    """
    return 2 * min(state.k_plus, state.k_minus) + 1


@value_type
class ProbabilityTableRow:
    """One table row: fixed tranche size ``k``, states K+ = 0..K in order."""

    __slots__ = ("k", "entries")
    k: int
    entries: tuple[tuple[ElectricState, ExactProbability], ...]

    def __init__(
        self, k: int, entries: tuple[tuple[ElectricState, ExactProbability], ...]
    ) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)

    def probabilities(self) -> tuple[ExactProbability, ...]:
        return tuple(p for _, p in self.entries)


@value_type
class ProbabilityTable:
    """Exact transmission probabilities for every (k, state) of a size-K cluster."""

    __slots__ = ("K", "rows")
    K: int
    rows: tuple[ProbabilityTableRow, ...]

    def __init__(self, K: int, rows: tuple[ProbabilityTableRow, ...]) -> None:
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "rows", rows)

    def row(self, k: int) -> ProbabilityTableRow:
        return self.rows[_row_index(k, self.K)]

    def value(self, k: int, k_plus: int) -> ExactProbability:
        row = self.row(k)
        k_plus = as_int(k_plus, "k_plus")
        if not 0 <= k_plus <= self.K:
            raise KeyError(f"no column for k_plus={k_plus} in a K={self.K} table")
        return row.entries[k_plus][1]


def _odd_counts(k_plus: int, k_minus: int) -> list[tuple[int, int]]:
    """``(S, C(K, k))`` of a state with K+ <= K- for odd k below its threshold.

    ``S`` counts the k-subsets with a positive majority, so P(k) = S / C(K, k)
    for odd k.  The list runs over k = 1, 3, ..., 2 K+ - 1: from the
    determinism threshold 2 K+ + 1 on, no k-subset has a positive majority
    and S = 0, so those rows are not computed (K+ = 0 gives an empty list).

    Extending a k-subset by an ordered pair of the K - k spheres left changes
    its majority only when it sits one sphere from the boundary: a subset
    with j = (k-1)/2 positives gains one with two more positives, and a
    subset with j + 1 positives loses it with two more negatives.  Every
    (k+2)-subset arises from (k+1)(k+2) ordered extensions, hence::

        S(k+2) = [ S(k) (K-k)(K-k-1)
                   + C(K+, j) C(K-, j+1) (K+ - j)(K+ - j - 1)
                   - C(K+, j+1) C(K-, j) (K- - j)(K- - j - 1) ] / ((k+1)(k+2))

    and the division is exact.  The four binomials slide up by one in j
    per step.
    """
    if k_plus == 0:
        return []
    total = k_plus + k_minus
    subsets, majority = total, k_plus  # C(K, 1) and S(1)
    plus_j, plus_next = 1, k_plus  # C(K+, j), C(K+, j+1) at j = 0
    minus_j, minus_next = 1, k_minus  # C(K-, j), C(K-, j+1)
    counts = [(majority, subsets)]
    for j in range(k_plus - 1):
        k = 2 * j + 1
        free = (total - k) * (total - k - 1)
        step = (k + 1) * (k + 2)
        gain = plus_j * minus_next * (k_plus - j) * (k_plus - j - 1)
        loss = plus_next * minus_j * (k_minus - j) * (k_minus - j - 1)
        majority = (majority * free + gain - loss) // step
        subsets = subsets * free // step
        counts.append((majority, subsets))
        plus_j, plus_next = plus_next, plus_next * (k_plus - j - 1) // (j + 2)
        minus_j, minus_next = minus_next, minus_next * (k_minus - j - 1) // (j + 2)
    return counts


def _states(K: object, ceiling: object) -> tuple[ElectricState, ...]:
    """The states ``ElectricState(i, K - i)``, i = 0..K, of a table's columns,
    with K checked to be an ``int`` in 1..ceiling (an ``int`` too)."""
    K = as_int(K, "K")
    ceiling = as_int(ceiling, "ceiling")
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > ceiling:
        raise ValueError(f"K={K} exceeds the table ceiling {ceiling}")
    return tuple(ElectricState(i, K - i) for i in range(K + 1))


def _row_index(k: object, K: int) -> int:
    """Position of row ``k`` among the rows k = 1..K of a table."""
    k = as_int(k, "k")
    if not 1 <= k <= K:
        raise KeyError(f"no row for k={k} in a K={K} table")
    return k - 1


#: Table cells at and above the determinism threshold, shared by every table.
_CERTAIN = (Fraction(0), Fraction(1))


def _reduced(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ints already in lowest terms, ``den > 0``.

    Sets the two slots of ``Fraction`` directly, skipping the constructor's
    type dispatch and its gcd; the caller guarantees what that gcd gives.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _odd_rows(K: int) -> list[tuple[Fraction, ...]]:
    """The odd rows k = 1, 3, ... of the K table, every cell a ``Fraction``.

    Row k is a tuple over K+ = 0..K.  A column K+ <= K/2 holds
    P = S / C(K, k) from :func:`_odd_counts` below its determinism
    threshold 2 K+ + 1, and ``_CERTAIN[0]`` (P = 0) from there on.  A column
    K+ > K/2 is the swap of column K - K+: an odd tranche never ties, so
    P(K+, K-) = 1 - P(K-, K+), which is (C - S) / C below the threshold and
    ``_CERTAIN[1]`` (P = 1) from there on.  Both cells of a count are
    reduced once, by g = gcd(S, C), which is gcd(C - S, C) too, and built
    in lowest terms by :func:`_reduced`.  The certain cells, about half the
    table, are padded in, never visited one by one.
    """
    n_odd = (K + 1) // 2
    zero, one = _CERTAIN
    low, high = [], []
    for i in range(K // 2 + 1):
        cells, swaps = [], []
        for s, c in _odd_counts(i, K - i):
            g = gcd(s, c)
            num, den = s // g, c // g
            cells.append(_reduced(num, den))
            swaps.append(_reduced(den - num, den))
        low.append(cells + [zero] * (n_odd - len(cells)))
        high.append(swaps + [one] * (n_odd - len(swaps)))
    return list(zip(*low, *reversed(high[:n_odd])))


def probability_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> ProbabilityTable:
    """Full K x (K+1) grid of exact transmission probabilities.

    Rows run over tranche sizes k = 1..K, columns over states K+ = 0..K
    (equivalently over increasing energy label K+/K-).  The odd rows come
    from :func:`_odd_rows`, which computes each column only below its
    determinism threshold 2 min(K+, K-) + 1 and shares ``_CERTAIN`` from
    there on.  Row k + 1 of an odd k shares row k's entries, the pairwise
    equality P(k + 1) = P(k).
    """
    states = _states(K, ceiling)
    K = len(states) - 1
    odd = [tuple(zip(states, row)) for row in _odd_rows(K)]
    rows = [ProbabilityTableRow(k=k, entries=odd[(k - 1) // 2]) for k in range(1, K + 1)]
    return ProbabilityTable(K=K, rows=tuple(rows))
