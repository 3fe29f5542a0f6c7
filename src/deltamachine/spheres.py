"""Exact transmission/reflection probabilities for the charged-sphere machine.

The entity under study is a cluster of ``K`` tiny spheres, each carrying unit
charge +1 or -1.  A measurement of tranche size ``k`` releases the spheres in
uniformly random order and routes the whole cluster right ("transmitted") or
left ("reflected") according to the sign of the total charge of the first
tranche of ``k`` spheres; an exactly balanced tranche (possible only for even
``k``) tips either way with probability 1/2.

All probabilities here are exact rationals, computed with arbitrary-precision
integers.  A single cell comes from the closed form: counting k-subsets by
charge composition gives a hypergeometric sum, whose terms step from the
first nonzero one by exact ratios, so a cell costs at most five binomial
coefficients.  Full tables instead come row by row from one density.
Label the slots 1..K with the positive spheres first: an odd first tranche
k = 2h - 1 is a uniform k-subset of the slots, and it has a positive
majority iff its median, the h-th smallest slot, is at most K+.  So row k
is the CDF of the tranche median's slot, a running sum of its weights
w_i = C(i - 1, h - 1) C(K - i, h - 1) over C(K, k), each weight one exact
division from the last: a table costs O(K^2) cells rather than O(K^3)
terms.  The density's support [h, K - h + 1] is the determinism threshold
2 min(K+, K-) + 1: outside it every cell is exactly 0 or 1, so about half
of the cells are shared constants and never computed.  Their
``(state, 0)`` and ``(state, 1)`` pairs are shared too, built once per
table for every column.  The density's symmetry w_i = w_{K+1-i} is the
charge swap P(K+, K-) = 1 - P(K-, K+), so the sums stop at K+ = K/2, and
each even row k equals the odd row k - 1.  ``_odd_rows`` yields the
computed cells of the odd rows as ``Fraction``s.  Each count S / C is
reduced by one gcd, which reduces its charge swap (C - S) / C as well,
and both lowest-terms pairs go into ``Fraction``'s slots without a second
normalization.  The table builder never calls the closed form, so the two
check each other.
Floats never enter; rendering a value as a decimal is presentation-side only.

The value types of the numpy-free modules, here and in ``regimes`` and
``scattering``, are ``__slots__`` classes finished by one decorator,
:func:`value_type`: it adds the equality, hashing, ``repr``, pickling and
immutability of a frozen dataclass, built with closures from the class's
``__slots__``, so the exact and scalar commands neither import
:mod:`dataclasses` (and through it ``inspect``) nor ``exec`` generated
methods at start-up.  Each class writes its own ``__init__``, which
validates first and then sets each slot once; the table builders, which
validate K once, build their states and witnesses with the class's
unchecked maker ``_make`` instead.  The result types of the
simulations stay dataclasses, since numpy costs their commands far more.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from fractions import Fraction
from math import comb, gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Exact probability values are reduced rationals in [0, 1]: ``Fraction``s in
#: lowest terms with a positive denominator.  The table builder reduces each
#: count once and sets the two slots of its cells in lowest terms.
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


def as_real_array(values: object, what: str) -> np.ndarray:
    """``values`` as float64; str, bytes, bool or complex entries raise ``TypeError``.

    An ``ndarray`` is checked by its dtype, any other input (a list, say)
    and an object array entry by entry, before numpy converts a bool.
    """
    import numpy as np

    a = np.asarray(values)
    if a.dtype.kind in "USbc":
        raise TypeError(f"{what} must be real numbers, not {a.dtype}")
    if a.dtype.kind == "O" or not isinstance(values, np.ndarray):
        entries = np.asarray(values, dtype=object).flat
        return np.array([as_real(v, what) for v in entries], np.float64).reshape(a.shape)
    return a.astype(np.float64, copy=False)


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
    * ``__match_args__``, the field names;
    * ``_make(*fields)``, a private maker that sets the slots through their
      member descriptors and checks nothing, for callers that have already
      validated the fields (the table builders, once per K).
    """
    names = cls.__slots__
    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    template = ", ".join(f"{name}=%r" for name in names)
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in names]

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

    if len(setters) == 2:
        # Unrolled for the hot two-field makers (column states, witnesses).
        set_first, set_second = setters

        def _make(first, second):
            self = new(cls)
            set_first(self, first)
            set_second(self, second)
            return self

    else:

        def _make(*fields):
            self = new(cls)
            for set_field, value in zip(setters, fields, strict=True):
                set_field(self, value)
            return self

    for method in (__eq__, __hash__, __repr__, __reduce__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls._make = staticmethod(_make)
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
    exactly balanced tranche resolved by a fair coin.  The sum starts at its
    first nonzero term, m = max(0, k - K+), and stops past m = K-, where the
    terms vanish.  Each term comes from the last by the exact division
    t_{m+1} = t_m (k - m)(K- - m) / ((K+ - k + m + 1)(m + 1)), so a cell
    costs at most five binomial coefficients whatever k is.
    """
    _require_valid(state, meas)
    kp, km, k = state.k_plus, state.k_minus, meas.k
    total = state.total
    first = max(0, k - kp)
    term, majority = comb(kp, k - first) * comb(km, first), 0
    for m in range(first, min((k + 1) // 2, km + 1)):
        majority += term
        term = term * ((k - m) * (km - m)) // ((kp - k + m + 1) * (m + 1))
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


def _states(K: object, ceiling: object) -> tuple[ElectricState, ...]:
    """The states ``ElectricState(i, K - i)``, i = 0..K, of a table's columns,
    with K checked to be an ``int`` in 1..ceiling (an ``int`` too).

    K is checked once, so the states are built by the unchecked maker.
    """
    K = as_int(K, "K")
    ceiling = as_int(ceiling, "ceiling")
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > ceiling:
        raise ValueError(f"K={K} exceeds the table ceiling {ceiling}")
    make = ElectricState._make
    return tuple([make(i, K - i) for i in range(K + 1)])


def _row_index(k: object, K: int) -> int:
    """Position of row ``k`` among the rows k = 1..K of a table."""
    k = as_int(k, "k")
    if not 1 <= k <= K:
        raise KeyError(f"no row for k={k} in a K={K} table")
    return k - 1


#: Table cells at and above the determinism threshold, shared by every table.
_CERTAIN = (Fraction(0), Fraction(1))


def _odd_rows(K: int) -> Iterator[tuple[Fraction, ...]]:
    """The computed cells of the odd rows k = 1, 3, ... of the K table, in order.

    Row k = 2h - 1 yields its cells K+ = h..K-h, each a ``Fraction``: the
    CDF of the tranche median's slot (see the module docstring),
    P = S / C(K, k) with S = w_h + ... + w_K+.  The cells K+ < h are 0 and
    the cells K+ > K - h are 1; they are not yielded.  The sums run from
    w_h = C(K - h, h - 1) up to K+ = K/2, stepped by the exact division
    w_{i+1} = w_i i (K - i - h + 1) / ((i - h + 1)(K - i)).  A cell above
    K/2 is the charge swap (C - S) / C of cell K - K+.  Both cells of a sum
    are reduced once, by g = gcd(S, C), which is gcd(C - S, C) too, and
    their two ``Fraction`` slots are set directly, with no second
    normalization.  The live state is one row.
    """
    new = object.__new__
    half = K // 2
    for h in range(1, (K + 3) // 2):
        subsets = comb(K, 2 * h - 1)
        weight, count = comb(K - h, h - 1), 0  # w_h and S at K+ = h - 1
        cells, swaps = [], []
        for i in range(h, half + 1):
            count += weight
            g = gcd(count, subsets)
            num, den = count // g, subsets // g
            cell = new(Fraction)
            cell._numerator, cell._denominator = num, den
            swap = new(Fraction)
            swap._numerator, swap._denominator = den - num, den
            cells.append(cell)
            swaps.append(swap)
            weight = weight * (i * (K - i - h + 1)) // ((i - h + 1) * (K - i))
        # Cells K+ = h..K/2, then the swaps of cells K - K+ for K+ = K/2 + 1..K - h.
        yield (*cells, *reversed(swaps[: K - half - h]))


def probability_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> ProbabilityTable:
    """Full K x (K+1) grid of exact transmission probabilities.

    Rows run over tranche sizes k = 1..K, columns over states K+ = 0..K
    (equivalently over increasing energy label K+/K-).  Entry K+ of a row
    is the pair ``(state, p)``.  Outside the determinism threshold
    2 min(K+, K-) + 1, p is ``_CERTAIN[0]`` or ``_CERTAIN[1]``, and the
    pair is one of the K + 1 ``(state, 0)`` and K + 1 ``(state, 1)`` pairs
    built once per table and shared by every row that holds it.  Inside
    it, the cells come from :func:`_odd_rows`, zipped with their column
    states.  Row k + 1 of an odd k shares row k's entries, the pairwise
    equality P(k + 1) = P(k).
    """
    states = _states(K, ceiling)
    K = len(states) - 1
    zero, one = _CERTAIN
    zeros = [(state, zero) for state in states]
    ones = [(state, one) for state in states]
    odd = [
        (*zeros[:h], *zip(states[h : K + 1 - h], cells), *ones[K + 1 - h :])
        for h, cells in enumerate(_odd_rows(K), 1)
    ]
    make = ProbabilityTableRow._make
    rows = [make(k, odd[(k - 1) // 2]) for k in range(1, K + 1)]
    return ProbabilityTable(K=K, rows=tuple(rows))
