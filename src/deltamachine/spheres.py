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
each even row k equals the odd row k - 1.  ``_odd_rows`` yields each odd
row whole, as its tuple of ``(state, p)`` pairs on the shared column
states.  Each count S / C is reduced by one gcd, which reduces its charge
swap (C - S) / C as well; both lowest-terms pairs go into ``Fraction``'s
slots without a second normalization, and both cells' pairs are made in
the same step.  The table builder never calls the closed form, so the two
check each other.  The transmission of a mixed state,
:func:`mixed_transmission`, is the weighted mean of its states' closed-form
cells, and a float weight is read exactly, as the rational it is.
Floats never enter the arithmetic; rendering a value as a decimal is
presentation-side only.

The argument checks and the value-type decorator come from
:mod:`deltamachine.values`, which imports nothing from the package.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain
from math import comb, gcd

from .values import as_fraction, as_int, value_type

#: Exact probability values are reduced rationals in [0, 1]: ``Fraction``s in
#: lowest terms with a positive denominator.  The table builder reduces each
#: count once and sets the two slots of its cells in lowest terms.
ExactProbability = Fraction

#: Largest K accepted by the table builders unless overridden.  Purely an
#: output-size guard; the arithmetic itself has no limit.
DEFAULT_TABLE_CEILING = 64


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


def mixed_transmission(weights: Sequence[object], k: int) -> ExactProbability:
    """Exact transmission of a mixed state of K spheres under tranche size k.

    ``weights[i]`` weighs the state ``ElectricState(i, K - i)``, with
    K = ``len(weights) - 1``, and need not sum to 1.  Each is read exactly
    by :func:`deltamachine.values.as_fraction`, whose ``TypeError`` and
    ``ValueError`` name the weight's index; fewer than two weights, a
    negative or all-zero vector, or a k above K raise ``ValueError``.
    Returns sum_i w_i P_k(i) / sum_i w_i in lowest terms, with one
    :func:`transmission_probability_exact` call per nonzero weight.

    At coupling 1, E_i = i / (K - i) has |T(E_i)|^2 = E_i / (1 + E_i) = i / K,
    the k = 1 cell of state i: the paper's energy <-> charge-ratio map.  So
    a wave packet on that lattice is a probability vector over the K + 1
    states, and at k = 1 this is its packet-averaged |T|^2.  For larger k,
    weight only on states 1 <= i < h, h = ceil(k / 2), lies entirely at
    positive energy yet transmits with probability exactly 0, which no 1-D
    potential can do: by the Wronskian argument of :mod:`deltamachine.regimes`,
    |T(E)|^2 > 0 at every E > 0.
    """
    meas = KMeasurement(k)
    exact = [_weight(w, i) for i, w in enumerate(weights)]
    if len(exact) < 2:
        raise ValueError("a mixture needs at least two weights, for K >= 1")
    if not any(exact):
        raise ValueError("the weights must not all be zero")
    K = len(exact) - 1
    mixed = sum(
        w * transmission_probability_exact(ElectricState(i, K - i), meas) for i, w in enumerate(exact) if w
    )
    return mixed / sum(exact)


def _weight(value: object, i: int) -> Fraction:
    """Weight ``i`` read by :func:`~deltamachine.values.as_fraction`, and nonnegative."""
    w = as_fraction(value, f"weight {i}")
    if w < 0:
        raise ValueError(f"weight {i} must be nonnegative, not {value!r}")
    return w


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

    K is checked once, so the states are built by the unchecked bulk maker,
    as the columns K+ = 0..K and K- = K..0.
    """
    K = as_int(K, "K")
    ceiling = as_int(ceiling, "ceiling")
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > ceiling:
        raise ValueError(f"K={K} exceeds the table ceiling {ceiling}")
    return ElectricState._make_all(K + 1, range(K + 1), range(K, -1, -1))


def _row_index(k: object, K: int) -> int:
    """Position of row ``k`` among the rows k = 1..K of a table."""
    k = as_int(k, "k")
    if not 1 <= k <= K:
        raise KeyError(f"no row for k={k} in a K={K} table")
    return k - 1


#: Table cells at and above the determinism threshold, shared by every table.
_CERTAIN = (Fraction(0), Fraction(1))


def _odd_rows(
    states: tuple[ElectricState, ...],
) -> Iterator[tuple[tuple[ElectricState, Fraction], ...]]:
    """The entries of the odd rows k = 1, 3, ... of the table over ``states``.

    ``states`` are the column states K+ = 0..K, and each row is the tuple of
    its K + 1 pairs ``(states[K+], p)``.  Row k = 2h - 1 computes its cells
    K+ = h..K-h as the CDF of the tranche median's slot (see the module
    docstring), P = S / C(K, k) with S = w_h + ... + w_K+.  The cells
    K+ < h are 0 and the cells K+ > K - h are 1: their pairs are the K + 1
    ``(state, 0)`` and K + 1 ``(state, 1)`` pairs built here once and
    shared by every row.  The sums run from w_h = C(K - h, h - 1) up to
    K+ = K/2, stepped by the exact division
    w_{i+1} = w_i i (K - i - h + 1) / ((i - h + 1)(K - i)), and each sum
    gives two pairs in one step: cell K+ and its charge swap (C - S) / C at
    column K - K+.  Both are reduced once, by g = gcd(S, C), which is
    gcd(C - S, C) too, and their two ``Fraction`` slots are set directly,
    with no second normalization.  The live state is one row.
    """
    K = len(states) - 1
    zero, one = _CERTAIN
    zeros = [(state, zero) for state in states]
    ones = [(state, one) for state in states]
    new = object.__new__
    half = K // 2
    for h in range(1, (K + 3) // 2):
        subsets = comb(K, 2 * h - 1)
        weight, count = comb(K - h, h - 1), 0  # w_h and S at K+ = h - 1
        row = zeros[:h] + ones[h:]  # the cells K+ = h..K-h are set below
        for i in range(h, half + 1):
            count += weight
            g = gcd(count, subsets)
            num, den = count // g, subsets // g
            cell = new(Fraction)
            cell._numerator, cell._denominator = num, den
            row[i] = (states[i], cell)
            if i < K - i:  # the balanced column K+ = K - K+ is its own swap
                swap = new(Fraction)
                swap._numerator, swap._denominator = den - num, den
                row[K - i] = (states[K - i], swap)
            weight = weight * (i * (K - i - h + 1)) // ((i - h + 1) * (K - i))
        yield tuple(row)


def probability_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> ProbabilityTable:
    """Full K x (K+1) grid of exact transmission probabilities.

    Rows run over tranche sizes k = 1..K, columns over states K+ = 0..K
    (equivalently over increasing energy label K+/K-).  Entry K+ of a row
    is the pair ``(state, p)``, with one state object per column.  Outside
    the determinism threshold 2 min(K+, K-) + 1, p is ``_CERTAIN[0]`` or
    ``_CERTAIN[1]``, and the pair is one of the K + 1 ``(state, 0)`` and
    K + 1 ``(state, 1)`` pairs built once per table and shared by every row
    that holds it.  :func:`_odd_rows` yields each odd row's whole entries.
    Row k + 1 of an odd k shares row k's entries, the pairwise equality
    P(k + 1) = P(k).  The K rows are made at once by the unchecked bulk
    maker, from the columns k = 1..K and the odd rows' entries, each twice.
    """
    states = _states(K, ceiling)
    K = len(states) - 1
    odd = list(_odd_rows(states))
    rows = ProbabilityTableRow._make_all(K, range(1, K + 1), chain.from_iterable(zip(odd, odd)))
    return ProbabilityTable(K=K, rows=rows)
