"""Exact transmission/reflection probabilities for the charged-sphere machine.

The entity under study is a cluster of ``K`` tiny spheres, each carrying unit
charge +1 or -1.  A measurement of tranche size ``k`` releases the spheres in
uniformly random order and routes the whole cluster right ("transmitted") or
left ("reflected") according to the sign of the total charge of the first
tranche of ``k`` spheres; an exactly balanced tranche (possible only for even
``k``) tips either way with probability 1/2.

All probabilities here are exact rationals: counting k-subsets by charge
composition gives a hypergeometric sum over binomial coefficients, evaluated
with arbitrary-precision integers.  Floats never enter; rendering a value as
a decimal is presentation-side only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

#: Exact probability values are reduced rationals in [0, 1]; the stdlib
#: ``Fraction`` already guarantees lowest terms and a positive denominator.
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


def choose(n: int, r: int) -> int:
    """Binomial coefficient C(n, r), defined as 0 outside 0 <= r <= n.

    The out-of-range convention lets the tranche-counting sums run over a
    fixed index range without special-casing states that are short of one
    charge species.
    """
    if r < 0 or r > n:
        return 0
    return comb(n, r)


@dataclass(frozen=True)
class ElectricState:
    """Prepared charge state of the cluster: counts of +1 and -1 spheres.

    The energy-like label of the state is the exact pair
    ``(k_plus, k_minus)`` — conceptually the ratio ``k_plus / k_minus``, with
    ``k_minus == 0`` playing the role of infinite energy.  It is deliberately
    never stored as a float.
    """

    k_plus: int
    k_minus: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_plus", as_int(self.k_plus, "sphere counts"))
        object.__setattr__(self, "k_minus", as_int(self.k_minus, "sphere counts"))
        if self.k_plus < 0 or self.k_minus < 0:
            raise ValueError("sphere counts must be nonnegative")
        if self.k_plus + self.k_minus < 1:
            raise ValueError("the cluster must contain at least one sphere")

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


@dataclass(frozen=True)
class KMeasurement:
    """A measurement that releases spheres in tranches of size ``k``."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", as_int(self.k, "tranche size"))
        if self.k < 1:
            raise ValueError("tranche size must be at least 1")


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
    exactly balanced tranche resolved by a fair coin.
    """
    _require_valid(state, meas)
    kp, km, k = state.k_plus, state.k_minus, meas.k
    total = state.total
    majority = sum(choose(kp, k - m) * choose(km, m) for m in range((k + 1) // 2))
    tie = choose(kp, k // 2) * choose(km, k // 2) if k % 2 == 0 else 0
    return Fraction(2 * majority + tie, 2 * choose(total, k))


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


@dataclass(frozen=True)
class ProbabilityTableRow:
    """One table row: fixed tranche size ``k``, states K+ = 0..K in order."""

    k: int
    entries: tuple[tuple[ElectricState, ExactProbability], ...]

    @property
    def total(self) -> int:
        return self.entries[0][0].total

    def probabilities(self) -> tuple[ExactProbability, ...]:
        return tuple(p for _, p in self.entries)


@dataclass(frozen=True)
class ProbabilityTable:
    """Exact transmission probabilities for every (k, state) of a size-K cluster."""

    K: int
    rows: tuple[ProbabilityTableRow, ...]

    def row(self, k: int) -> ProbabilityTableRow:
        if not 1 <= k <= self.K:
            raise KeyError(f"no row for k={k} in a K={self.K} table")
        return self.rows[k - 1]

    def value(self, k: int, k_plus: int) -> ExactProbability:
        row = self.row(k)
        if not 0 <= k_plus <= self.K:
            raise KeyError(f"no column for k_plus={k_plus} in a K={self.K} table")
        return row.entries[k_plus][1]


def probability_table(
    K: int, *, ceiling: int = DEFAULT_TABLE_CEILING
) -> ProbabilityTable:
    """Full K x (K+1) grid of exact transmission probabilities.

    Rows run over tranche sizes k = 1..K, columns over states K+ = 0..K
    (equivalently over increasing energy label K+/K-).
    """
    if not isinstance(K, int):
        raise TypeError("K must be an integer")
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > ceiling:
        raise ValueError(f"K={K} exceeds the table ceiling {ceiling}")
    states = tuple(ElectricState(i, K - i) for i in range(K + 1))
    rows = []
    for k in range(1, K + 1):
        meas = KMeasurement(k)
        entries = tuple(
            (s, transmission_probability_exact(s, meas)) for s in states
        )
        rows.append(ProbabilityTableRow(k=k, entries=entries))
    return ProbabilityTable(K=K, rows=tuple(rows))
