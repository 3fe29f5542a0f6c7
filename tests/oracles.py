"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: probabilities come
from literal enumeration of every possible first tranche, never from the
closed-form sums under test, and rows are classified on ``Fraction`` values
straight from the criteria, never on the integer counts the library uses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def enumerated_transmission(k_plus: int, k_minus: int, k: int) -> Fraction:
    """Brute-force transmission probability over all C(K, k) first tranches.

    Counts tranches with a strict positive-charge majority, plus half of the
    exactly balanced ones, out of all k-subsets of the K spheres.
    """
    charges = [1] * k_plus + [-1] * k_minus
    doubled = 0  # twice the favorable weight, to stay in integers
    n_subsets = 0
    for subset in combinations(range(len(charges)), k):
        total = sum(charges[i] for i in subset)
        n_subsets += 1
        if total > 0:
            doubled += 2
        elif total == 0:
            doubled += 1
    return Fraction(doubled, 2 * n_subsets)


def born_transmission(k_plus: int, total: int) -> Fraction:
    """Lattice Born value K+/K."""
    return Fraction(k_plus, total)


def cubic_tranche_transmission(k_plus: int, total: int) -> Fraction:
    """Closed form for tranche size 3: K+(K+-1)(3K-2K+-2) / (K(K-1)(K-2))."""
    return Fraction(
        k_plus * (k_plus - 1) * (3 * total - 2 * k_plus - 2),
        total * (total - 1) * (total - 2),
    )


def reference_verdict(
    probabilities: list[Fraction],
) -> tuple[str, list[tuple[str, tuple[int, int] | None]], bool]:
    """Regime of one row, written from the criteria in the regimes docstring.

    ``probabilities[i]`` is the transmission probability of the state
    K+ = i.  Returns the verdict name, the witnesses as (kind name, state
    (K+, K-) or None) in the library's order, and whether a note is due.
    """
    K = len(probabilities) - 1
    fractional = [i for i, p in enumerate(probabilities) if p not in (0, 1)]
    if not fractional:
        return "Classical", [("AllDeterministic", None)], False
    balanced = K // 2
    if (
        K % 2 == 0
        and fractional == [balanced]
        and probabilities[balanced] == Fraction(1, 2)
    ):
        return (
            "ClassicalWithTie",
            [("DeterministicExceptBalancedHalf", (balanced, balanced))],
            False,
        )
    born = [born_transmission(i, K) for i in range(K)] + [Fraction(1)]
    if probabilities == born:
        return "Quantum", [("MatchesBornRule", None)], False
    zeros = [
        ("NonQuantumZeroTransmission", (i, K - i))
        for i in range(1, K + 1)
        if probabilities[i] == 0
    ]
    indeterminate = [("NonClassicalIndeterminism", (i, K - i)) for i in fractional]
    return "Intermediate", zeros + indeterminate, not zeros
