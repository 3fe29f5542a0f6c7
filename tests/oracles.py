"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: probabilities come
from literal enumeration of every possible first tranche, never from the
closed-form sums under test, rows are classified on ``Fraction`` values
straight from the criteria, never from the determinism threshold the
library's table classifier uses, and single trials run the full scalar shuffle on a separate transcription
of the splitmix64 stream, never the library's truncated array kernels.
The elastic kernel's integer draw bounds are checked against the float
kernel they replaced, on the library's draws (``test_rng`` checks those
against the transcription).
The statistical tests accept a seeded frequency within ``normal_half_width``
of the exact probability.  The ``scatter`` text report is checked against
``scatter_text``, the column formatter it replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from deltamachine import rng


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


def normal_half_width(p: float, n_trials: int, z: float) -> float:
    """Half-width of the normal-approximation interval at level z."""
    return z * math.sqrt(p * (1.0 - p) / n_trials)


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


MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z: int) -> int:
    """Independent transcription of the splitmix64 finalizer constants."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_draw(seed: int, index: int) -> int:
    """Draw ``index`` of the counter-mode stream with ``seed``."""
    return reference_mix(seed + (index + 1) * GOLDEN)


def unit_double(u64: int) -> float:
    """A 64-bit draw as a double in [0, 1), from its top 53 bits."""
    return (u64 >> 11) * 2.0**-53


def coin(u64: int) -> bool:
    """Fair coin: low bit set means the positive outcome."""
    return bool(u64 & 1)


def sphere_trial(k_plus: int, k_minus: int, k: int, seed: int) -> bool:
    """One sphere-machine trial with the full shuffle; True if transmitted.

    Fisher-Yates over all K positions, with draw ``K-1-j`` taken modulo
    ``j + 1`` at position ``j``; the first ``k`` positions are the tranche,
    and a balanced tranche takes the low bit of draw ``K-1``.
    """
    charges = [1] * k_plus + [-1] * k_minus
    total = len(charges)
    for j in range(total - 1, 0, -1):
        r = reference_draw(seed, total - 1 - j) % (j + 1)
        charges[j], charges[r] = charges[r], charges[j]
    charge_sum = sum(charges[:k])
    if charge_sum == 0:
        return coin(reference_draw(seed, total - 1))
    return charge_sum > 0


def elastic_trial(c: float, eps: float, seed: int) -> bool:
    """One breakable-band trial; True if the particle goes to the + pole.

    Draw 0 breaks the band at ``-eps + 2 eps u``; the particle at ``c``
    goes up when the break is below it, and a break exactly at ``c`` takes
    the low bit of draw 1.
    """
    at = -eps + 2.0 * eps * unit_double(reference_draw(seed, 0))
    if at == c:
        return coin(reference_draw(seed, 1))
    return at < c


def elastic_plus_mask(c: float, eps: float, trial_seeds):
    """The float band-breaking kernel that the draw bounds replaced, kept as
    their reference: the break point of every trial as a double."""
    u = (rng.draws_at(trial_seeds, 0) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    breaks = -eps + 2.0 * eps * u
    plus = breaks < c
    tie = breaks == c
    if tie.any():
        coins = rng.draws_at(trial_seeds[tie], 1) & np.uint64(1)
        plus[tie] = coins == 1
    return plus


def scatter_text(coupling: float, rows: list[tuple[float, ...]]) -> str:
    """The ``scatter`` text report: each CSV column in its own format, right-aligned."""
    specs = ("g", ".12g", ".12g", ".12g", ".12g", ".12g", ".12g", ".3g")
    header = ["energy", "T_re", "T_im", "R_re", "R_im", "P_tr", "P_re", "residual"]
    cells = [[format(v, spec) for v, spec in zip(row, specs)] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in cells)) for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return (
        f"delta-potential scattering, coupling = {coupling:g} "
        "(multiples of sqrt(2 hbar^2 / m))\n" + "\n".join(lines) + "\n"
    )
