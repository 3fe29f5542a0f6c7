"""The report's interval around every ensemble frequency.

Ensembles return counts only; ``serialize.ensemble_payload`` adds the Wilson
score interval at level ``z`` (Wilson, JASA 1927; Brown, Cai & DasGupta,
Statistical Science 2001).  Unlike the normal approximation it lies in
[0, 1] by construction and keeps a nonzero width when every trial agrees.
The command line's ``--z`` default lives here too.

The interval is a report, not a certificate.  At z = 3 its nominal coverage
is 0.9973, but its exact binomial coverage is lower at some p: over the
fractional cells of the tables with K <= 12 it falls to 0.9922 at n = 50
(p = 7/99 and its complement 92/99) and to 0.9942 at n = 100, and at
p = 1/201 (the cell K+ = 1, k = 1 of K = 201) with n = 50 to 0.9741
(computed with ``scipy.stats.binom``; ``test_interval`` pins the n = 50
minimum).  A certificate drawn from counts must use Hoeffding or
Clopper-Pearson bounds, never these.
"""

from __future__ import annotations

import math

from .values import as_int, as_real

#: Default level ``z`` of the interval.
DEFAULT_Z = 3.0


def wilson_interval(transmitted: int, n_trials: int, z: float) -> tuple[float, float]:
    """``(lower, upper)`` of the Wilson score interval at level ``z``.

    The bounds are ``(x + z²/2 ± z·sqrt(x(n−x)/n + z²/4)) / (n + z²)`` for
    ``x`` of ``n`` trials, scaled by ``1/z²`` where ``z² > n``.  Every finite
    ``z >= 0`` gives finite bounds with ``0 <= lower <= x/n <= upper <= 1``
    (``[x/n, x/n]`` at ``z`` = 0); any other real ``z`` raises ``ValueError``,
    and a ``bool``, ``str`` or ``bytes`` one ``TypeError``.  Both counts are
    integers (a ``bool``, float or ``str`` raises ``TypeError``) with
    ``n >= 1`` and ``0 <= x <= n``, else ``ValueError``.
    """
    x, n = as_int(transmitted, "transmitted"), as_int(n_trials, "n_trials")
    z = as_real(z, "z")
    if n < 1:
        raise ValueError(f"n_trials must be at least 1, got {n}")
    if not 0 <= x <= n:
        raise ValueError(f"transmitted must lie in [0, n_trials = {n}], got {x}")
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"z must be a nonnegative finite real, got {z!r}")
    variance = x * (n - x) / n  # n p(1 - p), exact integers rounded once
    z2 = z * z
    if z2 <= n:
        centre, spread, total = x + z2 / 2, z * math.sqrt(variance + z2 / 4), n + z2
    else:  # 1/z² is 0 where z² overflows, and the bounds reach 0 and 1
        w = 1.0 / z2
        centre, spread, total = x * w + 0.5, math.sqrt(variance * w + 0.25), n * w + 1.0
    p = x / n
    return min(max((centre - spread) / total, 0.0), p), max(min((centre + spread) / total, 1.0), p)
