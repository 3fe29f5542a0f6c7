"""Seeded simulation of the breakable-elastic spin measurement.

The model, its closed form and its two value types live in
:mod:`deltamachine.band`, which loads no numpy, so ``epsilon`` without
``--n`` starts without it; this module adds the seeded simulator, and it
imports numpy at the top.

A trial is decided on its raw draw 0, with no float arithmetic per trial.
The break point of a draw whose top 53 bits are ``t`` is
``-eps + 2.0 * eps * (t * 2.0**-53)``.  Every IEEE operation in it rounds
monotonically (the factors are non-negative), so the point never decreases
as ``t`` grows: the draws that break the band below the particle form a
prefix ``[0, below)`` of the 64-bit range, and those that break it exactly at
the particle the adjacent range ``[below, at)``.  :func:`_draw_bounds` finds
both by bisection on that same expression, once per experiment, and the
kernel compares draw 0 with them as an unsigned integer.  Each bound is a
multiple of 2**11 and may equal 2**64, one past the largest draw, which no
``uint64`` holds: ``at = 2**64`` when no break point passes the particle,
and ``below = 2**64`` when every one stays below it.  Bounds of 0 and 0, or
2**64 and 2**64, make every trial's outcome the same, and the simulator
counts it without drawing.
"""

from __future__ import annotations

import numpy as np

from . import rng
# Both names stay importable from this module: bench/workloads.py reads them as ``elastic.*``.
from .band import ElasticExperiment, epsilon_probabilities  # noqa: F401
from .ensemble import EnsembleResult, run_counted

#: Number of 64-bit draws: a bound of ``_DRAWS`` admits every draw.
_DRAWS = 1 << 64
_U64_1 = np.uint64(1)


def _draw_bounds(c: float, eps: float) -> tuple[int, int]:
    """Draw-0 bounds ``(below, at)`` of the particle at ``c``: a draw under
    ``below`` breaks the band below it, a draw in ``[below, at)`` exactly at
    it (see the module docstring)."""

    def first(past) -> int:
        lo, hi = 0, 1 << 53
        while lo < hi:
            mid = (lo + hi) // 2
            if past(-eps + 2.0 * eps * (mid * 2.0**-53)):
                hi = mid
            else:
                lo = mid + 1
        return lo << 11

    return first(lambda point: point >= c), first(lambda point: point > c)


def _plus_mask(below: int, at: int, trial_seeds: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: break point below the particle pulls it up.

    Draw 0 of the trial stream places the break; with the bounds of
    :func:`_draw_bounds`, a draw under ``below`` breaks the band below the
    particle, and a draw in ``[below, at)`` breaks it exactly at the particle
    and consumes draw 1 as a fair coin, low bit set meaning the +u pole.
    """
    draws = rng.draws_at(trial_seeds, 0)
    if below == _DRAWS:
        return np.ones(draws.shape, dtype=bool)
    plus = draws < np.uint64(below)
    if at > below:
        # below <= draw < at, as draw - below < at - below modulo 2**64.
        draws -= np.uint64(below)
        tie = np.flatnonzero(draws <= np.uint64(at - below - 1))
        if tie.size:
            plus[tie] = rng.draws_at(trial_seeds.take(tie), 1) & _U64_1
    return plus


def simulate_elastic(
    experiment: ElasticExperiment, n_trials: int, seed: int
) -> EnsembleResult:
    """Seeded ensemble of band-breaking trials; counts the +u outcomes.

    Same reproducibility contract as the sphere machine: trial ``i`` owns
    the child stream ``substream_seed(seed, i)``, and the count fills the
    ``transmitted`` slot of the shared result type, which holds no interval.
    When no draw breaks the band at or below the particle, or every draw
    breaks it below, the count is known without drawing.
    """
    below, at = _draw_bounds(experiment.cos_theta, experiment.epsilon)
    if at == 0 or below == _DRAWS:
        return run_counted(n_trials, seed, below == _DRAWS)
    return run_counted(n_trials, seed, lambda trial_seeds: _plus_mask(below, at, trial_seeds))
