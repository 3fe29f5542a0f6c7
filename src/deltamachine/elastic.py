"""Spin measurement via a breakable elastic band, and its closed forms.

The entity is a point particle on the unit sphere; measuring along axis
``u`` strips an elastic between the poles ``+u`` and ``-u``, drops the
particle orthogonally onto it (landing at coordinate ``c = cos(theta)`` on
the band, which spans [-1, 1]), and waits for the band to break.  Only the
central segment ``[-eps, eps]`` is breakable, uniformly; the particle is
pulled to the pole held by its fragment.

Closed form, with ``c = cos(theta)``::

    c >= eps            -> (1, 0)             particle on the unbreakable top
    c <= -eps           -> (0, 1)             particle on the unbreakable bottom
    -eps < c < eps      -> ((eps + c) / (2 eps), (eps - c) / (2 eps))

``eps = 1`` reproduces the ideal-spin probabilities ``cos^2(theta/2)`` /
``sin^2(theta/2)``; ``eps = 0`` is the deterministic sign rule, with the
``c = 0`` knife-edge resolved as a fair (1/2, 1/2) split, mirroring the
sphere machine's balanced-tranche convention.

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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng
from .ensemble import EnsembleResult, run_counted
from .spheres import as_real, as_real_array


@dataclass(frozen=True)
class ElasticExperiment:
    """Measurement angle theta in [0, pi] and breakable fraction eps in [0, 1].

    ``projection`` optionally pins the landing coordinate exactly (useful
    when the experiment is built from vectors, whose dot product can be an
    exact 0 that ``cos(acos(0))`` would not round-trip); otherwise the
    coordinate is ``cos(theta)``.
    """

    theta: float
    epsilon: float
    projection: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        t = as_real(self.theta, "theta")
        e = as_real(self.epsilon, "epsilon")
        if not math.isfinite(t) or not 0.0 <= t <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(e) or not 0.0 <= e <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        object.__setattr__(self, "theta", t + 0.0)  # -0.0 becomes 0.0
        object.__setattr__(self, "epsilon", e + 0.0)
        if self.projection is not None:
            c = as_real(self.projection, "projection")
            if not math.isfinite(c) or not -1.0 <= c <= 1.0:
                raise ValueError("projection must lie in [-1, 1]")
            object.__setattr__(self, "projection", c + 0.0)

    @property
    def cos_theta(self) -> float:
        """Landing coordinate of the particle on the band."""
        if self.projection is not None:
            return self.projection
        return math.cos(self.theta)

    @classmethod
    def from_vectors(
        cls, state: Sequence[float], axis: Sequence[float], epsilon: float
    ) -> "ElasticExperiment":
        """Reduce full 3-D unit vectors to the angle between them.

        The exact normalized dot product is kept as the landing coordinate.
        Each vector is first divided by its largest absolute component, so
        the norms neither overflow nor underflow.
        """
        v, u = as_real_array(state, "state"), as_real_array(axis, "axis")
        if v.shape != (3,) or u.shape != (3,):
            raise ValueError("state and axis must be 3-vectors")
        if not (np.isfinite(v).all() and np.isfinite(u).all()):
            raise ValueError("state and axis must have finite components")
        sv = float(np.abs(v).max())
        su = float(np.abs(u).max())
        if sv == 0.0 or su == 0.0:
            raise ValueError("state and axis must be nonzero vectors")
        v = v / sv
        u = u / su
        nv = float(np.linalg.norm(v))
        nu = float(np.linalg.norm(u))
        c = max(-1.0, min(1.0, float(np.dot(v, u) / (nv * nu))))
        return cls(theta=math.acos(c), epsilon=epsilon, projection=c)


@dataclass(frozen=True)
class OutcomePair:
    """Probabilities of the two poles; sums to 1 within float rounding."""

    p_plus: float
    p_minus: float


def quantum_spin_probabilities(theta: float) -> OutcomePair:
    """Ideal-spin outcome probabilities ((1 + cos t)/2, (1 - cos t)/2)."""
    t = as_real(theta, "theta")
    if not math.isfinite(t) or not 0.0 <= t <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    c = math.cos(t)
    return OutcomePair(p_plus=0.5 * (1.0 + c), p_minus=0.5 * (1.0 - c))


def epsilon_probabilities(experiment: ElasticExperiment) -> OutcomePair:
    """Closed-form outcome probabilities of the breakable-band measurement."""
    c = experiment.cos_theta
    eps = experiment.epsilon
    if eps == 0.0:
        # Singular case handled without division: sign rule with a fair tie.
        if c > 0.0:
            return OutcomePair(1.0, 0.0)
        if c < 0.0:
            return OutcomePair(0.0, 1.0)
        return OutcomePair(0.5, 0.5)
    if c >= eps:
        return OutcomePair(1.0, 0.0)
    if c <= -eps:
        return OutcomePair(0.0, 1.0)
    return OutcomePair(
        p_plus=(eps + c) / (2.0 * eps),
        p_minus=(eps - c) / (2.0 * eps),
    )


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
