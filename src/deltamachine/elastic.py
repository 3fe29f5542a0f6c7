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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import rng
from .ensemble import EnsembleResult, run_counted
from .spheres import as_real


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
        v = np.asarray(state, dtype=np.float64)
        u = np.asarray(axis, dtype=np.float64)
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


def _plus_mask(c: float, eps: float, trial_seeds: np.ndarray) -> np.ndarray:
    """Vectorized trial kernel: break point below the particle pulls it up.

    Draw 0 of the trial stream places the break uniformly on [-eps, eps];
    a break exactly at the particle (measure zero) consumes draw 1 as a
    fair coin, low bit set meaning the +u pole.
    """
    u = rng.unit_doubles(rng.draws_at(trial_seeds, 0))
    breaks = -eps + 2.0 * eps * u
    plus = breaks < c
    tie = breaks == c
    if tie.any():
        coins = rng.draws_at(trial_seeds[tie], 1) & np.uint64(1)
        plus[tie] = coins == 1
    return plus


def simulate_elastic(
    experiment: ElasticExperiment, n_trials: int, seed: int
) -> EnsembleResult:
    """Seeded ensemble of band-breaking trials; counts the +u outcomes.

    Same reproducibility contract as the sphere machine: trial ``i`` owns
    the child stream ``substream_seed(seed, i)``, and the count fills the
    ``transmitted`` slot of the shared result type, which holds no interval.
    """
    c = experiment.cos_theta
    eps = experiment.epsilon
    return run_counted(n_trials, seed, lambda trial_seeds: _plus_mask(c, eps, trial_seeds))
