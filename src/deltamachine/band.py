"""Spin measurement via a breakable elastic band: the model and its closed form.

This is Aerts' ε-model (J. Math. Phys. 27, 202 (1986)).  The entity is a
point particle on the unit sphere; measuring along axis ``u`` strips an
elastic between the poles ``+u`` and ``-u``, drops the particle orthogonally
onto it (landing at coordinate ``c = cos(theta)`` on the band, which spans
[-1, 1]), and waits for the band to break.  Only the central segment
``[-eps, eps]`` is breakable, uniformly; the particle is pulled to the pole
held by its fragment.

Closed form, with ``c = cos(theta)``::

    c >= eps            -> (1, 0)             particle on the unbreakable top
    c <= -eps           -> (0, 1)             particle on the unbreakable bottom
    -eps < c < eps      -> ((eps + c) / (2 eps), (eps - c) / (2 eps))

``eps = 1`` reproduces the ideal-spin probabilities ``cos^2(theta/2)`` /
``sin^2(theta/2)``, so :func:`quantum_spin_probabilities` is that band,
with its checks and its arithmetic.  ``eps = 0`` is the deterministic sign
rule, with the ``c = 0`` knife-edge resolved as a fair (1/2, 1/2) split,
mirroring the sphere machine's balanced-tranche convention.

The module imports no numpy and loads none at run time:
:meth:`ElasticExperiment.from_vectors` reads each component with
:func:`deltamachine.values.as_real`.  The seeded simulator lives in
:mod:`deltamachine.elastic`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .values import as_real, value_type


@value_type
class ElasticExperiment:
    """Measurement angle theta in [0, pi] and breakable fraction eps in [0, 1].

    ``projection`` optionally pins the landing coordinate exactly (useful
    when the experiment is built from vectors, whose dot product can be an
    exact 0 that ``cos(acos(0))`` would not round-trip); otherwise the
    coordinate is ``cos(theta)``.
    """

    __slots__ = ("theta", "epsilon", "projection")
    theta: float
    epsilon: float
    projection: float | None

    def __init__(self, theta: float, epsilon: float, projection: float | None = None) -> None:
        t = as_real(theta, "theta")
        e = as_real(epsilon, "epsilon")
        if not math.isfinite(t) or not 0.0 <= t <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not math.isfinite(e) or not 0.0 <= e <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if projection is not None:
            projection = as_real(projection, "projection")
            if not math.isfinite(projection) or not -1.0 <= projection <= 1.0:
                raise ValueError("projection must lie in [-1, 1]")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "epsilon", e)
        object.__setattr__(self, "projection", projection)

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

        The normalized dot product is kept as the landing coordinate.  Each
        vector is first divided by its largest absolute component, so the
        norms neither overflow nor underflow.  Each norm is the square root
        of the ``math.fsum`` of its squares, and the dot product the
        ``math.fsum`` of the products: a correctly rounded formula, with no
        BLAS kernel chosen at run time, so the coordinate is the same on
        every machine.
        """
        v, u = _components(state, "state"), _components(axis, "axis")
        if not all(map(math.isfinite, v + u)):
            raise ValueError("state and axis must have finite components")
        sv = max(map(abs, v))
        su = max(map(abs, u))
        if sv == 0.0 or su == 0.0:
            raise ValueError("state and axis must be nonzero vectors")
        v = [x / sv for x in v]
        u = [x / su for x in u]
        nv = math.sqrt(math.fsum(x * x for x in v))
        nu = math.sqrt(math.fsum(x * x for x in u))
        c = max(-1.0, min(1.0, math.fsum(a * b for a, b in zip(v, u, strict=True)) / (nv * nu)))
        return cls(theta=math.acos(c), epsilon=epsilon, projection=c)


def _components(vector: Sequence[float], what: str) -> list[float]:
    """The three components of ``vector``, each read by :func:`as_real`.

    Anything but a sequence of three scalars, a component that is itself a
    list, a tuple or an array included, raises ``ValueError``; a ``str`` or
    ``bytes`` vector, or a component that ``as_real`` refuses (a str, bytes,
    bool or ``None``), raises ``TypeError`` naming ``what``.
    """
    if isinstance(vector, (str, bytes, bytearray)):
        raise TypeError(f"{what} must be a vector of real numbers, not {type(vector).__name__}")
    try:
        components = [vector[0], vector[1], vector[2]] if len(vector) == 3 else []
    except (TypeError, LookupError):  # a scalar, a 0-d array, an iterator, a set, ...
        components = []
    if not components or any(isinstance(x, (list, tuple)) or getattr(x, "ndim", 0) for x in components):
        raise ValueError("state and axis must be 3-vectors")
    return [as_real(x, what) for x in components]


@value_type
class OutcomePair:
    """Probabilities of the two poles; sums to 1 within float rounding."""

    __slots__ = ("p_plus", "p_minus")
    p_plus: float
    p_minus: float

    def __init__(self, p_plus: float, p_minus: float) -> None:
        object.__setattr__(self, "p_plus", p_plus)
        object.__setattr__(self, "p_minus", p_minus)


def quantum_spin_probabilities(theta: float) -> OutcomePair:
    """Ideal-spin outcome probabilities ((1 + cos t)/2, (1 - cos t)/2): the eps = 1 band."""
    return epsilon_probabilities(ElasticExperiment(theta, 1.0))


def epsilon_probabilities(experiment: ElasticExperiment) -> OutcomePair:
    """Closed-form outcome probabilities of the breakable-band measurement."""
    c = experiment.cos_theta
    eps = experiment.epsilon
    if c == 0.0 and eps == 0.0:
        # The knife edge of the sign rule: a fair tie.  Every other c meets
        # one of the two comparisons below at eps = 0, so the division is
        # never reached there.
        return OutcomePair(0.5, 0.5)
    if c >= eps:
        return OutcomePair(1.0, 0.0)
    if c <= -eps:
        return OutcomePair(0.0, 1.0)
    return OutcomePair(
        p_plus=(eps + c) / (2.0 * eps),
        p_minus=(eps - c) / (2.0 * eps),
    )
