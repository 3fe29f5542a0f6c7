"""Analytic 1-D quantum scattering by a Dirac delta potential.

Solving the stationary Schroedinger equation with potential
``V(x) = lambda * delta(x)`` and a wave incoming from the left gives the
closed-form amplitudes

    T(E) = i*kappa / (i*kappa - 1),      R(E) = 1 / (i*kappa - 1),

with ``kappa = sqrt(2 hbar^2 E / m) / lambda``.  Internally we work in units
``hbar = m = 1`` and express the coupling as a dimensionless multiple of the
normalization constant ``c = sqrt(2 hbar^2 / m)``, so that the default
coupling 1 gives ``kappa = sqrt(E)`` and the transmission probability the
simple form ``E / (1 + E)``.  One rule admits an energy: finite and
nonnegative (-0.0 counts as 0.0) with a finite ``kappa^2``; the array form
checks it at the extremes of its energies.

The wave-packet operation integrates ``|T(E)|^2`` against a user-supplied
energy density on a grid with the trapezoidal rule; the sharply peaked limit
recovers the fixed-energy probability.

The scalar functions use only ``math`` and ``complex``; numpy is imported by
the array code alone (:func:`transmission_curve`, :class:`WavePacket` and
:func:`wavepacket_transmission`), so scalar callers never load it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .values import as_int, as_real, as_real_array, value_type

if TYPE_CHECKING:
    import numpy as np

#: Identity tolerance for the closed-form amplitude relations (unitarity,
#: continuity, derivative jump).  Double precision leaves ~3 orders of margin.
IDENTITY_TOL = 1e-12

#: Acceptable deviation of a packet's weight integral from 1 at use time.
PACKET_NORM_TOL = 1e-6


@value_type
class ScatteringConfig:
    """Delta-potential coupling, as a multiple of ``sqrt(2 hbar^2 / m)``.

    With coupling ``g`` the wave-number ratio is ``kappa = sqrt(E) / g``; the
    default ``g = 1`` is the normalized convention used throughout the
    machine-to-scattering correspondence.
    """

    __slots__ = ("coupling",)
    coupling: float

    def __init__(self, coupling: float = 1.0) -> None:
        c = as_real(coupling, "coupling")
        if not math.isfinite(c) or c <= 0.0:
            raise ValueError("coupling must be a positive finite real")
        # kappa^2 = E / coupling^2: a square that underflows divides by zero,
        # and one that overflows zeroes kappa at every energy.
        if not sys.float_info.min <= c * c <= sys.float_info.max:
            raise ValueError(
                f"coupling {c!r} is out of range: its square must be a normal, "
                "finite double"
            )
        object.__setattr__(self, "coupling", c)


DEFAULT_CONFIG = ScatteringConfig()


@value_type
class ScatteringAmplitudes:
    """Complex transmission/reflection amplitudes at one energy."""

    __slots__ = ("transmission", "reflection", "energy")
    transmission: complex
    reflection: complex
    energy: float

    def __init__(self, transmission: complex, reflection: complex, energy: float) -> None:
        object.__setattr__(self, "transmission", transmission)
        object.__setattr__(self, "reflection", reflection)
        object.__setattr__(self, "energy", energy)


def _kappa_squared(energy: float, config: ScatteringConfig) -> tuple[float, float]:
    """``(E, kappa^2)``; E must be finite and nonnegative, and kappa^2 finite."""
    e = energy if type(energy) is float else as_real(energy, "energy")
    if not math.isfinite(e):
        raise ValueError("energy must be finite")
    if e < 0.0:
        raise ValueError("energy must be nonnegative")
    e = e or 0.0  # -0.0 becomes 0.0, so no result carries a minus sign
    k2 = e / (config.coupling * config.coupling)
    if not math.isfinite(k2):
        raise ValueError(
            f"energy {e!r} is out of range for coupling {config.coupling!r}: "
            "kappa^2 = E / coupling^2 overflows"
        )
    return e, k2


def amplitudes(
    energy: float, config: ScatteringConfig = DEFAULT_CONFIG
) -> ScatteringAmplitudes:
    """T and R at the given energy; satisfies 1 + R = T by construction."""
    e, k2 = _kappa_squared(energy, config)
    kappa = math.sqrt(k2)
    denom = complex(-1.0, kappa)
    return ScatteringAmplitudes(
        transmission=complex(0.0, kappa) / denom,
        reflection=1.0 / denom,
        energy=e,
    )


def transmission_probability(
    energy: float, config: ScatteringConfig = DEFAULT_CONFIG
) -> float:
    """|T(E)|^2 = kappa^2 / (1 + kappa^2); equals E/(1+E) at default coupling."""
    _, k2 = _kappa_squared(energy, config)
    return k2 / (1.0 + k2)


def reflection_probability(
    energy: float, config: ScatteringConfig = DEFAULT_CONFIG
) -> float:
    """|R(E)|^2 = 1 / (1 + kappa^2); equals 1/(1+E) at default coupling."""
    _, k2 = _kappa_squared(energy, config)
    return 1.0 / (1.0 + k2)


def transmission_curve(
    energies: np.ndarray, config: ScatteringConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Vectorized |T(E)|^2 over an array of nonnegative energies.

    Each element equals :func:`transmission_probability` at that energy,
    bit for bit: both evaluate the same IEEE operations.  The one energy
    rule is checked at the extremes, with the scalar functions' errors.
    """
    e = as_real_array(energies, "energies") + 0.0  # -0.0 becomes 0.0
    if e.size:
        # NaN reaches both, +-inf and negatives one, and kappa^2 grows with E
        _kappa_squared(e.min(), config)
        _kappa_squared(e.max(), config)
    k2 = e / (config.coupling * config.coupling)
    return k2 / (1.0 + k2)


def jump_condition_residual(
    energy: float, config: ScatteringConfig = DEFAULT_CONFIG
) -> float:
    """Self-check of the derivative jump imposed by the delta potential.

    Returns ``|i k (R - 1) - (2 m lambda / hbar^2 - i k) T|`` evaluated from
    the computed amplitudes, in units hbar = m = 1 (so the wave number is
    ``k = sqrt(2 E)`` and the physical coupling is ``coupling * sqrt(2)``).
    Zero analytically; below :data:`IDENTITY_TOL` in double precision.
    Raises ``ValueError`` where ``2 E`` overflows.
    """
    return _jump_residual(amplitudes(energy, config), config)


def _jump_residual(amp: ScatteringAmplitudes, config: ScatteringConfig) -> float:
    """The jump residual of amplitudes already computed at ``config``."""
    two_e = 2.0 * amp.energy
    if not math.isfinite(two_e):
        raise ValueError(
            f"energy {amp.energy!r} is out of range: k^2 = 2 E overflows"
        )
    k_wave = math.sqrt(two_e)
    lam = config.coupling * math.sqrt(2.0)
    residual = (
        complex(0.0, k_wave) * (amp.reflection - 1.0)
        - (2.0 * lam - complex(0.0, k_wave)) * amp.transmission
    )
    return abs(residual)


class WavePacket:
    """Energy density |phi(E)|^2 sampled on a strictly increasing grid.

    The density is interpreted under the trapezoidal rule; helpers construct
    normalized packets, and the transmission operation refuses packets whose
    weight integral strays from 1 by more than :data:`PACKET_NORM_TOL`.
    A single-point grid is treated as a point mass (the monoenergetic limit).
    """

    def __init__(self, energies, weights) -> None:
        import numpy as np

        e = as_real_array(energies, "energies")
        w = as_real_array(weights, "weights")
        if e.ndim != 1 or w.ndim != 1 or e.size != w.size or e.size == 0:
            raise ValueError("energies and weights must be equal-length 1-D arrays")
        if not np.all(np.isfinite(e)) or not np.all(np.isfinite(w)):
            raise ValueError("energies and weights must be finite")
        if e[0] < 0.0:
            raise ValueError("energies must be nonnegative")
        if e.size > 1 and not np.all(np.diff(e) > 0.0):
            raise ValueError("energy grid must be strictly increasing")
        if w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        e.flags.writeable = False
        w.flags.writeable = False
        self.energies = e
        self.weights = w

    def weight_integral(self) -> float:
        """Trapezoidal integral of the weights (the weight itself for a point mass)."""
        import numpy as np

        if self.energies.size == 1:
            return float(self.weights[0])
        return float(np.trapezoid(self.weights, self.energies))

    def normalized(self) -> "WavePacket":
        """Copy rescaled so the weight integral is exactly 1."""
        total = self.weight_integral()
        if total <= 0.0:
            raise ValueError("cannot normalize a packet with zero total weight")
        return WavePacket(self.energies, self.weights / total)

    @classmethod
    def gaussian(
        cls,
        center: float,
        width: float,
        *,
        n_points: int = 2001,
        span: float = 6.0,
    ) -> "WavePacket":
        """Normalized Gaussian density of the given width, clipped to E >= 0.

        The grid holds ``n_points`` (an integer >= 2) energies over
        ``center ± span * width`` (``span`` a positive finite real).
        """
        center, width = as_real(center, "center"), as_real(width, "width")
        if not (math.isfinite(center) and center >= 0.0):
            raise ValueError("center must be a nonnegative finite real")
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError("width must be a positive finite real")
        n_points = as_int(n_points, "n_points")
        if n_points < 2:
            raise ValueError("n_points must be at least 2")
        span = as_real(span, "span")
        if not (math.isfinite(span) and span > 0.0):
            raise ValueError("span must be a positive finite real")
        import numpy as np

        lo = max(0.0, center - span * width)
        hi = center + span * width
        grid = np.linspace(lo, hi, n_points)
        dens = np.exp(-0.5 * ((grid - center) / width) ** 2)
        return cls(grid, dens).normalized()


def wavepacket_transmission(
    packet: WavePacket, config: ScatteringConfig = DEFAULT_CONFIG
) -> float:
    """Packet-averaged transmission: trapezoidal integral of |T|^2 |phi|^2."""
    import numpy as np

    total = packet.weight_integral()
    if abs(total - 1.0) > PACKET_NORM_TOL:
        raise ValueError(
            f"packet is not normalized: weight integral {total!r} deviates "
            f"from 1 by more than {PACKET_NORM_TOL}"
        )
    curve = transmission_curve(packet.energies, config)
    if packet.energies.size == 1:
        value = float(packet.weights[0] * curve[0])
    else:
        value = float(np.trapezoid(curve * packet.weights, packet.energies))
    return min(1.0, max(0.0, value))
