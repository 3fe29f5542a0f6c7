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
nonnegative (``values.as_real`` reads -0.0 as 0.0) with a finite
``kappa^2``.  :func:`scatter_row` gives one point's amplitudes,
probabilities and jump residual from a single :func:`amplitudes` call, each
equal to its own function's value.

At coupling 1, ``|T(E_i)|^2 = i / K`` at E_i = i / (K - i): a wave packet on
that lattice is a mixed state of the K-sphere machine, whose exact
transmission is :func:`deltamachine.spheres.mixed_transmission`.

The functions use only ``math`` and ``complex``.  A curve is the pointwise
list ``[transmission_probability(e, config) for e in energies]``.
"""

from __future__ import annotations

import math
import sys

from .values import as_real, value_type

#: Identity tolerance for the closed-form amplitude relations (unitarity,
#: continuity, derivative jump).  Double precision leaves ~3 orders of margin.
IDENTITY_TOL = 1e-12


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
    e = as_real(energy, "energy")
    if not math.isfinite(e):
        raise ValueError("energy must be finite")
    if e < 0.0:
        raise ValueError("energy must be nonnegative")
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


def scatter_row(amp: ScatteringAmplitudes, config: ScatteringConfig) -> tuple[float, ...]:
    """The values of one scatter point, from amplitudes computed at ``config``.

    ``(E, Re T, Im T, Re R, Im R, |T|^2, |R|^2, jump residual)``: each equals
    its library function at ``amp.energy`` bit for bit, since each is that
    function's operations on the same E, kappa^2 and amplitudes.  Raises
    ``ValueError`` where ``2 E`` overflows.
    """
    k2 = amp.energy / (config.coupling * config.coupling)
    t, r = amp.transmission, amp.reflection
    return (
        amp.energy, t.real, t.imag, r.real, r.imag,
        k2 / (1.0 + k2), 1.0 / (1.0 + k2), _jump_residual(amp, config),
    )


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
