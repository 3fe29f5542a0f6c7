"""Delta-potential amplitudes, identities, and wave-packet quadrature."""

import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from deltamachine.scattering import (
    IDENTITY_TOL,
    PACKET_NORM_TOL,
    ScatteringConfig,
    WavePacket,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_curve,
    transmission_probability,
    wavepacket_transmission,
)

ENERGY_SWEEP = np.linspace(1e-3, 100.0, 1000)

#: ``WavePacket.gaussian``'s error for a packet it cannot build names all
#: four parameters.
NO_PACKET = "^no packet from center=.*, width=.*, n_points=.*, span=.*: "

#: Reals the wave-packet sweeps draw: special values, log-uniform over the
#: double range, or uniform on [0, 100].
_SWEEP_SPECIALS = (0.0, 5e-324, 1e-310, 2.3e-308, 1e308, sys.float_info.max)


def _sweep_value(rnd: random.Random) -> float:
    kind = rnd.randrange(3)
    if kind == 0:
        return rnd.choice(_SWEEP_SPECIALS)
    if kind == 1:
        return 10.0 ** rnd.uniform(-320.0, 308.0)
    return rnd.uniform(0.0, 100.0)


class TestAmplitudes:
    def test_negative_zero_energy_is_positive_zero(self):
        assert math.copysign(1.0, transmission_probability(-0.0)) == 1.0
        assert math.copysign(1.0, amplitudes(-0.0).energy) == 1.0
        assert amplitudes(-0.0) == amplitudes(0.0)
        curve = transmission_curve([-0.0, 0.0])
        pointwise = [transmission_probability(e) for e in (-0.0, 0.0)]
        assert [(v, math.copysign(1.0, v)) for v in curve.tolist()] == [
            (v, math.copysign(1.0, v)) for v in pointwise
        ]

    @pytest.mark.parametrize("energy", ["4", b"4", True])
    def test_rejects_non_real_energy(self, energy):
        for function in (amplitudes, transmission_probability, reflection_probability):
            with pytest.raises(TypeError, match="energy must be a real number"):
                function(energy)

    @pytest.mark.parametrize("energy", [np.True_, np.array(True)])
    def test_rejects_numpy_bool_energy(self, energy):
        with pytest.raises(TypeError, match="energy must be a real number"):
            transmission_probability(energy)

    @pytest.mark.parametrize(
        "energies", [["4", "1"], [1, "4"], [b"4"], [True, False], np.array([1j])]
    )
    def test_curve_rejects_non_real_entries(self, energies):
        with pytest.raises(TypeError, match="energies must be real numbers"):
            transmission_curve(energies)

    @pytest.mark.parametrize("entries", [["4", 1], [1, b"4"], [True], [1.0, np.True_]])
    def test_curve_rejects_non_real_object_entries(self, entries):
        with pytest.raises(TypeError, match="energies must be a real number"):
            transmission_curve(np.array(entries, dtype=object))

    @pytest.mark.parametrize("entries", [[1, True], [1.0, np.True_], (0.5, True)])
    def test_curve_rejects_bools_that_numpy_would_convert(self, entries):
        # np.asarray turns these into int64 or float64; each entry is checked first.
        with pytest.raises(TypeError, match="energies must be a real number, not bool"):
            transmission_curve(entries)

    def test_curve_takes_object_arrays_of_reals(self):
        curve = transmission_curve(np.array([4.0, 1], dtype=object))
        assert curve.dtype == np.float64 and curve.tolist() == [0.8, 0.5]

    def test_int_and_numpy_energies_equal_floats(self):
        assert amplitudes(4) == amplitudes(np.float64(4.0)) == amplitudes(4.0)
        assert transmission_probability(np.float32(0.5)) == transmission_probability(0.5)

    @pytest.mark.parametrize("coupling", [True, "1.5", b"1.5"])
    def test_rejects_non_real_coupling(self, coupling):
        with pytest.raises(TypeError, match="coupling must be a real number"):
            ScatteringConfig(coupling=coupling)

    def test_zero_energy_totally_reflects_with_phase_flip(self):
        amp = amplitudes(0.0)
        assert amp.transmission == 0
        assert amp.reflection == -1

    def test_unit_energy_half_transmits(self):
        amp = amplitudes(1.0)
        assert abs(abs(amp.transmission) ** 2 - 0.5) < IDENTITY_TOL

    def test_continuity_relation_sweep(self):
        for e in ENERGY_SWEEP:
            amp = amplitudes(e)
            assert abs(1 + amp.reflection - amp.transmission) < IDENTITY_TOL

    def test_unitarity_sweep(self):
        for e in ENERGY_SWEEP:
            amp = amplitudes(e)
            total = abs(amp.transmission) ** 2 + abs(amp.reflection) ** 2
            assert abs(total - 1.0) < IDENTITY_TOL

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            amplitudes(-1.0)
        with pytest.raises(ValueError):
            amplitudes(float("nan"))
        with pytest.raises(ValueError):
            ScatteringConfig(coupling=0.0)
        with pytest.raises(ValueError):
            ScatteringConfig(coupling=-2.0)
        with pytest.raises(ValueError):
            ScatteringConfig(coupling=float("inf"))

    @pytest.mark.parametrize("coupling", [1e-200, 1e-160, 1e200])
    def test_rejects_coupling_whose_square_is_not_normal(self, coupling):
        # 1e-200 squares to 0, 1e-160 to a subnormal, 1e200 to inf.
        with pytest.raises(ValueError, match="coupling"):
            ScatteringConfig(coupling=coupling)

    def test_extreme_couplings_with_normal_squares_are_accepted(self):
        for coupling in (1e-153, 1e153):
            config = ScatteringConfig(coupling=coupling)
            assert jump_condition_residual(1.0, config) < IDENTITY_TOL

    @pytest.mark.parametrize(
        "evaluate",
        [
            amplitudes,
            transmission_probability,
            reflection_probability,
            jump_condition_residual,
            lambda e, config: transmission_curve(np.array([0.0, e]), config),
        ],
    )
    def test_kappa_squared_overflow_raises(self, evaluate):
        config = ScatteringConfig(coupling=1e-10)
        with pytest.raises(ValueError, match="kappa"):
            evaluate(1e300, config)

    @pytest.mark.parametrize(
        "energies, bad, coupling",
        [
            ([math.nan], math.nan, 1.0),
            ([1.0, math.nan, 2.0], math.nan, 1.0),
            ([math.inf], math.inf, 1.0),
            ([-math.inf], -math.inf, 1.0),
            ([-1.0], -1.0, 1.0),
            ([4.0, -1.0], -1.0, 1.0),
            ([0.0, 1e300], 1e300, 1e-10),
            ([1e308], 1e308, 0.3),
        ],
    )
    def test_curve_rejects_as_the_scalar_functions(self, energies, bad, coupling):
        config = ScatteringConfig(coupling=coupling)
        with pytest.raises(ValueError) as scalar:
            transmission_probability(bad, config)
        with pytest.raises(ValueError) as curve:
            transmission_curve(np.array(energies), config)
        assert str(curve.value) == str(scalar.value)


class TestProbabilities:
    def test_closed_form_values(self):
        assert transmission_probability(0.0) == 0.0
        assert reflection_probability(0.0) == 1.0
        assert transmission_probability(1.0) == 0.5
        assert transmission_probability(4.0) == 4 / 5
        assert reflection_probability(4.0) == 1 / 5

    def test_high_energy_limit(self):
        assert abs(transmission_probability(1e6) - 1.0) < 1e-6

    def test_strictly_increasing_in_energy(self):
        values = [transmission_probability(e) for e in ENERGY_SWEEP]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_no_transmission_zero_above_threshold(self):
        assert all(transmission_probability(e) > 0 for e in ENERGY_SWEEP)

    def test_general_coupling(self):
        cfg = ScatteringConfig(coupling=2.0)
        for e in (0.5, 1.0, 9.0):
            assert transmission_probability(e, cfg) == pytest.approx(e / (4 + e), abs=1e-15)
            amp = amplitudes(e, cfg)
            assert abs(1 + amp.reflection - amp.transmission) < IDENTITY_TOL
            assert jump_condition_residual(e, cfg) < IDENTITY_TOL

    def test_lattice_agreement_with_exact_model(self):
        # transmission at E = K+/K- equals the exact machine value K+/K.
        for total in range(1, 21):
            for k_plus in range(total):
                k_minus = total - k_plus
                p = transmission_probability(k_plus / k_minus)
                assert abs(p - float(Fraction(k_plus, total))) < IDENTITY_TOL


class TestJumpCondition:
    @pytest.mark.parametrize("energy", [1.0, 0.01, 25.0])
    def test_specific_energies(self, energy):
        assert jump_condition_residual(energy) < IDENTITY_TOL

    def test_random_sweep(self):
        rnd = random.Random(1905)
        for _ in range(100):
            e = rnd.uniform(1e-9, 100.0)
            assert jump_condition_residual(e) < IDENTITY_TOL

    def test_largest_energy_whose_double_is_finite(self):
        assert jump_condition_residual(sys.float_info.max / 2) < IDENTITY_TOL

    def test_energy_whose_double_overflows_raises(self):
        with pytest.raises(ValueError, match="2 E overflows"):
            jump_condition_residual(math.nextafter(sys.float_info.max / 2, math.inf))


class TestWavePacket:
    def test_validation(self):
        with pytest.raises(ValueError):
            WavePacket([], [])
        with pytest.raises(ValueError):
            WavePacket([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            WavePacket([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            WavePacket([-1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            WavePacket([0.0, 1.0], [1.0, -0.5])
        with pytest.raises(ValueError):
            WavePacket([0.0, float("nan")], [1.0, 1.0])

    @pytest.mark.parametrize(
        "entries", [["4", "1"], [1, "4"], [b"4", b"1"], [True, False], [1j, 2j]]
    )
    def test_rejects_non_real_entries(self, entries):
        with pytest.raises(TypeError, match="energies must be real numbers"):
            WavePacket(entries, [1.0, 1.0])
        with pytest.raises(TypeError, match="weights must be real numbers"):
            WavePacket([0.0, 1.0], entries)

    @pytest.mark.parametrize("entries", [["4", 1], [1, True]])
    def test_rejects_non_real_object_entries(self, entries):
        entries = np.array(entries, dtype=object)
        with pytest.raises(TypeError, match="energies must be a real number"):
            WavePacket(entries, [1.0, 1.0])
        with pytest.raises(TypeError, match="weights must be a real number"):
            WavePacket([0.0, 1.0], entries)

    @pytest.mark.parametrize("entries", [[1, True], [1.0, np.True_]])
    def test_rejects_bools_that_numpy_would_convert(self, entries):
        with pytest.raises(TypeError, match="energies must be a real number, not bool"):
            WavePacket(entries, [1.0, 1.0])
        with pytest.raises(TypeError, match="weights must be a real number, not bool"):
            WavePacket([0.0, 1.0], entries)

    def test_lists_of_ints_equal_floats(self):
        assert transmission_curve([4, 1]).tolist() == [0.8, 0.5]
        packet = WavePacket([0, 2], [1, 0])
        assert packet.energies.dtype == packet.weights.dtype == np.float64
        assert packet.energies.tolist() == [0.0, 2.0]

    def test_object_arrays_of_reals_equal_floats(self):
        packet = WavePacket(np.array([0, 2.0], dtype=object), np.array([1, 0.0], dtype=object))
        floats = WavePacket([0.0, 2.0], [1.0, 0.0])
        assert packet.energies.tolist() == floats.energies.tolist()
        assert packet.weights.tolist() == floats.weights.tolist()
        assert wavepacket_transmission(packet) == wavepacket_transmission(floats)

    # The ids of the gaussian cases leave out the grid options at their
    # defaults, n_points = 2001 and span = 6.0.
    @pytest.mark.parametrize(
        "center, width, options, name",
        [
            pytest.param(True, 0.1, {}, "center", id="True-0.1-center"),
            pytest.param("4", 0.1, {}, "center", id="4-0.1-center"),
            pytest.param(4.0, b"1", {}, "width", id="4.0-1-width"),
            pytest.param(4.0, 0.1, {"n_points": True}, "n_points", id="4.0-0.1-True-n_points"),
            pytest.param(4.0, 0.1, {"span": True}, "span", id="4.0-0.1-True-span"),
        ],
    )
    def test_gaussian_rejects_non_real_parameters(self, center, width, options, name):
        with pytest.raises(TypeError, match=f"{name} must be (a real number|an integer), not"):
            WavePacket.gaussian(center, width, **options)

    def test_gaussian_is_normalized(self):
        packet = WavePacket.gaussian(4.0, 0.01)
        assert abs(packet.weight_integral() - 1.0) < 1e-9

    def test_normalized_rescales(self):
        packet = WavePacket([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]).normalized()
        assert abs(packet.weight_integral() - 1.0) < 1e-12

    def test_normalized_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="zero total weight"):
            WavePacket([0.0, 1.0], [0.0, 0.0]).normalized()

    @pytest.mark.parametrize(
        "center, width, n_points, span, match",
        [
            pytest.param(-1.0, 0.1, 2001, 6.0, "^center must be", id="-1.0-0.1-2001-center"),
            pytest.param(math.nan, 0.1, 2001, 6.0, "^center must be", id="nan-0.1-2001-center"),
            pytest.param(1.0, 0.0, 2001, 6.0, "^width must be", id="1.0-0.0-2001-width"),
            pytest.param(1.0, -0.1, 2001, 6.0, "^width must be", id="1.0--0.1-2001-width"),
            pytest.param(1.0, 0.1, 1, 6.0, "^n_points must be", id="1.0-0.1-1-n_points"),
            pytest.param(1.0, 0.1, 2001, math.inf, "^span must be", id="1.0-0.1-2001-inf-span"),
            pytest.param(1.0, 0.1, 2001, 0.0, "^span must be", id="1.0-0.1-2001-0.0-span"),
            # The grid's top, center + span * width, overflows.
            pytest.param(1.0, 1e308, 2001, 6.0, NO_PACKET, id="1.0-1e308-2001-width"),
            # A subnormal width: the normalization overflows, or the grid
            # collapses.
            pytest.param(0.0, 1e-310, 2001, 6.0, NO_PACKET, id="0.0-1e-310-2001-width"),
            pytest.param(0.0, 5e-324, 2001, 6.0, NO_PACKET, id="0.0-5e-324-2001-width"),
            # A grid step below an ulp of the center collapses the grid; a
            # grid narrower than 2.3e-310 overflows the normalization.
            pytest.param(1e6, 1e-12, 2001, 6.0, NO_PACKET, id="1e6-1e-12-2001-width"),
            pytest.param(0.0, 2.3e-308, 2001, 0.01, NO_PACKET, id="0.0-2.3e-308-2001-0.01-span"),
            # Both grid points lie 300 widths out, where the density is 0.
            pytest.param(100.0, 0.1, 2, 300.0, NO_PACKET, id="100.0-0.1-2-300.0-zero-weight"),
            # The weight integral overflows.
            pytest.param(
                78.31301411480786, 1e308, 2, 1.7821555948022594, NO_PACKET,
                id="78.3-1e308-2-1.78-integral-overflows",
            ),
            # Rescaled subnormal weights integrate to 0.99999477.
            pytest.param(
                7.372859025199558e-297, 2.3e-308, 10, 66.63326237003893, NO_PACKET,
                id="7.4e-297-2.3e-308-10-66.6-not-normalized",
            ),
        ],
    )
    def test_gaussian_rejects_bad_parameters(self, center, width, n_points, span, match):
        # An argument out of its range, or a packet that numpy cannot build
        # and normalize in double precision: a ValueError, and no warning.
        with pytest.raises(ValueError, match=match):
            WavePacket.gaussian(center, width, n_points=n_points, span=span)

    def test_gaussian_of_the_largest_width(self):
        # numpy's linspace overflows an intermediate product on this grid.
        packet = WavePacket.gaussian(1e-310, sys.float_info.max, n_points=10, span=1.0)
        assert abs(packet.weight_integral() - 1.0) <= PACKET_NORM_TOL
        assert 0.0 <= wavepacket_transmission(packet) <= 1.0

    def test_gaussian_whose_span_leaves_all_weight_at_zero_energy(self):
        # (E - center) / width squares to inf past the first grid point.
        packet = WavePacket.gaussian(1.0, 1.0, span=1e308)
        assert packet.energies[0] == 0.0 and packet.weights[0] > 0.0
        assert not np.any(packet.weights[1:])
        assert abs(packet.weight_integral() - 1.0) <= PACKET_NORM_TOL
        assert wavepacket_transmission(packet) == 0.0

    def test_gaussian_sweep_builds_accepted_packets_or_names_its_parameters(self):
        rnd = random.Random(11)
        for _ in range(3000):
            center, width, span = (_sweep_value(rnd) for _ in range(3))
            n_points = rnd.choice((2, 3, 10, 2001))
            try:
                packet = WavePacket.gaussian(center, width, n_points=n_points, span=span)
            except ValueError as exc:
                assert re.match(f"{NO_PACKET}|^(center|width|span) must be", str(exc))
                continue
            args = (center, width, n_points, span)
            assert np.all(np.isfinite(packet.energies)), args
            assert np.all(np.diff(packet.energies) > 0.0), args
            assert abs(packet.weight_integral() - 1.0) <= PACKET_NORM_TOL, args
            assert 0.0 <= wavepacket_transmission(packet) <= 1.0, args

    def test_normalized_sweep_returns_accepted_packets_or_raises(self):
        rnd = random.Random(4)
        for _ in range(3000):
            energies = sorted({_sweep_value(rnd) for _ in range(rnd.randint(2, 5))})
            weights = [_sweep_value(rnd) for _ in energies]
            try:
                packet = WavePacket(energies, weights).normalized()
            except ValueError:
                continue
            assert packet.energies.tolist() == energies
            assert abs(packet.weight_integral() - 1.0) <= PACKET_NORM_TOL, (energies, weights)
            assert 0.0 <= wavepacket_transmission(packet) <= 1.0, (energies, weights)

    def test_gaussian_of_the_narrowest_normal_width(self):
        packet = WavePacket.gaussian(0.0, 2.3e-308)
        assert abs(packet.weight_integral() - 1.0) < 1e-9

    def test_gaussian_a_few_dozen_ulps_wide_per_step(self):
        # A step of 6e-9 is about 50 ulps of 1e6.
        packet = WavePacket.gaussian(1e6, 1e-6)
        assert np.all(np.diff(packet.energies) > 0.0)
        assert abs(packet.weight_integral() - 1.0) < 1e-9

    def test_packet_keeps_read_only_copies_of_the_callers_arrays(self):
        energies, weights = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0])
        packet = WavePacket(energies, weights)
        normalized = packet.normalized()
        assert energies.flags.writeable and weights.flags.writeable
        assert energies.tolist() == [0.0, 1.0, 2.0] and weights.tolist() == [1.0, 2.0, 1.0]
        for own in (packet.energies, packet.weights, normalized.energies, normalized.weights):
            assert not own.flags.writeable
            assert not np.shares_memory(own, energies) and not np.shares_memory(own, weights)

    @pytest.mark.parametrize(
        "energies, weights",
        [
            pytest.param([0.0, 1e308], [1e308, 1e308], id="sum-overflows"),
            pytest.param([0.0, 1e308], [2.0, 0.0], id="product-overflows"),
        ],
    )
    def test_weight_integral_refuses_to_overflow(self, energies, weights):
        # pytest turns a numpy warning into an error, so none is emitted.
        packet = WavePacket(energies, weights)
        with pytest.raises(ValueError, match="weight integral overflows"):
            packet.weight_integral()
        with pytest.raises(ValueError, match="weight integral overflows"):
            packet.normalized()

    def test_normalized_refuses_a_rescaled_integral_off_one(self):
        # The integral, 6e-323, is subnormal: the rescaled first weight
        # rounds to 1 / 12, and the rescaled integral is 0.9945.
        packet = WavePacket([2.2250738585072014e-308, 23.868080218413045], [5e-324, 0.0])
        with pytest.raises(ValueError, match="rescaled weight integral .* deviates from 1"):
            packet.normalized()

    def test_normalized_refuses_an_overflowing_weight(self):
        with pytest.raises(ValueError, match="divided by the integral overflows"):
            WavePacket([0.0, 1e-310], [1.0, 1.0]).normalized()

    def test_rejects_unnormalized_at_use(self):
        packet = WavePacket([0.0, 1.0], [1.0, 1.0])  # integral = 1 trapezoid? no: 1.0
        bad = WavePacket([0.0, 1.0], [2.0, 2.0])
        with pytest.raises(ValueError):
            wavepacket_transmission(bad)
        assert 0.0 <= wavepacket_transmission(packet) <= 1.0

    def test_point_mass_limits(self):
        assert wavepacket_transmission(WavePacket([0.0], [1.0])) == 0.0
        assert wavepacket_transmission(WavePacket([4.0], [1.0])) == pytest.approx(0.8, abs=1e-15)
        with pytest.raises(ValueError):
            wavepacket_transmission(WavePacket([4.0], [0.5]))

    def test_delta_like_packet_at_unit_energy(self):
        packet = WavePacket.gaussian(1.0, 0.005)
        assert wavepacket_transmission(packet) == pytest.approx(0.5, abs=1e-3)

    def test_narrow_gaussian_matches_fixed_energy(self):
        packet = WavePacket.gaussian(4.0, 0.01)
        assert wavepacket_transmission(packet) == pytest.approx(0.8, abs=1e-3)

    def test_against_adaptive_quadrature_oracle(self):
        # Same Gaussian density, integrated by scipy's adaptive quadrature.
        center, width = 4.0, 0.01
        lo, hi = center - 6 * width, center + 6 * width
        norm, _ = quad(lambda e: math.exp(-0.5 * ((e - center) / width) ** 2), lo, hi)
        oracle, _ = quad(
            lambda e: (e / (1 + e)) * math.exp(-0.5 * ((e - center) / width) ** 2) / norm,
            lo,
            hi,
        )
        packet = WavePacket.gaussian(center, width)
        assert wavepacket_transmission(packet) == pytest.approx(oracle, abs=1e-6)

    def test_wide_packet_against_oracle(self):
        center, width = 2.0, 0.5
        lo, hi = max(0.0, center - 6 * width), center + 6 * width
        norm, _ = quad(lambda e: math.exp(-0.5 * ((e - center) / width) ** 2), lo, hi)
        oracle, _ = quad(
            lambda e: (e / (1 + e)) * math.exp(-0.5 * ((e - center) / width) ** 2) / norm,
            lo,
            hi,
        )
        packet = WavePacket.gaussian(center, width, n_points=4001)
        assert wavepacket_transmission(packet) == pytest.approx(oracle, abs=1e-5)

    def test_transmission_curve_matches_pointwise(self):
        energies = np.linspace(0.0, 100.0, 10001)
        for coupling in (0.3, 1.0, 1.5):
            config = ScatteringConfig(coupling=coupling)
            curve = transmission_curve(energies, config)
            pointwise = [transmission_probability(float(e), config) for e in energies]
            assert curve.tolist() == pointwise, coupling
        with pytest.raises(ValueError):
            transmission_curve(np.array([-1.0]))
