"""Delta-potential amplitudes, probabilities and identities."""

import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from deltamachine.scattering import (
    IDENTITY_TOL,
    ScatteringConfig,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_probability,
)

ENERGY_SWEEP = np.linspace(1e-3, 100.0, 1000)


class TestAmplitudes:
    def test_negative_zero_energy_is_positive_zero(self):
        assert math.copysign(1.0, transmission_probability(-0.0)) == 1.0
        assert math.copysign(1.0, amplitudes(-0.0).energy) == 1.0
        assert amplitudes(-0.0) == amplitudes(0.0)

    @pytest.mark.parametrize(
        "energy", ["4", b"4", True, False, bytearray(b"4"), np.str_("4"), None, 1j, np.complex128(1)]
    )
    def test_rejects_non_real_energy(self, energy):
        for function in (amplitudes, transmission_probability, reflection_probability):
            with pytest.raises(TypeError, match="energy must be a real number"):
                function(energy)

    @pytest.mark.parametrize("energy", [np.True_, np.array(True), np.False_, np.array(False)])
    def test_rejects_numpy_bool_energy(self, energy):
        # float() would read False as the valid energy 0.0.
        with pytest.raises(TypeError, match="energy must be a real number"):
            transmission_probability(energy)

    def test_int_and_numpy_energies_equal_floats(self):
        assert amplitudes(4) == amplitudes(np.float64(4.0)) == amplitudes(4.0)
        assert transmission_probability(np.float32(0.5)) == transmission_probability(0.5)

    @pytest.mark.parametrize(
        "energy",
        [4, Fraction(4), Decimal("4"), np.int64(4), np.float16(4), np.float32(4), np.longdouble(4), np.array(4.0)],
        ids=lambda v: type(v).__name__,
    )
    def test_every_real_energy_gives_the_float_values(self, energy):
        for function in (amplitudes, transmission_probability, reflection_probability):
            assert function(energy) == function(4.0)
        assert transmission_probability(energy) == 0.8

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
        ],
    )
    def test_kappa_squared_overflow_raises(self, evaluate):
        config = ScatteringConfig(coupling=1e-10)
        with pytest.raises(ValueError, match="kappa"):
            evaluate(1e300, config)

    @pytest.mark.parametrize(
        "energy, coupling, message",
        [
            (math.nan, 1.0, "energy must be finite"),
            (math.inf, 1.0, "energy must be finite"),
            (-math.inf, 1.0, "energy must be finite"),
            (-1.0, 1.0, "energy must be nonnegative"),
            (1e300, 1e-10, "energy 1e+300 is out of range for coupling 1e-10: kappa"),
            (1e308, 0.3, "energy 1e+308 is out of range for coupling 0.3: kappa"),
        ],
        ids=["nan", "inf", "-inf", "negative", "overflow-small-coupling", "overflow-large-energy"],
    )
    def test_scalar_functions_reject_an_energy_alike(self, energy, coupling, message):
        config = ScatteringConfig(coupling=coupling)
        messages = set()
        for function in (amplitudes, transmission_probability, reflection_probability):
            with pytest.raises(ValueError, match="^" + re.escape(message)) as raised:
                function(energy, config)
            messages.add(str(raised.value))
        assert len(messages) == 1, messages


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
