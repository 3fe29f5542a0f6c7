"""The Wilson score interval of the ensemble reports.

Its bounds must be finite and bracket the frequency inside [0, 1] at every
level z that ``--z`` accepts, from 0 and the smallest subnormal up to the
largest finite doubles, where z² underflows or overflows.  Its exact
coverage at z = 3 on the small tables is pinned too, since it falls below
the nominal level.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from deltamachine.interval import wilson_interval
from deltamachine.spheres import probability_table

LEVELS = [0.0, 5e-324, 1e-160, 3.0, 1e154, 1e308]

COUNTS = [(0, 50), (50, 50), (2, 3), (66662, 100_000)]


def textbook(x, n, z):
    """Wilson's closed form, centre and spread in the frequency p = x/n."""
    p, c = x / n, z * z / n
    centre = (p + c / 2) / (1 + c)
    spread = z / (1 + c) * math.sqrt(p * (1 - p) / n + c / (4 * n))
    return centre - spread, centre + spread


@pytest.mark.parametrize("z", LEVELS)
@pytest.mark.parametrize("x, n", COUNTS)
def test_bounds_are_finite_and_bracket_the_frequency(x, n, z):
    lower, upper = wilson_interval(x, n, z)
    assert math.isfinite(lower) and math.isfinite(upper)
    assert 0.0 <= lower <= x / n <= upper <= 1.0


@pytest.mark.parametrize("z", [0.0, 5e-324, 1e-160])
@pytest.mark.parametrize("x, n", [(50, 50), (2, 3), (66662, 100_000)])
def test_tiny_z_gives_the_frequency(x, n, z):
    assert wilson_interval(x, n, z) == (x / n, x / n)


def test_tiny_z_at_zero_keeps_what_a_double_holds_of_the_width():
    assert wilson_interval(0, 50, 0.0) == wilson_interval(0, 50, 5e-324) == (0.0, 0.0)
    # z²/(n + z²) is about 2e-322 at z = 1e-160, a subnormal double.
    lower, upper = wilson_interval(0, 50, 1e-160)
    assert lower == 0.0 and 0.0 < upper < 1e-300


def test_no_transmission_keeps_a_width():
    # 0 of 50: upper = z²/(n + z²) = 9/59, although every trial agrees.
    assert wilson_interval(0, 50, 3.0) == (0.0, 9 / 59)
    assert wilson_interval(50, 50, 3.0) == (50 / 59, 1.0)


@pytest.mark.parametrize("x, n", COUNTS)
def test_huge_z_gives_the_unit_interval(x, n):
    assert wilson_interval(x, n, 1e308) == (0.0, 1.0)


@pytest.mark.parametrize("z", [0.5, 1.96, 3.0, 10.0, 300.0])
@pytest.mark.parametrize("x, n", COUNTS + [(1, 1), (0, 1), (7, 1000)])
def test_matches_the_textbook_form(x, n, z):
    expected = textbook(x, n, z)
    assert wilson_interval(x, n, z) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("x, n", [(1, 3), (2, 3), (333, 1000)])
def test_bounds_solve_the_score_equation(x, n):
    # Each bound p satisfies |x/n - p| = z sqrt(p (1 - p) / n), exactly in Fractions.
    z = Fraction(3)
    for bound in wilson_interval(x, n, 3.0):
        p = Fraction(bound)
        gap = (Fraction(x, n) - p) ** 2 - z * z * p * (1 - p) / n
        assert abs(gap) < Fraction(1, 10**14)


@pytest.mark.parametrize("z", [-1.0, -5e-324, math.nan, math.inf])
def test_rejects_a_level_outside_the_finite_nonnegative_reals(z):
    with pytest.raises(ValueError, match="z must be"):
        wilson_interval(1, 2, z)


@pytest.mark.parametrize("z", [True, np.True_, "3", b"3"], ids=["bool", "np-bool", "str", "bytes"])
def test_rejects_a_level_that_is_not_a_real_number(z):
    with pytest.raises(TypeError, match="z must be a real number"):
        wilson_interval(5, 10, z)


@pytest.mark.parametrize("z", [3, np.float64(3.0), np.float32(3.0)], ids=["int", "f64", "f32"])
def test_any_real_level_gives_python_float_bounds(z):
    bounds = wilson_interval(5, 10, z)
    assert bounds == wilson_interval(5, 10, 3.0)
    assert [type(bound) for bound in bounds] == [float, float]


@pytest.mark.parametrize(
    "x, n",
    [(0, 0), (5, 3), (-1, 3)],
    ids=["no-trials", "more-than-n", "negative"],
)
def test_rejects_counts_outside_zero_to_n(x, n):
    with pytest.raises(ValueError, match="n_trials"):
        wilson_interval(x, n, 3.0)


@pytest.mark.parametrize(
    "x, n",
    [(True, 3), (1.5, 3), (1, "3")],
    ids=["bool", "float", "str"],
)
def test_rejects_counts_that_are_not_integers(x, n):
    with pytest.raises(TypeError, match="must be an integer"):
        wilson_interval(x, n, 3.0)


def exact_coverage(p: Fraction, n: int, z: float) -> float:
    """P(lower <= p <= upper) for a count x ~ Binomial(n, p)."""
    inside = []
    for x in range(n + 1):
        lower, upper = wilson_interval(x, n, z)
        if lower <= p <= upper:
            inside.append(x)
    return float(binom.pmf(inside, n, float(p)).sum())


def test_coverage_on_the_small_tables_falls_below_nominal():
    # The interval docstring's figures: nominal 0.9973 at z = 3, but 0.9922
    # at n = 50 over the fractional cells of K <= 12, least at p = 7/99 and
    # its complement.
    cells = {
        p for K in range(1, 13) for row in probability_table(K).rows for _, p in row.entries
    } - {0, 1}
    coverage = {p: exact_coverage(p, 50, 3.0) for p in cells}
    least = min(coverage.values())
    assert round(least, 4) == 0.9922
    assert {p for p, c in coverage.items() if c < least + 1e-12} == {Fraction(7, 99), Fraction(92, 99)}
    assert round(exact_coverage(Fraction(1, 201), 50, 3.0), 4) == 0.9741
