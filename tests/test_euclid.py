"""Stereographic map and flat-space limit profiles."""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sphwave.euclid import (
    EuclideanPoint,
    _limit_terms,
    euclidean_limit_eval,
    limit_convergence_probe,
    wavelet_at_scaled_point,
)
from sphwave.rotderiv import synthesize
from sphwave.special import LambdaParam
from sphwave.wavelets import (
    KIND_POISSON,
    TruncationError,
    WaveletSpec,
    directional_wavelet_field,
    poisson_wavelet_closed,
    truncation_degree,
)

from reference import limit_closed_low_order, limit_terms_by_differentiation


def xi_polar(n, radius, angle):
    """Point with |xi| = radius and first coordinate radius*cos(angle)."""
    coords = [radius * math.cos(angle), radius * math.sin(angle)] + [0.0] * (n - 2)
    return EuclideanPoint(tuple(coords))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="expected n=3"):
        wavelet_at_scaled_point(LambdaParam(3), 1, EuclideanPoint((1.0, 0.0)), 0.01)


@pytest.mark.parametrize("n", [2, 3, 30, 150, 260])
def test_limit_profile_is_finite_at_large_radii(n):
    # every term has q - p/2 = lam + 1 + d/2; where some (1+|xi|^2)^-q leaves
    # the normal floats (on S^2 from |xi| near 3e20 at order 6, near 15 on
    # S^260) the profile is formed from xi_2 / sqrt(1+|xi|^2), and it matches
    # its 40-digit value with no warning
    lp = LambdaParam(n)
    for d in range(7):
        terms = limit_terms_by_differentiation(lp.lam, d)
        assert all(q - Fraction(p, 2) == Fraction(lp.lam) + 1 + Fraction(d, 2) for _, p, q in terms)
        for radius in (1e4, 1e8, 1e20, 1e52, 1e60, 1e100, 1e153, 1e154):
            xi = xi_polar(n, radius, 1.1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = euclidean_limit_eval(lp, d, xi)
            with mpmath.workdps(40):
                x2, A = mpmath.mpf(xi.xi2), 1 + mpmath.mpf(xi.radius) ** 2
                exact = 2 / mpmath.mpf(lp.sigma) * mpmath.fsum(
                    mpmath.mpf(c.numerator) / c.denominator * x2**p * A ** -(mpmath.mpf(q.numerator) / q.denominator)
                    for c, p, q in terms
                )
                assert abs(value - exact) <= 1e-12 * abs(exact) + 1e-300, (d, radius, value, exact)


def test_limit_profile_keeps_the_direct_product_while_its_decay_is_normal():
    # the bits of the sum of c xi_2^p (1+|xi|^2)^-q wherever every (1+|xi|^2)^-q is a normal float
    for n in (2, 3, 6):
        lp = LambdaParam(n)
        for d in range(7):
            for radius in (0.0, 0.05, 0.7, 3.0, 1e3, 1e10):
                xi = xi_polar(n, radius, 2.2)
                A = 1.0 + xi.radius**2
                terms = _limit_terms(lp.lam, d)
                assert all(A ** (-float(q)) >= sys.float_info.min for _, _, q in terms)
                direct = sum(float(c) * xi.xi2**p * A ** (-float(q)) for c, p, q in terms)
                assert euclidean_limit_eval(lp, d, xi) == 2.0 / lp.sigma * direct


def test_limit_profile_order_zero_at_origin():
    for n in (2, 3, 5):
        lp = LambdaParam(n)
        assert euclidean_limit_eval(lp, 0, EuclideanPoint((0.0,) * n)) == pytest.approx(
            2.0 / lp.sigma, rel=1e-15
        )


def test_limit_profile_order_one_formula():
    for n in (2, 3, 4):
        lp = LambdaParam(n)
        for (r, ang) in [(0.5, 0.3), (1.5, 2.0), (2.5, 4.4)]:
            xi = xi_polar(n, r, ang)
            expect = (
                -4.0 * (lp.lam + 1) * xi.xi2 / (lp.sigma * (1 + r * r) ** (lp.lam + 2))
            )
            assert euclidean_limit_eval(lp, 1, xi) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize(
    "lam,n,coef,a,b,power",
    [(1, 3, 4.0, 2.0, 3.0, 4), (2, 5, 12.0, 3.0, 4.0, 5), (3, 7, 48.0, 4.0, 5.0, 6)],
)
def test_limit_profile_order_two_integer_lambda(lam, n, coef, a, b, power):
    # closed displays: coef*(-1 + a|xi|^2 + b|xi|^2 cos(2 theta2)) / (pi^(lam+1) (1+|xi|^2)^power)
    lp = LambdaParam(n)
    assert lp.lam == lam
    for (r, ang) in [(0.4, 0.9), (1.2, 0.3), (2.0, 2.2), (1.0, 5.5)]:
        xi = xi_polar(n, r, ang)
        expect = (
            coef
            * (-1.0 + a * r * r + b * r * r * math.cos(2 * ang))
            / (np.pi ** (lam + 1) * (1 + r * r) ** power)
        )
        assert euclidean_limit_eval(lp, 2, xi) == pytest.approx(expect, rel=1e-12)


def test_symbolic_matches_closed_low_orders():
    for n in (2, 3, 4, 6):
        lp = LambdaParam(n)
        for d in (0, 1, 2):
            for (r, ang) in [(0.3, 1.0), (1.4, 2.6)]:
                xi = xi_polar(n, r, ang)
                assert euclidean_limit_eval(lp, d, xi) == pytest.approx(
                    limit_closed_low_order(lp, d, xi), rel=1e-12
                )


def test_flat_terms_are_the_surviving_sphere_terms():
    # the rho -> 0 survivors of the sphere's terms are, coefficient for
    # coefficient, the terms of d partial derivatives in xi_2
    for n in range(2, 9):
        lam = (n - 1) / 2
        for d in range(7):
            assert _limit_terms(lam, d) == limit_terms_by_differentiation(lam, d)


def test_parity_in_first_coordinate():
    lp = LambdaParam(3)
    for d in (1, 2, 3, 4):
        xi = xi_polar(3, 1.3, 0.7)
        mirrored = EuclideanPoint((-xi.coords[0],) + xi.coords[1:])
        a = euclidean_limit_eval(lp, d, xi)
        b = euclidean_limit_eval(lp, d, mirrored)
        assert a == pytest.approx((-1.0) ** d * b, rel=1e-13)


def test_probe_order_zero_converges():
    # first-order decay with constant ~1 at these points: the relative error
    # at rho = 0.01 lands at 0.50-1.03 * 1e-2 (frozen from the closed-form oracle)
    for n in (2, 3):
        lp = LambdaParam(n)
        for r in (0.5, 2.0):
            xi = xi_polar(n, r, 0.8)
            rep = limit_convergence_probe(lp, 0, xi, [0.08, 0.04, 0.02, 0.01])
            errs = rep["errors"]
            assert errs == sorted(errs, reverse=True)
            assert errs[-1] < 1.03e-2 * abs(rep["target"])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_probe_order_two_ratio_window(n):
    lp = LambdaParam(n)
    xi = xi_polar(n, 1.1, 0.6)
    rep = limit_convergence_probe(lp, 2, xi, [0.08, 0.04, 0.02, 0.01])
    for ratio in rep["ratios"]:
        assert 1.6 <= ratio <= 2.4
    assert rep["empirical_order"] == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
def test_probe_closed_forms_keep_converging_at_tiny_scales(n, d):
    # the Poisson denominator 1 - 2 r cos(theta1) + r^2 cancels as rho -> 0;
    # formed without cancellation, the error keeps falling 10x per decade
    lp = LambdaParam(n)
    rep = limit_convergence_probe(lp, d, xi_polar(n, 1.0, 0.7), [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    for ratio in rep["ratios"]:
        assert 9.9 <= ratio <= 10.1
    assert rep["errors"][-1] < 1e-6 * abs(rep["target"])


def series_at_scaled_point(lp, d, xi, rho):
    """rho^n times the degree series of the order-d wavelet at the probe's point."""
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=d, rho=rho)
    theta1 = 2.0 * math.atan(rho * xi.radius / 2.0)
    theta2 = math.acos(xi.xi2 / xi.radius)
    field = directional_wavelet_field(spec, L=truncation_degree(spec, 1e-10))
    return rho**lp.n * float(synthesize(field, theta1, theta2))


def test_probe_order_three_series_path():
    lp = LambdaParam(2)
    xi = xi_polar(2, 0.9, 0.5)
    rep = limit_convergence_probe(lp, 3, xi, [0.2, 0.1, 0.05])
    assert rep["errors"] == sorted(rep["errors"], reverse=True)
    # the degree series converges at the same scales, to the probe's closed-form values
    series_errors = [abs(series_at_scaled_point(lp, 3, xi, rho) - rep["target"]) for rho in rep["rho"]]
    assert series_errors == sorted(series_errors, reverse=True)
    assert series_errors == pytest.approx(rep["errors"], rel=1e-8)


def test_probe_scale_floor_for_series_orders():
    lp = LambdaParam(2)
    xi = xi_polar(2, 1.0, 0.3)
    # the series: rho = 0.01 still truncates below the cap; 0.005 does not
    truncation_degree(WaveletSpec(lp=lp, kind=KIND_POISSON, order=3, rho=0.01), 1e-10)
    with pytest.raises(TruncationError, match="degree cap"):
        for rho in [0.01, 0.005, 0.0005]:
            truncation_degree(WaveletSpec(lp=lp, kind=KIND_POISSON, order=3, rho=rho), 1e-10)
    # the probe needs no truncation degree and converges at those scales
    rep = limit_convergence_probe(lp, 3, xi, [0.01, 0.005, 0.0005])
    assert rep["errors"] == sorted(rep["errors"], reverse=True)
    assert rep["ratios"][-1] == pytest.approx(10.0, rel=0.01)


def test_probe_requires_decreasing_scales():
    lp = LambdaParam(2)
    with pytest.raises(ValueError):
        limit_convergence_probe(lp, 1, xi_polar(2, 1.0, 0.0), [0.01, 0.02])


@pytest.mark.parametrize("rhos", [[], [0.01]])
def test_probe_requires_two_scales(rhos):
    # one scale gives no ratio, and "errors decreasing" would hold vacuously
    with pytest.raises(ValueError, match="at least two scales"):
        limit_convergence_probe(LambdaParam(2), 1, xi_polar(2, 1.0, 0.0), rhos)


def test_scaling_power_is_pinned():
    # substituting rho^(n±1) for the rho^n prefactor breaks convergence
    lp = LambdaParam(3)
    xi = xi_polar(3, 1.2, 0.8)
    target = euclidean_limit_eval(lp, 1, xi)
    rhos = [0.08, 0.04, 0.02, 0.01]
    vals = [wavelet_at_scaled_point(lp, 1, xi, rho) for rho in rhos]
    errs_correct = [abs(v - target) for v in vals]
    errs_over = [abs(v * rho - target) for v, rho in zip(vals, rhos)]
    errs_under = [abs(v / rho - target) for v, rho in zip(vals, rhos)]
    assert errs_correct[-1] < 0.05 * abs(target)
    # one extra power drives the value to 0, so the error saturates at |target|
    assert errs_over[-1] > 0.9 * abs(target)
    # one missing power diverges
    assert errs_under[-1] > errs_under[0]
    assert errs_under[-1] > 10 * abs(target)


def test_limit_order_cap():
    with pytest.raises(ValueError):
        euclidean_limit_eval(LambdaParam(3), 7, xi_polar(3, 1.0, 0.0))


@pytest.mark.parametrize("n", [2, 3, 6, 30, 100])
@pytest.mark.parametrize("d", [0, 2, 5])
def test_folded_scaling_matches_the_closed_form(n, d):
    # rho^n times the closed-form wavelet, where that product is a finite
    # float, against the probe's folded form rho^(-1-2j) (D/rho^2)^-(lam+1+j)
    lp = LambdaParam(n)
    xi = xi_polar(n, 0.7, 0.9)
    for rho in (0.4, 0.1, 0.02):
        spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=d, rho=rho)
        theta1 = 2.0 * math.atan(rho * xi.radius / 2.0)
        unfolded = rho**n * float(poisson_wavelet_closed(spec, theta1, math.acos(xi.xi2 / xi.radius)))
        assert wavelet_at_scaled_point(lp, d, xi, rho) == pytest.approx(unfolded, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [150, 200, 260])
def test_probe_stays_finite_at_large_n(n):
    # rho^n and D^-(lam+1+j) would each leave the float range; folded, the terms stay near 1
    lp = LambdaParam(n)
    rep = limit_convergence_probe(lp, 2, xi_polar(n, 1.0, 0.7), [0.08, 0.04, 0.02, 0.01])
    assert all(math.isfinite(e) for e in rep["errors"])
    assert rep["errors"] == sorted(rep["errors"], reverse=True)


def test_probe_value_beyond_the_float_range_raises():
    # at rho = 50 on S^200, rho^n g is about 50^200 / sigma
    with pytest.raises(ValueError, match="does not evaluate to a finite float"):
        wavelet_at_scaled_point(LambdaParam(200), 2, xi_polar(200, 1.0, 0.7), 50.0)


@pytest.mark.parametrize("radius", [1e155, 1e160, 1e200])
def test_probe_point_whose_squared_radius_overflows_raises(radius, recwarn):
    # |xi|^2 overflows, so neither the flat profile nor theta2 is defined
    xi = EuclideanPoint((np.float64(radius) * np.cos(0.7), np.float64(radius) * np.sin(0.7)))
    with pytest.raises(ValueError, match="radius .* is not a finite float"):
        limit_convergence_probe(LambdaParam(2), 2, xi, [0.08, 0.04])
    assert not recwarn.list
