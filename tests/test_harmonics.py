"""Sector harmonics, the Gauss-Jacobi rule and coefficient extraction against it."""

import math

import mpmath
import numpy as np
import pytest

from sphwave.harmonics import GaussJacobiRule, gauss_jacobi_rule
from sphwave.special import LambdaParam, gegenbauer_batch, reproducing_kernel
from sphwave.transform import build_sphere_grid, grid_inner

from reference import _gegenbauer_norm_inv, gegenbauer_coefficient, poisson_kernel_closed, sector_harmonic

try:
    from scipy.special import sph_harm_y

    def _sph(l, k, theta, phi):
        return sph_harm_y(l, k, theta, phi)

except ImportError:  # older scipy
    from scipy.special import sph_harm

    def _sph(l, k, theta, phi):
        return sph_harm(k, l, phi, theta)


def test_harmonic_trivial_constant():
    for n in (2, 3, 5):
        assert sector_harmonic(LambdaParam(n), 0, 0, 0.8, 1.7) == pytest.approx(1.0)


def test_harmonic_above_degree_is_zero():
    assert sector_harmonic(LambdaParam(3), 2, 5, 0.8, 1.7) == 0.0


def test_harmonic_n3_degree_one():
    # A_1^0 = 1 on the 3-sphere, so Y_1^0 = C_1^1(cos theta) = 2 cos theta
    lp = LambdaParam(3)
    th = np.linspace(0.1, 3.0, 9)
    assert np.allclose(sector_harmonic(lp, 1, 0, th, 0.0), 2 * np.cos(th), rtol=1e-13)


def test_harmonic_pole_vanishing_for_positive_order():
    lp = LambdaParam(4)
    assert sector_harmonic(lp, 3, 2, 0.0, 1.2) == 0.0


def test_s2_harmonics_match_reference_library():
    # ours = (-1)^k sqrt(4 pi) * (2 for k >= 1) * Re(standard Y_l^k)
    lp = LambdaParam(2)
    th, ph = 1.1, 2.3
    for (l, k) in [(3, 0), (3, 1), (4, 2), (5, 5), (2, 1), (6, 3)]:
        ours = sector_harmonic(lp, l, k, th, ph)
        factor = 1.0 if k == 0 else 2.0
        ref = (-1.0) ** k * math.sqrt(4 * math.pi) * factor * complex(_sph(l, k, th, ph)).real
        assert ours == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("n", [3, 4])
def test_sector_orthonormality(n):
    lp = LambdaParam(n)
    lmax = 12
    grid = build_sphere_grid(n, 2 * lmax)
    th1, th2 = grid.angles[:, 0], grid.angles[:, 1]
    basis = {(l, k1): sector_harmonic(lp, l, k1, th1, th2) for l in range(lmax + 1) for k1 in range(l + 1)}
    keys = list(basis)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(keys), size=40, replace=False)
    for i in picks:
        li, ki = keys[i]
        for j in picks[:12]:
            lj, kj = keys[j]
            inner = grid_inner(grid, basis[(li, ki)], basis[(lj, kj)])
            expect = 1.0 if (li, ki) == (lj, kj) else 0.0
            assert abs(inner - expect) < 1e-8


def test_s2_real_family_norms():
    lp = LambdaParam(2)
    grid = build_sphere_grid(2, 24)
    th1, th2 = grid.sector_angles()
    for (l, k1) in [(1, 0), (3, 0), (3, 1), (5, 4)]:
        vals = sector_harmonic(lp, l, k1, th1, th2)
        expect = 1.0 if k1 == 0 else 2.0
        assert grid_inner(grid, vals, vals) == pytest.approx(expect, abs=1e-10)


def test_addition_theorem_zonal_slice():
    # K_l(x . pole) equals Y_l^0(x) * Y_l^0(pole): only the zonal member
    # survives at the pole, pinning the normalization constants.
    th = np.linspace(0.05, 3.1, 13)
    for n in (2, 3, 4, 5):
        lp = LambdaParam(n)
        for l in range(9):
            lhs = reproducing_kernel(lp, l, np.cos(th))
            rhs = sector_harmonic(lp, l, 0, th, 0.0) * sector_harmonic(lp, l, 0, 0.0, 0.0)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


# -- Gegenbauer coefficients ---------------------------------------------------


def test_rule_is_exact_on_moments():
    # weight (1-t^2)^(lam-1/2): moments against known beta-function values
    lam = 1.5
    rule = gauss_jacobi_rule(lam, 12)
    assert isinstance(rule, GaussJacobiRule)
    m0 = math.gamma(lam + 0.5) * math.gamma(0.5) / math.gamma(lam + 1.0)
    assert float(np.sum(rule.weights)) == pytest.approx(m0, rel=1e-13)
    assert float(np.sum(rule.weights * rule.nodes**2)) == pytest.approx(
        m0 / (2 * lam + 2), rel=1e-12
    )


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_coefficient_of_gegenbauer_is_delta(lam):
    rule = gauss_jacobi_rule(lam, 24)
    basis = gegenbauer_batch(lam, 5, rule.nodes)
    for m in range(6):
        for l in range(6):
            got = gegenbauer_coefficient(rule, basis[m], l)
            assert got == pytest.approx(1.0 if l == m else 0.0, abs=1e-12)


def test_coefficient_of_constant():
    rule = gauss_jacobi_rule(1.0, 16)
    ones = np.ones_like(rule.nodes)
    assert gegenbauer_coefficient(rule, ones, 0) == pytest.approx(1.0, rel=1e-13)
    for l in range(1, 6):
        assert abs(gegenbauer_coefficient(rule, ones, l)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poisson_kernel_coefficients(n):
    lp = LambdaParam(n)
    rho = 0.5
    rule = gauss_jacobi_rule(lp.lam, 200)
    vals = poisson_kernel_closed(lp, rho, np.arccos(rule.nodes))
    for l in range(12):
        expect = (lp.lam + l) / lp.lam * math.exp(-rho * l) / lp.sigma
        assert gegenbauer_coefficient(rule, vals, l) == pytest.approx(expect, rel=1e-10)


def test_insufficient_order_raises():
    rule = gauss_jacobi_rule(1.0, 4)
    with pytest.raises(ValueError):
        gegenbauer_coefficient(rule, np.ones_like(rule.nodes), 5)


def test_coefficient_rejects_a_non_sphere_order():
    with pytest.raises(ValueError, match="lam"):
        gegenbauer_coefficient(gauss_jacobi_rule(0.7, 8), np.ones(8), 2)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_gegenbauer_norm_inverse_matches_mpmath_to_high_degree(n):
    # c(l, lam) = 2^(2 lam - 1) l! (lam + l) Gamma(lam)^2 / (pi Gamma(2 lam + l));
    # the factorial ratio is a sum of 2 lam - 1 logs, where a difference of two
    # log-gammas near 3e4 would lose about 1e-11 at degree 3900
    lam = LambdaParam(n).lam
    with mpmath.workdps(30):
        m = mpmath.mpf(n - 1) / 2
        for l in (0, 1, 2, 50, 400, 2024, 3899, 3900):
            exact = 2 ** (2 * m - 1) * mpmath.factorial(l) * (m + l) * mpmath.gamma(m) ** 2 / (
                mpmath.pi * mpmath.gamma(2 * m + l)
            )
            assert abs(_gegenbauer_norm_inv(l, lam) / exact - 1) <= 1e-13, l


# -- convolution / invariance on grids ----------------------------------------


def test_funk_hecke_convolution_multiplier():
    # convolving a degree-l harmonic with a zonal kernel scales it by
    # lam/(lam+l) * (kernel's Gegenbauer coefficient)
    # grid band must also resolve the (smooth, non-band-limited) kernel: its
    # degree weights decay like exp(-rho l)
    n, l, k1, rho = 3, 2, 1, 0.8
    lp = LambdaParam(n)
    grid = build_sphere_grid(n, 44)
    th1, th2 = grid.angles[:, 0], grid.angles[:, 1]
    y_vals = sector_harmonic(lp, l, k1, th1, th2)
    nodes = np.stack(
        [
            np.cos(th1),
            np.sin(th1) * np.cos(th2),
            np.sin(th1) * np.sin(th2) * np.cos(grid.angles[:, 2]),
            np.sin(th1) * np.sin(th2) * np.sin(grid.angles[:, 2]),
        ],
        axis=1,
    )
    ghat = (lp.lam + l) / lp.lam * math.exp(-rho * l) / lp.sigma
    expect_factor = lp.lam / (lp.lam + l) * ghat
    for idx in (10, 400, 2000):
        x = nodes[idx]
        cosangles = nodes @ x
        kernel = poisson_kernel_closed(lp, rho, np.arccos(np.clip(cosangles, -1, 1)))
        conv = grid.weights @ (y_vals * kernel) / lp.sigma
        assert conv == pytest.approx(expect_factor * y_vals[idx], rel=1e-8, abs=1e-12)


def test_rotation_invariance_of_quadrature():
    lp = LambdaParam(3)
    grid = build_sphere_grid(3, 20)
    th1, th2 = grid.angles[:, 0], grid.angles[:, 1]
    f = lambda a, b: (
        sector_harmonic(lp, 3, 1, a, b) * 0.7 + sector_harmonic(lp, 2, 2, a, b) + 0.25
    )
    base = grid.weights @ f(th1, th2)
    theta = 0.83
    c, s = math.cos(theta), math.sin(theta)
    x1 = np.cos(th1)
    x2 = np.sin(th1) * np.cos(th2)
    y1 = c * x1 - s * x2
    y2 = s * x1 + c * x2
    tail_sq = np.clip(1.0 - y1**2 - y2**2, 0.0, None)
    th1r = np.arccos(np.clip(y1, -1, 1))
    th2r = np.arctan2(np.sqrt(tail_sq), y2)
    rotated = grid.weights @ f(th1r, th2r)
    assert rotated == pytest.approx(base, rel=1e-8, abs=1e-8)

