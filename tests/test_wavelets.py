"""Kernels, closed-form wavelets, modified combinations, truncation bounds."""

import math

import mpmath
import numpy as np
import pytest

from sphwave.admissibility import GammaSolveError, solve_gamma
from sphwave.harmonics import gauss_jacobi_rule
from sphwave.rotderiv import derivative_order, sector_pair_sum, synthesize
from sphwave.special import LambdaParam, dim_harmonic, reproducing_kernel
from sphwave.wavelets import (
    KIND_HEAT,
    KIND_POISSON,
    TruncationError,
    WaveletSpec,
    _zonal_seed,
    directional_wavelet_field,
    g1_closed,
    g2_closed,
    kernel_zonal_coeffs,
    modified_wavelet_field,
    poisson_wavelet_closed,
    poisson_wavelet_terms,
    truncation_degree,
)

from reference import gegenbauer_coefficient, poisson_kernel_closed, truncation_degree_scan

THETA1 = np.linspace(0.05, np.pi - 0.05, 12)
THETA2 = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)


def test_spec_validation():
    lp = LambdaParam(3)
    with pytest.raises(ValueError):
        WaveletSpec(lp=lp, kind="gauss", order=1, rho=0.5)
    with pytest.raises(ValueError):
        WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.0)
    with pytest.raises(ValueError):
        WaveletSpec(lp=lp, kind=KIND_POISSON, order=-1, rho=0.5)
    for rho in (math.inf, math.nan, -0.5):
        with pytest.raises(ValueError):
            WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=rho)


@pytest.mark.parametrize("n", [2, 3, 30, 150, 235, 240, 260])
def test_zonal_seed_matches_mpmath_root_of_the_dimension(n):
    # the seed is sqrt(N(n, l)) / sigma from rational factors under square
    # roots: within 2e-14 of 40-digit arithmetic, sigma exact there too (the
    # exp of a log sum was off by up to 4.5e-13 at n = 235)
    lp = LambdaParam(n)
    seed = _zonal_seed(lp, 1000)
    assert np.all(np.isfinite(seed))
    with mpmath.workdps(40):
        sigma = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        worst = max(abs(mpmath.mpf(value) * sigma / mpmath.sqrt(dim_harmonic(n, l)) - 1) for l, value in enumerate(seed))
    assert worst <= 2e-14


def test_kernel_coeff_degree_zero():
    for n in (2, 3, 5):
        lp = LambdaParam(n)
        for kind in (KIND_POISSON, KIND_HEAT):
            spec = WaveletSpec(lp=lp, kind=kind, order=0, rho=0.7)
            assert kernel_zonal_coeffs(spec, 0)[0] == pytest.approx(1.0 / lp.sigma, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("rho", [0.2, 0.5, 1.0])
def test_poisson_series_matches_closed_form(n, rho):
    lp = LambdaParam(n)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=0, rho=rho)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-11))
    series = synthesize(field, THETA1, 0.0)
    closed = poisson_kernel_closed(lp, rho, THETA1)
    assert np.max(np.abs(series - closed)) < 1e-9 * np.max(np.abs(closed))


def test_zonal_kernel_is_theta2_independent():
    lp = LambdaParam(3)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=0, rho=0.5)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-11))
    v1 = synthesize(field, 1.0, 0.0)
    v2 = synthesize(field, 1.0, 2.0)
    assert float(v1) == pytest.approx(float(v2), rel=1e-14)


def test_heat_kernel_series_oracle():
    # brute-force partial sum of exp(-rho l^2 / (2 lam)) K_l / sigma
    lp = LambdaParam(3)
    rho = 0.3
    spec = WaveletSpec(lp=lp, kind=KIND_HEAT, order=0, rho=rho)
    field = directional_wavelet_field(spec, L=80)
    for th in (0.3, 1.4, 2.8):
        brute = sum(
            math.exp(-rho * l * l / (2 * lp.lam)) * reproducing_kernel(lp, l, math.cos(th))
            for l in range(81)
        ) / lp.sigma
        assert float(synthesize(field, th, 0.0)) == pytest.approx(brute, rel=1e-12)


def test_poisson_coeff_round_trip_through_quadrature():
    lp = LambdaParam(3)
    rho = 0.6
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=0, rho=rho)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-12))
    rule = gauss_jacobi_rule(lp.lam, 220)
    vals = synthesize(field, np.arccos(rule.nodes), 0.0)
    for l in range(10):
        expect = (lp.lam + l) / lp.lam * math.exp(-rho * l) / lp.sigma
        assert gegenbauer_coefficient(rule, vals, l) == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("n", [2, 4])
def test_first_order_matches_closed_form(n):
    lp = LambdaParam(n)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.5)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-11))
    t1, t2 = np.meshgrid(THETA1, THETA2, indexing="ij")
    series = synthesize(field, t1, t2)
    closed = g1_closed(spec, t1, t2)
    assert np.max(np.abs(series - closed)) < 1e-9 * np.max(np.abs(closed))


@pytest.mark.parametrize("n", [3, 5])
def test_second_order_matches_closed_form(n):
    lp = LambdaParam(n)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=2, rho=0.4)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-11))
    t1, t2 = np.meshgrid(THETA1, THETA2, indexing="ij")
    series = synthesize(field, t1, t2)
    closed = g2_closed(spec, t1, t2)
    assert np.max(np.abs(series - closed)) < 1e-9 * np.max(np.abs(closed))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("order", range(7))
def test_closed_form_engine_matches_series(n, order):
    t1, t2 = np.meshgrid(THETA1, THETA2, indexing="ij")
    eps = 1e-12
    for rho in (0.05, 0.3, 1.0):
        spec = WaveletSpec(lp=LambdaParam(n), kind=KIND_POISSON, order=order, rho=rho)
        series = synthesize(directional_wavelet_field(spec, truncation_degree(spec, eps)), t1, t2)
        closed = poisson_wavelet_closed(spec, t1, t2)
        # the series' truncation bound eps is absolute; the rest is rounding
        assert np.max(np.abs(series - closed)) < eps + 1e-12 * np.max(np.abs(closed))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_engine_matches_hand_written_forms(n):
    lp = LambdaParam(n)
    t1, t2 = np.meshgrid(THETA1, THETA2, indexing="ij")
    for rho in (1e-6, 0.05, 0.4, 2.0):
        refs = [
            lambda spec: poisson_kernel_closed(lp, rho, t1),
            lambda spec: g1_closed(spec, t1, t2),
            lambda spec: g2_closed(spec, t1, t2),
        ]
        for order, ref in enumerate(refs):
            spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=order, rho=rho)
            expect = ref(spec)
            got = poisson_wavelet_closed(spec, t1, t2)
            assert got.shape == t1.shape
            assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_closed_form_engine_terms_and_kind():
    # like terms merge: order 6 has 9 terms
    assert [len(poisson_wavelet_terms(1.0, d)) for d in range(7)] == [1, 1, 2, 3, 5, 6, 9]
    # order 1: -2 (lam+1) x2 r D^-(lam+2)
    assert poisson_wavelet_terms(0.5, 1) == [(-3, 0, 1, 1)]
    with pytest.raises(ValueError):
        poisson_wavelet_closed(WaveletSpec(lp=LambdaParam(2), kind=KIND_HEAT, order=2, rho=0.5), 1.0, 0.0)


def test_g1_trivial_zeros_and_oddness():
    spec = WaveletSpec(lp=LambdaParam(3), kind=KIND_POISSON, order=1, rho=0.5)
    assert g1_closed(spec, 0.0, 1.0) == 0.0
    th2 = np.linspace(0, np.pi, 7)
    a = g1_closed(spec, 1.1, th2)
    b = g1_closed(spec, 1.1, np.pi - th2)
    # pi - th2 is inexact in floats, so allow rounding at the scale of the values
    assert np.allclose(a, -b, rtol=1e-12, atol=1e-14 * np.max(np.abs(a)))


def test_g2_at_polar_axis():
    for n in (2, 4):
        lp = LambdaParam(n)
        rho = 0.35
        spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=2, rho=rho)
        r = math.exp(-rho)
        expect = (
            -2 * rho**2 * (lp.lam + 1) * r * (1 - r * r)
            / (lp.sigma * (1 - r) ** (2 * (lp.lam + 2)))
        )
        assert float(g2_closed(spec, 0.0, 0.9)) == pytest.approx(expect, rel=1e-13)


def test_modified_order_zero_is_kernel():
    lp = LambdaParam(3)
    gam = solve_gamma(lp.lam, 0)
    field = modified_wavelet_field(lp, gam, KIND_POISSON, 0.5, L=20)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=0, rho=0.5)
    assert np.allclose(field.coeffs[:, 0], kernel_zonal_coeffs(spec, 20), rtol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modified_order_one_scaling(n):
    # order-1 combination is rho * sqrt(2 lam + 1) * (first derivative field)
    lp = LambdaParam(n)
    rho, L = 0.45, 24
    gam = solve_gamma(lp.lam, 1)
    assert gam.gammas[1] == pytest.approx(math.sqrt(2 * lp.lam + 1), rel=1e-14)
    got = modified_wavelet_field(lp, gam, KIND_POISSON, rho, L=L)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=rho)
    bare = derivative_order(kernel_zonal_coeffs(spec, L), lp, 1)
    expect = rho * math.sqrt(2 * lp.lam + 1) * bare.coeffs
    assert np.allclose(got.coeffs, expect, rtol=1e-13, atol=1e-300)


def test_heat_side_has_no_rho_prefactor():
    lp = LambdaParam(2)
    rho, L = 0.6, 16
    gam = solve_gamma(lp.lam, 1)
    got = modified_wavelet_field(lp, gam, KIND_HEAT, rho, L=L)
    spec = WaveletSpec(lp=lp, kind=KIND_HEAT, order=1, rho=rho)
    bare = derivative_order(kernel_zonal_coeffs(spec, L), lp, 1)
    assert np.allclose(got.coeffs, gam.gammas[1] * bare.coeffs, rtol=1e-13, atol=1e-300)


def test_truncation_monotone_in_rho():
    lp = LambdaParam(3)
    degrees = [
        truncation_degree(WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=rho), 1e-10)
        for rho in (0.2, 0.5, 1.0, 2.0)
    ]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("n,order,rho", [(2, 1, 1.0), (3, 2, 0.5), (5, 1, 0.3)])
def test_truncation_bound_validated_by_direct_tail(n, order, rho):
    lp = LambdaParam(n)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=order, rho=rho)
    eps = 1e-10
    L = truncation_degree(spec, eps)
    t1, t2 = np.meshgrid(THETA1, THETA2, indexing="ij")
    short = synthesize(directional_wavelet_field(spec, L=L), t1, t2)
    extended = synthesize(directional_wavelet_field(spec, L=L + 250), t1, t2)
    assert np.max(np.abs(extended - short)) < eps


# (n, order, kind, rho, eps) -> L, recorded from the two-evaluations-per-degree
# scan with factorial harmonic dimensions; eval reports write L, so it must not move.
TRUNCATION_TABLE = [
    (2, 1, KIND_POISSON, 0.01, 1e-10, 3917),
    (2, 0, KIND_POISSON, 0.5, 1e-10, 52),
    (2, 2, KIND_POISSON, 0.05, 1e-8, 718),
    (3, 1, KIND_POISSON, 0.1, 1e-10, 394),
    (3, 2, KIND_POISSON, 0.03, 1e-10, 1623),
    (4, 3, KIND_POISSON, 0.2, 1e-6, 210),
    (6, 1, KIND_POISSON, 0.5, 1e-12, 98),
    (2, 3, KIND_POISSON, 1.0, 1e-3, 21),
    (2, 1, KIND_HEAT, 0.01, 1e-10, 55),
    (3, 2, KIND_HEAT, 0.1, 1e-8, 24),
    (5, 4, KIND_HEAT, 0.05, 1e-10, 66),
    (6, 0, KIND_HEAT, 1.0, 1e-6, 9),
]


@pytest.mark.parametrize("n,order,kind,rho,eps,expected", TRUNCATION_TABLE)
def test_truncation_degree_recorded_values(n, order, kind, rho, eps, expected):
    spec = WaveletSpec(lp=LambdaParam(n), kind=kind, order=order, rho=rho)
    assert truncation_degree(spec, eps) == expected


def test_truncation_degree_matches_scalar_scan():
    # seeded sweep over both kinds, cap failures included: the array scan
    # returns the degree (or the error) of the one-degree-at-a-time scan
    rng = np.random.default_rng(7)
    outcomes = []
    for _ in range(3000):
        n, order = int(rng.integers(2, 7)), int(rng.integers(0, 7))
        kind = (KIND_POISSON, KIND_HEAT)[int(rng.integers(2))]
        rho = math.exp(rng.uniform(math.log(0.008), math.log(3.0)))
        eps = 10.0 ** rng.uniform(-14.0, -4.0)
        spec = WaveletSpec(lp=LambdaParam(n), kind=kind, order=order, rho=rho)
        got, expect = [], []
        for scan, out in ((truncation_degree, got), (truncation_degree_scan, expect)):
            try:
                out.append(scan(spec, eps))
            except TruncationError as exc:
                out.append(str(exc))
        assert got == expect, (n, order, kind, rho, eps)
        outcomes.append(isinstance(got[0], str))
    assert 0 < sum(outcomes) < len(outcomes)


def test_truncation_cap_rejects_tiny_scales():
    lp = LambdaParam(2)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=1e-4)
    with pytest.raises(TruncationError):
        truncation_degree(spec, 1e-12)


def test_truncation_rejects_orders_whose_bound_overflows():
    lp = LambdaParam(2)
    for order in (200, 6000):  # (l + lam)^order overflows; 6000 is also above the cap
        with pytest.raises(TruncationError):
            truncation_degree(WaveletSpec(lp=lp, kind=KIND_POISSON, order=order, rho=0.5), 1e-10)
    with pytest.raises(TruncationError):  # the surface measure overflows
        truncation_degree(WaveletSpec(lp=LambdaParam(400), kind=KIND_POISSON, order=1, rho=0.5), 1e-10)


def test_truncation_never_certifies_on_an_underflowed_weight():
    # at rho = 0.5 the weight exp(-rho l) flushes to 0 past l = 1490; a degree
    # is returned only where the bound's last term still has a nonzero weight
    # (subnormal ones count), otherwise the error names the float limit
    outcomes = set()
    for n in range(150, 261):
        for order in (1, 2, 4):
            spec = WaveletSpec(lp=LambdaParam(n), kind=KIND_POISSON, order=order, rho=0.5)
            try:
                L = truncation_degree(spec, 1e-10)
            except TruncationError as exc:
                assert "underflows" in str(exc) or "overflows" in str(exc), (n, order, str(exc))
                outcomes.add("raised")
            else:
                assert math.exp(-0.5 * (L + 2)) > 0.0, (n, order, L)
                outcomes.add("certified")
    assert outcomes == {"raised", "certified"}
    assert truncation_degree(WaveletSpec(lp=LambdaParam(150), kind=KIND_POISSON, order=1, rho=0.5), 1e-10) == 1355
    assert truncation_degree(WaveletSpec(lp=LambdaParam(160), kind=KIND_POISSON, order=1, rho=0.5), 1e-10) == 1454
    with pytest.raises(TruncationError, match="weight underflows a float at l=1491"):
        truncation_degree(WaveletSpec(lp=LambdaParam(200), kind=KIND_POISSON, order=1, rho=0.5), 1e-10)


@pytest.mark.parametrize(("n", "order", "band", "rho", "first"), [(250, 1, 2000, 0.5, 1757), (220, 2, 5000, 0.05, 3997)])
def test_field_whose_seed_leaves_the_floats_names_the_degree(n, order, band, rho, first, recwarn):
    # sqrt(N(n, l)) / sigma overflows where exp(-rho l) has flushed to 0 (or
    # nearly), and inf * 0 or inf - inf left nan in the field
    spec = WaveletSpec(lp=LambdaParam(n), kind=KIND_POISSON, order=order, rho=rho)
    with pytest.raises(ValueError, match=rf"degree l={first} is not a finite float at n={n}$"):
        directional_wavelet_field(spec, L=band)
    assert not recwarn.list
    assert np.all(np.isfinite(directional_wavelet_field(spec, L=first - 1).coeffs))


def test_library_errors_are_value_errors():
    assert issubclass(TruncationError, ValueError) and issubclass(GammaSolveError, ValueError)


def test_l2_norm_stable_under_refinement():
    lp = LambdaParam(3)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.8)
    L = truncation_degree(spec, 1e-12)
    a, b = (sector_pair_sum(f, f).sum() for f in (directional_wavelet_field(spec, L=M) for M in (L, 2 * L)))
    assert abs(a - b) < 1e-10 * b


def test_modified_field_lambda_mismatch():
    gam = solve_gamma(1.0, 1)  # solved for the 3-sphere
    with pytest.raises(ValueError):
        modified_wavelet_field(LambdaParam(2), gam, KIND_POISSON, 0.5, L=8)
