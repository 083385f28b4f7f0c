"""Ladder coefficients, derivative steps, synthesis, structure checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sphwave import rotderiv
from sphwave.rotderiv import (
    CoefficientField,
    _angular,
    _beta_sq,
    _norm_column,
    beta,
    beta_ladder,
    derivative_order,
    derivative_step,
    sector_pair_sum,
    structure_polynomial_check,
    synthesize,
    synthesize_frame,
    zonal_field,
)
from sphwave.special import LambdaParam, gegenbauer_batch, gegenbauer_weighted_sum, norm_const_a
from sphwave.wavelets import KIND_HEAT, KIND_POISSON, WaveletSpec, directional_wavelet_field, truncation_degree

import reference
from reference import loop_error_bound, synthesize_frame_per_column


def rotated_zonal_value(coeffs, lam, theta1, theta2, angle):
    """f(R_angle x) for zonal f with Gegenbauer coefficients, bypassing the ladder.

    Only needs the first coordinate of the rotated point:
    cos(theta1') = cos(angle) cos(theta1) - sin(angle) sin(theta1) cos(theta2).
    """
    t = np.cos(angle) * np.cos(theta1) - np.sin(angle) * np.sin(theta1) * np.cos(theta2)
    return gegenbauer_weighted_sum(lam, coeffs, t)


def gegenbauer_to_zonal_field(lp, ghat):
    """Convert Gegenbauer coefficients f^(l) to sector coefficients a_l^0."""
    return np.array([g / norm_const_a(lp, l, 0) for l, g in enumerate(ghat)])


def test_beta_endpoints():
    assert beta(1.0, 5, 5) == 0.0
    assert beta(1.0, 5, 7) == 0.0
    assert beta(1.0, 5, -1) == 0.0
    with pytest.raises(ValueError):
        beta(1.0, 5, -2)


def test_beta_half_integer_closed_form():
    for l in range(1, 12):
        for k in range(l):
            assert beta(0.5, l, k) == pytest.approx(np.sqrt((l - k) * (l + k + 1)) / 2, rel=1e-14)


def test_beta_zonal_generic_lambda():
    for lam in (1.0, 1.5, 2.5):
        for l in (1, 4, 9):
            assert beta(lam, l, 0) == pytest.approx(
                np.sqrt(l * (2 * lam + l) / (2 * lam + 1)), rel=1e-14
            )


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_beta_ladder_equals_scalar_beta(lam):
    for L in (0, 1, 5, 60):
        for k in range(-1, 8):
            ladder = beta_ladder(lam, L, k)
            assert ladder.shape == (L + 1,)
            assert np.array_equal(ladder, [beta(lam, l, k) for l in range(L + 1)])
            assert not np.any(ladder[: k + 1])  # beta_{l,k} = 0 for k >= l
    assert np.array_equal(beta_ladder(0.5, 4, 0)[1:], np.sqrt([2.0, 6.0, 12.0, 20.0]) / 2.0)
    with pytest.raises(ValueError):
        beta_ladder(lam, 5, -2)
    for k in (-1, 0, 3):
        with pytest.raises(ValueError, match="half-integer"):
            beta_ladder(0.77, 10, k)


@pytest.mark.parametrize("n", [2, 3, 7, 39, 99, 150, 260])
def test_beta_ladder_keeps_the_bits_of_the_closed_form(n):
    # the exact beta^2 = (c0 + c1 u)/den in floats against the unreduced float
    # closed form: both are one correctly rounded division of exact integers
    lam = LambdaParam(n).lam
    for k in range(9):
        assert np.array_equal(beta_ladder(lam, 5000, k), reference.beta_ladder_closed_form(lam, 5000, k)), (n, k)


def test_field_validation_rejects_upper_triangle():
    lp = LambdaParam(3)
    bad = np.zeros((3, 2))
    bad[0, 1] = 1.0  # k1=1 > l=0
    with pytest.raises(ValueError):
        CoefficientField(lp, bad)


def test_step_of_zero_is_zero():
    lp = LambdaParam(4)
    out = derivative_step(zonal_field(lp, np.zeros(6)))
    assert not np.any(out.coeffs)


def test_step_keeps_the_bits_of_the_loop_over_orders():
    # the slice updates against the loop, over seven chained steps from a zonal
    # seed that carries negative zeros, signed zeros of the output included
    rng = np.random.default_rng(11)
    for n in range(2, 31):
        lp = LambdaParam(n)
        for L in (0, 1, 2, 7, 40, 300):
            seed = rng.standard_normal(L + 1)
            seed[::3] = -0.0
            field = want = zonal_field(lp, seed)
            for _ in range(7):
                field, want = derivative_step(field), reference.derivative_step_loop(want)
                assert np.array_equal(field.coeffs, want.coeffs), (n, L)
                assert np.array_equal(np.signbit(field.coeffs), np.signbit(want.coeffs)), (n, L)


def test_step_linearity():
    lp = LambdaParam(3)
    rng = np.random.default_rng(5)
    f = zonal_field(lp, rng.standard_normal(9))
    g = zonal_field(lp, rng.standard_normal(9))
    combo = CoefficientField(lp, 2.5 * f.coeffs - 1.25 * g.coeffs)
    lhs = derivative_step(combo).coeffs
    rhs = 2.5 * derivative_step(f).coeffs - 1.25 * derivative_step(g).coeffs
    # linear to the last ulp (rounding points differ between the two sides)
    assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_single_step_zonal_coupling(n):
    # one derivative of Y_l^0 lands on -beta_{l,0} Y_l^1
    lp = LambdaParam(n)
    seed = np.zeros(4)
    seed[1] = 1.0
    out = derivative_step(zonal_field(lp, seed))
    expect = -np.sqrt((2 * lp.lam + 1) * 1 / (2 * lp.lam + 1))  # -beta_{1,0}
    assert out.coeffs[1, 1] == pytest.approx(expect, rel=1e-14)
    assert out.coeffs[1, 0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_steps_zonal_part(n):
    # a_l^0 after two steps is -beta_{l,0}^2 (times 2 on the 2-sphere),
    # i.e. -l(2 lam + l)/(2 lam + 1) in every dimension.
    lp = LambdaParam(n)
    L = 8
    out = derivative_order(np.ones(L + 1), lp, 2)
    for l in range(1, L + 1):
        u = l * (2 * lp.lam + l)
        assert out.coeffs[l, 0] == pytest.approx(-u / (2 * lp.lam + 1), rel=1e-13)
        if l >= 2:
            b0, b1 = beta(lp.lam, l, 0), beta(lp.lam, l, 1)
            assert out.coeffs[l, 2] == pytest.approx(b0 * b1, rel=1e-13)


def test_order_zero_identity():
    lp = LambdaParam(3)
    z = np.arange(7.0)
    out = derivative_order(z, lp, 0)
    assert np.array_equal(out.coeffs[:, 0], z)
    assert out.order_bound == 0


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4), (4, 5)])
def test_parity_pattern_exact_zeros(n, d):
    lp = LambdaParam(n)
    out = derivative_order(np.ones(12), lp, d)
    for k1 in range(out.order_bound + 1):
        if (k1 - d) % 2 != 0:
            assert not np.any(out.coeffs[:, k1])


def test_degree_preservation():
    lp = LambdaParam(3)
    seed = np.zeros(9)
    seed[4] = 1.0
    out = derivative_order(seed, lp, 3)
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    assert not np.any(out.coeffs[mask, :])


def test_synthesize_constant():
    lp = LambdaParam(4)
    f = zonal_field(lp, np.array([1.0]))
    th = np.linspace(0, np.pi, 5)
    assert np.allclose(synthesize(f, th, 0.3), 1.0, rtol=1e-14)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (4, 4)])
def test_synthesize_column_by_row_matches_meshgrid_bits(n, d):
    lp = LambdaParam(n)
    zonal = np.random.default_rng(n).standard_normal(40) / np.arange(1, 41) ** 2
    field = derivative_order(zonal, lp, d)
    theta1 = np.linspace(0.0, np.pi, 9)[1:-1]
    theta2 = np.linspace(0.0, 2.0 * np.pi, 11, endpoint=False)
    t1g, t2g = np.meshgrid(theta1, theta2, indexing="ij")
    separable = synthesize(field, theta1[:, None], theta2[None, :])
    assert separable.shape == t1g.shape
    assert separable.tobytes() == synthesize(field, t1g, t2g).tobytes()


@pytest.mark.parametrize(
    "n, kind, order, rho",
    [
        (2, KIND_POISSON, 1, 0.03),
        (2, KIND_POISSON, 2, 0.03),
        (3, KIND_POISSON, 2, 0.04),
        (2, KIND_POISSON, 4, 0.05),
        (4, KIND_POISSON, 5, 0.2),
        (6, KIND_POISSON, 6, 0.3),
        (2, KIND_HEAT, 3, 0.1),
        (5, KIND_HEAT, 0, 0.5),
    ],
)
def test_synthesize_one_recurrence_matches_per_column_bits(n, kind, order, rho, monkeypatch):
    spec = WaveletSpec(lp=LambdaParam(n), kind=kind, order=order, rho=rho)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-10))
    theta1 = np.linspace(0.0, np.pi, 14)[:, None]  # the poles included
    theta2 = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)[None, :]
    args = (field, np.cos(theta1), np.sin(theta1), theta2)
    got = synthesize_frame(*args)
    # stacking the order rows keeps each row's bits: the same per-column
    # synthesis through the package's single-row sums
    with monkeypatch.context() as patch:
        patch.setattr(reference, "gegenbauer_weighted_sum_one_row", gegenbauer_weighted_sum)
        per_column = synthesize_frame_per_column(*args)
    assert np.array_equal(got, per_column)
    assert np.array_equal(np.signbit(got), np.signbit(per_column))
    # against the per-degree loop, within its error bound per column
    lp, L = field.lp, field.degree_max
    bound = sum(
        loop_error_bound(lp.lam + k, field.coeffs[k:, k] * _norm_column(lp, L, k)) * np.max(np.abs(_angular(lp, k, theta2)))
        for k in range(field.order_bound + 1)
    )
    assert np.max(np.abs(got - synthesize_frame_per_column(*args))) <= bound


@pytest.mark.parametrize("n", [2, 3])
def test_first_derivative_vs_central_difference(n):
    lp = LambdaParam(n)
    rng = np.random.default_rng(42)
    L = 20
    ghat = rng.standard_normal(L + 1) * np.exp(-0.2 * np.arange(L + 1))
    zonal = gegenbauer_to_zonal_field(lp, ghat)
    deriv = derivative_order(zonal, lp, 1)
    h = 1e-5
    for theta1, theta2 in [(0.7, 0.4), (1.3, 2.5), (2.2, 1.0)]:
        fd = (
            rotated_zonal_value(ghat, lp.lam, theta1, theta2, h)
            - rotated_zonal_value(ghat, lp.lam, theta1, theta2, -h)
        ) / (2 * h)
        got = float(synthesize(deriv, theta1, theta2))
        assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_second_derivative_vs_central_difference(n):
    lp = LambdaParam(n)
    rng = np.random.default_rng(43)
    L = 16
    ghat = rng.standard_normal(L + 1) * np.exp(-0.3 * np.arange(L + 1))
    zonal = gegenbauer_to_zonal_field(lp, ghat)
    deriv = derivative_order(zonal, lp, 2)

    def second_diff(theta1, theta2, h):
        return (
            rotated_zonal_value(ghat, lp.lam, theta1, theta2, h)
            - 2 * rotated_zonal_value(ghat, lp.lam, theta1, theta2, 0.0)
            + rotated_zonal_value(ghat, lp.lam, theta1, theta2, -h)
        ) / h**2

    for theta1, theta2 in [(0.9, 0.6), (1.8, 4.0)]:
        h = 1e-3
        richardson = (4 * second_diff(theta1, theta2, h / 2) - second_diff(theta1, theta2, h)) / 3
        got = float(synthesize(deriv, theta1, theta2))
        assert got == pytest.approx(richardson, rel=1e-4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_derivative_closed_identity(n):
    # one rotational derivative of a zonal function is cos(theta2) d/d(theta1)
    lp = LambdaParam(n)
    rng = np.random.default_rng(44)
    L = 15
    ghat = rng.standard_normal(L + 1) * np.exp(-0.25 * np.arange(L + 1))
    deriv = derivative_order(gegenbauer_to_zonal_field(lp, ghat), lp, 1)
    th1 = np.linspace(0.2, 2.9, 9)
    th2 = np.linspace(0.1, 6.1, 7)
    t1, t2 = np.meshgrid(th1, th2, indexing="ij")
    # d/d theta1 of sum ghat_l C_l(cos theta1), via the order-shift derivative
    dcoef = 2 * lp.lam * ghat[1:]
    dtheta = -np.sin(t1) * gegenbauer_weighted_sum(lp.lam + 1, dcoef, np.cos(t1))
    expect = dtheta * np.cos(t2)
    got = synthesize(deriv, t1, t2)
    assert np.max(np.abs(got - expect)) < 1e-9 * max(1.0, np.max(np.abs(expect)))


def test_pair_sum_weights_on_s2():
    lp = LambdaParam(2)
    a = np.zeros((3, 2))
    a[1, 0] = 1.0
    a[2, 1] = 3.0
    f = CoefficientField(lp, a)
    s = sector_pair_sum(f, f)
    assert s[1] == 1.0
    assert s[2] == 2.0 * 9.0  # weight 2 for k1 >= 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_structure_polynomial_degrees(n):
    lp = LambdaParam(n)
    zonal = np.ones(31)
    for d in (1, 2, 3):
        reports = structure_polynomial_check(lp, zonal, d)
        by_j = {r["j"]: r for r in reports}
        assert by_j[d]["degree"] == 0
        if d >= 2:
            assert by_j[d - 2]["degree"] == 1
        if d == 2:
            assert by_j[0]["leading_coefficient"] == -1.0 / (2 * lp.lam + 1)
        assert all(r["ok"] for r in reports)


@pytest.mark.parametrize("n", [2, 3, 7, 30, 100])
def test_structure_check_holds_at_high_band_and_order(n):
    # the float ladder against the exact P_{d,j} at any band and order
    lp = LambdaParam(n)
    rng = np.random.default_rng(n)
    for L in (1000, 5000):
        zonal = rng.standard_normal(L + 1)
        for d in range(13):
            reports = structure_polynomial_check(lp, zonal, d)
            assert [r["j"] for r in reports] == list(range(d % 2, d + 1, 2))
            for r in reports:
                assert r["degree"] == r["expected_degree"] == (d - r["j"]) // 2
                assert r["ok"] and r["max_residual"] < 1e-12, (L, d, r)


def test_structure_check_fails_on_a_mutated_ladder(monkeypatch):
    lp = LambdaParam(3)
    zonal = np.ones(41)
    assert all(r["ok"] for r in structure_polynomial_check(lp, zonal, 4))
    exact = rotderiv.beta_ladder

    def mutated(lam, L, k1):
        out = exact(lam, L, k1)
        return out * (1.0 + 1e-9) if k1 == 1 else out

    monkeypatch.setattr(rotderiv, "beta_ladder", mutated)
    reports = structure_polynomial_check(lp, zonal, 4)
    assert not all(r["ok"] for r in reports)
    assert max(r["max_residual"] for r in reports) > 1e-10


def ladder_normalization_square(n: int, k: int) -> Fraction:
    """(prod_{i<k} beta_{l,i} A_l^k / A_l^0)^2, free of l: c_k prod_{i<k} 4 (lam+i)^2 e_i b_i.

    beta_{l,i}^2 = b_i (l-i)(l+n-1+i), with b_i the leading coefficient of
    the exact beta^2 (b_0 = 1/4 on S^2), cancels the degree factors of A_l^k.
    """
    c = Fraction(1) if n == 2 else Fraction(n + 2 * k - 2, n - 2)
    for i in range(k):
        e = Fraction(1) if n == 2 else Fraction(i + 1, n - 2 + i)
        nums, den = _beta_sq(n - 1, i)
        b = Fraction(1, 4) if n == 2 and i == 0 else Fraction(nums[1], den)
        c *= (n - 1 + 2 * i) ** 2 * e * b
    return c


@pytest.mark.parametrize("n", [2, 3, 4, 7, 30, 100, 260])
def test_ladder_times_normalization_is_an_exact_constant(n):
    # the float ladder and the float constants meet an exact rational at every
    # degree up to 3000 (worst 8.9e-16); one factor off by 1e-12 would not
    lp = LambdaParam(n)
    L = 3000
    a0 = norm_const_a(lp, np.arange(L + 1), 0)
    prod = np.ones(L + 1)
    for k in range(1, 7):
        prod = prod * beta_ladder(lp.lam, L, k - 1)
        got = prod[k:] * norm_const_a(lp, np.arange(k, L + 1), k) / a0[k:]
        want = math.sqrt(ladder_normalization_square(n, k))
        assert np.max(np.abs(got / want - 1.0)) <= 4e-15, k


def test_negative_derivative_order_rejected():
    with pytest.raises(ValueError):
        derivative_order(np.ones(3), LambdaParam(3), -1)
    with pytest.raises(ValueError):
        structure_polynomial_check(LambdaParam(3), np.ones(10), -1)
