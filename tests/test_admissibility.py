"""q polynomials, gamma solving, pair condition, zonal product, scale tail."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.optimize import brentq

from sphwave.admissibility import (
    GammaSolveError,
    GammaVector,
    _q_table,
    admissibility_constant,
    pair_coefficient_sum,
    q_polynomial,
    solve_gamma,
    tail_integral,
    tail_l1_sweep,
    verify_pair_condition1,
    zonal_product_series,
)
from sphwave.rotderiv import CoefficientField, derivative_order, sector_pair_sum
from sphwave.special import LambdaParam, dim_harmonic, reproducing_kernel
from sphwave.wavelets import KIND_HEAT, KIND_POISSON, modified_wavelet_field


def qval(lam, d, dp, u):
    return sum(float(c) * u**k for k, c in enumerate(q_polynomial(lam, d, dp)))


def corrected_order3_example(lam):
    """Printed order-3 vector with the radicand sign fixed: (lam - 1), not (1 - lam)."""
    g1 = 4 * math.sqrt((lam - 1) * lam * (2 * lam + 1) / 15)
    inner = 2 * math.sqrt((lam - 1) * lam * (3 + 2 * lam) * (5 + 2 * lam))
    g2 = 2 * math.sqrt((2 * lam + 1) * (inner + 5 * lam * (3 + 2 * lam)) / 15)
    g3 = math.sqrt((2 * lam + 1) * (3 + 2 * lam) * (5 + 2 * lam) / 15)
    return (0.0, g1, g2, g3)


def test_q_trivials():
    assert q_polynomial(1.0, 0, 0) == (Fraction(1),)
    for lam in (0.5, 1.0, 2.5):
        lamF = Fraction(lam)
        assert q_polynomial(lam, 1, 1) == (Fraction(0), 1 / (2 * lamF + 1))
        assert q_polynomial(lam, 2, 0) == (Fraction(0), -1 / (2 * lamF + 1))


def test_q_cross_parity_zero():
    assert q_polynomial(1.5, 2, 1) == (Fraction(0),)
    assert q_polynomial(0.5, 3, 0) == (Fraction(0),)


def test_q_degree():
    for lam in (0.5, 1.0, 2.0):
        for d in range(5):
            for dp in range(d % 2, 5, 2):
                q = q_polynomial(lam, d, dp)
                assert len(q) - 1 == (d + dp) // 2
                assert q[-1] != 0


def test_q_structural_identity_q13_is_minus_q22():
    for lam in (0.5, 1.0, 1.5, 3.0):
        q13 = q_polynomial(lam, 1, 3)
        q22 = q_polynomial(lam, 2, 2)
        assert q13 == tuple(-c for c in q22)


def test_q_table_matches_q_polynomial():
    # the solver's table and the public builder share one prefix-product sum
    for lam in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        qs = _q_table(lam, 6)
        assert sorted(qs) == [(d, dp) for d in range(7) for dp in range(d, 7, 2)]
        for (d, dp), q in qs.items():
            assert tuple(q) == q_polynomial(lam, d, dp)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_matches_numeric_ladder(n):
    # exact rational polynomials against the float derivative machinery,
    # including the 2-sphere factor-2 bookkeeping
    lp = LambdaParam(n)
    L = 16
    fields = [derivative_order(np.ones(L + 1), lp, d) for d in range(5)]
    for d in range(5):
        for dp in range(d % 2, 5, 2):
            pair = sector_pair_sum(fields[d], fields[dp])
            for l in (1, 2, 3, 7, 15):
                u = l * (2 * lp.lam + l)
                expect = qval(lp.lam, d, dp, u)
                assert pair[l] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_gamma_order_one_and_two_match_printed_formulas():
    for lam in (0.5, 1.0, 1.5, 2.0):
        v1 = solve_gamma(lam, 1)
        assert v1.gammas[0] == 0.0
        assert v1.gammas[1] == pytest.approx(math.sqrt(2 * lam + 1), rel=1e-12)
        v2 = solve_gamma(lam, 2)
        assert v2.gammas[0] == 0.0
        assert v2.gammas[1] == pytest.approx(2 * math.sqrt(lam * (2 * lam + 1) / 3), rel=1e-12)
        assert v2.gammas[2] == pytest.approx(
            math.sqrt((2 * lam + 1) * (2 * lam + 3) / 3), rel=1e-12
        )


def test_gamma_order_three_matches_corrected_example():
    for lam in (1.0, 1.5, 2.0):
        got = solve_gamma(lam, 3).gammas
        expect = corrected_order3_example(lam)
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, abs=1e-10 * max(1.0, abs(e)))


def test_gamma_order_three_infeasible_on_two_sphere():
    with pytest.raises(GammaSolveError, match="-8/15"):
        solve_gamma(0.5, 3)


def test_gamma_envelope_and_validation():
    with pytest.raises(ValueError):
        solve_gamma(1.0, 7)
    v = solve_gamma(1.0, 0)
    assert v.gammas == (1.0,)
    with pytest.raises(ValueError):
        GammaVector(order=2, lam=1.0, gammas=(0.0, 1.0, -2.0))


@pytest.mark.parametrize("lam,dfrak", [(0.5, 4), (1.0, 4), (1.0, 5), (1.5, 5), (2.0, 5), (0.5, 6), (1.0, 6)])
def test_gamma_higher_orders_solvable(lam, dfrak):
    vec = solve_gamma(lam, dfrak)
    assert vec.gammas[0] == 0.0
    assert vec.gammas[-1] > 0.0


@pytest.mark.parametrize("lam,dfrak", [(1.5, 4), (2.0, 4)])
def test_gamma_higher_orders_unsolvable_cases(lam, dfrak):
    with pytest.raises(GammaSolveError):
        solve_gamma(lam, dfrak, restarts=40)


@pytest.mark.parametrize("n,dfrak", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 3)])
def test_collapse_identity_on_fields(n, dfrak):
    # the module's core oracle: combined fields have sector sums u^dfrak
    lp = LambdaParam(n)
    gam = solve_gamma(lp.lam, dfrak)
    L = 30
    fields = [derivative_order(np.ones(L + 1), lp, d) for d in range(dfrak + 1)]
    combo = np.zeros((L + 1, dfrak + 1))
    for d, f in enumerate(fields):
        combo[:, : d + 1] += gam.gammas[d] * f.coeffs
    combined = CoefficientField(lp, combo)
    s = sector_pair_sum(combined, combined)
    for l in range(1, L + 1):
        u = l * (2 * lp.lam + l)
        assert s[l] == pytest.approx(u**dfrak, rel=1e-9)


@pytest.mark.parametrize("n,dfrak", [(3, 2), (2, 1)])
def test_pair_condition_small_sweep(n, dfrak):
    lp = LambdaParam(n)
    rows = verify_pair_condition1(lp, dfrak, 6)
    for row in rows:
        assert row["pass"], row
        assert row["paths_rel_diff"] < 1e-8
        assert abs(row["ratio"] - 1.0) < 1e-6


# quadrature_scaled of verify_pair_condition1(LambdaParam(3), 2, 20), l = 1..20, as
# computed with a per-node sector ladder in the integrand
PINNED_N3_ORDER2 = [
    4.000000000000001, 9.000000000000002, 16.000000000000014, 24.99999999999999, 35.99999999999996,
    49.000000000000085, 64.0, 81.00000000000003, 100.00000000000021, 120.99999999999956,
    143.9999999999995, 168.99999999999937, 196.00000000000074, 225.0000000000001, 256.0,
    288.99999999999994, 324.0, 361.0000000000026, 400.0000000000001, 441.0,
]


def test_pair_condition_rows_pinned():
    rows = verify_pair_condition1(LambdaParam(3), 2, 20)
    assert [row["l"] for row in rows] == list(range(1, 21))
    assert all(row["pass"] for row in rows)
    assert [row["quadrature_scaled"] for row in rows] == pytest.approx(PINNED_N3_ORDER2, rel=1e-14, abs=0.0)


# cells with n <= 6 and order <= 6 where solve_gamma finds no real vector
NO_GAMMA = {(2, 3), (2, 5), (4, 4), (5, 4), (6, 4), (4, 6), (5, 6)}


def test_pair_sum_matches_closed_form():
    # N_l rho^order exp(-rho u / 2 lam) u^order / sigma^2, a ladder-free oracle;
    # the Newton-solved gammas of orders 4-6 set the worst case, about 8e-12
    for n in range(2, 7):
        lp = LambdaParam(n)
        for order in range(7):
            if (n, order) in NO_GAMMA:
                continue
            gam = solve_gamma(lp.lam, order)
            for rho in (1e-3, 0.05, 0.7, 3.0):
                for l in (1, 2, 5, 13, 40):
                    u = l * (2 * lp.lam + l)
                    expect = dim_harmonic(n, l) * rho**order * math.exp(-rho * u / (2 * lp.lam)) * u**order
                    assert pair_coefficient_sum(lp, gam, rho, l) == pytest.approx(
                        expect / lp.sigma**2, rel=1e-10, abs=0.0
                    ), (n, order, rho, l)


def test_pair_sum_degree_zero_annihilated():
    lp = LambdaParam(3)
    gam = solve_gamma(lp.lam, 2)
    assert pair_coefficient_sum(lp, gam, 0.7, 0) == pytest.approx(0.0, abs=1e-300)


def test_zonal_product_single_harmonic():
    lp = LambdaParam(3)
    a = np.zeros((6, 3))
    a[4, 2] = 1.5
    f = CoefficientField(lp, a)
    z = zonal_product_series(lp, f, f)
    assert z[4] == pytest.approx(1.5**2 / dim_harmonic(3, 4))
    assert not np.any(np.delete(z, 4))


@pytest.mark.parametrize("n,dfrak", [(2, 2), (3, 1), (4, 2)])
def test_zonal_product_of_pair_matches_formula(n, dfrak):
    # product coefficients rho^dfrak (1/sigma^2) exp(-rho u / (2 lam)) u^dfrak on K_l
    lp = LambdaParam(n)
    rho, L = 0.8, 24
    gam = solve_gamma(lp.lam, dfrak)
    G = modified_wavelet_field(lp, gam, KIND_POISSON, rho, L=L)
    H = modified_wavelet_field(lp, gam, KIND_HEAT, rho, L=L)
    z = zonal_product_series(lp, G, H)
    assert zonal_product_series(lp, H, G) == pytest.approx(z)
    for l in range(1, L + 1):
        u = l * (2 * lp.lam + l)
        expect = rho**dfrak / lp.sigma**2 * math.exp(-rho * u / (2 * lp.lam)) * u**dfrak
        assert z[l] == pytest.approx(expect, rel=1e-11)


def test_admissibility_constant_value():
    lp = LambdaParam(2)
    assert admissibility_constant(lp, 1) == pytest.approx(lp.sigma**2, rel=1e-15)
    lp3 = LambdaParam(3)
    assert admissibility_constant(lp3, 2) == pytest.approx(lp3.sigma**2 / 4.0, rel=1e-15)


def test_tail_single_term_hand_formula():
    from scipy.special import gammaincc

    lp = LambdaParam(2)
    dfrak, R = 2, 0.9
    t = 0.4
    # restrict to the l=1 term by choosing R large enough that l >= 2 is negligible
    val = tail_integral(lp, dfrak, 6.0, t, 60)
    lam = lp.lam
    x1 = 6.0 * 1 * (2 * lam + 1) / (2 * lam)
    hand = (2 * lam) ** dfrak * gammaincc(dfrak, x1) * math.gamma(dfrak) * reproducing_kernel(
        lp, 1, t
    ) / lp.sigma**2
    assert val == pytest.approx(hand, rel=1e-10)
    # the full value at moderate R is finite and the remainder is certified
    tail_integral(lp, dfrak, R, t, 200)


def test_tail_vanishes_for_large_cutoff():
    lp = LambdaParam(2)
    assert abs(tail_integral(lp, 2, 40.0, 0.2, 40)) < 1e-15


def test_tail_truncation_error():
    lp = LambdaParam(2)
    with pytest.raises(ValueError):
        tail_integral(lp, 2, 0.05, 0.2, 10)


def tail_l1_oracle(R: float) -> float:
    """Exact spherical L1 norm of the order-2 scale tail on S^2 at cutoff R.

    On S^2 (lam = 1/2, C_l = P_l, sigma = 4 pi) with order 2 the tail weight
    (2 lam)^2 Gamma(2, x_l) (lam + l)/lam is (2l + 1)(1 + x_l) e^{-x_l} with
    x_l = R l (l + 1), so Phi_R(t) = sum_{l>=1} (2l + 1)(1 + x_l) e^{-x_l}
    P_l(t) / (4 pi)^2, and the normalized L1 norm is (2 pi / 4 pi) times the
    integral of |Phi_R| over [-1, 1].  Phi_R changes sign exactly once; each
    lobe is integrated exactly with the Legendre antiderivative.  Degrees with
    x_l >= 800 are dropped: their terms underflow to zero.
    """
    lmax = int(math.sqrt(800.0 / R)) + 2
    l = np.arange(lmax + 1)
    x = R * l * (l + 1.0)
    coef = (2 * l + 1) * (1.0 + x) * np.exp(-x) / (4 * math.pi) ** 2
    coef[0] = 0.0
    grid = np.linspace(-1.0, 1.0, 2001)
    # the unpacking fails unless the grid sees exactly one sign change
    (change,) = np.flatnonzero(np.diff(np.sign(legendre.legval(grid, coef))))
    root = brentq(lambda t: legendre.legval(t, coef), grid[change], grid[change + 1], xtol=1e-16)
    anti = legendre.legint(coef, lbnd=-1.0)
    lower, total = legendre.legval(root, anti), legendre.legval(1.0, anti)
    return 0.5 * (abs(lower) + abs(total - lower))


def test_tail_l1_sweep_bounded():
    # the sweep climbs monotonically to a finite plateau: successive ratios
    # shrink toward 1 and the whole sweep stays near the small-R limit
    lp = LambdaParam(2)
    R_sweep = [1.0, 0.3, 0.1, 0.03]
    norms = tail_l1_sweep(lp, 2, R_sweep, L=400)
    assert norms == sorted(norms)
    succ = [b / a for a, b in zip(norms, norms[1:])]
    assert succ == sorted(succ, reverse=True)
    assert max(succ) < 2.5
    limit = tail_l1_sweep(lp, 2, [1e-4], L=900)[0]
    assert norms[-1] < limit < 1.1 * norms[-1]
    # every norm and the full spread agree with the exact oracle; the
    # Gauss-Jacobi rule meets a kink of |Phi_R| at the sign change, which
    # limits it to about 2.5e-5 relative at 400 nodes
    exact = [tail_l1_oracle(R) for R in R_sweep]
    assert norms == pytest.approx(exact, rel=1e-4)
    assert max(norms) / min(norms) == pytest.approx(max(exact) / min(exact), rel=1e-4)
