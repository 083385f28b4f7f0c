"""q polynomials, gamma solving, pair condition, zonal product, scale tail."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.optimize import brentq

from sphwave.admissibility import (
    GammaSolveError,
    GammaVector,
    _assert_collapse,
    _laguerre_roots,
    _positive_root_count,
    _fine_scale_rule,
    _q_table,
    _scale_multipliers,
    _spectral_coeffs,
    _sign_changes,
    _tail_weights,
    _unit_pair_norm,
    _upper_gamma_q,
    admissibility_constant,
    energy_table,
    pair_coefficient_sum,
    q_polynomial,
    solve_gamma,
    tail_integral,
    tail_l1_plateau,
    tail_l1_sweep,
    verify_pair_condition1,
    zonal_product_series,
)
from sphwave.rotderiv import CoefficientField, derivative_order, sector_pair_sum
from sphwave.harmonics import gauss_jacobi_rule
from sphwave.special import LambdaParam, dim_harmonic, gegenbauer_weighted_sum, reproducing_kernel
from sphwave.transform import per_degree_reconstruction_check
from sphwave.wavelets import KIND_HEAT, KIND_POISSON, TruncationError, _zonal_seed, modified_wavelet_field

from reference import (
    gegenbauer_weighted_sum_rows_one_by_one,
    q_table_all_pairs,
    tail_l1_mpmath,
    tail_l1_plateau_mpmath,
    tail_weights_full_cap,
)


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


def rationals(poly) -> list:
    """The Fraction coefficients of an exact (numerators, denominator) polynomial."""
    nums, den = poly
    return [Fraction(x, den) for x in nums]


def test_q_table_matches_q_polynomial():
    # the solver's table holds the diagonal q_{s,s} alone, read off the ladder's
    # zonal column; the definition is the prefix-product sum over every column
    for mu in (1, 2, 3, 4):
        qs = _q_table(mu, 6)
        assert len(qs) == 7
        ref = q_table_all_pairs(Fraction(mu, 2), 6)
        for s, q in enumerate(qs):
            assert rationals(q) == ref[(s, s)], (mu, s)
            assert q_polynomial(Fraction(mu, 2), s, s) == tuple(ref[(s, s)]), (mu, s)


def test_integer_q_table_equals_the_fraction_ladder():
    # the integer ladder against the Fraction ladder it replaced, as rationals,
    # each polynomial over the smallest denominator
    for n in range(2, 13):
        ref = q_table_all_pairs(Fraction(n - 1, 2), 6)
        for order in range(7):
            for s, (nums, den) in enumerate(_q_table(n - 1, order)):
                assert rationals((nums, den)) == ref[(s, s)], (n, order, s)
                assert den > 0 and math.gcd(den, *nums) == 1, (n, order, s)


def test_q_table_is_in_lowest_terms():
    # the ladder's sums and products are left unreduced; each q_{s,s} is reduced once
    for mu in range(1, 260):
        for s, (nums, den) in enumerate(_q_table(mu, 6)):
            assert den > 0 and math.gcd(den, *nums) == 1, (mu, s)


def test_q_polynomial_matches_a_sympy_ladder():
    # a_l^j(f^(d)) = (prod_{i<j} beta_{l,i}) P_{d,j}(u) a_l^0(f) with
    # P_{d+1,j} = beta_j^2 P_{d,j+1} - P_{d,j-1}, and q_{d,d'} = sum_j prod_{i<j} beta_i^2 P_{d,j} P_{d',j},
    # in sympy's rational polynomials; every pair, either order, any parity
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    for n in range(2, 13):
        mu = n - 1
        beta_sq = [u / (mu + 1)] + [
            sympy.Rational((j + 1) * (mu + j - 1), (mu + 2 * j - 1) * (mu + 2 * j + 1)) * (u - j * (mu + j))
            for j in range(1, 7)
        ]
        P = {(0, 0): sympy.Integer(1)}
        for d in range(6):
            for j in range(d + 2):
                P[(d + 1, j)] = sympy.expand(beta_sq[j] * P.get((d, j + 1), 0) - P.get((d, j - 1), 0))
        for d in range(7):
            for dp in range(7):
                q, prefix = sympy.Integer(0), sympy.Integer(1)
                for j in range(min(d, dp) + 1):
                    q += prefix * P.get((d, j), 0) * P.get((dp, j), 0)
                    prefix *= beta_sq[j]
                coeffs = sympy.Poly(sympy.expand(q), u).all_coeffs()[::-1]
                want = tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)
                assert q_polynomial(Fraction(mu, 2), d, dp) == want, (n, d, dp)


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
        solve_gamma(lam, dfrak)


# cells with n <= 12 and order <= 6 where no real gamma vector exists: order 3
# fails only on the 2-sphere, order 4 holds only for n = 2, 3, order 5 only for
# n = 3..8, and order 6 fails only for n = 4, 5
NO_GAMMA = (
    {(2, 3), (2, 5), (4, 6), (5, 6)} | {(n, 4) for n in range(4, 13)} | {(n, 5) for n in range(9, 13)}
)


def test_gamma_feasibility_table():
    for n in range(2, 13):
        for order in range(1, 7):
            try:
                gammas = solve_gamma(Fraction(n - 1, 2), order).gammas
            except GammaSolveError as exc:
                assert (n, order) in NO_GAMMA, (n, order, str(exc))
                assert "Sturm count" in str(exc)
            else:
                assert (n, order) not in NO_GAMMA, (n, order, gammas)
                assert min(gammas) >= 0.0, (n, order, gammas)


def test_gamma_end_coefficients_are_exact_roots():
    # n = 3, order 6: c_3 = 64, so gamma_3 = 8 exactly, not a product of float roots
    assert solve_gamma(1.0, 6).gammas[3] == 8.0
    # order 2: gamma_1^2 = c_1 = 4 lam (2 lam + 1) / 3 and gamma_2^2 = (2 lam + 1)(2 lam + 3) / 3
    for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(9, 2)):
        g = solve_gamma(lam, 2).gammas
        assert g[1] == math.sqrt(float(4 * lam * (2 * lam + 1) / 3))
        assert g[2] == math.sqrt(float((2 * lam + 1) * (2 * lam + 3) / 3))


def test_gamma_exact_zeros_on_three_sphere():
    # at lam = 1 the spectral polynomial A(y) carries y^2 (order 4) and y^3
    # (orders 5, 6), so the leading gammas vanish exactly
    for order, zeros in ((4, 2), (5, 3), (6, 3)):
        gammas = solve_gamma(1.0, order).gammas
        assert gammas[:zeros] == (0.0,) * zeros
        assert min(gammas[zeros:]) > 0.0


def test_q_skew_adjoint_identity():
    # q_{a,b} = (-1)^((a-b)/2) q_{s,s} with s = (a+b)/2, which lets the solver
    # work with the diagonal polynomials alone, and with (a, b) = (2s, 0) read
    # them off the ladder's zonal column; checked against the definition
    for n in range(2, 61):
        lam = Fraction(n - 1, 2)
        table = _q_table(n - 1, 6)
        for order in range(6):
            assert _q_table(n - 1, order) == table[: order + 1], (n, order)
        diag = [rationals(q) for q in table]
        for (a, b), q in q_table_all_pairs(lam, 6).items():
            s = (a + b) // 2
            assert q == [(-1) ** ((b - a) // 2) * c for c in diag[s]], (n, a, b)
            assert tuple(q) == q_polynomial(lam, a, b), (n, a, b)


def test_collapse_check_catches_any_perturbed_gamma():
    for n in range(2, 7):
        lam = Fraction(n - 1, 2)
        for order in range(1, 7):
            try:
                vec = solve_gamma(lam, order)
            except GammaSolveError:
                continue
            qs = [[x / den for x in nums] for nums, den in _q_table(n - 1, order)]
            _assert_collapse(vec, qs)
            for d, g in enumerate(vec.gammas):
                if not g:
                    continue
                for factor in (1.0 - 1e-6, 1.0 + 1e-6):
                    gammas = list(vec.gammas)
                    gammas[d] = g * factor
                    bad = GammaVector(order=order, lam=vec.lam, gammas=tuple(gammas))
                    with pytest.raises(GammaSolveError, match="collapse identity"):
                        _assert_collapse(bad, qs)


def test_sturm_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for n in range(2, 13):
        for order in range(1, 7):
            C, E = _spectral_coeffs(order, _q_table(n - 1, order))
            k = next(s for s, x in enumerate(C) if x)
            poly = sympy.Poly([sympy.Rational(x, E) for x in reversed(C[k:])], y)
            assert _positive_root_count(C[k:], E) == poly.count_roots(0, None), (n, order)  # c_k != 0: 0 is no root


def test_sturm_count_on_integer_numerators():
    # (y-1)(y-2)(y-3), (y+1)(y+2)(y+3), and 1/2 - 3/7 y^2 + 1/9 y^4 over 126
    assert _positive_root_count([-6, 11, -6, 1]) == 3
    assert _positive_root_count([6, 11, 6, 1]) == 0
    assert _positive_root_count([63, 0, -54, 0, 14], 126) == 0
    # (y-1)^2 (y+2) / 3: the certificate prints the rationals, as Fraction does
    with pytest.raises(GammaSolveError) as info:
        _positive_root_count([2, -3, 0, 1], 3)
    assert str(info.value) == "A(y)/y^k with coefficients (2/3, -1, 0, 1/3) has a repeated root; feasibility undecided"


# gamma_0..gamma_order (float.hex) of every feasible cell n = 2..6, orders
# 1..6, and the certificate text of every infeasible one, as the Fraction
# solver returned them
GAMMA_CELLS = {
    (2, 1): ["0x0.0p+0", "0x1.6a09e667f3bcdp+0"],
    (2, 2): ["0x0.0p+0", "0x1.279a74590331cp+0", "0x1.a20bd700c2c3ep+0"],
    (2, 3): "order 3 infeasible at lam=1/2: A(y) = sum_s c_s y^s with c = (0, -8/15, 16/3, 16/5) must be >= 0 "
    "for y > 0 but has 1 simple root(s) there (Sturm count)",
    (2, 4): ["0x0.0p+0", "0x1.4b700042da3a4p+0", "0x1.a721c6e16a8e5p+1", "0x1.42d36968fdb07p+2", "0x1.e990cdad55ed2p+0"],
    (2, 5): "order 5 infeasible at lam=1/2: A(y) = sum_s c_s y^s with c = (0, -992/105, 1088/63, -64/15, 512/21, "
    "256/63) must be >= 0 for y > 0 but has 1 simple root(s) there (Sturm count)",
    (2, 6): ["0x0.0p+0", "0x1.2750b5acb9192p+3", "0x1.36bb02b185a7ap+4", "0x1.ca572513f4d7ep+4",
             "0x1.880df59e23687p+4", "0x1.7fc135364b79ap+3", "0x1.0d7f3c53851c3p+1"],
    (3, 1): ["0x0.0p+0", "0x1.bb67ae8584caap+0"],
    (3, 2): ["0x0.0p+0", "0x1.0000000000000p+1", "0x1.1e3779b97f4a8p+1"],
    (3, 3): ["0x0.0p+0", "0x0.0p+0", "0x1.1e3779b97f4a8p+2", "0x1.52a7fa9d2f8eap+1"],
    (3, 4): ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+2", "0x1.1e3779b97f4a8p+3", "0x1.8000000000000p+1"],
    (3, 5): ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.52a7fa9d2f8eap+3", "0x1.b9524215c6993p+3", "0x1.a887293fd6f34p+1"],
    (3, 6): ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+3", "0x1.b8ea77a23d171p+4",
             "0x1.4766d1fc9e7fdp+4", "0x1.cd82b446159f3p+1"],
    (4, 1): ["0x0.0p+0", "0x1.0000000000000p+1"],
    (4, 2): ["0x0.0p+0", "0x1.6a09e667f3bcdp+1", "0x1.6a09e667f3bcdp+1"],
    (4, 3): ["0x0.0p+0", "0x1.c9f25c5bfedd9p+0", "0x1.f3092ece5bc36p+2", "0x1.c9f25c5bfedd9p+1"],
    (4, 4): "order 4 infeasible at lam=3/2: A(y) = sum_s c_s y^s with c = (0, -416/35, 96, 768/5, 128/7) must be >= 0 "
    "for y > 0 but has 1 simple root(s) there (Sturm count)",
    (4, 5): ["0x0.0p+0", "0x1.e1daff85444ddp+2", "0x1.804642d83455bp+4", "0x1.6168e08593fb8p+5",
             "0x1.c51b1f7cb0712p+4", "0x1.3c03650e00e03p+2"],
    (4, 6): "order 6 infeasible at lam=3/2: A(y) = sum_s c_s y^s with c = (0, -30080/77, 4736/7, 1024/3, 18944/7, "
    "5120/7, 1024/33) must be >= 0 for y > 0 but has 1 simple root(s) there (Sturm count)",
    (5, 1): ["0x0.0p+0", "0x1.1e3779b97f4a8p+1"],
    (5, 2): ["0x0.0p+0", "0x1.d363d1848dcbfp+1", "0x1.b534070e9620cp+1"],
    (5, 3): ["0x0.0p+0", "0x1.a20bd700c2c3ep+1", "0x1.634814a9f1f5bp+3", "0x1.2548eb9151e85p+2"],
    (5, 4): "order 4 infeasible at lam=2: A(y) = sum_s c_s y^s with c = (0, -128/3, 896/3, 336, 33) must be >= 0 "
    "for y > 0 but has 1 simple root(s) there (Sturm count)",
    (5, 5): ["0x0.0p+0", "0x1.a20bd700c2c3ep+3", "0x1.5065ecf7324fap+5", "0x1.2f5b4385e2efap+6",
             "0x1.5f3306d51226fp+5", "0x1.b9dcdb7736753p+2"],
    (5, 6): "order 6 infeasible at lam=2: A(y) = sum_s c_s y^s with c = (0, -2048/3, 1024, 3456, 9856, 5720/3, 65) "
    "must be >= 0 for y > 0 but has 1 simple root(s) there (Sturm count)",
    (6, 1): ["0x0.0p+0", "0x1.3988e1409212ep+1"],
    (6, 2): ["0x0.0p+0", "0x1.1e3779b97f4a8p+2", "0x1.0000000000000p+2"],
    (6, 3): ["0x0.0p+0", "0x1.3988e1409212ep+2", "0x1.d5ad22faab12cp+3", "0x1.6a09e667f3bcdp+2"],
    (6, 4): "order 4 infeasible at lam=5/2: A(y) = sum_s c_s y^s with c = (0, -720/7, 704, 640, 384/7) must be >= 0 "
    "for y > 0 but has 1 simple root(s) there (Sturm count)",
    (6, 5): ["0x0.0p+0", "0x1.1c2a39a443fb8p+4", "0x1.f22d9c31e4e1dp+5", "0x1.ccb58f5fd20edp+6",
             "0x1.f7349a4958a3dp+5", "0x1.279a74590331cp+3"],
    (6, 6): ["0x0.0p+0", "0x1.834f76c5aaeddp+4", "0x1.a0726f0b1a104p+6", "0x1.086d59ea8fa9bp+8",
             "0x1.19d03e15a0848p+8", "0x1.9ac6740bd394bp+6", "0x1.6482d37a5a3d2p+3"],
}


@pytest.mark.parametrize("n,order", sorted(GAMMA_CELLS))
def test_gamma_cells_are_bit_identical_to_the_fraction_solver(n, order):
    want = GAMMA_CELLS[(n, order)]
    if isinstance(want, str):
        with pytest.raises(GammaSolveError) as info:
            solve_gamma(Fraction(n - 1, 2), order)
        assert str(info.value) == want
    else:
        assert [g.hex() for g in solve_gamma(Fraction(n - 1, 2), order).gammas] == want


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
    rows = verify_pair_condition1(lp, solve_gamma(lp.lam, dfrak), 6)
    for row in rows:
        assert row["pass"], row
        assert abs(row["ratio"] - 1.0) < 1e-8
        assert set(row) == {"l", "expected", "quadrature_scaled", "ratio", "pass"}


@pytest.mark.parametrize(("n", "l_max"), [(227, 21), (235, 12), (244, 4), (260, 21)])
def test_pair_condition_closed_path_is_finite_on_large_spheres(n, l_max):
    # the closed path Gamma(order) (2 lam / u)^order u^order is the divisor
    # (n-1)^order Gamma(order) itself, bit for bit at every n and order, so the
    # rows read the quadrature alone; formed with u^order before
    # (2 lam / u)^order, that path once read inf at order 6 on these spheres
    for m in range(2, 261):
        for order in range(1, 7):
            assert math.gamma(order) * (2.0 * LambdaParam(m).lam) ** order == _unit_pair_norm(LambdaParam(m), order)
    lp = LambdaParam(n)
    gamma = solve_gamma(lp.lam, 6)
    energy = energy_table(lp, gamma, l_max)
    for row in verify_pair_condition1(lp, gamma, l_max, energy=energy):
        assert math.isfinite(row["quadrature_scaled"]), row
        assert abs(row["ratio"] - 1.0) < 1e-8 and row["pass"], row


# quadrature_scaled of the order-2 verify_pair_condition1 on LambdaParam(3), l = 1..20, as
# computed with a per-node sector ladder in the integrand
PINNED_N3_ORDER2 = [
    4.000000000000001, 9.000000000000002, 16.000000000000014, 24.99999999999999, 35.99999999999996,
    49.000000000000085, 64.0, 81.00000000000003, 100.00000000000021, 120.99999999999956,
    143.9999999999995, 168.99999999999937, 196.00000000000074, 225.0000000000001, 256.0,
    288.99999999999994, 324.0, 361.0000000000026, 400.0000000000001, 441.0,
]


def test_pair_condition_rows_pinned():
    rows = verify_pair_condition1(LambdaParam(3), solve_gamma(1.0, 2), 20)
    assert [row["l"] for row in rows] == list(range(1, 21))
    assert all(row["pass"] for row in rows)
    assert [row["quadrature_scaled"] for row in rows] == pytest.approx(PINNED_N3_ORDER2, rel=1e-14, abs=0.0)


def test_pair_checks_reject_an_order_zero_gamma():
    # an order-0 gamma names no admissible pair: a ValueError, not a division by zero
    lp = LambdaParam(3)
    gamma = solve_gamma(lp.lam, 0)
    with pytest.raises(ValueError, match="order >= 1"):
        verify_pair_condition1(lp, gamma, 4)
    with pytest.raises(ValueError, match="order >= 1"):
        per_degree_reconstruction_check(lp, gamma, 2)


def test_pair_sum_matches_closed_form():
    # N_l rho^order exp(-rho u / 2 lam) u^order / sigma^2, a ladder-free oracle;
    # the worst case is about 3e-14 (n = 5, order 0, l = 40)
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
                        expect / lp.sigma**2, rel=1e-12, abs=0.0
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


@pytest.mark.parametrize(("n", "dfrak"), [(2, 1), (2, 2), (2, 6), (3, 3), (3, 6), (4, 2), (5, 5), (6, 1)])
def test_trapezoid_scale_integrals_match_closed_form(n, dfrak):
    # the multipliers on the fine trapezoid in log rho against the closed form
    # Gamma(order) (2 lam / u)^order E_l / ((n-1)^order Gamma(order)), over a
    # 40-degree sweep and for single degrees (a narrower window)
    lp = LambdaParam(n)
    gamma = solve_gamma(lp.lam, dfrak)
    energy = energy_table(lp, gamma, 40)
    norm = _unit_pair_norm(lp, dfrak)
    degrees = range(1, 41)
    sweep = _scale_multipliers(lp, gamma, _fine_scale_rule(lp.lam, dfrak, degrees), degrees)
    for l, val in zip(degrees, sweep):
        u = l * (2 * lp.lam + l)
        closed = math.gamma(dfrak) * (2 * lp.lam / u) ** dfrak * energy[l] / norm
        assert val == pytest.approx(closed, rel=1e-13, abs=0.0)
        if l in (1, 7, 40):
            single = _scale_multipliers(lp, gamma, _fine_scale_rule(lp.lam, dfrak, [l]), [l])
            assert single[0] == pytest.approx(closed, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 30, 150, 230, 240, 260])
def test_unit_seed_energies_are_the_collapse_value(n):
    # the table is per unit seed, so its energies are u^order itself: finite
    # at every feasible order up to degree 5000, on spheres where the kernel
    # seed's squares (about N(n, l) / sigma^2) pass the float range
    lp = LambdaParam(n)
    ls = np.arange(5001)
    u = ls * (2 * lp.lam + ls)
    for order in range(1, 7):
        try:
            gamma = solve_gamma(lp.lam, order)
        except GammaSolveError:
            continue
        energy = energy_table(lp, gamma, 5000)
        assert isinstance(energy, np.ndarray) and np.isfinite(energy).all()
        np.testing.assert_allclose(energy, u**order, rtol=1e-13, atol=0.0, err_msg=f"order {order}")
    if n < 230:
        return
    # with the kernel seed a_l put back, C (scale integral) a_l^2 E_l / N(n, l) = 1, sigma in mpmath
    # (sigma^2 / C is the multiplier's divisor (n-1)^order Gamma(order), so sigma^2 m_l a_l^2 / N(n, l) = 1)
    gamma = solve_gamma(lp.lam, 2)
    degrees = range(1, 21)
    vals = _scale_multipliers(lp, gamma, _fine_scale_rule(lp.lam, 2, degrees), degrees)
    seed = _zonal_seed(lp, 20)
    sigma = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
    for l, val in zip(degrees, vals):
        assert float(sigma**2 * val * mpmath.mpf(seed[l]) ** 2 / dim_harmonic(n, l)) == pytest.approx(1.0, rel=1e-9)
    s = math.exp(-0.3 * 5) * 0.3**2 * math.exp(-0.3 * 5 * (2 * lp.lam + 5) / (2 * lp.lam) + 0.3 * 5)
    want = mpmath.mpf(s) * mpmath.mpf(seed[5]) ** 2 * energy_table(lp, gamma, 5)[5]
    if want < mpmath.mpf(2) ** 1024:
        assert pair_coefficient_sum(lp, gamma, 0.3, 5) == pytest.approx(float(want), rel=1e-13)
    else:  # the sum itself is past the float range
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert pair_coefficient_sum(lp, gamma, 0.3, 5) == math.inf


@pytest.mark.parametrize("d", range(1, 7))
def test_upper_gamma_q_matches_scipy(d):
    from scipy.special import gammaincc

    x = np.concatenate(([0.0], np.logspace(-10, math.log10(700.0), 301)))
    # scipy's own error reaches 1.05e-13 near x = 700 (order 3)
    assert _upper_gamma_q(d, x) == pytest.approx(gammaincc(d, x), rel=2e-13, abs=0.0)
    # the finite sum of positive terms is accurate to a few ulps
    with mpmath.workdps(30):
        for xv, q in zip(x[::10], _upper_gamma_q(d, x[::10])):
            assert abs(q / mpmath.gammainc(d, xv, mpmath.inf, regularized=True) - 1) <= 2e-15


@pytest.mark.parametrize("d", [0.5, 1.5, 2.5, 5.5, 65.5])
def test_upper_gamma_q_at_half_integer_orders(d):
    # erfc(sqrt x) plus positive terms; math.erfc itself is 4.7e-14 off near x = 700
    x = np.concatenate(([0.0], np.logspace(-10, math.log10(700.0), 61)))
    with mpmath.workdps(30):
        for xv, q in zip(x, _upper_gamma_q(d, x)):
            assert abs(q / mpmath.gammainc(d, xv, mpmath.inf, regularized=True) - 1) <= 1e-13


def test_tail_single_term_hand_formula():
    from scipy.special import gammaincc

    lp = LambdaParam(2)
    dfrak, R = 2, 0.9
    t = 0.4
    # restrict to the l=1 term by choosing R large enough that l >= 2 is negligible
    val = tail_integral(lp, dfrak, 6.0, t)
    lam = lp.lam
    x1 = 6.0 * 1 * (2 * lam + 1) / (2 * lam)
    hand = (2 * lam) ** dfrak * gammaincc(dfrak, x1) * math.gamma(dfrak) * reproducing_kernel(
        lp, 1, t
    ) / lp.sigma**2
    assert val == pytest.approx(hand, rel=1e-10)
    # the full value at moderate R is finite and the remainder is certified
    assert math.isfinite(tail_integral(lp, dfrak, R, t))


def test_tail_vanishes_for_large_cutoff():
    lp = LambdaParam(2)
    assert abs(tail_integral(lp, 2, 40.0, 0.2)) < 1e-15


@pytest.mark.parametrize("n", range(2, 7))
def test_tail_weights_on_a_growing_prefix_keep_their_bits(n):
    # one table for all cutoffs, each row certified on its own prefix, against each cutoff over the full cap
    lam = LambdaParam(n).lam
    Rs = (1.0, 0.3, 0.1, 0.03, 1e-3, 1e-4, 1e-5)
    for order in range(1, 7):
        for R, got in zip(Rs, _tail_weights(lam, order, Rs)):
            want = tail_weights_full_cap(lam, order, R)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (order, R)
        # past the cap both raise, with one message, also behind a cutoff that certifies
        with pytest.raises(TruncationError) as prefix:
            _tail_weights(lam, order, [1.0, 1e-7])
        with pytest.raises(TruncationError) as full:
            tail_weights_full_cap(lam, order, 1e-7)
        assert str(prefix.value) == str(full.value)


@pytest.mark.parametrize("function", ["tail_l1_sweep", "tail_integral"])
@pytest.mark.parametrize(
    "order, R, name",
    [(2, 0.0, "R"), (2, math.nan, "R"), (2, -0.1, "R"), (2, math.inf, "R"), (0, 0.1, "order")],
    ids=["R=0", "R=nan", "R<0", "R=inf", "order=0"],
)
def test_tail_rejects_a_bad_order_or_cutoff_by_name(function, order, R, name):
    # a ValueError naming the argument, before any degree is formed and without a warning
    lp = LambdaParam(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^(cutoff )?{name} must be"):
            if function == "tail_l1_sweep":
                tail_l1_sweep(lp, order, [1.0, R])
            else:
                tail_integral(lp, order, R, 0.2)


def test_tail_cutoff_beyond_the_cap_raises():
    # at R = 1e-8 the degree-5000 tail weight still has x = 0.25, so no degree certifies
    lp = LambdaParam(2)
    with pytest.raises(TruncationError):
        tail_integral(lp, 2, 1e-8, 0.2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_tail_degree_certifies_against_the_sup_norm(n, order):
    # the sum at the chosen degree and the sum 400 degrees further differ by
    # at most 1e-12 sup |Phi_R| = 1e-12 Phi_R(1) at the sweep's nodes
    lp = LambdaParam(n)
    lam = lp.lam
    nodes = gauss_jacobi_rule(lam, 400).nodes
    for R in (1.0, 0.03, 1e-4):
        L = _tail_weights(lam, order, [R])[0].size - 1
        ls = np.arange(1, L + 401)
        x = R * ls * (2 * lam + ls) / (2 * lam)
        tail = (2 * lam) ** order * _upper_gamma_q(order, x) * math.gamma(order) * (lam + ls) / lam
        longer = np.concatenate(([0.0], tail)) / lp.sigma**2
        drift = tail_integral(lp, order, R, nodes) - gegenbauer_weighted_sum(lam, longer, nodes)
        assert np.max(np.abs(drift)) <= 1e-12 * gegenbauer_weighted_sum(lam, longer, 1.0), (R, L)
    assert L < 900


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


TAIL_SWEEP = [1.0, 0.3, 0.1, 0.03, 1e-4]


def test_tail_l1_sweep_matches_the_exact_oracle():
    # the Legendre-antiderivative oracle on S^2, order 2, down to the plateau verify reads
    norms = tail_l1_sweep(LambdaParam(2), 2, TAIL_SWEEP)
    assert norms == pytest.approx([tail_l1_oracle(R) for R in TAIL_SWEEP], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n,order", [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)])
def test_tail_l1_sweep_matches_mpmath(n, order):
    # the same truncated series in 50 digits, each sign change refined from the library's
    lp = LambdaParam(n)
    norms = tail_l1_sweep(lp, order, TAIL_SWEEP)
    for R, got in zip(TAIL_SWEEP, norms):
        (c,) = _tail_weights(lp.lam, order, [R])
        starts = np.cos(_sign_changes(lp.lam, [c / lp.sigma**2])[0])
        assert got == pytest.approx(tail_l1_mpmath(n, order, R, c.size - 1, starts), rel=1e-10, abs=0.0), R


def test_tail_sign_changes_survive_a_16x_finer_grid(monkeypatch):
    # 128 samples per period of the top harmonic find the sign changes of 8,
    # except where |Phi_R| is below the series' own certified accuracy
    # 1e-12 Phi_R(1): there the sign is undetermined, and such changes move
    # no norm by more than 1e-12
    import sphwave.admissibility as adm

    for n in range(2, 7):
        lp = LambdaParam(n)
        for order in range(1, 7):
            coarse = tail_l1_sweep(lp, order, TAIL_SWEEP)
            for R in TAIL_SWEEP:
                c = _tail_weights(lp.lam, order, [R])[0] / lp.sigma**2
                monkeypatch.setattr(adm, "_SIGN_CHANGE_SAMPLES", 8)
                (a,) = _sign_changes(lp.lam, [c])
                monkeypatch.setattr(adm, "_SIGN_CHANGE_SAMPLES", 128)
                (b,) = _sign_changes(lp.lam, [c])
                theta = np.concatenate((a, b))
                vals = gegenbauer_weighted_sum(lp.lam, c, np.cos(np.concatenate(([0.0], theta - 1e-4, theta + 1e-4))))
                # 1e-4 on either side of the change, |Phi_R| is above the floor
                clear = np.minimum(*np.abs(vals[1:]).reshape(2, -1)) > 1e-12 * vals[0]
                resolved = theta[clear]
                for t in resolved:
                    assert np.min(np.abs(a - t)) < 1e-9 and np.min(np.abs(b - t)) < 1e-9, (n, order, R)
                assert a.size == b.size or len(resolved) < a.size + b.size, (n, order, R)
            fine = tail_l1_sweep(lp, order, TAIL_SWEEP)
            monkeypatch.setattr(adm, "_SIGN_CHANGE_SAMPLES", 8)
            assert fine == pytest.approx(coarse, rel=1e-12, abs=0.0), (n, order)


def test_tail_l1_sweep_per_cutoff_degrees_match_separate_sweeps():
    # one pass serves cutoffs with their own truncation degrees, in any order:
    # every norm has the bits of the cutoff swept alone
    for n in range(2, 7):
        lp = LambdaParam(n)
        for order in range(1, 7):
            joint = tail_l1_sweep(lp, order, TAIL_SWEEP)
            apart = [tail_l1_sweep(lp, order, [R])[0] for R in TAIL_SWEEP]
            assert [x.hex() for x in joint] == [x.hex() for x in apart], (n, order)
            assert tail_l1_sweep(lp, order, TAIL_SWEEP[::-1]) == joint[::-1], (n, order)


@pytest.mark.parametrize("order", [1, 2])
def test_tail_l1_sweep_matches_the_per_degree_loop(order, monkeypatch):
    # the verify sweep against the same sweep summed by the per-degree loop,
    # to a relative tolerance set from the dtype and the tail degree L
    import sphwave.admissibility as adm

    lp = LambdaParam(2)
    R_values = [1.0, 0.3, 0.1, 0.03, 1e-4]
    blocked = tail_l1_sweep(lp, order, R_values)
    monkeypatch.setattr(adm, "gegenbauer_weighted_sum", gegenbauer_weighted_sum_rows_one_by_one)
    for R, got, expect in zip(R_values, blocked, tail_l1_sweep(lp, order, R_values)):
        L = adm._tail_weights(lp.lam, order, [R])[0].shape[0] - 1
        assert got == pytest.approx(expect, rel=np.finfo(float).eps * (L + 1) ** 2, abs=0.0), R


def test_tail_l1_plateau_closed_forms_on_the_2_sphere():
    # P = 1 at order 1 and 2 - u at order 2 (one root, at u = 2)
    lp = LambdaParam(2)
    assert tail_l1_plateau(lp, 1) == pytest.approx(1 / (8 * math.pi**2), rel=1e-15)
    assert tail_l1_plateau(lp, 2) == pytest.approx((2 + 2 * math.exp(-2)) / (16 * math.pi**2), rel=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_tail_l1_plateau_matches_mpmath(n):
    for order in range(1, 7):
        got = tail_l1_plateau(LambdaParam(n), order)
        assert got == pytest.approx(tail_l1_plateau_mpmath(n, order), rel=1e-12, abs=0.0), order


@pytest.mark.parametrize("n", range(2, 7))
def test_tail_l1_sweep_approaches_the_plateau_from_below(n):
    # at R = 1e-5 the sweep is within 2e-4 below its R -> 0 limit; the largest
    # gap, 1.25e-4, is at n = 2, order 1
    lp = LambdaParam(n)
    for order in range(1, 7):
        gap = 1.0 - tail_l1_sweep(lp, order, [1e-5])[0] / tail_l1_plateau(lp, order)
        assert 0.0 < gap < 2e-4, (order, gap)


@pytest.mark.parametrize("n", [2, 3, 6, 101, 260])
def test_laguerre_roots_match_mpmath(n):
    # the eigenvalues of the Jacobi matrix are the m zeros of L_m^(n/2), each
    # within 2e-15 relative of its 40-digit value
    for m in range(1, 6):
        with mpmath.workdps(40):
            alpha = mpmath.mpf(n) / 2
            p = [(-1) ** i * mpmath.binomial(m + alpha, m - i) / mpmath.factorial(i) for i in range(m + 1)]
            exact = sorted(mpmath.re(r) for r in mpmath.polyroots(p[::-1], maxsteps=200, extraprec=200))
        roots = _laguerre_roots(m, n / 2)
        assert len(roots) == m
        for root, ref in zip(roots, map(float, exact)):
            assert abs(root / ref - 1) < 2e-15, (m, root, ref)


def test_tail_l1_sweep_bounded():
    # the sweep climbs monotonically to a finite plateau: successive ratios
    # shrink toward 1 and the whole sweep stays near the small-R limit
    lp = LambdaParam(2)
    R_sweep = [1.0, 0.3, 0.1, 0.03]
    norms = tail_l1_sweep(lp, 2, R_sweep)
    assert norms == sorted(norms)
    succ = [b / a for a, b in zip(norms, norms[1:])]
    assert succ == sorted(succ, reverse=True)
    assert max(succ) < 2.5
    limit = tail_l1_sweep(lp, 2, [1e-4])[0]
    assert norms[-1] < limit < 1.1 * norms[-1]
    # every norm and the full spread agree with the exact oracle; the
    # Gauss-Jacobi rule meets a kink of |Phi_R| at the sign change, which
    # limits it to about 2.5e-5 relative at 400 nodes
    exact = [tail_l1_oracle(R) for R in R_sweep]
    assert norms == pytest.approx(exact, rel=1e-4)
    assert max(norms) / min(norms) == pytest.approx(max(exact) / min(exact), rel=1e-4)
