"""Gegenbauer recurrences, normalization constants, dimensions."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, roots_jacobi

from sphwave.special import (
    LambdaParam,
    dim_harmonic,
    gauss_gegenbauer,
    gegenbauer_batch,
    gegenbauer_value,
    gegenbauer_weighted_sum,
    norm_const_a,
    reproducing_kernel,
    surface_measure,
)

from sphwave.rotderiv import _norm_column
from sphwave.wavelets import KIND_POISSON, WaveletSpec, directional_wavelet_field, truncation_degree

from reference import (
    gegenbauer_derivative,
    gegenbauer_weighted_sum_exact,
    gegenbauer_weighted_sum_one_row,
    loop_error_bound,
)

LAMBDAS = [0.5, 1.0, 1.5, 2.0, 3.0]
TGRID_21 = np.linspace(-1.0, 1.0, 21)


def gegenbauer_series_t1_exact(lam: Fraction, l: int) -> Fraction:
    """Explicit-series oracle at t = 1 in exact rational arithmetic."""
    total = Fraction(0)
    for j in range(l // 2 + 1):
        # Gamma(lam + l - j)/Gamma(lam) as a rising product
        num = Fraction(1)
        for i in range(l - j):
            num *= lam + i
        term = Fraction((-1) ** j) * num / (math.factorial(j) * math.factorial(l - 2 * j))
        total += term * Fraction(2) ** (l - 2 * j)
    return total


def legendre_recurrence(L: int, t: np.ndarray) -> np.ndarray:
    """Independent Legendre evaluation (not via the Gegenbauer code path)."""
    out = np.empty((L + 1,) + t.shape)
    out[0] = 1.0
    if L >= 1:
        out[1] = t
    for l in range(1, L):
        out[l + 1] = ((2 * l + 1) * t * out[l] - l * out[l - 1]) / (l + 1)
    return out


def test_surface_measure_values():
    assert surface_measure(2) == pytest.approx(4 * np.pi, rel=1e-15)
    assert surface_measure(3) == pytest.approx(2 * np.pi**2, rel=1e-15)
    assert LambdaParam(4).sigma == pytest.approx(8 * np.pi**2 / 3, rel=1e-14)


def test_surface_measure_range():
    # the formula's bits up to n = 260; beyond it sigma^2 is not a normal float
    for n in range(1, 261):
        sigma = 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        assert surface_measure(n) == sigma
    assert surface_measure(260) ** 2 >= sys.float_info.min
    assert (2.0 * math.pi**131 / math.gamma(131)) ** 2 < sys.float_info.min  # n = 261
    for n in (261, 300, 342, 400, 10**6):  # Gamma overflows from n = 342 on
        with pytest.raises(ValueError):
            surface_measure(n)


def test_lambda_param_invariants():
    for n in range(2, 8):
        lp = LambdaParam(n)
        assert lp.lam == (n - 1) / 2
    with pytest.raises(ValueError):
        LambdaParam(1)


def test_sigma_computed_once_with_surface_measure_bits():
    for n in range(2, 13):
        lp = LambdaParam(n)
        assert "sigma" not in vars(lp)
        assert lp.sigma == surface_measure(n)
        assert vars(lp)["sigma"] == surface_measure(n)  # stored on first read
    assert LambdaParam(3) == LambdaParam(3) and hash(LambdaParam(3)) == hash(LambdaParam(3))


def test_degree_zero_is_one():
    assert gegenbauer_batch(0.77, 0, 0.3)[0] == 1.0


def test_order_one_explicit_polynomials():
    t = TGRID_21
    c = gegenbauer_batch(1.0, 2, t)
    assert np.allclose(c[0], 1.0, atol=0)
    assert np.allclose(c[1], 2 * t, atol=0)
    assert np.allclose(c[2], 4 * t**2 - 1, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_value_at_one_exact_series_oracle(lam):
    lamF = Fraction(lam)
    vals = gegenbauer_batch(lam, 10, 1.0)
    for l in range(11):
        expect = float(gegenbauer_series_t1_exact(lamF, l))
        assert vals[l] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_generating_function(lam):
    tgrid = np.linspace(-1.0, 1.0, 11)
    for r in (0.1, 0.3, 0.5):
        # geometric tail: |C_l(t)| <= C_l(1) and C_l(1) r^l eventually decays
        L = 40
        while True:
            c1 = float(gegenbauer_batch(lam, L + 1, 1.0)[L + 1])
            q = r * (L + 2 * lam) / (L + 1)
            if q < 1 and c1 * r ** (L + 1) / (1 - q) < 1e-12:
                break
            L += 20
        vals = gegenbauer_batch(lam, L, tgrid)
        series = np.sum(vals * np.power(r, np.arange(L + 1))[:, None], axis=0)
        closed = (1 - 2 * tgrid * r + r * r) ** (-lam)
        assert np.max(np.abs(series - closed)) < 1e-10


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
def test_recurrence_order_lowering(lam):
    # (l+1) C_{l+1}^{lam-1} = 2(lam-1) [t C_l^lam - C_{l-1}^lam]; needs lam-1 > -1/2
    t = TGRID_21
    low = gegenbauer_batch(lam - 1.0, 51, t)
    cur = gegenbauer_batch(lam, 50, t)
    for l in range(1, 51):
        lhs = l * low[l]
        rhs = 2 * (lam - 1) * (t * cur[l - 1] - cur[l - 2]) if l >= 2 else 2 * (lam - 1) * t * cur[0]
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


@pytest.mark.parametrize("lam", LAMBDAS)
def test_recurrence_order_raising(lam):
    # l C_l^lam = (2 lam + l - 1) t C_{l-1}^lam - 2 lam (1-t^2) C_{l-2}^{lam+1}
    t = TGRID_21
    cur = gegenbauer_batch(lam, 50, t)
    up = gegenbauer_batch(lam + 1.0, 48, t)
    for l in range(2, 51):
        lhs = l * cur[l]
        rhs = (2 * lam + l - 1) * t * cur[l - 1] - 2 * lam * (1 - t**2) * up[l - 2]
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10


@pytest.mark.parametrize("lam", LAMBDAS)
def test_max_at_right_endpoint(lam):
    vals = gegenbauer_batch(lam, 50, TGRID_21)
    at_one = gegenbauer_batch(lam, 50, 1.0)
    for l in range(51):
        assert np.max(np.abs(vals[l])) <= at_one[l] * (1 + 1e-12)


def test_derivative_examples():
    t = TGRID_21
    assert gegenbauer_derivative(0, 1.7, 0.3) == 0.0
    assert np.allclose(gegenbauer_derivative(2, 1.0, t), 8 * t, rtol=1e-14)
    for lam in LAMBDAS:
        assert gegenbauer_derivative(1, lam, 0.2) == pytest.approx(2 * lam, rel=1e-15)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for lam in (0.5, 1.5):
        for l in (3, 7):
            fd = (gegenbauer_value(lam, l, 0.4 + h) - gegenbauer_value(lam, l, 0.4 - h)) / (2 * h)
            assert gegenbauer_derivative(l, lam, 0.4) == pytest.approx(fd, rel=1e-8)


def test_domain_errors():
    with pytest.raises(ValueError):
        gegenbauer_batch(1.0, 3, 1.5)
    with pytest.raises(ValueError):
        gegenbauer_batch(-0.5, 3, 0.0)
    with pytest.raises(ValueError):
        gegenbauer_batch(1.0, -1, 0.0)


def test_weighted_sum_matches_batch():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(31)
    t = np.linspace(-1, 1, 7)
    direct = np.sum(gegenbauer_batch(1.5, 30, t) * w[:, None], axis=0)
    assert np.allclose(gegenbauer_weighted_sum(1.5, w, t), direct, rtol=1e-13, atol=1e-13)


def _bits(a):
    """Values with the sign of zero made visible, for bit-for-bit comparison."""
    a = np.asarray(a)
    return a.tobytes(), np.signbit(a).tobytes()


def _assert_near_loop(got, lam, w, t):
    # the blocked sums round differently from the per-degree loop; the loop's
    # own error bound, set from the dtype and L, covers the difference
    assert np.max(np.abs(got - gegenbauer_weighted_sum_one_row(lam, w, t)), initial=0.0) <= loop_error_bound(lam, w)


def test_weighted_sum_rows_match_single_row_bits():
    rng = np.random.default_rng(5)
    t = np.concatenate((np.linspace(-1, 1, 9), [0.0, -0.0]))
    rows = [rng.standard_normal(60), rng.standard_normal(58), rng.standard_normal(58), rng.standard_normal(3)]
    rows[1][[4, 30, 57]] = 0.0  # zero weights add nothing, not even a signed zero
    rows[2][:] = 0.0
    rows[2][0] = -0.0  # an all-zero row keeps the sign of its zero sum
    rows += [np.array([-0.0]), np.array([])]
    lams = [0.5, 1.5, 2.5, 3.5, 1.0, 2.0]
    stacked = gegenbauer_weighted_sum(lams, rows, t)
    assert stacked.shape == (len(rows),) + t.shape
    for lam, w, got in zip(lams, rows, stacked):
        assert _bits(got) == _bits(gegenbauer_weighted_sum(lam, w, t))
        _assert_near_loop(got, lam, w, t)
    for r in (2, 4, 5):  # no recurrence: the loop's own bits, signs of zero included
        assert _bits(stacked[r]) == _bits(gegenbauer_weighted_sum_one_row(lams[r], rows[r], t))
    # one row, including a zero weight and the grid's shape
    w = rng.standard_normal(4000) * np.exp(-0.01 * np.arange(4000))
    w[[1, 2, 100]] = 0.0
    grid = np.cos(np.linspace(0.01, 3.1, 12)).reshape(3, 4)
    got = gegenbauer_weighted_sum(1.0, w, grid)
    assert got.shape == grid.shape
    _assert_near_loop(got, 1.0, w, grid)


def test_weighted_sum_trailing_zeros_match_full_row_bits():
    # each row's recurrence ends at its last nonzero weight, never before degree 1:
    # a row keeps the bits of its trimmed self, alone or stacked
    rng = np.random.default_rng(11)
    t = np.concatenate((np.linspace(-1, 1, 9), [0.0, -0.0]))

    def tail(head, zeros):
        return np.concatenate((head, np.zeros(zeros)))

    def trimmed(w):
        nz = np.flatnonzero(w)
        return w[: max(min(w.shape[0], 2), nz[-1] + 1 if nz.size else 0)]

    single = [tail(rng.standard_normal(5), 40), tail([0.7], 12), tail([0.0, -1.3], 9), tail([-0.0], 6), tail([], 3)]
    for lam, w in zip((0.5, 1.0, 1.5, 2.5, 3.0), single):
        got = gegenbauer_weighted_sum(lam, w, t)
        assert _bits(got) == _bits(gegenbauer_weighted_sum(lam, trimmed(w), t))
        _assert_near_loop(got, lam, w, t)
    rows = [
        tail(rng.standard_normal(2), 48),  # trimmed end (2) falls below the next row's
        tail(rng.standard_normal(20), 20),
        tail(rng.standard_normal(7), 25),
        tail([-0.0], 12),  # all zero with -0.0 at degree 0: degree 1 still sets the sign
        tail([1.0], 0),
        np.array([]),
    ]
    lams = [0.5, 1.5, 2.5, 1.0, 2.0, 3.0]
    stacked = gegenbauer_weighted_sum(lams, rows, t)
    assert stacked.shape == (len(rows),) + t.shape
    for lam, w, got in zip(lams, rows, stacked):
        assert _bits(got) == _bits(gegenbauer_weighted_sum(lam, trimmed(w), t))
        _assert_near_loop(got, lam, w, t)
    for r in (0, 3, 4, 5):  # no recurrence: the loop's own bits, signs of zero included
        assert _bits(stacked[r]) == _bits(gegenbauer_weighted_sum_one_row(lams[r], rows[r], t))


@pytest.mark.parametrize(
    "n, order, rho",
    [(2, 1, 0.01), (3, 2, 0.033), (2, 4, 0.05), (4, 2, 0.05), (5, 3, 0.1), (6, 6, 0.3), (2, 1, 0.5)],
)
def test_weighted_sum_matches_exact_recurrence(n, order, rho):
    # the order rows of eval's wavelet series (L = 3917, 1466, 1027, 1062, 610,
    # 256 and 62) on eval's 60-point theta1 grid and at theta = 0, 1e-3,
    # pi - 1e-3 and pi, against the recurrence in exact fixed point; errors are
    # relative to the row's largest value on the grid.  The per-degree loop
    # reaches 1.9e-13 on the grid and 1.2e-10 at those four angles.
    spec = WaveletSpec(lp=LambdaParam(n), kind=KIND_POISSON, order=order, rho=rho)
    field = directional_wavelet_field(spec, truncation_degree(spec, 1e-10))
    lp, L = field.lp, field.degree_max
    ks = [k for k in range(field.order_bound + 1) if np.any(field.coeffs[:, k])]
    rows = [field.coeffs[k:, k] * _norm_column(lp, L, k) for k in ks]
    grid = np.cos(np.linspace(0.0, np.pi, 62)[1:-1])
    ends = np.cos([0.0, 1e-3, np.pi - 1e-3, np.pi])
    lams = [lp.lam + k for k in ks]
    on_grid, at_ends = gegenbauer_weighted_sum(lams, rows, grid), gegenbauer_weighted_sum(lams, rows, ends)
    for k, lam, w, got_grid, got_ends in zip(ks, lams, rows, on_grid, at_ends):
        exact = gegenbauer_weighted_sum_exact(lam, w, grid)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(got_grid - exact)) <= 8e-15 * scale, k
        assert np.max(np.abs(got_ends - gegenbauer_weighted_sum_exact(lam, w, ends))) <= 7e-12 * scale, k


def test_weighted_sum_trailing_zeros_run_no_recurrence():
    # past degree 1 nothing is summed, and C_l at order 200 overflows a float
    # long before degree 3000: RuntimeWarnings fail the suite
    w = [1.0, 0.5] + [0.0] * 3000
    t = np.array([1.0, -0.3])
    assert _bits(gegenbauer_weighted_sum(200.0, w, t)) == _bits(1.0 + 0.5 * 400.0 * t)


def test_weighted_sum_rows_must_not_grow():
    with pytest.raises(ValueError):
        gegenbauer_weighted_sum([0.5, 1.5], [np.ones(3), np.ones(4)], 0.2)
    with pytest.raises(ValueError):
        gegenbauer_weighted_sum([0.5, 1.5], [np.ones(3)], 0.2)


# -- normalization constants -------------------------------------------------


def norm_const_product_oracle(n: int, l: int, k1: int) -> float:
    """Full product-formula evaluation of the normalization constant."""
    ks = [l, k1] + [0] * (n - 2)
    lg = -gammaln((n + 1) / 2)
    for tau in range(1, n):
        kprev, kt = ks[tau - 1], ks[tau]
        lg += (
            (n - tau + 2 * kt - 2) * np.log(2.0)
            + gammaln(kprev - kt + 1)
            + np.log(n - tau + 2 * kprev)
            + 2 * gammaln((n - tau) / 2 + kt)
            - 0.5 * np.log(np.pi)
            - gammaln(n - tau + kprev + kt)
        )
    return float(np.exp(0.5 * lg))


def test_norm_const_trivial_and_simple():
    for n in (2, 3, 4, 5):
        assert norm_const_a(LambdaParam(n), 0, 0) == pytest.approx(1.0, rel=1e-13)
    for l in range(0, 20):
        assert norm_const_a(LambdaParam(2), l, 0) == pytest.approx(np.sqrt(2 * l + 1), rel=1e-13)
    # on the 3-sphere every zonal constant is 1: (n-2)! l! (n+2l-1) == (n+l-2)! (n-1)
    for l in (1, 2, 5):
        assert norm_const_a(LambdaParam(3), l, 0) == pytest.approx(1.0, rel=1e-14)
    assert norm_const_a(LambdaParam(4), 1, 0) == pytest.approx(np.sqrt(5.0) / 3.0, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_norm_const_branches_match_product_formula(n):
    lp = LambdaParam(n)
    for l in range(0, 26, 5):
        for k1 in range(0, l + 1, 3):
            assert norm_const_a(lp, l, k1) == pytest.approx(
                norm_const_product_oracle(n, l, k1), rel=1e-12
            )


def test_norm_const_large_degree_finite():
    val = norm_const_a(LambdaParam(4), 220, 100)
    assert np.isfinite(val) and val > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_norm_const_array_matches_scalar(n):
    lp = LambdaParam(n)
    for k1 in range(7):
        ls = np.concatenate([np.arange(k1, k1 + 40), np.arange(k1 + 40, 5001, 61), [5000]])
        column = norm_const_a(lp, ls, k1)
        assert column.shape == ls.shape
        scalar = np.array([norm_const_a(lp, int(l), k1) for l in ls])
        assert np.max(np.abs(column / scalar - 1.0)) <= 1e-15


def norm_const_product_mp(n: int, l: int, k1: int) -> mpmath.mpf:
    """The product formula of :func:`norm_const_product_oracle` in 30-digit arithmetic."""
    ks = [l, k1] + [0] * (n - 2)
    lg = -mpmath.loggamma(mpmath.mpf(n + 1) / 2)
    for tau in range(1, n):
        kprev, kt = ks[tau - 1], ks[tau]
        lg += (
            (n - tau + 2 * kt - 2) * mpmath.log(2)
            + mpmath.loggamma(kprev - kt + 1)
            + mpmath.log(n - tau + 2 * kprev)
            + 2 * mpmath.loggamma(mpmath.mpf(n - tau) / 2 + kt)
            - mpmath.log(mpmath.pi) / 2
            - mpmath.loggamma(n - tau + kprev + kt)
        )
    return mpmath.exp(lg / 2)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 30, 150, 235, 260])
def test_norm_const_matches_mpmath_to_high_degree(n):
    # rational factors under square roots keep the constants within 2e-14 up
    # to degree 3900 and n = 260, where the exp of a log sum lost 3e-13
    lp = LambdaParam(n)
    with mpmath.workdps(30):
        for k1 in (0, 1, 3, 6):
            ls = np.array([k1, k1 + 1, 50, 777, 2024, 3000, 3899, 3900])
            got = norm_const_a(lp, ls, k1)
            for l, value in zip(ls, got):
                exact = norm_const_product_mp(n, int(l), k1)
                assert abs(value / exact - 1) <= 2e-14, (l, k1)


def test_norm_const_errors():
    with pytest.raises(ValueError):
        norm_const_a(LambdaParam(3), 2, 3)
    with pytest.raises(ValueError):
        norm_const_a(LambdaParam(3), 2, -1)
    with pytest.raises(ValueError):
        norm_const_a(LambdaParam(3), np.arange(0, 5), 1)


# -- harmonic dimension and reproducing kernel --------------------------------


def test_dim_harmonic():
    for n in (2, 3, 4, 5):
        assert dim_harmonic(n, 0) == 1
    for l in range(12):
        assert dim_harmonic(2, l) == 2 * l + 1
        assert dim_harmonic(3, l) == (l + 1) ** 2
    assert dim_harmonic(2, 3) == 7
    assert dim_harmonic(3, 2) == 9
    with pytest.raises(ValueError):
        dim_harmonic(1, 2)


def test_dim_harmonic_matches_factorial_formula():
    for n in range(2, 13):
        for l in list(range(0, 50)) + list(range(50, 5001, 113)) + [4999, 5000]:
            factorial_form = (n + 2 * l - 1) * math.factorial(n + l - 2) // (
                math.factorial(n - 1) * math.factorial(l)
            )
            assert dim_harmonic(n, l) == factorial_form


def test_reproducing_kernel_values():
    lp = LambdaParam(4)
    assert reproducing_kernel(lp, 0, 0.23) == pytest.approx(1.0, rel=1e-15)
    for l in (1, 4, 9):
        expect = (lp.lam + l) / lp.lam * float(gegenbauer_series_t1_exact(Fraction(3, 2), l))
        assert reproducing_kernel(lp, l, 1.0) == pytest.approx(expect, rel=1e-12)


def test_reproducing_kernel_legendre_oracle():
    lp = LambdaParam(2)
    t = TGRID_21
    pl = legendre_recurrence(12, t)
    for l in range(13):
        assert np.allclose(reproducing_kernel(lp, l, t), (2 * l + 1) * pl[l], rtol=1e-11, atol=1e-12)


def test_negative_degree_convention():
    # C_l = 0 for l < 0, exposed so downstream recursions need no guards
    from sphwave.special import gegenbauer_value

    assert gegenbauer_value(1.5, -1, 0.3) == 0.0
    assert gegenbauer_value(1.5, -4, np.array([0.1, 0.9])).tolist() == [0.0, 0.0]


# -- Gauss rule ---------------------------------------------------------------

GAUSS_SIZES = [1, 2, 9, 100, 400, 401]
GAUSS_ALPHAS = [0.0, 0.5, 1.0, 1.5, 2.5]


def gauss_node_mp(m: int, alpha: float, x0: float) -> tuple:
    """Node and weight of the m-point rule for (1-t^2)^alpha next to ``x0``, in 30 digits.

    One Newton step on the Gegenbauer recurrence from the double node, then
    the Christoffel number (k_m / k_{m-1}) h_{m-1} / (C_{m-1} C_m') from the
    exact leading coefficients k and squared norms h.
    """
    lam = mpmath.mpf(alpha) + mpmath.mpf(1) / 2

    def ends(t):
        c_prev, c = mpmath.mpf(1), 2 * lam * t
        for l in range(1, m):
            c_prev, c = c, (2 * (lam + l) * t * c - (2 * lam + l - 1) * c_prev) / (l + 1)
        return c_prev, c, ((m + 2 * lam - 1) * c_prev - m * t * c) / (1 - t * t)

    t = mpmath.mpf(x0)
    _, c, dc = ends(t)
    t -= c / dc
    c_prev, _, dc = ends(t)
    const = (
        2 * mpmath.pi * mpmath.power(2, 1 - 2 * lam) * mpmath.gamma(m - 1 + 2 * lam)
        / (mpmath.factorial(m) * mpmath.gamma(lam) ** 2)
    )
    return t, const / (c_prev * dc)


@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("m", GAUSS_SIZES)
def test_gauss_gegenbauer_at_least_as_close_as_scipy(m, alpha):
    x, w = gauss_gegenbauer(m, alpha)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)
    xs, ws = roots_jacobi(m, alpha, alpha)
    # every t >= 0 node of the small rules; for the large ones the two
    # innermost, three interior and the two outermost, where the errors peak
    half = m // 2
    idx = range(half, m) if m < 20 else sorted({half, half + 1, (m + half) // 2, m - 1 - half // 4, m - 2, m - 1})
    err = np.zeros((2, 2))  # [ours, scipy] x [node abs, weight rel]
    with mpmath.workdps(30):
        for i in idx:
            t, wt = gauss_node_mp(m, alpha, x[i])
            for row, (xi, wi) in enumerate(((x[i], w[i]), (xs[i], ws[i]))):
                err[row] = np.maximum(err[row], [float(abs(xi - t)), float(abs(wi / wt - 1))])
    # at least as close as scipy's roots_jacobi, up to rounding: one ulp of a
    # node in [1/2, 1), two ulps of a weight
    assert err[0, 0] <= max(err[1, 0], 2.0**-53)
    assert err[0, 1] <= max(err[1, 1], 2.0**-51)


@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("m", GAUSS_SIZES)
def test_gauss_gegenbauer_matches_roots_jacobi(m, alpha):
    x, w = gauss_gegenbauer(m, alpha)
    xs, ws = roots_jacobi(m, alpha, alpha)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.max(np.abs(w / ws - 1.0)) <= 1e-9


def test_gauss_gegenbauer_exactness_and_errors():
    # an m-point rule integrates t^(2m-2) exactly: int (1-t^2)^alpha t^2j dt = B(j+1/2, alpha+1)
    for alpha in (0.0, 1.0, 2.5):
        x, w = gauss_gegenbauer(12, alpha)
        for j in range(12):
            exact = math.gamma(j + 0.5) * math.gamma(alpha + 1) / math.gamma(j + alpha + 1.5)
            assert np.sum(w * x ** (2 * j)) == pytest.approx(exact, rel=1e-13)
    with pytest.raises(ValueError):
        gauss_gegenbauer(0, 0.0)
    with pytest.raises(ValueError):
        gauss_gegenbauer(4, -0.5)
