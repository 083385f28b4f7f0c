"""Independent reference implementations that the tests compare the package against.

Each is a direct transcription of a formula or of a simpler loop the package
replaced with a faster or more general form.  None is imported by ``sphwave``.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from sphwave.admissibility import _TRAPEZOID_STEP, _upper_gamma_q
from sphwave.euclid import EuclideanPoint
from sphwave.harmonics import GaussJacobiRule
from sphwave.rotderiv import (
    CoefficientField,
    _angular,
    _norm_column,
    beta_ladder,
    derivative_order,
    sector_weights,
    synthesize,
)
from sphwave.special import LambdaParam, _check_t, _resolve_order, dim_harmonic, gauss_gegenbauer, gegenbauer_batch
from sphwave.transform import RotationGrid
from sphwave.wavelets import (
    KIND_HEAT,
    KIND_POISSON,
    TRUNCATION_CAP,
    TruncationError,
    WaveletSpec,
    _poisson_parts,
    certified_degree,
    scale_weights,
)


def gegenbauer_derivative(l: int, order, t):
    """d/dt C_l at t, via the order-shift identity 2*lam*C_{l-1}^{lam+1}."""
    lam = _resolve_order(order)
    if l <= 0:
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
    return 2.0 * lam * gegenbauer_batch(lam + 1.0, l - 1, t)[l - 1]


def gegenbauer_weighted_sum_one_row(order, weights, t) -> np.ndarray:
    """sum_l weights[l] C_l(t) by the single-row streaming loop, skipping zero weights from l = 2 on."""
    lam = _resolve_order(order)
    w = np.asarray(weights, dtype=float)
    t = _check_t(np.asarray(t, dtype=float))
    L = w.shape[0] - 1
    if L < 0:
        return np.zeros_like(t)
    prev = np.ones_like(t)
    acc = w[0] * prev
    if L == 0:
        return acc
    cur = 2.0 * lam * t
    acc = acc + w[1] * cur
    for l in range(1, L):
        prev, cur = cur, (2.0 * (lam + l) * t * cur - (2.0 * lam + l - 1.0) * prev) / (l + 1)
        if w[l + 1] != 0.0:
            acc = acc + w[l + 1] * cur
    return acc


def gegenbauer_weighted_sum_rows_one_by_one(orders, rows, t) -> np.ndarray:
    """The multi-row ``gegenbauer_weighted_sum`` as one :func:`gegenbauer_weighted_sum_one_row` loop per row, stacked."""
    return np.array([gegenbauer_weighted_sum_one_row(order, w, t) for order, w in zip(orders, rows)])


def loop_error_bound(order, weights) -> float:
    """A priori bound on the rounding error of :func:`gegenbauer_weighted_sum_one_row` at any t.

    Near t = +-1 the three-term recurrence's rounding error grows like l^2 eps
    relative to C_l(1), so (L + 1)^2 eps sum_l |w_l| C_l(1) bounds the loop's
    error, and with it the distance to any sum at least as accurate.
    """
    w = np.abs(np.asarray(weights, dtype=float))
    return np.finfo(float).eps * w.shape[0] ** 2 * float(gegenbauer_weighted_sum_one_row(order, w, 1.0))


_FIXED_POINT_BITS = 256


def gegenbauer_weighted_sum_exact(order, weights, t) -> np.ndarray:
    """sum_l weights[l] C_l(t) by the three-term recurrence in 256-bit fixed point, rounded once to a float.

    Float inputs are dyadic rationals and the order is taken as a fraction
    p / q, so each step (l + 1) C_{l+1} = 2 (lam + l) t C_l - (2 lam + l - 1) C_{l-1}
    is one integer expression and one floor division, a 2^-256 error.  The
    weighted sum itself is exact.  At degrees up to 5000 and orders up to 10
    the result is exact to far beyond double precision; it matches a 50-digit
    mpmath recurrence to the last bit.  The points run side by side in numpy
    object arrays of Python integers.
    """
    lam = Fraction(_resolve_order(order))
    p, q = lam.numerator, lam.denominator
    w = [Fraction(v) for v in np.asarray(weights, dtype=float).tolist()]
    t = _check_t(np.asarray(t, dtype=float))
    if not w:
        return np.zeros_like(t)
    ratios = [Fraction(v) for v in t.ravel().tolist()]
    tm = np.empty(len(ratios), dtype=object)
    shift = np.empty(len(ratios), dtype=object)
    tm[:] = [r.numerator for r in ratios]
    shift[:] = [r.denominator.bit_length() - 1 for r in ratios]  # t = tm / 2^shift
    den = max(v.denominator for v in w)  # a power of two: sum w_l C_l = sum W_l C_l / den
    W = [v.numerator * (den // v.denominator) for v in w]
    prev = np.empty(len(ratios), dtype=object)
    prev[:] = 1 << _FIXED_POINT_BITS
    acc = W[0] * prev
    if len(W) > 1:
        cur = 2 * p * tm * prev // (q << shift)
        acc = acc + W[1] * cur
        for l in range(1, len(W) - 1):
            num = 2 * (p + l * q) * tm * cur - ((2 * p + (l - 1) * q) * prev << shift)
            prev, cur = cur, num // (q * (l + 1) << shift)
            if W[l + 1]:
                acc = acc + W[l + 1] * cur
    scale = den << _FIXED_POINT_BITS
    return np.array([float(Fraction(a, scale)) for a in acc]).reshape(t.shape)


def _log_rising(start, count: int):
    """log(start (start + 1) ... (start + count - 1)) as a sum of count logs, over an integer array."""
    return np.log(np.asarray(start)[..., None] + np.arange(count)).sum(axis=-1)


def _gegenbauer_norm_inv(l: int, lam: float) -> float:
    # c(l, lam): the constant that inverts the Gegenbauer squared norm.  With
    # 2 lam = n - 1 an integer, Gamma(l + 1) / Gamma(2 lam + l) is the inverse
    # rising product (l + 1) ... (l + 2 lam - 1), a short sum of logs that stays
    # accurate at high degree.
    if not (2.0 * lam).is_integer():
        raise ValueError(f"rule order lam must be (n - 1) / 2 for some n, got {lam}")
    lg = (
        (2.0 * lam - 1.0) * math.log(2.0)
        + math.log(lam + l)
        + 2.0 * math.lgamma(lam)
        - math.log(math.pi)
        - float(_log_rising(l + 1, int(2.0 * lam) - 1))
    )
    return math.exp(lg)


def gegenbauer_coefficient(rule: GaussJacobiRule, f_values, l: int) -> float:
    """Degree-l Gegenbauer coefficient of a zonal function sampled at the rule's nodes.

    Computes c(l, lam) * integral f(t) C_l(t) (1-t^2)^(lam-1/2) dt by quadrature.
    The rule must resolve the integrand: it is rejected outright when it cannot
    even integrate C_l against a constant exactly.  Its lam must be that of a
    sphere, (n - 1) / 2.
    """
    if rule.order < l + 1:
        raise ValueError(
            f"quadrature order {rule.order} insufficient for degree {l}; need at least {l + 1} nodes"
        )
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != rule.nodes.shape:
        raise ValueError("f_values must be sampled at the rule's nodes")
    cl = gegenbauer_batch(rule.lam, l, rule.nodes)[l]
    integral = float(np.sum(rule.weights * f_values * cl))
    return _gegenbauer_norm_inv(l, rule.lam) * integral


def _padd(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a)) if len(b) > len(a) else list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _beta_sq_poly(lam: Fraction, j: int):
    """beta_{l,j}^2 as a linear polynomial in u = l(2 lam + l), in Fraction coefficients."""
    if j == 0:
        return [Fraction(0), 1 / (2 * lam + 1)]
    c = Fraction(j + 1) * (2 * lam + j - 1) / ((2 * lam + 2 * j - 1) * (2 * lam + 2 * j + 1))
    return [-c * j * (2 * lam + j), c]


def q_table_all_pairs(lam: Fraction, dfrak: int) -> dict:
    """Every q_{d,d'} with d <= d' <= dfrak of matching parity, keyed (d, d'), each pair with its own prefix products."""
    P = {(0, 0): [Fraction(1)]}
    for d in range(dfrak):
        for j in range(d + 2):
            term = [Fraction(0)]
            if (d, j + 1) in P:
                term = _padd(term, _pmul(_beta_sq_poly(lam, j), P[(d, j + 1)]))
            if j >= 1 and (d, j - 1) in P:
                term = _padd(term, [-c for c in P[(d, j - 1)]])
            if any(term):
                P[(d + 1, j)] = term
    table = {}
    for d in range(dfrak + 1):
        for dp in range(d, dfrak + 1, 2):
            q, prefix = [Fraction(0)], [Fraction(1)]
            for j in range(d + 1):
                if (d, j) in P and (dp, j) in P:
                    q = _padd(q, _pmul(prefix, _pmul(P[(d, j)], P[(dp, j)])))
                prefix = _pmul(prefix, _beta_sq_poly(lam, j))
            table[(d, dp)] = q
    return table


def _kernel_seed_mpmath(n: int, l: int):
    """The kernel's zonal seed (lam + l)/lam / (sigma A_l^0) of degree l, in the working mpmath precision.

    A_l^0 is the k1 = 0 sector normalization of ``norm_const_a``, written
    out in gamma functions: sqrt(2l + 1) on S^2, and for n >= 3
    A^2 = 2^(2n-6) (n-2) Gamma(lam)^2 Gamma((n-2)/2)^2 / ((n-1) pi Gamma(n-2))
    (n + 2l - 1) l! / (l + n - 2)!.
    """
    lam = mpmath.mpf(n - 1) / 2
    sigma = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
    if n == 2:
        a_sq = mpmath.mpf(2 * l + 1)
    else:
        half = mpmath.mpf(n - 2) / 2
        a_sq = (
            mpmath.mpf(2) ** (2 * n - 6) * (n - 2) * mpmath.gamma(lam) ** 2 * mpmath.gamma(half) ** 2
            / ((n - 1) * mpmath.pi * mpmath.gamma(n - 2))
            * (n + 2 * l - 1) * mpmath.factorial(l) / mpmath.factorial(l + n - 2)
        )
    return (lam + l) / lam / (sigma * mpmath.sqrt(a_sq))


def per_degree_reconstruction_check(lp: LambdaParam, gamma, l: int) -> float:
    """The degree-l reconstruction multiplier C F_l E_l / N(n, l) of the kernel-seed pair, as a one-degree sweep of its own.

    F is the column sums over axis 0 of the full (nodes x (l+1)) scale-weight
    table on the degree's trapezoid window.  E_l = sum_k w_k B_{l,k}^2 of
    the table that ladders the gamma-weighted derivatives of the kernel's
    zonal seed, as the package did before its table moved to the unit seed;
    the seed, the squares, C and N(n, l) are formed in 40-digit mpmath or
    exact integers, so nothing overflows.  The package instead reads E_l of
    the unit seed and divides by (n-1)^order Gamma(order).
    """
    lam, dfrak, n = lp.lam, gamma.order, lp.n
    a = l * (2.0 * lam + l) / (2.0 * lam)
    x_lo, x_hi = -40.0 / dfrak - math.log(a), math.log(60.0 / a)
    x = x_lo + _TRAPEZOID_STEP * np.arange(math.ceil((x_hi - x_lo) / _TRAPEZOID_STEP) + 1)
    rho, ls = np.exp(x), np.arange(l + 1)
    s = scale_weights(lp, KIND_POISSON, dfrak, rho, ls) * scale_weights(lp, KIND_HEAT, dfrak, rho, ls)
    factor = _TRAPEZOID_STEP * s.sum(axis=0)
    with mpmath.workdps(40):
        seed = np.zeros(l + 1)
        seed[l] = float(_kernel_seed_mpmath(n, l))
        row = np.zeros(dfrak + 1)
        for d, g in enumerate(gamma.gammas):
            row[: d + 1] += g * derivative_order(seed, lp, d).coeffs[l]
        energy = mpmath.fsum(w * mpmath.mpf(b) ** 2 for w, b in zip(sector_weights(n, dfrak), row))
        sigma = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        C = sigma**2 / ((n - 1) ** dfrak * mpmath.gamma(dfrak))
        return float(C * mpmath.mpf(factor[l]) * energy / dim_harmonic(n, l))


def synthesize_frame_per_column(field: CoefficientField, cos_theta1, sin_theta1, theta2) -> np.ndarray:
    """Sector synthesis with one streaming recurrence per order column."""
    lp = field.lp
    c1 = np.asarray(cos_theta1, dtype=float)
    s1 = np.asarray(sin_theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    L, K = field.degree_max, field.order_bound
    total = np.zeros(np.broadcast(c1, theta2).shape)
    for k in range(K + 1):
        col = field.coeffs[:, k]
        if not np.any(col):
            continue
        radial = gegenbauer_weighted_sum_one_row(lp.lam + k, col[k:] * _norm_column(lp, L, k), c1)
        if k > 0:
            radial = radial * s1**k
        total = total + radial * _angular(lp, k, theta2)
    return total


def _term_bound(spec: WaveletSpec, l: int) -> float:
    lp, d = spec.lp, spec.order
    nl = dim_harmonic(lp.n, l)
    if spec.kind == KIND_POISSON:
        w = math.exp(-spec.rho * l)
        pref = spec.rho**d
    else:
        w = math.exp(-spec.rho * l * l / (2.0 * lp.lam))
        pref = 1.0
    return pref * (d + 1) * 2.0**d * (l + lp.lam) ** d * nl * w / lp.sigma


def truncation_degree_scan(spec: WaveletSpec, eps: float) -> int:
    """The truncation degree by a scalar scan, one degree bound at a time with exact N(n, l)."""
    try:
        head = _term_bound(spec, spec.order + 1)
        for L in range(spec.order, TRUNCATION_CAP + 1):
            nxt = _term_bound(spec, L + 2)
            q = nxt / head if head > 0 else 0.0
            if q < 1.0 and head / (1.0 - q) < eps:
                return L
            head = nxt
    except OverflowError:
        raise TruncationError(f"degree bound overflows a float at order {spec.order}") from None
    raise TruncationError(f"tolerance {eps:g} unreachable below degree cap {TRUNCATION_CAP} at rho={spec.rho:g}")


def limit_terms_by_differentiation(lam: float, d: int) -> list:
    """Terms (c, p, q) of (d/d xi_2)^d (1+|xi|^2)^-(lam+1): c * xi_2^p * (1+|xi|^2)^-q, sorted."""
    lamF = Fraction(lam)
    terms = {(0, lamF + 1): Fraction(1)}
    for _ in range(d):
        new: dict = {}
        for (p, q), c in terms.items():
            if p >= 1:
                key = (p - 1, q)
                new[key] = new.get(key, Fraction(0)) + c * p
            key = (p + 1, q + 1)
            new[key] = new.get(key, Fraction(0)) - 2 * q * c
        terms = {k: v for k, v in new.items() if v}
    return [(c, p, q) for (p, q), c in sorted(terms.items())]


def limit_closed_low_order(lp: LambdaParam, d: int, xi: EuclideanPoint) -> float:
    """Hand-written flat-space profiles G_0, G_1 and G_2."""
    lam, sigma = lp.lam, lp.sigma
    A = 1.0 + xi.radius**2
    if d == 0:
        return 2.0 / (sigma * A ** (lam + 1.0))
    if d == 1:
        return -4.0 * (lam + 1.0) * xi.xi2 / (sigma * A ** (lam + 2.0))
    if d == 2:
        return (2.0 / sigma) * (
            -2.0 * (lam + 1.0) * A ** (-(lam + 2.0))
            + 4.0 * (lam + 1.0) * (lam + 2.0) * xi.xi2**2 * A ** (-(lam + 3.0))
        )
    raise ValueError("closed branches exist for d <= 2")


def wigner_d_sum(l: int, m: int, k: int, beta: float) -> float:
    """d^l_{mk}(beta) by Wigner's explicit sum over s, in 40-digit arithmetic.

    sqrt((l+m)! (l-m)! (l+k)! (l-k)!) sum_s (-1)^(m-k+s) cos(beta/2)^(2l+k-m-2s)
    sin(beta/2)^(m-k+2s) / ((l+k-s)! s! (m-k+s)! (l-m-s)!).
    """
    f = math.factorial
    with mpmath.workdps(40):
        c, s_ = mpmath.cos(mpmath.mpf(beta) / 2), mpmath.sin(mpmath.mpf(beta) / 2)
        total = mpmath.mpf(0)
        for s in range(max(0, k - m), min(l + k, l - m) + 1):
            term = c ** (2 * l + k - m - 2 * s) * s_ ** (m - k + 2 * s) / (f(l + k - s) * f(s) * f(m - k + s) * f(l - m - s))
            total += -term if (m - k + s) % 2 else term
        return float(mpmath.sqrt(f(l + m) * f(l - m) * f(l + k) * f(l - k)) * total)


def wigner_d_column_starts(L: int, K: int, beta) -> dict:
    """{(l, m, k): d^l_{mk}(beta)} at each column's first degree max(|m|, k), by scalar loops over m and j.

    A binomial root times powers of cos(beta/2) and sin(beta/2), the roots grown
    as running products, in the order the package's table multiplies them.
    """
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    starts = {}
    for k in range(min(K, L) + 1):
        root = 1.0
        for m in range(k, -k - 1, -1):
            starts[k, m, k] = root * c ** (k + m) * s ** (k - m)
            root *= math.sqrt((k + m) / (k - m + 1))
        top, bottom = c ** (2 * k), s ** (2 * k)
        for j in range(k + 1, L + 1):
            step = math.sqrt(2 * j * (2 * j - 1) / ((j + k) * (j - k))) * c * s
            top, bottom = top * step, bottom * step
            starts[j, j, k] = top if (j - k) % 2 == 0 else -top
            starts[j, -j, k] = bottom
    return starts


def sphere_grid_by_meshgrid(n: int, band: int) -> tuple:
    """(angles, weights, shape) of the product grid, assembled from full meshgrids of the axis rules."""
    nodes, weights = [], []
    for tau in range(1, n):
        t, w = gauss_gegenbauer(band // 2 + 1, (n - tau - 1) / 2.0)
        nodes.append(np.arccos(t[::-1]))
        weights.append(w[::-1])
    nodes.append(2.0 * np.pi * np.arange(band + 1) / (band + 1))
    weights.append(np.full(band + 1, 2.0 * np.pi / (band + 1)))
    grids = np.meshgrid(*nodes, indexing="ij")
    wgrids = np.meshgrid(*weights, indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    return angles, np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1), grids[0].shape


def tail_l1_mpmath(n: int, order: int, R: float, L: int, starts, dps: int = 50) -> float:
    """Spherical L1 norm of the scale tail sum_{l=1..L} c_l C_l^lam, in ``dps``-digit arithmetic.

    c_l = (2 lam)^order Gamma(order, x_l) (lam + l) / (lam sigma_n^2) with
    x_l = R l (2 lam + l) / (2 lam).  Each sign change a_i is refined by
    ``findroot`` from one start in ``starts`` (values of t = cos theta);
    between them the integral of Phi_R (1 - t^2)^(lam - 1/2) is
    G(a_i+1) - G(a_i), G(a) = (1 - a^2)^(lam + 1/2) sum_l c_l 2 lam / (l (l + 2 lam)) C_{l-1}^{lam+1}(a)
    (DLMF 18.9), and G(1) = G(-1) = 0.
    """
    with mpmath.workdps(dps):
        lam = mpmath.mpf(n - 1) / 2
        sigma = lambda m: 2 * mpmath.pi ** (mpmath.mpf(m + 1) / 2) / mpmath.gamma(mpmath.mpf(m + 1) / 2)
        c = [mpmath.mpf(0)] + [
            (2 * lam) ** order * mpmath.gammainc(order, R * l * (2 * lam + l) / (2 * lam)) * (lam + l) / lam
            for l in range(1, L + 1)
        ]
        c = [x / sigma(n) ** 2 for x in c]

        def series(order_, weights, t):
            prev, cur = mpmath.mpf(1), 2 * order_ * t
            total = weights[0] + weights[1] * cur
            for l in range(1, len(weights) - 1):
                prev, cur = cur, (2 * (order_ + l) * t * cur - (2 * order_ + l - 1) * prev) / (l + 1)
                total += weights[l + 1] * cur
            return total

        # the residual scales with Phi_R(1), so findroot's absolute check is off; it runs its secant steps
        roots = [mpmath.findroot(lambda t: series(lam, c, t), mpmath.mpf(float(a)), verify=False) for a in starts]
        g_weights = [c[l] * 2 * lam / (l * (l + 2 * lam)) for l in range(1, L + 1)] + [mpmath.mpf(0)]
        G = [(1 - a * a) ** (lam + mpmath.mpf(1) / 2) * series(lam + 1, g_weights, a) for a in roots]
        ends = [mpmath.mpf(0)] + G + [mpmath.mpf(0)]
        return float(sigma(n - 1) / sigma(n) * sum(abs(b - a) for a, b in zip(ends, ends[1:])))


def tail_l1_plateau_mpmath(n: int, order: int, dps: int = 40) -> float:
    """I (1 + integral_0^inf |P| w du / Gamma(n/2)) by mpmath quadrature, in ``dps``-digit arithmetic.

    P = L_{order-1}^{(n/2)} from its exact coefficients
    (-1)^i binom(order-1+n/2, order-1-i) / i!, w = u^(n/2-1) e^-u and
    I = (n-1)^order Gamma(order) / sigma_n^2.  The integral is split at the
    roots of P from ``mpmath.polyroots``, so |P| w is smooth on every piece.
    """
    with mpmath.workdps(dps):
        m, alpha = order - 1, mpmath.mpf(n) / 2
        p = [(-1) ** i * mpmath.binomial(m + alpha, m - i) / mpmath.factorial(i) for i in range(m + 1)]
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(p[::-1], maxsteps=200, extraprec=200)) if m else []
        ends = [mpmath.mpf(0)] + roots + [mpmath.inf]

        def integrand(u):
            return mpmath.polyval(p[::-1], u) * u ** (alpha - 1) * mpmath.exp(-u)

        total = sum(abs(mpmath.quad(integrand, [a, b])) for a, b in zip(ends, ends[1:]))
        sigma = 2 * mpmath.pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        mass = (n - 1) ** order * mpmath.gamma(order) / sigma**2
        return float(mass * (1 + total / mpmath.gamma(alpha)))


def tail_weights_full_cap(lam: float, dfrak: int, R: float) -> np.ndarray:
    """The scale-tail weights with every degree up to the cap formed at once, then scanned.

    Same terms, bounds and certified degree as ``admissibility._tail_weights``,
    which forms them on a growing prefix instead.
    """
    ls = np.arange(TRUNCATION_CAP + 3)
    x = R * ls * (2.0 * lam + ls) / (2.0 * lam)
    weights = (2.0 * lam) ** dfrak * _upper_gamma_q(dfrak, x) * math.gamma(dfrak) * (lam + ls) / lam
    weights[0] = 0.0
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p((2.0 * lam - 1.0) / ls[1:]))))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = np.exp(np.log(weights) + log_c)
        bound = np.exp(dfrak * math.log(2.0 * lam) + (dfrak - 1) * np.log(x) - x - np.log1p((1 - dfrak) / x)
                       + np.log((lam + ls) / lam) + log_c)
    bound[x <= dfrak] = np.inf
    failure = f"scale tail at R={R:g} not certified below degree cap {TRUNCATION_CAP}"
    L = certified_degree(bound, 1e-12 * np.cumsum(terms)[: TRUNCATION_CAP + 1], failure)
    return weights[: L + 1]


def synthesize_on_grid(field: CoefficientField, grid) -> np.ndarray:
    """Field values at the nodes of a product sphere grid, bit for bit those of node-by-node synthesis.

    Sector fields depend on (theta1, theta2) alone and the grid is a product
    rule, so synthesis runs on a theta1 column against a theta2 row (one
    recurrence per distinct theta1) and is repeated along the other axes.
    """
    th1, th2 = (a.reshape(grid.shape) for a in grid.sector_angles())
    rest = (0,) * (grid.n - 2)
    vals = synthesize(field, th1[(slice(None), 0) + rest][:, None], th2[(0, slice(None)) + rest][None, :])
    return np.broadcast_to(vals.reshape(vals.shape + (1,) * len(rest)), grid.shape).ravel()


def poisson_kernel_closed(lp: LambdaParam, rho: float, theta1):
    """Poisson kernel value (1/sigma)(1-r^2)/(1-2r cos(theta1)+r^2)^(lam+1), written out by hand."""
    one_minus_r2, den = _poisson_parts(rho, theta1)
    return one_minus_r2 / (lp.sigma * den ** (lp.lam + 1.0))


def sector_harmonic(lp: LambdaParam, l: int, k: int, theta1, theta2):
    """The sector harmonic Y_l^k at (theta1, theta2): the synthesis of the unit field at (l, k); 0 for k > l."""
    coeffs = np.zeros((l + 1, k + 1))
    if k <= l:
        coeffs[l, k] = 1.0
    return synthesize(CoefficientField(lp, coeffs), theta1, theta2)


def beta_ladder_closed_form(lam: float, L: int, k1: int) -> np.ndarray:
    """beta_{l,k1}, l = 0..L, k1 >= 0, by the generic float closed form, with the 2-sphere line at lam = 1/2, k1 = 0.

    beta^2 = (k1+1)(2 lam+k1-1)(l-k1)(2 lam+l+k1) / ((2 lam+2 k1-1)(2 lam+2 k1+1)),
    multiplied out left to right; 0 for l <= k1.
    """
    out = np.zeros(L + 1)
    ls = np.arange(k1 + 1, L + 1, dtype=float)
    if lam == 0.5 and k1 == 0:
        out[1:] = np.sqrt(ls * (ls + 1)) / 2.0
    else:
        out[k1 + 1 :] = np.sqrt(
            (k1 + 1) * (2 * lam + k1 - 1) * (ls - k1) * (2 * lam + ls + k1) / ((2 * lam + 2 * k1 - 1) * (2 * lam + 2 * k1 + 1))
        )
    return out


def derivative_step_loop(field: CoefficientField) -> CoefficientField:
    """One rotational derivative by a loop over output orders, one ladder column at a time."""
    lp = field.lp
    a = field.coeffs
    L, K = field.degree_max, field.order_bound
    out = np.zeros((L + 1, K + 2))
    betas = [beta_ladder(lp.lam, L, k) for k in range(K + 2)]
    for k in range(K + 2):
        acc = np.zeros(L + 1)
        if k + 1 <= K:
            acc += betas[k] * a[:, k + 1]
        if k >= 1:
            acc -= betas[k - 1] * a[:, k - 1]
        if k == 0 and lp.n == 2 and K >= 1:
            acc = 2.0 * betas[0] * a[:, 1]
        out[:, k] = acc
    return CoefficientField(lp, out)


def steered_rotation_grid(band: int, order: int) -> RotationGrid:
    """The round trip's SO(3) grid: the full grid with 2 min(order, band) + 1 nodes in the third twist.

    The order-d wavelets have sector modes k <= d only, so products of two of
    them need that many uniform nodes in the twist about their own axis.
    """
    if band < 0 or order < 0:
        raise ValueError("band and order must be >= 0")
    n_twist = 2 * band + 1
    n_steer = 2 * min(order, band) + 1
    tw = 2.0 * np.pi * np.arange(n_twist) / n_twist
    tg = 2.0 * np.pi * np.arange(n_steer) / n_steer
    t, w = gauss_gegenbauer(band + 1, 0.0)
    a, b, g = np.meshgrid(tw, np.arccos(t[::-1]), tg, indexing="ij")
    wa, wb, wg = np.meshgrid(np.full(n_twist, 1.0 / n_twist), w[::-1] / 2.0, np.full(n_steer, 1.0 / n_steer), indexing="ij")
    euler = np.stack([a.ravel(), b.ravel(), g.ravel()], axis=1)
    return RotationGrid(band=band, euler=euler, weights=(wa * wb * wg).ravel())

