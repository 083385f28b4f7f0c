"""Independent reference implementations that the tests compare the package against.

Each is a direct transcription of a formula or of a simpler loop the package
replaced with a faster or more general form.  None is imported by ``sphwave``.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from sphwave.admissibility import _beta_sq_poly, _padd, _pmul
from sphwave.euclid import EuclideanPoint
from sphwave.rotderiv import CoefficientField, _angular, _norm_column
from sphwave.special import LambdaParam, _check_t, _resolve_order, dim_harmonic, gegenbauer_batch
from sphwave.wavelets import KIND_POISSON, TRUNCATION_CAP, TruncationError, WaveletSpec


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
