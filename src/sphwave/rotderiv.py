"""Derivative-of-rotation operator on sector coefficient fields.

A zonal function f = sum_l a_l^0 Y_l^0 differentiated d times along the
rotation angle in the (x1, x2) plane stays inside the (l, k1) sector; its
coefficients follow the one-step ladder

    a_l^k(out) = beta_{l,k} a_l^{k+1}(in) - beta_{l,k-1} a_l^{k-1}(in)

with the creation/annihilation coefficients beta_{l,k} below, plus the
n = 2 special zonal line a_l^0(out) = 2 beta_{l,0} a_l^1(in) that absorbs the
real-basis bookkeeping of the 2-sphere.  The operator never mixes degrees, and
after d steps from a zonal seed the coefficients of order k with k != d (mod 2)
vanish identically.

The sector family of hyperspherical harmonics, indexed by (l, k1) -- the
members depending on the first two angles alone -- is evaluated by
:func:`sector_basis_frame`: rotational derivatives of zonal functions never
leave it.  On the 2-sphere the basis is the real combination
``Yt_l^k = Y_l^{-k} + Y_l^k``; the zonal member is taken as ``Yt_l^0 = Y_l^0``
(no doubling), so coefficient fields are real in every dimension.  The k >= 1
members then carry squared norm 2, a weight made explicit in all inner-product
code (see :func:`sector_weights`).

Fields are immutable once built; every operation allocates its output, so
evaluating many points or fields concurrently is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import LambdaParam, gegenbauer_batch, gegenbauer_value, gegenbauer_weighted_sum, norm_const_a

__all__ = [
    "beta",
    "beta_ladder",
    "CoefficientField",
    "zonal_field",
    "derivative_step",
    "derivative_order",
    "synthesize",
    "synthesize_frame",
    "sector_basis_frame",
    "sector_weights",
    "sector_pair_sum",
    "structure_polynomial_check",
]


def _beta_sq(lam: float, l, k1: int):
    """Generic closed form of beta_{l,k1}^2, 0 <= k1 < l; 0/0 at lam = 1/2, k1 = 0."""
    return (k1 + 1) * (2 * lam + k1 - 1) * (l - k1) * (2 * lam + l + k1) / (
        (2 * lam + 2 * k1 - 1) * (2 * lam + 2 * k1 + 1)
    )


def beta(lam: float, l: int, k1: int) -> float:
    """Ladder coefficient beta_{l,k1} coupling sector orders k1 <-> k1+1.

    beta_{l,-1} = 0 and beta_{l,k1} = 0 for k1 >= l (the ladder ends).  At
    lam = 1/2 with k1 = 0 the generic formula is 0/0; the correct 2-sphere
    value there is sqrt(l(l+1))/2, used together with the factor-2 zonal
    coupling of :func:`derivative_step`.
    """
    return float(beta_ladder(lam, l, k1)[l])


def beta_ladder(lam: float, L: int, k1: int) -> np.ndarray:
    """Vector of beta_{l,k1} over l = 0..L, equal to :func:`beta` element by element."""
    if k1 < -1:
        raise ValueError("k1 must be >= -1")
    out = np.zeros(L + 1)
    if k1 == -1:
        return out
    ls = np.arange(k1 + 1, L + 1, dtype=float)
    if lam == 0.5 and k1 == 0:
        out[1:] = np.sqrt(ls * (ls + 1)) / 2.0
    else:
        out[k1 + 1 :] = np.sqrt(_beta_sq(lam, ls, k1))
    return out


@dataclass(frozen=True)
class CoefficientField:
    """Real sector coefficients a_l^{k1}, rows l = 0..L, columns k1 = 0..K.

    Entries with k1 > l are identically zero.  Treat ``coeffs`` as immutable.
    """

    lp: LambdaParam
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("coeffs must be a 2-d array (degree x order)")
        object.__setattr__(self, "coeffs", c)
        L, K = c.shape[0] - 1, c.shape[1] - 1
        for k1 in range(1, K + 1):
            if np.any(c[: min(k1, L + 1), k1] != 0.0):
                raise ValueError("coefficients with k1 > l must vanish")

    @property
    def degree_max(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def order_bound(self) -> int:
        return self.coeffs.shape[1] - 1

    def scaled(self, factor: float) -> "CoefficientField":
        return CoefficientField(self.lp, factor * self.coeffs)


def zonal_field(lp: LambdaParam, zonal_coeffs) -> CoefficientField:
    """Field with only the k1 = 0 column populated."""
    a = np.asarray(zonal_coeffs, dtype=float)
    return CoefficientField(lp, a.reshape(-1, 1).copy())


def derivative_step(field: CoefficientField) -> CoefficientField:
    """One rotational derivative; the order bound grows by one.

    Column k gains beta_{l,k} a_l^{k+1} and loses beta_{l,k-1} a_l^{k-1}: one
    (L+1, K+1) table of betas and two slice updates, then the S^2 zonal line.
    """
    lp, a = field.lp, field.coeffs
    K = field.order_bound
    betas = np.stack([beta_ladder(lp.lam, field.degree_max, k) for k in range(K + 1)], axis=1)
    out = np.zeros((a.shape[0], K + 2))
    out[:, :K] += betas[:, :K] * a[:, 1:]
    out[:, 1:] -= betas * a
    if lp.n == 2 and K >= 1:
        out[:, 0] = 2.0 * betas[:, 0] * a[:, 1]
    return CoefficientField(lp, out)


def derivative_order(zonal_coeffs, lp: LambdaParam, d: int) -> CoefficientField:
    """d-fold rotational derivative of a zonal field."""
    if d < 0:
        raise ValueError("derivative order must be >= 0")
    field = zonal_field(lp, zonal_coeffs)
    for _ in range(d):
        field = derivative_step(field)
    return field


def synthesize(field: CoefficientField, theta1, theta2) -> np.ndarray:
    """Evaluate the field's function at angles (theta1, theta2).

    Sector fields depend on the first two angles only; theta2 is phi on S^2.
    Broadcasts over array inputs; each order column is summed in a fixed
    order, so results are bit-reproducible.  The radial recurrence runs
    on theta1's own shape: a theta1 column against a theta2 row evaluates a
    tensor grid with one recurrence per distinct theta1, and gives the same
    bits as the full meshgrid.
    """
    theta1 = np.asarray(theta1, dtype=float)
    return synthesize_frame(field, np.cos(theta1), np.sin(theta1), theta2)


def synthesize_frame(field: CoefficientField, cos_theta1, sin_theta1, theta2) -> np.ndarray:
    """Evaluate with (cos theta1, sin theta1) supplied directly.

    Preferred when the point comes from Cartesian data: sin(theta1) computed
    as a vector norm keeps full relative accuracy near the poles, where
    reconstructing it through arccos would lose half the digits.  Sums all
    nonzero order columns in one :func:`gegenbauer_weighted_sum` call, which
    holds O(sqrt(L)) values per point and column, so high degrees on many
    points stay cheap in memory; :func:`sector_basis_frame` keeps every basis
    function instead.
    """
    lp = field.lp
    c1 = np.asarray(cos_theta1, dtype=float)
    s1 = np.asarray(sin_theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    L, K = field.degree_max, field.order_bound
    total = np.zeros(np.broadcast(c1, theta2).shape)
    ks = [k for k in range(K + 1) if np.any(field.coeffs[:, k])]
    if not ks:
        return total
    rows = [field.coeffs[k:, k] * _norm_column(lp, L, k) for k in ks]
    for k, radial in zip(ks, gegenbauer_weighted_sum([lp.lam + k for k in ks], rows, c1)):
        if k > 0:
            radial = radial * s1**k
        total = total + radial * _angular(lp, k, theta2)
    return total


def sector_basis_frame(lp: LambdaParam, L: int, K: int, cos_theta1, sin_theta1, theta2) -> np.ndarray:
    """Every sector basis function Y_l^k, l <= L, k <= K, at the given points.

    Shape ``(L+1, K+1) + shape(points)``; entries with k > l are zero.  A
    field's synthesis is the contraction of its coefficients with this array,
    so one evaluation serves any number of fields of the same band and order
    bound.  Points are given as in :func:`synthesize_frame`.
    """
    c1 = np.asarray(cos_theta1, dtype=float)
    s1 = np.asarray(sin_theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    shape = np.broadcast(c1, theta2).shape
    out = np.zeros((L + 1, K + 1) + shape)
    for k in range(min(K, L) + 1):
        col = out[k:, k]
        col[...] = gegenbauer_batch(lp.lam + k, L - k, c1)
        col *= _norm_column(lp, L, k).reshape((-1,) + (1,) * len(shape))
        if k > 0:
            col *= s1**k
        col *= _angular(lp, k, theta2)
    return out


def _norm_column(lp: LambdaParam, L: int, k: int) -> np.ndarray:
    """Normalization constants A_l^k for l = k..L."""
    return norm_const_a(lp, np.arange(k, L + 1), k)


def _angular(lp: LambdaParam, k: int, theta2):
    """Order-k factor in theta2: the real 2-sphere basis doubles k >= 1."""
    if lp.n == 2:
        return 1.0 if k == 0 else 2.0 * np.cos(k * theta2)
    return gegenbauer_value(lp.lam - 0.5, k, np.cos(theta2))


def sector_weights(n: int, order_bound: int) -> np.ndarray:
    """Inner-product weights per order column: 1 except weight 2 for k1 >= 1 on S^2.

    The real 2-sphere basis members with k1 >= 1 have squared norm 2; these
    weights restore orthonormal-basis coefficient sums.
    """
    w = np.ones(order_bound + 1)
    if n == 2 and order_bound >= 1:
        w[1:] = 2.0
    return w


def sector_pair_sum(f: CoefficientField, g: CoefficientField) -> np.ndarray:
    """Per-degree sums sum_{k1} w_{k1} a_l^{k1}(f) a_l^{k1}(g) for real fields."""
    if f.lp != g.lp:
        raise ValueError("fields live on different spheres")
    L = min(f.degree_max, g.degree_max)
    K = min(f.order_bound, g.order_bound)
    w = sector_weights(f.lp.n, K)
    return np.einsum("lk,lk,k->l", f.coeffs[: L + 1, : K + 1], g.coeffs[: L + 1, : K + 1], w)


def structure_polynomial_check(lp: LambdaParam, zonal_coeffs, d: int) -> list:
    """Fit a_l^j(f^(d)) / (prod_{i<j} beta_{l,i} * a_l^0(f)) against polynomials in u = l(2 lam + l).

    Returns one report dict per order j of matching parity: the expected degree
    (d - j)/2, the fitted degree (smallest achieving relative residual below
    1e-8), the max residual of that fit, and the fitted leading
    coefficient.  Fit failures are reported, never raised.
    """
    if d > 8:
        raise ValueError("structure check supports d <= 8")
    zonal = np.asarray(zonal_coeffs, dtype=float)
    L = zonal.shape[0] - 1
    if L > 60:
        raise ValueError("structure check supports L <= 60")
    field = derivative_order(zonal, lp, d)
    lam = lp.lam
    reports = []
    for j in range(d % 2, min(d, field.order_bound) + 1, 2):
        ls = np.array([l for l in range(max(j, 1), L + 1) if zonal[l] != 0.0])
        if ls.size == 0:
            continue
        u = ls * (2 * lam + ls)
        denom = np.array(
            [np.prod([beta(lam, l, i) for i in range(j)]) * zonal[l] for l in ls]
        )
        ratio = field.coeffs[ls, j] / denom
        expected = (d - j) // 2
        scale = float(np.max(np.abs(ratio))) or 1.0
        fitted_degree = None
        residual = np.inf
        coeffs = None
        for deg in range(0, expected + 3):
            if ls.size < deg + 1:
                break
            c = np.polynomial.polynomial.polyfit(u, ratio, deg)
            res = float(np.max(np.abs(np.polynomial.polynomial.polyval(u, c) - ratio)))
            if res < 1e-8 * scale:
                fitted_degree, residual, coeffs = deg, res, c
                break
        reports.append(
            {
                "j": j,
                "expected_degree": expected,
                "fitted_degree": fitted_degree,
                "max_residual": residual,
                "leading_coefficient": None if coeffs is None else float(coeffs[-1]),
                "ok": fitted_degree == expected,
            }
        )
    return reports
