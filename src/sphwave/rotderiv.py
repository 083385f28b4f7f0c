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

The ladder lives here in both forms.  Exactly, beta_{l,k}^2 is an integer
polynomial in u = l(2 lam + l) over an integer, and a_l^j(f^(d)) =
(prod_{i<j} beta_{l,i}) P_{d,j}(u) a_l^0(f) with P_{d,j} exact of degree
(d - j)/2 (:func:`_ladder`), which the gamma solver and
:func:`structure_polynomial_check` read; :func:`beta_ladder` is the same
beta in floats.

The sector family of hyperspherical harmonics, indexed by (l, k1) -- the
members depending on the first two angles alone -- holds every rotational
derivative of a zonal function.  One evaluator sums it, :func:`synthesize_frame`
(a single basis function is the synthesis of a unit field); the S^2 round trip
of :mod:`sphwave.transform` reaches the same basis through Wigner-d tables
instead.  On the 2-sphere the basis is the real combination
``Yt_l^k = Y_l^{-k} + Y_l^k``; the zonal member is taken as ``Yt_l^0 = Y_l^0``
(no doubling), so coefficient fields are real in every dimension.  The k >= 1
members then carry squared norm 2, a weight made explicit in all inner-product
code (see :func:`sector_weights`).

Fields are immutable once built; every operation allocates its output, so
evaluating many points or fields concurrently is safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .special import LambdaParam, gegenbauer_value, gegenbauer_weighted_sum, norm_const_a

__all__ = [
    "beta",
    "beta_ladder",
    "CoefficientField",
    "zonal_field",
    "derivative_step",
    "derivative_order",
    "synthesize",
    "synthesize_frame",
    "sector_weights",
    "sector_pair_sum",
    "structure_polynomial_check",
]


def _twice_lam(lam) -> int:
    """mu = 2 lam = n - 1, the integer that carries lam through the exact ladder."""
    mu = 2 * lam
    if mu != int(mu):
        # lam = (n-1)/2 is always a half-integer; anything else is a misuse.
        raise ValueError(f"lam must be a half-integer, got {lam}")
    return int(mu)


# Exact polynomials in u are pairs (nums, den): ascending integer numerators
# over one positive denominator.  Sums and products leave them unreduced;
# callers reduce once, where a polynomial is complete.


def _reduced(nums: list, den: int) -> tuple:
    g = math.gcd(den, *nums)
    return [x // g for x in nums], den // g


def _padd(a: tuple, b: tuple) -> tuple:
    (na, da), (nb, db) = a, b
    g = math.gcd(da, db)
    fa, fb = db // g, da // g
    out = [x * fa for x in na] + [0] * (len(nb) - len(na))
    for i, x in enumerate(nb):
        out[i] += x * fb
    return out, da * fa


def _pmul(a: tuple, b: tuple) -> tuple:
    (na, da), (nb, db) = a, b
    out = [0] * (len(na) + len(nb) - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb):
                out[i + j] += x * y
    return out, da * db


def _beta_sq(mu: int, j: int) -> tuple:
    """beta_{l,j}^2 = c_j (u - j (mu + j)), mu = 2 lam, with c_j = (j+1)(mu+j-1)/((mu+2j-1)(mu+2j+1)).

    The j = 0 case carries the (mu + j - 1)/(mu + 2j - 1) cancellation
    explicitly, c_0 = 1/(mu + 1), which keeps it finite at mu = 1.
    """
    if j == 0:
        return [0, 1], mu + 1
    c = (j + 1) * (mu + j - 1)
    return _reduced([-c * j * (mu + j), c], (mu + 2 * j - 1) * (mu + 2 * j + 1))


def _ladder(mu: int, dmax: int, top: int) -> dict:
    """P with a_l^j(f^(d)) = (prod_{i<j} beta_{l,i}) P[(d, j)](u) a_l^0(f), for d <= dmax.

    Only the entries that can still reach a column j <= ``top`` by step dmax
    are built, j <= top + dmax - d: ``top = dmax`` gives every entry, ``top = 0``
    the zonal column's ancestors alone.  Each beta_{l,j}^2 is built once.
    """
    beta_sq = [_beta_sq(mu, j) for j in range(min(dmax, (top + dmax) // 2))]
    P = {(0, 0): ([1], 1)}
    for d in range(dmax):
        for j in range(min(d + 2, top + dmax - d)):
            term = ([0], 1)
            if (d, j + 1) in P:
                term = _pmul(beta_sq[j], P[(d, j + 1)])
            if j >= 1 and (d, j - 1) in P:
                nums, den = P[(d, j - 1)]
                term = _padd(term, ([-x for x in nums], den))
            if any(term[0]):
                P[(d + 1, j)] = term
    return P


def beta(lam: float, l: int, k1: int) -> float:
    """Ladder coefficient beta_{l,k1} coupling sector orders k1 <-> k1+1.

    beta_{l,-1} = 0 and beta_{l,k1} = 0 for k1 >= l (the ladder ends).  At
    lam = 1/2 with k1 = 0 the 2-sphere value is sqrt(l(l+1))/2, used together
    with the factor-2 zonal coupling of :func:`derivative_step`.
    """
    return float(beta_ladder(lam, l, k1)[l])


def beta_ladder(lam: float, L: int, k1: int) -> np.ndarray:
    """Vector of beta_{l,k1} over l = 0..L, equal to :func:`beta` element by element.

    The exact beta^2 = (c0 + c1 u)/den of :func:`_beta_sq` in floats: each
    numerator is an integer below 2^53, so each square is one correctly
    rounded division.  lam must be a multiple of 1/2.
    """
    if k1 < -1:
        raise ValueError("k1 must be >= -1")
    mu = _twice_lam(lam)
    out = np.zeros(L + 1)
    if k1 == -1:
        return out
    ls = np.arange(k1 + 1, L + 1, dtype=float)
    if mu == 1 and k1 == 0:
        out[1:] = np.sqrt(ls * (ls + 1)) / 2.0
    else:
        (c0, c1), den = _beta_sq(mu, k1)
        out[k1 + 1 :] = np.sqrt((c0 + c1 * (ls * (mu + ls))) / den)
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
    points stay cheap in memory.  This is the package's one evaluator of the
    sector harmonics Y_l^k = A_l^k sin^k theta1 C_{l-k}^{lam+k}(cos theta1)
    (angular factor), A_l^k from :func:`sphwave.special.norm_const_a`.
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
    """Compare a_l^j(f^(d)) / (prod_{i<j} beta_{l,i} a_l^0(f)) with the exact P_{d,j}(u), u = l(2 lam + l).

    One report dict per order j of the parity of d, over the degrees
    l >= max(j, 1) with a nonzero seed: ``expected_degree`` (d - j)/2, the
    ``degree`` and ``leading_coefficient`` of the exact P_{d,j}, the
    ``max_residual`` max |ratio - P(u)| / max |ratio|, and ``ok`` when the
    degrees match and the residual is below 1e-12.  Any band and order.
    """
    zonal = np.asarray(zonal_coeffs, dtype=float)
    field = derivative_order(zonal, lp, d)
    mu = _twice_lam(lp.lam)
    P = _ladder(mu, d, d)
    betas = [beta_ladder(lp.lam, zonal.shape[0] - 1, i) for i in range(d)]
    prods = list(itertools.accumulate(betas, np.multiply, initial=np.ones_like(zonal)))
    reports = []
    for j in range(d % 2, d + 1, 2):
        ls = np.flatnonzero(zonal)
        ls = ls[ls >= max(j, 1)]
        if ls.size:
            nums, den = P[(d, j)]
            ratio = field.coeffs[ls, j] / (prods[j][ls] * zonal[ls])
            exact = np.polynomial.polynomial.polyval(ls * (mu + ls), [x / den for x in nums])
            residual = float(np.max(np.abs(ratio - exact)) / np.max(np.abs(ratio)))
            reports.append(
                {
                    "j": j,
                    "expected_degree": (d - j) // 2,
                    "degree": len(nums) - 1,
                    "max_residual": residual,
                    "leading_coefficient": nums[-1] / den,
                    "ok": len(nums) - 1 == (d - j) // 2 and residual < 1e-12,
                }
            )
    return reports
