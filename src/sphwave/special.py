"""Gegenbauer polynomials, normalization constants and related scalar special functions.

Everything here is a pure function of its arguments; values and the
:class:`LambdaParam` container are immutable, so concurrent shared reads are safe.

Conventions
-----------
* The Gegenbauer index convention ``C_l = 0`` for ``l < 0`` is honoured at the API
  boundary, so recursions built on top need no guards.
* All gamma-function ratios go through ``gammaln`` with explicit sign handling;
  ``Gamma`` itself is never formed above small arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "LambdaParam",
    "surface_measure",
    "gegenbauer_batch",
    "gegenbauer_value",
    "gegenbauer_weighted_sum",
    "gegenbauer_derivative",
    "norm_const_a",
    "dim_harmonic",
    "reproducing_kernel",
]

_T_SLACK = 1e-12


def surface_measure(n: int) -> float:
    """Total measure of the unit n-sphere, 2*pi^((n+1)/2)/Gamma((n+1)/2)."""
    return 2.0 * np.pi ** ((n + 1) / 2) / math.exp(gammaln((n + 1) / 2))


@dataclass(frozen=True)
class LambdaParam:
    """Sphere dimension ``n`` with the tied Gegenbauer index ``lam = (n-1)/2``.

    ``lam`` and ``sigma`` are derived from ``n`` on construction, so the
    invariants lam == (n-1)/2 and sigma == surface_measure(n) hold by
    construction.  Half-integer ``lam`` (even ``n``) is handled uniformly.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"sphere dimension must be an integer >= 2, got {self.n!r}")

    @property
    def lam(self) -> float:
        return (self.n - 1) / 2

    @property
    def sigma(self) -> float:
        return surface_measure(self.n)


def _resolve_order(order: "float | LambdaParam") -> float:
    lam = order.lam if isinstance(order, LambdaParam) else float(order)
    if lam <= -0.5:
        raise ValueError(f"Gegenbauer order must exceed -1/2, got {lam}")
    return lam


def _check_t(t: np.ndarray) -> np.ndarray:
    if np.any(np.abs(t) > 1.0 + _T_SLACK) or not np.all(np.isfinite(t)):
        raise ValueError("argument t must lie in [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_batch(order: "float | LambdaParam", L: int, t) -> np.ndarray:
    """Evaluate C_0 .. C_L of the given order at ``t`` by upward recurrence.

    Parameters
    ----------
    order : float or LambdaParam
        Gegenbauer order; must exceed -1/2 (shifted orders lam+1, lam+2,
        lam-1/2 are all in range for n >= 2).
    L : int
        Highest degree, >= 0.
    t : scalar or array, values in [-1, 1].

    Returns
    -------
    ndarray of shape ``(L+1,) + shape(t)``; entry ``[l]`` is C_l(t).

    The three-term recurrence (l+1) C_{l+1} = 2(lam+l) t C_l - (2 lam+l-1) C_{l-1}
    seeded with C_0 = 1, C_1 = 2 lam t is upward stable on [-1, 1].
    """
    lam = _resolve_order(order)
    if L < 0:
        raise ValueError("L must be >= 0")
    t = _check_t(np.asarray(t, dtype=float))
    out = np.empty((L + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if L >= 1:
        out[1] = 2.0 * lam * t
    for l in range(1, L):
        out[l + 1] = (2.0 * (lam + l) * t * out[l] - (2.0 * lam + l - 1.0) * out[l - 1]) / (l + 1)
    return out


def gegenbauer_value(order: "float | LambdaParam", l: int, t):
    """Single Gegenbauer value C_l(t); l < 0 returns 0 by convention."""
    if l < 0:
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
    return gegenbauer_batch(order, l, t)[l]


def gegenbauer_weighted_sum(order: "float | LambdaParam", weights, t) -> np.ndarray:
    """Streaming evaluation of sum_l weights[l] * C_l(t).

    Keeps only two recurrence levels in memory; intended for large point sets
    where materializing the full (L+1, ...) batch would be wasteful.
    """
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


def gegenbauer_derivative(l: int, order: "float | LambdaParam", t):
    """d/dt C_l at t, via the order-shift identity 2*lam*C_{l-1}^{lam+1}."""
    lam = _resolve_order(order)
    if l <= 0:
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
    return 2.0 * lam * gegenbauer_batch(lam + 1.0, l - 1, t)[l - 1]


def norm_const_a(lp: LambdaParam, l, k1: int):
    """Normalization constant of the sector harmonic of degree l, order k1.

    Uses the closed doubling-formula reduction for n >= 3 and the dedicated
    two-dimensional formula for n = 2; both are evaluated in log space so
    degrees beyond 200 stay finite.  ``l`` may be an integer array (a whole
    order-k1 column at once); the result then has its shape, and a scalar
    ``l`` gives a float.
    """
    scalar = isinstance(l, (int, np.integer))
    ls = l if scalar else np.asarray(l)
    if k1 < 0 or (ls < k1 if scalar else np.any(ls < k1)):
        raise ValueError(f"order k1 must satisfy 0 <= k1 <= l, got k1={k1}, l={l}")
    # the scalar path keeps math's log/exp: the quadrature integrands call it per point
    log, exp = (math.log, math.exp) if scalar else (np.log, np.exp)
    n = lp.n
    if n == 2:
        lg = (
            k1 * math.log(2.0)
            + gammaln(k1 + 0.5)
            + 0.5 * (log(2 * ls + 1) + gammaln(ls - k1 + 1) - math.log(math.pi) - gammaln(ls + k1 + 1))
        )
    else:
        lg = 0.5 * (
            (2 * n + 2 * k1 - 6) * math.log(2.0)
            + gammaln(ls - k1 + 1)
            + gammaln(k1 + 1)
            + log(n + 2 * ls - 1)
            + math.log(n + 2 * k1 - 2)
            + 2.0 * gammaln(lp.lam + k1)
            + 2.0 * gammaln((n - 2) / 2)
            - math.log(n - 1)
            - math.log(math.pi)
            - gammaln(n + ls + k1 - 1)
            - gammaln(n + k1 - 2)
        )
    return exp(lg)


def dim_harmonic(n: int, l: int) -> int:
    """Number of linearly independent degree-l harmonics on the n-sphere (exact).

    N(n, l) = (n+2l-1) (n+l-2)! / ((n-1)! l!) = (n+2l-1) C(n+l-2, n-2) / (n-1);
    the binomial form never builds the thousands-digit factorials of high degrees.
    """
    if n < 2 or l < 0:
        raise ValueError(f"need n >= 2 and l >= 0, got n={n}, l={l}")
    return (n + 2 * l - 1) * math.comb(n + l - 2, n - 2) // (n - 1)


def reproducing_kernel(lp: LambdaParam, l: int, t):
    """Degree-l reproducing kernel (lam+l)/lam * C_l at t = cos(angle)."""
    return (lp.lam + l) / lp.lam * gegenbauer_value(lp.lam, l, t)
