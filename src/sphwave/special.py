"""Gegenbauer polynomials, normalization constants and related scalar special functions.

Everything here is a pure function of its arguments; values and the
:class:`LambdaParam` container are immutable, so concurrent shared reads are safe.

Conventions
-----------
* The Gegenbauer index convention ``C_l = 0`` for ``l < 0`` is honoured at the API
  boundary, so recursions built on top need no guards.
* Gamma-function ratios of scalars go through ``math.lgamma``; ``Gamma`` itself
  is formed only at small arguments.  Ratios over a degree array are sums of
  logs of their integer factors, which stay accurate at high degree where a
  difference of two large log-gammas would not.
* Only numpy and the standard library are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LambdaParam",
    "surface_measure",
    "gegenbauer_batch",
    "gegenbauer_value",
    "gegenbauer_weighted_sum",
    "gauss_gegenbauer",
    "norm_const_a",
    "dim_harmonic",
    "reproducing_kernel",
]

_T_SLACK = 1e-12


def surface_measure(n: int) -> float:
    """Total measure of the unit n-sphere, 2*pi^((n+1)/2)/Gamma((n+1)/2).

    Kernels divide by its square, which is below the smallest normal float
    from n = 261 on; those n raise ValueError.
    """
    if n > 260:
        raise ValueError(f"sphere dimension n={n} above 260: sigma_n^2 is not a normal float")
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


@dataclass(frozen=True)
class LambdaParam:
    """Sphere dimension ``n`` with the tied Gegenbauer index ``lam = (n-1)/2``.

    ``lam`` and ``sigma`` are derived from ``n`` (``sigma`` once, on first
    read), so the invariants lam == (n-1)/2 and sigma == surface_measure(n)
    hold by construction.  Half-integer ``lam`` (even ``n``) is handled uniformly.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"sphere dimension must be an integer >= 2, got {self.n!r}")

    @property
    def lam(self) -> float:
        return (self.n - 1) / 2

    @cached_property
    def sigma(self) -> float:
        # stored on first read: truncation scans read it once per degree
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


def gegenbauer_weighted_sum(order: "float | LambdaParam | list", weights, t) -> np.ndarray:
    """Streaming evaluation of sum_l weights[l] * C_l(t).

    Keeps only two recurrence levels in memory; intended for large point sets
    where materializing the full (L+1, ...) batch would be wasteful.  ``order``
    may also be a sequence of orders with one weight row each, rows ordered by
    non-increasing length: all rows then advance in one recurrence loop, each
    with its own order, and the result stacks their sums on a leading axis.
    Each row's sum has the bits of its own single-row call.

    A row's recurrence ends at its last nonzero weight, but never before
    degree 1 (where the row has one) nor before a later row's end, so
    trailing zero weights cost nothing.  Zero weights add nothing, so the
    sums keep the bits of the full-length rows.
    """
    if np.ndim(order) == 0:
        return _weighted_sums([_resolve_order(order)], [weights], t)[0]
    return _weighted_sums([_resolve_order(o) for o in order], weights, t)


def _weighted_sums(lams: list, rows, t) -> np.ndarray:
    t = _check_t(np.asarray(t, dtype=float))
    rows = [np.asarray(w, dtype=float) for w in rows]
    sizes = [w.shape[0] for w in rows]
    if len(rows) != len(lams) or sizes != sorted(sizes, reverse=True):
        raise ValueError("need one weight row per order, in non-increasing length")
    # each row ends at its last nonzero weight, but keeps degrees 0 and 1 (always
    # added: they carry the sign of a zero sum) and never ends below a later row
    end = 0
    for r in range(len(rows) - 1, -1, -1):
        nz = np.flatnonzero(rows[r])
        end = max(end, min(sizes[r], 2), int(nz[-1]) + 1 if nz.size else 0)
        sizes[r] = end
        rows[r] = rows[r][:end]
    out = np.zeros((len(rows), t.size))
    m = sum(size > 0 for size in sizes)
    if m == 0:
        return out.reshape((len(rows),) + t.shape)
    L = sizes[0] - 1
    ls = np.arange(L + 1)
    lam = np.array(lams[:m])[:, None]
    w = np.zeros((m, L + 1))
    for r in range(m):
        w[r, : sizes[r]] = rows[r]
    running = ls < np.array(sizes[:m])[:, None]
    active = running.sum(axis=0).tolist()  # rows that reach degree l: a prefix
    nonzero = ((w != 0.0) & running).sum(axis=0).tolist()  # zero weights add nothing, not even a signed zero

    def per_degree(table):
        # one (m, 1) column per degree; a single row takes Python floats, same bits, less overhead
        return list(table.T[:, :, None]) if m > 1 else table[0].tolist()

    a, b, wl = per_degree(2.0 * (lam + ls)), per_degree(2.0 * lam + ls - 1.0), per_degree(w)
    x = t.reshape(1, -1)
    acc = out[:m]
    prev = np.ones((m, t.size))
    acc[...] = wl[0] * prev
    if L == 0:
        return out.reshape((len(rows),) + t.shape)
    k = active[1]
    prev, acc = prev[:k], acc[:k]
    cur = 2.0 * lam[:k] * x
    acc += (wl[1][:k] if m > 1 else wl[1]) * cur
    for l in range(1, L):
        k = active[l + 1]
        al, bl, wv = a[l], b[l], wl[l + 1]
        if k < m:
            al, bl, wv = al[:k], bl[:k], wv[:k]
            prev, cur, acc = prev[:k], cur[:k], acc[:k]
        prev, cur = cur, (al * x * cur - bl * prev) / (l + 1)
        if nonzero[l + 1] == k:
            acc += wv * cur
        elif nonzero[l + 1]:
            np.add(acc, wv * cur, out=acc, where=wv != 0.0)
    return out.reshape((len(rows),) + t.shape)


def gauss_gegenbauer(m: int, alpha: float) -> tuple:
    """Gauss rule (nodes ascending, weights) with m nodes for the weight (1 - t^2)^alpha on [-1, 1].

    Golub-Welsch for a symmetric weight: the Jacobi matrix J has a zero
    diagonal, so J^2 splits by index parity, and its odd-index block, of size
    m // 2, has the squared positive nodes as eigenvalues (odd m adds the
    node 0).  One Newton step on the Gegenbauer recurrence polishes each
    node.  The weights are the Christoffel numbers 1 / sum_{k<m} C_k^2 / h_k,
    h_k the squared norm of C_k; unlike 1 / (C_{m-1} C_m'), this sum varies
    slowly across the rounding of a node, which keeps the outermost weights
    of a 400-node rule to about 1e-12 relative.  The rule is exactly
    symmetric.  Needs alpha > -1/2.
    """
    if m < 1:
        raise ValueError("rule needs at least one node")
    if not alpha > -0.5:
        raise ValueError(f"weight exponent must exceed -1/2, got {alpha}")
    lam = alpha + 0.5
    k = np.arange(1.0, m)
    b = np.zeros(m + 1)  # b_k = J_{k-1,k}^2 for k = 1..m-1, zero at both ends
    b[1:m] = k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0))
    # rows 1, 3, 5, ... of J^2: diagonal b_i + b_{i+1}, two columns off sqrt(b_{i+1} b_{i+2})
    diag = (b[:-1] + b[1:])[1::2]
    off = np.sqrt(b[1 : m - 1] * b[2:m])[1::2]
    squares = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    x = np.concatenate((np.zeros(m % 2), np.sqrt(np.maximum(squares, 0.0))))  # the nodes t >= 0
    c = gegenbauer_batch(lam, m, x)
    # Newton step, with C_m' = ((m + 2 lam - 1) C_{m-1} - m t C_m) / (1 - t^2)
    x = x - c[m] * (1.0 - x * x) / ((m + 2.0 * lam - 1.0) * c[m - 1] - m * x * c[m])
    mass = 2.0 ** (2.0 * alpha + 1.0) * math.gamma(alpha + 1.0) ** 2 / math.gamma(2.0 * alpha + 2.0)
    h = mass * np.cumprod(np.concatenate(([1.0], (k + 2.0 * lam - 1.0) * (k + lam - 1.0) / (k * (k + lam)))))
    c = gegenbauer_batch(lam, m - 1, x)
    w = 1.0 / ((1.0 / h) @ (c * c))
    return np.concatenate((-x[m % 2 :][::-1], x)), np.concatenate((w[m % 2 :][::-1], w))


def _log_rising(start, count: int):
    """log(start (start + 1) ... (start + count - 1)) as a sum of count logs, over an integer array."""
    return np.log(np.asarray(start)[..., None] + np.arange(count)).sum(axis=-1)


def norm_const_a(lp: LambdaParam, l, k1: int):
    """Normalization constant of the sector harmonic of degree l, order k1.

    Uses the closed doubling-formula reduction for n >= 3 and the dedicated
    two-dimensional formula for n = 2, in log space so degrees beyond 200
    stay finite.  The degree-dependent ratio Gamma(l-k1+1)/Gamma(l+k1+1)
    (n = 2), or Gamma(l-k1+1)/Gamma(n+l+k1-1), is a sum of 2 k1, or
    n + 2 k1 - 2, logs of integers.  ``l`` may be an integer array (a whole
    order-k1 column at once); the result then has its shape, and a scalar
    ``l`` gives a float.
    """
    ls = np.asarray(l)
    if k1 < 0 or np.any(ls < k1):
        raise ValueError(f"order k1 must satisfy 0 <= k1 <= l, got k1={k1}, l={l}")
    n = lp.n
    if n == 2:
        lg = (
            k1 * math.log(2.0)
            + math.lgamma(k1 + 0.5)
            + 0.5 * (np.log(2 * ls + 1) - math.log(math.pi) - _log_rising(ls - k1 + 1, 2 * k1))
        )
    else:
        const = (
            (2 * n + 2 * k1 - 6) * math.log(2.0)
            + math.lgamma(k1 + 1)
            + math.log(n + 2 * k1 - 2)
            + 2.0 * math.lgamma(lp.lam + k1)
            + 2.0 * math.lgamma((n - 2) / 2)
            - math.log(n - 1)
            - math.log(math.pi)
            - math.lgamma(n + k1 - 2)
        )
        lg = 0.5 * (const + np.log(n + 2 * ls - 1) - _log_rising(ls - k1 + 1, n + 2 * k1 - 2))
    out = np.exp(lg)
    return out if out.ndim else float(out)


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
