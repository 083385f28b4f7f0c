"""Gegenbauer polynomials, normalization constants and related scalar special functions.

Everything here is a pure function of its arguments; values and the
:class:`LambdaParam` container are immutable, so concurrent shared reads are safe.

Conventions
-----------
* The Gegenbauer index convention ``C_l = 0`` for ``l < 0`` is honoured at the API
  boundary, so recursions built on top need no guards.
* Normalization constants are products of exact rational factors, each under
  its own square root: no log-gamma, no ``exp`` of a log sum and no N(n, l),
  which overflows a float long before its root does.  ``Gamma`` itself is
  formed only at small arguments.
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
    """Evaluate sum_l weights[l] * C_l(t) in about 2 sqrt(L) vectorized steps.

    ``order`` may also be a sequence of orders with one weight row each, rows
    ordered by non-increasing length; the result stacks the rows' sums on a
    leading axis.  Each row's sum has the bits of its own single-row call.

    A row ends at its last nonzero weight, but never before degree 1 where it
    has one, so trailing zero weights cost nothing.  A row that ends by
    degree 1 is w_0 + w_1 C_1(t) with no recurrence; an all-zero row thus
    keeps the sign of its zero.

    Longer rows are summed at |t|, even and odd degrees apart, since
    C_l(-t) = (-1)^l C_l(t).  The recurrence runs in Reinsch's difference
    form on the pair (C_l, D_l = C_l - C_{l-1}),

        D_{l+1} = (2 (lam + l) (t - 1) C_l + (2 lam + l - 1) D_l) / (l + 1),
        C_{l+1} = C_l + D_{l+1},

    which keeps its accuracy near t = 1, where t - 1 is exact.  The degrees
    are cut into J blocks of B, the largest power of two not above sqrt(L + 1)
    and at least 2: the row's own length sets B.  All blocks run at once for B
    steps from the two basis states (1, 0) and (0, 1), each summing its
    weighted even and odd degrees.  Then J steps chain the blocks from
    (C_0, D_0) = (1, 1), through one 2x2 transfer per point and block.
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
    x = t.reshape(-1)
    out = np.zeros((len(rows), x.size))
    groups = {}  # block length -> rows that run the recurrence
    for r, w in enumerate(rows):
        nz = np.flatnonzero(w)
        rows[r] = w = w[: max(min(w.shape[0], 2), int(nz[-1]) + 1 if nz.size else 0)]
        if w.shape[0] > 2:
            # the largest power of two not above sqrt(len(w)), and at least 2
            groups.setdefault(1 << max(1, (w.shape[0].bit_length() - 1) // 2), []).append(r)
        elif w.shape[0]:
            out[r] = w[0]
            if w.shape[0] == 2:
                out[r] += w[1] * (2.0 * lams[r] * x)
    for B, idx in groups.items():
        idx.sort(key=lambda r: -rows[r].shape[0])
        out[idx] = _blocked_sums(B, [lams[r] for r in idx], [rows[r] for r in idx], x)
    return out.reshape((len(rows),) + t.shape)


def _blocked_sums(B: int, lams: list, rows: list, t: np.ndarray) -> np.ndarray:
    """Sums of ``rows`` (non-increasing lengths) at the points ``t`` in blocks of B degrees."""
    blocks = [-(-w.shape[0] // B) for w in rows]  # each row's block count
    R, J = len(rows), blocks[0]
    w = np.zeros((R, J * B))
    for r, row in enumerate(rows):
        w[r, : row.shape[0]] = row
    w = w.reshape(R, J, B).T[..., None]  # w[i, j, r] weighs degree j B + i of row r
    l = np.arange(B)[:, None, None, None] + B * np.arange(J)[:, None, None]
    lam = np.array(lams)[:, None]
    a, b = 2.0 * (lam + l) / (l + 1.0), (2.0 * lam + l - 1.0) / (l + 1.0)
    xm1 = np.abs(t) - 1.0
    # per basis state (1, 0) or (0, 1) of each block: its even and odd degree sums, then C and D
    transfer = np.zeros((4, 2, J, R, t.size))
    sums, C, D = transfer[:2], transfer[2], transfer[3]
    C[0], D[1] = 1.0, 1.0
    for i in range(B):
        sums[i % 2] += w[i] * C  # B even: step i has the parity of i in every block
        D *= b[i]
        D += a[i] * xm1 * C
        C += D
    state = np.ones((2, R, t.size))  # (C_0, D_0)
    acc = np.zeros_like(state)
    for j in range(J):
        k = sum(n > j for n in blocks)  # rows still running: a prefix
        y = transfer[:, 0, j, :k] * state[0, :k] + transfer[:, 1, j, :k] * state[1, :k]
        acc[:, :k] += y[:2]
        state = y[2:]
    return acc[0] + np.sign(t) * acc[1]  # odd degrees vanish at t = 0


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


def _root_factors(n: int, ls) -> tuple:
    """(h_l, p_l) over a degree array: h_l = sqrt((n+2l-1)/(n-1)), p_l = prod_{i=1}^{n-2} sqrt((l+i)/i).

    sqrt(N(n, l)) = h_l p_l, and the zonal normalization is A_l^0 = h_l / p_l.
    Each factor of p_l is rooted alone, so p_l is finite where p_l^2 =
    C(l+n-2, n-2) is not (n = 260, l = 5000).
    """
    x = np.asarray(ls, dtype=float)
    p = np.ones_like(x)
    for i in range(1, n - 1):
        p = p * np.sqrt((x + i) / i)
    return np.sqrt((n + 2 * x - 1) / (n - 1)), p


def norm_const_a(lp: LambdaParam, l, k1: int):
    """Normalization constant A_l^k1 of the sector harmonic of degree l, order k1.

    Y_l^k = A_l^k sin^k theta1 C_{l-k}^{lam+k}(cos theta1) (angular factor) has
    unit norm under d sigma / sigma (norm 2 for k >= 1 on S^2, in the real
    basis of :mod:`sphwave.rotderiv`).  A_l^0 = h_l / p_l (see
    :func:`_root_factors`) and A_l^k = A_l^0 sqrt(s_k(l)), with s_k(l) =
    c_k prod_{i<k} 4 (lam+i)^2 e_i / ((l-i)(l+n-1+i)): c_k = e_i = 1 on S^2,
    and c_k = (n+2k-2)/(n-2), e_i = (i+1)/(n-2+i) for n >= 3.  Each factor of
    s_k is an integer quotient, rounded once, over an integer product exact
    in floats; up to n = 260 and l = 3900 the constants are within 2e-14 of
    30-digit values.  ``l`` may be an integer array (a whole order-k1 column at once); the
    result then has its shape, and a scalar ``l`` gives a float.
    """
    ls = np.asarray(l)
    if k1 < 0 or np.any(ls < k1):
        raise ValueError(f"order k1 must satisfy 0 <= k1 <= l, got k1={k1}, l={l}")
    n = lp.n
    x = ls.astype(float)
    h, p = _root_factors(n, x)
    s = 1.0 if n == 2 else (n + 2 * k1 - 2) / (n - 2)
    for i in range(k1):
        e_num, e_den = (1, 1) if n == 2 else (i + 1, n - 2 + i)
        # 4 (lam + i)^2 e_i = (n - 1 + 2i)^2 e_i, one correctly rounded integer quotient
        s = s * ((n - 1 + 2 * i) ** 2 * e_num / e_den) / ((x - i) * (x + n - 1 + i))
    out = h / p * np.sqrt(s)
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
