"""Admissibility machinery: the gamma mixing coefficients and the pair conditions.

For unit zonal seeds, the cross sums sum_j a_l^j(f^(d)) a_l^j(g^(d')) are
polynomials q_{d,d'} in the spectral variable u = l(2 lam + l) (zero across
parities).  A gamma vector of order ``dfrak`` makes the combined quadratic form
sum_{d,d'} gamma_d gamma_{d'} q_{d,d'}(u) collapse to u^dfrak; the resulting
wavelet/reconstruction pair then satisfies the per-degree admissibility
integral exactly, with constant C = sigma^2 / ((n-1)^dfrak Gamma(dfrak)).

Existence of real gamma vectors is an open question and genuinely fails for
some (lam, dfrak): order 3 on the 2-sphere, for instance, is infeasible (the
exact elimination forces a negative square).  The solver therefore reports
failure as a first-class, certificated outcome.

The solver is single-threaded and deterministic (fixed seeds); verification
sweeps are pure functions safe to parallelize over degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from .harmonics import gauss_jacobi_rule
from .rotderiv import CoefficientField, beta, sector_pair_sum, sector_weights
from .special import LambdaParam, dim_harmonic, gegenbauer_weighted_sum, norm_const_a

__all__ = [
    "GammaVector",
    "GammaSolveError",
    "q_polynomial",
    "solve_gamma",
    "admissibility_constant",
    "verify_pair_condition1",
    "zonal_product_series",
    "pair_coefficient_sum",
    "tail_integral",
    "tail_l1_sweep",
]


class GammaSolveError(Exception):
    """No real gamma vector found; message carries the certificate/diagnostics."""


@dataclass(frozen=True)
class GammaVector:
    """Mixing coefficients gamma_0..gamma_dfrak solved for one lam.

    Sign convention: gamma_dfrak > 0; gamma_0 = 0 is forced for dfrak >= 1 by
    the constant-coefficient equation.
    """

    order: int
    lam: float
    gammas: tuple

    def __post_init__(self) -> None:
        if len(self.gammas) != self.order + 1:
            raise ValueError("gamma vector length must be order + 1")
        if self.order >= 1 and not self.gammas[-1] > 0.0:
            raise ValueError("top coefficient must be positive")


def _as_fraction(lam) -> Fraction:
    f = Fraction(lam)
    if f.denominator not in (1, 2):
        # lam = (n-1)/2 is always a half-integer; anything else is a misuse.
        raise ValueError(f"lam must be a half-integer, got {lam}")
    return f


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
    """beta_{l,j}^2 as a linear polynomial in u = l(2 lam + l).

    The j = 0 case carries the (2 lam + j - 1)/(2 lam + 2 j - 1) cancellation
    explicitly, which keeps it finite (and lam-continuous) at lam = 1/2.
    """
    if j == 0:
        return [Fraction(0), 1 / (2 * lam + 1)]
    c = Fraction(j + 1) * (2 * lam + j - 1) / ((2 * lam + 2 * j - 1) * (2 * lam + 2 * j + 1))
    return [-c * j * (2 * lam + j), c]


def _ladder_polys(lam: Fraction, dmax: int) -> dict:
    """P[(d, j)]: a_l^j(f^(d)) = (prod_{i<j} beta_{l,i}) P_{d,j}(u) a_l^0(f)."""
    P = {(0, 0): [Fraction(1)]}
    for d in range(dmax):
        for j in range(d + 2):
            term = [Fraction(0)]
            if (d, j + 1) in P:
                term = _padd(term, _pmul(_beta_sq_poly(lam, j), P[(d, j + 1)]))
            if j >= 1 and (d, j - 1) in P:
                term = _padd(term, [-c for c in P[(d, j - 1)]])
            if any(term):
                P[(d + 1, j)] = term
    return P


def q_polynomial(lam, d: int, dp: int) -> tuple:
    """Coefficients (in u) of q_{d,d'}; the zero polynomial across parities.

    Exact rationals; degree (d + d')/2 for matching parities.
    """
    if (d - dp) % 2:
        return (Fraction(0),)
    lamF = _as_fraction(lam)
    P = _ladder_polys(lamF, max(d, dp))
    out = [Fraction(0)]
    prefix = [Fraction(1)]
    for j in range(min(d, dp) + 1):
        if (d, j) in P and (dp, j) in P:
            out = _padd(out, _pmul(prefix, _pmul(P[(d, j)], P[(dp, j)])))
        prefix = _pmul(prefix, _beta_sq_poly(lamF, j))
    return tuple(out)


def _q_table(lam: Fraction, dfrak: int) -> dict:
    P = _ladder_polys(lam, dfrak)
    qs = {}
    for d in range(dfrak + 1):
        for dp in range(d, dfrak + 1):
            if (d - dp) % 2 == 0:
                out = [Fraction(0)]
                prefix = [Fraction(1)]
                for j in range(d + 1):
                    if (d, j) in P and (dp, j) in P:
                        out = _padd(out, _pmul(prefix, _pmul(P[(d, j)], P[(dp, j)])))
                    prefix = _pmul(prefix, _beta_sq_poly(lam, j))
                qs[(d, dp)] = out
    return qs


def _qc(qs: dict, d: int, dp: int, J: int) -> Fraction:
    q = qs.get((min(d, dp), max(d, dp)))
    if q is None or J >= len(q):
        return Fraction(0)
    return q[J]


def _solve_exact(lam: Fraction, dfrak: int) -> tuple:
    qs = _q_table(lam, dfrak)
    if dfrak == 1:
        g1_sq = 1 / _qc(qs, 1, 1, 1)
        return (0.0, math.sqrt(float(g1_sq)))
    if dfrak == 2:
        g2_sq = 1 / _qc(qs, 2, 2, 2)
        g1_sq = -g2_sq * _qc(qs, 2, 2, 1) / _qc(qs, 1, 1, 1)
        if g1_sq < 0:
            raise GammaSolveError(f"order 2 infeasible at lam={lam}: gamma_1^2 = {g1_sq}")
        return (0.0, math.sqrt(float(g1_sq)), math.sqrt(float(g2_sq)))
    # dfrak == 3.  The cross polynomial q_{1,3} equals -q_{2,2} identically, so
    # the gamma_1*gamma_3 terms cancel after eliminating gamma_2^2 and the
    # remaining equation is linear in gamma_1^2.
    g3_sq = 1 / _qc(qs, 3, 3, 3)
    c2_22, c2_33, c2_13 = _qc(qs, 2, 2, 2), _qc(qs, 3, 3, 2), _qc(qs, 1, 3, 2)
    c1_11, c1_22, c1_33 = _qc(qs, 1, 1, 1), _qc(qs, 2, 2, 1), _qc(qs, 3, 3, 1)
    g1_sq = -g3_sq * (c1_33 - c1_22 * c2_33 / c2_22) / c1_11
    if g1_sq < 0:
        raise GammaSolveError(
            f"order 3 infeasible at lam={lam}: elimination forces gamma_1^2 = {g1_sq} < 0"
        )
    g3 = math.sqrt(float(g3_sq))
    for sign in (1.0, -1.0):
        g1 = sign * math.sqrt(float(g1_sq))
        g2_sq = -(float(c2_33) * g3 * g3 + 2.0 * float(c2_13) * g1 * g3) / float(c2_22)
        if g2_sq >= -1e-15:
            return (0.0, g1, math.sqrt(max(g2_sq, 0.0)), g3)
    raise GammaSolveError(f"order 3 infeasible at lam={lam}: gamma_2^2 < 0 on both branches")


def _solve_newton(lam: Fraction, dfrak: int, restarts: int, seed: int) -> tuple:
    qs = _q_table(lam, dfrak)
    g_top = 1.0 / math.sqrt(float(_qc(qs, dfrak, dfrak, dfrak)))
    # residual r_J = gamma^T Q_J gamma for J = 1..dfrak-1; gamma_0 = 0 fixed.
    Qs = []
    for J in range(1, dfrak):
        Q = np.zeros((dfrak + 1, dfrak + 1))
        for d in range(dfrak + 1):
            for dp in range(dfrak + 1):
                Q[d, dp] = float(_qc(qs, d, dp, J))
        Qs.append(Q)

    def assemble(x):
        g = np.zeros(dfrak + 1)
        g[1:dfrak] = x
        g[dfrak] = g_top
        return g

    def resid(x):
        g = assemble(x)
        return np.array([g @ Q @ g for Q in Qs])

    def jac(x):
        g = assemble(x)
        return np.array([2.0 * (Q @ g)[1:dfrak] for Q in Qs])

    scale = max(1.0, max(float(abs(_qc(qs, dfrak, dfrak, J))) * g_top**2 for J in range(1, dfrak)))
    rng = np.random.default_rng(seed)
    best = math.inf
    for trial in range(restarts):
        x = rng.normal(scale=1.0 + 3.0 * (trial % 4), size=dfrak - 1)
        for _ in range(200):
            r = resid(x)
            rn = float(np.max(np.abs(r)))
            if rn < 1e-13 * scale:
                break
            try:
                dx = np.linalg.solve(jac(x), -r)
            except np.linalg.LinAlgError:
                break
            step, r0 = 1.0, float(np.linalg.norm(r))
            while step > 1e-12 and float(np.linalg.norm(resid(x + step * dx))) >= r0:
                step *= 0.5
            if step <= 1e-12:
                break
            x = x + step * dx
        r = resid(x)
        rn = float(np.max(np.abs(r)))
        best = min(best, rn)
        if rn < 1e-12 * scale:
            return tuple([0.0] + list(x) + [g_top])
    raise GammaSolveError(
        f"no real gamma vector found for order {dfrak} at lam={lam} "
        f"({restarts} restarts, best residual {best:.3e})"
    )


def solve_gamma(lam, dfrak: int, *, restarts: int = 120, seed: int = 20240) -> GammaVector:
    """Solve the order-dfrak coefficient system at the given lam.

    Exact rational elimination for dfrak <= 3, damped Newton with deterministic
    restarts for dfrak in {4, 5, 6}.  Raises :class:`GammaSolveError` when no
    real solution exists (a genuine outcome for several (lam, dfrak) pairs).
    The returned vector always satisfies the collapse identity; callers should
    not rely on uniqueness for dfrak >= 4.
    """
    lamF = _as_fraction(lam)
    if dfrak < 0 or dfrak > 6:
        raise ValueError("solver envelope is 0 <= order <= 6")
    if dfrak == 0:
        return GammaVector(order=0, lam=float(lamF), gammas=(1.0,))
    if dfrak <= 3:
        gam = _solve_exact(lamF, dfrak)
    else:
        gam = _solve_newton(lamF, dfrak, restarts, seed)
    vec = GammaVector(order=dfrak, lam=float(lamF), gammas=tuple(gam))
    _assert_collapse(vec)
    return vec


def _assert_collapse(vec: GammaVector, l_max: int = 30, tol: float = 1e-9) -> None:
    lam = vec.lam
    qs = _q_table(_as_fraction(vec.lam), vec.order)
    g = np.asarray(vec.gammas)
    for l in (1, 2, 3, 5, 11, l_max):
        u = l * (2 * lam + l)
        total = 0.0
        for d in range(vec.order + 1):
            for dp in range(vec.order + 1):
                c = sum(float(c_) * u**k for k, c_ in enumerate(qs.get((min(d, dp), max(d, dp)), ())))
                total += g[d] * g[dp] * c
        if abs(total - u**vec.order) > tol * u**vec.order:
            raise GammaSolveError(
                f"solved gammas fail the collapse identity at l={l}: {total} vs {u**vec.order}"
            )


def admissibility_constant(lp: LambdaParam, dfrak: int) -> float:
    """C = sigma^2 / ((n-1)^dfrak Gamma(dfrak)); requires dfrak >= 1."""
    if dfrak < 1:
        raise ValueError("the admissible pair needs order >= 1")
    return lp.sigma**2 / ((lp.n - 1) ** dfrak * math.exp(gammaln(dfrak)))


def _kernel_a0_single(lp: LambdaParam, kind: str, rho: float, l: int, norm_a0: float) -> float:
    w = math.exp(-rho * l) if kind == "poisson" else math.exp(-rho * l * l / (2.0 * lp.lam))
    return (lp.lam + l) / lp.lam * w / norm_a0 / lp.sigma


def _single_degree_ladder(lp: LambdaParam, kind: str, rho: float, l: int, dmax: int, norm_a0: float) -> np.ndarray:
    """Order-by-order sector coefficients of the kernel's derivatives at one degree.

    ``norm_a0`` is the rho-free constant A_l^0, computed once by the caller.
    """
    lam = lp.lam
    out = np.zeros((dmax + 1, dmax + 1))
    out[0, 0] = _kernel_a0_single(lp, kind, rho, l, norm_a0)
    for d in range(dmax):
        for k in range(d + 2):
            v = 0.0
            if k + 1 <= dmax:
                v += beta(lam, l, k) * out[d, k + 1]
            if k >= 1:
                v -= beta(lam, l, k - 1) * out[d, k - 1]
            if k == 0 and lp.n == 2:
                v = 2.0 * beta(lam, l, 0) * out[d, 1] if dmax >= 1 else 0.0
            out[d + 1, k] = v
    return out


def pair_coefficient_sum(lp: LambdaParam, gamma: GammaVector, rho: float, l: int) -> float:
    """sum_k w_k a_l^k(G_rho) a_l^k(H_rho) at one degree (Poisson/heat pair)."""
    dfrak = gamma.order
    norm_a0 = norm_const_a(lp, l, 0)
    gp = _single_degree_ladder(lp, "poisson", rho, l, dfrak, norm_a0)
    gh = _single_degree_ladder(lp, "heat", rho, l, dfrak, norm_a0)
    g = np.asarray(gamma.gammas)
    cg = rho**dfrak * (g @ gp)
    ch = g @ gh
    w = sector_weights(lp.n, dfrak)
    return float(np.sum(w * cg * ch))


def verify_pair_condition1(
    lp: LambdaParam,
    dfrak: int,
    l_max: int,
    gamma: GammaVector | None = None,
    *,
    tol_identity: float = 1e-6,
    tol_paths: float = 1e-8,
) -> list:
    """Check the per-degree admissibility integral against N(n, l), both ways.

    For each degree l <= l_max the scale integral of the coefficient product is
    evaluated (a) in closed form, Gamma(dfrak) (2 lam / u)^dfrak times the
    degree constants, and (b) by adaptive quadrature of the actual ladder
    coefficient products; after scaling by C both must equal the harmonic
    dimension N(n, l).  Returns one report dict per degree; failures are
    recorded, not raised.
    """
    if gamma is None:
        gamma = solve_gamma(Fraction(lp.n - 1, 2), dfrak)
    lam = lp.lam
    C = admissibility_constant(lp, dfrak)
    rows = []
    for l in range(1, l_max + 1):
        u = l * (2.0 * lam + l)
        nl = dim_harmonic(lp.n, l)
        closed = nl / lp.sigma**2 * u**dfrak * math.exp(gammaln(dfrak)) * (2.0 * lam / u) ** dfrak
        x_peak = math.log(2.0 * lam * max(dfrak, 1) / u)
        val, _ = quad(
            lambda x: pair_coefficient_sum(lp, gamma, math.exp(x), l),
            x_peak - 55.0,
            x_peak + 18.0,
            limit=300,
            epsabs=0.0,
            epsrel=1e-11,
        )
        paths = abs(val / closed - 1.0)
        ratio = C * val / nl
        rows.append(
            {
                "l": l,
                "expected": float(nl),
                "closed_scaled": C * closed,
                "quadrature_scaled": C * val,
                "paths_rel_diff": paths,
                "ratio": ratio,
                "pass": bool(paths < tol_paths and abs(ratio - 1.0) < tol_identity),
            }
        )
    return rows


def zonal_product_series(lp: LambdaParam, field_f: CoefficientField, field_g: CoefficientField) -> np.ndarray:
    """Per-degree coefficients of the rotation-averaged product, attached to K_l.

    Entry l is sum_{k1} w_{k1} a_l^{k1}(f) a_l^{k1}(g) / N(n, l); the zonal
    kernel itself is sum_l coeff_l * K_l.  Symmetric in f and g.
    """
    s = sector_pair_sum(field_f, field_g)
    nl = np.array([dim_harmonic(lp.n, l) for l in range(s.shape[0])], dtype=float)
    return s / nl


def _tail_term_bound(lam: float, dfrak: int, R: float, l: int) -> float:
    # sup-norm bound on the degree-l tail term, using
    # Gamma(d, x) <= x^(d-1) e^(-x) / (1 - (d-1)/x) for x > d - 1.
    x = R * l * (2.0 * lam + l) / (2.0 * lam)
    if x <= dfrak:
        return math.inf
    kl1 = (lam + l) / lam * math.exp(gammaln(2 * lam + l) - gammaln(2 * lam) - gammaln(l + 1))
    return (2.0 * lam) ** dfrak * x ** (dfrak - 1) * math.exp(-x) / (1.0 - (dfrak - 1) / x) * kl1


def tail_integral(lp: LambdaParam, dfrak: int, R: float, t, L: int, *, tail_tol: float = 1e-12):
    """Scale-tail of the pair's zonal product, integrated over rho > R.

    Term-wise in degree via the upper incomplete gamma:
    (1/sigma^2) sum_{l>=1} (2 lam)^dfrak Gamma(dfrak, R l (2 lam + l)/(2 lam)) K_l(t),
    truncated at L.  Raises ValueError when the dropped remainder cannot be
    certified below ``tail_tol`` relative to the accumulated magnitude.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if dfrak < 1:
        raise ValueError("tail integral defined for order >= 1")
    lam = lp.lam
    t = np.asarray(t, dtype=float)
    gam_d = math.exp(gammaln(dfrak))
    weights = np.zeros(L + 1)
    for l in range(1, L + 1):
        x = R * l * (2.0 * lam + l) / (2.0 * lam)
        weights[l] = (2.0 * lam) ** dfrak * gammaincc(dfrak, x) * gam_d * (lam + l) / lam
    out = gegenbauer_weighted_sum(lam, weights, t) / lp.sigma**2
    head = _tail_term_bound(lam, dfrak, R, L + 1)
    scale = max(float(np.max(np.abs(out))), 1e-30)
    if head == 0.0:  # underflow: the remainder is far below everything
        certified = True
    elif head < math.inf:
        # the term-bound ratio decreases in degree, so a single geometric
        # majorant covers the whole remainder for any ratio < 1
        ratio = _tail_term_bound(lam, dfrak, R, L + 2) / head
        certified = ratio < 1.0 and head / (1.0 - ratio) / lp.sigma**2 <= tail_tol * scale
    else:
        certified = False
    if not certified:
        raise ValueError(f"truncation degree {L} insufficient for R={R}: tail remainder not certified")
    return out if out.shape else float(out)


def tail_l1_sweep(lp: LambdaParam, dfrak: int, R_values, L: int, n_quad: int = 400) -> list:
    """Spherical L1 norms of the scale-tail kernel across cutoff values R.

    Each entry is (sigma_{n-1}/sigma_n) times the integral of |tail_integral|
    against the zonal weight, on an ``n_quad``-point Gauss-Jacobi rule.
    |Phi_R| has a kink at each sign change of the kernel, so the accuracy is
    algebraic in ``n_quad``: about 2.5e-5 relative on the spread of the
    n = 2, order 2 sweep R = 1, 0.3, 0.1, 0.03 at 400 nodes.
    """
    from .special import surface_measure

    rule = gauss_jacobi_rule(lp.lam, n_quad)
    ratio = surface_measure(lp.n - 1) / lp.sigma
    norms = []
    for R in R_values:
        vals = tail_integral(lp, dfrak, R, rule.nodes, L)
        norms.append(float(ratio * np.sum(rule.weights * np.abs(vals))))
    return norms
