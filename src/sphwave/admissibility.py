"""Admissibility machinery: the gamma mixing coefficients and the pair conditions.

For unit zonal seeds, the cross sums sum_j a_l^j(f^(d)) a_l^j(g^(d')) are
polynomials q_{d,d'} in the spectral variable u = l(2 lam + l) (zero across
parities).  A gamma vector of order ``dfrak`` makes the combined quadratic form
sum_{d,d'} gamma_d gamma_{d'} q_{d,d'}(u) collapse to u^dfrak; the resulting
wavelet/reconstruction pair then satisfies the per-degree admissibility
integral exactly, with constant C = sigma^2 / ((n-1)^dfrak Gamma(dfrak)).
The pair's table is built on the unit seed, so its energies E_l are u^dfrak
itself and the per-degree multiplier, the scale integral times E_l over
(n-1)^dfrak Gamma(dfrak), forms neither sigma nor N(n, l).

Real gamma vectors exist for some (lam, dfrak) and not for others: order 3 on
the 2-sphere, for instance, is infeasible.  The solver decides every case in
exact rational arithmetic (a Sturm count) and reports failure as a
first-class, certificated outcome.  It imports the exact ladder (beta^2 and
P_{d,j} as integer polynomials in u) from :mod:`sphwave.rotderiv`.  By
definition q_{d,d'} = sum_j (prod_{i<j} beta_i^2) P_{d,j} P_{d',j}, but the
rotation generator is skew-adjoint, so q_{a,b} = (-1)^((a-b)/2) q_{s,s} with
s = (a+b)/2, and a = 2s, b = 0 gives q_{s,s} = (-1)^s P_{2s,0}: the diagonal
is the ladder's zonal column, read off one exact run to step 2 dfrak with
no prefix products.

The solver is single-threaded and deterministic; verification sweeps are pure
functions safe to parallelize over degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rotderiv import CoefficientField, _ladder, _reduced, _twice_lam, sector_pair_sum, sector_weights
from .special import LambdaParam, dim_harmonic, gegenbauer_weighted_sum, surface_measure
from .wavelets import (
    KIND_HEAT,
    KIND_POISSON,
    TRUNCATION_CAP,
    TruncationError,
    _zonal_seed,
    certified_degree,
    modified_wavelet_table,
    scale_weights,
)

__all__ = [
    "GammaVector",
    "GammaSolveError",
    "q_polynomial",
    "solve_gamma",
    "admissibility_constant",
    "energy_table",
    "verify_pair_condition1",
    "zonal_product_series",
    "pair_coefficient_sum",
    "tail_integral",
    "tail_l1_sweep",
    "tail_l1_plateau",
]


class GammaSolveError(ValueError):
    """No real gamma vector found; message carries the certificate/diagnostics."""


@dataclass(frozen=True)
class GammaVector:
    """Mixing coefficients gamma_0..gamma_dfrak solved for one lam.

    Sign rule: sum_d gamma_d t^d has all its nonzero roots in the open left
    half-plane (see :func:`solve_gamma`), so every gamma_d >= 0 and
    gamma_dfrak > 0; gamma_0 = 0 is forced for dfrak >= 1 by the
    constant-coefficient equation.
    """

    order: int
    lam: float
    gammas: tuple

    def __post_init__(self) -> None:
        if len(self.gammas) != self.order + 1:
            raise ValueError("gamma vector length must be order + 1")
        if self.order >= 1 and not self.gammas[-1] > 0.0:
            raise ValueError("top coefficient must be positive")


def q_polynomial(lam, d: int, dp: int) -> tuple:
    """Coefficients (in u) of q_{d,d'} = (-1)^((d-d')/2) q_{s,s}, s = (d+d')/2; the zero polynomial across parities.

    Exact rationals; degree (d + d')/2 for matching parities.
    """
    if (d - dp) % 2:
        return (Fraction(0),)
    s = (d + dp) // 2
    nums, den = _q_table(_twice_lam(lam), s)[s]
    sign = -1 if (d - dp) // 2 % 2 else 1
    return tuple(Fraction(sign * x, den) for x in nums)


def _q_table(mu: int, dfrak: int) -> list:
    """The diagonal q_{s,s} = (-1)^s P_{2s,0}, s = 0..dfrak, in lowest terms, from one ladder run to step 2 dfrak."""
    P = _ladder(mu, 2 * dfrak, 0)
    return [_reduced([(-1) ** s * x for x in P[(2 * s, 0)][0]], P[(2 * s, 0)][1]) for s in range(dfrak + 1)]


def _spectral_coeffs(dfrak: int, qs: list) -> tuple:
    """(C, E): c_s = C[s]/E, s = 0..dfrak, with sum_s c_s q_{s,s}(u) = u^dfrak, by back-substitution.

    q_{s,s} has degree exactly s, so the coefficient of u^J fixes c_J once
    c_{J+1}..c_dfrak are known.  The q_{s,s} are taken over one denominator D,
    and the c over one denominator E: c_J = (delta_{J,dfrak} E D - sum_{s>J}
    C_s Q_s[J]) / (E Q_J[J]).  Every lead Q_J[J] is positive (q_{J,J} is a sum
    of squares), so E stays positive as the earlier numerators are rescaled.
    """
    D = math.lcm(*(den for _, den in qs))
    Q = [[x * (D // den) for x in nums] for nums, den in qs]
    C, E = [0] * (dfrak + 1), 1
    for J in range(dfrak, -1, -1):
        lead = Q[J][J]
        num = int(J == dfrak) * E * D - sum(C[s] * Q[s][J] for s in range(J + 1, dfrak + 1))
        C = [x * lead for x in C]
        C[J], E = num, E * lead
    g = math.gcd(E, *C)
    return [x // g for x in C], E // g


def _primitive(p: list) -> list:
    """p divided by the gcd of its coefficients, a positive content: every sign is kept."""
    g = math.gcd(*p) or 1
    return [x // g for x in p]


def _negated_prem(a: list, b: list) -> list:
    """-(|lead b|^k a mod b) in primitive integer form; [] is the zero polynomial.

    Each pseudo-division step scales a by |lead b| > 0, so the result has the
    signs of the remainder of a by b, negated: a Sturm-sequence step.
    """
    a = list(a)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        f, shift = sign * a[-1], len(a) - len(b)
        a = [scale * x for x in a]
        for i, x in enumerate(b):
            a[shift + i] -= f * x
        a.pop()
    while a and not a[-1]:
        a.pop()
    return _primitive([-x for x in a])


def _sturm_sequence(p: list) -> list:
    """Sturm sequence of the integer polynomial p, each member in primitive integer form.

    Runs on sign-preserving pseudo-remainders; the last member is gcd(p, p')
    (the zero polynomial is dropped), non-constant when p has a repeated root.
    """
    seq = [_primitive(p), _primitive([k * x for k, x in enumerate(p)][1:])]
    while len(seq[-1]) > 1:
        seq.append(_negated_prem(seq[-2], seq[-1]))
    if not seq[-1]:
        seq.pop()
    return seq


def _sign_variations(vals) -> int:
    nz = [v for v in vals if v]
    return sum(x * y < 0 for x, y in zip(nz, nz[1:]))


def _positive_root_count(p: list, den: int = 1) -> int:
    """Distinct roots of p in (0, inf) by Sturm's theorem; needs p(0) != 0.

    p holds integer numerators over the positive ``den``.  A repeated root
    (a non-constant gcd(p, p')) raises rather than leaving the sign question
    undecided.
    """
    seq = _sturm_sequence(p)
    if len(seq[-1]) > 1:
        coeffs = ", ".join(str(Fraction(x, den)) for x in p)
        raise GammaSolveError(f"A(y)/y^k with coefficients ({coeffs}) has a repeated root; feasibility undecided")
    return _sign_variations([q[0] for q in seq]) - _sign_variations([q[-1] for q in seq])


def solve_gamma(lam, dfrak: int) -> GammaVector:
    """Solve the order-dfrak coefficient system at the given lam, exactly.

    The skew-adjoint rotation generator gives q_{a,b} = (-1)^((a-b)/2) q_{s,s}
    with s = (a+b)/2, so sum_{a,b} gamma_a gamma_b q_{a,b} = sum_s c_s q_{s,s}
    where A(y) = sum_s c_s y^s equals |sum_d gamma_d (ix)^d|^2 at y = x^2;
    only the diagonal q_{s,s} = (-1)^s P_{2s,0}, s = 0..dfrak, are built.
    The collapse to u^dfrak fixes c exactly, in integers over one denominator
    (lam = mu/2 makes every beta^2 an integer polynomial over an integer).
    Real gammas exist exactly when A has no sign change on y > 0; a Sturm
    count on A(y)/y^k, y^k the largest power of y dividing A, decides this.
    When it is zero,
    gamma is the coefficient list of the spectral factor
    h(t) = sqrt(c_dfrak) t^k prod_j (t + sqrt(-y_j)) over the nonzero roots
    y_j of A, whose zeros all lie in the open left half-plane, so every
    gamma_d >= 0.  Its end coefficients gamma_k = sqrt(c_k) and
    gamma_dfrak = sqrt(c_dfrak) are taken from the exact c.  Raises
    :class:`GammaSolveError`, with the exact c and the root count, when no
    real vector exists.
    """
    mu = _twice_lam(lam)
    if dfrak < 0 or dfrak > 6:
        raise ValueError("solver envelope is 0 <= order <= 6")
    if dfrak == 0:
        return GammaVector(order=0, lam=mu / 2, gammas=(1.0,))
    qs = _q_table(mu, dfrak)
    C, E = _spectral_coeffs(dfrak, qs)
    k = next(s for s, x in enumerate(C) if x)
    # c_dfrak = 1/lead(q_{dfrak,dfrak}) > 0 because q_{s,s}(u) is a sum of
    # squares, so A >= 0 on y > 0 exactly when A/y^k has no root there
    sign_changes = _positive_root_count(C[k:], E)
    if sign_changes:
        raise GammaSolveError(
            f"order {dfrak} infeasible at lam={Fraction(mu, 2)}: A(y) = sum_s c_s y^s with "
            f"c = ({', '.join(str(Fraction(x, E)) for x in C)}) "
            f"must be >= 0 for y > 0 but has {sign_changes} simple root(s) there (Sturm count)"
        )
    # int true division is correctly rounded, as float(Fraction) is
    c = [x / E for x in C]
    roots = np.roots(c[k:][::-1])
    h = math.sqrt(c[-1]) * np.polynomial.polynomial.polyfromroots(-np.sqrt(-roots.astype(complex))).real
    # the end coefficients are known exactly: h(0)^2 = c_k and lead(h)^2 = c_dfrak
    h[0], h[-1] = math.sqrt(c[k]), math.sqrt(c[-1])
    vec = GammaVector(order=dfrak, lam=mu / 2, gammas=(0.0,) * k + tuple(float(x) for x in h))
    _assert_collapse(vec, [[x / den for x in nums] for nums, den in qs])
    return vec


def _assert_collapse(vec: GammaVector, qs: list) -> None:
    """Check sum_{a,b} gamma_a gamma_b (-1)^((a-b)/2) q_{(a+b)/2}(u) = u^order to 1e-9 at l = 1, 2, 3, 5, 11, 30.

    ``qs`` holds the float coefficients of q_{0,0}..q_{order,order}.  The
    weight of q_{s,s} is (-1)^s times the t^(2s) coefficient of h(t) h(-t),
    h(t) = sum_d gamma_d t^d.  The weighted q_{s,s} are summed into one
    polynomial, which Horner's rule evaluates at each u.
    """
    g, order = vec.gammas, vec.order
    weights = [
        sum((-1) ** (s + a) * g[a] * g[2 * s - a] for a in range(max(0, 2 * s - order), min(2 * s, order) + 1))
        for s in range(order + 1)
    ]
    poly = [sum(w * q[i] for w, q in zip(weights, qs) if i < len(q)) for i in range(order + 1)]
    for l in (1, 2, 3, 5, 11, 30):
        u = l * (2.0 * vec.lam + l)
        got, want = 0.0, u**order
        for c in reversed(poly):
            got = got * u + c
        if abs(got - want) > 1e-9 * want:
            raise GammaSolveError(f"solved gammas fail the collapse identity at l={l}: {got} vs {want}")


def admissibility_constant(lp: LambdaParam, dfrak: int) -> float:
    """C = sigma^2 / ((n-1)^dfrak Gamma(dfrak)); requires dfrak >= 1."""
    return lp.sigma**2 / _unit_pair_norm(lp, dfrak)


def _unit_pair_norm(lp: LambdaParam, dfrak: int) -> float:
    """(n-1)^dfrak Gamma(dfrak) = sigma^2 / C: a unit-seed scale integral over it is the pair's per-degree multiplier."""
    if dfrak < 1:
        raise ValueError("the admissible pair needs order >= 1")
    return (lp.n - 1) ** dfrak * math.gamma(dfrak)


def energy_table(lp: LambdaParam, gamma: GammaVector, L: int) -> np.ndarray:
    """E_l = sum_k w_k B_{l,k}^2, l = 0..L, of the unit-seed table B of :func:`modified_wavelet_table`.

    The rho-free factor of every pair sum, shared by every scale integral up
    to L: the collapse value u^order, u = l(2 lam + l), built by the ladder,
    finite at every n (about 3e44 at l = 5000, order 6).
    """
    return modified_wavelet_table(lp, gamma, L) ** 2 @ sector_weights(lp.n, gamma.order)


def pair_coefficient_sum(lp: LambdaParam, gamma: GammaVector, rho: float, l: int) -> float:
    """sum_k w_k a_l^k(G_rho) a_l^k(H_rho) at one degree (Poisson/heat pair).

    Both wavelets carry the table B of :func:`modified_wavelet_table` times
    the kernel's zonal seed a_l, so the sum is s^P_l(rho) s^H_l(rho) a_l^2 E_l.
    """
    s = scale_weights(lp, KIND_POISSON, gamma.order, [rho], [l]) * scale_weights(lp, KIND_HEAT, gamma.order, [rho], [l])
    seed = _zonal_seed(lp, l)[l]
    return float(s[0, 0] * energy_table(lp, gamma, l)[l] * seed * seed)


# Trapezoid in x = log rho for the scale integrals.  With a = u / (2 lam) the
# integrand is a^-order exp(order y - e^y), y = x + log a, analytic in the strip
# |Im y| < pi/2, so the rule with step h errs by about e^(-pi^2/h) relative
# (times a power of 1/h): h = 1/7 puts that near 1e-30.  The window drops less
# than e^-40 relative at either end: y from -40/order up to log 60.
_TRAPEZOID_STEP = 1.0 / 7.0


def _fine_scale_rule(lam: float, order: int, degrees) -> tuple:
    """(rho, w) of the trapezoid in x = log rho with step h on the window of the given degrees >= 1, every w = h."""
    if order < 1:
        raise ValueError("the admissible pair needs order >= 1")
    a_lo, a_hi = (l * (2.0 * lam + l) / (2.0 * lam) for l in (min(degrees), max(degrees)))
    x_lo, x_hi = -40.0 / order - math.log(a_hi), math.log(60.0 / a_lo)
    x = x_lo + _TRAPEZOID_STEP * np.arange(math.ceil((x_hi - x_lo) / _TRAPEZOID_STEP) + 1)
    return np.exp(x), np.full(x.shape, _TRAPEZOID_STEP)


def _scale_multipliers(lp: LambdaParam, gamma: GammaVector, rule: tuple, degrees, energy: np.ndarray | None = None) -> np.ndarray:
    """The pair's multipliers m_l = sum_r w_r s^P_l(rho_r) s^H_l(rho_r) E_l / ((n-1)^order Gamma(order)) on a scale rule.

    ``rule`` (rho, w) is :func:`_fine_scale_rule` or the transform's ``log_rho_grid``; s^P s^H =
    rho^order exp(-rho u / 2 lam) are the unit-seed :func:`scale_weights`, and E_l comes from
    ``energy``, an :func:`energy_table` up to max(degrees) or beyond, or one built here.
    """
    rho, w = rule
    E = energy_table(lp, gamma, max(degrees)) if energy is None else energy
    s = scale_weights(lp, KIND_POISSON, gamma.order, rho, degrees) * scale_weights(lp, KIND_HEAT, gamma.order, rho, degrees)
    return w @ s * E[degrees] / _unit_pair_norm(lp, gamma.order)


def verify_pair_condition1(
    lp: LambdaParam, gamma: GammaVector, l_max: int, *, tol_identity: float = 1e-6, energy: np.ndarray | None = None
) -> list:
    """Check the per-degree admissibility integral against N(n, l).

    The pair is the one of ``gamma``, of order dfrak = ``gamma.order``.  For
    each degree l <= l_max the multiplier ``ratio`` is sum_r w_r s^P_l s^H_l
    E_l / ((n-1)^dfrak Gamma(dfrak)) (:func:`_scale_multipliers`) on the
    fine trapezoid in log rho over the window of degrees 1..l_max, with E_l
    from ``energy``, an :func:`energy_table` up to l_max or beyond, or one
    built here; its closed form is 1.  A row passes when |ratio - 1| is
    below ``tol_identity`` and below 1e-8, a floor that holds whatever
    ``tol_identity`` is.  ``quadrature_scaled`` is N(n, l) times the ratio.
    Returns one report dict per degree; failures are recorded, not raised.
    Raises ValueError from the first degree whose N(n, l) is past the float
    range.
    """
    if l_max < 1:
        return []
    degrees = range(1, l_max + 1)
    ratios = _scale_multipliers(lp, gamma, _fine_scale_rule(lp.lam, gamma.order, degrees), degrees, energy)
    rows = []
    for l, ratio in zip(degrees, ratios.tolist()):
        try:
            expected = float(dim_harmonic(lp.n, l))
        except OverflowError:
            raise ValueError(
                f"N(n, l) is past the float range from l={l} on at n={lp.n}; verify bands up to {l - 1}"
            ) from None
        rows.append(
            {
                "l": l,
                "expected": expected,
                "quadrature_scaled": expected * ratio,
                "ratio": ratio,
                "pass": bool(abs(ratio - 1.0) < min(1e-8, tol_identity)),
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


def _upper_gamma_q(d, x):
    """Regularized upper incomplete gamma Q(d, x) for d >= 1/2 an integer or a half-integer.

    The recursion Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) starts at
    Q(1, x) = e^-x, so integer d gives e^-x sum_{k<d} x^k / k!, or at
    Q(1/2, x) = erfc(sqrt x) for half-integer d.
    """
    if d % 1:
        root = np.sqrt(x)
        total = np.vectorize(math.erfc, otypes=[float])(root)
        term = np.exp(-x) * root / math.gamma(1.5)
        for k in range(1, int(d + 0.5)):
            total = total + term
            term = term * x / (k + 0.5)
        return total
    term = np.exp(-x)
    total = term
    for k in range(1, int(d)):
        term = term * x / k
        total = total + term
    return total


# Degrees in the first prefix that _tail_weights certifies; each retry doubles it up to the cap.
_TAIL_PREFIX = 64


def _tail_weights(lam: float, dfrak: int, R_values) -> list:
    """Per cutoff R, the degree weights w_l = (2 lam)^dfrak Gamma(dfrak, x_l) (lam + l)/lam of the scale tail, l = 0..L (w_0 = 0).

    x_l = R l (2 lam + l)/(2 lam).  Every w_l >= 0 and |C_l(t)| <= C_l(1), so
    the partial sums S_L = sum_{l<=L} w_l C_l(1) rise to sigma^2 sup |Phi_R|.
    L is the first degree whose remainder has a geometric majorant
    (:func:`certified_degree`) below 1e-12 S_L; each term is bounded through
    Gamma(d, x) <= x^(d-1) e^-x / (1 - (d-1)/x) for x > d - 1.  Terms and
    bounds are formed in logs, so no C_l(1) overflows.  All cutoffs share one
    table on a prefix of degrees, one row per R, and the prefix doubles until
    every row holds a certified L, up to the cap: the cumulative sums and the
    scan are prefix-stable, so the first prefix with a hit gives each row the
    degree and weights of the whole range.  Raises ValueError for an order
    below 1 or a cutoff that is not a finite float above 0.
    """
    if dfrak < 1:
        raise ValueError(f"order must be >= 1 for the scale tail, got {dfrak}")
    R_values = [float(R) for R in R_values]
    for R in R_values:
        if not (math.isfinite(R) and R > 0.0):
            raise ValueError(f"cutoff R must be a finite float > 0, got {R!r}")
    out = [None] * len(R_values)
    todo, top = list(range(len(R_values))), _TAIL_PREFIX
    while todo:
        ls = np.arange(top + 3)
        x = np.array([R_values[i] for i in todo])[:, None] * ls * (2.0 * lam + ls) / (2.0 * lam)
        weights = (2.0 * lam) ** dfrak * _upper_gamma_q(dfrak, x) * math.gamma(dfrak) * (lam + ls) / lam
        weights[:, 0] = 0.0
        # log C_l(1), with C_l(1) = prod_{i<=l} (2 lam + i - 1)/i
        log_c = np.concatenate(([0.0], np.cumsum(np.log1p((2.0 * lam - 1.0) / ls[1:]))))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = np.exp(np.log(weights) + log_c)
            bound = np.exp(dfrak * math.log(2.0 * lam) + (dfrak - 1) * np.log(x) - x - np.log1p((1 - dfrak) / x)
                           + np.log((lam + ls) / lam) + log_c)
        bound[x <= dfrak] = np.inf
        limits = 1e-12 * np.cumsum(terms, axis=1)[:, : top + 1]
        left = []
        for i, w, b, limit in zip(todo, weights, bound, limits):
            failure = f"scale tail at R={R_values[i]:g} not certified below degree cap {TRUNCATION_CAP}"
            try:
                out[i] = w[: certified_degree(b, limit, failure) + 1]
            except TruncationError:
                if top == TRUNCATION_CAP:
                    raise
                left.append(i)
        todo, top = left, min(2 * top, TRUNCATION_CAP)
    return out


def tail_integral(lp: LambdaParam, dfrak: int, R: float, t):
    """Scale-tail of the pair's zonal product, integrated over rho > R.

    Term-wise in degree via the upper incomplete gamma:
    Phi_R(t) = (1/sigma^2) sum_{l>=1} (2 lam)^dfrak Gamma(dfrak, R l (2 lam + l)/(2 lam)) K_l(t),
    summed to the degree of :func:`_tail_weights`, whose dropped remainder is
    below 1e-12 of sup |Phi_R| = Phi_R(1) at every t.
    """
    (weights,) = _tail_weights(lp.lam, dfrak, [R])
    out = gegenbauer_weighted_sum(lp.lam, weights, np.asarray(t, dtype=float)) / lp.sigma**2
    return out if out.shape else float(out)


# Samples per period of the top harmonic cos(L theta) on the grid that
# brackets the sign changes of a scale-tail kernel.
_SIGN_CHANGE_SAMPLES = 8


def _cosine_coeffs(lam: float, c: np.ndarray) -> np.ndarray:
    """B_j, j = 0..L, with sum_l c_l C_l^lam(cos theta) = sum_j B_j cos(j theta), for each row of c.

    C_l^lam(cos theta) = sum_{p+q=l} g_p g_q cos((q - p) theta) with
    g_k = (lam)_k / k!, so B_j = (2 - delta_{j0}) sum_p g_p g_{p+j} c_{2p+j}:
    one slice update per p, every term >= 0 when c >= 0.  A row padded with
    zero weights gains only zero terms, added after its own, so it keeps the
    bits of its unpadded coefficients.
    """
    L = c.shape[-1] - 1
    g = np.cumprod(np.concatenate(([1.0], (lam + np.arange(L)) / np.arange(1.0, L + 1))))
    B = np.zeros(c.shape)
    for p in range(L // 2 + 1):
        B[..., : L - 2 * p + 1] += g[p] * g[p : L - p + 1] * c[..., 2 * p :]
    B[..., 1:] *= 2.0
    return B


def _sign_changes(lam: float, rows: list) -> list:
    """Per weight row c, the ascending angles theta in (0, pi) where sum_l c_l C_l^lam(cos theta) changes sign.

    One :func:`_cosine_coeffs` pass over the zero-padded rows gives each
    row's cosine series B.  A row of degree L is sampled at theta_k = pi k / N,
    N a power of two with at least ``_SIGN_CHANGE_SAMPLES`` samples per period
    of cos(L theta), by one irfft over all the rows that share N.  Each
    bracket [theta_k, theta_k+1] with a sign change starts at its linear
    interpolant and takes three Newton steps on the row's own cosine series,
    kept inside the bracket.
    """
    sizes = [c.shape[0] for c in rows]
    padded = np.zeros((len(rows), max(sizes, default=1)))
    for r, c in enumerate(rows):
        padded[r, : sizes[r]] = c
    coeffs = _cosine_coeffs(lam, padded)
    by_n = {}
    for r, size in enumerate(sizes):
        by_n.setdefault(1 << (_SIGN_CHANGE_SAMPLES * size - 1).bit_length(), []).append(r)
    out = [None] * len(rows)
    for N, idx in by_n.items():
        spectrum = np.zeros((len(idx), N + 1))
        for i, r in enumerate(idx):
            spectrum[i, 0] = 2.0 * N * coeffs[r, 0]
            spectrum[i, 1 : sizes[r]] = N * coeffs[r, 1 : sizes[r]]
        samples = np.fft.irfft(spectrum, 2 * N)[:, : N + 1]
        h = math.pi / N
        for r, vals in zip(idx, samples):
            B, j = coeffs[r, : sizes[r]], np.arange(sizes[r])
            k = np.flatnonzero(np.diff(vals > 0.0))
            lo, hi = k * h, (k + 1) * h
            theta = lo + h * vals[k] / (vals[k] - vals[k + 1])
            for _ in range(3):
                jt = np.outer(theta, j)
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = (np.cos(jt) @ B) / (np.sin(jt) @ (j * B))
                # the slope vanishes at theta = pi, the end of the last bracket: stay put there
                theta = np.clip(theta + np.where(np.isfinite(step), step, 0.0), lo, hi)
            out[r] = theta
    return out


def tail_l1_sweep(lp: LambdaParam, dfrak: int, R_values) -> list:
    """Spherical L1 norms of the scale-tail kernel across cutoff values R, exactly.

    Phi_R = sum_l c_l C_l^lam with c the weights of :func:`tail_integral`,
    whose degree is certified: the dropped remainder is below 1e-12 of
    sup |Phi_R| = Phi_R(1).  With w(t) = (1 - t^2)^(lam - 1/2), DLMF 18.9 gives

        G(a) = integral_a^1 Phi_R w dt
             = (1 - a^2)^(lam + 1/2) sum_l c_l 2 lam / (l (l + 2 lam)) C_{l-1}^{lam+1}(a),

    so between consecutive sign changes a_1 > a_2 > ... of Phi_R, with
    a_0 = 1 and a_last = -1 (where G vanishes), the norm is
    (sigma_{n-1}/sigma_n) sum_i |G(a_i) - G(a_i+1)|.  G is summed in its
    Gegenbauer form, one recurrence at order lam + 1; the cosine form of G
    would cancel at eps Phi_R(1).  The sign changes come from
    :func:`_sign_changes`: they are resolved at 8 samples per period of the
    top harmonic, not certified, so a pair of changes closer than the grid
    could be missed.  A root's error enters the norm only quadratically,
    because G' = -Phi_R w vanishes at a root.

    All cutoffs go through each stage at once: one weight table, one
    sign-change pass, and one multi-row Gegenbauer sum of every R's row at
    the roots of all of them, of which each row reads its own.  Every stage
    keeps each row's bits, so a norm does not depend on which other cutoffs
    are swept with it.  Raises ValueError for an order below 1 or a cutoff
    that is not a finite float above 0.
    """
    lam = lp.lam
    c = [w / lp.sigma**2 for w in _tail_weights(lam, dfrak, R_values)]
    if not c:
        return []
    a = [np.cos(theta) for theta in _sign_changes(lam, c)]
    rows = []
    for w in c:
        l = np.arange(1.0, w.shape[0])
        rows.append(w[1:] * 2.0 * lam / (l * (l + 2.0 * lam)))
    longest_first = sorted(range(len(rows)), key=lambda r: -rows[r].shape[0])
    sums = gegenbauer_weighted_sum([lam + 1.0] * len(rows), [rows[r] for r in longest_first], np.concatenate(a))
    ends = np.cumsum([0] + [x.shape[0] for x in a])
    ratio = surface_measure(lp.n - 1) / lp.sigma
    norms = [0.0] * len(rows)
    for i, r in enumerate(longest_first):
        G = (1.0 - a[r] * a[r]) ** (lam + 0.5) * sums[i, ends[r] : ends[r + 1]]
        norms[r] = float(ratio * np.sum(np.abs(np.diff(np.concatenate(([0.0], G, [0.0]))))))
    return norms


def _laguerre_roots(m: int, alpha: float) -> np.ndarray:
    """The m zeros of the Laguerre polynomial L_m^(alpha), ascending; needs alpha > -1.

    They are real, simple and positive (DLMF 18.16(i)) and are the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
    recurrence, diagonal 2i + alpha + 1 and off-diagonal sqrt(i (i + alpha))
    (Golub-Welsch).
    """
    i = np.arange(m)
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    return np.linalg.eigvalsh(np.diag(2.0 * i + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))


def tail_l1_plateau(lp: LambdaParam, dfrak: int) -> float:
    """The R -> 0 limit of the :func:`tail_l1_sweep` norms, from the flat-space kernel, with no series and no quadrature.

    Rescaled by s = theta / sqrt(R), the scale tail tends to the flat-space
    kernel e^-u L_{dfrak-1}^{(n/2)}(u), u = lam s^2 / 2 (the Gegenbauer-Bessel
    limit, DLMF 18.11, and Weber's Gaussian Hankel integrals, DLMF 10.22),
    less the degree-0 term that the tail drops, which comes back as a thin
    negative floor over the whole sphere.  The norm tends to

        I (1 + integral_0^inf |P| w du / Gamma(n/2)),   I = (2 lam)^dfrak Gamma(dfrak) / sigma_n^2,

    with P = L_{dfrak-1}^{(n/2)} and w = u^(n/2-1) e^-u.  P has the rational
    coefficients p_i = (-1)^i binom(dfrak-1+n/2, dfrak-1-i) / i!, and
    integral_0^inf P w = Gamma(n/2), so with c_i = p_i (n/2)_i the integral
    from x to infinity is Gamma(n/2) G(x), G(x) = sum_i c_i Q(n/2 + i, x)
    and G(0) = 1.  The roots of P (none at order 1) are the eigenvalues of
    its Jacobi matrix; between them the pieces are differences of G.  A
    root's error enters only quadratically, because G' = -P w / Gamma(n/2)
    vanishes there.
    """
    if dfrak < 1:
        raise ValueError(f"order must be >= 1 for the scale tail, got {dfrak}")
    m, alpha = dfrak - 1, Fraction(lp.n, 2)
    p = [
        (-1) ** i * math.prod((alpha + t for t in range(i + 1, m + 1)), start=Fraction(1))
        / (math.factorial(m - i) * math.factorial(i))
        for i in range(m + 1)
    ]
    c = np.array([float(x * math.prod((alpha + t for t in range(i)), start=Fraction(1))) for i, x in enumerate(p)])
    roots = _laguerre_roots(m, lp.n / 2)
    G = sum(ci * _upper_gamma_q(lp.n / 2 + i, roots) for i, ci in enumerate(c))
    ends = np.concatenate(([1.0], G, [0.0]))
    mass = (2.0 * lp.lam) ** dfrak * math.gamma(dfrak) / lp.sigma**2
    return float(mass * (1.0 + np.sum(np.abs(np.diff(ends)))))
