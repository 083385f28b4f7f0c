"""Poisson and heat kernels on the n-sphere and their directional wavelets.

The scale-rho Poisson kernel sits at zeta = exp(-rho) * (north pole) inside the
ball; the order-d directional wavelet is rho^d times the d-th derivative of the
kernel along the rotation angle in the (x1, x2) plane.  Two representations
exist at every order: the degree series of :mod:`sphwave.rotderiv`'s
coefficient ladder, and the explicit function of the spherical variables
built by :func:`poisson_wavelet_closed` from exact derivative terms.  The
hand-written :func:`g1_closed` and :func:`g2_closed` stay as independent
references for d = 1, 2.

The heat-kernel family uses the degree weight exp(-rho l^2 / (2 lam)); combined
with the Poisson weight exp(-rho l) this yields exp(-rho l (2 lam + l)/(2 lam)),
the decay that drives all admissibility integrals downstream.

Scale parameters are strictly positive.  Builders take the truncation degree
L.  :func:`truncation_degree` is the one path from a tolerance to a degree; its
hard cap rejects the near-singular regime rather than silently losing accuracy.
:func:`certified_degree` is the scan it shares with the scale-tail kernel of
:mod:`sphwave.admissibility`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .rotderiv import CoefficientField, derivative_order, derivative_step, zonal_field
from .special import LambdaParam, _root_factors

if TYPE_CHECKING:  # admissibility builds its pair sums from this module's table
    from .admissibility import GammaVector

__all__ = [
    "KIND_POISSON",
    "KIND_HEAT",
    "WaveletSpec",
    "TruncationError",
    "kernel_zonal_coeffs",
    "poisson_wavelet_terms",
    "poisson_wavelet_closed",
    "directional_wavelet_field",
    "modified_wavelet_field",
    "modified_wavelet_table",
    "scale_weights",
    "g1_closed",
    "g2_closed",
    "truncation_degree",
    "certified_degree",
]

KIND_POISSON = "poisson"
KIND_HEAT = "heat"
TRUNCATION_CAP = 5000


class TruncationError(ValueError):
    """Requested tolerance unreachable under the degree cap, or its bound not representable in floats."""


@dataclass(frozen=True)
class WaveletSpec:
    """Kernel kind, derivative order and scale of one wavelet family member."""

    lp: LambdaParam
    kind: str
    order: int
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in (KIND_POISSON, KIND_HEAT):
            raise ValueError(f"kind must be {KIND_POISSON!r} or {KIND_HEAT!r}")
        if self.order < 0:
            raise ValueError("derivative order must be >= 0")
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"scale rho must be positive and finite, got {self.rho!r}")

    @property
    def r(self) -> float:
        return math.exp(-self.rho)


def scale_weights(lp: LambdaParam, kind: str, order: int, rhos, degrees) -> np.ndarray:
    """Per-degree scale weights s_l(rho) of an order-``order`` family, shape (len(rhos), len(degrees)).

    Poisson kind: exp(-rho l) rho^order; heat kind: exp(-rho l^2 / (2 lam)).
    The ladder never mixes degrees, so a family member at scale rho has the
    coefficients s_l(rho) B_{l,k} of one rho-free table B, and each degree's
    weights are formed alone.
    """
    rho = np.asarray(rhos, dtype=float)[:, None]
    ls = np.asarray(degrees, dtype=float)
    if kind == KIND_POISSON:
        return np.exp(-rho * ls) * rho**order
    return np.exp(-rho * ls**2 / (2.0 * lp.lam))


def _zonal_seed(lp: LambdaParam, L: int) -> np.ndarray:
    """Kernel zonal coefficients without the degree weight, l = 0..L: (1/sigma) (lam+l)/lam / A_l^0.

    That is sqrt(N(n, l)) / sigma, formed as h_l p_l / sigma (see
    :func:`sphwave.special._root_factors`) without N(n, l) itself.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    h, p = _root_factors(lp.n, np.arange(L + 1))
    return h * p / lp.sigma


def kernel_zonal_coeffs(spec: WaveletSpec, L: int) -> np.ndarray:
    """Zonal coefficients a_l^0 of the undifferentiated kernel, l = 0..L.

    a_l^0 = sqrt(N(n, l)) w_l / sigma, with w_l the kind-specific degree
    weight: the kernel's degree-l part (lam+l)/lam w_l C_l^lam / sigma over
    Y_l^0 = A_l^0 C_l^lam.
    """
    return scale_weights(spec.lp, spec.kind, 0, [spec.rho], np.arange(L + 1))[0] * _zonal_seed(spec.lp, L)


def _poisson_parts(rho: float, theta1):
    """(1 - r^2, D) with D = 1 - 2 r cos(theta1) + r^2 and r = exp(-rho).

    D is formed as (1 - r)^2 + 4 r sin^2(theta1 / 2) with 1 - r = -expm1(-rho):
    the direct form cancels to nothing as rho -> 0 near theta1 = 0, where the
    flat-space limit probes it.
    """
    theta1 = np.asarray(theta1, dtype=float)
    one_minus_r = -math.expm1(-rho)
    den = one_minus_r**2 + 4.0 * math.exp(-rho) * np.sin(0.5 * theta1) ** 2
    return -math.expm1(-2.0 * rho), den


def poisson_wavelet_terms(lam: float, order: int) -> list:
    """Exact terms (c, p, q, j) of the order-``order`` rotational derivative of the Poisson kernel.

    With x1 = cos(theta1), x2 = sin(theta1) cos(theta2) and
    D = 1 - 2 r x1 + r^2, (-x2 d/dx1 + x1 d/dx2)^order applied to
    (1 - r^2) / (sigma D^(lam+1)) is

        (1 - r^2) / sigma * sum c x1^p x2^q r^j D^-(lam+1+j),

    c rational.  One derivative sends x1^p to -p x1^(p-1) x2, x2^q to
    q x1 x2^(q-1) and D^-s to -2 s r x2 D^-(s+1); like terms merge, so order
    6 has 9 terms.  Sorted by (p, q, j).
    """
    s0 = Fraction(lam) + 1
    terms = {(0, 0, 0): Fraction(1)}
    for _ in range(order):
        new: dict = {}
        for (p, q, j), c in terms.items():
            for key, factor in (((p - 1, q + 1, j), -p), ((p + 1, q - 1, j), q), ((p, q + 1, j + 1), -2 * (s0 + j))):
                if factor:
                    new[key] = new.get(key, 0) + c * factor
        terms = {key: c for key, c in new.items() if c}
    return [(c, p, q, j) for (p, q, j), c in sorted(terms.items())]


def poisson_wavelet_closed(spec: WaveletSpec, theta1, theta2):
    """Order-d Poisson wavelet rho^d (d-th rotational derivative of the kernel), in closed form.

    Sums the terms of :func:`poisson_wavelet_terms`, built on each call, with
    D from :func:`_poisson_parts`, so the value stays accurate as rho -> 0.
    Broadcasts theta1 against theta2; theta2 is phi on S^2.
    """
    if spec.kind != KIND_POISSON:
        raise ValueError("closed forms exist for the Poisson kind")
    lp, rho, d = spec.lp, spec.rho, spec.order
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    one_minus_r2, den = _poisson_parts(rho, theta1)
    r = spec.r
    total = _poisson_term_sum(lp.lam, d, theta1, theta2, den, [r**j for j in range(d + 1)])
    return rho**d * one_minus_r2 / lp.sigma * total


def _poisson_term_sum(lam: float, order: int, theta1, theta2, den, factors) -> np.ndarray:
    """sum c x1^p x2^q factors[j] den^-(lam+1+j) over the terms (c, p, q, j) of :func:`poisson_wavelet_terms`.

    x1 = cos(theta1), x2 = sin(theta1) cos(theta2).  With den = D and
    factors[j] = r^j this is the bracketed sum of :func:`poisson_wavelet_closed`;
    callers that scale D pass the matching factors.
    """
    x1 = np.cos(theta1)
    x2 = np.sin(theta1) * np.cos(theta2)
    total = np.zeros(np.broadcast(x1, x2).shape)
    for c, p, q, j in poisson_wavelet_terms(lam, order):
        total = total + float(c) * x1**p * x2**q * (factors[j] * den ** -(lam + 1.0 + j))
    return total


def directional_wavelet_field(spec: WaveletSpec, L: int) -> CoefficientField:
    """Coefficient field of the order-d directional wavelet at scale rho, truncated at degree L.

    The Poisson kind carries the rho^d prefactor of the bracketed wavelet; the
    heat family is the bare derivative.  On large spheres the seed
    sqrt(N(n, l)) / sigma leaves the float range at high degree, even where
    the weight w_l would bring the coefficient back.  The first degree with a
    coefficient that is not a finite float, or a rho^d past it, raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        field = derivative_order(kernel_zonal_coeffs(spec, L), spec.lp, spec.order)
        if spec.kind == KIND_POISSON and spec.order > 0:
            try:
                field = field.scaled(spec.rho**spec.order)
            except OverflowError:
                raise ValueError(f"rho^order is past the float range at rho={spec.rho:g}, order {spec.order}") from None
    bad = np.flatnonzero(~np.isfinite(field.coeffs).all(axis=1))
    if bad.size:
        raise ValueError(f"wavelet coefficient of degree l={bad[0]} is not a finite float at n={spec.lp.n}")
    return field


def modified_wavelet_table(lp: LambdaParam, gamma: GammaVector, L: int) -> np.ndarray:
    """The rho-free table B_{l,k} = sum_d gamma_d (d-th derivative of the unit zonal seed).

    Shape (L+1, order+1); its energies sum_k w_k B_{l,k}^2 are the collapse
    value u^order.  The modified wavelet of either kind at scale rho has the
    coefficients ``scale_weights(...)[:, :, None] * B`` times the kernel's
    zonal seed per degree; the ladder runs once however many scales are used.
    """
    if abs(gamma.lam - lp.lam) > 1e-12:
        raise ValueError(f"gamma vector solved for lam={gamma.lam}, sphere has lam={lp.lam}")
    dfrak = gamma.order
    field = zonal_field(lp, np.ones(L + 1))
    acc = np.zeros((L + 1, dfrak + 1))
    acc[:, :1] = gamma.gammas[0] * field.coeffs
    for d in range(1, dfrak + 1):
        field = derivative_step(field)
        if gamma.gammas[d]:
            acc[:, : d + 1] += gamma.gammas[d] * field.coeffs
    return acc


def modified_wavelet_field(lp: LambdaParam, gamma: GammaVector, kind: str, rho: float, L: int) -> CoefficientField:
    """Admissible combination sum_d gamma_d * (d-th derivative field), truncated at degree L.

    Poisson kind carries the rho^order prefactor; the heat-side reconstruction
    family does not.
    """
    WaveletSpec(lp=lp, kind=kind, order=gamma.order, rho=rho)  # validates kind and rho
    weights = scale_weights(lp, kind, gamma.order, [rho], np.arange(L + 1))[0] * _zonal_seed(lp, L)
    return CoefficientField(lp, weights[:, None] * modified_wavelet_table(lp, gamma, L))


def g1_closed(spec: WaveletSpec, theta1, theta2):
    """Closed form of the order-1 Poisson wavelet.

    -2 rho (lam+1) r (1-r^2) sin(theta1) cos(theta2) / (sigma * D^(lam+2)),
    D = 1 - 2 r cos(theta1) + r^2.
    """
    if spec.kind != KIND_POISSON:
        raise ValueError("closed forms exist for the Poisson kind")
    lp, rho, r = spec.lp, spec.rho, spec.r
    one_minus_r2, den = _poisson_parts(rho, theta1)
    return (
        -2.0 * rho * (lp.lam + 1.0) * r * one_minus_r2 * np.sin(theta1) * np.cos(theta2)
        / (lp.sigma * den ** (lp.lam + 2.0))
    )


def g2_closed(spec: WaveletSpec, theta1, theta2):
    """Closed form of the order-2 Poisson wavelet (two-term expression)."""
    if spec.kind != KIND_POISSON:
        raise ValueError("closed forms exist for the Poisson kind")
    lp, rho, r = spec.lp, spec.rho, spec.r
    lam = lp.lam
    one_minus_r2, den = _poisson_parts(rho, theta1)
    term1 = -2.0 * (lam + 1.0) * r * one_minus_r2 * np.cos(theta1) / (lp.sigma * den ** (lam + 2.0))
    term2 = (
        4.0 * (lam + 1.0) * (lam + 2.0) * r * r * one_minus_r2
        * np.sin(theta1) ** 2 * np.cos(theta2) ** 2 / (lp.sigma * den ** (lam + 3.0))
    )
    return rho**2 * (term1 + term2)


def certified_degree(bound, limit, failure: str) -> int:
    """First index L whose remainder sum_{i > L} bound[i] has a geometric majorant below limit[L].

    ``bound`` holds sup-norm bounds of consecutive series terms whose ratio
    bound[i+1] / bound[i] decreases, so for L the majorant
    bound[L+1] / (1 - bound[L+2] / bound[L+1]) covers the whole remainder once
    that ratio is below 1.  ``limit`` is a scalar or one value per L, for the
    len(bound) - 2 candidate indices.  Raises :class:`TruncationError` with the
    message ``failure`` when no candidate is certified.
    """
    head, nxt = bound[1:-1], bound[2:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = np.where(head > 0, nxt / head, 0.0)
        hits = np.flatnonzero((q < 1.0) & (head / (1.0 - q) < limit))
    if not hits.size:
        raise TruncationError(failure)
    return int(hits[0])


def truncation_degree(spec: WaveletSpec, eps: float) -> int:
    """Smallest L whose geometric tail bound on dropped terms is below eps.

    The degree-l synthesis term is bounded in sup norm by
    rho^d (d+1) 2^d (l+lam)^d N(n,l) w_l / sigma: the ladder multiplies
    coefficients by at most 2^d (l+lam)^d across <= d+1 orders, each harmonic
    is bounded by sqrt(N(n,l)), and a_l^0 sqrt(N) = N w_l / sigma.  The bound
    sums these terms for l > L via a geometric-ratio closed form (the term
    ratio is decreasing, so it majorizes the tail).  All degrees up to the cap
    of 5000 are bounded at once, as one array, and scanned by
    :func:`certified_degree`.  Scales below the cap's reach, orders whose
    bound overflows a float, and series whose weight w_l underflows to 0
    before a degree is certified raise :class:`TruncationError` rather than
    returning an unreliable degree; a subnormal w_l still counts.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    lp, d = spec.lp, spec.order
    overflow = f"degree bound overflows a float at order {d}"
    try:
        const = (spec.rho**d if spec.kind == KIND_POISSON else 1.0) * (d + 1) * 2.0**d
        sigma = lp.sigma  # n >= 261 has no normal-float sigma^2
    except (OverflowError, ValueError):
        raise TruncationError(overflow) from None
    ls = np.arange(d, max(TRUNCATION_CAP + 3, d + 2), dtype=float)  # l = L for L = d .. cap, then L+1, L+2
    w = scale_weights(lp, spec.kind, 0, [spec.rho], ls)[0]  # the weights kernel_zonal_coeffs multiplies in
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # N(n, l) in floats: each partial product is an integer, exact below 2^53
        nl = np.ones_like(ls)
        for i in range(1, lp.n - 1):
            nl = nl * (ls + i) / i
        nl = nl * (lp.n + 2 * ls - 1) / (lp.n - 1)
        power = (ls + lp.lam) ** d
        bound = const * power * nl * w / sigma
    failure = f"tolerance {eps:g} unreachable below degree cap {TRUNCATION_CAP} at rho={spec.rho:g}"
    # the first degree whose bound overflows, or whose weight flushes to 0 and
    # would read as a zero remainder, ends the scan
    overflowed = ~(np.isfinite(power) & np.isfinite(nl))
    cut = np.flatnonzero(overflowed | (w == 0.0))
    if cut.size:
        i = cut[0]
        underflow = f"degree weight underflows a float at l={int(ls[i])} before tolerance {eps:g} is certified at rho={spec.rho:g}"
        bound, failure = bound[:i], overflow if overflowed[i] else underflow
    return d + certified_degree(bound, eps, failure)
