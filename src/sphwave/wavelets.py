"""Poisson and heat kernels on the n-sphere and their directional wavelets.

The scale-rho Poisson kernel sits at zeta = exp(-rho) * (north pole) inside the
ball; the order-d directional wavelet is rho^d times the d-th derivative of the
kernel along the rotation angle in the (x1, x2) plane.  Closed forms are
provided for d = 1 and d = 2; higher orders go through the coefficient ladder
of :mod:`sphwave.rotderiv`.

The heat-kernel family uses the degree weight exp(-rho l^2 / (2 lam)); combined
with the Poisson weight exp(-rho l) this yields exp(-rho l (2 lam + l)/(2 lam)),
the decay that drives all admissibility integrals downstream.

Scale parameters are strictly positive.  Builders take either an explicit
truncation degree L (caller-owned, e.g. band-limited projections) or a
tolerance ``eps`` that is converted through :func:`truncation_degree`, whose
hard cap rejects the near-singular regime rather than silently losing accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rotderiv import CoefficientField, derivative_order, derivative_step, zonal_field
from .special import LambdaParam, dim_harmonic, norm_const_a

if TYPE_CHECKING:  # admissibility builds its pair sums from this module's table
    from .admissibility import GammaVector

__all__ = [
    "KIND_POISSON",
    "KIND_HEAT",
    "WaveletSpec",
    "TruncationError",
    "kernel_zonal_coeffs",
    "poisson_kernel_closed",
    "directional_wavelet_field",
    "modified_wavelet_field",
    "modified_wavelet_table",
    "scale_weights",
    "g1_closed",
    "g2_closed",
    "truncation_degree",
]

KIND_POISSON = "poisson"
KIND_HEAT = "heat"
TRUNCATION_CAP = 5000


class TruncationError(Exception):
    """Requested tolerance unreachable under the degree cap."""


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


def scale_weights(lp: LambdaParam, kind: str, order: int, rhos, L: int) -> np.ndarray:
    """Per-degree scale weights s_l(rho) of an order-``order`` family, shape (len(rhos), L+1).

    Poisson kind: exp(-rho l) rho^order; heat kind: exp(-rho l^2 / (2 lam)).
    The ladder never mixes degrees, so a family member at scale rho has the
    coefficients s_l(rho) B_{l,k} of one rho-free table B.
    """
    rho = np.asarray(rhos, dtype=float)[:, None]
    ls = np.arange(L + 1, dtype=float)
    if kind == KIND_POISSON:
        return np.exp(-rho * ls) * rho**order
    return np.exp(-rho * ls**2 / (2.0 * lp.lam))


def _zonal_seed(lp: LambdaParam, L: int) -> np.ndarray:
    """Kernel zonal coefficients without the degree weight: (1/sigma) (lam+l)/lam / A_l^0."""
    if L < 0:
        raise ValueError("L must be >= 0")
    ls = np.arange(L + 1)
    return (lp.lam + ls) / lp.lam / norm_const_a(lp, ls, 0) / lp.sigma


def kernel_zonal_coeffs(spec: WaveletSpec, L: int) -> np.ndarray:
    """Zonal coefficients a_l^0 of the undifferentiated kernel, l = 0..L.

    a_l^0 = (1/sigma) (lam+l)/lam * w_l / A_l^0 with w_l the kind-specific
    degree weight.
    """
    return scale_weights(spec.lp, spec.kind, 0, [spec.rho], L)[0] * _zonal_seed(spec.lp, L)


def poisson_kernel_closed(lp: LambdaParam, rho: float, theta1):
    """Poisson kernel value (1/sigma)(1-r^2)/(1-2r cos(theta1)+r^2)^(lam+1)."""
    r = math.exp(-rho)
    theta1 = np.asarray(theta1, dtype=float)
    den = 1.0 - 2.0 * r * np.cos(theta1) + r * r
    return (1.0 - r * r) / (lp.sigma * den ** (lp.lam + 1.0))


def directional_wavelet_field(
    spec: WaveletSpec, L: int | None = None, *, eps: float | None = None, scaled: bool | None = None
) -> CoefficientField:
    """Coefficient field of the order-d directional wavelet at scale rho.

    ``scaled`` controls the rho^d prefactor: the bracketed Poisson wavelet
    carries it, the bare derivative families (and the heat family) do not.
    Defaults to the kind's own convention.  Exactly one of ``L`` (explicit
    truncation) or ``eps`` (tolerance-driven, cap-checked) must be given.
    """
    if (L is None) == (eps is None):
        raise ValueError("give exactly one of L or eps")
    if L is None:
        L = truncation_degree(spec, eps)
    field = derivative_order(kernel_zonal_coeffs(spec, L), spec.lp, spec.order)
    if scaled is None:
        scaled = spec.kind == KIND_POISSON
    if scaled and spec.order > 0:
        field = field.scaled(spec.rho**spec.order)
    return field


def modified_wavelet_table(lp: LambdaParam, gamma: GammaVector, L: int) -> np.ndarray:
    """The rho-free table B_{l,k} = sum_d gamma_d (d-th derivative of the unweighted kernel).

    Shape (L+1, order+1).  The modified wavelet of either kind at scale rho
    has the coefficients ``scale_weights(...)[:, :, None] * B``; the ladder
    runs once however many scales are used.
    """
    if abs(gamma.lam - lp.lam) > 1e-12:
        raise ValueError(f"gamma vector solved for lam={gamma.lam}, sphere has lam={lp.lam}")
    dfrak = gamma.order
    field = zonal_field(lp, _zonal_seed(lp, L))
    acc = np.zeros((L + 1, dfrak + 1))
    acc[:, :1] = gamma.gammas[0] * field.coeffs
    for d in range(1, dfrak + 1):
        field = derivative_step(field)
        if gamma.gammas[d]:
            acc[:, : d + 1] += gamma.gammas[d] * field.coeffs
    return acc


def modified_wavelet_field(
    lp: LambdaParam, gamma: GammaVector, kind: str, rho: float, L: int | None = None, *, eps: float | None = None
) -> CoefficientField:
    """Admissible combination sum_d gamma_d * (d-th derivative field).

    Poisson kind carries the rho^order prefactor; the heat-side reconstruction
    family does not.
    """
    spec = WaveletSpec(lp=lp, kind=kind, order=gamma.order, rho=rho)
    if (L is None) == (eps is None):
        raise ValueError("give exactly one of L or eps")
    if L is None:
        L = truncation_degree(spec, eps)
    weights = scale_weights(lp, kind, gamma.order, [rho], L)[0]
    return CoefficientField(lp, weights[:, None] * modified_wavelet_table(lp, gamma, L))


def g1_closed(spec: WaveletSpec, theta1, theta2):
    """Closed form of the order-1 Poisson wavelet.

    -2 rho (lam+1) r (1-r^2) sin(theta1) cos(theta2) / (sigma * D^(lam+2)),
    D = 1 - 2 r cos(theta1) + r^2.
    """
    if spec.kind != KIND_POISSON:
        raise ValueError("closed forms exist for the Poisson kind")
    lp, rho, r = spec.lp, spec.rho, spec.r
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    den = 1.0 - 2.0 * r * np.cos(theta1) + r * r
    return (
        -2.0 * rho * (lp.lam + 1.0) * r * (1.0 - r * r) * np.sin(theta1) * np.cos(theta2)
        / (lp.sigma * den ** (lp.lam + 2.0))
    )


def g2_closed(spec: WaveletSpec, theta1, theta2):
    """Closed form of the order-2 Poisson wavelet (two-term expression)."""
    if spec.kind != KIND_POISSON:
        raise ValueError("closed forms exist for the Poisson kind")
    lp, rho, r = spec.lp, spec.rho, spec.r
    lam = lp.lam
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    den = 1.0 - 2.0 * r * np.cos(theta1) + r * r
    term1 = -2.0 * (lam + 1.0) * r * (1.0 - r * r) * np.cos(theta1) / (lp.sigma * den ** (lam + 2.0))
    term2 = (
        4.0 * (lam + 1.0) * (lam + 2.0) * r * r * (1.0 - r * r)
        * np.sin(theta1) ** 2 * np.cos(theta2) ** 2 / (lp.sigma * den ** (lam + 3.0))
    )
    return rho**2 * (term1 + term2)


def _term_bound(spec: WaveletSpec, l: int) -> float:
    # Sup-norm bound for the degree-l synthesis term: the ladder multiplies
    # coefficients by at most 2^d (l+lam)^d across <= d+1 orders, each harmonic
    # bounded by sqrt(N(n,l)), and a_l^0 * sqrt(N) = (1/sigma) N w_l.
    lp, d = spec.lp, spec.order
    nl = dim_harmonic(lp.n, l)
    if spec.kind == KIND_POISSON:
        w = math.exp(-spec.rho * l)
        pref = spec.rho**d
    else:
        w = math.exp(-spec.rho * l * l / (2.0 * lp.lam))
        pref = 1.0
    return pref * (d + 1) * 2.0**d * (l + lp.lam) ** d * nl * w / lp.sigma


def truncation_degree(spec: WaveletSpec, eps: float) -> int:
    """Smallest L whose geometric tail bound on dropped terms is below eps.

    The bound sums sup-norm estimates C l^(2 lam + d) * decay(l) for l > L via
    a geometric-ratio closed form (the term ratio is decreasing, so it
    majorizes the tail).  Hard cap at 5000; scales below the cap's reach, and
    orders whose bound overflows a float, raise :class:`TruncationError`
    rather than returning an unreliable degree.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
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
    raise TruncationError(
        f"tolerance {eps:g} unreachable below degree cap {TRUNCATION_CAP} at rho={spec.rho:g}"
    )
