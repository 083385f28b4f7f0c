"""Stereographic parametrization and the flat-space limit profiles of the wavelets.

At small scales the order-d wavelet, pulled back through the inverse
stereographic projection and rescaled by rho^n, converges pointwise to

    G_d(xi) = (d/d xi_2)^d  [ 2 / (sigma_n (1 + |xi|^2)^(lam+1)) ],

a plain d-th partial along the distinguished tangent direction.  The
derivative is carried out exactly over a polynomial-over-power representation
(terms c * xi_2^p * (1+|xi|^2)^-q with rational c), never by nested finite
differences; d <= 2 also has hand-written branches used as cross-checks.

Probe functions evaluate the scaled spherical wavelet along a shrinking-scale
sequence and report errors and empirical convergence order (first-order decay
in rho is expected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .harmonics import SphericalPoint, from_cartesian
from .rotderiv import synthesize
from .special import LambdaParam
from .wavelets import (
    KIND_POISSON,
    WaveletSpec,
    directional_wavelet_field,
    g1_closed,
    g2_closed,
    poisson_kernel_closed,
    truncation_degree,
)

__all__ = [
    "EuclideanPoint",
    "inverse_stereographic",
    "euclidean_limit_eval",
    "wavelet_at_scaled_point",
    "limit_convergence_probe",
]


@dataclass(frozen=True)
class EuclideanPoint:
    """Point xi = (xi_2, ..., xi_{n+1}) in the flat tangent copy of R^n."""

    coords: tuple

    @property
    def radius(self) -> float:
        return math.sqrt(sum(c * c for c in self.coords))

    @property
    def xi2(self) -> float:
        return self.coords[0]


def inverse_stereographic(xi: EuclideanPoint, n: int) -> SphericalPoint:
    """Map R^n to the n-sphere: theta_1 = 2 arctan(|xi|/2), direction preserved.

    The origin maps to the pole (all angles zero).
    """
    if len(xi.coords) != n:
        raise ValueError(f"point has {len(xi.coords)} coordinates, expected n={n}")
    R = xi.radius
    theta1 = 2.0 * math.atan(R / 2.0)
    if R == 0.0:
        return SphericalPoint(thetas=(0.0,) * (n - 1), phi=0.0)
    direction = from_cartesian(np.asarray(xi.coords) / R)
    return SphericalPoint(thetas=(theta1,) + direction.thetas, phi=direction.phi)


def _limit_terms(lam: float, d: int) -> list:
    """Terms (c, p, q): G_d(xi) = (2/sigma) sum c * xi_2^p * (1+|xi|^2)^-q."""
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


def euclidean_limit_eval(lp: LambdaParam, d: int, xi: EuclideanPoint) -> float:
    """Flat-space limit profile G_d at xi (exact symbolic differentiation)."""
    if d < 0 or d > 6:
        raise ValueError("limit profiles supported for 0 <= d <= 6")
    A = 1.0 + xi.radius**2
    x2 = xi.xi2
    total = 0.0
    for c, p, q in _limit_terms(lp.lam, d):
        total += float(c) * x2**p * A ** (-float(q))
    return 2.0 / lp.sigma * total


def _limit_closed_low_order(lp: LambdaParam, d: int, xi: EuclideanPoint) -> float:
    # hand-written d <= 2 branches, kept as an independent cross-check
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


def wavelet_at_scaled_point(lp: LambdaParam, d: int, xi: EuclideanPoint, rho: float, *, eps: float = 1e-10) -> float:
    """rho^n * g^[d]_rho evaluated at the inverse stereographic image of rho*xi.

    Closed forms serve d <= 2; higher orders synthesize the coefficient field,
    whose truncation degree grows like 1/rho: below the degree cap's reach
    (near rho = 1e-2 for d >= 3 at the default eps) :func:`truncation_degree`
    raises :class:`TruncationError`.
    """
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=d, rho=rho)
    scaled = EuclideanPoint(tuple(rho * c for c in xi.coords))
    point = inverse_stereographic(scaled, lp.n)
    theta1 = point.thetas[0]
    R = xi.radius
    # theta2 of the direction: cos(theta2) = xi_2 / |xi|
    theta2 = 0.0 if R == 0.0 else math.acos(max(-1.0, min(1.0, xi.xi2 / R)))
    if d == 0:
        val = float(poisson_kernel_closed(lp, rho, theta1))
    elif d == 1:
        val = float(g1_closed(spec, theta1, theta2))
    elif d == 2:
        val = float(g2_closed(spec, theta1, theta2))
    else:
        field = directional_wavelet_field(spec, L=truncation_degree(spec, eps))
        val = float(synthesize(field, theta1, theta2))
    return rho**lp.n * val


def limit_convergence_probe(lp: LambdaParam, d: int, xi: EuclideanPoint, rho_sequence) -> dict:
    """Errors |rho^n g^[d](S^-1(rho xi)) - G_d(xi)| along a decreasing scale sequence.

    Reports per-scale errors, consecutive ratios, and the empirical order from
    the last ratio (log2 of the ratio when scales halve).  For d >= 3 a scale
    beyond the series' reach raises :class:`TruncationError` naming the
    degree cap (see :func:`wavelet_at_scaled_point`).
    """
    rhos = list(rho_sequence)
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rho sequence must decrease")
    target = euclidean_limit_eval(lp, d, xi)
    errors = [abs(wavelet_at_scaled_point(lp, d, xi, rho) - target) for rho in rhos]
    ratios = [e1 / e2 if e2 > 0.0 else None for e1, e2 in zip(errors, errors[1:])]
    order = None
    if ratios and ratios[-1] is not None and ratios[-1] > 0:
        step = rhos[-2] / rhos[-1]
        order = math.log(ratios[-1]) / math.log(step)
    return {
        "rho": rhos,
        "target": target,
        "errors": errors,
        "ratios": ratios,
        "empirical_order": order,
    }
