"""Stereographic parametrization and the flat-space limit profiles of the wavelets.

At small scales the order-d wavelet, pulled back through the inverse
stereographic projection and rescaled by rho^n, converges pointwise to

    G_d(xi) = (d/d xi_2)^d  [ 2 / (sigma_n (1 + |xi|^2)^(lam+1)) ],

a plain d-th partial along the distinguished tangent direction.  Both sides
come from the exact terms of :func:`sphwave.wavelets.poisson_wavelet_terms`:
the sphere's wavelet is their closed form, and G_d keeps the terms that
survive rho -> 0, never nested finite differences.

Probe functions evaluate the scaled spherical wavelet along a shrinking-scale
sequence and report errors and empirical convergence order (first-order decay
in rho is expected).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special import LambdaParam
from .wavelets import KIND_POISSON, WaveletSpec, _poisson_parts, _poisson_term_sum, poisson_wavelet_terms

__all__ = [
    "EuclideanPoint",
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


def _limit_terms(lam: float, d: int) -> list:
    """Terms (c, p, q): G_d(xi) = (2/sigma) sum c * xi_2^p * (1+|xi|^2)^-q, sorted by (p, q).

    Near the pole of the scaled wavelet, x1 -> 1, r -> 1, x2 ~ rho xi_2 and
    D ~ rho^2 (1+|xi|^2), so a sphere term c x1^p x2^q r^j D^-(lam+1+j) times
    the rho^(n+d) (1-r^2) prefactor scales like rho^(d + q - 2j), and
    2j - q <= d.  The terms with 2j - q = d survive; they carry the flat
    profile's coefficients exactly.
    """
    terms: dict = {}
    for c, _, q, j in poisson_wavelet_terms(lam, d):
        if 2 * j - q == d:
            key = (q, Fraction(lam) + 1 + j)
            terms[key] = terms.get(key, 0) + c
    return [(c, p, q) for (p, q), c in sorted(terms.items()) if c]


def euclidean_limit_eval(lp: LambdaParam, d: int, xi: EuclideanPoint) -> float:
    """Flat-space limit profile G_d at xi (exact symbolic differentiation).

    Every term has q - p/2 = lam + 1 + d/2 =: h, so with A = 1 + |xi|^2 and
    t = xi_2 / sqrt(A), G_d = (2/sigma) A^-h sum c t^p.  The terms are summed
    as c xi_2^p A^-q while every A^-q is a normal float.  From where one is
    not (on S^2 from |xi| near 3e20 at order 6, near 15 on S^260), xi_2^p
    would overflow against an underflowed A^-q, so the profile is formed from
    t, |t| <= 1, with (2/sigma) A^-h one exponential: 2/sigma, large on large
    spheres, enters before anything underflows.
    """
    if d < 0 or d > 6:
        raise ValueError("limit profiles supported for 0 <= d <= 6")
    terms = _limit_terms(lp.lam, d)
    A = 1.0 + xi.radius**2
    x2 = xi.xi2
    scale = 2.0 / lp.sigma
    if A ** -max(float(q) for _, _, q in terms) >= sys.float_info.min:
        total = 0.0
        for c, p, q in terms:
            total += float(c) * x2**p * A ** (-float(q))
        return scale * total
    t = x2 / math.sqrt(A)
    decay = math.exp(math.log(scale) - (lp.lam + 1 + d / 2) * math.log(A))
    return sum((decay * float(c) * t**p for c, p, _ in terms), 0.0)  # from 0.0: an underflowed profile reads 0.0, not -0.0


def wavelet_at_scaled_point(lp: LambdaParam, d: int, xi: EuclideanPoint, rho: float) -> float:
    """rho^n * g^[d]_rho at the inverse stereographic image of rho*xi, theta1 = 2 arctan(|rho xi|/2).

    Sums the exact terms of :func:`sphwave.wavelets.poisson_wavelet_terms`
    at every order, so no degree series is summed and no truncation cap
    limits the scale.  rho^n is folded into each term,
    rho^n D^-(lam+1+j) = rho^(-1-2j) (D/rho^2)^-(lam+1+j) with n = 2 lam + 1,
    and D/rho^2 stays near 1 + |xi|^2, so no intermediate overflows at
    large n.  Raises ValueError when xi does not have n coordinates or the
    value is not a finite float.
    """
    if len(xi.coords) != lp.n:
        raise ValueError(f"point has {len(xi.coords)} coordinates, expected n={lp.n}")
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=d, rho=rho)
    R = xi.radius
    # theta2 of the direction: cos(theta2) = xi_2 / |xi|
    theta2 = 0.0 if R == 0.0 else math.acos(max(-1.0, min(1.0, xi.xi2 / R)))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # theta1 of the inverse stereographic image; |rho xi| = inf lands on the antipode
        theta1 = 2.0 * math.atan(EuclideanPoint(tuple(rho * c for c in xi.coords)).radius / 2.0)
        one_minus_r2, den = _poisson_parts(rho, theta1)
        rho_ = np.float64(rho)
        factors = [spec.r**j * rho_ ** (-1.0 - 2 * j) for j in range(d + 1)]
        total = _poisson_term_sum(lp.lam, d, theta1, theta2, den / rho_**2, factors)
        value = float(rho_**d * one_minus_r2 / lp.sigma * total)
    if not math.isfinite(value):
        raise ValueError(f"rho^n g^[{d}] at rho={rho!r} does not evaluate to a finite float (n={lp.n})")
    return value


def limit_convergence_probe(lp: LambdaParam, d: int, xi: EuclideanPoint, rho_sequence) -> dict:
    """Errors |rho^n g^[d](S^-1(rho xi)) - G_d(xi)| along a decreasing scale sequence.

    Reports per-scale errors, consecutive ratios, and the empirical order from
    the last ratio (log2 of the ratio when scales halve).  Raises ValueError
    for fewer than two scales, which leave nothing to compare.
    """
    rhos = list(rho_sequence)
    if len(rhos) < 2:
        raise ValueError("the probe needs at least two scales")
    if any(r2 >= r1 for r1, r2 in zip(rhos, rhos[1:])):
        raise ValueError("rho sequence must decrease")
    with np.errstate(over="ignore"):
        if not math.isfinite(xi.radius):
            raise ValueError("the probe point's radius |xi| is not a finite float")
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
