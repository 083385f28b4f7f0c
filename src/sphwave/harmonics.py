"""Spherical coordinate charts and the Gauss-Jacobi rule of the zonal weight.

The sector family of hyperspherical harmonics, indexed by (l, k1) -- the
members depending on the first two angles alone -- is evaluated by
:func:`sphwave.rotderiv.sector_basis_frame`: rotational derivatives of zonal
functions never leave it.  On the 2-sphere the basis is the real combination
``Yt_l^k = Y_l^{-k} + Y_l^k``; the zonal member is taken as ``Yt_l^0 = Y_l^0``
(no doubling), so coefficient fields are real in every dimension.  The k >= 1
members then carry squared norm 2, a weight made explicit in all inner-product
code (see :func:`sphwave.rotderiv.sector_weights`).

Scalar products follow the global convention <f, g> = (1/sigma_n) * integral.
All functions are pure; grids and points are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import gauss_gegenbauer

__all__ = [
    "SphericalPoint",
    "to_cartesian",
    "from_cartesian",
    "GaussJacobiRule",
    "gauss_jacobi_rule",
]


@dataclass(frozen=True)
class SphericalPoint:
    """Point on the n-sphere: polar angles theta_1..theta_{n-1} in [0, pi], phi in [0, 2pi)."""

    thetas: tuple
    phi: float

    @property
    def n(self) -> int:
        return len(self.thetas) + 1


def to_cartesian(p: SphericalPoint) -> np.ndarray:
    """Embed the point in R^{n+1} via the polar coordinate chart."""
    angles = list(p.thetas) + [p.phi]
    n = len(angles)
    x = np.empty(n + 1)
    sin_prod = 1.0
    for i, a in enumerate(angles):
        x[i] = sin_prod * math.cos(a)
        sin_prod *= math.sin(a)
    x[n] = sin_prod
    return x


def from_cartesian(v) -> SphericalPoint:
    """Spherical coordinates of a (near-)unit vector; renormalizes internally.

    At chart degeneracies (zero tail norm) the remaining angles come out 0.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero vector has no spherical coordinates")
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"vector norm {norm} is not within 1e-8 of 1")
    v = v / norm
    n = v.shape[0] - 1
    thetas = []
    for k in range(n - 1):
        tail = float(np.linalg.norm(v[k + 1 :]))
        thetas.append(math.atan2(tail, v[k]))
    phi = math.atan2(v[n], v[n - 1]) % (2.0 * math.pi)
    return SphericalPoint(thetas=tuple(thetas), phi=phi)


@dataclass(frozen=True)
class GaussJacobiRule:
    """Nodes/weights on [-1, 1] for weight (1 - t^2)^(lam - 1/2)."""

    lam: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.shape[0]


def gauss_jacobi_rule(lam: float, n_nodes: int) -> GaussJacobiRule:
    """Gauss-Jacobi rule with the zonal weight of the (2*lam+1)-sphere."""
    x, w = gauss_gegenbauer(n_nodes, lam - 0.5)
    return GaussJacobiRule(lam=float(lam), nodes=x, weights=w)
