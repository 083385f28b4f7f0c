"""The Gauss-Jacobi rule of the zonal weight.

Scalar products follow the global convention <f, g> = (1/sigma_n) * integral.
All functions are pure; rules are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import gauss_gegenbauer

__all__ = [
    "GaussJacobiRule",
    "gauss_jacobi_rule",
]


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
