"""Quadrature on the n-sphere, the spherical wavelet transform, and inversion.

Full transform/inversion runs on the 2-sphere, where SO(3) admits a cheap
product grid in Euler angles; for higher dimensions the Fourier-side
per-degree reconstruction multiplier carries the verification burden.

Grid design notes
-----------------
* Sphere grids are product rules: Gauss-Jacobi in each polar angle (weight
  matched to the surface element), uniform in phi.  A grid built for ``band``
  B integrates every product of harmonics with combined degree <= B exactly:
  the uniform phi sum annihilates all azimuthal cross-modes below its node
  count, and what survives is polynomial in the polar variables.
* Rotation grids tie node counts to the band limit: 2L+1 nodes in the first
  twist and L+1 Gauss-Legendre nodes across integrate products of two band-L
  functions exactly against the normalized invariant measure (non-zero
  azimuthal aliases would need index 2L+1 or beyond).  The third twist turns
  the wavelet about its own axis, so it sees only the wavelet's sector orders
  k <= d (the family is steerable); the product of analysing and
  reconstruction wavelets carries twist modes |k| <= 2d, and a uniform rule
  with 2 min(d, L) + 1 nodes integrates them exactly.  The round trip uses
  that steered grid: at band 8, order 1 it has 459 nodes instead of 2601.
* The transform is factored through the sector basis.  A modified wavelet at
  scale rho has coefficients s_l(rho) B_{l,k}: s_l is exp(-rho l) rho^d
  (Poisson) or exp(-rho l^2 / 2 lam) (heat) times the kernel seed, and B is rho-free.
  With the per-degree transforms T_{l,k}(R) = (1/sigma) sum_x nu_x f(x)
  Y_l^k(R^-1 x), analysis is W_r(R) = sum_l s^P_l(rho_r) X_l(R) with the
  scale-free X_l = sum_k B_{l,k} T_{l,k}, and inversion is f_rec(x) =
  sum_{l,k,R} V_{l,k}(R) Y_l^k(R^-1 x) with V_{l,k}(R) = B_{l,k} nu_R Z_l(R)
  and Z_l = C sum_r w_r s^H_l(rho_r) W_r.  The scale enters only as a
  per-degree weight: W = S^P X and Z = (C w S^H)^T W are one matmul each,
  no step loops over scales in Python, and T and V are never formed.
* The round trip evaluates no rotated basis: it separates variables through
  Wigner-d matrices (McEwen et al., IEEE TSP 2007; the SO(3) FFT of Kostelec
  & Rockmore, JFAA 2008).  In the frame (x2, x3, x1) the Euler rotation is
  R = R_z(alpha) R_y(beta) R_z(gamma), the unit-norm complex harmonics
  y_l^m(theta, phi) = sqrt(2l+1) d^l_{m0}(theta) e^{i m phi} turn by
  y_l^m(R^-1 x) = sum_m' e^{-i m' alpha} d^l_{m'm}(beta) e^{-i m gamma} y_l^m'(x),
  and the sector basis is Y_l^k = (-1)^k y_l^k + y_l^{-k}.  So T_{l,k} =
  w_k Re[G_{l,k}(alpha, beta) e^{-ik gamma}], with w_k the sector weight
  times (-1)^k and G_{l,k} = sum_m e^{-im alpha} d^l_{mk}(beta) conj(f_lm):
  the signal's coefficients f_lm (the theta rule times an FFT over phi), one
  table d^l_{m'k} with k <= d (the wavelet is steerable) and an FFT over m.
  The gamma twists enter last: X_l = sum_k w_k Re[B_{l,k} G_{l,k}
  e^{-ik gamma}] is one real matmul over the 2(K+1) modes (cos k gamma,
  sin k gamma).  The inversion is the adjoint: Z projected onto the twist
  modes, weighted by B_{l,k} nu_beta, an FFT over alpha, the d-table
  contraction, then synthesis on the grid.  The sphere grid's theta rule is
  the rotation grid's beta rule, so the one table serves both: its k = 0
  column holds the harmonics at the grid's theta nodes.  The signal's
  samples are synthesized from its coefficients through that column too,
  with F_l0 = a_l0, F_lk = (-1)^k a_lk and F_l,-k = a_lk; a rotation Q acts
  on them as F'_l = D^l(Q) F_l, from a d table at Q's one beta, so no
  Gegenbauer recurrence runs in the round trip.  Time is O(L^3 d) per round
  trip plus the two scale matmuls; the d table holds (L+1)(2L+1)(d+1)(L+1)
  values and X and Z (L+1) values per rotation node.  At band 64, order 2
  the round trip takes about 0.2 s.  :func:`wavelet_transform` and
  :func:`inverse_transform` take any rotation frame and synthesize the
  wavelet fields on it with :func:`sphwave.rotderiv.synthesize_frame`; they
  are the reference.
* Only the coefficients, the samples and what is formed from them depend on
  the signal.  The pair's gamma, the sphere grid, the d table and y_theta,
  the scale weights, B, the twist modes, the Haar weights and the
  multipliers m_l form a plan, a function of (band, order, rho_min,
  rho_max, rho_steps) alone, built by the first round trip at that
  configuration and reused by the next (the SO(3) FFT of Kostelec &
  Rockmore likewise precomputes its d tables once per band).  One plan is kept, read-only: about 17.5 MB at
  band 64, order 2 and 58 MB at band 96.  At band 8, order 1 a round trip
  that reuses the plan costs about a third of one that builds it.
* The scale integral is discretized log-uniformly (trapezoid in log rho),
  natural for the d(rho)/rho measure.  The default range [1e-6, 8] with 60
  nodes keeps every per-degree multiplier within ~1e-4 of 1 for band-8
  signals at order 1.  Both cutoffs cost a deficit that depends on the
  order d.  With u_l = l(2 lam + l), the fine cutoff costs degree l the
  regularized lower incomplete gamma P(d, rho_min u_l / 2 lam), which is
  1 - exp(-rho_min u_l / 2 lam) only at order 1, and the coarse cutoff the
  upper one, Q(d, rho_max u_l / 2 lam).  On S^2 at order 1 the fine cutoff
  dominates: 1 - m_8 = 7.24e-5 against P(1, .) = 7.2e-5, while the coarse
  cutoff costs Q(1, .) = 1.1e-7 at degree 1.  The coarse end grows with the
  order: 1 - m_1 reads 4.0e-6 at order 2 and 1.7e-4 at order 4, against
  Q(2, .) = 1.9e-6 and Q(4, .) = 9.3e-5, the rest being trapezoid error.
  The round trip multiplies degree l by m_l = sum_r w_r s^P_l s^H_l E_l /
  ((n-1)^d Gamma(d)) on this rule, which the checks read on their step-1/7
  rule, so its error is predicted exactly from the per-degree energies.

Everything here is embarrassingly parallel over (scale, rotation) nodes with
deterministic reduction order; grids are immutable and shareable.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .admissibility import GammaVector, _fine_scale_rule, _scale_multipliers, admissibility_constant, solve_gamma
from .rotderiv import CoefficientField, sector_weights, synthesize_frame
from .special import LambdaParam, gauss_gegenbauer, surface_measure
from .wavelets import KIND_HEAT, KIND_POISSON, _zonal_seed, modified_wavelet_table, scale_weights

__all__ = [
    "SphereGrid",
    "RotationGrid",
    "build_sphere_grid",
    "build_rotation_grid",
    "log_rho_grid",
    "rotation_matrices",
    "rotated_sector_frame",
    "grid_inner",
    "random_bandlimited_field",
    "wavelet_transform",
    "inverse_transform",
    "wigner_d_table",
    "round_trip",
    "per_degree_reconstruction_check",
]

DEFAULT_RHO_MIN = 1e-6
DEFAULT_RHO_MAX = 8.0
DEFAULT_RHO_STEPS = 60


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature nodes on the n-sphere; weights sum to sigma_n."""

    n: int
    band: int
    angles: np.ndarray  # (M, n): theta_1..theta_{n-1}, phi
    weights: np.ndarray  # (M,)
    shape: tuple  # nodes per axis; M nodes in C order, phi fastest

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def sector_angles(self) -> tuple:
        """(theta1, theta2) arrays; theta2 is phi on the 2-sphere."""
        return self.angles[:, 0], self.angles[:, 1]


@dataclass(frozen=True)
class RotationGrid:
    """Euler-angle product grid on SO(3) with weights summing to 1 (2-sphere only)."""

    band: int
    euler: np.ndarray  # (M, 3): alpha, beta, gamma
    weights: np.ndarray  # (M,)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def build_sphere_grid(n: int, band: int) -> SphereGrid:
    """Product grid exact for harmonic products of combined degree <= band."""
    if band < 0:
        raise ValueError("band must be >= 0")
    axes_nodes = []
    axes_weights = []
    for tau in range(1, n):
        alpha = (n - tau - 1) / 2.0
        m = band // 2 + 1
        t, w = gauss_gegenbauer(m, alpha)
        axes_nodes.append(np.arccos(t[::-1]))
        axes_weights.append(w[::-1])
    n_phi = band + 1
    axes_nodes.append(2.0 * np.pi * np.arange(n_phi) / n_phi)
    axes_weights.append(np.full(n_phi, 2.0 * np.pi / n_phi))
    shape = tuple(len(t) for t in axes_nodes)
    angles = np.empty(shape + (n,))
    for i, t in enumerate(axes_nodes):
        angles[..., i] = t.reshape([-1 if j == i else 1 for j in range(n)])
    weights = functools.reduce(np.multiply.outer, axes_weights).ravel()
    return SphereGrid(n=n, band=band, angles=angles.reshape(-1, n), weights=weights, shape=shape)


def build_rotation_grid(band: int) -> RotationGrid:
    """SO(3) grid exact for products of two band-limited functions: 2 band + 1 nodes in either twist."""
    if band < 0:
        raise ValueError("band must be >= 0")
    n_twist = 2 * band + 1
    tw = 2.0 * np.pi * np.arange(n_twist) / n_twist
    t, w = gauss_gegenbauer(band + 1, 0.0)
    betas = np.arccos(t[::-1])
    wb = w[::-1] / 2.0
    wt = np.full(n_twist, 1.0 / n_twist)
    a, b, g = np.meshgrid(tw, betas, tw, indexing="ij")
    wa, wbm, wg = np.meshgrid(wt, wb, wt, indexing="ij")
    euler = np.stack([a.ravel(), b.ravel(), g.ravel()], axis=1)
    weights = (wa * wbm * wg).ravel()
    return RotationGrid(band=band, euler=euler, weights=weights)


def log_rho_grid(rho_min: float = DEFAULT_RHO_MIN, rho_max: float = DEFAULT_RHO_MAX, steps: int = DEFAULT_RHO_STEPS):
    """Log-uniform scale nodes and trapezoid weights for the d(rho)/rho measure."""
    if not (0 < rho_min < rho_max < math.inf) or steps < 2:
        raise ValueError("need 0 < rho_min < rho_max < inf and at least two steps")
    x = np.linspace(math.log(rho_min), math.log(rho_max), steps)
    w = np.full(steps, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(x), w


def rotation_matrices(rot: RotationGrid) -> np.ndarray:
    """Matrices R = R_pole(alpha) * R_plane(beta) * R_pole(gamma), shape (M, 3, 3).

    R_pole twists around the pole axis x1; R_plane is the (x1, x2) rotation.
    """
    a, b, g = rot.euler[:, 0], rot.euler[:, 1], rot.euler[:, 2]
    ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
    m = np.empty((rot.size, 3, 3))
    # R_pole(t) = [[1,0,0],[0,ct,-st],[0,st,ct]];  R_plane(t) = [[ct,-st,0],[st,ct,0],[0,0,1]]
    m[:, 0, 0] = cb
    m[:, 0, 1] = -sb * cg
    m[:, 0, 2] = sb * sg
    m[:, 1, 0] = ca * sb
    m[:, 1, 1] = ca * cb * cg - sa * sg
    m[:, 1, 2] = -ca * cb * sg - sa * cg
    m[:, 2, 0] = sa * sb
    m[:, 2, 1] = sa * cb * cg + ca * sg
    m[:, 2, 2] = -sa * cb * sg + ca * cg
    return m


def _sphere_nodes_cartesian(grid: SphereGrid) -> np.ndarray:
    th, ph = grid.sector_angles()
    if grid.n != 2:
        raise ValueError("cartesian node helper is 2-sphere only")
    return np.stack([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)], axis=0)


def rotated_sector_frame(matrices: np.ndarray, grid: SphereGrid) -> tuple:
    """(cos theta1, sin theta1, theta2) of R^-1 x per rotation/node pair.

    Shapes (M_rot, M_nodes).  sin(theta1) comes from the tangential norm, which
    stays fully accurate near the poles (arccos would halve the digits there).
    """
    x = _sphere_nodes_cartesian(grid)
    y = np.einsum("mji,jk->mik", matrices, x)  # R^T x
    c1 = np.clip(y[:, 0, :], -1.0, 1.0)
    s1 = np.hypot(y[:, 1, :], y[:, 2, :])
    theta2 = np.arctan2(y[:, 2, :], y[:, 1, :])
    return c1, s1, theta2


def grid_inner(grid: SphereGrid, f, g) -> float:
    """<f, g> with the 1/sigma_n normalization."""
    return float(np.dot(grid.weights, np.asarray(f) * np.asarray(g)) / surface_measure(grid.n))


def random_bandlimited_field(lp: LambdaParam, band: int, seed: int = 0) -> CoefficientField:
    """Random mean-free test signal with unit-scale sector coefficients up to the band."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((band + 1, band + 1))
    for k1 in range(band + 1):
        a[:k1, k1] = 0.0
    a[0, :] = 0.0
    return CoefficientField(lp, a)


def _steered_transform(d: np.ndarray, f_lm: np.ndarray, B: np.ndarray, s_p: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """W_r(R) = sum_l s^P_l(rho_r) X_l(R) on the steered rotation grid, shape (n_rho, M_rot).

    ``d`` is the round trip's (l, m, k, beta) table, ``f_lm`` the signal's
    coefficients, ``B`` the wavelet table (L+1, K+1), ``s_p`` the Poisson
    scale weights (n_rho, L+1) and ``modes`` the interleaved twist modes.  The
    nodes run in (beta, alpha, gamma) order.  With G_{l,k}(alpha, beta) =
    sum_m e^{-im alpha} d^l_{mk}(beta) conj(f_lm), an FFT over m, the
    scale-free X_l(R) = sum_k w_k Re[B_{l,k} G_{l,k} e^{-ik gamma}] is one
    real matmul over the 2(K+1) twist modes and W = S^P X one more, so the
    per-degree transforms T are never formed.
    """
    BG = np.fft.fft(d.transpose(0, 3, 1, 2) * (f_lm.conj()[:, :, None] * B[:, None, :])[:, None], axis=2)  # (l, beta, alpha, k)
    X = np.ascontiguousarray(BG).view(float).reshape(-1, modes.shape[0]) @ modes
    return s_p @ X.reshape(d.shape[0], -1)


def _steered_inversion(W: np.ndarray, d: np.ndarray, B: np.ndarray, nu: np.ndarray, s_h: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The reconstructed coefficients f_rec,lm = sum_{k,R} V_{l,k}(R) w_k D^l_{mk}(R), shape (L+1, 2L+1).

    The adjoint of :func:`_steered_transform`, with ``nu`` the Haar weight of
    a node per beta and ``s_h`` the scale weights C rho_w s^H_l (n_rho, L+1).
    B factors out of the reconstruction coefficients, so V_{l,k}(R) =
    B_{l,k} nu_beta Z_l(R) with Z = s_h^T W, one matmul.  V's twist modes are
    the gamma projection of Z against ``modes`` with its sin rows negated,
    one more, and an FFT over alpha and the d-table contraction finish; V
    itself is never formed.
    """
    L1, K1, n_beta = d.shape[0], d.shape[2], d.shape[3]
    adjoint = modes.T * ([1.0, -1.0] * K1)
    Z = s_h.T @ W
    V_k = (Z.reshape(-1, modes.shape[1]) @ adjoint).view(complex).reshape(L1, n_beta, -1, K1)
    V_k *= B[:, None, None, :] * nu[:, None, None]
    return np.einsum("lmkb,lbmk->lm", d, np.fft.fft(V_k, axis=2))


def wavelet_transform(
    psi_field: CoefficientField,
    f_values: np.ndarray,
    grid: SphereGrid,
    rot_frame: tuple,
) -> np.ndarray:
    """W(rho, R) = (1/sigma) * integral psi(R^-1 x) f(x) dsigma(x) per rotation node.

    ``rot_frame`` holds the precomputed frame of R^-1 x from
    :func:`rotated_sector_frame`; the analysing field is real, so no
    conjugation is needed.  Warns when the grid cannot hold the product of the
    analysing band with a signal of the same band.
    """
    if 2 * psi_field.degree_max > grid.band:
        warnings.warn(
            f"grid band {grid.band} below twice the analysing band {psi_field.degree_max}; "
            "quadrature is not exact for same-band signals",
            stacklevel=2,
        )
    return synthesize_frame(psi_field, *rot_frame) @ (grid.weights * np.asarray(f_values)) / psi_field.lp.sigma


def inverse_transform(
    W: np.ndarray,
    omega_fields: list,
    rho_weights: np.ndarray,
    rot: RotationGrid,
    grid: SphereGrid,
    rot_frame: tuple,
) -> np.ndarray:
    """Reconstruction sum over the (scale x rotation) grid, evaluated at grid nodes.

    ``W`` has shape (n_rho, n_rot); ``omega_fields`` is the reconstruction
    family per scale node (already C-scaled, one band and order bound);
    ``rho_weights`` are the trapezoid-in-log weights realizing the
    d(rho)/rho measure.  ``grid`` is the sphere grid ``rot_frame`` was built
    on; the output has one value per node of it.  Each rotation node
    contributes the synthesis of its own field V(R) on its frame.
    """
    omega = np.stack([field.coeffs for field in omega_fields])
    lp = omega_fields[0].lp
    # V_{l,k}(R) = sum_r rho_w_r omega_r[l, k] W_r(R) nu_R, the scale sum first
    V = np.tensordot(np.asarray(rho_weights, dtype=float)[:, None, None] * omega, W * rot.weights, axes=(0, 0))
    total = np.zeros(grid.size)
    for r in range(V.shape[2]):
        total += synthesize_frame(CoefficientField(lp, V[:, :, r]), *(a[r] for a in rot_frame))
    return total


def wigner_d_table(L: int, K: int, beta) -> np.ndarray:
    """Wigner small-d values d^l_{m,k}(beta) for l <= L, |m| <= L and 0 <= k <= K.

    ``beta`` is a 1-d array.  Shape ``(L+1, 2L+1, K+1, len(beta))``; entry
    ``[l, m, k]`` is d^l_{mk}(beta) = <l m| exp(-i beta J_y) |l k>, zero
    where |m| > l or k > l.  A negative m is a python index, m mod (2L+1):
    the order of FFT modes, so sums over m are FFTs.  Each (m, k) column
    runs the three-term recurrence in l of Kostelec & Rockmore (JFAA 2008),

        a_{l+1} d^{l+1} = (cos beta - m k / (l (l+1))) d^l - a_l d^{l-1},
        a_l = sqrt((l^2 - m^2)(l^2 - k^2)) / (l (2l+1)),

    from its first degree max(|m|, k), where d is a binomial root times
    powers of cos(beta/2) and sin(beta/2).  The roots are running products,
    so no factorial is formed.
    """
    if L < 0 or K < 0:
        raise ValueError("L and K must be >= 0")
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d array")
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    out = np.zeros((L + 1, 2 * L + 1, K + 1, beta.size))
    K = min(K, L)
    c_pow = np.array([c**p for p in range(2 * K + 1)])
    s_pow = np.array([s**p for p in range(2 * K + 1)])
    # first degree j = |m| > k: d^j_{jk} = (-1)^(j-k) r_j c^(j+k) s^(j-k), d^j_{-j,k} = r_j c^(j-k) s^(j+k), where
    # r_j = sqrt(C(2j, j+k)) grows by sqrt(2j (2j-1) / ((j+k)(j-k))) per degree: cumulative products over
    # (j, k) at once, 1 below the start and c^(2k) (or s^(2k)) at j = k; negated steps carry (-1)^(j-k)
    j, k = np.arange(L + 1)[:, None], np.arange(K + 1)
    above = j > k
    step = np.sqrt(np.where(above, 2 * j * (2 * j - 1) / np.where(above, (j + k) * (j - k), 1), 1.0))[:, :, None] * c * s
    start, above = (j == k)[:, :, None], above[:, :, None]
    top = np.multiply.accumulate(np.where(start, c_pow[::2], np.where(above, -step, 1.0)), axis=0)
    bottom = np.multiply.accumulate(np.where(start, s_pow[::2], np.where(above, step, 1.0)), axis=0)
    j = j[:, 0]
    out[j, L + j, : K + 1] = above * top
    out[j, L - j, : K + 1] = above * bottom
    # first degree k >= |m|: d^k_{mk} = sqrt(C(2k, k+m)) c^(k+m) s^(k-m), the root a running product over m
    for k in range(K + 1):
        root = np.multiply.accumulate(np.sqrt([1.0] + [(k + m) / (k - m + 1) for m in range(k, -k, -1)]))
        out[k, L - k : L + k + 1, k] = root[::-1, None] * c_pow[: 2 * k + 1] * s_pow[2 * k :: -1]
    # the recurrence coefficients stepping degree l to l + 1, over the block |m| <= l, k <= l
    l = np.arange(L, dtype=float)[:, None, None, None]
    m = np.arange(-L, L + 1.0)[None, :, None, None]
    k = np.arange(K + 1.0)[None, None, :, None]
    m2, k2 = m * m, k * k
    live = (np.abs(m) <= l) & (k <= l)
    next_sq = np.where(live, ((l + 1) ** 2 - m2) * ((l + 1) ** 2 - k2), 1.0)
    x = (l + 1) * (2 * l + 1) / np.sqrt(next_sq)
    y = (l + 1) / np.maximum(l, 1.0) * np.sqrt(np.where(live, (l * l - m2) * (l * l - k2), 0.0) / next_sq)
    mk = m * k / np.maximum(l * (l + 1), 1.0)
    cos_b = np.cos(beta)
    for l in range(L):
        # d^{l+1} on the block |m| <= l, k <= min(l, K), where every column has started
        rows, cols = slice(L - l, L + l + 1), slice(0, min(l, K) + 1)
        d_next = x[l, rows, cols] * (cos_b - mk[l, rows, cols]) * out[l, rows, cols]
        if l:
            d_next = d_next - y[l, rows, cols] * out[l - 1, rows, cols]
        out[l + 1, rows, cols] = d_next
    return np.roll(out, -L, axis=1)  # index L + m to index m mod (2L+1)


def _complex_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """F_{l,m} with f = sum_lm F_lm y_l^m for the 2-sphere sector coefficients a_{l,k}.

    Shape (L+1, 2L+1), m mod 2L+1: F_l0 = a_l0, F_lk = (-1)^k a_lk and F_l,-k = a_lk,
    since Y_l^k = (-1)^k y_l^k + y_l^{-k} for k >= 1.
    """
    L = coeffs.shape[0] - 1
    a = coeffs[:, : L + 1]
    F = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    ks = np.arange(a.shape[1])
    F[:, ks] = np.where(ks % 2, -1.0, 1.0) * a
    F[:, -ks[1:]] = a[:, 1:]
    return F


def _rotate_coefficients(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coefficients of f o Q^-1: F'_{l,m'} = sum_m D^l_{m'm}(Q) F_{l,m}.

    With Q = R_pole(alpha) R_plane(beta) R_pole(gamma), as in
    :func:`rotation_matrices`, D^l_{m'm} = e^{-i m' alpha} d^l_{m'm}(beta) e^{-i m gamma}.
    Q's first column is (cos beta, sin beta cos alpha, sin beta sin alpha), and
    gamma is read from R_plane(beta)^T R_pole(alpha)^T Q = R_pole(gamma), which
    holds for whatever alpha atan2 returns when sin beta = 0, where only a sum or
    difference of alpha and gamma is defined.  Negative orders come from
    d^l_{m',-k} = (-1)^(m'+k) d^l_{-m',k}.
    """
    L = F.shape[0] - 1
    alpha = math.atan2(Q[2, 0], Q[1, 0])
    beta = math.atan2(math.hypot(Q[1, 0], Q[2, 0]), Q[0, 0])
    ca, sa, cb, sb = math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)
    gamma = math.atan2(ca * Q[2, 1] - sa * Q[1, 1], cb * (ca * Q[1, 1] + sa * Q[2, 1]) - sb * Q[0, 1])
    d = wigner_d_table(L, L, np.array([beta]))[..., 0]  # (l, m', k)
    idx = np.arange(2 * L + 1)
    ms = np.where(idx > L, idx - (2 * L + 1), idx)
    sign = np.where(ms % 2, -1.0, 1.0)
    d_full = np.where(ms >= 0, d[:, :, np.abs(ms)], sign[:, None] * sign * d[:, -idx][:, :, np.abs(ms)])
    return np.exp(-1j * ms * alpha) * np.einsum("lpm,lm->lp", d_full, np.exp(-1j * ms * gamma) * F)


def _grid_values(y_theta: np.ndarray, F: np.ndarray) -> np.ndarray:
    """sum_lm F_lm y_l^m at the round trip's sphere nodes: a theta sum, then an FFT over phi."""
    return y_theta.shape[1] * np.fft.ifft(np.einsum("lmb,lm->bm", y_theta, F)).real.ravel()


@functools.lru_cache(maxsize=1, typed=True)
def _round_trip_plan(band: int, dfrak: int, rho_min: float, rho_max: float, rho_steps: int) -> tuple:
    """The signal-free part of :func:`round_trip`, built once per configuration.

    Returns (grid, d, y_theta, B, s_p, s_h, modes, nu, multipliers): the sphere
    grid, the (l, m, k, beta) d table and its k = 0 column as harmonics at the
    theta nodes, the unit-seed wavelet table B, the Poisson scale weights and
    the weighted heat ones C rho_w s^H (both times the kernel seed), the twist
    modes, the Haar weight per beta and the multipliers m_l, E_l from B.  Every
    array, the grid's included, is read-only, since the cache hands the same
    ones to every call.  One plan is kept (``maxsize=1``); its d table and
    y_theta hold (L+1)^2 (2L+1) (K+2) floats, about 17.5 MB at band 64, order 2
    and 58 MB at band 96.  A solver failure raises, and exceptions are not
    cached.  ``typed`` keeps a call with, say, a float ``rho_steps`` from
    reusing a plan it could not build.
    """
    lp = LambdaParam(2)
    gamma = solve_gamma(lp.lam, dfrak)
    grid = build_sphere_grid(2, 2 * band)
    # the steered rotation grid: alpha on the phi nodes, beta on the theta rule,
    # 2K + 1 gamma twists, Haar weight w_theta / (2 n_alpha n_gamma) per node
    n_beta, n_alpha = grid.shape
    if (n_beta, n_alpha) != (band + 1, 2 * band + 1):
        raise ValueError("the sphere grid's theta rule must be the rotation grid's beta rule")
    K = min(dfrak, band)
    n_gamma = 2 * K + 1
    d = wigner_d_table(band, K, grid.angles[::n_alpha, 0])  # (l, m, k, beta)
    # y_l^m = sqrt(2l+1) d^l_{m0}(theta) e^{i m phi} are the complex harmonics with
    # (1/sigma)-unit norm, and the sector basis is Y_l^k = (-1)^k y_l^k + y_l^{-k}
    y_theta = np.sqrt(2.0 * np.arange(band + 1) + 1.0)[:, None, None] * d[:, :, 0, :]
    rhos, rho_w = log_rho_grid(rho_min, rho_max, rho_steps)
    C = admissibility_constant(lp, dfrak)
    B = modified_wavelet_table(lp, gamma, band)  # its energies are energy_table's, bit for bit
    ls = np.arange(band + 1)
    seed = _zonal_seed(lp, band)  # B is per unit seed
    s_p = scale_weights(lp, KIND_POISSON, dfrak, rhos, ls) * seed
    s_h = scale_weights(lp, KIND_HEAT, dfrak, rhos, ls) * seed
    # the twist modes w_k (cos k gamma, sin k gamma) with w_k = (-1)^k times the sector weight,
    # their rows interleaved the way a complex array's float view interleaves (Re, Im)
    ks = np.arange(K + 1)
    twist = ks[:, None] * (2.0 * np.pi * np.arange(n_gamma) / n_gamma)
    w_k = (np.where(ks % 2, -1.0, 1.0) * sector_weights(2, K))[:, None]
    modes = np.stack([w_k * np.cos(twist), w_k * np.sin(twist)], axis=1).reshape(2 * K + 2, n_gamma)
    nu = grid.weights[::n_alpha] / (4.0 * np.pi * n_gamma)  # the Haar weight of a node, by beta
    multipliers = _scale_multipliers(lp, gamma, (rhos, rho_w), ls, B**2 @ sector_weights(2, dfrak))
    plan = (grid, d, y_theta, B[:, : K + 1], s_p, C * rho_w[:, None] * s_h, modes, nu, multipliers)
    for a in (grid.angles, grid.weights) + plan[1:]:
        a.flags.writeable = False
    return plan


def round_trip(
    lp: LambdaParam,
    signal: CoefficientField,
    dfrak: int,
    *,
    rho_min: float = DEFAULT_RHO_MIN,
    rho_max: float = DEFAULT_RHO_MAX,
    rho_steps: int = DEFAULT_RHO_STEPS,
    rotation: np.ndarray | None = None,
) -> dict:
    """Analyse and reconstruct a band-limited signal on the 2-sphere.

    The analysing family is the order-dfrak modified Poisson wavelet, the
    reconstruction family its C-scaled heat-side partner.  Wavelet fields are
    band-limited to the signal band, which leaves transform values of
    band-limited signals exact; the reported error is dominated by the scale
    truncation/discretization.  The mean (degree-0) component is annihilated
    for dfrak >= 1 and must be absent from the signal.

    ``rotation`` Q, a 3x3 rotation matrix, makes the analysed signal f o Q^-1;
    a generic Q fills the sin(k phi) modes that sector fields never hold.

    The round trip multiplies degree l by m_l = sum_r w_r s^P_l s^H_l E_l /
    ((n-1)^dfrak Gamma(dfrak)) on the :func:`log_rho_grid` rule, the checks'
    function on their fine trapezoid, so the error is predicted from the
    signal's per-degree energies e_l alone: ``predicted_rel_l2`` =
    sqrt(sum_l (m_l - 1)^2 e_l / sum_l e_l).  Rotations keep every e_l.

    The transform W lives on every node of the steered rotation grid, but no
    basis is evaluated on it: it goes through the signal's coefficients f_lm
    and one Wigner-d table, with an FFT over alpha and one matmul over the
    gamma twist modes, and the inversion runs the adjoint (see the module
    notes).  The scales enter as per-degree weights, one matmul each way, so
    neither the per-degree transforms T nor the inversion sum V is formed.
    The input samples f_values come from the signal's coefficients through
    the same table, after D^l(Q) when Q is given.

    What the signal does not enter (gamma, the sphere grid, the d table, the
    scale weights, the twist modes and the multipliers) comes from a plan
    keyed by (band, dfrak, rho_min, rho_max, rho_steps).  The last plan is
    kept, so repeated round trips at one configuration build it once; the
    returned ``grid`` is the plan's and read-only.
    """
    if lp.n != 2:
        raise ValueError("full round trip is 2-sphere only")
    if dfrak < 1:
        raise ValueError("round trip needs order >= 1")
    band = signal.degree_max
    if np.any(signal.coeffs[0]):
        raise ValueError("signal must be mean-free: the pair does not reconstruct degree 0")
    if not np.any(signal.coeffs):
        raise ValueError("signal is zero: its relative reconstruction error is undefined")
    grid, d, y_theta, B, s_p, s_h, modes, nu, multipliers = _round_trip_plan(band, dfrak, rho_min, rho_max, rho_steps)
    n_beta, n_alpha = grid.shape
    # the signal's samples, synthesized from its coefficients like f_rec below
    F = _complex_coefficients(signal.coeffs)
    if rotation is not None:
        Q = np.asarray(rotation, dtype=float)
        if Q.shape != (3, 3) or not np.allclose(Q @ Q.T, np.eye(3), atol=1e-12) or np.linalg.det(Q) < 0:
            raise ValueError("rotation must be a 3x3 rotation matrix")
        F = _rotate_coefficients(F, Q)
    f_vals = _grid_values(y_theta, F)
    g = np.fft.fft((grid.weights * f_vals / lp.sigma).reshape(n_beta, n_alpha))
    f_lm = np.einsum("lmb,bm->lm", y_theta, g)
    W = _steered_transform(d, f_lm, B, s_p, modes)
    rec_lm = _steered_inversion(W, d, B, nu, s_h, modes)
    f_rec = _grid_values(y_theta, rec_lm)
    err = f_rec - f_vals
    rel_l2 = math.sqrt(grid_inner(grid, err, err) / grid_inner(grid, f_vals, f_vals))

    energy = signal.coeffs**2 @ sector_weights(2, signal.order_bound)
    predicted = math.sqrt(float(np.sum((multipliers - 1.0) ** 2 * energy) / np.sum(energy)))
    return {
        "band": band,
        "order": dfrak,
        "rho_min": rho_min,
        "rho_max": rho_max,
        "rho_steps": rho_steps,
        "rotation_nodes": n_alpha * n_beta * modes.shape[1],
        "sphere_nodes": grid.size,
        "rel_l2_error": rel_l2,
        "predicted_rel_l2": predicted,
        "multipliers": multipliers.copy(),
        "f_values": f_vals,
        "f_reconstructed": f_rec,
        "grid": grid,
    }


def per_degree_reconstruction_check(lp: LambdaParam, gamma: GammaVector, l: int, *, energy: np.ndarray | None = None) -> float:
    """Fourier-side reconstruction multiplier of the pair of ``gamma`` for one degree; 1 for an admissible pair.

    The general-n stand-in for full inversion: m_l = sum_r w_r s^P_l s^H_l
    E_l / ((n-1)^order Gamma(order)) on the fine trapezoid in log rho over a
    window of its own degree, the function that :func:`verify_pair_condition1`
    reads on the band's window and the round trip on :func:`log_rho_grid`.
    ``energy`` is an :func:`energy_table` up to l or beyond, such as a verify
    report's; without it, one up to l is built.  Degree 0 returns 0.
    """
    return 0.0 if l == 0 else float(_scale_multipliers(lp, gamma, _fine_scale_rule(lp.lam, gamma.order, [l]), [l], energy)[0])
