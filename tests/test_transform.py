"""Sphere/SO(3) quadrature grids, wavelet transform, inversion."""

import math

import numpy as np
import pytest

from sphwave.admissibility import (
    admissibility_constant,
    pair_coefficient_sum,
    solve_gamma,
    zonal_product_series,
)
from sphwave.harmonics import eval_sector_harmonic, from_cartesian
from sphwave.rotderiv import CoefficientField, sector_weights, synthesize, synthesize_frame
from sphwave.special import LambdaParam, dim_harmonic, reproducing_kernel, surface_measure
from sphwave.transform import (
    build_rotation_grid,
    build_sphere_grid,
    grid_inner,
    grid_integral,
    inverse_transform,
    log_rho_grid,
    per_degree_reconstruction_check,
    random_bandlimited_field,
    rotated_sector_frame,
    rotation_matrices,
    round_trip,
    synthesize_on_grid,
    wavelet_transform,
)
from sphwave.wavelets import KIND_POISSON, WaveletSpec, directional_wavelet_field


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_grid_weight_sum(n):
    grid = build_sphere_grid(n, 10)
    assert grid_integral(grid, np.ones(grid.size)) == pytest.approx(
        surface_measure(n), rel=1e-12
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_grid_annihilates_harmonics(n):
    lp = LambdaParam(n)
    band = 14
    grid = build_sphere_grid(n, band)
    th1, th2 = grid.angles[:, 0], grid.angles[:, 1]
    for l in range(1, band + 1):
        for k1 in (0, min(1, l), min(3, l)):
            vals = eval_sector_harmonic(lp, l, k1, th1, th2)
            assert abs(grid_integral(grid, vals)) < 1e-10 * surface_measure(n)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_self_inner_product(n):
    # <K_l, K_l> = K_l(1): the reproducing property at the pole
    lp = LambdaParam(n)
    grid = build_sphere_grid(n, 24)
    th1 = grid.angles[:, 0]
    for l in (1, 3, 7, 12):
        vals = reproducing_kernel(lp, l, np.cos(th1))
        assert grid_inner(grid, vals, vals) == pytest.approx(
            reproducing_kernel(lp, l, 1.0), rel=1e-11
        )


def test_rotation_grid_weights():
    rot = build_rotation_grid(6)
    assert rot.size == 13 * 7 * 13
    assert float(np.sum(rot.weights)) == pytest.approx(1.0, rel=1e-13)


def test_rotation_matrices_are_rotations():
    rot = build_rotation_grid(3)
    mats = rotation_matrices(rot)
    eye = np.eye(3)
    for m in mats[:: rot.size // 7]:
        assert np.allclose(m @ m.T, eye, atol=1e-13)
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-12)


def test_rotated_harmonic_orthogonality():
    # invariant-measure average of products of rotated harmonics reproduces
    # the zonal-product formula: delta_{ll'} * w_k delta_{kk'} * K_l(x.y)/N(l)
    lp = LambdaParam(2)
    band = 5
    rot = build_rotation_grid(band)
    mats = rotation_matrices(rot)
    x = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    y = np.array([-0.1, 0.8, np.sqrt(1 - 0.01 - 0.64)])
    cosxy = float(x @ y)

    def rotated_vals(l, k1, v):
        pts = np.einsum("mji,j->mi", mats, v)  # R^-1 v
        th1 = np.arccos(np.clip(pts[:, 0], -1, 1))
        th2 = np.arctan2(pts[:, 2], pts[:, 1])
        return eval_sector_harmonic(lp, l, k1, th1, th2)

    for (l, k1), (lp2, k2) in [((3, 1), (3, 1)), ((3, 1), (3, 2)), ((3, 0), (3, 0)), ((2, 1), (4, 1)), ((5, 5), (5, 5))]:
        lhs = float(np.sum(rot.weights * rotated_vals(l, k1, x) * rotated_vals(lp2, k2, y)))
        if (l, k1) == (lp2, k2):
            w = 2.0 if k1 >= 1 else 1.0
            expect = w * reproducing_kernel(lp, l, cosxy) / dim_harmonic(2, l)
        else:
            expect = 0.0
        assert lhs == pytest.approx(expect, abs=1e-10, rel=1e-10)


def test_log_rho_grid_realizes_scale_measure():
    rhos, w = log_rho_grid(0.1, 10.0, 400)
    val = float(np.sum(w * rhos * np.exp(-rhos)))  # integral rho e^-rho drho/rho
    expect = math.exp(-0.1) - math.exp(-10.0)
    # trapezoid boundary term at the non-negligible left endpoint is O(h^2)
    assert val == pytest.approx(expect, rel=1e-5)


def test_transform_of_zero_signal():
    lp = LambdaParam(2)
    grid = build_sphere_grid(2, 8)
    rot = build_rotation_grid(4)
    angles = rotated_sector_frame(rotation_matrices(rot), grid)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.5)
    psi = directional_wavelet_field(spec, L=4)
    W = wavelet_transform(psi, np.zeros(grid.size), grid, angles)
    assert not np.any(W)


def test_transform_at_identity_is_squared_norm():
    lp = LambdaParam(2)
    band = 6
    grid = build_sphere_grid(2, 2 * band)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.7)
    psi = directional_wavelet_field(spec, L=band)
    angles = rotated_sector_frame(np.eye(3)[None, :, :], grid)
    W = wavelet_transform(psi, synthesize_on_grid(psi, grid), grid, angles)
    assert W.shape == (1,)
    assert W[0] == pytest.approx(psi.l2_norm_sq(), rel=1e-12)


def test_transform_fourier_side_contraction():
    # sum_j nu_j W(R_j)^2 = (zonal product of psi with itself)[l0] * w_{k0}
    # for a single-harmonic signal: a Schur-orthogonality consequence that
    # pins W against pure coefficient-space data.
    lp = LambdaParam(2)
    band = 6
    grid = build_sphere_grid(2, 2 * band)
    rot = build_rotation_grid(band)
    angles = rotated_sector_frame(rotation_matrices(rot), grid)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.6)
    psi = directional_wavelet_field(spec, L=band)
    z = zonal_product_series(lp, psi, psi)
    th1, th2 = grid.sector_angles()
    for (l0, k0) in [(2, 1), (4, 0), (5, 3)]:
        f_vals = eval_sector_harmonic(lp, l0, k0, th1, th2)
        W = wavelet_transform(psi, f_vals, grid, angles)
        lhs = float(np.sum(rot.weights * W**2))
        w_k = 2.0 if k0 >= 1 else 1.0
        assert lhs == pytest.approx(z[l0] * w_k, rel=1e-10, abs=1e-16)


def test_transform_covariance():
    # W_psi f(rho, R0 R) equals the transform of the back-rotated signal at R
    lp = LambdaParam(2)
    band = 5
    grid = build_sphere_grid(2, 2 * band)
    rot = build_rotation_grid(band)
    mats = rotation_matrices(rot)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.8)
    psi = directional_wavelet_field(spec, L=band)
    signal = random_bandlimited_field(lp, band, seed=3)
    f_vals = synthesize_on_grid(signal, grid)

    theta0 = 0.9
    c, s = math.cos(theta0), math.sin(theta0)
    R0 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    lhs = wavelet_transform(psi, f_vals, grid, rotated_sector_frame(np.einsum("ij,mjk->mik", R0, mats), grid))

    xs = np.stack(
        [np.cos(grid.angles[:, 0]), np.sin(grid.angles[:, 0]) * np.cos(grid.angles[:, 1]), np.sin(grid.angles[:, 0]) * np.sin(grid.angles[:, 1])],
        axis=0,
    )
    rx = R0 @ xs
    f_rot = synthesize_frame(signal, np.clip(rx[0], -1, 1), np.hypot(rx[1], rx[2]), np.arctan2(rx[2], rx[1]))
    rhs = wavelet_transform(psi, f_rot, grid, rotated_sector_frame(mats, grid))
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13)


def test_per_degree_multiplier_examples():
    assert per_degree_reconstruction_check(LambdaParam(4), 1, 3) == pytest.approx(1.0, abs=1e-8)
    assert per_degree_reconstruction_check(LambdaParam(3), 1, 0) == 0.0
    lp = LambdaParam(2)
    gam = solve_gamma(lp.lam, 2)
    for l in range(1, 21):
        assert per_degree_reconstruction_check(lp, 2, l, gam) == pytest.approx(1.0, abs=1e-8)


def test_discretized_multiplier_density_convergence():
    # with the scale range held fixed, doubling the node density collapses the
    # discretization error by far more than the second-order expectation,
    # then parks at the range-truncation floor
    lp = LambdaParam(2)
    gam = solve_gamma(lp.lam, 1)
    C = admissibility_constant(lp, 1)

    def mult(l, steps):
        rhos, w = log_rho_grid(1e-6, 8.0, steps)
        s = sum(wj * pair_coefficient_sum(lp, gam, r, l) for r, wj in zip(rhos, w))
        return C * s / dim_harmonic(2, l)

    errs = {steps: abs(1.0 - mult(4, steps)) for steps in (12, 24, 48)}
    assert errs[24] < errs[12] / 4.0
    assert errs[48] < errs[12] / 4.0
    assert errs[48] <= errs[24] * 1.05


def test_round_trip_band_limited():
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 4, seed=7)
    rep = round_trip(lp, signal, 1, rho_steps=40)
    assert rep["rel_l2_error"] < 1e-3
    refined = round_trip(lp, signal, 1, rho_min=2.5e-7, rho_steps=60)
    assert refined["rel_l2_error"] < rep["rel_l2_error"]


def test_round_trip_rejects_signal_with_mean():
    lp = LambdaParam(2)
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[2, 1] = 1.0
    with pytest.raises(ValueError):
        round_trip(lp, CoefficientField(lp, a), 1)


def test_round_trip_rejects_zero_signal():
    lp = LambdaParam(2)
    for sig in (CoefficientField(lp, np.zeros((4, 2))), random_bandlimited_field(lp, 0, seed=0)):
        with pytest.raises(ValueError, match="zero"):
            round_trip(lp, sig, 1)


def test_log_rho_grid_rejects_bad_scales():
    bad = ((0.1, math.inf, 10), (math.nan, 1.0, 10), (0.0, 1.0, 10), (1.0, 0.1, 10), (0.1, 1.0, 1))
    for rho_min, rho_max, steps in bad:
        with pytest.raises(ValueError):
            log_rho_grid(rho_min, rho_max, steps)


def test_round_trip_rejects_non_rotation():
    lp = LambdaParam(2)
    sig = random_bandlimited_field(lp, 2, seed=1)
    for bad in (np.eye(2), 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0])):
        with pytest.raises(ValueError, match="rotation"):
            round_trip(lp, sig, 1, rotation=bad)


def test_round_trip_requires_two_sphere():
    lp = LambdaParam(3)
    sig = random_bandlimited_field(lp, 3, seed=1)
    with pytest.raises(ValueError):
        round_trip(lp, sig, 1)


def test_sector_weights_shape():
    assert list(sector_weights(2, 3)) == [1.0, 2.0, 2.0, 2.0]
    assert list(sector_weights(4, 2)) == [1.0, 1.0, 1.0]


def test_inverse_transform_annihilates_mean():
    # reconstruction of a constant signal is ~0: the pair kills degree 0
    lp = LambdaParam(2)
    band = 3
    grid = build_sphere_grid(2, 2 * band)
    rot = build_rotation_grid(band)
    angles = rotated_sector_frame(rotation_matrices(rot), grid)
    gam = solve_gamma(lp.lam, 1)
    from sphwave.wavelets import KIND_HEAT, modified_wavelet_field

    rhos, rho_w = log_rho_grid(1e-4, 6.0, 30)
    C = admissibility_constant(lp, 1)
    f_vals = np.ones(grid.size)
    W = np.empty((30, rot.size))
    omegas = []
    for r, rho in enumerate(rhos):
        psi = modified_wavelet_field(lp, gam, KIND_POISSON, rho, L=band)
        W[r] = wavelet_transform(psi, f_vals, grid, angles)
        omegas.append(modified_wavelet_field(lp, gam, KIND_HEAT, rho, L=band).scaled(C))
    rec = inverse_transform(W, omegas, rho_w, rot, grid, angles)
    assert np.max(np.abs(rec)) < 1e-10


def test_transform_warns_on_undersized_grid():
    lp = LambdaParam(2)
    grid = build_sphere_grid(2, 6)
    spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=1, rho=0.5)
    psi = directional_wavelet_field(spec, L=5)
    frame = rotated_sector_frame(np.eye(3)[None, :, :], grid)
    with pytest.warns(UserWarning, match="grid band"):
        wavelet_transform(psi, np.ones(grid.size), grid, frame)


def random_rotation(rng) -> np.ndarray:
    """Haar-random 3x3 rotation from the QR factorization of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated_values(signal, grid, Q) -> np.ndarray:
    """f(Q^-1 x) at the grid nodes."""
    return synthesize_frame(signal, *rotated_sector_frame(Q[None], grid))[0]


@pytest.mark.parametrize(("band", "order", "pinned"), [(8, 1, 4.948113354610243e-05), (6, 2, 8.243728308624015e-07)])
def test_round_trip_pinned_values(band, order, pinned):
    # reference values from per-scale synthesis on the full rotation grid
    lp = LambdaParam(2)
    rep = round_trip(lp, random_bandlimited_field(lp, band, seed=0), order)
    assert rep["rel_l2_error"] == pytest.approx(pinned, rel=1e-9)


@pytest.mark.parametrize("order", [1, 2])
def test_round_trip_matches_prediction(order):
    lp = LambdaParam(2)
    band = 6
    rep = round_trip(lp, random_bandlimited_field(lp, band, seed=5), order, rho_steps=40)
    assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8)
    # the multipliers are the discrete pair-condition sums of the admissibility module
    gam = solve_gamma(lp.lam, order)
    rhos, w = log_rho_grid(steps=40)
    C = admissibility_constant(lp, order)
    for l in range(1, band + 1):
        s = sum(wj * pair_coefficient_sum(lp, gam, r, l) for r, wj in zip(rhos, w))
        assert rep["multipliers"][l] == pytest.approx(C * s / dim_harmonic(2, l), rel=1e-12)
        # and the exact multipliers C u^order / sigma^2 sum_r w_r rho_r^order exp(-rho_r u / 2 lam)
        u = l * (2 * lp.lam + l)
        exact = C * u**order / lp.sigma**2 * np.sum(w * rhos**order * np.exp(-rhos * u / (2 * lp.lam)))
        assert rep["multipliers"][l] == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("order", [1, 2])
def test_round_trip_of_rotated_signals(order):
    # f o Q^-1 fills the sin(k phi) modes; the steered twist grid must still be
    # exact, so the error equals the unrotated one and the prediction
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 5, seed=2)
    base = round_trip(lp, signal, order, rho_steps=30)
    rng = np.random.default_rng(order)
    for _ in range(3):
        rep = round_trip(lp, signal, order, rho_steps=30, rotation=random_rotation(rng))
        assert rep["rel_l2_error"] == pytest.approx(base["rel_l2_error"], rel=1e-8)
        assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8)


@pytest.mark.parametrize("order", [1, 2])
def test_steered_round_trip_equals_full_grid_synthesis(order):
    # the factored round trip on the steered grid against per-scale analysis
    # and inversion through the public functions on the full rotation grid
    from sphwave.wavelets import KIND_HEAT, modified_wavelet_field

    lp = LambdaParam(2)
    band, steps = 4, 12
    signal = random_bandlimited_field(lp, band, seed=4)
    Q = random_rotation(np.random.default_rng(10 + order))
    rep = round_trip(lp, signal, order, rho_steps=steps, rotation=Q)
    grid = build_sphere_grid(2, 2 * band)
    rot = build_rotation_grid(band)
    frame = rotated_sector_frame(rotation_matrices(rot), grid)
    gam = solve_gamma(lp.lam, order)
    C = admissibility_constant(lp, order)
    rhos, rho_w = log_rho_grid(steps=steps)
    f_vals = rotated_values(signal, grid, Q)
    W = np.array([wavelet_transform(modified_wavelet_field(lp, gam, KIND_POISSON, r, L=band), f_vals, grid, frame) for r in rhos])
    omegas = [modified_wavelet_field(lp, gam, KIND_HEAT, r, L=band).scaled(C) for r in rhos]
    rec = inverse_transform(W, omegas, rho_w, rot, grid, frame)
    assert np.allclose(rep["f_values"], f_vals, rtol=0, atol=1e-13)
    assert np.max(np.abs(rep["f_reconstructed"] - rec)) < 1e-10 * np.max(np.abs(rec))


def test_steered_rotation_grid():
    rot = build_rotation_grid(6, 2)
    assert rot.size == 13 * 7 * 5
    assert float(np.sum(rot.weights)) == pytest.approx(1.0, rel=1e-13)
    assert build_rotation_grid(3, 5).size == build_rotation_grid(3).size
    with pytest.raises(ValueError):
        build_rotation_grid(3, -1)


@pytest.mark.parametrize("order", [1, 2])
def test_transform_equivariance_random_rotations(order):
    # W[f o Q^-1](R) = W[f](Q^-1 R) for generic Q, not only plane rotations
    from sphwave.wavelets import modified_wavelet_field

    lp = LambdaParam(2)
    band = 5
    grid = build_sphere_grid(2, 2 * band)
    mats = rotation_matrices(build_rotation_grid(band, order))
    psi = modified_wavelet_field(lp, solve_gamma(lp.lam, order), KIND_POISSON, 0.6, L=band)
    signal = random_bandlimited_field(lp, band, seed=8)
    f_vals = synthesize_on_grid(signal, grid)
    rng = np.random.default_rng(20 + order)
    for _ in range(3):
        Q = random_rotation(rng)
        lhs = wavelet_transform(psi, rotated_values(signal, grid, Q), grid, rotated_sector_frame(mats, grid))
        rhs = wavelet_transform(psi, f_vals, grid, rotated_sector_frame(np.einsum("ji,mjk->mik", Q, mats), grid))
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13 * np.max(np.abs(rhs)))


def test_round_trip_evaluates_the_basis_once(monkeypatch):
    import sphwave.transform as transform

    calls = []
    original = transform.sector_basis_frame

    def counting(*args):
        calls.append(args[:3])
        return original(*args)

    monkeypatch.setattr(transform, "sector_basis_frame", counting)
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 3, seed=1)
    counts = []
    for steps in (10, 40):
        calls.clear()
        round_trip(lp, signal, 1, rho_steps=steps)
        counts.append(len(calls))
    assert counts == [1, 1]
