"""Sphere/SO(3) quadrature grids, wavelet transform, inversion."""

import math

import numpy as np
import pytest

from sphwave.admissibility import (
    GammaSolveError,
    _scale_multipliers,
    admissibility_constant,
    energy_table,
    pair_coefficient_sum,
    solve_gamma,
    verify_pair_condition1,
    zonal_product_series,
)
from sphwave.rotderiv import CoefficientField, sector_pair_sum, sector_weights, synthesize, synthesize_frame
from sphwave.special import LambdaParam, dim_harmonic, reproducing_kernel, surface_measure
from sphwave.transform import (
    build_rotation_grid,
    build_sphere_grid,
    grid_inner,
    inverse_transform,
    log_rho_grid,
    per_degree_reconstruction_check,
    random_bandlimited_field,
    rotated_sector_frame,
    rotation_matrices,
    round_trip,
    wavelet_transform,
    wigner_d_table,
)
from sphwave.wavelets import KIND_POISSON, WaveletSpec, directional_wavelet_field

import reference
from reference import sector_harmonic, steered_rotation_grid, synthesize_on_grid, wigner_d_sum


@pytest.mark.parametrize(("n", "band"), [(2, 16), (2, 64), (3, 20), (4, 12)])
def test_sphere_grid_equals_the_meshgrid_product(n, band):
    grid = build_sphere_grid(n, band)
    angles, weights, shape = reference.sphere_grid_by_meshgrid(n, band)
    assert grid.shape == shape
    assert grid.angles.tobytes() == angles.tobytes() and grid.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_grid_weight_sum(n):
    grid = build_sphere_grid(n, 10)
    assert np.sum(grid.weights) == pytest.approx(
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
            vals = sector_harmonic(lp, l, k1, th1, th2)
            assert abs(grid.weights @ vals) < 1e-10 * surface_measure(n)


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
        return sector_harmonic(lp, l, k1, th1, th2)

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
    assert W[0] == pytest.approx(sector_pair_sum(psi, psi).sum(), rel=1e-12)


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
        f_vals = sector_harmonic(lp, l0, k0, th1, th2)
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


def test_reconstruction_multipliers_match_the_kernel_seed_sweep():
    # the unit-seed multiplier, one column summed in order, against the full
    # table, its 2-D column sums and the kernel-seed energy with C and N(n, l)
    # in mpmath; E_l read from a shared table up to degree 30 or from a table
    # of the call's own keeps every bit
    for n in [*range(2, 13), 150, 235, 240, 260]:
        lp = LambdaParam(n)
        for order in range(1, 7):
            try:
                gamma = solve_gamma(lp.lam, order)
            except GammaSolveError:
                continue
            energy = energy_table(lp, gamma, 30)
            for l in range(1, 31):
                got = per_degree_reconstruction_check(lp, gamma, l)
                assert per_degree_reconstruction_check(lp, gamma, l, energy=energy) == got, (n, order, l)
                assert got == pytest.approx(reference.per_degree_reconstruction_check(lp, gamma, l), rel=1e-13, abs=0.0)


def test_reconstruction_rows_match_the_pair_condition_ratios():
    # both read one function on the same fine trapezoid step, on the window of
    # their own degree or of the whole band: within 4 ulp of 1 at every degree
    # (3.5 at worst over these sweeps)
    cases = [(n, order, 20) for n in range(2, 7) for order in range(1, 7)] + [(30, 2, 40), (100, 1, 60), (260, 1, 100)]
    for n, order, band in cases:
        lp = LambdaParam(n)
        try:
            gamma = solve_gamma(lp.lam, order)
        except GammaSolveError:
            continue
        energy = energy_table(lp, gamma, band)
        for row in verify_pair_condition1(lp, gamma, band, energy=energy):
            got = per_degree_reconstruction_check(lp, gamma, row["l"], energy=energy)
            assert abs(got - row["ratio"]) <= 4 * np.finfo(float).eps, (n, order, row["l"])


@pytest.mark.parametrize(("band", "order"), [(1, 2), (2, 4), (4, 1), (8, 2), (12, 4), (32, 1)])
def test_round_trip_multipliers_are_the_scale_multipliers_on_its_rule(band, order):
    # the plan's E_l from its own wavelet table has energy_table's bits, so
    # the multipliers are the one scale function on log_rho_grid, bit for bit
    lp = LambdaParam(2)
    rep = round_trip(lp, random_bandlimited_field(lp, band, seed=3), order, rho_steps=40)
    want = _scale_multipliers(lp, solve_gamma(lp.lam, order), log_rho_grid(steps=40), range(band + 1))
    assert np.array_equal(rep["multipliers"], want)


def test_per_degree_multiplier_examples():
    assert per_degree_reconstruction_check(LambdaParam(4), solve_gamma(1.5, 1), 3) == pytest.approx(1.0, abs=1e-8)
    assert per_degree_reconstruction_check(LambdaParam(3), solve_gamma(1.0, 1), 0) == 0.0
    lp = LambdaParam(2)
    gam = solve_gamma(lp.lam, 2)
    for l in range(1, 21):
        assert per_degree_reconstruction_check(lp, gam, l) == pytest.approx(1.0, abs=1e-8)


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


@pytest.mark.parametrize(("band", "order"), [(6, 1), (6, 2), (32, 1)], ids=["1", "2", "band32-1"])
def test_round_trip_matches_prediction(band, order):
    lp = LambdaParam(2)
    rep = round_trip(lp, random_bandlimited_field(lp, band, seed=5), order, rho_steps=40)
    assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)
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
        assert rep["rel_l2_error"] == pytest.approx(base["rel_l2_error"], rel=1e-8, abs=0.0)
        assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)


STEERED_CASES = [
    # (band, order, rotated); the order may exceed the band
    pytest.param(4, 1, True, id="1"),
    pytest.param(4, 2, True, id="2"),
    pytest.param(5, 1, True, id="band5-1"),
    pytest.param(5, 2, True, id="band5-2"),
    pytest.param(4, 1, False, id="unrotated-1"),
    pytest.param(4, 2, False, id="unrotated-2"),
    pytest.param(4, 4, True, id="4"),
    pytest.param(4, 4, False, id="unrotated-4"),
    pytest.param(1, 2, True, id="band1-2"),
    pytest.param(1, 2, False, id="unrotated-band1-2"),
    pytest.param(2, 4, True, id="band2-4"),
    pytest.param(2, 4, False, id="unrotated-band2-4"),
]


@pytest.mark.parametrize(("band", "order", "rotated"), STEERED_CASES)
def test_steered_round_trip_equals_full_grid_synthesis(band, order, rotated):
    # the Wigner-d round trip on the steered grid against per-scale analysis
    # and inversion through the public functions, which evaluate the basis on
    # every node of the full rotation grid
    from sphwave.wavelets import KIND_HEAT, modified_wavelet_field

    lp = LambdaParam(2)
    steps = 12
    signal = random_bandlimited_field(lp, band, seed=4)
    Q = random_rotation(np.random.default_rng(10 + order)) if rotated else np.eye(3)
    rep = round_trip(lp, signal, order, rho_steps=steps, rotation=Q if rotated else None)
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
    assert rep["rotation_nodes"] == steered_rotation_grid(band, order).size


@pytest.mark.parametrize("order", [1, 2, 4])
def test_round_trip_transform_values_equal_the_reference(monkeypatch, order):
    # the W that round_trip hands to its inversion is the wavelet transform on
    # every node of the steered grid, in (beta, alpha, gamma) order
    import sphwave.transform as transform
    from sphwave.wavelets import modified_wavelet_field

    seen = []
    original = transform._steered_inversion

    def capture(W, *args):
        seen.append(W)
        return original(W, *args)

    monkeypatch.setattr(transform, "_steered_inversion", capture)
    lp = LambdaParam(2)
    band, steps = 4, 5
    signal = random_bandlimited_field(lp, band, seed=9)
    round_trip(lp, signal, order, rho_steps=steps)
    rot = steered_rotation_grid(band, order)
    grid = build_sphere_grid(2, 2 * band)
    frame = rotated_sector_frame(rotation_matrices(rot), grid)
    gam = solve_gamma(lp.lam, order)
    f_vals = synthesize_on_grid(signal, grid)
    W = np.array([wavelet_transform(modified_wavelet_field(lp, gam, KIND_POISSON, r, L=band), f_vals, grid, frame) for r in log_rho_grid(steps=steps)[0]])
    n_alpha, n_beta = 2 * band + 1, band + 1
    W = W.reshape(steps, n_alpha, n_beta, -1).transpose(0, 2, 1, 3).reshape(steps, -1)
    assert np.max(np.abs(seen[0] - W)) < 1e-12 * np.max(np.abs(W))


def test_steered_rotation_grid():
    rot = steered_rotation_grid(6, 2)
    assert rot.size == 13 * 7 * 5
    assert float(np.sum(rot.weights)) == pytest.approx(1.0, rel=1e-13)
    full = build_rotation_grid(3)
    steered = steered_rotation_grid(3, 5)
    assert steered.euler.tobytes() == full.euler.tobytes() and steered.weights.tobytes() == full.weights.tobytes()
    with pytest.raises(ValueError):
        steered_rotation_grid(3, -1)


@pytest.mark.parametrize("order", [1, 2])
def test_transform_equivariance_random_rotations(order):
    # W[f o Q^-1](R) = W[f](Q^-1 R) for generic Q, not only plane rotations
    from sphwave.wavelets import modified_wavelet_field

    lp = LambdaParam(2)
    band = 5
    grid = build_sphere_grid(2, 2 * band)
    mats = rotation_matrices(steered_rotation_grid(band, order))
    psi = modified_wavelet_field(lp, solve_gamma(lp.lam, order), KIND_POISSON, 0.6, L=band)
    signal = random_bandlimited_field(lp, band, seed=8)
    f_vals = synthesize_on_grid(signal, grid)
    rng = np.random.default_rng(20 + order)
    for _ in range(3):
        Q = random_rotation(rng)
        lhs = wavelet_transform(psi, rotated_values(signal, grid, Q), grid, rotated_sector_frame(mats, grid))
        rhs = wavelet_transform(psi, f_vals, grid, rotated_sector_frame(np.einsum("ji,mjk->mik", Q, mats), grid))
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-13 * np.max(np.abs(rhs)))


def test_round_trip_evaluates_no_rotated_basis(monkeypatch):
    # the round trip goes through coefficients and Wigner-d tables only, its
    # input samples included, with and without a rotation Q
    import sphwave.rotderiv as rotderiv
    import sphwave.transform as transform

    def forbidden(*args, **kwargs):
        raise AssertionError("round_trip evaluated a rotated basis")

    monkeypatch.setattr(transform, "rotation_matrices", forbidden)
    monkeypatch.setattr(transform, "rotated_sector_frame", forbidden)
    for module in (rotderiv, transform):
        for name in ("synthesize", "synthesize_frame"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 3, seed=1)
    for Q in (None, random_rotation(np.random.default_rng(5))):
        rep = round_trip(lp, signal, 1, rho_steps=10, rotation=Q)
        assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)


def half_turn(axis) -> np.ndarray:
    """Rotation by pi about a unit axis: 2 u u^T - I."""
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(u, u) - np.eye(3)


GIMBAL_LOCK = {
    # a turn about the pole axis x1 has beta = 0, a half-turn about an axis
    # orthogonal to x1 has beta = pi; alpha and gamma are not separately defined
    "turn-about-x1": np.array([[1.0, 0.0, 0.0], [0.0, math.cos(0.7), -math.sin(0.7)], [0.0, math.sin(0.7), math.cos(0.7)]]),
    "pole-flip": half_turn([0.0, math.cos(0.4), math.sin(0.4)]),
    "identity": np.eye(3),
}


@pytest.mark.parametrize("name", list(GIMBAL_LOCK))
def test_round_trip_rotations_at_gimbal_lock(name):
    Q = GIMBAL_LOCK[name]
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 6, seed=11)
    for order in (1, 2):
        rep = round_trip(lp, signal, order, rho_steps=20, rotation=Q)
        want = rotated_values(signal, rep["grid"], Q)
        assert np.max(np.abs(rep["f_values"] - want)) < 1e-13 * np.max(np.abs(want))
        assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("band", [1, 8, 16, 32])
def test_round_trip_samples_match_the_reference_synthesis(band):
    # f_values come from the coefficients through the d table, rotated by D^l(Q);
    # the reference evaluates the sector basis by Gegenbauer recurrences
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, band, seed=12)
    grid = build_sphere_grid(2, 2 * band)
    unrotated = synthesize_on_grid(signal, grid)
    rep = round_trip(lp, signal, 1, rho_steps=10)
    assert np.max(np.abs(rep["f_values"] - unrotated)) < 1e-13 * np.max(np.abs(unrotated))
    rng = np.random.default_rng(band)
    for _ in range(2):
        Q = random_rotation(rng)
        want = rotated_values(signal, grid, Q)
        rep = round_trip(lp, signal, 1, rho_steps=10, rotation=Q)
        assert np.max(np.abs(rep["f_values"] - want)) < 1e-13 * np.max(np.abs(want))


def test_round_trip_requires_theta_rule_on_beta_nodes(monkeypatch):
    import sphwave.transform as transform

    monkeypatch.setattr(transform, "build_sphere_grid", lambda n, band: build_sphere_grid(n, band + 2))
    transform._round_trip_plan.cache_clear()  # a kept plan would skip the patched builder
    lp = LambdaParam(2)
    with pytest.raises(ValueError, match="beta"):
        round_trip(lp, random_bandlimited_field(lp, 3, seed=1), 1)


def _round_trip_bytes(rep) -> tuple:
    keys = ("rel_l2_error", "predicted_rel_l2", "multipliers", "f_values", "f_reconstructed")
    return tuple(np.asarray(rep[key]).tobytes() for key in keys) + (rep["grid"].angles.tobytes(), rep["grid"].weights.tobytes())


@pytest.mark.parametrize("rotated", [False, True])
def test_round_trip_plan_reuse_keeps_the_bits(rotated):
    # a warm call (the plan reused) returns a cold call's bits, also after a
    # call at another configuration evicted the plan; one plan is kept
    import sphwave.transform as transform

    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 6, seed=3)
    Q = random_rotation(np.random.default_rng(4)) if rotated else None
    transform._round_trip_plan.cache_clear()
    cold = _round_trip_bytes(round_trip(lp, signal, 2, rho_steps=30, rotation=Q))
    assert _round_trip_bytes(round_trip(lp, signal, 2, rho_steps=30, rotation=Q)) == cold
    assert transform._round_trip_plan.cache_info().hits == 1
    other = random_bandlimited_field(lp, 4, seed=5)
    evicting = _round_trip_bytes(round_trip(lp, other, 1, rho_steps=30, rotation=Q))
    assert transform._round_trip_plan.cache_info().currsize == 1
    assert _round_trip_bytes(round_trip(lp, signal, 2, rho_steps=30, rotation=Q)) == cold
    assert transform._round_trip_plan.cache_info().currsize == 1
    transform._round_trip_plan.cache_clear()
    assert _round_trip_bytes(round_trip(lp, other, 1, rho_steps=30, rotation=Q)) == evicting


def test_round_trip_plan_is_read_only():
    # the plan's arrays, the returned grid's included, refuse writes, and what a
    # caller changes in its report leaves the next call as it was
    import sphwave.transform as transform

    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 5, seed=2)
    rep = round_trip(lp, signal, 1, rho_steps=20)
    want = _round_trip_bytes(rep)
    plan = transform._round_trip_plan(5, 1, transform.DEFAULT_RHO_MIN, transform.DEFAULT_RHO_MAX, 20)
    assert plan[0] is rep["grid"]
    for a in (rep["grid"].angles, rep["grid"].weights) + plan[1:]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    for key in ("multipliers", "f_values", "f_reconstructed"):
        rep[key][:] = 7.0
    assert _round_trip_bytes(round_trip(lp, signal, 1, rho_steps=20)) == want


def test_round_trip_plan_is_not_kept_for_an_infeasible_order():
    # order 3 has no real gamma on S^2: it raises on every call, and a feasible
    # call after it still builds and keeps its plan
    import sphwave.transform as transform

    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 4, seed=1)
    transform._round_trip_plan.cache_clear()
    want = _round_trip_bytes(round_trip(lp, signal, 1, rho_steps=10))
    for _ in range(2):
        with pytest.raises(GammaSolveError):
            round_trip(lp, signal, 3, rho_steps=10)
        assert transform._round_trip_plan.cache_info().currsize <= 1
        assert _round_trip_bytes(round_trip(lp, signal, 1, rho_steps=10)) == want
    with pytest.raises(TypeError):  # a float step count reuses no plan built for an int one
        round_trip(lp, signal, 1, rho_steps=10.0)


def test_round_trip_order_two_band_32_matches_prediction():
    # the default scale grid, where the observed error is about 2.9e-7 and
    # grid rounding near 1e-15 |f| is a visible share of it
    lp = LambdaParam(2)
    rep = round_trip(lp, random_bandlimited_field(lp, 32, seed=0), 2)
    assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("band", [3, 8, 16, 32])
def test_round_trip_reconstructs_the_multiplied_signal(band):
    # f_rec is the exact synthesis of m_l f_l, degree by degree, at orders 1, 2
    # and 4 (k = 0 and k >= 1 take different twist paths); for f o Q^-1 with a
    # generic Q it is the synthesis of m_l (D(Q) F)_l through the d table.  The
    # inversion cancels the scale sums' cross-degree terms through the rotation
    # quadrature, and their rounding grows with band and order: band 32, order
    # 4 reads 2.0e-14 (2.6e-14 with Q), so that case gets 4e-14
    from sphwave.transform import _complex_coefficients, _grid_values, _rotate_coefficients

    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, band, seed=6)
    Q = random_rotation(np.random.default_rng(band))
    for order in (1, 2, 4):
        tol = 4e-14 if (band, order) == (32, 4) else 1e-14
        rep = round_trip(lp, signal, order)
        multiplied = rep["multipliers"][:, None] * signal.coeffs
        expect = synthesize_on_grid(CoefficientField(lp, multiplied), rep["grid"])
        assert np.max(np.abs(rep["f_reconstructed"] - expect)) < tol * np.max(np.abs(rep["f_values"])), order
        rep = round_trip(lp, signal, order, rotation=Q)
        d = wigner_d_table(band, 0, rep["grid"].angles[:: 2 * band + 1, 0])
        y_theta = np.sqrt(2.0 * np.arange(band + 1) + 1.0)[:, None, None] * d[:, :, 0, :]
        expect = _grid_values(y_theta, _rotate_coefficients(_complex_coefficients(multiplied), Q))
        assert np.max(np.abs(rep["f_reconstructed"] - expect)) < tol * np.max(np.abs(rep["f_values"])), (order, "Q")


def test_wigner_d_matches_the_explicit_sum():
    L, K = 12, 4
    betas = np.array([1e-3, 0.02, np.pi / 2 - 0.01, np.pi / 2, np.pi - 1e-3])
    d = wigner_d_table(L, K, betas)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            for k in range(min(K, l) + 1):
                expect = [wigner_d_sum(l, m, k, b) for b in betas]
                assert np.max(np.abs(d[l, m, k] - expect)) < 1e-13, (l, m, k)
        # rows above the degree stay zero
        if l < L:
            assert not np.any(d[l, l + 1 : 2 * L + 1 - l]) and not np.any(d[l, :, l + 1 :])


def test_wigner_d_column_starts_keep_the_loop_bits():
    # the starts, cumulative products over (j, k) at once, carry the bits of the
    # scalar loops, signed zeros at beta = 0 and pi included
    betas = np.array([0.0, 1e-9, 0.3, np.pi / 2, np.pi - 1e-9, np.pi])
    for L, K in [(0, 0), (1, 3), (8, 1), (8, 8), (12, 4), (64, 2), (64, 64)]:
        d = wigner_d_table(L, K, betas)
        for (l, m, k), want in reference.wigner_d_column_starts(L, K, betas).items():
            assert d[l, m, k].tobytes() == want.tobytes(), (L, K, l, m, k)


def test_wigner_d_columns_are_orthonormal():
    L, K = 64, 3
    betas = np.arccos(np.linspace(-0.999, 0.999, 9))
    d = wigner_d_table(L, K, betas)
    for l in range(L + 1):
        gram = np.einsum("mkb,mjb->kjb", d[l], d[l])
        live = (np.arange(K + 1) <= l).astype(float)
        expect = (np.eye(K + 1) * live)[:, :, None]
        assert np.max(np.abs(gram - expect)) < 1e-12, l


def test_wigner_d_rotates_the_complex_harmonics():
    # Z_l^m(R^-1 x) = sum_m' D^l_{m'm}(R) Z_l^m'(x) with D = e^{-i m' alpha} d^l_{m'm}(beta) e^{-i m gamma},
    # R = R_pole(alpha) R_plane(beta) R_pole(gamma) and Z from the package's real sector harmonics:
    # Z_l^k = (-1)^k (Y_l^k / w_k) e^{i k phi} at phi = 0, Z_l^-k = (-1)^k conj(Z_l^k)
    from sphwave.transform import RotationGrid

    lp = LambdaParam(2)
    L = 7
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 6))
    x /= np.linalg.norm(x, axis=0)

    def Z(l, m, pts):
        th, ph = np.arccos(np.clip(pts[0], -1, 1)), np.arctan2(pts[2], pts[1])
        k = abs(m)
        z = (-1) ** k * sector_harmonic(lp, l, k, th, 0.0) / (2.0 if k else 1.0) * np.exp(1j * k * ph)
        return z if m >= 0 else (-1) ** k * z.conj()

    for _ in range(3):
        a, b, g = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        R = rotation_matrices(RotationGrid(band=0, euler=np.array([[a, b, g]]), weights=np.ones(1)))[0]
        d = wigner_d_table(L, L, np.array([b]))[..., 0]
        for l in range(1, L + 1):
            for m in range(l + 1):
                lhs = Z(l, m, R.T @ x)
                rhs = sum(np.exp(-1j * (mp * a + m * g)) * d[l, mp, m] * Z(l, mp, x) for mp in range(-l, l + 1))
                assert np.max(np.abs(lhs - rhs)) < 1e-12, (l, m)
