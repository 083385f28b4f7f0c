"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Criterion 8 concerns the L1 norms of the scale tail: the paper requires them
to be bounded uniformly in R and states no factor for their spread.  Over the
tested sweep the spread is 3.5322; an exact oracle in the test suite certifies
the norms and their spread, and the companion test checks the plateau.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sphwave.admissibility import (
    GammaSolveError,
    solve_gamma,
    tail_l1_sweep,
    verify_pair_condition1,
)
from sphwave.euclid import EuclideanPoint, euclidean_limit_eval, limit_convergence_probe
from sphwave.harmonics import gauss_jacobi_rule
from sphwave.rotderiv import (
    CoefficientField,
    derivative_order,
    sector_pair_sum,
    synthesize,
)
from sphwave.special import LambdaParam, gegenbauer_batch, gegenbauer_weighted_sum, norm_const_a
from sphwave.transform import random_bandlimited_field, round_trip
from sphwave.wavelets import (
    KIND_POISSON,
    WaveletSpec,
    directional_wavelet_field,
    g1_closed,
    g2_closed,
    truncation_degree,
)

from reference import gegenbauer_coefficient
from test_admissibility import tail_l1_oracle
from test_special import norm_const_product_oracle


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_closed_form_oracles():
    """Series-synthesized order-1/2 wavelets match the closed forms on angle grids."""
    th1 = np.linspace(0.0, np.pi, 15)
    th2 = np.linspace(0.0, 2 * np.pi, 15, endpoint=False)
    t1, t2 = np.meshgrid(th1, th2, indexing="ij")
    worst = 0.0
    for n in (2, 3, 4, 5):
        lp = LambdaParam(n)
        for rho in (0.2, 0.5, 1.0):
            for order, closed_fn in ((1, g1_closed), (2, g2_closed)):
                spec = WaveletSpec(lp=lp, kind=KIND_POISSON, order=order, rho=rho)
                field = directional_wavelet_field(spec, truncation_degree(spec, 1e-11))
                series = synthesize(field, t1, t2)
                closed = closed_fn(spec, t1, t2)
                rel = float(np.max(np.abs(series - closed)) / np.max(np.abs(closed)))
                worst = max(worst, rel)
    ok = worst < 1e-8
    assert report(1, ok, f"closed-form oracles d=1,2; worst relative deviation {worst:.2e} < 1e-8")


def test_criterion_2_gamma_reproduction():
    """Mixing vectors reproduce the printed order-1/2/3 formulas; order-3 on S^2 has none.

    The order-3 display is compared with its radicand sign corrected, (lam-1)
    for (-lam+1); the printed form fails the defining identity for lam != 1
    while the corrected one matches the solver branch exactly.  At lam = 1/2
    the exact elimination certificate gamma_1^2 = -8/15 rules out any
    solution, so that sub-case is asserted as the documented failure mode.
    """
    worst = 0.0
    for lam in (0.5, 1.0, 1.5, 2.0):
        v1 = solve_gamma(lam, 1)
        worst = max(worst, abs(v1.gammas[1] - math.sqrt(2 * lam + 1)), abs(v1.gammas[0]))
        v2 = solve_gamma(lam, 2)
        e2 = (0.0, 2 * math.sqrt(lam * (2 * lam + 1) / 3), math.sqrt((2 * lam + 1) * (2 * lam + 3) / 3))
        worst = max(worst, *(abs(a - b) for a, b in zip(v2.gammas, e2)))
    for lam in (1.0, 1.5, 2.0):
        v3 = solve_gamma(lam, 3)
        g1 = 4 * math.sqrt((lam - 1) * lam * (2 * lam + 1) / 15)
        inner = 2 * math.sqrt((lam - 1) * lam * (3 + 2 * lam) * (5 + 2 * lam))
        g2 = 2 * math.sqrt((2 * lam + 1) * (inner + 5 * lam * (3 + 2 * lam)) / 15)
        g3 = math.sqrt((2 * lam + 1) * (3 + 2 * lam) * (5 + 2 * lam) / 15)
        worst = max(worst, *(abs(a - b) for a, b in zip(v3.gammas, (0.0, g1, g2, g3))))
    with pytest.raises(GammaSolveError, match="-8/15"):
        solve_gamma(0.5, 3)
    ok = worst < 1e-10
    assert report(
        2,
        ok,
        f"gamma vectors reproduce printed formulas (orders 1-3), worst |diff| {worst:.2e}; "
        "order 3 at lam=1/2 certified infeasible (gamma_1^2 = -8/15)",
    )


def test_criterion_3_pair_condition():
    """Scaled admissibility integrals equal the harmonic dimension."""
    worst_ratio = 0.0
    cells = 0
    for n in (2, 3, 4):
        lp = LambdaParam(n)
        for dfrak in (1, 2, 3):
            if n == 2 and dfrak == 3:
                continue  # no real gamma vector exists (criterion 2 certificate)
            gamma = solve_gamma(lp.lam, dfrak)
            rows = verify_pair_condition1(lp, gamma, 20)
            cells += 1
            for row in rows:
                worst_ratio = max(worst_ratio, abs(row["ratio"] - 1.0))
    ok = worst_ratio < 1e-6
    assert report(
        3,
        ok,
        f"pair condition over {cells} (n, order) cells, l = 1..20: worst ratio error "
        f"{worst_ratio:.2e} < 1e-6 (n=2, order 3: no gamma exists)",
    )


def test_criterion_4_collapse_identity():
    """Sector sums of the combined fields equal (l(2 lam + l))^order for l <= 30."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        lp = LambdaParam(n)
        for dfrak in (1, 2, 3):
            if n == 2 and dfrak == 3:
                continue
            gam = solve_gamma(lp.lam, dfrak)
            L = 30
            combo = np.zeros((L + 1, dfrak + 1))
            field = None
            for d in range(dfrak + 1):
                f = derivative_order(np.ones(L + 1), lp, d)
                combo[:, : d + 1] += gam.gammas[d] * f.coeffs
            field = CoefficientField(lp, combo)
            s = sector_pair_sum(field, field)
            for l in range(1, L + 1):
                u = l * (2 * lp.lam + l)
                worst = max(worst, abs(s[l] / u**dfrak - 1.0))
    ok = worst < 1e-9
    assert report(4, ok, f"collapse identity l <= 30, worst relative deviation {worst:.2e} < 1e-9")


def test_criterion_5_euclidean_limits():
    """Scaled wavelets converge to the flat-space profiles; order-2 matches the
    integer-lam closed displays; error ratios sit in [1.6, 2.4] as scales halve."""
    rhos = [0.08, 0.04, 0.02, 0.01]
    ratios_ok = True
    worst_display = 0.0
    for lam, n in ((1, 3), (2, 5), (3, 7)):
        lp = LambdaParam(n)
        for (r, ang) in [(0.7, 0.9), (1.5, 0.3)]:
            coords = [r * math.cos(ang), r * math.sin(ang)] + [0.0] * (n - 2)
            xi = EuclideanPoint(tuple(coords))
            rep = limit_convergence_probe(lp, 2, xi, rhos)
            for ratio in rep["ratios"]:
                ratios_ok = ratios_ok and 1.6 <= ratio <= 2.4
            coef = {1: 4.0, 2: 12.0, 3: 48.0}[lam]
            a, b, power = {1: (2, 3, 4), 2: (3, 4, 5), 3: (4, 5, 6)}[lam]
            display = (
                coef * (-1 + a * r * r + b * r * r * math.cos(2 * ang))
                / (np.pi ** (lam + 1) * (1 + r * r) ** power)
            )
            worst_display = max(worst_display, abs(rep["target"] / display - 1.0))
    ok = ratios_ok and worst_display < 1e-12
    assert report(
        5,
        ok,
        f"flat-space limits: order-2 displays match to {worst_display:.2e}, "
        f"halving-scale error ratios within [1.6, 2.4]: {ratios_ok}",
    )


def test_criterion_6_derivative_vs_finite_differences():
    """Ladder derivatives agree with central differences (1e-6 first, 1e-4 second)."""
    worst1 = worst2 = 0.0
    for n in (2, 3):
        lp = LambdaParam(n)
        rng = np.random.default_rng(2024 + n)
        L = 20
        ghat = rng.standard_normal(L + 1) * np.exp(-0.25 * np.arange(L + 1))
        zonal = np.array([g / norm_const_a(lp, l, 0) for l, g in enumerate(ghat)])
        d1 = derivative_order(zonal, lp, 1)
        d2 = derivative_order(zonal, lp, 2)

        def f_rot(theta1, theta2, angle):
            t = math.cos(angle) * math.cos(theta1) - math.sin(angle) * math.sin(theta1) * math.cos(theta2)
            return float(gegenbauer_weighted_sum(lp.lam, ghat, t))

        for (theta1, theta2) in [(0.7, 0.4), (1.9, 2.8), (2.6, 5.3)]:
            h = 1e-5
            fd1 = (f_rot(theta1, theta2, h) - f_rot(theta1, theta2, -h)) / (2 * h)
            got1 = float(synthesize(d1, theta1, theta2))
            worst1 = max(worst1, abs(got1 - fd1) / max(abs(fd1), 1e-12))

            def second(hh):
                return (
                    f_rot(theta1, theta2, hh)
                    - 2 * f_rot(theta1, theta2, 0.0)
                    + f_rot(theta1, theta2, -hh)
                ) / hh**2

            h2 = 1e-3
            rich = (4 * second(h2 / 2) - second(h2)) / 3
            got2 = float(synthesize(d2, theta1, theta2))
            worst2 = max(worst2, abs(got2 - rich) / max(abs(rich), 1e-12))
    ok = worst1 < 1e-6 and worst2 < 1e-4
    assert report(
        6, ok, f"finite differences: first order {worst1:.2e} < 1e-6, second order {worst2:.2e} < 1e-4"
    )


def test_criterion_7_round_trip():
    """Band-8 mean-free signal reconstructs to < 1e-3 relative L2; refinement helps."""
    lp = LambdaParam(2)
    signal = random_bandlimited_field(lp, 8, seed=11)
    rep = round_trip(lp, signal, 1)
    refined = round_trip(lp, signal, 1, rho_min=2.5e-7, rho_steps=90)
    ok = rep["rel_l2_error"] < 1e-3 and refined["rel_l2_error"] < rep["rel_l2_error"]
    assert report(
        7,
        ok,
        f"round trip band 8: rel L2 error {rep['rel_l2_error']:.2e} < 1e-3 with defaults, "
        f"{refined['rel_l2_error']:.2e} after rho-grid refinement",
    )


def test_criterion_8_tail_boundedness_literal():
    """Tail L1 norm spread across the R sweep, certified by an exact oracle.

    The paper requires the tail norms to be bounded uniformly in R and states
    no factor for their spread.  Over R = 1 .. 0.03 the spread is 3.5322
    (3.5321985985 at 30 digits).  ``tail_l1_oracle`` computes each norm
    exactly from the closed-form kernel, split at its sign change, without
    the library's tail sum or quadrature; every norm and the spread must
    agree with it to 1e-4 relative.
    """
    R_sweep = [1.0, 0.3, 0.1, 0.03]
    norms = tail_l1_sweep(LambdaParam(2), 2, R_sweep)
    exact = [tail_l1_oracle(R) for R in R_sweep]
    spread, exact_spread = max(norms) / min(norms), max(exact) / min(exact)
    worst = max(abs(a / b - 1.0) for a, b in zip(norms, exact))
    ok = (
        abs(exact_spread - 3.5321985985) < 1e-8
        and worst < 1e-4
        and abs(spread / exact_spread - 1.0) < 1e-4
    )
    assert report(
        8,
        ok,
        f"tail L1 spread across R sweep = {spread:.6f}, exact {exact_spread:.8f}; "
        f"worst norm deviation {worst:.1e} (bound 1e-4 relative)",
    )


def test_criterion_8_tail_boundedness_content():
    """The quantity the criterion targets: uniform boundedness of the tail norms.

    The sweep climbs monotonically to a finite plateau (~0.01436 as R -> 0);
    successive ratios decrease toward 1, excluding any blow-up.
    """
    lp = LambdaParam(2)
    norms = tail_l1_sweep(lp, 2, [1.0, 0.3, 0.1, 0.03])
    succ = [b / a for a, b in zip(norms, norms[1:])]
    plateau = tail_l1_sweep(lp, 2, [1e-4])[0]
    ok = (
        norms == sorted(norms)
        and succ == sorted(succ, reverse=True)
        and succ[-1] < 1.2
        and norms[-1] < plateau < 1.1 * norms[-1]
    )
    assert report(
        8,
        ok,
        f"(content) tail norms reach plateau {plateau:.5f}, successive ratios "
        f"{', '.join(f'{r:.2f}' for r in succ)} decrease toward 1",
    )


def test_criterion_9_special_function_suite():
    """Generating function, recurrences, coefficient orthogonality, branch consistency."""
    ok = True
    detail = []
    # generating function, 11-point grid, r in {0.1, 0.3, 0.5}
    worst = 0.0
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        t = np.linspace(-1, 1, 11)
        for r in (0.1, 0.3, 0.5):
            L = 120
            vals = gegenbauer_batch(lam, L, t)
            series = np.sum(vals * np.power(r, np.arange(L + 1))[:, None], axis=0)
            closed = (1 - 2 * t * r + r * r) ** (-lam)
            worst = max(worst, float(np.max(np.abs(series - closed))))
    ok &= worst < 1e-10
    detail.append(f"generating fn {worst:.1e}")
    # recurrences (order lowering where in-domain, raising, derivative)
    worst = 0.0
    t = np.linspace(-1, 1, 21)
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        cur = gegenbauer_batch(lam, 50, t)
        up = gegenbauer_batch(lam + 1.0, 49, t)
        for l in range(2, 51):
            lhs = l * cur[l]
            rhs = (2 * lam + l - 1) * t * cur[l - 1] - 2 * lam * (1 - t**2) * up[l - 2]
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0))))
        if lam > 0.5:
            low = gegenbauer_batch(lam - 1.0, 51, t)
            for l in range(2, 51):
                lhs = l * low[l]
                rhs = 2 * (lam - 1) * (t * cur[l - 1] - cur[l - 2])
                worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0))))
    ok &= worst < 1e-10
    detail.append(f"recurrences {worst:.1e}")
    # derivative identity d/dt C_l = 2 lam C_{l-1}^{lam+1} against central differences
    worst = 0.0
    from reference import gegenbauer_derivative
    from sphwave.special import gegenbauer_value

    for lam in (0.5, 1.5, 3.0):
        for l in (1, 4, 9):
            for t0 in (-0.6, 0.1, 0.8):
                h = 1e-6
                fd = (gegenbauer_value(lam, l, t0 + h) - gegenbauer_value(lam, l, t0 - h)) / (2 * h)
                got = float(gegenbauer_derivative(l, lam, t0))
                worst = max(worst, abs(got - fd) / max(abs(fd), 1.0))
    ok &= worst < 1e-8
    detail.append(f"derivative identity {worst:.1e}")
    # Funk-Hecke orthogonality of the coefficient functional
    worst = 0.0
    for lam in (0.5, 1.5):
        rule = gauss_jacobi_rule(lam, 24)
        basis = gegenbauer_batch(lam, 5, rule.nodes)
        for m in range(6):
            for l in range(6):
                got = gegenbauer_coefficient(rule, basis[m], l)
                worst = max(worst, abs(got - (1.0 if l == m else 0.0)))
    ok &= worst < 1e-12
    detail.append(f"coefficient orthogonality {worst:.1e}")
    # normalization-constant branch consistency against the product formula
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        lp = LambdaParam(n)
        for l in range(0, 26, 5):
            for k1 in range(0, l + 1, 3):
                a, b = norm_const_a(lp, l, k1), norm_const_product_oracle(n, l, k1)
                worst = max(worst, abs(a / b - 1.0))
    ok &= worst < 1e-12
    detail.append(f"constant branches {worst:.1e}")
    assert report(9, bool(ok), "special-function suite: " + ", ".join(detail))
