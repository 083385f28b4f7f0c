"""Command-line front end: evaluation, coefficient export, verification reports.

Subcommands
-----------
eval       Wavelet values on an angular grid (CSV; closed-form column for d <= 2).
coeffs     Sector coefficient table of a wavelet field (CSV).
gamma      Solve the admissibility mixing coefficients (JSON report).
verify     Admissibility/identity verification sweeps (JSON report).
transform  Analysis + inversion round trip on the 2-sphere (JSON report).
limit      Flat-space limit convergence probe (JSON report).

Outputs are plot-ready tables, byte-identical for identical configs: floats
are written with shortest round-trip formatting, summation orders are fixed,
and test signals use fixed seeds.  Every numeric default lands in the report
metadata.  Exit codes: 0 ok, 2 usage error, 3 verification/tolerance failure
(suppressed by --report-only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .admissibility import (
    GammaSolveError,
    solve_gamma,
    tail_l1_sweep,
    verify_pair_condition1,
)
from .euclid import EuclideanPoint, limit_convergence_probe
from .rotderiv import synthesize
from .special import LambdaParam
from .transform import (
    DEFAULT_RHO_MAX,
    DEFAULT_RHO_MIN,
    DEFAULT_RHO_STEPS,
    per_degree_reconstruction_check,
    random_bandlimited_field,
    round_trip,
)
from .wavelets import (
    KIND_HEAT,
    KIND_POISSON,
    TruncationError,
    WaveletSpec,
    directional_wavelet_field,
    g1_closed,
    g2_closed,
    poisson_kernel_closed,
    truncation_degree,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _write_csv(path: str, header: list, rows: list) -> None:
    """Rows of Python ints and floats (e.g. ``ndarray.tolist()``); floats in shortest round-trip form."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    # serialize first: a NaN or infinity raises before the file is opened
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _report_row(check: str, identity: str, value, expected, tol: float | None, ok: bool, operation: str) -> dict:
    return {
        "check": check,
        "identity": identity,
        "operation": operation,
        "value": value,
        "expected": expected,
        "tol": tol,
        "pass": bool(ok),
    }


def cmd_eval(args) -> int:
    lp = LambdaParam(args.n)
    spec = WaveletSpec(lp=lp, kind=args.kind, order=args.order, rho=args.rho)
    try:
        L = truncation_degree(spec, args.tol_series)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    field = directional_wavelet_field(spec, L=L)
    m = args.grid
    theta1 = np.linspace(0.0, np.pi, m + 2)[1:-1]
    theta2 = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    t1g, t2g = np.meshgrid(theta1, theta2, indexing="ij")
    series = synthesize(field, t1g, t2g)
    closed = None
    if spec.kind == KIND_POISSON and args.order <= 2:
        closed = {
            0: lambda: np.broadcast_to(poisson_kernel_closed(lp, args.rho, t1g), t1g.shape),
            1: lambda: g1_closed(spec, t1g, t2g),
            2: lambda: g2_closed(spec, t1g, t2g),
        }[args.order]()
    header = ["theta1", "theta2", "value_series"] + (["value_closed"] if closed is not None else [])
    columns = [t1g, t2g, series] + ([closed] if closed is not None else [])
    rows = np.stack([c.ravel() for c in columns], axis=1).tolist()
    meta = {
        "subcommand": "eval",
        "n": args.n,
        "kind": args.kind,
        "order": args.order,
        "rho": args.rho,
        "grid": m,
        "tol_series": args.tol_series,
        "tol": args.tol,
        "truncation_degree": L,
        "out": args.out,
    }
    ok = True
    if closed is not None:
        max_abs_diff = float(np.max(np.abs(series - closed)))
        scale = float(np.max(np.abs(closed)))
        meta["max_abs_diff"] = max_abs_diff
        meta["max_rel_diff"] = max_abs_diff / scale if scale else 0.0
        ok = meta["max_rel_diff"] < args.tol
        meta["pass"] = bool(ok)
    _write_json(args.out + ".json", meta)  # first: a report that cannot be written leaves no table
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK if ok or args.report_only else EXIT_VERIFY


def cmd_coeffs(args) -> int:
    lp = LambdaParam(args.n)
    spec = WaveletSpec(lp=lp, kind=args.kind, order=args.order, rho=args.rho)
    field = directional_wavelet_field(spec, L=args.band)
    rows = []
    for l in range(field.degree_max + 1):
        for k1 in range(min(l, field.order_bound) + 1):
            rows.append([l, k1, float(field.coeffs[l, k1])])
    _write_csv(args.out, ["l", "k1", "coeff"], rows)
    _write_json(
        args.out + ".json",
        {
            "subcommand": "coeffs",
            "n": args.n,
            "kind": args.kind,
            "order": args.order,
            "rho": args.rho,
            "band": args.band,
            "out": args.out,
        },
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_gamma(args) -> int:
    lp = LambdaParam(args.n)
    try:
        vec = solve_gamma(lp.lam, args.order)
    except GammaSolveError as exc:
        payload = {
            "subcommand": "gamma",
            "n": args.n,
            "lam": lp.lam,
            "order": args.order,
            "solved": False,
            "reason": str(exc),
        }
        _write_json(args.out, payload)
        print(f"no real solution: {exc}")
        return EXIT_OK if args.report_only else EXIT_VERIFY
    payload = {
        "subcommand": "gamma",
        "n": args.n,
        "lam": lp.lam,
        "order": args.order,
        "solved": True,
        "gammas": [float(g) for g in vec.gammas],
        "identity": "sector sums collapse to (l(2*lam+l))^order for unit zonal seeds",
    }
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    lp = LambdaParam(args.n)
    checks = []
    try:
        gamma = solve_gamma(lp.lam, args.order)
        rows = verify_pair_condition1(lp, args.order, args.band, gamma, tol_identity=args.tol)
        for row in rows:
            checks.append(
                _report_row(
                    check=f"pair_condition1[l={row['l']}]",
                    identity="scale integral of coefficient products equals harmonic dimension after C-scaling",
                    value=row["quadrature_scaled"],
                    expected=row["expected"],
                    tol=args.tol,
                    ok=row["pass"],
                    operation="admissibility.verify_pair_condition1",
                )
            )
        for l in sorted({1, args.band // 2 or 1, args.band}):
            m = per_degree_reconstruction_check(lp, args.order, l, gamma)
            checks.append(
                _report_row(
                    check=f"reconstruction_multiplier[l={l}]",
                    identity="Fourier-side reconstruction multiplier is 1 after C-scaling",
                    value=m,
                    expected=1.0,
                    tol=args.tol,
                    ok=abs(m - 1.0) < args.tol,
                    operation="transform.per_degree_reconstruction_check",
                )
            )
        if lp.n == 2 and args.order >= 1:
            norms = tail_l1_sweep(lp, args.order, [1.0, 0.3, 0.1, 0.03], L=400)
            plateau = tail_l1_sweep(lp, args.order, [1e-4], L=900)[0]
            ratio = plateau / norms[-1]
            succ = [b / a for a, b in zip(norms, norms[1:])]
            ok = succ == sorted(succ, reverse=True) and abs(ratio - 1.0) < 0.2
            checks.append(
                _report_row(
                    check="tail_l1_bounded_sweep",
                    identity="heuristic: scale-tail L1 norms approach a finite plateau as the cutoff shrinks; "
                    "value is plateau / last sweep norm, and the pass also needs the successive sweep ratios "
                    "to be non-increasing",
                    value=ratio,
                    expected=1.0,
                    tol=0.2,
                    ok=ok,
                    operation="admissibility.tail_l1_sweep",
                )
            )
    except GammaSolveError as exc:
        checks.append(
            _report_row(
                check="gamma_solve",
                identity="existence of real mixing coefficients (open in general)",
                value=str(exc),
                expected="real solution",
                tol=0.0,
                ok=False,
                operation="admissibility.solve_gamma",
            )
        )
    n_fail = sum(not c["pass"] for c in checks)
    payload = {
        "subcommand": "verify",
        "n": args.n,
        "order": args.order,
        "band": args.band,
        "tol": args.tol,
        "checks": checks,
        "failures": n_fail,
    }
    _write_json(args.out, payload)
    print(f"wrote {args.out}: {len(checks) - n_fail}/{len(checks)} checks passed")
    return EXIT_OK if n_fail == 0 or args.report_only else EXIT_VERIFY


def cmd_transform(args) -> int:
    lp = LambdaParam(args.n)
    if lp.n != 2:
        print("error: full transform round trip is 2-sphere only (use verify for n >= 3)", file=sys.stderr)
        return EXIT_USAGE
    signal = random_bandlimited_field(lp, args.band, seed=args.seed)
    rep = round_trip(
        lp,
        signal,
        args.order,
        rho_min=args.rho_min,
        rho_max=args.rho_max,
        rho_steps=args.rho_steps,
    )
    ok = rep["rel_l2_error"] < args.tol
    payload = {
        "subcommand": "transform",
        "n": args.n,
        "order": args.order,
        "band": args.band,
        "seed": args.seed,
        "rho_min": args.rho_min,
        "rho_max": args.rho_max,
        "rho_steps": args.rho_steps,
        "tol": args.tol,
        "rotation_nodes": rep["rotation_nodes"],
        "sphere_nodes": rep["sphere_nodes"],
        "rel_l2_error": rep["rel_l2_error"],
        "predicted_rel_l2": rep["predicted_rel_l2"],
        "checks": [
            _report_row(
                check="round_trip_rel_l2",
                identity="analysis + inversion reproduces a mean-free band-limited signal",
                value=rep["rel_l2_error"],
                expected=0.0,
                tol=args.tol,
                ok=ok,
                operation="transform.round_trip",
            )
        ],
        "failures": 0 if ok else 1,
    }
    _write_json(args.out, payload)
    print(f"wrote {args.out}: rel L2 error {rep['rel_l2_error']:.3e} (predicted {rep['predicted_rel_l2']:.3e})")
    return EXIT_OK if ok or args.report_only else EXIT_VERIFY


def cmd_limit(args) -> int:
    lp = LambdaParam(args.n)
    coords = [args.xi_radius * np.cos(args.xi_angle), args.xi_radius * np.sin(args.xi_angle)]
    coords += [0.0] * (lp.n - 2)
    xi = EuclideanPoint(tuple(coords))
    rhos = [args.rho_max / 2**k for k in range(args.rho_steps)]
    try:
        rep = limit_convergence_probe(lp, args.order, xi, rhos)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    decreasing = all(e1 > e2 for e1, e2 in zip(rep["errors"], rep["errors"][1:]))
    payload = {
        "subcommand": "limit",
        "n": args.n,
        "order": args.order,
        "xi_radius": args.xi_radius,
        "xi_angle": args.xi_angle,
        "rho": rep["rho"],
        "target": rep["target"],
        "errors": rep["errors"],
        "ratios": rep["ratios"],
        "empirical_order": rep["empirical_order"],
        "checks": [
            _report_row(
                check="limit_errors_decreasing",
                identity="scaled wavelet converges pointwise to the flat-space profile",
                value=rep["errors"][-1],
                expected=0.0,
                tol=None,
                ok=decreasing,
                operation="euclid.limit_convergence_probe",
            )
        ],
        "failures": 0 if decreasing else 1,
    }
    _write_json(args.out, payload)
    print(f"wrote {args.out}: final error {rep['errors'][-1]:.3e}")
    return EXIT_OK if decreasing or args.report_only else EXIT_VERIFY


def _positive_int(text: str) -> int:
    """argparse type for sizes (band, grid, scale steps): an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for coordinates: a finite float."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite float > 0."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphwave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, rho=False, band=None, order_default=1):
        p.add_argument("--n", type=int, default=2, help="sphere dimension (default 2)")
        p.add_argument("--order", type=int, default=order_default, help="derivative order")
        if rho:
            p.add_argument("--rho", type=float, default=0.5, help="scale (default 0.5)")
        if band is not None:
            p.add_argument("--band", type=_positive_int, default=band, help=f"degree band (default {band})")
        p.add_argument("--tol", type=_positive_float, default=1e-6, help="acceptance tolerance")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--report-only", action="store_true", help="exit 0 even when checks fail")

    p = sub.add_parser("eval", help="wavelet values on a (theta1, theta2) grid")
    common(p, rho=True)
    p.add_argument("--kind", choices=(KIND_POISSON, KIND_HEAT), default=KIND_POISSON)
    p.add_argument("--grid", type=_positive_int, default=15, help="grid resolution per angle (default 15)")
    p.add_argument("--tol-series", type=_positive_float, default=1e-10, help="series truncation tolerance")
    p.set_defaults(fn=cmd_eval, tol=1e-8)

    p = sub.add_parser("coeffs", help="sector coefficient table")
    common(p, rho=True, band=40)
    p.add_argument("--kind", choices=(KIND_POISSON, KIND_HEAT), default=KIND_POISSON)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("gamma", help="solve the admissibility mixing coefficients")
    common(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("verify", help="admissibility verification sweeps")
    common(p, band=20)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="round trip on the 2-sphere")
    common(p, band=8)
    p.add_argument("--rho-min", type=float, default=DEFAULT_RHO_MIN)
    p.add_argument("--rho-max", type=float, default=DEFAULT_RHO_MAX)
    p.add_argument("--rho-steps", type=_positive_int, default=DEFAULT_RHO_STEPS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_transform, tol=1e-3)

    p = sub.add_parser("limit", help="flat-space limit convergence probe")
    common(p, order_default=2)
    p.add_argument("--xi-radius", type=_finite_float, default=1.0)
    p.add_argument("--xi-angle", type=_finite_float, default=0.7)
    p.add_argument("--rho-max", type=float, default=0.08)
    p.add_argument("--rho-steps", type=_positive_int, default=4)
    p.set_defaults(fn=cmd_limit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
