"""Command-line front end: evaluation, coefficient export, verification reports.

Subcommands
-----------
eval       Wavelet values on an angular grid (CSV; closed-form column for the Poisson kind).
coeffs     Sector coefficient table of a wavelet field (CSV).
gamma      Solve the admissibility mixing coefficients (JSON report).
verify     Admissibility/identity verification sweeps (JSON report).
transform  Analysis + inversion round trip on the 2-sphere (JSON report).
limit      Flat-space limit convergence probe (JSON report).

Outputs are plot-ready tables, byte-identical for identical configs: floats
are written with shortest round-trip formatting, summation orders are fixed,
and test signals use fixed seeds.  Every numeric default lands in the report
metadata.  Exit codes: 0 ok, 2 usage error (also a transform order with no
real gamma vector, whose certificate goes to stderr, n >= 261, where the
sphere's squared surface measure is not a normal float, a limit probe
value or point radius that is not a finite float, and a request too large
for memory, such as an eval grid of 1e5 per angle), 3 verification/tolerance
failure (suppressed by --report-only) and an eval series whose truncation
degree cannot be certified: below the degree cap, or where its bound
overflows or its weight underflows a float.  Library errors derive from
ValueError.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .admissibility import (
    GammaSolveError,
    energy_table,
    solve_gamma,
    tail_l1_plateau,
    tail_l1_sweep,
    verify_pair_condition1,
)
from .euclid import EuclideanPoint, limit_convergence_probe
from .rotderiv import synthesize
from .special import LambdaParam, surface_measure
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
    poisson_wavelet_closed,
    truncation_degree,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _cells(values) -> list:
    """CSV cells of Python ints and floats (e.g. ``ndarray.tolist()``); floats in shortest round-trip form."""
    return list(map(repr, values))


def _csv_text(header: list, columns: list) -> str:
    """One line per row of the equal-length cell columns (see :func:`_cells`)."""
    lines = [",".join(header)]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def _write_csv(path: str, header: list, columns: list) -> None:
    text = _csv_text(header, columns)
    with open(path, "w") as fh:
        fh.write(text)


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


def _finish(args, payload: dict, checks: list, summary: str) -> int:
    """Write the report with its checks and failure count, print one line, and choose the exit code."""
    failures = sum(not c["pass"] for c in checks)
    _write_json(args.out, {**payload, "checks": checks, "failures": failures})
    print(f"wrote {args.out}: {summary}")
    return EXIT_OK if failures == 0 or args.report_only else EXIT_VERIFY


def cmd_eval(args) -> int:
    lp = LambdaParam(args.n)
    surface_measure(lp.n)  # n >= 261 is a usage error, which truncation_degree would report as an overflow
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
    # the sector series separates into radial(theta1) x angular(theta2), so
    # broadcasting a column against a row runs the recurrence on m points
    series = synthesize(field, theta1[:, None], theta2[None, :])
    closed = None
    if spec.kind == KIND_POISSON:
        closed = poisson_wavelet_closed(spec, theta1[:, None], theta2[None, :])
    header = ["theta1", "theta2", "value_series"] + (["value_closed"] if closed is not None else [])
    values = [series] + ([closed] if closed is not None else [])
    # row-major grid: each theta1 repeats m times while theta2 cycles
    columns = [
        [cell for cell in _cells(theta1.tolist()) for _ in range(m)],
        _cells(theta2.tolist()) * m,
    ] + [_cells(v.ravel().tolist()) for v in values]
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
    # the table is built before either file is written, so one too large for
    # memory leaves no file; a report that cannot be written leaves no table
    table = _csv_text(header, columns)
    _write_json(args.out + ".json", meta)
    with open(args.out, "w") as fh:
        fh.write(table)
    print(f"wrote {args.out} ({m * m} rows)")
    return EXIT_OK if ok or args.report_only else EXIT_VERIFY


def cmd_coeffs(args) -> int:
    lp = LambdaParam(args.n)
    spec = WaveletSpec(lp=lp, kind=args.kind, order=args.order, rho=args.rho)
    field = directional_wavelet_field(spec, L=args.band)
    ls, k1s = zip(*[(l, k1) for l in range(field.degree_max + 1) for k1 in range(min(l, field.order_bound) + 1)])
    coeffs = field.coeffs[list(ls), list(k1s)].tolist()
    _write_csv(args.out, ["l", "k1", "coeff"], [_cells(ls), _cells(k1s), _cells(coeffs)])
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
    print(f"wrote {args.out} ({len(ls)} rows)")
    return EXIT_OK


def cmd_gamma(args) -> int:
    lp = LambdaParam(args.n)
    payload = {"subcommand": "gamma", "n": args.n, "lam": lp.lam, "order": args.order}
    try:
        vec = solve_gamma(lp.lam, args.order)
    except GammaSolveError as exc:
        _write_json(args.out, {**payload, "solved": False, "reason": str(exc)})
        print(f"no real solution: {exc}")
        return EXIT_OK if args.report_only else EXIT_VERIFY
    payload["solved"] = True
    payload["gammas"] = [float(g) for g in vec.gammas]
    payload["identity"] = "sector sums collapse to (l(2*lam+l))^order for unit zonal seeds"
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    lp = LambdaParam(args.n)
    surface_measure(lp.n)  # n >= 261 is a usage error, as for eval, though no pair row forms sigma
    checks = []
    try:
        gamma = solve_gamma(lp.lam, args.order)
        # one table E_l up to the band serves the pair-condition and the reconstruction rows
        energy = energy_table(lp, gamma, args.band)
        rows = verify_pair_condition1(lp, gamma, args.band, tol_identity=args.tol, energy=energy)
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
            m = per_degree_reconstruction_check(lp, gamma, l, energy=energy)
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
        if lp.n == 2:
            norms = tail_l1_sweep(lp, args.order, [1.0, 0.3, 0.1, 0.03])
            plateau = tail_l1_plateau(lp, args.order)
            ratio = plateau / norms[-1]
            succ = [b / a for a, b in zip(norms, norms[1:])]
            ok = (
                all(a < b for a, b in zip(norms, norms[1:]))
                and max(norms) < plateau
                and succ == sorted(succ, reverse=True)
                and abs(ratio - 1.0) < 0.2
            )
            checks.append(
                _report_row(
                    check="tail_l1_bounded_sweep",
                    identity="scale-tail L1 norms rise toward their exact flat-space plateau "
                    "I (1 + int |P| w / Gamma(n/2)) as the cutoff shrinks; value is plateau / sweep norm at "
                    "R = 0.03, and the pass also needs the sweep norms increasing, each below the plateau, "
                    "with non-increasing successive ratios",
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
                identity="existence of real mixing coefficients, decided exactly by a Sturm count",
                value=str(exc),
                expected="real solution",
                tol=0.0,
                ok=False,
                operation="admissibility.solve_gamma",
            )
        )
    payload = {"subcommand": "verify", "n": args.n, "order": args.order, "band": args.band, "tol": args.tol}
    return _finish(args, payload, checks, f"{sum(c['pass'] for c in checks)}/{len(checks)} checks passed")


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
    }
    check = _report_row(
        check="round_trip_rel_l2",
        identity="analysis + inversion reproduces a mean-free band-limited signal",
        value=rep["rel_l2_error"],
        expected=0.0,
        tol=args.tol,
        ok=rep["rel_l2_error"] < args.tol,
        operation="transform.round_trip",
    )
    summary = f"rel L2 error {rep['rel_l2_error']:.3e} (predicted {rep['predicted_rel_l2']:.3e})"
    return _finish(args, payload, [check], summary)


def cmd_limit(args) -> int:
    lp = LambdaParam(args.n)
    coords = [args.xi_radius * np.cos(args.xi_angle), args.xi_radius * np.sin(args.xi_angle)]
    coords += [0.0] * (lp.n - 2)
    xi = EuclideanPoint(tuple(coords))
    rhos = [args.rho_max / 2**k for k in range(args.rho_steps)]
    rep = limit_convergence_probe(lp, args.order, xi, rhos)
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
    }
    # theta1 = 2 arctan(|rho xi| / 2) passes pi/2 at |rho xi| = 2: beyond it the
    # scaled wavelet is read near the antipode, where its values no longer depend on xi
    reach = rep["rho"][-1] * xi.radius
    near = reach < 2.0
    check = _report_row(
        check="limit_errors_decreasing",
        identity="scaled wavelet converges pointwise to the flat-space profile",
        value=rep["errors"][-1],
        expected=0.0,
        tol=None,
        ok=all(e1 > e2 for e1, e2 in zip(rep["errors"], rep["errors"][1:])) and near,
        operation="euclid.limit_convergence_probe",
    )
    summary = f"final error {rep['errors'][-1]:.3e}"
    if not near:
        check["reason"] = (
            f"the finest scale's image is past the near hemisphere (rho_min |xi| = {reach:.3g}, needs < 2), "
            "where the probe does not test the flat-space limit"
        )
        summary += f"; {check['reason']}"
    return _finish(args, payload, [check], summary)


def _positive_int(minimum: int = 1):
    """argparse type for sizes: an integer >= minimum (band and grid 1, scale steps 2)."""
    expected = "a positive integer" if minimum == 1 else f"a positive integer >= {minimum}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type for coordinates: a finite float."""
    value = float(text)  # argparse reports a ValueError as a usage error
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for tolerances and scale bounds: a finite float > 0."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="sphwave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, rho=False, band=None, order_default=1, tol=None, report_only=True):
        p.add_argument("--n", type=int, default=2, help="sphere dimension (default 2)")
        p.add_argument("--order", type=int, default=order_default, help="derivative order")
        if rho:
            p.add_argument("--rho", type=float, default=0.5, help="scale (default 0.5)")
        if band is not None:
            p.add_argument("--band", type=_positive_int(), default=band, help=f"degree band (default {band})")
        if tol is not None:
            p.add_argument("--tol", type=_positive_float, default=tol, help=f"acceptance tolerance (default {tol:g})")
        p.add_argument("--out", required=True, help="output file path")
        if report_only:
            p.add_argument("--report-only", action="store_true", help="exit 0 even when checks fail")

    p = sub.add_parser("eval", help="wavelet values on a (theta1, theta2) grid")
    common(p, rho=True, tol=1e-8)
    p.add_argument("--kind", choices=(KIND_POISSON, KIND_HEAT), default=KIND_POISSON)
    p.add_argument("--grid", type=_positive_int(), default=15, help="grid resolution per angle (default 15)")
    p.add_argument("--tol-series", type=_positive_float, default=1e-10, help="series truncation tolerance")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("coeffs", help="sector coefficient table")
    common(p, rho=True, band=40, report_only=False)
    p.add_argument("--kind", choices=(KIND_POISSON, KIND_HEAT), default=KIND_POISSON)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("gamma", help="solve the admissibility mixing coefficients")
    common(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("verify", help="admissibility verification sweeps")
    common(p, band=20, tol=1e-6)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="round trip on the 2-sphere")
    common(p, band=8, tol=1e-3)
    p.add_argument("--rho-min", type=_positive_float, default=DEFAULT_RHO_MIN)
    p.add_argument("--rho-max", type=_positive_float, default=DEFAULT_RHO_MAX)
    p.add_argument("--rho-steps", type=_positive_int(2), default=DEFAULT_RHO_STEPS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("limit", help="flat-space limit convergence probe")
    common(p, order_default=2)
    p.add_argument("--xi-radius", type=_finite_float, default=1.0)
    p.add_argument("--xi-angle", type=_finite_float, default=0.7)
    p.add_argument("--rho-max", type=_positive_float, default=0.08)
    p.add_argument("--rho-steps", type=_positive_int(2), default=4)
    p.set_defaults(fn=cmd_limit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # TruncationError and GammaSolveError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
