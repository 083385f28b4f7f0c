"""Workload inputs, op lists and output oracles of the sphwave benchmark.

Each workload is a fixed list of ops that one closed-loop caller runs in
order, each op starting after the previous one returned.  Inputs come only
from the workload seed; sphwave receives the generated inputs.  Every op has
an oracle that the runner applies outside the timed region.

Why these three workloads:

* s2_roundtrip drives the S^2 transform, the rotated frame and the
  many-point, low-degree synthesis; a faster transform must move it.
* admissibility_reports is scalar Python in the gamma solver and the
  pair-condition quadrature and runs no S^2 synthesis, so a transform change
  must not move it.
* fine_scale_series runs truncation_degree near its cap and the synthesis at
  high degree on few points, the opposite shape from s2_roundtrip.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from sphwave import admissibility, cli, euclid, rotderiv, special, transform, wavelets

# Feasibility certificates of the gamma system for n = 2..6, orders 1..6.
# Orders <= 3 are settled by the exact elimination; for orders 4..6 the
# infeasible cells have an eliminant without real roots and the feasible
# ones a real root.  (4, 6) and (5, 6) have no certificate yet, so either
# outcome is accepted there and only recorded.
GAMMA_INFEASIBLE = {(2, 3), (2, 5), (4, 4), (5, 4), (6, 4)}
GAMMA_UNCERTIFIED = {(4, 6), (5, 6)}

ROUNDTRIP_REL_TOL = 1e-8  # |observed / predicted rel-L2 - 1|
COLLAPSE_REL_TOL = 1e-9
MULTIPLIER_TOL = 1e-9  # |ratio - 1| of every verify row
SERIES_REL_TOL = 1e-8  # eval's own default acceptance tolerance
LIMIT_ORDER_TOL = 0.25  # first-order convergence expected


class StrictJSONError(ValueError):
    pass


def _reject_constant(name):
    raise StrictJSONError(f"non-standard JSON constant {name}")


def parse_report(text: str):
    """(payload, strict_ok): strict parsing rejects NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant), True
    except StrictJSONError:
        return json.loads(text), False


@dataclass
class Op:
    """One operation of a pass: a call into sphwave and the oracle of its output."""

    cls: str  # op class, e.g. "roundtrip", "gamma", "verify", "eval", "limit"
    config: str  # stable key of the op's inputs within the run
    call: Callable[[], object]
    check: Callable[[object], list]  # returns a list of failure messages
    outputs: tuple = ()  # report files a CLI op writes, relative to the work directory
    record: dict = field(default_factory=dict)  # oracle values kept for the results


@dataclass
class Workload:
    name: str
    ops: list
    class_metric: dict  # op class -> per-class latency metric name in the detail
    accuracy: tuple  # (detail metric name, op record key)
    meta: dict


def _cli_call(argv):
    # cli.main is looked up at call time, so a traced run sees its wrapper
    return lambda: cli.main(argv)


def _read(path):
    with open(path) as fh:
        return fh.read()


def report_digest(paths) -> tuple:
    """(sha256 of the reports' bytes in order, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        h.update(data)
        total += len(data)
    return h.hexdigest(), total


# --- s2_roundtrip -----------------------------------------------------------


def flat_spectrum_signal(lp, band: int, rng) -> rotderiv.CoefficientField:
    """Mean-free sector signal with unit weighted energy in every degree 1..band.

    Directions within each degree are random; fixing the per-degree energy
    makes the round-trip error a property of the transform, not of the draw,
    because the round trip acts on each degree by one multiplier.
    """
    a = rng.standard_normal((band + 1, band + 1))
    a[np.triu_indices(band + 1, 1)] = 0.0
    a[0] = 0.0
    energy = (a**2 * rotderiv.sector_weights(lp.n, band)).sum(axis=1)
    a[1:] /= np.sqrt(energy[1:])[:, None]
    return rotderiv.CoefficientField(lp, a)


def predicted_rel_l2(lp, signal, order: int) -> float:
    """Round-trip rel-L2 from the discrete per-degree multiplier deficits.

    m_l = C / N_l * sum_r w_r * pair_coefficient_sum(rho_r, l) over the
    default log-rho grid; the error energy is sum_l (m_l - 1)^2 E_l with E_l
    the sector-weighted coefficient energy of degree l.
    """
    gamma = admissibility.solve_gamma(lp.lam, order)
    rhos, weights = transform.log_rho_grid()
    C = admissibility.admissibility_constant(lp, order)
    band = signal.degree_max
    energy = (signal.coeffs**2 * rotderiv.sector_weights(lp.n, signal.order_bound)).sum(axis=1)
    err = 0.0
    for l in range(1, band + 1):
        s = sum(w * admissibility.pair_coefficient_sum(lp, gamma, float(r), l) for r, w in zip(rhos, weights))
        m = C / special.dim_harmonic(lp.n, l) * s
        err += (m - 1.0) ** 2 * energy[l]
    return math.sqrt(err / energy.sum())


def _roundtrip_op(lp, signal, order: int, key: str) -> Op:
    def check(result):
        pred = predicted_rel_l2(lp, signal, order)
        obs = result["rel_l2_error"]
        dev = abs(obs / pred - 1.0)
        op.record.update(rel_l2_error=obs, predicted_rel_l2=pred, budget_rel_dev=dev)
        return [] if dev <= ROUNDTRIP_REL_TOL else [f"rel-L2 {obs!r} vs predicted {pred!r} (|ratio-1| {dev:.3e})"]

    op = Op("roundtrip", key, lambda: transform.round_trip(lp, signal, order), check)
    return op


def _s2_roundtrip(rng, size: str) -> Workload:
    band, order, n_signals = (8, 1, 2) if size == "full" else (3, 1, 2)
    lp = special.LambdaParam(2)
    ops = [
        _roundtrip_op(lp, flat_spectrum_signal(lp, band, rng), order, f"band{band}_order{order}_signal{i}")
        for i in range(n_signals)
    ]
    return Workload(
        "s2_roundtrip",
        ops,
        class_metric={"roundtrip": "roundtrip_s.p50"},
        accuracy=("rel_l2_error.max", "rel_l2_error"),
        meta={"band": band, "order": order, "signals": n_signals},
    )


# --- admissibility_reports --------------------------------------------------


def collapse_failures(vec, order: int, lam: float, l_max: int = 40) -> list:
    """Check sum_{d,d'} g_d g_d' q_{d,d'}(u) = u^order for l = 1..l_max."""
    g = vec.gammas
    q = {
        (d, dp): [float(c) for c in admissibility.q_polynomial(lam, d, dp)]
        for d in range(order + 1)
        for dp in range(order + 1)
    }
    bad = []
    for l in range(1, l_max + 1):
        u = l * (2.0 * lam + l)
        total = sum(
            g[d] * g[dp] * sum(c * u**k for k, c in enumerate(q[(d, dp)]))
            for d in range(order + 1)
            for dp in range(order + 1)
        )
        if abs(total - u**order) > COLLAPSE_REL_TOL * u**order:
            bad.append(f"collapse identity fails at l={l}: {total!r} vs {u**order!r}")
            break
    return bad


def _gamma_op(n: int, order: int) -> Op:
    lam = Fraction(n - 1, 2)

    def call():
        try:
            return admissibility.solve_gamma(lam, order)
        except admissibility.GammaSolveError as exc:
            return exc

    def check(result):
        feasible = not isinstance(result, admissibility.GammaSolveError)
        op.record["outcome"] = "feasible" if feasible else "infeasible"
        if (n, order) in GAMMA_UNCERTIFIED:
            expect = None
        else:
            expect = (n, order) not in GAMMA_INFEASIBLE
        fails = []
        if expect is not None and feasible != expect:
            fails.append(f"gamma (n={n}, order={order}): {op.record['outcome']}, certificate says otherwise")
        if feasible:
            fails += collapse_failures(result, order, float(lam))
        return fails

    op = Op("gamma", f"gamma_n{n}_o{order}", call, check)
    return op


def _verify_op(n: int, order: int, band: int) -> Op:
    out = f"verify_n{n}_o{order}.json"
    argv = ["verify", "--n", str(n), "--order", str(order), "--band", str(band), "--out", out]
    infeasible = (n, order) in GAMMA_INFEASIBLE

    def check(rc):
        fails = []
        if rc != (cli.EXIT_VERIFY if infeasible else cli.EXIT_OK):
            fails.append(f"verify n={n} order={order}: exit code {rc}")
        report, strict = parse_report(_read(out))
        op.record["strict_json"] = strict
        if infeasible:
            if [c["check"] for c in report["checks"]] != ["gamma_solve"]:
                fails.append("infeasible verify report lacks the gamma_solve failure")
            return fails
        if report["failures"] or not all(c["pass"] for c in report["checks"]):
            fails.append(f"verify n={n} order={order}: {report['failures']} failed checks")
        devs = [
            abs(c["value"] / c["expected"] - 1.0)
            for c in report["checks"]
            if c["check"].startswith(("pair_condition1", "reconstruction_multiplier"))
        ]
        if len(devs) != band + 3:
            fails.append(f"verify n={n} order={order}: {len(devs)} multiplier rows, expected {band + 3}")
        dev = max(devs, default=math.inf)
        op.record["multiplier_dev"] = dev
        if not dev <= MULTIPLIER_TOL:
            fails.append(f"verify n={n} order={order}: multiplier deviation {dev:.3e}")
        return fails

    op = Op("verify", f"verify_n{n}_o{order}_band{band}", _cli_call(argv), check, outputs=(out,))
    return op


def _admissibility_reports(rng, size: str) -> Workload:
    if size == "full":
        table = [(n, o) for n in range(2, 7) for o in range(1, 7)]
        verify = [(n, o) for n in range(2, 5) for o in range(1, 4)]
        band = int(rng.integers(19, 22))
    else:
        table = [(2, 1), (2, 3), (3, 4)]
        verify = [(2, 1), (2, 3), (3, 2)]
        band = int(rng.integers(4, 7))
    ops = [_gamma_op(n, o) for n, o in table] + [_verify_op(n, o, band) for n, o in verify]
    return Workload(
        "admissibility_reports",
        ops,
        class_metric={"gamma": "gamma_table_s", "verify": "verify_report_s.p50"},
        accuracy=("multiplier_dev.max", "multiplier_dev"),
        meta={"gamma_cells": len(table), "verify_band": band},
    )


# --- fine_scale_series ------------------------------------------------------

EVAL_CONFIGS = ((2, 1), (2, 2), (3, 1), (3, 2))  # (n, Poisson order): closed forms exist
# The finest scale runs once per pass at a fixed config: it sets the
# truncation_degree cost (about 3900 degrees scanned) and the high-degree
# synthesis of a pass.  The drawn scales start above it, because the cost of an
# eval grows like rho^-3 and draws near 0.01 would make pass_s a lottery.
FINE_OP = (2, 1, 0.01)
DRAW_RHO = (0.03, 0.5)


def _eval_op(i: int, n: int, order: int, rho: float, grid: int) -> Op:
    out = f"eval_{i}.csv"
    argv = ["eval", "--n", str(n), "--order", str(order), "--rho", repr(rho), "--grid", str(grid), "--out", out]

    def check(rc):
        fails = []
        if rc != cli.EXIT_OK:
            return [f"eval {argv}: exit code {rc}"]
        meta, strict = parse_report(_read(out + ".json"))
        op.record["strict_json"] = strict
        op.record["truncation_degree"] = meta["truncation_degree"]
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (grid * grid, 4):
            return [f"eval table shape {table.shape}"]
        spec = wavelets.WaveletSpec(lp=special.LambdaParam(n), kind=wavelets.KIND_POISSON, order=order, rho=rho)
        closed_form = wavelets.g1_closed if order == 1 else wavelets.g2_closed
        closed = closed_form(spec, table[:, 0], table[:, 1])
        diff = float(np.max(np.abs(table[:, 2] - closed)) / np.max(np.abs(closed)))
        op.record["series_rel_diff"] = diff
        if not diff <= SERIES_REL_TOL:
            fails.append(f"eval n={n} order={order} rho={rho!r}: series vs closed form {diff:.3e}")
        return fails

    op = Op("eval", f"eval_{i}_n{n}_o{order}_rho{rho!r}", _cli_call(argv), check, outputs=(out, out + ".json"))
    return op


def _limit_op(i: int, n: int, d: int, radius: float, angle: float) -> Op:
    out = f"limit_{i}.json"
    argv = [
        "limit", "--n", str(n), "--order", str(d), "--rho-max", "0.4",
        "--xi-radius", repr(radius), "--xi-angle", repr(angle), "--out", out,
    ]

    def check(rc):
        if rc != cli.EXIT_OK:
            return [f"limit {argv}: exit code {rc}"]
        report, strict = parse_report(_read(out))
        op.record["strict_json"] = strict
        coords = (radius * math.cos(angle), radius * math.sin(angle)) + (0.0,) * (n - 2)
        target = euclid.euclidean_limit_eval(special.LambdaParam(n), d, euclid.EuclideanPoint(coords))
        fails = []
        if abs(report["target"] - target) > 1e-12 * abs(target):
            fails.append(f"limit target {report['target']!r} vs {target!r}")
        errors = report["errors"]
        if not all(e1 > e2 for e1, e2 in zip(errors, errors[1:])):
            fails.append("limit errors do not decrease")
        if not abs(report["empirical_order"] - 1.0) <= LIMIT_ORDER_TOL:
            fails.append(f"limit empirical order {report['empirical_order']!r}")
        return fails

    op = Op("limit", f"limit_{i}_n{n}_d{d}", _cli_call(argv), check, outputs=(out,))
    return op


def _fine_scale_series(rng, size: str) -> Workload:
    if size == "full":
        grid, fine, draw, per_config = 60, FINE_OP, DRAW_RHO, 6
    else:
        grid, fine, draw, per_config = 10, (2, 1, 0.2), (0.2, 0.5), 1
    ops = [_eval_op(0, *fine, grid)]
    # Seed-drawn scales, log-uniform, one per equal log-stratum per config.
    lo, hi = math.log(draw[0]), math.log(draw[1])
    for n, order in EVAL_CONFIGS:
        for s in range(per_config):
            u = (s + rng.random()) / per_config
            ops.append(_eval_op(len(ops), n, order, float(math.exp(lo + u * (hi - lo))), grid))
    # Flat-space limit probes at seed-drawn points of regions where the
    # probed errors decrease monotonically (zeros of the profile excluded).
    for n, d, radius, angle in ((3, 3, (0.3, 0.6), (0.5, 1.5)), (2, 4, (0.3, 0.5), (1.1, 1.5))):
        for _ in range(3):
            ops.append(_limit_op(len(ops), n, d, float(rng.uniform(*radius)), float(rng.uniform(*angle))))
    return Workload(
        "fine_scale_series",
        ops,
        class_metric={"eval": "eval_report_s.p50", "limit": "limit_report_s.p50"},
        accuracy=("series_rel_diff.max", "series_rel_diff"),
        meta={"grid": grid, "eval_ops": sum(op.cls == "eval" for op in ops)},
    )


_FACTORIES = {
    "s2_roundtrip": _s2_roundtrip,
    "admissibility_reports": _admissibility_reports,
    "fine_scale_series": _fine_scale_series,
}
WORKLOADS = tuple(_FACTORIES)


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's fixed op list, generated from the seed alone."""
    return _FACTORIES[name](np.random.default_rng(seed), size)


def clear_outputs(op: Op) -> None:
    for p in op.outputs:
        try:
            os.remove(p)
        except FileNotFoundError:
            pass
