"""Span tracer for the traced benchmark run, and the per-layer metric table.

The tracer wraps public sphwave functions from outside the library: each
wrapper is rebound in every ``sphwave`` module namespace that holds the
original function object (modules import names with ``from .x import f``) and
the originals are restored afterwards.  Spans (name, start, end, parent index,
work attributes) are kept in memory and written out when the run ends.  The
hot scalar functions get count-only wrappers, because a span per call would
cost more than the call itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

SPAN = "span"
COUNT = "count"


def _synthesize_frame_points(args, kwargs, result):
    # recurrence steps: evaluation points x degrees of each nonzero order column
    field, c1, _s1, th2 = args[:4]
    n_points = np.broadcast(np.asarray(c1), np.asarray(th2)).size
    coeffs = field.coeffs
    L = coeffs.shape[0] - 1
    degrees = sum(L + 1 - k for k in range(coeffs.shape[1]) if np.any(coeffs[:, k]))
    return {"points": n_points * degrees}


def _rotated_sector_frame_bytes(args, kwargs, result):
    # three float64 arrays of shape (M_rot, M_nodes), computed from the sizes
    matrices, grid = args[:2]
    return {"bytes": 3 * matrices.shape[0] * grid.size * 8}


def _truncation_degrees_scanned(args, kwargs, result):
    # a call that raised returned no degree and is counted as 0
    spec = args[0]
    return {"degrees_scanned": 0 if result is None else result - spec.order + 1}


def _solve_gamma_path(args, kwargs, result):
    # orders 4..6 go through the Newton restarts
    order = args[1] if len(args) > 1 else kwargs["dfrak"]
    return {"newton": 1 if order >= 4 else 0}


# (module, function, kind, work attributes)
WRAPPED = (
    ("special", "gegenbauer_weighted_sum", SPAN, None),
    ("special", "dim_harmonic", COUNT, None),
    ("special", "norm_const_a", COUNT, None),
    ("harmonics", "gauss_jacobi_rule", SPAN, None),
    ("rotderiv", "beta", COUNT, None),
    ("rotderiv", "derivative_step", SPAN, None),
    ("rotderiv", "synthesize_frame", SPAN, _synthesize_frame_points),
    ("wavelets", "truncation_degree", SPAN, _truncation_degrees_scanned),
    ("wavelets", "directional_wavelet_field", SPAN, None),
    ("wavelets", "modified_wavelet_field", SPAN, None),
    ("admissibility", "solve_gamma", SPAN, _solve_gamma_path),
    ("admissibility", "pair_coefficient_sum", SPAN, None),
    ("admissibility", "verify_pair_condition1", SPAN, None),
    ("admissibility", "tail_l1_sweep", SPAN, None),
    ("transform", "build_sphere_grid", SPAN, None),
    ("transform", "build_rotation_grid", SPAN, None),
    ("transform", "rotated_sector_frame", SPAN, _rotated_sector_frame_bytes),
    ("transform", "wavelet_transform", SPAN, None),
    ("transform", "inverse_transform", SPAN, None),
    ("transform", "round_trip", SPAN, None),
    ("transform", "per_degree_reconstruction_check", SPAN, None),
    ("euclid", "euclidean_limit_eval", SPAN, None),
    ("euclid", "wavelet_at_scaled_point", SPAN, None),
    ("euclid", "limit_convergence_probe", SPAN, None),
    ("cli", "main", SPAN, None),
)

# Per-layer metrics: (name, unit, the end-to-end figure it should move, workload).
# The figures are the per-class ones of the workload detail line; each is a
# share of the workload's gated pass_s.
S2, ADM, FINE = "s2_roundtrip", "admissibility_reports", "fine_scale_series"
PER_LAYER = (
    ("transform.round_trip.self_s", "s", "roundtrip_s.p50", S2),
    ("transform.build_sphere_grid.busy_s", "s", "roundtrip_s.p50", S2),
    ("transform.build_rotation_grid.busy_s", "s", "roundtrip_s.p50", S2),
    ("transform.rotated_sector_frame.busy_s", "s", "roundtrip_s.p50", S2),
    ("transform.rotated_sector_frame.bytes", "B", "peak_rss_mb", S2),
    ("transform.wavelet_transform.busy_s", "s", "roundtrip_s.p50", S2),
    ("transform.wavelet_transform.self_s", "s", "roundtrip_s.p50", S2),
    ("transform.inverse_transform.busy_s", "s", "roundtrip_s.p50", S2),
    ("transform.inverse_transform.self_s", "s", "roundtrip_s.p50", S2),
    ("transform.per_degree_reconstruction_check.busy_s", "s", "verify_report_s.p50", ADM),
    ("rotderiv.synthesize_frame.calls", "count", "roundtrip_s.p50", S2),
    ("rotderiv.synthesize_frame.busy_s", "s", "roundtrip_s.p50; a share of eval_report_s.p50 on " + FINE, S2),
    ("rotderiv.synthesize_frame.self_s", "s", "roundtrip_s.p50", S2),
    ("rotderiv.synthesize_frame.points", "count", "roundtrip_s.p50; a share of eval_report_s.p50 on " + FINE, S2),
    ("rotderiv.derivative_step.calls", "count", "eval_report_s.p50", FINE),
    ("rotderiv.derivative_step.busy_s", "s", "eval_report_s.p50", FINE),
    ("rotderiv.beta.calls", "count", "verify_report_s.p50", ADM),
    ("special.gegenbauer_weighted_sum.calls", "count", "roundtrip_s.p50", S2),
    ("special.gegenbauer_weighted_sum.busy_s", "s", "roundtrip_s.p50", S2),
    ("special.dim_harmonic.calls", "count", "eval_report_s.p50, through truncation_degree", FINE),
    ("special.norm_const_a.calls", "count", "roundtrip_s.p50, eval_report_s.p50", S2 + ", " + FINE),
    ("wavelets.modified_wavelet_field.calls", "count", "roundtrip_s.p50", S2),
    ("wavelets.modified_wavelet_field.busy_s", "s", "roundtrip_s.p50", S2),
    ("wavelets.truncation_degree.calls", "count", "eval_report_s.p50, limit_report_s.p50", FINE),
    ("wavelets.truncation_degree.busy_s", "s", "eval_report_s.p50, limit_report_s.p50", FINE),
    ("wavelets.truncation_degree.degrees_scanned", "count", "eval_report_s.p50", FINE),
    ("wavelets.directional_wavelet_field.busy_s", "s", "eval_report_s.p50, limit_report_s.p50", FINE),
    ("admissibility.solve_gamma.calls", "count", "gamma_table_s", ADM),
    ("admissibility.solve_gamma.busy_s", "s", "gamma_table_s", ADM),
    ("admissibility.solve_gamma.newton.busy_s", "s", "gamma_table_s, orders 4-6", ADM),
    ("admissibility.verify_pair_condition1.busy_s", "s", "verify_report_s.p50", ADM),
    ("admissibility.pair_coefficient_sum.calls", "count", "verify_report_s.p50", ADM),
    ("admissibility.pair_coefficient_sum.busy_s", "s", "verify_report_s.p50", ADM),
    ("admissibility.tail_l1_sweep.busy_s", "s", "verify_report_s.p50, n = 2 rows", ADM),
    ("harmonics.gauss_jacobi_rule.calls", "count", "verify_report_s.p50, through the tail sweep", ADM),
    ("harmonics.gauss_jacobi_rule.busy_s", "s", "verify_report_s.p50, through the tail sweep", ADM),
    ("euclid.limit_convergence_probe.busy_s", "s", "limit_report_s.p50", FINE),
    ("euclid.wavelet_at_scaled_point.calls", "count", "limit_report_s.p50", FINE),
    ("euclid.wavelet_at_scaled_point.busy_s", "s", "limit_report_s.p50", FINE),
    ("euclid.euclidean_limit_eval.busy_s", "s", "limit_report_s.p50", FINE),
    ("cli.main.calls", "count", "pass_s", ADM + ", " + FINE),
    ("cli.main.self_s", "s", "pass_s", ADM + ", " + FINE),
    ("cli.report_bytes", "B", "pass_s", ADM + ", " + FINE),
    ("cli.invalid_json_reports", "count", "none: counts reports that are not strict JSON", ADM + ", " + FINE),
    ("trace.overhead_s", "s", "none: traced minus untraced pass_s", "all"),
)


class Tracer:
    """In-memory span recorder with wrappers installed into sphwave's modules."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, attrs]
        self.counts = Counter()
        self._stack = []
        self._installed = []  # (module, attribute, original)
        self.enabled = False

    def _span_wrapper(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                if work is not None:
                    rec[4] = work(args, kwargs, result)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function in every loaded sphwave module."""
        modules = [m for k, m in sys.modules.items() if (k == "sphwave" or k.startswith("sphwave.")) and m]
        for mod_name, fn_name, kind, work in WRAPPED:
            original = getattr(sys.modules["sphwave." + mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._span_wrapper(name, original, work) if kind == SPAN else self._count_wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def open_root(self, name: str, attrs: dict) -> list:
        """Start the span of one benchmark op; library spans below link to it."""
        rec = [name, time.perf_counter_ns(), 0, -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_root(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()


def span_stats(spans) -> dict:
    """Per name: calls, busy seconds, self seconds and summed work attributes."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {}
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": Counter(), "newton_busy_s": 0.0})
        s["calls"] += 1
        s["busy_s"] += (end - start) * 1e-9
        s["self_s"] += (end - start - child_ns[i]) * 1e-9
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    s["work"][key] += value
            if attrs.get("newton"):
                s["newton_busy_s"] += (end - start) * 1e-9
    return stats


def unlinked_spans(spans) -> list:
    """Names of library spans whose parent chain does not reach an op span."""
    bad = set()
    for name, _start, _end, parent, _ in spans:
        if name.startswith("op."):
            continue
        seen = 0
        while parent >= 0 and not spans[parent][0].startswith("op.") and seen < len(spans):
            parent = spans[parent][3]
            seen += 1
        if parent < 0:
            bad.add(name)
    return sorted(bad)


def per_layer_metrics(spans, counts, report_stats: dict, overhead_s: float, passes: int) -> dict:
    """Every per-layer metric, per traced pass; layers not reached read 0."""
    stats = span_stats(spans)
    out = {}
    for name, unit, _moves, _workload in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead_s
        elif name in ("cli.report_bytes", "cli.invalid_json_reports"):
            value = report_stats[name.split(".", 1)[1]] / passes
        else:
            mod, fn, *rest = name.split(".")
            key = ".".join(rest)
            func = f"{mod}.{fn}"
            s = stats.get(func)
            if key == "calls" and func in counts:
                value = counts[func] / passes
            elif s is None:
                value = 0.0 if unit == "s" else 0
            elif key == "newton.busy_s":
                value = s["newton_busy_s"] / passes
            elif key in ("busy_s", "self_s"):
                value = s[key] / passes
            elif key == "calls":
                value = s["calls"] / passes
            else:
                value = s["work"][key] / passes
        out[name] = {"value": value, "unit": unit}
    return out
