"""Closed-loop benchmark of sphwave.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sphwave is imported from its ``src``
directory.  One caller runs the workload's fixed op list pass after pass, each
op after the previous one returned, until the time is up (at least two
passes, so that report bytes can be compared within the run).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of the
traced passes, per pass, with the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds every per-class workload metric with its sample
count.  Results, report hashes and spans go to perfbench/_results/.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is imported, so reductions keep a
# fixed order and accuracy figures repeat bit for bit.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "_results"
SETUP_PROBES = 5
# The end-to-end metrics of BENCHMARK.json; the detail line holds the rest.
GATED = ("setup_s", "pass_s", "peak_rss_mb")
MIN_PASSES = 2


def import_sphwave():
    """Import sphwave (with its CLI) from this checkout's src, nowhere else."""
    if not (SRC / "sphwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no sphwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sphwave
    import sphwave.cli  # noqa: F401

    if Path(sphwave.__file__).resolve().parent != SRC / "sphwave":
        raise SystemExit(f"error: sphwave imported from {sphwave.__file__}, not from {SRC}")
    return sphwave


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: smallest inputs, for selfcheck.py")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SetupProbe:
    """Times fresh interpreters that import sphwave and build the workload's inputs.

    The probes are spread over the run, one before each pass, so that their
    median sees the same machine as the passes do.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size, "--setup-probe"]
        self.times = []

    def probe(self) -> None:
        if len(self.times) < SETUP_PROBES:
            t0 = time.perf_counter()
            subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
            self.times.append(time.perf_counter() - t0)

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def _median(values):
    return statistics.median(values) if values else None  # None: every op of the class failed


def latency_entry(metric: str, values: list) -> dict:
    """Median with its sample count, plus the highest percentile that still has
    ten samples beyond it, where there are enough samples for one."""
    entry = {"value": _median(values), "unit": "s", "n": len(values)}
    n = len(values)
    if n >= 20:
        pct = 100 * (n - 10) // n
        entry[metric.replace("p50", f"p{pct}")] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return entry


class Runner:
    """Runs passes over one workload's op list and applies every oracle."""

    def __init__(self, workload, workloads_mod, tracer=None):
        self.w = workload
        self.wm = workloads_mod
        self.tracer = tracer
        self.attempted = 0
        self.failures = []  # (pass, config, message)
        self.op_times = {op.config: [] for op in workload.ops}
        self.hashes = {}  # config -> first report digest
        self.report_bytes = 0  # both counted over the traced passes only
        self.invalid_json = 0
        self._traced = False

    def run_pass(self, index: int, traced: bool) -> float:
        busy = 0.0
        self._traced = traced
        sink = io.StringIO()
        for op in self.w.ops:
            self.wm.clear_outputs(op)
            self.attempted += 1
            root = self.tracer.open_root("op." + op.cls, {"config": op.config, "pass": index}) if traced else None
            if traced:
                self.tracer.enabled = True
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t0 = time.perf_counter()
                    result = op.call()
                    dt = time.perf_counter() - t0
            except Exception:  # an op that raises is a failed op; the run goes on
                self.failures.append((index, op.config, traceback.format_exc(limit=3)))
                continue
            finally:
                if traced:
                    self.tracer.enabled = False
                    self.tracer.close_root(root)
                sink.seek(0)
                sink.truncate()
            busy += dt
            self.op_times[op.config].append(dt)
            try:
                problems = op.check(result)
                problems += self._check_reports(op)
            except Exception:  # a malformed output is a failed op
                problems = [traceback.format_exc(limit=3)]
            for msg in problems:
                self.failures.append((index, op.config, msg))
        return busy

    def _check_reports(self, op) -> list:
        if not op.outputs:
            return []
        digest, size = self.wm.report_digest(op.outputs)
        if self._traced:
            self.report_bytes += size
            self.invalid_json += op.record.get("strict_json") is False
        first = self.hashes.setdefault(op.config, digest)
        if first != digest:
            return [f"report bytes differ from the first pass ({digest[:12]} vs {first[:12]})"]
        return []

    @property
    def failed_ops(self) -> int:
        return len({(p, c) for p, c, _ in self.failures})


def run_passes(runner, seconds: float, traced_plan, before_pass=None) -> dict:
    """Run passes until the time is up; traced_plan(i) says whether pass i is traced."""
    t_start = time.perf_counter()
    times = {False: [], True: []}
    longest = 0.0
    i = 0
    while i < MIN_PASSES or time.perf_counter() - t_start + longest <= seconds:
        traced = traced_plan(i)
        t0 = time.perf_counter()
        if before_pass is not None:
            before_pass()
        if traced:
            runner.tracer.install()
        try:
            busy = runner.run_pass(i, traced)
        finally:
            if traced:
                runner.tracer.restore()
        longest = max(longest, time.perf_counter() - t0)
        times[traced].append(busy)
        i += 1
    return times


def workload_detail(runner, w, pass_times, setup_times, peak_rss_mb) -> dict:
    """Every end-to-end figure of the workload under its per-class name."""
    # A typical pass: each op's median over the passes, summed.  Per-op
    # medians drop an op that a slow spell of the machine hit in one pass.
    typical_pass = sum(statistics.median(runner.op_times[op.config]) for op in w.ops if runner.op_times[op.config])
    detail = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "n": len(setup_times)},
        "pass_s": {"value": typical_pass, "unit": "s", "n": len(pass_times)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ops_failed_ratio": {"value": runner.failed_ops / runner.attempted, "unit": "ratio", "n": runner.attempted},
    }
    for cls, metric in w.class_metric.items():
        configs = [op.config for op in w.ops if op.cls == cls]
        if metric.endswith(".p50"):
            detail[metric] = latency_entry(metric, [t for c in configs for t in runner.op_times[c]])
        else:  # one figure per pass: the sum over the class's ops, median over passes
            per_pass = [sum(v) for v in zip(*(runner.op_times[c] for c in configs))]
            detail[metric] = {"value": _median(per_pass), "unit": "s", "n": len(per_pass)}
    name, key = w.accuracy
    values = [op.record[key] for op in w.ops if key in op.record]
    detail[name] = {"value": max(values) if values else None, "unit": "ratio", "n": len(values)}
    return detail


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_sphwave()
    import workloads as wm

    if args.workload not in wm.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(wm.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wm.build(args.workload, args.seed, args.size)
    if args.setup_probe:
        return 0

    tag = f"{args.workload}-{args.size}-trace{args.trace}"
    work = BENCH_DIR / "_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(w, wm, tracer)
    cwd = os.getcwd()
    os.chdir(work)  # reports embed their --out path, so it is relative to a fixed directory
    try:
        if args.trace:
            times = run_passes(runner, args.seconds, lambda i: i % 2 == 1)
        else:
            setup = SetupProbe(args)
            times = run_passes(runner, args.seconds, lambda i: False, setup.probe)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "environment": environment(),
        "inputs": w.meta,
        "ops": [
            {"class": op.cls, "config": op.config, "seconds": runner.op_times[op.config],
             "report_sha256": runner.hashes.get(op.config), **op.record}
            for op in w.ops
        ],
        "pass_s": {"untraced": times[False], "traced": times[True]},
        "failures": [{"pass": p, "config": c, "message": m} for p, c, m in runner.failures],
    }
    if args.trace == 0:
        detail = workload_detail(runner, w, times[False], setup.finish(), peak_rss_mb)
        metrics = {name: {"value": detail[name]["value"], "unit": detail[name]["unit"]} for name in GATED}
        results["detail"] = detail
    else:
        from tracing import per_layer_metrics, unlinked_spans

        overhead = statistics.median(times[True]) - statistics.median(times[False])
        report_stats = {"report_bytes": runner.report_bytes, "invalid_json_reports": runner.invalid_json}
        metrics = per_layer_metrics(tracer.spans, tracer.counts, report_stats, overhead, len(times[True]))
        results["spans_reached"] = sorted({s[0] for s in tracer.spans if not s[0].startswith("op.")})
        results["counts"] = dict(tracer.counts)
        results["unlinked_spans"] = unlinked_spans(tracer.spans)
        detail = {"passes_untraced": len(times[False]), "passes_traced": len(times[True]),
                  "spans": len(tracer.spans), "unlinked_spans": results["unlinked_spans"]}
    results["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(results, fh, indent=1)
    if tracer is not None:
        with open(RESULTS / f"{tag}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"], "spans": tracer.spans}, fh)

    for p, c, m in runner.failures[:20]:
        print(f"FAILED pass {p} {c}: {m}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "environment": results["environment"], "detail": detail}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
