"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at its smallest size, untraced and traced, and asserts
that every end-to-end and per-layer metric of BENCHMARK.json is emitted with
its unit, that every per-class workload metric is printed, that every op
passes its oracle, and that each wrapped function the traced run reached left
spans linked through their parents to a benchmark op.  It also checks that
the benchmark fails, without printing a result, when the sphwave sources are
missing.  Takes about 20 seconds on 2 cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import PER_LAYER, WRAPPED  # noqa: E402

DETAIL = {
    "s2_roundtrip": ("roundtrip_s.p50", "rel_l2_error.max"),
    "admissibility_reports": ("gamma_table_s", "verify_report_s.p50", "multiplier_dev.max"),
    "fine_scale_series": ("eval_report_s.p50", "limit_report_s.p50", "series_rel_diff.max"),
}
COMMON = ("setup_s", "pass_s", "peak_rss_mb", "ops_failed_ratio")


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def expect_metrics(got: dict, spec: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), f"{what}: metrics {sorted(set(got) ^ set(want))} missing or extra"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{what}: {name} has unit {got[name]['unit']!r}, expected {unit!r}"
        assert isinstance(got[name]["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _, _ in PER_LAYER], \
        "BENCHMARK.json per_layer differs from tracing.PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == list(DETAIL)
    wrapped = {f"{m}.{f}" for m, f, _, _ in WRAPPED}
    for workload, class_metrics in DETAIL.items():
        proc = run(workload, 0)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, result)
        expect_metrics(result["metrics"], bench["end_to_end"], workload)
        for name in COMMON + class_metrics:
            assert name in detail and detail[name]["unit"], f"{workload}: detail metric {name} missing"

        proc = run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], (workload, result)
        expect_metrics(result["metrics"], bench["per_layer"], workload + " traced")
        traced = json.loads((BENCH_DIR / "_results" / f"{workload}-smoke-trace1.json").read_text())
        reached = set(traced["spans_reached"])
        assert reached and reached <= wrapped, (workload, reached - wrapped)
        assert not traced["unlinked_spans"], (workload, traced["unlinked_spans"])
        if workload == "admissibility_reports":
            transform_spans = {s for s in reached if s.startswith("transform.")} | (reached & {"rotderiv.synthesize_frame"})
            assert transform_spans == {"transform.per_degree_reconstruction_check"}, transform_spans
        print(f"ok {workload}: {len(result['metrics'])} per-layer metrics, spans from {len(reached)} functions")

    # Without the sources beside it the benchmark must fail and print no result.
    bare = BENCH_DIR / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
        proc = run("s2_roundtrip", 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the sphwave sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
