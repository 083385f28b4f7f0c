"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphwave.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _write_csv, main


def run(args):
    return main(args)


def test_eval_writes_matching_columns(tmp_path):
    out = tmp_path / "eval.csv"
    code = run(
        ["eval", "--n", "3", "--order", "1", "--rho", "0.5", "--grid", "8", "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["theta1", "theta2", "value_series", "value_closed"]
    meta = json.loads((tmp_path / "eval.csv.json").read_text())
    assert meta["pass"] is True
    assert meta["max_rel_diff"] < 1e-8
    assert meta["truncation_degree"] > 0


def test_eval_zonal_is_theta2_independent(tmp_path):
    out = tmp_path / "z.csv"
    assert run(["eval", "--n", "2", "--order", "0", "--rho", "0.7", "--grid", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_theta1 = {}
    for t1, _t2, v, _c in rows:
        by_theta1.setdefault(t1, set()).add(v)
    assert all(len(vals) == 1 for vals in by_theta1.values())


def test_eval_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["eval", "--n", "2", "--order", "2", "--rho", "0.4", "--grid", "6", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    ja = json.loads((tmp_path / "a.csv.json").read_text())
    jb = json.loads((tmp_path / "b.csv.json").read_text())
    ja.pop("out"), jb.pop("out")
    assert ja == jb


def test_eval_truncation_cap_exit_code(tmp_path):
    out = tmp_path / "bad.csv"
    code = run(["eval", "--n", "2", "--order", "1", "--rho", "0.0001", "--out", str(out)])
    assert code == 3


def test_coeffs_table(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--n", "3", "--order", "1", "--rho", "0.5", "--band", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,k1,coeff"
    assert len(lines) - 1 == sum(min(l, 1) + 1 for l in range(7))


def test_gamma_report_values(tmp_path):
    out = tmp_path / "gamma.json"
    assert run(["gamma", "--n", "3", "--order", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"] is True
    assert rep["gammas"][0] == 0.0
    assert rep["gammas"][1] == pytest.approx(2.0, rel=1e-12)
    assert rep["gammas"][2] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_gamma_no_solution_exit_code(tmp_path):
    out = tmp_path / "gamma2.json"
    assert run(["gamma", "--n", "2", "--order", "3", "--out", str(out)]) == 3
    rep = json.loads(out.read_text())
    assert rep["solved"] is False
    assert "-8/15" in rep["reason"]
    assert run(["gamma", "--n", "2", "--order", "3", "--report-only", "--out", str(out)]) == 0


def test_verify_report(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--n", "2", "--order", "1", "--band", "20", "--out", str(out)])
    rep = json.loads(out.read_text())
    pair_rows = [c for c in rep["checks"] if c["check"].startswith("pair_condition1")]
    assert len(pair_rows) == 20
    for row in pair_rows:
        assert row["pass"] is True
        assert abs(row["value"] / row["expected"] - 1.0) < 1e-6
    assert {"check", "identity", "value", "expected", "tol", "pass"} <= set(pair_rows[0])
    assert code == 0


def test_transform_round_trip_report(tmp_path):
    out = tmp_path / "rt.json"
    code = run(
        [
            "transform", "--n", "2", "--order", "1", "--band", "4",
            "--rho-steps", "40", "--out", str(out),
        ]
    )
    rep = json.loads(out.read_text())
    assert rep["checks"][0]["value"] < 1e-3
    assert rep["rel_l2_error"] == rep["checks"][0]["value"]
    assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8)
    assert rep["rotation_nodes"] == 9 * 5 * 3
    assert code == 0


def test_transform_rejects_higher_dimensions(tmp_path):
    assert run(["transform", "--n", "3", "--order", "1", "--out", str(tmp_path / "x.json")]) == 2


def test_limit_report(tmp_path):
    out = tmp_path / "lim.json"
    code = run(
        ["limit", "--n", "3", "--order", "2", "--xi-radius", "1.0", "--xi-angle", "0.7",
         "--rho-max", "0.08", "--rho-steps", "4", "--out", str(out)]
    )
    rep = json.loads(out.read_text())
    assert code == 0
    assert rep["errors"] == sorted(rep["errors"], reverse=True)
    for ratio in rep["ratios"]:
        assert 1.5 < ratio < 2.5


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--n", "2"])  # missing --out
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sphwave.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("eval", "coeffs", "gamma", "verify", "transform", "limit"):
        assert sub in proc.stdout


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_are_strict_json(tmp_path):
    runs = {
        "eval.csv.json": ["eval", "--n", "2", "--order", "1", "--grid", "4"],
        "coeffs.csv.json": ["coeffs", "--n", "2", "--order", "1", "--band", "4"],
        "gamma.json": ["gamma", "--n", "3", "--order", "2"],
        "gamma_none.json": ["gamma", "--n", "2", "--order", "3", "--report-only"],
        "verify.json": ["verify", "--n", "2", "--order", "1", "--band", "4"],
        "transform.json": ["transform", "--band", "3", "--rho-steps", "20"],
        "limit.json": ["limit", "--n", "3", "--order", "2"],
    }
    for name, argv in runs.items():
        report = tmp_path / name
        out = str(report).removesuffix(".json") if name.endswith(".csv.json") else str(report)
        assert run(argv + ["--out", out]) == 0, argv
        json.loads(report.read_text(), parse_constant=_reject_constant)


def test_limit_report_has_no_tolerance(tmp_path):
    out = tmp_path / "lim.json"
    assert run(["limit", "--n", "3", "--order", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["tol"] is None


def test_verify_tail_row_states_its_criterion(tmp_path):
    out = tmp_path / "verify.json"
    for order in (1, 2):
        assert run(["verify", "--n", "2", "--order", str(order), "--band", "4", "--out", str(out)]) == 0
        row = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "tail_l1_bounded_sweep")
        assert row["tol"] == 0.2 and row["expected"] == 1.0
        assert row["pass"] is (abs(row["value"] - row["expected"]) < row["tol"])
        assert "non-increasing" in row["identity"]


def _write_csv_per_cell(path, header, rows):
    """The per-cell writer the table writer replaced: repr(float(v)) for floats, str otherwise."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_csv_bytes_match_per_cell_format(tmp_path):
    values = np.array(
        [0.1, -0.0, 1 / 3, 5e-324, -1e-300, 1e22, 123456789.0, math.pi, -2.5e-7, 1.0, 0.0, 7e15]
    ).reshape(4, 3)
    table = np.random.default_rng(3).standard_normal((50, 4)) * np.logspace(-12, 12, 4)
    for header, array in ((["a", "b", "c"], values), (["w", "x", "y", "z"], table)):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        _write_csv_per_cell(old, header, [[float(v) for v in row] for row in array])
        _write_csv(new, header, array.tolist())
        assert new.read_bytes() == old.read_bytes()
    int_rows = [[3, 1, -0.25], [40, 0, 1e-30]]  # the coeffs table mixes ints and floats
    _write_csv_per_cell(old, ["l", "k1", "coeff"], int_rows)
    _write_csv(new, ["l", "k1", "coeff"], int_rows)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--grid", "0"],
        ["eval", "--grid", "-3"],
        ["coeffs", "--band", "0"],
        ["verify", "--band", "0"],
        ["transform", "--band", "0"],
        ["transform", "--rho-steps", "0"],
        ["limit", "--rho-steps", "-1"],
        ["transform", "--band", "2.5"],
    ],
)
def test_size_arguments_must_be_positive_integers(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    assert "expected a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_SCALES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.5, math.inf, -math.inf, math.nan]),
    st.floats(min_value=0.05, max_value=2.0),
)
_SIZES = st.integers(min_value=-2, max_value=6)
_TOLS = st.sampled_from([0.0, -1e-3, math.inf, -math.inf, math.nan, 1e-12, 1e-6, 0.5])
_COORDS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(min_value=-2.0, max_value=2.0))


@st.composite
def _cheap_argv(draw):
    sub = draw(st.sampled_from(["eval", "coeffs", "verify", "transform", "limit"]))
    if sub == "eval":
        order = draw(st.sampled_from([0, 1, 2, 7, 200]))
        return [
            "eval", "--order", str(order), "--rho", repr(draw(_SCALES)), "--grid", str(draw(_SIZES)),
            "--tol", repr(draw(_TOLS)), "--tol-series", repr(draw(_TOLS)),
        ]
    if sub == "coeffs":
        return ["coeffs", "--rho", repr(draw(_SCALES)), "--band", str(draw(_SIZES))]
    if sub == "verify":
        return ["verify", "--n", "3", "--band", str(draw(_SIZES))]
    if sub == "transform":
        return [
            "transform", "--band", str(draw(_SIZES)), "--rho-min", repr(draw(_SCALES)),
            "--rho-max", repr(draw(_SCALES)), "--rho-steps", str(draw(_SIZES)),
        ]
    return [
        "limit", "--rho-max", repr(draw(_SCALES)), "--rho-steps", str(draw(_SIZES)),
        "--xi-radius", repr(draw(_COORDS)), "--xi-angle", repr(draw(_COORDS)),
    ]


@settings(max_examples=60, deadline=None)
@given(argv=_cheap_argv())
@example(argv=["limit", "--xi-radius", "nan"])
@example(argv=["limit", "--xi-radius", "inf"])
@example(argv=["limit", "--xi-angle", "nan"])
@example(argv=["eval", "--tol", "nan"])
@example(argv=["eval", "--tol-series", "inf"])
def test_fuzzed_arguments_exit_cleanly(argv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fuzz")
    out = str(out_dir / "out")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    written = sorted(out_dir.iterdir())
    if code == EXIT_USAGE:
        assert not written, (argv, written)
    for path in written:
        if path.suffix == ".json" or argv[0] not in ("eval", "coeffs"):  # eval and coeffs write a CSV table at out
            json.loads(path.read_text(), parse_constant=_reject_constant)


def test_verify_check_names_are_unique(tmp_path):
    # bands 1-3 map the reconstruction degrees 1, band // 2 or 1, band onto repeats
    out = tmp_path / "verify.json"
    for band in (1, 2, 3):
        assert run(["verify", "--n", "3", "--order", "1", "--band", str(band), "--out", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert len(names) == len(set(names)), names
