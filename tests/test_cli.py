"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphwave.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _cells, _write_csv, build_parser, main
from sphwave.rotderiv import synthesize
from sphwave.special import LambdaParam
from sphwave.wavelets import (
    KIND_HEAT,
    KIND_POISSON,
    WaveletSpec,
    directional_wavelet_field,
    poisson_wavelet_closed,
    truncation_degree,
)


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


def test_eval_whose_weight_underflows_before_certification_exits_3(tmp_path, capsys):
    # at n = 200, rho = 0.5 the weight exp(-rho l) flushes to 0 before the
    # bound certifies a degree; n = 150 certifies L = 1355 before it does
    argv = ["eval", "--order", "1", "--rho", "0.5", "--grid", "3"]
    assert run(argv + ["--n", "200", "--out", str(tmp_path / "big.csv")]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "weight underflows a float" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())
    assert run(argv + ["--n", "150", "--out", str(tmp_path / "ok.csv")]) == EXIT_OK
    assert json.loads((tmp_path / "ok.csv.json").read_text())["truncation_degree"] == 1355


def test_coeffs_table(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--n", "3", "--order", "1", "--rho", "0.5", "--band", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,k1,coeff"
    assert len(lines) - 1 == sum(min(l, 1) + 1 for l in range(7))


def test_coeffs_whose_seed_leaves_the_floats_exits_2_and_writes_nothing(tmp_path, capsys):
    # at n = 250 the seed sqrt(N(n, l)) / sigma overflows from l = 1757 on,
    # where exp(-rho l) is 0: the table once held 244 nan cells, exit 0
    argv = ["coeffs", "--n", "250", "--order", "1", "--band", "2000", "--rho", "0.5", "--out", str(tmp_path / "c.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == EXIT_USAGE
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == "error: wavelet coefficient of degree l=1757 is not a finite float at n=250\n"
    assert not list(tmp_path.iterdir())


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
    assert rep["rel_l2_error"] == pytest.approx(rep["predicted_rel_l2"], rel=1e-8, abs=0.0)
    assert rep["rotation_nodes"] == 9 * 5 * 3
    assert code == 0


def test_verify_rejects_order_zero(tmp_path, capsys):
    # the pair's scale integrals need Gamma(order): order 0 is a usage error, not a math domain error
    out = tmp_path / "v.json"
    assert run(["verify", "--order", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the admissible pair needs order >= 1\n"
    assert not out.exists()


def test_transform_rejects_higher_dimensions(tmp_path):
    assert run(["transform", "--n", "3", "--order", "1", "--out", str(tmp_path / "x.json")]) == 2


def test_transform_infeasible_order_exit_code(tmp_path, capsys):
    # order 3 has no real gamma on S^2: exit 2, the certificate on stderr, no report
    out = tmp_path / "t3.json"
    assert run(["transform", "--order", "3", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: order 3 infeasible")
    assert "-8/15" in err and "Sturm count" in err
    assert not out.exists()


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


@pytest.mark.parametrize("radius", ["1e3", "1e20", "1e100"])
def test_limit_fails_where_the_finest_image_leaves_the_near_hemisphere(radius, tmp_path, capsys):
    # rho_min |xi| >= 2 puts the finest scale's image past theta1 = pi/2, where
    # the errors decrease whatever xi is: the row fails and says why
    out = tmp_path / "lim.json"
    assert run(["limit", "--order", "6", "--xi-radius", radius, "--out", str(out)]) == EXIT_VERIFY
    (row,) = json.loads(out.read_text(), parse_constant=_reject_constant)["checks"]
    assert row["pass"] is False and "near hemisphere" in row["reason"]
    assert "near hemisphere" in capsys.readouterr().out


def test_verify_tail_row_states_its_criterion(tmp_path):
    out = tmp_path / "verify.json"
    for order in (1, 2):
        assert run(["verify", "--n", "2", "--order", str(order), "--band", "4", "--out", str(out)]) == 0
        row = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "tail_l1_bounded_sweep")
        assert row["tol"] == 0.2 and row["expected"] == 1.0
        assert row["pass"] is (abs(row["value"] - row["expected"]) < row["tol"])
        assert "non-increasing" in row["identity"]


def test_verify_builds_no_gauss_rule(tmp_path, monkeypatch):
    # the tail norms are exact sums at the kernel's sign changes: no quadrature
    # rule is built, and the plateau is the exact flat-space limit
    import sphwave
    import sphwave.admissibility as adm

    def no_rule(*args):
        raise AssertionError("verify built a Gauss rule")

    for module in vars(sphwave).values():
        for name in ("gauss_jacobi_rule", "gauss_gegenbauer"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_rule)
    out = tmp_path / "verify.json"
    assert run(["verify", "--n", "2", "--order", "1", "--band", "3", "--out", str(out)]) == 0
    row = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "tail_l1_bounded_sweep")
    lp = LambdaParam(2)
    plateau = adm.tail_l1_plateau(lp, 1)
    assert row["value"] == plateau / adm.tail_l1_sweep(lp, 1, [0.03])[0]
    assert row["pass"] and row["value"] == pytest.approx(1.150053, abs=5e-7)


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
        _write_csv(new, header, [_cells(col) for col in array.T.tolist()])
        assert new.read_bytes() == old.read_bytes()
    int_rows = [[3, 1, -0.25], [40, 0, 1e-30]]  # the coeffs table mixes ints and floats
    _write_csv_per_cell(old, ["l", "k1", "coeff"], int_rows)
    _write_csv(new, ["l", "k1", "coeff"], [_cells(col) for col in zip(*int_rows)])
    assert new.read_bytes() == old.read_bytes()


def _eval_table_per_cell(path, n, kind, order, rho, grid):
    """The eval table built point by point: meshgrid synthesis, one formatted cell per grid value."""
    lp = LambdaParam(n)
    spec = WaveletSpec(lp=lp, kind=kind, order=order, rho=rho)
    field = directional_wavelet_field(spec, L=truncation_degree(spec, 1e-10))
    theta1 = np.linspace(0.0, np.pi, grid + 2)[1:-1]
    theta2 = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    t1g, t2g = np.meshgrid(theta1, theta2, indexing="ij")
    columns = [t1g, t2g, synthesize(field, t1g, t2g)]
    header = ["theta1", "theta2", "value_series"]
    if kind == KIND_POISSON:
        columns.append(poisson_wavelet_closed(spec, t1g, t2g))
        header.append("value_closed")
    _write_csv_per_cell(path, header, np.stack([c.ravel() for c in columns], axis=1).tolist())


@pytest.mark.parametrize(
    "n, kind, order, rho, grid",
    [
        (2, KIND_POISSON, 0, 0.3, 7),
        (3, KIND_POISSON, 1, 0.2, 9),
        (4, KIND_POISSON, 2, 0.4, 6),
        (2, KIND_POISSON, 3, 0.25, 5),
        (4, KIND_POISSON, 3, 0.3, 11),
        (3, KIND_POISSON, 2, 0.5, 1),
        (2, KIND_POISSON, 1, 0.05, 1),
        (2, KIND_HEAT, 2, 0.1, 8),
        (4, KIND_HEAT, 1, 0.3, 5),
    ],
)
def test_eval_separable_table_matches_per_cell_table(tmp_path, n, kind, order, rho, grid):
    out, ref = tmp_path / "eval.csv", tmp_path / "ref.csv"
    argv = ["eval", "--n", str(n), "--kind", kind, "--order", str(order), "--rho", repr(rho), "--grid", str(grid)]
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    _eval_table_per_cell(ref, n, kind, order, rho, grid)
    assert out.read_bytes() == ref.read_bytes()


def test_cached_parser_reports_match_fresh_parser(tmp_path, capsys):
    calls = [
        ["eval", "--n", "3", "--order", "2", "--rho", "0.3", "--grid", "5"],
        ["verify", "--n", "2", "--order", "1", "--band", "3"],
    ]
    reports = {}
    for label in ("fresh", "cached"):
        build_parser.cache_clear()
        if label == "cached":
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--grid", "0", "--out", str(tmp_path / "bad")])
            assert exc.value.code == EXIT_USAGE
            assert not (tmp_path / "bad").exists()
        for i, argv in enumerate(calls):
            if label == "fresh":
                build_parser.cache_clear()
            out = tmp_path / label / f"r{i}"
            out.parent.mkdir(exist_ok=True)
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            files = sorted(out.parent.glob(f"r{i}*"))
            reports[label, i] = [(f.name, f.read_bytes().replace(str(out).encode(), b"OUT")) for f in files]
    assert build_parser() is build_parser()
    for i in range(len(calls)):
        assert reports["cached", i] == reports["fresh", i]
    capsys.readouterr()


@pytest.mark.parametrize("order, rho_max", [(3, "0.008"), (5, "0.08")])
def test_series_beyond_truncation_cap_fails_where_limit_succeeds(order, rho_max, tmp_path, capsys):
    # the probe's finest scale, rho_max / 8, is beyond the series' degree cap:
    # eval, which sums the series, ends with exit 3 and writes nothing
    bad = tmp_path / "bad" / "eval.csv"
    bad.parent.mkdir()
    code = run(["eval", "--n", "2", "--order", str(order), "--rho", repr(float(rho_max) / 8), "--out", str(bad)])
    assert code == EXIT_VERIFY
    assert "degree cap" in capsys.readouterr().err
    assert not list(bad.parent.iterdir())
    # limit evaluates the closed form and converges at the same scales
    out = tmp_path / "lim.json"
    assert run(["limit", "--n", "2", "--order", str(order), "--rho-max", rho_max, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["rho"][-1] == float(rho_max) / 8
    assert report["failures"] == 0
    assert report["empirical_order"] == pytest.approx(1.0, abs=0.05)


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
        ["transform", "--rho-steps", "1"],
        ["limit", "--rho-steps", "1"],
    ],
)
def test_size_arguments_must_be_positive_integers(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "expected a positive integer" in err
    assert f"argument {argv[1]}:" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--tol", "1e-3"],
        ["gamma", "--tol", "1e-3"],
        ["limit", "--tol", "1e-3"],
        ["coeffs", "--report-only"],
    ],
    ids=lambda a: "-".join(a[:2]),
)
def test_flags_a_subcommand_never_reads_are_rejected(argv, tmp_path, capsys):
    # coeffs, gamma and limit apply no tolerance, and coeffs has no check that can fail
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
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
        elif argv[0] == "coeffs":
            assert np.all(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))), argv


_BAD_SCALES = st.sampled_from([0.0, -0.0, -0.5, math.inf, -math.inf, math.nan])
_FUZZ_SCALES = st.one_of(_BAD_SCALES, st.floats(min_value=1e-3, max_value=4.0))
_FUZZ_RHO_MIN = st.one_of(_BAD_SCALES, st.floats(min_value=1e-6, max_value=0.1))
_FUZZ_RHO_MAX = st.one_of(_BAD_SCALES, st.floats(min_value=0.5, max_value=8.0))
_FUZZ_TOLS = st.sampled_from([0.0, -1e-3, math.inf, -math.inf, math.nan, 1e-12, 1e-8, 1e-3, 0.5])
# the radius of a probe point: the origin, a negative radius, squares that underflow or overflow,
# and large finite radii 1e4..1e154, log-uniform, where the profile's xi_2^p overflows at high order
_FUZZ_RADII = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e160, 1e200]),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=4.0, max_value=154.0).map(lambda e: 10.0**e),
)


@st.composite
def _subcommand_argv(draw):
    """Every subcommand over n, order, band, grid, scales and tolerances, bad values included.

    Each option is passed or left at its default by a draw of its own, so a
    bad value in one option does not shadow every other; small spheres, where
    every subcommand runs, and S^2, where transform runs, are drawn as often
    as the whole range.
    """
    sub = draw(st.sampled_from(["eval", "coeffs", "gamma", "verify", "transform", "limit"]))
    n = draw(st.one_of(st.just(2), st.integers(-1, 6), st.integers(-1, 300)))
    argv = [sub, "--n", str(n), "--order", str(draw(st.integers(-2, 8)))]
    options = {
        "eval": {"--kind": st.sampled_from([KIND_POISSON, KIND_HEAT]), "--rho": _FUZZ_SCALES,
                 "--grid": st.integers(1, 6), "--tol": _FUZZ_TOLS, "--tol-series": _FUZZ_TOLS},
        "coeffs": {"--kind": st.sampled_from([KIND_POISSON, KIND_HEAT]), "--rho": _FUZZ_SCALES, "--band": st.integers(1, 12)},
        "gamma": {},
        "verify": {"--band": st.integers(1, 12), "--tol": _FUZZ_TOLS},
        "transform": {"--band": st.integers(1, 12), "--tol": _FUZZ_TOLS, "--rho-min": _FUZZ_RHO_MIN,
                      "--rho-max": _FUZZ_RHO_MAX, "--rho-steps": st.integers(1, 12)},
        "limit": {"--rho-max": _FUZZ_SCALES, "--rho-steps": st.integers(1, 6), "--xi-radius": _FUZZ_RADII,
                  "--xi-angle": st.floats(min_value=-7.0, max_value=7.0)},
    }[sub]
    for flag, values in options.items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag, value if isinstance(value, str) else repr(value)]
    if sub != "coeffs" and draw(st.booleans()):
        argv.append("--report-only")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_subcommand_argv())
@example(argv=["eval", "--n", "200", "--order", "1", "--rho", "0.5", "--grid", "3"])
@example(argv=["eval", "--n", "160", "--order", "1", "--rho", "0.5", "--grid", "3"])
@example(argv=["coeffs", "--n", "250", "--order", "1", "--band", "2000", "--rho", "0.5"])
@example(argv=["coeffs", "--n", "2", "--order", "2", "--rho", "1e155"])
@example(argv=["verify", "--n", "260", "--order", "6", "--band", "12"])
@example(argv=["transform", "--n", "2", "--order", "8", "--band", "12"])
@example(argv=["limit", "--n", "2", "--order", "2", "--xi-radius", "1e160"])
@example(argv=["limit", "--n", "3", "--order", "4", "--xi-radius", "1e200", "--xi-angle", "0.3"])
@example(argv=["limit", "--n", "2", "--order", "6", "--xi-radius", "1e60"])
@example(argv=["limit", "--n", "3", "--order", "5", "--xi-radius", "1e100", "--xi-angle", "2.0"])
def test_every_subcommand_exits_cleanly_on_drawn_arguments(argv, tmp_path_factory):
    # exit 0, 2 or 3, no traceback, strict JSON, and nothing left behind on a usage error
    out_dir = tmp_path_factory.mktemp("fuzz")
    out = str(out_dir / "out")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
    written = sorted(out_dir.iterdir())
    if code == EXIT_USAGE:
        assert not written, (argv, written)
    if argv[0] in ("limit", "coeffs"):
        # no warning at any exit; a usage error leaves one error line (after argparse's usage when it rejects a flag)
        assert not caught, (argv, [str(w.message) for w in caught])
    if argv[0] in ("limit", "coeffs") and code == EXIT_USAGE:
        lines = [line for line in stderr.getvalue().splitlines() if not line.startswith(("usage:", " "))]
        assert len(lines) == 1 and "error:" in lines[0], (argv, stderr.getvalue())
    for path in written:
        if path.suffix == ".json" or argv[0] not in ("eval", "coeffs"):  # eval and coeffs write a CSV table at out
            json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("n", [261, 300, 400])
@pytest.mark.parametrize(
    "argv", [["limit"], ["coeffs"], ["verify", "--order", "1", "--band", "4"], ["eval", "--grid", "3"]], ids=lambda a: a[0]
)
def test_sphere_without_a_normal_surface_measure_is_a_usage_error(n, argv, tmp_path):
    # from n = 261 on, sigma^2 is below the smallest normal float (and Gamma overflows by n = 400)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv + ["--n", str(n), "--out", str(tmp_path / "report")])
    assert code == EXIT_USAGE
    assert "Traceback" not in stderr.getvalue()
    assert stderr.getvalue().startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", [150, 260])
def test_limit_on_large_spheres_writes_strict_json(n, tmp_path):
    # rho^n is folded into the closed form's terms, so no intermediate overflows
    out = tmp_path / "lim.json"
    assert run(["limit", "--n", str(n), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["failures"] == 0


@pytest.mark.parametrize("n", [240, 260])
def test_verify_on_large_spheres_writes_strict_json(n, tmp_path):
    # the kernel seed's squares overflow from n = 240 on; the pair rows read
    # the unit-seed energies u^order, which stay finite
    out = tmp_path / "verify.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(["verify", "--n", str(n), "--out", str(out)])
    assert code == EXIT_OK, stderr.getvalue()
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["failures"] == 0
    rows = [c for c in report["checks"] if c["check"].startswith("pair_condition1")]
    assert len(rows) == 20
    assert all(c["value"] == pytest.approx(c["expected"], rel=1e-9) for c in rows)


@pytest.mark.parametrize(("n", "order", "band"), [(260, 6, 1000), (260, 1, 1300), (240, 1, 1700)])
def test_verify_at_large_bands_passes_or_names_where_n_l_leaves_the_floats(n, order, band, tmp_path):
    # the unit-seed energies stay finite at every band, so these reports pass;
    # N(n, l) itself is past the float range from l = 1617 at n = 240, which
    # ends the report as a usage error
    out = tmp_path / "verify.json"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--n", str(n), "--order", str(order), "--band", str(band), "--out", str(out)])
    if n == 240:
        assert code == EXIT_USAGE
        assert stderr.getvalue() == "error: N(n, l) is past the float range from l=1617 on at n=240; verify bands up to 1616\n"
        assert not list(tmp_path.iterdir())
        return
    assert code == EXIT_OK, stderr.getvalue()
    assert stderr.getvalue() == ""
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["failures"] == 0 and len(report["checks"]) == band + 3


def test_limit_value_beyond_the_float_range_is_a_usage_error(tmp_path):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["limit", "--n", "200", "--rho-max", "50", "--out", str(tmp_path / "lim.json")])
    assert code == EXIT_USAGE
    assert stderr.getvalue().startswith("error:") and "does not evaluate to a finite float" in stderr.getvalue()
    assert not list(tmp_path.iterdir())


def test_verify_check_names_are_unique(tmp_path):
    # bands 1-3 map the reconstruction degrees 1, band // 2 or 1, band onto repeats
    out = tmp_path / "verify.json"
    for band in (1, 2, 3):
        assert run(["verify", "--n", "3", "--order", "1", "--band", str(band), "--out", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert len(names) == len(set(names)), names


@pytest.mark.parametrize(("n", "band"), [(235, 12), (244, 4)])
def test_verify_closed_path_stays_finite_at_order_6(n, band, tmp_path):
    # a closed path with u^order formed before (2 lam / u)^order cancelled it
    # overflowed to inf here and failed rows whose quadrature matched N(n, l);
    # that path was the divisor (n-1)^order Gamma(order) itself and is gone
    out = tmp_path / "verify.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(["verify", "--n", str(n), "--order", "6", "--band", str(band), "--out", str(out)])
    assert code == EXIT_OK, stderr.getvalue()
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["failures"] == 0 and len(report["checks"]) == band + 3


@pytest.mark.parametrize("stage", ["synthesize", "_csv_text"])
def test_eval_out_of_memory_is_a_usage_error_that_writes_nothing(stage, tmp_path, monkeypatch):
    # a grid too large for memory (eval --grid 100000 asks numpy for 74.5 GiB)
    # ends like any usage error; the failure is simulated, nothing large is allocated
    import sphwave.cli as cli_module

    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli_module, stage, no_memory)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["eval", "--grid", "7", "--out", str(tmp_path / "eval.csv")])
    assert code == EXIT_USAGE
    assert stderr.getvalue() == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"
    assert not list(tmp_path.iterdir())
