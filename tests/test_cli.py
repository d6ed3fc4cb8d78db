"""Command-line interface: exit codes, report shape, determinism, CSV output."""

import json
import subprocess
import sys

import numpy as np
import pytest

from finslerkit import cli, gallery
from finslerkit.cli import main
from finslerkit.curvature import riemann
from finslerkit.errors import MetricError
from finslerkit.spray import randers_spray


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_and_reports(capsys):
    code, out, err = run_cli(["verify", "euclidean:n=2", "--points", "40", "--seed", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["metric"] == "euclidean"
    assert report["seed"] == 7
    for check in report["checks"]:
        assert {"check_id", "claim", "n_samples", "seed", "max_residual", "tolerance", "passed"} <= set(check)


def test_verify_reports_are_byte_stable(capsys):
    code1, out1, _ = run_cli(["verify", "slab:kappa=0.4", "--points", "30"], capsys)
    code2, out2, _ = run_cli(["verify", "slab:kappa=0.4", "--points", "30"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_code(capsys):
    # an unattainable tolerance forces a verification failure (exit 1)
    code, out, _ = run_cli(
        ["verify", "euclidean:n=2", "--points", "20", "--tol", "f_homogeneity=1e-30"], capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_usage_errors_exit_two(capsys):
    assert run_cli(["verify", "nonsense"], capsys)[0] == 2
    assert run_cli(["verify", "slab:kappa=oops"], capsys)[0] == 2
    assert run_cli(["curvature", "funk", "--at", "0.1", "--dir", "1,0"], capsys)[0] == 2


@pytest.mark.parametrize("spec,named", [
    ("funk:m=2", "has no parameter 'm'; funk accepts: n"),
    ("rotation2d:n=2", "has no parameter 'n'; rotation2d accepts: no parameters"),
    ("euclidean:n=2.0", "needs an integer n, got 2.0; euclidean accepts: n"),
    ("cylinder:n=3.5", "needs an integer n, got 3.5; cylinder accepts: n"),
], ids=["unknown-parameter", "no-parameters", "float-n", "fractional-n"])
def test_a_mistyped_metric_spec_is_a_usage_error(spec, named, capsys):
    code, out, err = run_cli(["verify", spec], capsys)
    assert code == 2 and out == ""
    assert f"metric spec {spec!r} {named}" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["euclidean", "minkowski", "funk", "shen_flat"])
def test_a_one_dimensional_spec_is_a_usage_error(name, capsys):
    # a 1-D entry has no flags, so the battery could not run its curvature checks
    code, out, err = run_cli(["verify", f"{name}:n=1", "--points", "10"], capsys)
    assert code == 2 and out == ""
    assert f"{name} requires n >= 2, got n=1" in err and "Traceback" not in err


def test_a_repeated_spec_parameter_is_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "funk:n=2,n=3", "--points", "10"], capsys)
    assert code == 2 and out == ""
    assert "repeated parameter 'n' in metric spec 'funk:n=2,n=3'" in err and "Traceback" not in err


@pytest.mark.parametrize("metric", ["euclidean:n=2", "shen_flat"])
def test_zero_direction_is_a_usage_error(metric, capsys):
    code, out, err = run_cli(["curvature", metric, "--at", "0.1,0", "--dir", "0,0"], capsys)
    assert code == 2
    assert out == ""
    assert "--dir" in err


def test_geodesic_zero_direction_is_a_usage_error(capsys):
    code, out, err = run_cli(
        ["geodesic", "funk", "--from", "0,0", "--dir", "0,0", "--time", "0.01", "--dt", "0.005"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--dir" in err


def test_navigate_zero_direction_is_a_usage_error(capsys):
    code, out, err = run_cli(
        ["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "0.1,0", "--dir", "0,0"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--dir" in err


def test_scan_zero_direction_is_a_usage_error(capsys):
    code, out, err = run_cli(
        ["scan", "rotation2d", "--quantity", "Ric", "--grid", "x=-0.4:0.4:3,y=-0.4:0.4:3",
         "--dir", "0,0"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--dir" in err


def test_unknown_tolerance_override_is_a_usage_error(capsys):
    code, out, err = run_cli(
        ["verify", "euclidean:n=2", "--points", "20", "--tol", "riemann_zer0=1e-30"], capsys
    )
    assert code == 2
    assert out == ""
    assert "riemann_zer0" in err and "riemann_zero" in err


NAVIGATE = ["navigate", "--alpha", "euclidean:n=2", "--at", "0,0", "--dir", "1,0", "--drift"]


@pytest.mark.parametrize("argv,named", [
    (["verify", "funk:n=2", "--points", "20", "--tol", "flag_constant=abc"], "--tol flag_constant"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:0.5:a,y=0:0.5:2"], "--grid axis 'x' count"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:0.5:2,y=0:b:2"], "--grid axis 'y'"),
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "constant:v1=abc"], "--drift component v1"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:1:2,y=0:1:-1"],
     "--grid axis 'y' count must be at least 1, got -1"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:1:0,y=0:1:2"],
     "--grid axis 'x' count must be at least 1, got 0"),
    (NAVIGATE + ["constant:x1=0.5"], "unknown drift component 'x1'"),
    (NAVIGATE + ["constant:v1=0.5,v3=0.2"], "unknown drift component 'v3'"),
    (NAVIGATE + ["constant:v1=0.5,v2=0.2,v1=0.1"], "drift component v1 given twice"),
    (NAVIGATE + ["rotation:foo"], "got 'foo'"),
    (NAVIGATE + ["radial:v1=0.5"], "got 'v1=0.5'"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:1:2,x=0:1:2"],
     "--grid axis 'x' needs a name of its own"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "=0:1:2,y=0:1:2"],
     "--grid axis '' needs a name of its own"),
], ids=["tol", "grid-count", "grid-bound", "drift", "grid-count-negative", "grid-count-zero",
        "drift-unknown", "drift-beyond-dim", "drift-repeated", "drift-rotation-text", "drift-radial-text",
        "grid-repeated", "grid-unnamed"])
def test_a_malformed_number_names_its_option(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv,named", [
    (["curvature", "euclidean:n=2", "--at", "nan,0", "--dir", "1,0"], "--at"),
    (["curvature", "euclidean:n=2", "--at", "0,0", "--dir", "inf,0"], "--dir"),
    (["curvature", "rotation2d", "--at", "0.1,0", "--dir", "1,0", "--flag", "0,-inf"], "--flag"),
    (["geodesic", "euclidean:n=2", "--from", "0,nan", "--dir", "1,0"], "--from"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:inf:3,y=0:1:2"], "--grid axis 'x'"),
    (["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=0:1:3,y=-inf:1:2"], "--grid axis 'y'"),
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "constant:v1=nan"], "--drift component v1"),
    (["verify", "funk:n=2", "--points", "20", "--tol", "flag_constant=inf"], "--tol flag_constant"),
], ids=["at-nan", "dir-inf", "flag-inf", "from-nan", "grid-hi-inf", "grid-lo-inf", "drift-nan", "tol-inf"])
def test_a_non_finite_number_is_a_usage_error_naming_its_option(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"{named} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,where", [
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "5,0"], "(5.0, 0.0)"),
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "5,0", "--dir", "1,0"],
     "(5.0, 0.0)"),
    (["curvature", "funk", "--at", "2,0", "--dir", "1,0"], "(2.0, 0.0)"),
], ids=["navigate", "navigate-dir", "curvature"])
def test_a_point_outside_the_chart_is_a_domain_error(argv, where, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert f"DomainError: point {where} outside domain" in err


GEODESIC = ["geodesic", "euclidean:n=2", "--from", "0,0", "--dir", "1,0"]


@pytest.mark.parametrize(
    "extra", [["--time", "inf"], ["--dt", "inf"], ["--dt", "nan"], ["--time", "nan"]],
    ids=["time-inf", "dt-inf", "dt-nan", "time-nan"],
)
def test_geodesic_non_finite_time_or_step_is_a_usage_error(extra, capsys):
    code, out, err = run_cli(GEODESIC + extra, capsys)
    assert code == 2 and out == ""
    assert "must be finite" in err


def test_geodesic_at_time_zero_prints_the_start_alone(capsys):
    code, out, _ = run_cli(GEODESIC + ["--time", "0", "--dt", "0.5"], capsys)
    assert code == 0
    assert out.splitlines() == ["t,x1,x2,v1,v2,F,boundary_exit", "0.0,0.0,0.0,1.0,0.0,1.0,0"]


@pytest.mark.parametrize("argv,named", [
    (["geodesic", "euclidean:n=2", "--from", "0,0", "--dir", "1,0,0"], "--dir"),
    (["geodesic", "euclidean:n=2", "--from", "0,0,0", "--dir", "1,0"], "--from"),
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "0,0,0"], "--at"),
    (["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--dir", "1"], "--dir"),
    (["curvature", "funk", "--at", "0.1,0", "--dir", "1,0", "--flag", "0,1,0"], "--flag"),
], ids=["geodesic-dir", "geodesic-from", "navigate-at", "navigate-dir", "curvature-flag"])
def test_a_vector_of_the_wrong_dimension_is_a_usage_error(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"{named} must have dimension 2" in err


def test_curvature_query(capsys):
    code, out, _ = run_cli(
        ["curvature", "funk", "--at", "0.1,0", "--dir", "0,1", "--flag", "1,0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["flag_curvature"] == pytest.approx(-0.25, abs=1e-7)
    assert np.array(payload["riemann"]).shape == (2, 2)
    assert "s_curvature" in payload


def test_curvature_rotation_is_flat(capsys):
    code, out, _ = run_cli(
        ["curvature", "rotation2d", "--at", "0.3,0.4", "--dir", "1,1"], capsys
    )
    payload = json.loads(out)
    assert np.max(np.abs(payload["riemann"])) <= 1e-9
    assert abs(payload["s_curvature"]) <= 1e-9


def test_geodesic_csv(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        ["geodesic", "funk", "--from", "0,0", "--dir", "0.5,0.25",
         "--time", "0.5", "--dt", "0.01", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2,F,boundary_exit"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    speeds = data[:, 5]
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-6 * speeds[0]
    # straight chord: x2/x1 constant
    mask = data[:, 1] != 0
    ratios = data[mask, 2] / data[mask, 1]
    assert np.max(np.abs(ratios - 0.5)) <= 1e-9


def test_geodesic_boundary_exit_flag(tmp_path, capsys):
    out_path = tmp_path / "exit.csv"
    code, _, _ = run_cli(
        ["geodesic", "rotation2d", "--from", "0.8,0", "--dir", "1,0",
         "--time", "2.0", "--dt", "0.01", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[-1].endswith(",1")
    assert all(line.endswith(",0") for line in lines[1:-1])


def test_scan_grid(capsys):
    code, out, _ = run_cli(
        ["scan", "rotation2d", "--quantity", "Ric", "--grid", "x=-0.4:0.4:3,y=-0.4:0.4:3",
         "--dir", "1,0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    vals = np.array(payload["values"], dtype=float)
    assert vals.shape == (3, 3)
    assert np.nanmax(np.abs(vals)) <= 1e-8


def _scan(args, capsys):
    code, out, _ = run_cli(["scan"] + args, capsys)
    assert code == 0
    payload = json.loads(out)
    axes = [np.array(a["values"]) for a in payload["axes"]]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = np.array(payload["values"], dtype=object).ravel()
    return pts, values


def test_scan_off_domain_sites_are_null_and_the_rest_match_per_point(capsys):
    entry = gallery.funk(2)
    G = randers_spray(entry.randers)
    pts, values = _scan(
        ["funk", "--quantity", "Ric", "--grid", "x=-1.1:1.1:6,y=-1.1:1.1:6", "--dir", "1,0.5"], capsys
    )
    inside = [entry.metric.domain.contains(p) for p in pts]
    assert 0 < sum(inside) < len(pts)
    for p, v, ins in zip(pts, values, inside):
        if not ins:
            assert v is None
        else:
            assert v == pytest.approx(riemann(G, list(p), [1.0, 0.5]).ricci, rel=1e-12, abs=1e-12)


def test_scan_degenerate_flag_gives_all_null_grid(capsys):
    _, values = _scan(
        ["rotation2d", "--quantity", "K", "--grid", "x=-0.4:0.4:3,y=-0.4:0.4:3",
         "--dir", "1,1", "--flag", "1,1"], capsys
    )
    assert all(v is None for v in values)


def test_scan_falls_back_to_single_sites_when_a_chunk_fails(monkeypatch, capsys):
    real = cli.s_curvature

    def failing_right_half(G, sigma, x, y):
        if np.any(np.asarray(x[0]) > 0.1):
            raise MetricError("right half")
        return real(G, sigma, x, y)

    monkeypatch.setattr(cli, "s_curvature", failing_right_half)
    pts, values = _scan(
        ["rotation2d", "--quantity", "S", "--grid", "x=-0.4:0.4:5,y=-0.4:0.4:3"], capsys
    )
    for p, v in zip(pts, values):
        assert (v is None) == (p[0] > 0.1)
        if v is not None:
            assert abs(v) <= 1e-8


def test_navigate_zero_drift(capsys):
    code, out, _ = run_cli(
        ["navigate", "--alpha", "euclidean:n=2", "--drift", "constant:v1=0,v2=0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["a_tilde"], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(payload["b_tilde"], np.zeros(2), atol=1e-14)


def test_navigate_rotation_reproduces_disk_tables(capsys):
    code, out, _ = run_cli(
        ["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "0.3,0.4"],
        capsys,
    )
    payload = json.loads(out)
    np.testing.assert_allclose(payload["b_tilde"], [0.4 / 0.75, -0.3 / 0.75], atol=1e-12)
    assert payload["a_tilde"][0][0] == pytest.approx((1 - 0.09) / 0.75**2, abs=1e-12)


def test_navigate_takes_every_riemannian_source_on_the_unit_ball(capsys):
    # the slab plane at kappa = 0 is R^2: the same source as euclidean:n=2
    payloads = []
    for alpha in ("euclidean:n=2", "slab:kappa=0"):
        code, out, _ = run_cli(
            ["navigate", "--alpha", alpha, "--drift", "rotation", "--at", "0.3,0.4", "--dir", "1,0"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("alpha") == alpha
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_navigate_radial_gives_funk_coefficients(capsys):
    code, out, _ = run_cli(
        ["navigate", "--alpha", "euclidean:n=2", "--drift", "radial",
         "--at", "0.2,-0.3", "--dir", "1,0.5"],
        capsys,
    )
    payload = json.loads(out)
    lam = 1 - (0.04 + 0.09)
    np.testing.assert_allclose(payload["b_tilde"], [0.2 / lam, -0.3 / lam], atol=1e-12)
    assert payload["F_tilde_closed_form"] == pytest.approx(payload["F_tilde_root_solve"], abs=1e-10)


def test_navigate_check_volume_is_exact_and_seed_free(capsys):
    argv = ["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--at", "0.3,0.4",
            "--check-volume"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert "seed" not in payload
    vol = payload["volume_preservation"]
    assert set(vol) == {"sigma_source", "sigma_source_error", "sigma_navigation",
                        "sigma_navigation_error", "rel_gap", "method"}
    assert vol["method"] == "radial-quadrature"
    assert np.isfinite(vol["rel_gap"]) and vol["rel_gap"] <= 1e-12
    assert vol["sigma_navigation"] == pytest.approx(1.0, abs=1e-12)
    code, _, err = run_cli(argv + ["--seed", "1"], capsys)
    assert code == 2 and "--seed" in err


def test_scan_with_zero_torsion_samples_is_a_usage_error(capsys):
    code, _, err = run_cli(
        ["scan", "slab:kappa=0.5", "--quantity", "cartan", "--grid", "x=-1:1:3,y=-1:1:3", "--samples", "0"],
        capsys,
    )
    assert code == 2 and "at least 1 sample" in err


@pytest.mark.parametrize("points", [0, 5, 1])
def test_verify_with_fewer_than_10_points_is_a_usage_error(points, capsys):
    code, out, err = run_cli(["verify", "euclidean:n=2", "--points", str(points)], capsys)
    assert code == 2 and out == ""
    assert f"at least 10 points, got {points}" in err


def test_navigate_has_no_samples_option(capsys):
    code, _, err = run_cli(
        ["navigate", "--alpha", "euclidean:n=2", "--drift", "rotation", "--samples", "10"], capsys
    )
    assert code == 2 and "--samples" in err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkit.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "finsler" in proc.stdout


SMALL_SCAN = ["scan", "euclidean:n=2", "--quantity", "K", "--grid", "x=-0.1:0.1:2,y=-0.1:0.1:2"]


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("FINSLER_SEED", "123")
    code, out, _ = run_cli(SMALL_SCAN, capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_a_malformed_env_seed_is_a_usage_error_only_where_it_is_read(monkeypatch, capsys):
    monkeypatch.setenv("FINSLER_SEED", "abc")
    code, _, err = run_cli(SMALL_SCAN, capsys)
    assert code == 2 and "FINSLER_SEED must be an integer, got 'abc'" in err
    code, out, _ = run_cli(SMALL_SCAN + ["--seed", "5"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 5
    curvature = ["curvature", "euclidean:n=2", "--at", "0,0", "--dir", "1,0"]
    code, out, _ = run_cli(curvature, capsys)
    assert code == 0 and "seed" not in json.loads(out)
    code, _, err = run_cli(curvature + ["--seed", "5"], capsys)
    assert code == 2 and "--seed" in err
    code, out, _ = run_cli(["geodesic", "euclidean:n=2", "--from", "0,0", "--dir", "1,0",
                            "--time", "0.01", "--dt", "0.005"], capsys)
    assert code == 0 and out.startswith("t,x1,x2")
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0 and out.startswith("finsler ")


def test_out_of_domain_point_is_an_engine_error(capsys):
    code, _, err = run_cli(["curvature", "rotation2d", "--at", "2,0", "--dir", "1,0"], capsys)
    assert code == 1
    assert "Error" in err


def test_euclidean_identity_residuals_are_tiny(capsys):
    code, out, _ = run_cli(["verify", "euclidean:n=3", "--points", "60"], capsys)
    assert code == 0
    report = json.loads(out)
    for check in report["checks"]:
        if check["check_id"] in ("volume_closed_vs_mc", "geodesic_speed"):
            continue  # Monte-Carlo or integrator-limited accuracy
        assert check["max_residual"] < 1e-10, check["check_id"]
