"""Gallery entries: validity, closed-form reference data, parameter handling."""

import logging

import numpy as np
import pytest

from finslerkit import curvature as C
from finslerkit import gallery
from finslerkit import metrics as M
from finslerkit import spray as S
from finslerkit.navigation import DriftField, zermelo_riemannian

from conftest import GALLERY_SPECS, sample_sites


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_every_entry_is_a_valid_metric(name, params):
    entry = gallery.make(name, **params)
    report = M.check_metric(entry.metric, n_points=100, seed=1)
    assert report["homogeneity"] <= 1e-12
    assert report["euler"] <= 1e-12
    assert report["g_recovers_F2"] <= 1e-10


def test_funk_equals_navigation_of_flat_ball(funk2):
    alpha = gallery.euclidean_alpha(2, funk2.metric.domain)
    drift = DriftField(funk2.metric.domain, lambda x: [-x[0], -x[1]])
    rd = zermelo_riemannian(alpha, drift)
    pts = funk2.metric.domain.sample_points(25, seed=3)
    for x in pts:
        np.testing.assert_allclose(
            funk2.randers.alpha.value(list(x)), rd.alpha.value(list(x)), atol=1e-12
        )
        np.testing.assert_allclose(
            funk2.randers.beta.value(list(x)), rd.beta.value(list(x)), atol=1e-12
        )


def test_rotation2d_equals_navigation_of_flat_disk(rotation2d):
    alpha = gallery.euclidean_alpha(2, rotation2d.metric.domain)
    drift = DriftField(rotation2d.metric.domain, lambda x: [-x[1], x[0]])
    rd = zermelo_riemannian(alpha, drift)
    pts = rotation2d.metric.domain.sample_points(25, seed=5)
    for x in pts:
        np.testing.assert_allclose(
            rotation2d.randers.alpha.value(list(x)), rd.alpha.value(list(x)), atol=1e-12
        )
        np.testing.assert_allclose(
            rotation2d.randers.beta.value(list(x)), rd.beta.value(list(x)), atol=1e-12
        )


def test_funk_reduces_to_euclidean_norm_at_center(funk2):
    for y in ([1.0, 0.0], [0.3, -0.4], [2.0, 1.0]):
        assert funk2.metric([0.0, 0.0], y) == pytest.approx(np.hypot(*y), rel=1e-14)


def test_reference_spray_matches_engine(rotation2d, cylinder3):
    for entry in (rotation2d, cylinder3):
        G = S.randers_spray(entry.randers)
        pts, dirs = sample_sites(entry, 25, seed=7)
        for x, y in zip(pts, dirs):
            got = np.array([float(v) for v in G(list(x), list(y))])
            ref = np.array([float(v) for v in entry.reference.spray(list(x), list(y))])
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-11)


def test_reference_r11_value(rotation2d):
    tables = rotation2d.reference.tables([0.3, 0.4])
    assert tables["r"][0, 0] == pytest.approx(-0.4266666666666667, abs=1e-14)


def test_slab_profile_value_at_zero():
    entry = gallery.slab_kappa(0.5)
    assert float(entry.reference.cartan2_profile(0.0)) == pytest.approx(-0.75, abs=1e-14)


def test_cylinder_n4_extension_is_still_flat():
    entry = gallery.cylinder(4)
    G = S.randers_spray(entry.randers)
    pts, dirs = sample_sites(entry, 10, seed=9)
    for x, y in zip(pts, dirs):
        R = C.riemann(G, list(x), list(y))
        assert np.max(np.abs(R.matrix)) <= 1e-7
    from finslerkit.measures import randers_s_curvature

    for x, y in zip(pts, dirs):
        assert abs(randers_s_curvature(entry.randers, list(x), list(y))) <= 1e-9


def test_parameter_validation():
    with pytest.raises(ValueError):
        gallery.slab_kappa(1.2)
    with pytest.raises(ValueError):
        gallery.cylinder(2)
    with pytest.raises(ValueError):
        gallery.bao_shen_s3(1.0)
    with pytest.raises(ValueError):
        gallery.minkowski(2, -0.1)


def test_spec_parsing():
    entry = gallery.parse_spec("slab:kappa=0.7")
    assert entry.params["kappa"] == 0.7
    entry = gallery.parse_spec("cylinder:n=4")
    assert entry.dim == 4
    with pytest.raises(ValueError):
        gallery.parse_spec("nonsense")
    with pytest.raises(ValueError):
        gallery.parse_spec("slab:kappa")
    with pytest.raises(ValueError):
        gallery.parse_spec("slab:kappa=abc")


def test_names_are_stable():
    assert set(gallery.names()) == {
        "bao_shen_s3", "cylinder", "euclidean", "funk",
        "minkowski", "rotation2d", "shen_flat", "slab",
    }


def test_bao_shen_chart_internals():
    # round metric in central projection: the drift field is unit and Killing
    entry = gallery.bao_shen_s3(0.3)
    alpha = entry.source_alpha
    from finslerkit.gallery import _s3_unit_field
    from finslerkit.metrics import OneFormField, RandersData
    import finslerkit._linalg as L

    rng = np.random.default_rng(11)
    for _ in range(10):
        x = list(rng.uniform(-0.6, 0.6, size=3))
        W = _s3_unit_field(x)
        a = alpha.value(x)
        assert float(np.array(W) @ a @ W) == pytest.approx(1.0, abs=1e-12)
    wform = OneFormField(alpha.domain, lambda x: L.matvec(alpha.matrix(x), _s3_unit_field(x)))
    rd = RandersData(alpha, wform)
    tbl = S.beta_table(rd, [0.2, -0.1, 0.4], order=1)
    assert np.max(np.abs(np.array(tbl.r, dtype=float))) <= 1e-12
    # round sectional curvature is 1
    K = C.flag_curvature(
        alpha.finsler(), [0.1, 0.2, -0.3], [1.0, 0.0, 0.2], [0.0, 1.0, 0.1],
        G=S.levi_civita_spray(alpha),
    )
    assert K == pytest.approx(1.0, abs=1e-9)


def test_shen_flat_logs_its_radicand_clamp(caplog):
    # on the rim, with y tangent to it, the radicand is exactly 0
    F = gallery.shen_flat(2).metric
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        with pytest.raises(ZeroDivisionError):
            F([1.0, 0.0], [0.0, 1.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            F([np.array([1.0, 0.0]), np.array([0.0, 0.2])], [np.array([0.0, 1.0]), np.array([1.0, 0.5])])
    assert [r.getMessage() for r in caplog.records] == [
        "shen_flat radicand clamped at the boundary of positivity",
        "shen_flat radicand clamped at 1 of 2 sites",
    ]
