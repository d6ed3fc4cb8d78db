"""The verification battery's reductions: NaN residuals and degenerate samples fail."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from finslerkit import gallery, verify
from finslerkit.errors import DegenerateFlagError
from finslerkit.spray import randers_spray


def test_nan_residuals_fail_the_report(monkeypatch, rotation2d):
    monkeypatch.setattr(verify, "ricci_2d", lambda G, x, y: np.full(np.shape(x[0]), np.nan))
    monkeypatch.setattr(
        verify, "s_zero_criterion", lambda rd, x: np.full((2, 2) + np.shape(x[0]), np.nan)
    )
    report = verify.run_verification(rotation2d, points=20, seed=3)
    checks = {c.check_id: c for c in report.checks}
    for check_id in ("ricci_2d_agrees", "s_zero_criterion"):
        assert math.isnan(checks[check_id].max_residual)
        assert checks[check_id].passed is False
    assert report.passed is False


def test_all_degenerate_flags_raise(rotation2d):
    G = randers_spray(rotation2d.randers)
    pts, dirs = verify._sample_sites(rotation2d, 8, seed=2)
    with pytest.raises(DegenerateFlagError):
        verify.max_flag_deviation(rotation2d.metric, G, pts, dirs, 3.0 * dirs, 0.0)


def test_unknown_tolerance_override_is_rejected(rotation2d):
    with pytest.raises(ValueError, match="riemann_zer0.*known: .*riemann_zero"):
        verify.run_verification(rotation2d, points=20, seed=3, tol_overrides={"riemann_zer0": 1e-30})


def test_dropped_degenerate_flags_are_logged(caplog, rotation2d):
    G = randers_spray(rotation2d.randers)
    pts, dirs = verify._sample_sites(rotation2d, 8, seed=2)
    flags = np.array(dirs)
    flags[:3] += np.array([[dirs[i, 1], -dirs[i, 0]] for i in range(3)])  # 5 of 8 flags stay degenerate
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        verify.max_flag_deviation(rotation2d.metric, G, pts, dirs, flags, 0.0)
    assert [r.getMessage() for r in caplog.records] == [
        "max_flag_deviation dropped 5 of 8 flags as degenerate"
    ]


def test_reports_follow_the_check_table(rotation2d):
    report = verify.run_verification(rotation2d, points=20, seed=3)
    ids = [c.check_id for c in report.checks]
    assert ids == [c for c in verify.CHECKS if c in ids]
    assert all(c.tolerance == verify.CHECKS[c.check_id][1] for c in report.checks)
    claims = {c.check_id: c.claim for c in report.checks}
    assert claims["flag_constant"] == "flag curvature equals 0.0"
    assert claims["g_zero_homogeneity"] == "g_{t y} = g_y for t > 0"


@pytest.mark.parametrize("name,check_id,tolerance", [
    ("minkowski", "s_zero", verify.CHECKS["s_zero"][1]),
    ("funk", "flag_constant", 1e-7),
], ids=["minkowski", "funk"])
def test_a_renamed_entry_verifies_like_the_original(name, check_id, tolerance):
    """The battery reads an entry's density and tolerances from the entry,
    never from its name; every tolerance an entry overrides is a check id."""
    entry = gallery.make(name)
    original = verify.run_verification(entry, points=20, seed=3).to_dict()
    renamed = verify.run_verification(dataclasses.replace(entry, name="renamed"), points=20, seed=3).to_dict()
    assert renamed == {**original, "metric": "renamed"}
    assert {c["check_id"]: c["tolerance"] for c in renamed["checks"]}[check_id] == tolerance
    for known in gallery.names():
        assert set(gallery.make(known).reference.tolerances) <= set(verify.CHECKS), known
