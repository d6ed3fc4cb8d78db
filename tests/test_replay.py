"""Recorded float evaluation (diffcore.Replay) and its use by single-row geodesics:
replay must reproduce direct evaluation bit for bit, or fall back to it."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import spray as S
from finslerkit.metrics import whole_space_domain

from conftest import GALLERY_SPECS


def _bits(values):
    """Type and exact bit pattern of every leaf of a scalar or flat list."""
    values = values if isinstance(values, list) else [values]
    return [(type(v).__name__, float(v).hex()) for v in values]


def _spray(entry):
    return S.randers_spray(entry.randers) if entry.randers is not None else S.spray_from_metric(entry.metric)


def _replay(fn):
    notes = []
    return dc.Replay(fn, notes.append), notes


def _site(dim, box):
    coords = [st.floats(lo, hi) for lo, hi in box]
    signed = st.tuples(st.floats(0.05, 1.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
    return st.tuples(st.tuples(*coords), st.tuples(*[signed] * dim))


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_replay_equals_direct_evaluation(name, params):
    entry = gallery.make(name, **params)
    G, F = _spray(entry), entry.metric
    site = _site(entry.dim, entry.metric.domain.sample_box)

    @settings(max_examples=15, deadline=None)
    @given(first=site, later=site)
    def check(first, later):
        for fn in (G, F):
            rec, notes = _replay(fn)
            for x, y in (first, later):
                assert _bits(rec(list(x), list(y))) == _bits(fn(list(x), list(y)))
            assert notes == [] and rec.out is not None

    check()


def _unrecordable(field):
    """A spray or metric changed so it cannot be recorded: it converts a
    coordinate with float()."""
    return dataclasses.replace(field, func=lambda x, y: (float(x[0]), field(x, y))[1])


def test_battery_trajectory_equals_the_unrecorded_one(caplog):
    entry = gallery.make("bao_shen_s3")
    G, F = _spray(entry), entry.metric
    x0, y0 = [0.31, -0.22, 0.4], [0.2, 0.35, -0.15]
    fast = S.geodesic_integrate(G, x0, y0, T=0.5, dt=2e-3, speed_check=F, speed_rtol=0.5)
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        slow = S.geodesic_integrate(
            _unrecordable(G), x0, y0, T=0.5, dt=2e-3, speed_check=_unrecordable(F), speed_rtol=0.5,
        )
    assert len(fast.t) == 251
    for a, b in ((fast.x, slow.x), (fast.v, slow.v), (fast.speed, slow.speed)):
        assert a.tobytes() == b.tobytes()
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "geodesic row 0 at t=0: speed check not recorded: a recorded value was converted to a Python or numpy value",
        "geodesic row 0 at t=0: spray not recorded: a recorded value was converted to a Python or numpy value",
    ]


def _kinked_spray():
    """A spray on the plane whose formula changes once x^1 passes 0.05."""

    def G(x, y):
        k = 0.3 if x[0] < 0.05 else -0.2
        return [k * y[0] * y[1], k * y[0] * y[0]]

    return S.SprayField(whole_space_domain(2), G, provenance="test")


def test_a_flipped_branch_falls_back_to_direct_evaluation(caplog):
    G = _kinked_spray()
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        fast = S.geodesic_integrate(G, [0.0, 0.0], [1.0, 0.2], T=0.1, dt=1e-2)
    slow = S.geodesic_integrate(_unrecordable(G), [0.0, 0.0], [1.0, 0.2], T=0.1, dt=1e-2)
    assert fast.x[0, 0] < 0.05 < fast.x[-1, 0]
    assert fast.x.tobytes() == slow.x.tobytes() and fast.v.tobytes() == slow.v.tobytes()
    messages = [r.getMessage() for r in caplog.records]
    assert messages and all(
        m.startswith("geodesic row 0 at t=") and m.endswith(": spray guard failed, stage evaluated directly")
        for m in messages
    )


def test_a_single_randers_geodesic_builds_beta_table_once(monkeypatch, rotation2d):
    calls = []
    real = S.beta_table

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(S, "beta_table", counted)
    traj = S.geodesic_integrate(
        S.randers_spray(rotation2d.randers), [0.1, 0.2], [0.3, -0.1], T=0.5, dt=2e-3,
        speed_check=rotation2d.metric,
    )
    assert len(traj.t) == 251
    assert len(calls) == 1


def test_constants_keep_their_sign_and_type():
    f = lambda x, y: [x[0] * 0.0, x[0] * -0.0, x[0] * np.float64(2.0), y[0] - 1]
    rec, notes = _replay(f)
    rec([-1.0], [2.0])
    assert _bits(rec([-3.0], [5.0])) == _bits(f([-3.0], [5.0]))
    assert notes == []


def test_a_zero_seed_direction_is_a_guard():
    # seeding x + t y skips a zero y component; seeding it anyway would turn
    # x = -0.0 into 0.0 + -0.0 = 0.0
    def f(x, y):
        return dc.directional_derivatives(lambda xs, ys: xs[0], x, y, x_dirs=[(y, 1)]).partial([0])

    for first, later in ((([0.5], [1.0]), ([-0.0], [0.0])), (([-0.0], [0.0]), ([0.5], [1.0]))):
        rec, notes = _replay(f)
        for x, y in (first, later, first):
            assert _bits(rec(x, y)) == _bits(f(x, y))
        assert notes == ["guard failed, stage evaluated directly"]


def test_identical_records_are_merged():
    rec, _ = _replay(lambda x, y: (x[0] * y[0] + 1.0) * (x[0] * y[0] + 1.0))
    rec([2.0], [3.0])
    assert len(rec.ops) == 3 * 4  # (function, out, a, b) per record
    assert rec([0.5], [4.0]) == 9.0


def test_replay_raises_what_direct_evaluation_raises():
    pole, _ = _replay(lambda x, y: 1.0 / (x[0] - 0.5))
    pole([0.0], [1.0])
    with pytest.raises(ZeroDivisionError):
        pole([0.5], [1.0])
    root, _ = _replay(lambda x, y: dc.sqrt(x[0]))
    root([4.0], [1.0])
    with pytest.raises(ValueError):
        root([-1.0], [1.0])


@pytest.mark.parametrize(
    "fn",
    [
        lambda x, y: float(x[0]) * y[0],
        lambda x, y: x[0] * y[0] if x[0] else y[0],
        lambda x, y: x[0] * np.ones(2),
        lambda x, y: np.asarray(x[0]) * y[0],
        lambda x, y: 2.0 ** x[0],
        lambda x, y: math.sqrt(x[0]),
    ],
)
def test_unrecordable_fields_are_evaluated_directly(fn):
    rec, notes = _replay(fn)
    for x in (0.3, 0.7, 0.9):
        assert np.array_equal(rec([x], [1.5]), fn([x], [1.5]))
    assert rec.out is None and len(notes) == 1 and notes[0].startswith("not recorded: ")
