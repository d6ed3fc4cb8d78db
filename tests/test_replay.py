"""Recorded float evaluation (diffcore.Replay) and its use by geodesics: replay
on floats and over column arrays must reproduce direct evaluation bit for bit,
or fall back to it."""

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
    G, F = entry.spray, entry.metric
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
    coordinate with np.asarray()."""
    return dataclasses.replace(field, func=lambda x, y: (np.asarray(x[0]), field(x, y))[1])


def test_battery_trajectory_equals_the_unrecorded_one(caplog):
    entry = gallery.make("bao_shen_s3")
    G, F = entry.spray, entry.metric
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
        if isinstance(x[0], np.ndarray):
            k = np.where(x[0] < 0.05, 0.3, -0.2)
        else:
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


def _beta_tables_built(monkeypatch, entry, x0, y0):
    """How many beta tables one 250-step Randers geodesic (or ensemble) builds."""
    calls = []
    real = S.beta_table

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(S, "beta_table", counted)
    traj = S.geodesic_integrate(
        S.randers_spray(entry.randers), x0, y0, T=0.5, dt=2e-3, speed_check=entry.metric,
    )
    assert len(traj.t) == 251
    return len(calls)


def test_a_single_randers_geodesic_builds_beta_table_once(monkeypatch, rotation2d):
    assert _beta_tables_built(monkeypatch, rotation2d, [0.1, 0.2], [0.3, -0.1]) == 1


def test_a_randers_ensemble_builds_beta_table_once(monkeypatch, rotation2d):
    x0 = np.array([[0.1, 0.2], [-0.3, 0.1], [0.2, 0.5]])
    y0 = np.array([[0.3, -0.1], [1.0, 0.2], [-0.4, 0.6]])
    assert _beta_tables_built(monkeypatch, rotation2d, x0, y0) == 1


def test_a_single_shen_flat_geodesic_records_its_spray(caplog, entries):
    entry = entries["shen_flat"]
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        traj = S.geodesic_integrate(
            S.spray_from_metric(entry.metric), [0.3, -0.2], [0.5, 0.4], T=0.1, dt=1e-2,
            speed_check=entry.metric,
        )
    assert len(traj.t) == 11
    assert not [r for r in caplog.records if "not recorded" in r.getMessage()]


# -- replay over column arrays of sites -------------------------------------------


def _columns(entry, m, seed):
    pts = entry.metric.domain.sample_points(m, seed)
    dirs = np.random.default_rng([seed, 5]).normal(size=(m, entry.dim))
    return list(pts.T), list(dirs.T)


def _array_bits(values):
    return dc.values_array(values).tobytes()


def _fields(entry):
    yield "F", entry.metric
    yield "generic", S.spray_from_metric(entry.metric)
    if entry.randers is not None:
        yield "randers", S.randers_spray(entry.randers)
        yield "levi-civita", S.levi_civita_spray(entry.randers.alpha)


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_replay_over_columns_equals_direct_batched_evaluation(name, params):
    entry = gallery.make(name, **params)
    for label, fn in _fields(entry):
        rec, notes = _replay(fn)
        for seed in (1, 2):
            x, y = _columns(entry, 6, seed)
            assert _array_bits(rec(x, y)) == _array_bits(fn(x, y)), label
        assert notes == [] and rec.out is not None, label


def test_a_guard_failing_on_one_row_evaluates_the_whole_call_directly():
    G = _kinked_spray()
    rec, notes = _replay(G)
    x, y = [np.array([0.0, 0.01, 0.02]), np.zeros(3)], [np.array([1.0, 0.5, 0.2]), np.ones(3)]
    assert _array_bits(rec(x, y)) == _array_bits(G(x, y)) and notes == []
    x[0][2] = 0.07  # past the kink: the recorded comparison x^1 < 0.05 fails on row 2 only
    assert _array_bits(rec(x, y)) == _array_bits(G(x, y))
    assert notes == ["guard failed, stage evaluated directly"]


def test_an_ensemble_logs_a_guard_that_fails_on_one_row(caplog):
    x0, y0 = np.zeros((2, 2)), np.array([[1.0, 0.2], [0.1, 1.0]])
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        fast = S.geodesic_integrate(_kinked_spray(), x0, y0, T=0.1, dt=1e-2)
    slow = S.geodesic_integrate(_unrecordable(_kinked_spray()), x0, y0, T=0.1, dt=1e-2)
    assert fast.x.tobytes() == slow.x.tobytes() and fast.v.tobytes() == slow.v.tobytes()
    messages = [r.getMessage() for r in caplog.records]
    assert messages and all(
        m.startswith("geodesic ensemble of 2 rows at t=")
        and m.endswith(": spray guard failed, stage evaluated directly")
        for m in messages
    )


def test_an_ensemble_trajectory_equals_the_unrecorded_one(caplog):
    entry = gallery.make("bao_shen_s3")
    G, F = entry.spray, entry.metric
    x0, y0 = _columns(entry, 4, 3)
    x0, y0 = np.array(x0).T, 0.5 * np.array(y0).T
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        fast = S.geodesic_integrate(G, x0, y0, T=0.1, dt=2e-3, speed_check=F, speed_rtol=0.5)
    assert caplog.records == []
    slow = S.geodesic_integrate(
        _unrecordable(G), x0, y0, T=0.1, dt=2e-3, speed_check=_unrecordable(F), speed_rtol=0.5,
    )
    assert len(fast.t) == 51
    for a, b in ((fast.x, slow.x), (fast.v, slow.v), (fast.speed, slow.speed)):
        assert a.tobytes() == b.tobytes()


def test_an_unrecordable_field_over_columns_is_evaluated_directly():
    fn = lambda x, y: [np.asarray(x[0]) * y[0], x[1] - y[1]]
    rec, notes = _replay(fn)
    x, y = [np.array([0.3, 0.7]), np.array([1.0, 2.0])], [np.array([1.5, -1.0]), np.array([0.5, 0.25])]
    for _ in range(2):
        assert _array_bits(rec(x, y)) == _array_bits(fn(x, y))
    assert rec.out is None and len(notes) == 1 and notes[0].startswith("not recorded: ")


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


def test_dead_slots_are_reused_and_outputs_kept():
    def chain(x, y):
        acc = x[0]
        for _ in range(50):
            acc = acc * y[0] + 1.0 if acc < 1e300 else acc  # the comparison is a guard
        return acc

    rec, notes = _replay(chain)
    rec([0.5], [0.9])
    assert len(rec.ops) == 150 * 4 and len(rec.values) <= 6  # 2 inputs, 2 constants, 2 live results
    assert _bits(rec([0.3], [0.7])) == _bits(chain([0.3], [0.7])) and notes == []
    # x y is an output whose last read makes the second output: its slot is not reused
    f = lambda x, y: [x[0] * y[0], (x[0] * y[0]) * (x[0] * y[0])]
    rec, notes = _replay(f)
    rec([2.0], [3.0])
    assert rec([0.5], [4.0]) == [2.0, 4.0] and notes == []


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
