"""Recorded float evaluation (diffcore.Replay) and its use by geodesics: replay
on floats must reproduce direct evaluation bit for bit, or fall back to it."""

import dataclasses
import dis
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import spray as S
from finslerkit.metrics import ball_domain, whole_space_domain
from finslerkit.navigation import DriftField, zermelo_riemannian

from conftest import GALLERY_SPECS, sample_sites


def _bits(values):
    """Type and exact bit pattern of every leaf of a scalar or flat list."""
    values = values if isinstance(values, list) else [values]
    return [(type(v).__name__, float(v).hex()) for v in values]


def _replay(fn):
    notes = []
    return dc.Replay(fn, notes.append), notes


def _compiled_note(rec):
    return f"compiled {rec.records} records in {len(rec.runs)} piece{'s' * (len(rec.runs) != 1)}"


def _site(dim, box):
    coords = [st.floats(lo, hi) for lo, hi in box]
    signed = st.tuples(st.floats(0.05, 1.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
    return st.tuples(st.tuples(*coords), st.tuples(*[signed] * dim))


def _fields(entry):
    """F and every spray of the entry (entry.spray is the Randers or the generic one)."""
    yield "F", entry.metric
    yield "generic", S.spray_from_metric(entry.metric)
    if entry.randers is not None:
        yield "randers", S.randers_spray(entry.randers)
        yield "levi-civita", S.levi_civita_spray(entry.randers.alpha)


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_replay_equals_direct_evaluation(name, params):
    entry = gallery.make(name, **params)
    site = _site(entry.dim, entry.metric.domain.sample_box)

    @settings(max_examples=15, deadline=None)
    @given(first=site, later=site)
    def check(first, later):
        for label, fn in _fields(entry):
            rec, notes = _replay(fn)
            for x, y in (first, later):
                assert _bits(rec(list(x), list(y))) == _bits(fn(list(x), list(y))), label
            assert notes == [_compiled_note(rec)] and rec.out is not None, label

    check()


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_replay_over_columns_equals_direct_batched_evaluation(name, params):
    # one record, replayed on the floats of each site of a batch, gives every
    # column of the field evaluated once over column arrays of those sites
    entry = gallery.make(name, **params)
    for label, fn in _fields(entry):
        rec, notes = _replay(fn)
        for seed in (1, 2):
            pts, dirs = sample_sites(entry, 6, seed)
            rows = [np.atleast_1d(rec(x.tolist(), y.tolist())) for x, y in zip(pts, dirs)]
            batched = dc.values_array(fn(list(pts.T), list(dirs.T)), sites=(6,))
            assert np.array(rows, dtype=float).T.reshape(batched.shape).tobytes() == batched.tobytes(), label
        assert notes == [_compiled_note(rec)] and rec.out is not None, label


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

    return S.SprayField(whole_space_domain(2), G)


def test_a_flipped_branch_falls_back_to_direct_evaluation(caplog):
    G = _kinked_spray()
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        fast = S.geodesic_integrate(G, [0.0, 0.0], [1.0, 0.2], T=0.1, dt=1e-2)
    slow = S.geodesic_integrate(_unrecordable(G), [0.0, 0.0], [1.0, 0.2], T=0.1, dt=1e-2)
    assert fast.x[0, 0] < 0.05 < fast.x[-1, 0]
    assert fast.x.tobytes() == slow.x.tobytes() and fast.v.tobytes() == slow.v.tobytes()
    compiled, *messages = [r.getMessage() for r in caplog.records]
    assert compiled == f"geodesic row 0 at t=0: spray {_compiled_note(G.replay)}"
    assert messages and all(
        m.startswith("geodesic row 0 at t=") and m.endswith(": spray guard failed, stage evaluated directly")
        for m in messages
    )


def _beta_tables_built(monkeypatch, entry, x0, y0):
    """How many beta tables one 250-step Randers geodesic builds."""
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


def test_a_single_shen_flat_geodesic_records_its_spray(caplog, entries):
    entry = entries["shen_flat"]
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        traj = S.geodesic_integrate(
            S.spray_from_metric(entry.metric), [0.3, -0.2], [0.5, 0.4], T=0.1, dt=1e-2,
            speed_check=entry.metric,
        )
    assert len(traj.t) == 11
    assert not [r for r in caplog.records if "not recorded" in r.getMessage()]


def test_constants_keep_their_sign_and_type():
    f = lambda x, y: [x[0] * 0.0, x[0] * -0.0, x[0] * np.float64(2.0), y[0] - 1]
    rec, notes = _replay(f)
    rec([-1.0], [2.0])
    assert _bits(rec([-3.0], [5.0])) == _bits(f([-3.0], [5.0]))
    assert notes == [_compiled_note(rec)]


def test_a_comparison_with_a_numpy_scalar_is_a_guard_that_holds():
    # a numpy constant makes the recorded comparison a numpy bool
    f = lambda x, y: x[0] * y[0] if x[0] * np.float64(2.0) < 1.0 else y[0]
    rec, notes = _replay(f)
    rec([0.1], [2.0])
    assert _bits(rec([0.2], [3.0])) == _bits(f([0.2], [3.0])) and notes == [_compiled_note(rec)]
    assert _bits(rec([0.7], [3.0])) == _bits(f([0.7], [3.0]))
    assert notes[1:] == ["guard failed, stage evaluated directly"]


def test_a_zero_seed_direction_is_a_guard():
    # seeding x + t y skips a zero y component; seeding it anyway would turn
    # x = -0.0 into 0.0 + -0.0 = 0.0
    def f(x, y):
        return dc.directional_derivatives(lambda xs: xs[0], x, [(y, 1)]).partial([0])

    for first, later in ((([0.5], [1.0]), ([-0.0], [0.0])), (([-0.0], [0.0]), ([0.5], [1.0]))):
        rec, notes = _replay(f)
        for x, y in (first, later, first):
            assert _bits(rec(x, y)) == _bits(f(x, y))
        assert notes == [_compiled_note(rec), "guard failed, stage evaluated directly"]


def test_identical_records_are_merged():
    rec, _ = _replay(lambda x, y: (x[0] * y[0] + 1.0) * (x[0] * y[0] + 1.0))
    rec([2.0], [3.0])
    assert rec.records == 3 and rec.ops is None  # the record list is dropped once compiled
    assert rec([0.5], [4.0]) == 9.0


def test_dead_slots_are_reused_and_outputs_kept():
    def chain(x, y):
        acc = x[0]
        for _ in range(50):
            acc = acc * y[0] + 1.0 if acc < 1e300 else acc  # the comparison is a guard
        return acc

    rec, notes = _replay(chain)
    rec([0.5], [0.9])
    assert rec.records == 150 and len(rec.values) <= 6  # 2 inputs, 2 constants, 2 live results
    assert _bits(rec([0.3], [0.7])) == _bits(chain([0.3], [0.7])) and notes == [_compiled_note(rec)]
    # x y is an output whose last read makes the second output: its slot is not reused
    f = lambda x, y: [x[0] * y[0], (x[0] * y[0]) * (x[0] * y[0])]
    rec, notes = _replay(f)
    rec([2.0], [3.0])
    assert rec([0.5], [4.0]) == [2.0, 4.0] and notes == [_compiled_note(rec)]


def _raised(fn, x, y):
    with pytest.raises((ArithmeticError, ValueError)) as info:
        fn(x, y)
    return type(info.value), str(info.value)


def test_replay_raises_what_direct_evaluation_raises():
    # a geodesic stops at the exception a stage raises, so replays must raise the same
    for fn, bad in (
        (lambda x, y: 1.0 / (x[0] - 0.5), 0.5),  # a pole: ZeroDivisionError
        (lambda x, y: dc.sqrt(x[0]), -1.0),  # math.sqrt of a negative: ValueError
        (lambda x, y: dc.log(x[0] - 0.5), 0.5),
        (lambda x, y: dc.exp(x[0]), 1e3),  # OverflowError
    ):
        rec, notes = _replay(fn)
        rec([4.0], [1.0])
        assert _raised(rec, [bad], [1.0]) == _raised(fn, [bad], [1.0])
        assert notes == [_compiled_note(rec)]


def _every_inline_op(x, y):
    """-, abs, the five functions and all six comparisons, each on its own input."""
    u = dc.sqrt(x[0] * x[0] + y[0] * y[0])
    v = dc.log(u) + dc.exp(-x[1]) - dc.sin(y[1]) * dc.cos(abs(x[0] - y[2]))
    tests = (x[0] < 0.5, x[1] <= 0.5, y[0] > 0.5, y[1] >= 0.5, x[2] == 0.25, y[2] != 0.25)
    for k, holds in enumerate(tests, 1):
        v = v * (1.0 + k * u) if holds else -v / k
    return [v, -u]


def test_every_inline_line_replays_bit_for_bit_and_falls_back_on_a_flip():
    rec, notes = _replay(_every_inline_op)
    x, y = [0.2, 0.3, 0.25], [0.7, 0.8, 0.9]
    assert _bits(rec(x, y)) == _bits(_every_inline_op(x, y))
    # the compiled code calls abs and math's functions and raises GuardFailed, nothing else
    names = {name for run in rec.runs for name in run.__code__.co_names}
    assert names == {"math", "sqrt", "log", "exp", "sin", "cos", "abs", "GuardFailed"}
    x, y = [0.1, 0.4, 0.25], [0.6, 0.9, 0.3]
    assert _bits(rec(x, y)) == _bits(_every_inline_op(x, y)) and notes == [_compiled_note(rec)]
    for k, (side, i, value) in enumerate(
        [(x, 0, 0.6), (x, 1, 0.6), (y, 0, 0.4), (y, 1, 0.4), (x, 2, 0.3), (y, 2, 0.25)], 1
    ):
        flipped = [list(x), list(y)]
        flipped[side is y][i] = value
        assert _bits(rec(*flipped)) == _bits(_every_inline_op(*flipped))
        assert notes[1:] == ["guard failed, stage evaluated directly"] * k


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


# -- compiled replays ----------------------------------------------------------------


def _sites(entry, m, seed):
    """m seeded sites of the entry as (x, y) pairs of lists of floats."""
    return [(x.tolist(), y.tolist()) for x, y in zip(*sample_sites(entry, m, seed))]


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_a_compiled_replay_equals_direct_evaluation(name, params):
    entry = gallery.make(name, **params)
    sites = _sites(entry, 4, 6)
    for label, fn in (("spray", entry.spray), ("F", entry.metric)):
        rec, notes = _replay(fn)
        for x, y in sites:
            assert _bits(rec(x, y)) == _bits(fn(x, y)), label
        assert notes == [_compiled_note(rec)], label


def test_a_guard_failing_after_compilation_falls_back_and_keeps_the_code():
    G = _kinked_spray()
    direct = []
    rec, notes = _replay(lambda x, y: (direct.append(1), G(x, y))[1])
    rec([0.0, 0.0], [1.0, 0.5])
    runs = rec.runs
    assert notes == [_compiled_note(rec)] and len(direct) == 1  # the recording
    assert _bits(rec([0.07, 0.0], [1.0, 0.5])) == _bits(G([0.07, 0.0], [1.0, 0.5]))
    assert notes[1:] == ["guard failed, stage evaluated directly"] and len(direct) == 2
    assert _bits(rec([0.01, 0.0], [0.5, 0.2])) == _bits(G([0.01, 0.0], [0.5, 0.2]))
    assert rec.runs is runs and len(direct) == 2 and len(notes) == 2


def test_a_fresh_field_compiles_at_its_first_call(caplog):
    # the speed check is evaluated at the start point before the first step's spray
    entry = gallery.make("bao_shen_s3")
    (x0, y0), = _sites(entry, 1, 2)
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        arc = S.geodesic_integrate(
            entry.spray, x0, [0.5 * c for c in y0], T=0.004, dt=2e-3, speed_check=entry.metric,
        )
    assert len(arc.t) == 3
    assert [r.getMessage() for r in caplog.records] == [
        "geodesic row 0 at t=0: speed check compiled 152 records in 1 piece",
        "geodesic row 0 at t=0: spray compiled 1316 records in 6 pieces",
    ]


def _instructions(run):
    """Records in one compiled piece: one infix operator, call, negation or guard's raise each."""
    opnames = ("BINARY_OP", "CALL", "UNARY_NEGATIVE", "RAISE_VARARGS")
    return sum(i.opname in opnames for i in dis.get_instructions(run))


def test_a_long_record_compiles_in_bounded_pieces(entries):
    entry = entries["bao_shen_s3"]
    rec, notes = _replay(entry.spray)
    x, y = [0.31, -0.22, 0.4], [0.2, 0.35, -0.15]
    rec(x, y)
    sizes = [_instructions(run) for run in rec.runs]
    assert sum(sizes) == rec.records == 1316 and max(sizes) <= dc._PIECE
    assert notes == ["compiled 1316 records in 6 pieces"]
    assert _bits(rec(y, x)) == _bits(entry.spray(y, x))


def test_a_stirred_six_ball_record_compiles_bit_identically():
    # the Killing drift V = r x Q on the unit 6-ball, Q antisymmetric and r |Q| = 0.9
    n = 6
    A = np.random.default_rng(7).normal(size=(n, n))
    Q = A - A.T
    r = 0.9 / np.linalg.norm(Q, 2)
    rQ = (r * Q).tolist()
    ball = ball_domain(n)
    V = DriftField(ball, lambda x: [sum(x[i] * rQ[i][j] for i in range(n)) for j in range(n)])
    G = S.randers_spray(zermelo_riemannian(gallery.euclidean_alpha(n, ball), V))
    rec, notes = _replay(G)
    sites = np.random.default_rng(3).uniform(-0.35, 0.35, size=(3, 2, n)).tolist()
    for x, y in sites:
        assert _bits(rec(x, y)) == _bits(G(x, y))
    assert rec.records == 6673 and len(rec.runs) == math.ceil(rec.records / dc._PIECE)
    assert notes == [_compiled_note(rec)]


# -- one record per field --------------------------------------------------------------


def test_a_second_geodesic_of_a_field_records_nothing_new():
    entry = gallery.make("rotation2d")
    G, F = entry.spray, entry.metric
    kw = dict(T=0.04, dt=2e-3, speed_check=F)
    first = S.geodesic_integrate(G, [0.1, 0.2], [0.3, -0.1], **kw)
    records = [(f.replay, f.replay.records, f.replay.out, f.replay.runs) for f in (G, F)]
    again = S.geodesic_integrate(G, [0.1, 0.2], [0.3, -0.1], **kw)
    assert [(f.replay, f.replay.records, f.replay.out, f.replay.runs) for f in (G, F)] == records
    for a, b in ((first.x, again.x), (first.v, again.v), (first.speed, again.speed)):
        assert a.tobytes() == b.tobytes()


def test_a_record_compiles_once_per_field_at_its_first_call(caplog):
    entry = gallery.make("rotation2d")
    (x0, y0), (x1, y1) = _sites(entry, 2, 8)
    G = entry.spray
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        for x, y in ((x0, y0), (x1, y1), (x0, y0)):  # 80 spray calls each
            S.geodesic_integrate(G, x, [0.5 * c for c in y], T=0.04, dt=2e-3)
        fresh = entry.spray  # a new field records and compiles again
        for _ in range(2):
            S.geodesic_integrate(fresh, x1, [0.5 * c for c in y1], T=0.04, dt=2e-3)
    assert [r.getMessage() for r in caplog.records] == [
        "geodesic row 0 at t=0: spray compiled 265 records in 2 pieces"
    ] * 2
    assert fresh.replay is not G.replay
