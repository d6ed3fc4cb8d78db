"""Exact higher-order differentiation of scalar fields on chart x tangent space.

Derivatives are computed with nested truncated-Taylor (jet) arithmetic: each
differentiation variable gets its own univariate jet, and jets nest through a
monotone tag so that towers of arbitrary depth stay well ordered.  Fields must
be written with ordinary arithmetic plus the generic `sqrt`/`log`/`exp`/
`sin`/`cos` helpers from this module; they then evaluate unchanged on floats,
on numpy arrays (batched points), on jets and on the recorded floats that
`Replay` replays.

Every jet pass differentiates a function of one point list:
`directional_derivatives(f, z, dirs)` seeds jets along the given directions
at z and returns a `TaylorResult` whose `partial` reads any mixed partial up
to the seeded orders.  `joint_derivative` (one derivative of f(x, y) along a
joint (dx, dy) direction, seeded on the concatenated point) and
`hessian(f, z)` are built on it.  `gradient(f, z)` takes one pass on `Grad`
jets, which carry the value and all n first partials under one tag (vector
forward mode), and returns the value with the partials.  The
finite-difference oracle that cross-checks the jets lives with the tests
(`tests/fd_oracle.py`).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import OrderCapError

_TAGS = itertools.count(1)

class Jet:
    """Truncated univariate Taylor expansion with ring-valued coefficients.

    ``coeffs[k]`` is the k-th Taylor coefficient; coefficients may be floats,
    numpy arrays, or jets of a *smaller* tag, so towers nest canonically
    (tags strictly decrease from root to leaf).  Arithmetic between jets of
    different tags treats the smaller-tag operand as a constant.
    """

    __slots__ = ("tag", "coeffs")
    __array_ufunc__ = None  # keep numpy from broadcasting over jets

    def __init__(self, tag: int, coeffs: list):
        self.tag = tag
        self.coeffs = coeffs

    # -- helpers ----------------------------------------------------------

    def _scalar_add(self, s):
        c = list(self.coeffs)
        c[0] = c[0] + s
        return Jet(self.tag, c)

    def _scalar_mul(self, s):
        return Jet(self.tag, [c * s for c in self.coeffs])

    # -- ring operations --------------------------------------------------
    #
    # Same-tag operations between order-1 (two-coefficient) and, for + and *,
    # order-2 (three-coefficient) jets dominate every derivative the engine
    # takes; they run straight-line code that forms the same products and
    # sums in the same order as the generic `_add`/`_convolve`/`_deconvolve`,
    # so results are bit-identical to them.

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                n = len(a)
                if n == len(b):
                    if n == 2:
                        return Jet(self.tag, [a[0] + b[0], a[1] + b[1]])
                    if n == 3:
                        return Jet(self.tag, [a[0] + b[0], a[1] + b[1], a[2] + b[2]])
                return Jet(self.tag, _add(a, b))
            if other.tag > self.tag:
                return other._scalar_add(self)
        return self._scalar_add(other)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.tag, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                if len(a) == 2 == len(b):
                    # u - v equals u + (-v) exactly in floating point
                    return Jet(self.tag, [a[0] - b[0], a[1] - b[1]])
            return self.__add__(-other)
        return self._scalar_add(-other)

    def __rsub__(self, other):
        return (-self)._scalar_add(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                n = len(a)
                if n == len(b):
                    if n == 2:
                        a0 = a[0]
                        return Jet(self.tag, [a0 * b[0], a0 * b[1] + a[1] * b[0]])
                    if n == 3:
                        a0, a1, a2 = a
                        b0, b1, b2 = b
                        return Jet(self.tag, [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0])
                return Jet(self.tag, _convolve(a, b))
            if other.tag > self.tag:
                return other._scalar_mul(self)
        return self._scalar_mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                if len(a) == 2 == len(b):
                    b0 = b[0]
                    q = a[0] / b0
                    return Jet(self.tag, [q, (a[1] - q * b[1]) / b0])
                return Jet(self.tag, _deconvolve(a, b))
            if other.tag > self.tag:
                return other.__rtruediv__(self)
        return Jet(self.tag, [c / other for c in self.coeffs])

    def __rtruediv__(self, other):
        return Jet(self.tag, [other] + [0.0] * (len(self.coeffs) - 1)) / self

    def __pow__(self, p):
        if isinstance(p, Recorded):  # a float p may take the integer branch below
            raise Unrecordable("a recorded exponent")
        if isinstance(p, numbers.Integral) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return type(self)(self.tag, [1.0] + [0.0] * (len(self.coeffs) - 1))
            if p < 0:
                return 1.0 / self.__pow__(-p)
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        if p == 0.5:
            return self.sqrt()
        return (self.log() * p).exp()

    # -- analytic functions (coefficient recurrences) ----------------------

    def sqrt(self):
        a = self.coeffs
        s0 = sqrt(a[0])
        out = [s0]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(acc / (2.0 * s0))
        return Jet(self.tag, out)

    def log(self):
        a = self.coeffs
        out = [log(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - (j / k) * out[j] * a[k - j]
            out.append(acc / a[0])
        return Jet(self.tag, out)

    def exp(self):
        a = self.coeffs
        out = [exp(a[0])]
        for k in range(1, len(a)):
            acc = a[1] * out[k - 1]
            for j in range(2, k + 1):
                if j < len(a):
                    acc = acc + j * (a[j] * out[k - j])
            out.append(acc / k)
        return Jet(self.tag, out)

    def sin(self):
        return _sincos(self)[0]

    def cos(self):
        return _sincos(self)[1]

    def __repr__(self):
        return f"{type(self).__name__}(tag={self.tag}, coeffs={self.coeffs!r})"


class Grad(Jet):
    """First-order jet in n directions at once (vector forward mode): ``coeffs``
    is [value, d_1, ..., d_n] under one tag, where None marks a tangent that is
    structurally zero, as `gradient` seeds every coordinate but its own.
    Every operation skips such a tangent: a + None is a, None - b is 0.0 - b,
    a0 * None is None, and so are None / b0 and every function of None, so no
    float operation runs on it.  Each other d_k takes the float operations, in
    the same order, of an order-1 Jet seeded along direction k, so a gradient
    equals the n univariate passes bit for bit up to the sign of a zero and a
    NaN from an infinite intermediate.  Other tags act as for Jet.
    """

    __slots__ = ()

    def _scalar_add(self, s):
        return Grad(self.tag, [self.coeffs[0] + s, *self.coeffs[1:]])

    def _scalar_mul(self, s):
        return Grad(self.tag, [None if c is None else c * s for c in self.coeffs])

    def __neg__(self):
        return Grad(self.tag, [None if c is None else -c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                pairs = zip(self.coeffs, other.coeffs)
                return Grad(self.tag, [a if b is None else b if a is None else a + b for a, b in pairs])
            if other.tag > self.tag:
                return other._scalar_add(self)
        return self._scalar_add(other)

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                pairs = zip(self.coeffs, other.coeffs)
                return Grad(self.tag, [a if b is None else 0.0 - b if a is None else a - b for a, b in pairs])
            return self + (-other)
        return self._scalar_add(-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                a0, b0 = a[0], b[0]
                out = [a0 * b0]
                for ak, bk in zip(a[1:], b[1:]):
                    if ak is None:
                        out.append(None if bk is None else a0 * bk)
                    else:
                        out.append(ak * b0 if bk is None else a0 * bk + ak * b0)
                return Grad(self.tag, out)
            if other.tag > self.tag:
                return other._scalar_mul(self)
        return self._scalar_mul(other)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if other.tag == self.tag:
                a, b = self.coeffs, other.coeffs
                b0 = b[0]
                q = a[0] / b0
                out = [q]
                for ak, bk in zip(a[1:], b[1:]):
                    if bk is None:
                        out.append(None if ak is None else ak / b0)
                    else:
                        out.append(((0.0 if ak is None else ak) - q * bk) / b0)
                return Grad(self.tag, out)
            if other.tag > self.tag:
                return other.__rtruediv__(self)
        return Grad(self.tag, [None if c is None else c / other for c in self.coeffs])

    def __rtruediv__(self, other):
        # Python tries this first for Jet / Grad; a newer-tag Jet is the outer operand
        if isinstance(other, Jet) and other.tag > self.tag:
            return Jet.__truediv__(other, self)
        b0 = self.coeffs[0]
        q = other / b0
        return Grad(self.tag, [q, *[None if bk is None else (0.0 - q * bk) / b0 for bk in self.coeffs[1:]]])

    def sqrt(self):
        s0 = sqrt(self.coeffs[0])
        d = 2.0 * s0
        return Grad(self.tag, [s0, *[None if ak is None else ak / d for ak in self.coeffs[1:]]])

    def log(self):
        a0 = self.coeffs[0]
        return Grad(self.tag, [log(a0), *[None if ak is None else ak / a0 for ak in self.coeffs[1:]]])

    def exp(self):
        e0 = exp(self.coeffs[0])
        return Grad(self.tag, [e0, *[None if ak is None else ak * e0 for ak in self.coeffs[1:]]])

    def sin(self):
        c0 = cos(self.coeffs[0])
        tangents = [None if ak is None else ak * c0 for ak in self.coeffs[1:]]
        return Grad(self.tag, [sin(self.coeffs[0]), *tangents])

    def cos(self):
        s0 = sin(self.coeffs[0])
        tangents = [None if ak is None else -1.0 * (ak * s0) for ak in self.coeffs[1:]]
        return Grad(self.tag, [cos(self.coeffs[0]), *tangents])


def _add(a: list, b: list) -> list:
    """Coefficients of the sum of two same-tag jets (generic lengths)."""
    if len(a) < len(b):
        a, b = b, a
    return [a[k] + b[k] if k < len(b) else a[k] for k in range(len(a))]


def _convolve(a: list, b: list) -> list:
    """Truncated Cauchy product of two same-tag coefficient lists."""
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        lo = max(0, k - len(b) + 1)
        hi = min(k, len(a) - 1)
        acc = a[lo] * b[k - lo]
        for i in range(lo + 1, hi + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def _deconvolve(a: list, b: list) -> list:
    """Coefficients q with q * b = a (truncated), by forward substitution."""
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        acc = a[k] if k < len(a) else 0.0
        for j in range(k):
            bi = k - j
            if bi < len(b):
                acc = acc - out[j] * b[bi]
        out.append(acc / b[0])
    return out


def _sincos(j: Jet):
    a = j.coeffs
    s = [sin(a[0])]
    c = [cos(a[0])]
    for k in range(1, len(a)):
        sa = a[1] * c[k - 1]
        ca = a[1] * s[k - 1]
        for i in range(2, k + 1):
            if i < len(a):
                sa = sa + i * (a[i] * c[k - i])
                ca = ca + i * (a[i] * s[k - i])
        s.append(sa / k)
        c.append((-1.0 / k) * ca)
    return Jet(j.tag, s), Jet(j.tag, c)


# -- generic scalar functions (float / ndarray / Jet) --------------------


def sqrt(u):
    if isinstance(u, (Jet, Recorded)):
        return u.sqrt()
    if isinstance(u, np.ndarray):
        return np.sqrt(u)
    return math.sqrt(u)


def log(u):
    if isinstance(u, (Jet, Recorded)):
        return u.log()
    if isinstance(u, np.ndarray):
        return np.log(u)
    return math.log(u)


def exp(u):
    if isinstance(u, (Jet, Recorded)):
        return u.exp()
    if isinstance(u, np.ndarray):
        return np.exp(u)
    return math.exp(u)


def sin(u):
    if isinstance(u, (Jet, Recorded)):
        return u.sin()
    if isinstance(u, np.ndarray):
        return np.sin(u)
    return math.sin(u)


def cos(u):
    if isinstance(u, (Jet, Recorded)):
        return u.cos()
    if isinstance(u, np.ndarray):
        return np.cos(u)
    return math.cos(u)


# -- recording a float evaluation once and replaying it -------------------------


class Unrecordable(Exception):
    """A recorded field did something a replay could not repeat."""


class GuardFailed(Exception):
    """A recorded comparison comes out otherwise at replay."""


_ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)
_CMPS = dict(zip((operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne),
                 ("<", "<=", ">", ">=", "==", "!=")))
# one record function per comparison and outcome; its compiled line makes the check
_GUARDS = {(cmp, r): lambda p, q: None for cmp in _CMPS for r in (False, True)}
# the line a compiled record runs for each recorded function, on slots out, a, b; a
# numpy constant in the record makes a comparison a numpy bool, so a guard tests != True, not is True
_LINES = {f: f"s{{0}} = s{{1}} {op} s{{2}}" for f, op in zip((*_ARITH, operator.pow), ("+", "-", "*", "/", "**"))}
_LINES.update({g: f"if (s{{1}} {_CMPS[cmp]} s{{2}}) != {r}: raise GuardFailed" for (cmp, r), g in _GUARDS.items()})
# records per compiled function: bounds the compiler's memory and source size
_PIECE = 256


def _nest(f, obj):
    """f applied to each leaf of a scalar or nested list."""
    return [_nest(f, e) for e in obj] if isinstance(obj, (list, tuple)) else f(obj)


def _binary(fn, swap=False):
    def op(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        a, b = self.slot, self.tape.slot(other)
        return Recorded(self.tape, self.tape.emit(fn, *((b, a) if swap else (a, b))))

    return op


def _compare(cmp):
    def op(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        a, b = self.slot, self.tape.slot(other)
        r = cmp(self.tape.values[a], self.tape.values[b])
        self.tape.emit(_GUARDS[cmp, bool(r)], a, b)
        return r

    return op


def _unary(f, expr):
    def fn(u, _):  # every record has two operand slots
        return f(u)

    _LINES[fn] = f"s{{0}} = {expr}"
    return lambda self: Recorded(self.tape, self.tape.emit(fn, self.slot, self.slot))


def _refuse(self, *args):
    raise Unrecordable("a recorded value was converted to a Python or numpy value")


class Recorded:
    """A float whose arithmetic and comparisons are recorded by a Replay.

    A comparison returns the float comparison and is recorded as a guard.
    float(), bool(), int(), conversion to an array, a recorded exponent or
    an operand that is not a float, int, Recorded or Jet raise Unrecordable.
    """

    __slots__ = ("tape", "slot")
    __array_ufunc__ = None  # numpy defers to the reflected operators

    def __init__(self, tape: Replay, slot: int):
        self.tape = tape
        self.slot = slot

    __add__, __sub__, __mul__, __truediv__ = (_binary(f) for f in _ARITH)
    __radd__, __rsub__, __rmul__, __rtruediv__ = (_binary(f, swap=True) for f in _ARITH)
    __lt__, __le__, __gt__, __ge__, __eq__, __ne__ = (_compare(c) for c in _CMPS)
    __neg__, __abs__ = _unary(operator.neg, "-s{1}"), _unary(abs, "abs(s{1})")
    # the generic functions above, which take math's on replayed floats; compiled, math's
    sqrt, log, exp, sin, cos = (_unary(f, f"math.{f.__name__}(s{{1}})") for f in (sqrt, log, exp, sin, cos))
    __float__ = __bool__ = __int__ = __index__ = __array__ = _refuse

    def __pow__(self, p):
        if isinstance(p, Recorded):
            raise Unrecordable("a recorded exponent")
        return _binary(operator.pow)(self, p)

    def __rpow__(self, base):
        raise Unrecordable("a recorded exponent")


class Replay:
    """fn(x, y) on lists of Python floats, recorded at the first call and
    replayed at every call with the same float operations in the same order:
    fn performs the same operations at every point as long as its
    comparisons come out the same, so results are bit-identical to calling
    fn, without its jet bookkeeping.

    The record is a flat list of quadruples function, out, a, b over
    numbered slots; identical records are merged, which is exact.  fn itself
    evaluates a call that raises while it is recorded, a call where a
    recorded comparison comes out otherwise, and every call if fn cannot be
    recorded (see Recorded); `note(message)` hears of the last two unless fn
    raises.  The list is flat and the merge keys are ints because a few
    thousand tuples freed at the end of a call would stay in CPython's tuple
    free lists and lift the peak RSS.

    The call that records fn also compiles the record to straight-line
    Python: one local per slot, one line per record (infix arithmetic and
    negation, `abs` and math's functions called directly, a guard as
    ``if (s1 < s2) != True: raise GuardFailed``), in functions of at most
    256 records each (`_PIECE`, which bounds the compiler's memory and
    source size), notes "compiled N records in K pieces" and drops the
    record, keeping its length as `records`; every call, the recording one
    included, runs the compiled code.  It runs the same operations in the
    same order and raises what they raise, so it is bit-identical to fn; a
    comparison that comes out otherwise there falls back to fn as above,
    and later calls keep the compiled code.  A field keeps one Replay for
    its lifetime (`metrics.Field.replay`), so the compiled code carries over
    from one geodesic to the next; each geodesic re-binds `note`.
    """

    def __init__(self, fn: Callable, note: Callable[[str], None]):
        self.fn, self.note = fn, note
        self.out, self.recordable, self.runs, self.records = None, True, None, 0

    def __call__(self, x, y):
        if self.runs is None and self.recordable:
            self.values = x + y
            self.ops, self._memo = [], {}
            args = [Recorded(self, i) for i in range(len(self.values))]
            try:
                self.out = _nest(self.slot, self.fn(args[: len(x)], args[len(x) :]))
                self._reuse_dead_slots()
                self._compile()
            except (Unrecordable, TypeError) as e:
                self.recordable = False
                self.note(f"not recorded: {e}")
            except Exception:  # fn raises it again
                pass
            self.ops = None  # the compiled code or fn replaces the record
        if self.runs is not None:
            v = self.values.copy()
            v[: len(x) + len(y)] = x + y
            try:
                for run in self.runs:
                    run(v)
                return _nest(v.__getitem__, self.out)
            except GuardFailed:
                out = self.fn(x, y)  # a call that raises needs no note
                self.note("guard failed, stage evaluated directly")
                return out
        return self.fn(x, y)

    def _compile(self):
        """Compile the record to one function of the value list per _PIECE records.
        A piece loads the slots it reads before writing them and stores back
        those that later pieces or the outputs read."""
        ops, scope, runs, live = self.ops, {"math": math, "GuardFailed": GuardFailed}, [], set()
        _nest(live.add, self.out)
        for start in reversed(range(0, len(ops), 4 * _PIECE)):
            body, loads, written = [], set(), set()
            for i in range(start, min(start + 4 * _PIECE, len(ops)), 4):
                fn, out, a, b = ops[i : i + 4]
                loads.update({a, b} - written)
                written.add(out)  # a guard's slot is never read, so never loaded or stored
                body.append("    " + _LINES[fn].format(out, a, b))
            stores, live = live & written, loads | (live - written)
            src = "\n".join(
                ["def run(v):", *(f"    s{k} = v[{k}]" for k in sorted(loads)), *body,
                 *(f"    v[{k}] = s{k}" for k in sorted(stores))]
            )
            exec(compile(src, "<replay>", "exec"), scope)
            runs.append(scope.pop("run"))
        self.runs, self.records, k = runs[::-1], len(ops) // 4, len(runs)
        self.note(f"compiled {self.records} records in {k} piece{'s' * (k != 1)}")

    def _reuse_dead_slots(self):
        """End a recording: drop the merge keys and renumber the slots in place so a
        result reuses the slot of a value read for the last time (inputs and constants
        first, outputs kept): the value list that every replay copies stays short."""
        ops, values, self._memo = self.ops, self.values, None
        keep, last, new = set(), [-1] * len(values), [None] * len(values)
        _nest(keep.add, self.out)
        for i in range(0, len(ops), 4):
            new[ops[i + 1]] = -1  # a result, numbered below
            last[ops[i + 2]] = last[ops[i + 3]] = i
        self.values = []
        for s, v in enumerate(values):
            if new[s] is None:  # an input or a constant
                new[s] = len(self.values)
                self.values.append(v)
        free = []
        for i in range(0, len(ops), 4):
            out, a, b = ops[i + 1 : i + 4]
            free += [new[s] for s in {a, b} if last[s] == i and s not in keep]
            new[out] = free.pop() if free else len(self.values)
            if new[out] == len(self.values):
                self.values.append(None)
            if last[out] == -1 and out not in keep:  # never read, as a guard's
                free.append(new[out])
            ops[i + 1 : i + 4] = new[out], new[a], new[b]
        self.out = _nest(new.__getitem__, self.out)

    def slot(self, obj) -> int:
        """The slot of a Recorded value or of a float or int constant."""
        if isinstance(obj, Recorded):
            return obj.slot
        if not isinstance(obj, (float, int)):
            raise Unrecordable(f"a value of type {type(obj).__name__}")
        # keyed by type and repr, so 0.0 and -0.0, or 2.0 and np.float64(2.0), stay apart
        memo, key = self._memo.setdefault(type(obj), {}), repr(obj)
        if key not in memo:
            memo[key] = len(self.values)
            self.values.append(obj)
        return memo[key]

    def emit(self, fn, a: int, b: int) -> int:
        """The slot of fn(slot a, slot b), computed and recorded unless an
        identical record exists."""
        memo, key = self._memo.setdefault(fn, {}), a << 32 | b
        if key not in memo:
            memo[key] = len(self.values)
            self.values.append(fn(self.values[a], self.values[b]))
            self.ops += (fn, memo[key], a, b)
        return memo[key]


def value(u):
    """Strip all jet structure, returning the underlying base scalar."""
    while isinstance(u, Jet):
        u = u.coeffs[0]
    return u


# -- seeding, evaluation and extraction -----------------------------------


class TaylorResult:
    """Result of evaluating a field on seeded jets.

    `tags` are in seeding order; `partial(multi)` returns the mixed partial
    for per-variable derivative orders `multi` (aligned with `tags`), with the
    nesting of the root when the field returns a nested list.
    """

    def __init__(self, root, tags: list[int], orders: list[int]):
        self.root = root
        self.tags = tags
        self.orders = orders
        # navigate outermost (largest) tag first
        self._desc = sorted(range(len(tags)), key=lambda i: -tags[i])

    def partial(self, multi: Sequence[int]):
        if len(multi) != len(self.tags):
            raise ValueError(f"a multi-index of length {len(multi)} for {len(self.tags)} seeded directions")
        for i, d in enumerate(multi):
            if d > self.orders[i]:
                raise OrderCapError(f"order {d} exceeds seeded order {self.orders[i]}")
        scale = 1
        for d in multi:
            scale *= math.factorial(d)
        return self._extract(self.root, multi, scale)

    def _extract(self, obj, multi, scale):
        if isinstance(obj, (list, tuple)):
            return [self._extract(e, multi, scale) for e in obj]
        for i in self._desc:
            obj = _component(obj, self.tags[i], multi[i])
        return obj * scale if scale != 1 else obj

    @property
    def value(self):
        return self.partial([0] * len(self.tags))


def _component(obj, tag: int, d: int):
    if isinstance(obj, Jet) and obj.tag == tag:
        c = obj.coeffs[d] if d < len(obj.coeffs) else None
        return 0.0 if c is None else c  # None: a structurally zero Grad tangent
    # value independent of this variable
    return obj if d == 0 else 0.0


def directional_derivatives(f: Callable, z: Sequence, dirs: Sequence[tuple[Sequence, int]]) -> TaylorResult:
    """Mixed Taylor data of t -> f(z + sum_a t_a p_a) at t = 0, for the
    directions (p_a, order_a) of `dirs`, each seeded to its order (>= 1).

    f takes one point list and returns a generic scalar or a nested list of
    them.  The result's tags follow `dirs`, and each tag is newer than every
    tag of an enclosing pass, so passes nested inside f stay well ordered.
    A zero component of p_a (a float or int) leaves that coordinate alone.
    A direction whose length is not that of z raises ValueError.
    """
    pts, tags, orders = list(z), [], []
    for vec, order in dirs:
        if order < 1:
            raise ValueError(f"a seeded direction needs order >= 1, got {order}")
        if len(vec) != len(pts):
            raise ValueError(f"a direction of length {len(vec)} at a point of length {len(pts)}")
        t = next(_TAGS)
        tags.append(t)
        orders.append(order)
        gen = Jet(t, [0.0, 1.0] + [0.0] * (order - 1))
        pts = [p + gen * v if _nonzero(v) else p for p, v in zip(pts, vec)]
    return TaylorResult(f(pts), tags, orders)


def _nonzero(v):
    return not isinstance(v, (float, int, Recorded)) or v != 0


def joint_derivative(f: Callable, x: Sequence, y: Sequence, dx: Sequence, dy: Sequence):
    """f(x, y) and its first derivative along the joint direction (dx, dy):
    one tag moves x by t dx and y by t dy together, seeded on the
    concatenated point (x, y).  Returns (value, derivative), each nested like
    the value of f.  dx and dy must have the lengths of x and y (ValueError)."""
    n = len(x)
    if len(dx) != n or len(dy) != len(y):
        raise ValueError(f"a direction of lengths ({len(dx)}, {len(dy)}) at a point of lengths ({n}, {len(y)})")
    res = directional_derivatives(lambda z: f(z[:n], z[n:]), [*x, *y], [([*dx, *dy], 1)])
    return res.value, res.partial([1])


def gradient(f: Callable, z: Sequence):
    """(f(z), d1) with d1[k] = df/dz^k, each nested like the value of f (a
    generic scalar or a nested list of them), from one evaluation of f on
    Grad jets that carry all n tangents.  Each coordinate is seeded with a
    structurally zero tangent (None) in every direction but its own, so an
    operation whose operands do not depend on z^k takes no float operation
    for d_k, and d_k of a value that does not depend on z^k is the float 0.0.

    The value is coefficient 0 of the pass, which takes the float operations
    of f(z), so it equals f(z) bit for bit unless f raises to an integer
    power (a Grad multiplies, a float calls pow).  A derivative in x at a
    fixed y takes f = lambda xs: H(xs, y), one in y f = lambda ys: H(x, ys).
    """
    n, t = len(z), next(_TAGS)
    root = f([Grad(t, [p, *(1.0 if j == k else None for j in range(n))]) for k, p in enumerate(z)])
    f0, *d1 = (_nest(lambda u: _component(u, t, k), root) for k in range(n + 1))
    return f0, d1


def hessian(f: Callable, z: Sequence) -> list:
    """Second partials d2[k][l] = d2f/dz^k dz^l of f at z, each nested like
    the value of f: one directional_derivatives call per coordinate (seeded
    to order 2) and one per coordinate pair k < l."""
    n = len(z)
    d2 = [[None] * n for _ in range(n)]
    for k in range(n):
        d2[k][k] = directional_derivatives(f, z, [(basis(n, k), 2)]).partial([2])
        for l in range(k + 1, n):
            pair = [(basis(n, k), 1), (basis(n, l), 1)]
            d2[k][l] = d2[l][k] = directional_derivatives(f, z, pair).partial([1, 1])
    return d2


def basis(n: int, i: int) -> list:
    """The i-th standard basis vector of R^n, as a list."""
    e = [0.0] * n
    e[i] = 1.0
    return e


def values_array(entries, sites: tuple = ()) -> np.ndarray:
    """Base values of a nested list of generic scalars as one float array.

    Entries evaluated on a batch of sites are arrays; they broadcast the
    scalar entries (and `sites`), so the nesting dimensions come first and
    the site dimensions last: a matrix of entries over m sites becomes an
    (n, n, m) array, at one site an (n, n) array.
    """
    leaves = []

    def index(obj):
        if isinstance(obj, (list, tuple)):
            return [index(e) for e in obj]
        leaves.append(np.asarray(value(obj), dtype=float))
        return len(leaves) - 1

    where = np.array(index(entries))
    site_shape = np.broadcast_shapes(tuple(sites), *(v.shape for v in leaves))
    return np.stack([np.broadcast_to(v, site_shape) for v in leaves])[where]

