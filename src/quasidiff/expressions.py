"""Expression trees with exact quasidifferential propagation.

The grammar covers what the checks need and nothing more: variables
x1..xn, lowercase parameter names, +, -, *, sin, cos, exp, pow(e, k),
abs, max, min, parentheses and decimal literals.  No division.

Evaluation is numpy-vectorized over batches of points, and a point and
a batch row run the same IEEE operations, so evaluate at a point equals
that row of a batch by bytes.  pow(e, k) is the one node whose numpy
forms differ (the array v ** k rounds some last bits otherwise than the
scalar one), so it takes one chain in both, for its value and for its
derivative k * v^(k-1) alike: r = v, then for each bit of k after the
leading one, r = r * r, and r = r * v when the bit is 1.  The computed
v^k carries at most k - 1 rounding factors (1 + d), |d| <= u = 2^-53, so
its relative error is at most (1 + u)^(k-1) - 1, about (k - 1) u,
barring underflow and overflow.

qd_value_at walks the tree bottom-up applying the quasidifferential
rules.  Representatives are only unique up to equivalence shifts, so the
walk fixes a convention: kink-free subtrees are differentiated as smooth
functions (the gradient stays in the subdifferential, even through
negation, scaling and a product with a kinked factor of either sign),
while any subtree containing abs, max or min is combined by the raw pair
algebra, whose scale rule swaps the sets under negation.  So
x1 * (abs(x2) - 1) at (0.5, 0) keeps -grad x1 in the subdifferential, as
abs(x2) - x1 does.  This matches how the pairs are written down in worked
derivations: abs of a smooth argument lands on the co{+-grad} form, a
tied min of smooth branches on the concave-led [{0}, co{gradients}]
form, and |f - y| keeps the raw max-rule pair when f itself has kinks.

Forward mode.  A differentiable f has the quasidifferential
[{grad f}, {0}], so a kink-free subtree is carried as one (value,
gradient) pair by _vgrad and wrapped once, by the smooth rule, where it
meets an abs, max or min node, an arithmetic node above a kink (scaled
by its slope first) or the root.  Each node knows at construction
whether its subtree has a kink (_piecewise), so the dispatch costs
O(1).  Only the kink nodes and the nodes above them combine pairs.  x is
a point (n,) or a batch of rows (N, n): a value is an np.float64 at a
point and an array (N,) over a batch, a gradient an array (n,) or
(n, N), one column per row.

Rule sets.  _vqd and _vqd_pair state each node's walk once and combine
pairs only through a rule set: smooth (a gradient as a pair), add,
scale, abs and extremum (max or min).  qd_value_at walks with _PAIRS,
calculus's pair algebra at one point; qd_rows_at with _ROWS, the row
walk below, which builds no polytope at all.

The slopes rule.  Each smooth-arithmetic node states its derivative
once, as two functions of its operands' values: _value, and _slopes, its
partial derivative in each operand (Neg -1; Add 1, 1; Sub 1, -1;
Mul vb, va; SmoothUnary f'(v)).  _vgrad folds sum_i slope_i grad_i, and
above a kink _vqd_pair folds the add of the operands' scaled parts, the
sum and scale rules of the Demyanov-Rubinov calculus: scale(pair_i,
slope_i) for a kinked operand, smooth(slope_i grad_i) for a smooth one,
which enters as [{slope_i grad_i}, {0}] whatever the sign of its slope,
not as the swapped [{0}, {slope_i grad_i}].  Values and slopes stay
np.float64 at a point, so an overflow in either raises under np.errstate
at the node that makes it.

The row walk.  Where each abs, max and min node has exactly one branch
within FEAS_TOL of its top, qd_max keeps that branch's pair, and every
pair of the walk is a pair of singletons [{a}, {b}].  _ROWS carries a
and b as (n, N) arrays, one column per row, and states each rule on
them: abs and extremum keep the one active branch, which _sole_active
finds by qd_max's comparisons.  Each row has the bytes of its qd_at:
  a canonical singleton is row + 0.0, as the lift by 2^k is exact both
  ways;
  minkowski_sum with {0} returns the other operand, which is
  (a + b) + 0.0 on rows without -0, and canonical rows have none;
  scale by 1, -1 or 0 gives t row + 0.0 as well, and qd_scale swaps the
  sets where t < 0;
  qd_min scales by -1 twice, and -(-a + 0.0) + 0.0 is a.
steepest_rate of [{a}, {b}] takes its one vertex w = b, and
nearest_point's offset a - (-w) is a + b; calculus.singleton_rates norms
it lifted, as a 1-D row, as nearest_point does.  The walk declines (None)
where a row ties, a value at a kink or an entry is not finite (Polytope
raises there), or the batch raises FloatingPointError; the caller then
takes each row's pair walk, which raises what it always raised.

The output is, byte for byte, the one the pair algebra gives when it is
applied at every node (tests/test_forward_mode.py keeps that walk, with
each node's rule written out, as its oracle).  That walk also keeps a
smooth subtree as [{g}, {0}], but builds it at every node from canonical
vertex rows, and canonicalisation adds 0.0 to every entry.  The folds do
its IEEE operations on the rows, less additions of zero:
  1.0 g is g, and x + (-1.0 y) is x - y, exactly;
  addition is commutative, so Mul's vb ga + va gb is va gb + vb ga;
  qd_scale(q, 1.0) returns q's own polytopes;
  a Minkowski sum's canonical array does not depend on the order of its
  operands: the sums are the same multiset, lex-sorted before the dedup,
  and the {0} shortcuts are symmetric.
Adding a zero to a nonzero number changes no bit, and a zero entry stays
a zero whatever the sign of its operands, so the two walks differ at
most in the signs of zero entries, which the final + 0.0 erases.  The
node-by-node walk rejects a non-finite row at the node that makes it
("polytope vertices must be finite"); here inf and nan stay in the
gradient (inf * 0 and inf - inf give nan, never a finite number), so
the same GeometryError is raised where the subtree is wrapped, unless
an exception from the nodes evaluated in between (an overflow, say)
comes first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .calculus import (Quasidifferential, absorb_singleton_sub,
                       absorb_singleton_sup, qd_abs, qd_add, qd_max, qd_min,
                       qd_scale, qd_smooth)
from .geometry import FEAS_TOL


class ExpressionError(ValueError):
    pass


class ExprSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class _LocatedError(ExpressionError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownIdentifierError(_LocatedError):
    pass


class ArityError(_LocatedError):
    pass


class UnboundParameterError(ExpressionError):
    def __init__(self, name: str):
        super().__init__(f"unbound parameter '{name}'")
        self.name = name


class _Declined(Exception):
    """The row walk meets a tie at a kink or a number that is not finite."""


@dataclass(frozen=True)
class Binding:
    """Evaluation context: a point in R^n plus parameter values."""

    point: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    @property
    def n(self) -> int:
        return self.point.shape[-1]


# precedence levels used by the printer
_ADD, _MUL, _PREFIX, _ATOM = 1, 2, 3, 4


class Expr:
    """Base node.  Subclasses are frozen dataclasses; trees are values."""

    # whether the subtree contains an abs, max or min node; Abs, Max and
    # Min set it on the class, every other node at construction from its
    # operands
    _piecewise = False
    # operator levels from the node down to its deepest leaf (0 for a
    # leaf); it bounds the recursion of evaluate, _vqd and to_text
    _depth = 0

    def __post_init__(self):
        ops = _operands(self)
        if ops:
            object.__setattr__(self, "_depth", _depth_above(ops))
            if any(c._piecewise for c in ops):
                object.__setattr__(self, "_piecewise", True)

    def evaluate(self, point, params=None):
        """Evaluate at point (shape (..., n)); broadcasts over batches."""
        raise NotImplementedError

    def _vqd(self, x, params, rules):
        """Value and pair at x, a point (n,) or a batch of rows (N, n):
        forward mode for a smooth subtree, the rule set above a kink."""
        if self._piecewise:
            return self._vqd_pair(x, params, rules)
        v, g = self._vgrad(x, params)
        return v, rules.smooth(g)

    # The two walks below fold the _value(*vals) and _slopes(*vals) of a
    # smooth-arithmetic node (the slopes rule of the module docstring);
    # the leaves and the kink nodes override the walk they take.

    def _vgrad(self, x, params):
        """Value and gradient of a smooth subtree: sum_i slope_i grad_i
        over the operands.  At a point the values are np.float64, as
        _broadcast makes them, so that overflow in the scalar arithmetic
        raises under np.errstate; over a batch they are arrays (N,) and
        the gradients (n, N), one column per row, so that a slope with
        one entry per row scales them as a float slope does."""
        # spelled out for the one or two operands a smooth node has: this
        # walk runs once per node of every smooth subtree
        ops = _operands(self)
        if len(ops) == 1:
            v, g = ops[0]._vgrad(x, params)
            (t,) = self._slopes(v)
            return self._value(v), _times(g, t)
        (va, ga), (vb, gb) = ops[0]._vgrad(x, params), ops[1]._vgrad(x, params)
        ta, tb = self._slopes(va, vb)
        return self._value(va, vb), _times(ga, ta) + _times(gb, tb)

    def _vqd_pair(self, x, params, rules):
        """Value and pair of a subtree with a kink: the sum over the
        operands, left to right, of each operand's part scaled by its
        slope.  A kinked operand's pair is scaled by the scale rule; a
        smooth operand's gradient is scaled first and wrapped once, by
        the smooth rule, so it stays in the subdifferential whatever the
        sign of its slope."""
        ops = _operands(self)
        vals, parts = zip(*[c._vqd_pair(x, params, rules) if c._piecewise
                            else c._vgrad(x, params) for c in ops])
        return self._value(*vals), reduce(rules.add, [
            rules.scale(q, t) if c._piecewise else rules.smooth(_times(q, t))
            for c, t, q in zip(ops, self._slopes(*vals), parts)])

    def _fmt(self) -> tuple[str, int]:
        raise NotImplementedError

    def to_text(self) -> str:
        return self._fmt()[0]


def _operands(e: Expr) -> tuple[Expr, ...]:
    """The subtrees directly below e, in order."""
    if isinstance(e, (Add, Sub, Mul)):
        return e.a, e.b
    if isinstance(e, (Neg, SmoothUnary, Abs)):
        return (e.child,)
    if isinstance(e, _Extremum):
        return e.children
    return ()


def _depth_above(children) -> int:
    """_depth of a node over these children."""
    return 1 + max([c._depth for c in children]) if children else 0


def _times(g, t):
    """slope t times gradient g; 1.0 g is g, so a float slope of 1 keeps
    g itself (a slope with one entry per row is always multiplied)."""
    return g if isinstance(t, float) and t == 1.0 else g * t


# The rule sets of the module docstring.  smooth(g), add(p, q),
# scale(q, t) and abs(v, q, smooth_child) return a pair, and
# extremum(node, items) the (value, pair) of a max or min node from its
# children's (value, pair) items.

def _abs_pairs(v, q, smooth_child):
    out = qd_abs(q, v)
    # smooth argument: fold back to the co{+-grad} form
    return absorb_singleton_sup(out) if smooth_child else out


def _extremum_pairs(node, items):
    vals = [v for v, _ in items]
    if isinstance(node, Max):
        return max(vals), qd_max(items)
    out = qd_min(items)
    # tie among smooth branches: display concave-led, [{0}, co{grads}]
    if out.sup.nvertices > 1 and \
            not any(c._piecewise for c in node.children):
        out = absorb_singleton_sub(out)
    return min(vals), out


# calculus's pair algebra, at one point.  A part with slope 1 enters as it
# is: qd_scale by 1 keeps the polytopes.  The rules name each calculus
# function when they run, so that a wrapper bound to its name in this
# module (perfbench's tracer) sees the call.
_PAIRS = SimpleNamespace(smooth=lambda g: qd_smooth(g),
                         add=lambda p, q: qd_add(p, q),
                         scale=lambda q, t: q if t == 1.0 else qd_scale(q, t),
                         abs=_abs_pairs, extremum=_extremum_pairs)


# The row walk of the module docstring: a pair [{a}, {b}] is the tuple
# (a, b) of (n, N) arrays, one column per row.

def _canonical_rows(x):
    """The canonical vertex of each singleton {x_i}: x + 0.0, since the
    lift by 2^k is exact both ways.  _Declined where Polytope raises, on
    an entry that is not finite."""
    if not np.isfinite(x).all():
        raise _Declined
    return x + 0.0


def _smooth_rows(g):
    """qd_smooth(g) at each row: [{g}, {0}]."""
    return _canonical_rows(g), np.zeros_like(g)


def _scale_rows(q, t):
    """qd_scale(q, t) at each row: t a and t b, swapped where t < 0.
    scale's shortcuts agree: 1 a + 0.0 is a, 0 a + 0.0 is 0, and
    -a + 0.0 is the flip."""
    ta, tb = _canonical_rows(q[0] * t), _canonical_rows(q[1] * t)
    flip = t < 0
    return np.where(flip, tb, ta), np.where(flip, ta, tb)


def _add_rows(p, q):
    """qd_add at each row: a + 0 is a, so minkowski_sum's {0} shortcut
    gives the bytes of the sum as well."""
    return _canonical_rows(p[0] + q[0]), _canonical_rows(p[1] + q[1])


def _sole_active(keys):
    """Mask (branch, row) of the branch that qd_max keeps active, the one
    whose key lies within FEAS_TOL of the top key: the same comparisons
    as qd_max's.  _Declined where a row keeps more than one branch or a
    key is not finite."""
    active = keys >= keys.max(axis=0) - FEAS_TOL
    if not (np.isfinite(keys).all() and (active.sum(axis=0) == 1).all()):
        raise _Declined
    return active


def _abs_rows(v, q, smooth_child):
    """qd_abs is qd_max of (v, q) and (-v, -q): the sign of the active
    branch scales q; absorb_singleton_sup of a smooth child's pair is
    [{a + b}, {0}]."""
    first = _sole_active(np.stack([v, -v]))[0]
    a, b = _scale_rows(q, np.where(first, 1.0, -1.0))
    return _smooth_rows(a + b) if smooth_child else (a, b)


def _extremum_rows(node, items):
    """One active branch: qd_max and qd_min return its pair (qd_min scales
    by -1 twice, and -(-a + 0.0) + 0.0 is a), and its value is the max or
    the min."""
    vals, pairs = zip(*items)
    subs, sups = zip(*pairs)
    active = list(_sole_active(node._key(np.stack(vals))))
    return np.select(active, vals), (np.select(active, subs),
                                     np.select(active, sups))


_ROWS = SimpleNamespace(smooth=_smooth_rows, add=_add_rows, scale=_scale_rows,
                        abs=_abs_rows, extremum=_extremum_rows)


def _wrap(child: Expr, minlevel: int) -> str:
    s, lvl = child._fmt()
    return f"({s})" if lvl < minlevel else s


def _broadcast(value, point):
    """A value free of x as evaluate returns it: an np.float64 at a point;
    over a batch, an array of copies, or of its entries for an array value
    with one entry per row.  Never a Python float, whose arithmetic
    overflows to inf without the FloatingPointError that np.errstate
    raises for numpy's."""
    point = np.asarray(point, dtype=float)
    return np.broadcast_to(value, point.shape[:-1]).astype(float) \
        if point.ndim > 1 else np.float64(value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written in the source text

    def evaluate(self, point, params=None):
        point = np.asarray(point, dtype=float)
        if self.index > point.shape[-1]:
            raise ExpressionError(
                f"variable x{self.index} outside point dimension {point.shape[-1]}")
        return point[..., self.index - 1]

    def _vgrad(self, x, params):
        # x.T[i] is an np.float64 at a point and column i of a batch
        g = np.zeros(x.shape[::-1])
        g[self.index - 1] = 1.0
        return x.T[self.index - 1], g

    def _fmt(self):
        return f"x{self.index}", _ATOM


@dataclass(frozen=True)
class Param(Expr):
    name: str

    def evaluate(self, point, params=None):
        """The bound value: a scalar, or an array with one entry per row of
        a batch of points."""
        params = params or {}
        if self.name not in params:
            raise UnboundParameterError(self.name)
        return _broadcast(params[self.name], point)

    def _vgrad(self, x, params):
        if self.name not in params:
            raise UnboundParameterError(self.name)
        return _broadcast(params[self.name], x), np.zeros(x.shape[::-1])

    def _fmt(self):
        return self.name, _ATOM


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, point, params=None):
        return _broadcast(self.value, point)

    def _vgrad(self, x, params):
        return _broadcast(self.value, x), np.zeros(x.shape[::-1])

    def _fmt(self):
        return _format_number(self.value), _ATOM


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def evaluate(self, point, params=None):
        # the literal operator, not _value: over a batch numpy then writes
        # the result into the operand's temporary instead of a new buffer
        return -self.child.evaluate(point, params)

    def _value(self, v):
        return -v

    def _slopes(self, v):
        return (-1.0,)

    def _fmt(self):
        return "-" + _wrap(self.child, _PREFIX), _PREFIX


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        # literal, as in Neg: the sum reuses a temporary's buffer
        return self.a.evaluate(point, params) + self.b.evaluate(point, params)

    def _value(self, va, vb):
        return va + vb

    def _slopes(self, va, vb):
        return 1.0, 1.0

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} + {_wrap(self.b, _ADD)}", _ADD


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        # literal, as in Neg: the difference reuses a temporary's buffer
        return self.a.evaluate(point, params) - self.b.evaluate(point, params)

    def _value(self, va, vb):
        return va - vb

    def _slopes(self, va, vb):
        return 1.0, -1.0

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} - {_wrap(self.b, _ADD + 1)}", _ADD


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        # literal, as in Neg: the product reuses a temporary's buffer
        return self.a.evaluate(point, params) * self.b.evaluate(point, params)

    def _value(self, va, vb):
        return va * vb

    def _slopes(self, va, vb):
        return vb, va

    def _fmt(self):
        return f"{_wrap(self.a, _MUL)} * {_wrap(self.b, _MUL)}", _MUL


# value and derivative of each smooth function of one argument; pow,
# whose rule reads its exponent, is SmoothUnary's own
_SMOOTH = {"sin": (np.sin, np.cos),
           "cos": (np.cos, lambda v: -np.sin(v)),
           "exp": (np.exp, np.exp)}


def _power(v, k: int):
    """v ** k for an integer k >= 0 (1 for k = 0) by the pow chain of the
    module docstring.  At a point v becomes an np.float64, so overflow
    raises under np.errstate; over a batch the chain multiplies in place
    into its own buffer, and v, which may be a view of the caller's
    array, is never written."""
    if isinstance(v, np.ndarray) and v.ndim:
        r = v if k else np.ones_like(v)
        for bit in bin(k)[3:]:
            r = np.multiply(r, r, out=None if r is v else r)
            if bit == "1":
                np.multiply(r, v, out=r)
        return r
    v = np.float64(v)
    r = v if k else np.float64(1.0)
    for bit in bin(k)[3:]:
        r = r * r
        if bit == "1":
            r = r * v
    return r


@dataclass(frozen=True)
class SmoothUnary(Expr):
    kind: str
    child: Expr
    k: int | None = None  # exponent, pow only

    def __post_init__(self):
        if self.kind == "pow":
            if not isinstance(self.k, int) or self.k < 1:
                raise ArityError("pow needs an integer exponent k >= 1")
        elif self.kind not in _SMOOTH:
            raise ExpressionError(f"unknown smooth function '{self.kind}'")
        elif self.k is not None:
            raise ExpressionError(f"{self.kind} takes no exponent")
        super().__post_init__()

    def evaluate(self, point, params=None):
        return self._value(self.child.evaluate(point, params))

    def _value(self, v):
        return _power(v, self.k) if self.kind == "pow" \
            else _SMOOTH[self.kind][0](v)

    def _slopes(self, v):
        return (self.k * _power(v, self.k - 1) if self.kind == "pow"
                else _SMOOTH[self.kind][1](v),)

    def _fmt(self):
        inner = self.child._fmt()[0]
        if self.kind == "pow":
            return f"pow({inner}, {self.k})", _ATOM
        return f"{self.kind}({inner})", _ATOM


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr
    _piecewise = True

    def evaluate(self, point, params=None):
        return np.abs(self.child.evaluate(point, params))

    def _vqd_pair(self, x, params, rules):
        v, q = self.child._vqd(x, params, rules)
        return abs(v), rules.abs(v, q, not self.child._piecewise)

    def _fmt(self):
        return f"abs({self.child._fmt()[0]})", _ATOM


@dataclass(frozen=True)
class _Extremum(Expr):
    """max or min of two or more children; the subclass names the
    function and its numpy reduction."""

    children: tuple[Expr, ...]
    _piecewise = True

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError(f"{self._name} needs at least two arguments")
        super().__post_init__()

    def evaluate(self, point, params=None):
        return self._reduce([c.evaluate(point, params) for c in self.children])

    def _vqd_pair(self, x, params, rules):
        return rules.extremum(
            self, [c._vqd(x, params, rules) for c in self.children])

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"{self._name}({inner})", _ATOM


# _key: what qd_max ranks a branch by, v for max and -v for min, as
# qd_min is -max(-f_i)
class Max(_Extremum):
    _name, _reduce, _key = "max", np.maximum.reduce, np.positive


class Min(_Extremum):
    _name, _reduce, _key = "min", np.minimum.reduce, np.negative


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                       r"|(?P<ident>[a-z][a-z0-9_]*)"
                       r"|(?P<op>[-+*(),])|(?P<bad>\S))")


def _pow(args: list, at: int) -> Expr:
    k = args[1]
    if not isinstance(k, Const) or k.value != int(k.value) or int(k.value) < 1:
        raise ArityError("pow exponent must be an integer literal >= 1", at)
    return SmoothUnary("pow", args[0], int(k.value))


# The grammar's functions: name -> (fewest arguments, most arguments or
# None for no bound, builder of the node from the arguments and the byte
# offset of the call)
_FUNCTIONS = {
    **{kind: (1, 1, lambda args, at, kind=kind: SmoothUnary(kind, args[0]))
       for kind in _SMOOTH},
    "pow": (2, 2, _pow),
    "abs": (1, 1, lambda args, at: Abs(args[0])),
    "max": (2, None, lambda args, at: Max(tuple(args))),
    "min": (2, None, lambda args, at: Min(tuple(args))),
}

_VAR_RE = re.compile(r"x[0-9]+$")

# the binary operators: precedence level (higher binds tighter) and node
_BINARY = {"+": (0, Add), "-": (0, Sub), "*": (1, Mul)}

# Deepest expression the parser accepts.  Evaluation, the
# quasidifferential walk and printing recurse once or twice per tree
# level, and the parser a few frames per level of parentheses, call
# arguments or unary minus, so both are capped here, far inside Python's
# default recursion limit of 1000 frames.  A deeper text is a syntax
# error, not a RecursionError.
MAX_DEPTH = 100


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.nesting = 0

    def _tokenize(self, text):
        tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                self._error(f"unexpected character {m.group(kind)!r}",
                            m.start(kind))
            tokens.append((kind, m.group(kind), m.start(kind)))
        tokens.append(("end", "", len(text)))
        return tokens

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _error(self, message, start):
        raise ExprSyntaxError(message, _byte_offset(self.text, start))

    def _deeper(self, depth: int, start: int) -> None:
        """A syntax error when depth passes MAX_DEPTH."""
        if depth > MAX_DEPTH:
            self._error(f"expression nests deeper than {MAX_DEPTH} levels",
                        start)

    def _nested(self, parse, start: int):
        """parse() one level further in: inside parentheses, a call or a
        unary minus.  Checked on the way down, before the recursion."""
        self.nesting += 1
        self._deeper(self.nesting, start)
        out = parse()
        self.nesting -= 1
        return out

    # The tree depth of each node is checked where the node is built, at
    # the byte offset of its operator or call.

    def parse(self) -> Expr:
        e = self._expr()
        kind, val, start = self._peek()
        if kind != "end":
            self._error(f"unexpected {val!r}", start)
        return e

    def _expr(self, level: int = 0) -> Expr:
        """Factors joined by the binary operators of this level or a
        tighter one, folded to the left."""
        node = self._factor()
        while True:
            kind, val, start = self._peek()
            op_level, build = _BINARY.get(val, (-1, None))
            if op_level < level:
                return node
            self._next()
            node = build(node, self._expr(op_level + 1))
            self._deeper(node._depth, start)

    def _factor(self) -> Expr:
        kind, val, start = self._peek()
        if kind == "op" and val == "-":
            self._next()
            node = Neg(self._nested(self._factor, start))
            self._deeper(node._depth, start)
            return node
        return self._atom()

    def _atom(self) -> Expr:
        kind, val, start = self._next()
        if kind == "num":
            if not np.isfinite(float(val)):
                self._error(f"number {val} overflows to infinity", start)
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self._nested(self._expr, start)
            k2, v2, s2 = self._next()
            if v2 != ")":
                self._error("expected ')'", s2)
            return e
        if kind == "ident":
            if val in _FUNCTIONS:
                return self._call(val, start)
            if _VAR_RE.fullmatch(val):
                idx = int(val[1:])
                if idx < 1 or idx > self.n:
                    raise UnknownIdentifierError(
                        f"variable {val} outside declared dimension n={self.n}",
                        _byte_offset(self.text, start))
                return Var(idx)
            return Param(val)
        self._error(f"unexpected {val!r}" if val else "unexpected end of input",
                    start)

    def _call(self, name: str, start: int) -> Expr:
        kind, val, s = self._next()
        if val != "(":
            self._error(f"expected '(' after {name}", s)
        args = [self._nested(self._expr, start)]
        while True:
            kind, val, s = self._next()
            if val == ",":
                args.append(self._nested(self._expr, start))
            elif val == ")":
                break
            else:
                self._error("expected ',' or ')'", s)
        # the depth of the call, before its arity is checked
        self._deeper(_depth_above(args), start)
        lo, hi, build = _FUNCTIONS[name]
        at = _byte_offset(self.text, start)
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = f"{lo}" if hi == lo else f">= {lo}"
            raise ArityError(f"{name} takes {want} argument(s), got {len(args)}",
                             at)
        return build(args, at)


def parse_expression(text: str, n: int) -> Expr:
    """Parse source text into an Expr over x1..xn.

    Raises ExprSyntaxError (with byte offset), UnknownIdentifierError or
    ArityError on malformed input; text nested deeper than MAX_DEPTH is
    an ExprSyntaxError.
    """
    if n < 1:
        raise ExpressionError("dimension n must be >= 1")
    return _Parser(text, n).parse()


def eval_expr(e: Expr, b: Binding) -> float:
    """Scalar evaluation at a binding."""
    out = e.evaluate(b.point, b.params)
    return float(out)


def qd_value_at(e: Expr, b: Binding) -> tuple[float, Quasidifferential]:
    """Value and canonical quasidifferential of e at the binding."""
    if b.point.ndim != 1:
        raise ExpressionError("quasidifferentials need a single point, not a batch")
    return e._vqd(b.point, b.params, _PAIRS)


def qd_at(e: Expr, b: Binding) -> Quasidifferential:
    return qd_value_at(e, b)[1]


def qd_rows_at(e: Expr, points, params) -> tuple | None:
    """The row walk: (values, a, b) with qd_at(e, row) = [{a_i}, {b_i}]
    at each row of points (shape (N, n)); params holds scalars and arrays
    with one entry per row.  None where the walk declines: a kink ties
    within FEAS_TOL at some row, a number is not finite, or the batch
    raises FloatingPointError (the module docstring)."""
    try:
        v, (a, b) = e._vqd(np.asarray(points, dtype=float), params, _ROWS)
    except (_Declined, FloatingPointError):
        return None
    return v, np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)


def qd_matrix_at(es: Sequence[Expr],
                 b: Binding) -> tuple[Quasidifferential, ...]:
    """The pair of each component of a vector-valued map, at one binding."""
    return tuple(qd_at(e, b) for e in es)


def _affine_degree(e: Expr) -> int:
    """0 when e is free of x, 1 when it is piecewise affine in x, else 2."""
    if isinstance(e, Var):
        return 1
    degrees = [_affine_degree(c) for c in _operands(e)]
    d = max(degrees, default=0)
    if isinstance(e, Mul):
        return d if min(degrees) == 0 else 2
    if isinstance(e, SmoothUnary):
        return d if d == 0 or (e.kind == "pow" and e.k == 1) else 2
    return d


def is_piecewise_affine(e: Expr) -> bool:
    """Whether e is built from x by affine maps, abs, max and min only.

    Affine here means coordinates, subtrees free of x (constants,
    parameters and smooth functions of them), +, -, negation, products
    with a factor free of x and pow(., 1).  Such a function has finitely
    many affine pieces, each on a polyhedron.
    """
    return _affine_degree(e) <= 1


def kink_distance(e: Expr, b: Binding) -> float:
    """Distance to the nearest nonsmooth switching surface, in value space.

    Minimum over Abs nodes of |argument| and over Max/Min nodes of the gap
    between the two leading children.  Infinite for smooth expressions.
    """
    gaps = []
    if isinstance(e, Abs):
        gaps.append(float(np.abs(e.child.evaluate(b.point, b.params))))
    elif isinstance(e, (Max, Min)):
        vals = [float(c.evaluate(b.point, b.params)) for c in e.children]
        vals = sorted(vals if isinstance(e, Max) else [-v for v in vals])
        gaps.append(float(vals[-1] - vals[-2]))
    return float(min(gaps + [kink_distance(c, b) for c in _operands(e)],
                     default=np.inf))
