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
derivations: abs of a smooth argument lands on the co{+-grad} form by
the smooth rule alone, as the max of [{grad}, {0}] and [{-grad}, {0}],
with no fold-back; a tied min of smooth branches on the concave-led
[{0}, co{gradients}] form; and |f - y| keeps the raw max-rule pair when
f itself has kinks.

Forward mode.  A differentiable f has the quasidifferential
[{grad f}, {0}], so a kink-free subtree is carried as one (value,
gradient) pair by _vgrad and wrapped once, by qd_smooth, where it meets
a max or min node, an arithmetic node above a kink (scaled by its slope
first) or the root; under an abs node it is wrapped as g and as -g, the
two branches of max(f, -f).  Each node knows at construction whether its
subtree has a kink (_piecewise), so the dispatch costs O(1).  Only the
kink nodes and the nodes above them combine pairs, by four rules of
calculus's pair algebra: qd_smooth (a gradient as a pair), qd_add, _scale
and _extremum (max or min; abs walks as max(f, -f)).  Each is called by
its module-global name, so a wrapper bound to that name in this module
(perfbench's tracer) sees the call.  x is a point (n,): a value is an
np.float64, a gradient an array (n,).

The slopes rule.  Each smooth-arithmetic node states its derivative
once, as two functions of its operands' values: _value, and _slopes, its
partial derivative in each operand (Neg -1; Add 1, 1; Sub 1, -1;
Mul vb, va; SmoothUnary f'(v)).  _vgrad folds sum_i slope_i grad_i, and
above a kink _vqd_pair folds the add of the operands' scaled parts, the
sum and scale rules of the Demyanov-Rubinov calculus: _scale(pair_i,
slope_i) for a kinked operand, qd_smooth(slope_i grad_i) for a smooth
one, which enters as [{slope_i grad_i}, {0}] whatever the sign of its
slope, not as the swapped [{0}, {slope_i grad_i}].  Values and slopes
are np.float64, so an overflow in either raises under np.errstate at the
node that makes it.

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
from typing import Sequence

import numpy as np

from .calculus import (Quasidifferential, absorb_singleton_sub, qd_add,
                       qd_max, qd_min, qd_scale, qd_smooth)


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

    def _vqd(self, x, params):
        """Value and pair at the point x: forward mode for a smooth
        subtree, the pair rules above a kink."""
        if self._piecewise:
            return self._vqd_pair(x, params)
        v, g = self._vgrad(x, params)
        return v, qd_smooth(g)

    # The two walks below fold the _value(*vals) and _slopes(*vals) of a
    # smooth-arithmetic node (the slopes rule of the module docstring);
    # the leaves and the kink nodes override the walk they take.

    def _vgrad(self, x, params):
        """Value and gradient of a smooth subtree: sum_i slope_i grad_i
        over the operands.  The values are np.float64, as _broadcast
        makes them, so that overflow in the scalar arithmetic raises
        under np.errstate."""
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

    def _vqd_pair(self, x, params):
        """Value and pair of a subtree with a kink: the sum over the
        operands, left to right, of each operand's part scaled by its
        slope.  A kinked operand's pair is scaled by _scale; a smooth
        operand's gradient is scaled first and wrapped once, by
        qd_smooth, so it stays in the subdifferential whatever the sign
        of its slope."""
        ops = _operands(self)
        vals, parts = zip(*[c._vqd_pair(x, params) if c._piecewise
                            else c._vgrad(x, params) for c in ops])
        return self._value(*vals), reduce(qd_add, [
            _scale(q, t) if c._piecewise else qd_smooth(_times(q, t))
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
    """slope t times gradient g; 1.0 g is g, so a slope of 1 keeps g
    itself."""
    return g if t == 1.0 else g * t


# The scale and extremum rules of the walk, over calculus's qd_scale,
# qd_max and qd_min; qd_smooth and qd_add are used as they are.

def _scale(q, t):
    """qd_scale(q, t); a part with slope 1 enters as it is, since qd_scale
    by 1 keeps the polytopes."""
    return q if t == 1.0 else qd_scale(q, t)


def _extremum(node, items):
    """The (value, pair) of a max-keyed (Max, Abs) or min-keyed node from
    its branches' (value, pair) items."""
    vals = [v for v, _ in items]
    if node._key is np.positive:
        return max(vals), qd_max(items)
    out = qd_min(items)
    # tie among smooth branches: display concave-led, [{0}, co{grads}]
    if out.sup.nvertices > 1 and \
            not any(c._piecewise for c in node.children):
        out = absorb_singleton_sub(out)
    return min(vals), out


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
        g = np.zeros(x.shape)
        g[self.index - 1] = 1.0
        return x[self.index - 1], g

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
        return _broadcast(params[self.name], x), np.zeros(x.shape)

    def _fmt(self):
        return self.name, _ATOM


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, point, params=None):
        return _broadcast(self.value, point)

    def _vgrad(self, x, params):
        return _broadcast(self.value, x), np.zeros(x.shape)

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
    _key = np.positive

    def evaluate(self, point, params=None):
        return np.abs(self.child.evaluate(point, params))

    def _vqd_pair(self, x, params):
        """|f| as max(f, -f): the child is walked once, and _extremum,
        max-keyed, combines (v, part) with (-v, part negated by the
        operands' rule of Expr._vqd_pair): _scale(q, -1) for a kinked
        child, qd_smooth(-g) for a smooth one, which keeps -g in the
        subdifferential.  The value is abs(v), as evaluate gives it."""
        if self.child._piecewise:
            v, q = self.child._vqd_pair(x, params)
            neg = _scale(q, -1.0)
        else:
            v, g = self.child._vgrad(x, params)
            q, neg = qd_smooth(g), qd_smooth(-g)
        return abs(v), _extremum(self, [(v, q), (-v, neg)])[1]

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

    def _vqd_pair(self, x, params):
        return _extremum(self, [c._vqd(x, params) for c in self.children])

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"{self._name}({inner})", _ATOM


# _key: what qd_max ranks a branch by, v for max (and for Abs, the max
# of f and -f) and -v for min, as qd_min is -max(-f_i)
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
    return e._vqd(b.point, b.params)


def qd_at(e: Expr, b: Binding) -> Quasidifferential:
    return qd_value_at(e, b)[1]


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
