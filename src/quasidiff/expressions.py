"""Expression trees with exact quasidifferential propagation.

The grammar covers what the checks need and nothing more: variables
x1..xn, lowercase parameter names, +, -, *, sin, cos, exp, pow(e, k),
abs, max, min, parentheses and decimal literals.  No division.

Evaluation is numpy-vectorized over batches of points.  qd_value_at walks
the tree bottom-up applying the quasidifferential rules.  Representatives
are only unique up to equivalence shifts, so the walk fixes a convention:
kink-free subtrees are differentiated as smooth functions (the gradient
stays in the subdifferential, even through negation and scaling), while
any subtree containing abs, max or min is combined by the raw pair
algebra, whose scale rule swaps the sets under negation.  This matches
how the pairs are written down in worked derivations: abs of a smooth
argument lands on the co{+-grad} form, a tied min of smooth branches on
the concave-led [{0}, co{gradients}] form, and |f - y| keeps the raw
max-rule pair when f itself has kinks.

Forward mode.  A differentiable f has the quasidifferential
[{grad f}, {0}], so a kink-free subtree is carried as one (value,
gradient) pair by _vgrad and wrapped once, by qd_smooth, where it meets
an abs, max or min node or the root.  Each node knows at construction
whether its subtree has a kink (_piecewise), so the dispatch costs O(1).
Only the kink nodes and the nodes above them build polytopes.

The output is, byte for byte, the one the pair algebra gives when it is
applied at every node (tests/test_forward_mode.py keeps that walk as its
oracle).  That walk also keeps a smooth subtree as [{g}, {0}], but
builds it at every node from canonical vertex rows, and
canonicalisation adds 0.0 to every entry.  Per node it does these IEEE
operations on the row g:
  Var, Const, Param  the unit vector, or zeros;
  Neg                scale by -1 swaps the sets, and the absorb step
                     adds them: 0 + (-1.0 g), and -1.0 g is -g;
  Add                ga + gb, and 0 + 0 for the superdifferential;
  Sub                ga + (0 + (-1.0 gb)); ga - gb is ga + (-gb) in IEEE
                     arithmetic;
  Mul                va gb and vb ga land in sub or in sup depending on
                     the signs of va and vb (a zero factor gives the
                     origin), and the absorb step adds sub and sup; in
                     every case the result is va gb + vb ga up to added
                     zeros, and a sum of two terms is exactly commutative;
  SmoothUnary        d g for the derivative d, placed as for Neg or Mul.
_vgrad does the same multiplications and additions, less the additions
of zero.  Adding a zero to a nonzero number changes no bit, and a zero
entry stays a zero whatever the sign of its operands, so the two walks
differ at most in the signs of zero entries, which the final + 0.0
erases.  The node-by-node walk rejects a non-finite row at the node that
makes it ("polytope vertices must be finite"); here inf and nan stay in
the gradient (inf * 0 and inf - inf give nan, never a finite number), so
the same GeometryError is raised where the subtree is wrapped, unless
an exception from the nodes evaluated in between (an overflow in pow,
say) comes first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import (Quasidifferential, absorb_singleton_sub,
                       absorb_singleton_sup, qd_abs, qd_add, qd_max, qd_min,
                       qd_mul, qd_scale, qd_smooth)


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

    def __post_init__(self):
        if any(c._piecewise for c in _operands(self)):
            object.__setattr__(self, "_piecewise", True)

    def evaluate(self, point, params=None):
        """Evaluate at point (shape (..., n)); broadcasts over batches."""
        raise NotImplementedError

    def _vqd(self, b: Binding):
        """Value and quasidifferential at b: forward mode for a smooth
        subtree, the pair algebra above a kink."""
        if self._piecewise:
            return self._vqd_pair(b)
        v, g = self._vgrad(b)
        return v, qd_smooth(g)

    def _vgrad(self, b: Binding) -> tuple[float, np.ndarray]:
        """Value and gradient of a smooth subtree."""
        raise NotImplementedError

    def _vqd_pair(self, b: Binding):
        """Value and quasidifferential of a subtree with a kink."""
        raise NotImplementedError

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
    if isinstance(e, (Max, Min)):
        return e.children
    return ()


def _wrap(child: Expr, minlevel: int) -> str:
    s, lvl = child._fmt()
    return f"({s})" if lvl < minlevel else s


def _broadcast(value, point):
    """A value free of x as evaluate returns it: a float at a point; over a
    batch, an array of copies, or of its entries for an array value with
    one entry per row."""
    point = np.asarray(point, dtype=float)
    return np.broadcast_to(value, point.shape[:-1]).astype(float) \
        if point.ndim > 1 else float(value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written in the source text

    def evaluate(self, point, params=None):
        point = np.asarray(point, dtype=float)
        if self.index > point.shape[-1]:
            raise ExpressionError(
                f"variable x{self.index} outside point dimension {point.shape[-1]}")
        return point[..., self.index - 1]

    def _vgrad(self, b):
        g = np.zeros(b.n)
        g[self.index - 1] = 1.0
        return float(b.point[self.index - 1]), g

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

    def _vgrad(self, b):
        if self.name not in b.params:
            raise UnboundParameterError(self.name)
        return float(b.params[self.name]), np.zeros(b.n)

    def _fmt(self):
        return self.name, _ATOM


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, point, params=None):
        return _broadcast(self.value, point)

    def _vgrad(self, b):
        return float(self.value), np.zeros(b.n)

    def _fmt(self):
        return _format_number(self.value), _ATOM


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def evaluate(self, point, params=None):
        return -self.child.evaluate(point, params)

    def _vgrad(self, b):
        v, g = self.child._vgrad(b)
        return -v, -g

    def _vqd_pair(self, b):
        v, q = self.child._vqd(b)
        return -v, qd_scale(q, -1.0)

    def _fmt(self):
        return "-" + _wrap(self.child, _PREFIX), _PREFIX


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) + self.b.evaluate(point, params)

    def _vgrad(self, b):
        va, ga = self.a._vgrad(b)
        vb, gb = self.b._vgrad(b)
        return va + vb, ga + gb

    def _vqd_pair(self, b):
        va, qa = self.a._vqd(b)
        vb, qb = self.b._vqd(b)
        return va + vb, qd_add(qa, qb)

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} + {_wrap(self.b, _ADD)}", _ADD


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) - self.b.evaluate(point, params)

    def _vgrad(self, b):
        va, ga = self.a._vgrad(b)
        vb, gb = self.b._vgrad(b)
        return va - vb, ga - gb

    def _vqd_pair(self, b):
        va, qa = self.a._vqd(b)
        if self.b._piecewise:
            vb, qb = self.b._vqd(b)
            nb = qd_scale(qb, -1.0)
        else:
            # a smooth subtrahend stays smooth-led: [{-grad}, {0}]
            vb, gb = self.b._vgrad(b)
            nb = qd_smooth(-gb)
        return va - vb, qd_add(qa, nb)

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} - {_wrap(self.b, _ADD + 1)}", _ADD


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) * self.b.evaluate(point, params)

    def _vgrad(self, b):
        va, ga = self.a._vgrad(b)
        vb, gb = self.b._vgrad(b)
        return va * vb, va * gb + vb * ga

    def _vqd_pair(self, b):
        va, qa = self.a._vqd(b)
        vb, qb = self.b._vqd(b)
        return va * vb, qd_mul(qa, qb, va, vb)

    def _fmt(self):
        return f"{_wrap(self.a, _MUL)} * {_wrap(self.b, _MUL)}", _MUL


# value and derivative of each smooth function of one argument; pow,
# whose rule reads its exponent, is SmoothUnary's own
_SMOOTH = {"sin": (np.sin, np.cos),
           "cos": (np.cos, lambda v: -np.sin(v)),
           "exp": (np.exp, np.exp)}


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
        v = self.child.evaluate(point, params)
        return v ** self.k if self.kind == "pow" else _SMOOTH[self.kind][0](v)

    def _rule(self, v: float) -> tuple[float, float]:
        """Value and derivative at the argument value v."""
        if self.kind == "pow":
            return v ** self.k, float(self.k) * v ** (self.k - 1)
        f, df = _SMOOTH[self.kind]
        return float(f(v)), float(df(v))

    def _vgrad(self, b):
        v, g = self.child._vgrad(b)
        value, d = self._rule(v)
        return value, d * g

    def _vqd_pair(self, b):
        v, q = self.child._vqd(b)
        value, d = self._rule(v)
        return value, qd_scale(q, d)

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

    def _vqd_pair(self, b):
        v, q = self.child._vqd(b)
        out = qd_abs(q, v)
        # smooth argument: fold back to the co{+-grad} form
        if not self.child._piecewise:
            out = absorb_singleton_sup(out)
        return abs(v), out

    def _fmt(self):
        return f"abs({self.child._fmt()[0]})", _ATOM


@dataclass(frozen=True)
class Max(Expr):
    children: tuple[Expr, ...]
    _piecewise = True

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("max needs at least two arguments")

    def evaluate(self, point, params=None):
        return np.maximum.reduce([c.evaluate(point, params) for c in self.children])

    def _vqd_pair(self, b):
        items = [c._vqd(b) for c in self.children]
        val = max(v for v, _ in items)
        return val, qd_max(items)

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"max({inner})", _ATOM


@dataclass(frozen=True)
class Min(Expr):
    children: tuple[Expr, ...]
    _piecewise = True

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("min needs at least two arguments")

    def evaluate(self, point, params=None):
        return np.minimum.reduce([c.evaluate(point, params) for c in self.children])

    def _vqd_pair(self, b):
        items = [c._vqd(b) for c in self.children]
        val = min(v for v, _ in items)
        out = qd_min(items)
        # tie among smooth branches: display concave-led, [{0}, co{grads}]
        if out.sup.nvertices > 1 and \
                not any(c._piecewise for c in self.children):
            out = absorb_singleton_sub(out)
        return val, out

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"min({inner})", _ATOM


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                       r"|(?P<ident>[a-z][a-z0-9_]*)"
                       r"|(?P<op>[-+*(),]))")


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
        i = 0
        while i < len(text):
            if not text[i:].strip():
                break
            m = _TOKEN_RE.match(text, i)
            if m is None:
                at = i + len(text[i:]) - len(text[i:].lstrip())
                raise ExprSyntaxError(f"unexpected character {text[at]!r}",
                                      _byte_offset(text, at))
            kind = m.lastgroup
            val = m.group(kind)
            start = m.end() - len(val)
            tokens.append((kind, val, start))
            i = m.end()
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

    def _deeper(self, depth: int, start: int) -> int:
        """depth, or a syntax error when it passes MAX_DEPTH."""
        if depth > MAX_DEPTH:
            self._error(f"expression nests deeper than {MAX_DEPTH} levels",
                        start)
        return depth

    def _nested(self, parse, start: int):
        """parse() one level further in: inside parentheses, a call or a
        unary minus.  Checked on the way down, before the recursion."""
        self.nesting = self._deeper(self.nesting + 1, start)
        out = parse()
        self.nesting -= 1
        return out

    # Each method returns (node, depth), depth being the number of
    # operator levels from node down to its deepest leaf; it bounds the
    # recursion of evaluate, _vqd and to_text.

    def parse(self) -> Expr:
        e, _ = self._expr()
        kind, val, start = self._peek()
        if kind != "end":
            self._error(f"unexpected {val!r}", start)
        return e

    def _expr(self) -> tuple[Expr, int]:
        node, depth = self._term()
        while True:
            kind, val, start = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs, d = self._term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
                depth = self._deeper(max(depth, d) + 1, start)
            else:
                return node, depth

    def _term(self) -> tuple[Expr, int]:
        node, depth = self._factor()
        while True:
            kind, val, start = self._peek()
            if kind == "op" and val == "*":
                self._next()
                rhs, d = self._factor()
                node = Mul(node, rhs)
                depth = self._deeper(max(depth, d) + 1, start)
            else:
                return node, depth

    def _factor(self) -> tuple[Expr, int]:
        kind, val, start = self._peek()
        if kind == "op" and val == "-":
            self._next()
            child, d = self._nested(self._factor, start)
            return Neg(child), self._deeper(d + 1, start)
        return self._atom()

    def _atom(self) -> tuple[Expr, int]:
        kind, val, start = self._next()
        if kind == "num":
            if not np.isfinite(float(val)):
                self._error(f"number {val} overflows to infinity", start)
            return Const(float(val)), 0
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
                return Var(idx), 0
            return Param(val), 0
        self._error(f"unexpected {val!r}" if val else "unexpected end of input",
                    start)

    def _call(self, name: str, start: int) -> tuple[Expr, int]:
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
        depth = self._deeper(max(d for _, d in args) + 1, start)
        args = [e for e, _ in args]
        lo, hi, build = _FUNCTIONS[name]
        at = _byte_offset(self.text, start)
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = f"{lo}" if hi == lo else f">= {lo}"
            raise ArityError(f"{name} takes {want} argument(s), got {len(args)}",
                             at)
        return build(args, at), depth


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
    return e._vqd(b)


def qd_at(e: Expr, b: Binding) -> Quasidifferential:
    return qd_value_at(e, b)[1]


def qd_matrix_at(es: Sequence[Expr], b: Binding):
    from .calculus import MatrixQuasidifferential

    if len(es) == 0:
        raise ExpressionError("empty expression list")
    return MatrixQuasidifferential(tuple(qd_at(e, b) for e in es))


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
