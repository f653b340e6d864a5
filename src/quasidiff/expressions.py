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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import (Quasidifferential, absorb_singleton_sub,
                       absorb_singleton_sup, qd_abs, qd_add, qd_max, qd_min,
                       qd_mul, qd_scale, qd_smooth, qd_zero)


class ExpressionError(ValueError):
    pass


class ExprSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class ArityError(ExpressionError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


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

    def evaluate(self, point, params=None):
        """Evaluate at point (shape (..., n)); broadcasts over batches."""
        raise NotImplementedError

    def _vqd(self, b: Binding):
        raise NotImplementedError

    def _fmt(self) -> tuple[str, int]:
        raise NotImplementedError

    def to_text(self) -> str:
        return self._fmt()[0]

    def _kink(self, point, params) -> float:
        return np.inf

    def _piecewise(self) -> bool:
        """Whether the subtree contains an abs, max or min node."""
        return False


def _wrap(child: Expr, minlevel: int) -> str:
    s, lvl = child._fmt()
    return f"({s})" if lvl < minlevel else s


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written in the source text

    def evaluate(self, point, params=None):
        point = np.asarray(point, dtype=float)
        if self.index > point.shape[-1]:
            raise ExpressionError(
                f"variable x{self.index} outside point dimension {point.shape[-1]}")
        return point[..., self.index - 1]

    def _vqd(self, b):
        n = b.n
        g = np.zeros(n)
        g[self.index - 1] = 1.0
        return float(b.point[self.index - 1]), qd_smooth(g)

    def _fmt(self):
        return f"x{self.index}", _ATOM


@dataclass(frozen=True)
class Param(Expr):
    name: str

    def evaluate(self, point, params=None):
        params = params or {}
        if self.name not in params:
            raise UnboundParameterError(self.name)
        point = np.asarray(point, dtype=float)
        return np.broadcast_to(float(params[self.name]), point.shape[:-1]).copy() \
            if point.ndim > 1 else float(params[self.name])

    def _vqd(self, b):
        if self.name not in b.params:
            raise UnboundParameterError(self.name)
        return float(b.params[self.name]), qd_zero(b.n)

    def _fmt(self):
        return self.name, _ATOM


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, point, params=None):
        point = np.asarray(point, dtype=float)
        return np.broadcast_to(self.value, point.shape[:-1]).copy() \
            if point.ndim > 1 else self.value

    def _vqd(self, b):
        return float(self.value), qd_zero(b.n)

    def _fmt(self):
        return _format_number(self.value), _ATOM


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr

    def evaluate(self, point, params=None):
        return -self.child.evaluate(point, params)

    def _vqd(self, b):
        v, q = self.child._vqd(b)
        out = qd_scale(q, -1.0)
        if not self.child._piecewise():
            out = absorb_singleton_sup(out)
        return -v, out

    def _fmt(self):
        return "-" + _wrap(self.child, _PREFIX), _PREFIX

    def _kink(self, point, params):
        return self.child._kink(point, params)

    def _piecewise(self):
        return self.child._piecewise()


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) + self.b.evaluate(point, params)

    def _vqd(self, b):
        va, qa = self.a._vqd(b)
        vb, qb = self.b._vqd(b)
        return va + vb, qd_add(qa, qb)

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} + {_wrap(self.b, _ADD)}", _ADD

    def _kink(self, point, params):
        return min(self.a._kink(point, params), self.b._kink(point, params))

    def _piecewise(self):
        return self.a._piecewise() or self.b._piecewise()


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) - self.b.evaluate(point, params)

    def _vqd(self, b):
        va, qa = self.a._vqd(b)
        vb, qb = self.b._vqd(b)
        nb = qd_scale(qb, -1.0)
        if not self.b._piecewise():
            nb = absorb_singleton_sup(nb)
        return va - vb, qd_add(qa, nb)

    def _fmt(self):
        return f"{_wrap(self.a, _ADD)} - {_wrap(self.b, _ADD + 1)}", _ADD

    def _kink(self, point, params):
        return min(self.a._kink(point, params), self.b._kink(point, params))

    def _piecewise(self):
        return self.a._piecewise() or self.b._piecewise()


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, point, params=None):
        return self.a.evaluate(point, params) * self.b.evaluate(point, params)

    def _vqd(self, b):
        va, qa = self.a._vqd(b)
        vb, qb = self.b._vqd(b)
        out = qd_mul(qa, qb, va, vb)
        if not (self.a._piecewise() or self.b._piecewise()):
            out = absorb_singleton_sup(out)
        return va * vb, out

    def _fmt(self):
        return f"{_wrap(self.a, _MUL)} * {_wrap(self.b, _MUL)}", _MUL

    def _kink(self, point, params):
        return min(self.a._kink(point, params), self.b._kink(point, params))

    def _piecewise(self):
        return self.a._piecewise() or self.b._piecewise()


_SMOOTH_KINDS = ("sin", "cos", "exp", "pow")


@dataclass(frozen=True)
class SmoothUnary(Expr):
    kind: str
    child: Expr
    k: int | None = None  # exponent, pow only

    def __post_init__(self):
        if self.kind not in _SMOOTH_KINDS:
            raise ExpressionError(f"unknown smooth function '{self.kind}'")
        if self.kind == "pow":
            if not isinstance(self.k, int) or self.k < 1:
                raise ArityError("pow needs an integer exponent k >= 1")
        elif self.k is not None:
            raise ExpressionError(f"{self.kind} takes no exponent")

    def evaluate(self, point, params=None):
        v = self.child.evaluate(point, params)
        if self.kind == "sin":
            return np.sin(v)
        if self.kind == "cos":
            return np.cos(v)
        if self.kind == "exp":
            return np.exp(v)
        return v ** self.k

    def _derivative(self, v: float) -> float:
        if self.kind == "sin":
            return float(np.cos(v))
        if self.kind == "cos":
            return float(-np.sin(v))
        if self.kind == "exp":
            return float(np.exp(v))
        return float(self.k) * v ** (self.k - 1)

    def _vqd(self, b):
        v, q = self.child._vqd(b)
        if self.kind == "sin":
            val = float(np.sin(v))
        elif self.kind == "cos":
            val = float(np.cos(v))
        elif self.kind == "exp":
            val = float(np.exp(v))
        else:
            val = v ** self.k
        out = qd_scale(q, self._derivative(v))
        if not self.child._piecewise():
            out = absorb_singleton_sup(out)
        return val, out

    def _fmt(self):
        inner = self.child._fmt()[0]
        if self.kind == "pow":
            return f"pow({inner}, {self.k})", _ATOM
        return f"{self.kind}({inner})", _ATOM

    def _kink(self, point, params):
        return self.child._kink(point, params)

    def _piecewise(self):
        return self.child._piecewise()


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr

    def evaluate(self, point, params=None):
        return np.abs(self.child.evaluate(point, params))

    def _vqd(self, b):
        v, q = self.child._vqd(b)
        out = qd_abs(q, v)
        # smooth argument: fold back to the co{+-grad} form
        if not self.child._piecewise():
            out = absorb_singleton_sup(out)
        return abs(v), out

    def _fmt(self):
        return f"abs({self.child._fmt()[0]})", _ATOM

    def _kink(self, point, params):
        own = float(np.abs(self.child.evaluate(point, params)))
        return min(own, self.child._kink(point, params))

    def _piecewise(self):
        return True


def _gap(values) -> float:
    vals = sorted(values)
    return float(vals[-1] - vals[-2])


@dataclass(frozen=True)
class Max(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("max needs at least two arguments")

    def evaluate(self, point, params=None):
        return np.maximum.reduce([c.evaluate(point, params) for c in self.children])

    def _vqd(self, b):
        items = [c._vqd(b) for c in self.children]
        val = max(v for v, _ in items)
        return val, qd_max(items)

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"max({inner})", _ATOM

    def _kink(self, point, params):
        vals = [float(c.evaluate(point, params)) for c in self.children]
        own = _gap(vals)
        return min([own] + [c._kink(point, params) for c in self.children])

    def _piecewise(self):
        return True


@dataclass(frozen=True)
class Min(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("min needs at least two arguments")

    def evaluate(self, point, params=None):
        return np.minimum.reduce([c.evaluate(point, params) for c in self.children])

    def _vqd(self, b):
        items = [c._vqd(b) for c in self.children]
        val = min(v for v, _ in items)
        out = qd_min(items)
        # tie among smooth branches: display concave-led, [{0}, co{grads}]
        if out.sup.nvertices > 1 and \
                not any(c._piecewise() for c in self.children):
            out = absorb_singleton_sub(out)
        return val, out

    def _fmt(self):
        inner = ", ".join(c._fmt()[0] for c in self.children)
        return f"min({inner})", _ATOM

    def _kink(self, point, params):
        vals = [-float(c.evaluate(point, params)) for c in self.children]
        own = _gap(vals)
        return min([own] + [c._kink(point, params) for c in self.children])

    def _piecewise(self):
        return True


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                       r"|(?P<ident>[a-z][a-z0-9_]*)"
                       r"|(?P<op>[-+*(),]))")

_FUNCTIONS = {"sin": (1, 1), "cos": (1, 1), "exp": (1, 1), "abs": (1, 1),
              "pow": (2, 2), "max": (2, None), "min": (2, None)}

_VAR_RE = re.compile(r"x[0-9]+$")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = self._tokenize(text)
        self.pos = 0

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

    def parse(self) -> Expr:
        e = self._expr()
        kind, val, start = self._peek()
        if kind != "end":
            self._error(f"unexpected {val!r}", start)
        return e

    def _expr(self) -> Expr:
        node = self._term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self._term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def _term(self) -> Expr:
        node = self._factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val == "*":
                self._next()
                node = Mul(node, self._factor())
            else:
                return node

    def _factor(self) -> Expr:
        kind, val, start = self._peek()
        if kind == "op" and val == "-":
            self._next()
            return Neg(self._factor())
        return self._atom()

    def _atom(self) -> Expr:
        kind, val, start = self._next()
        if kind == "num":
            if not np.isfinite(float(val)):
                self._error(f"number {val} overflows to infinity", start)
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self._expr()
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
        args = [self._expr()]
        while True:
            kind, val, s = self._next()
            if val == ",":
                args.append(self._expr())
            elif val == ")":
                break
            else:
                self._error("expected ',' or ')'", s)
        lo, hi = _FUNCTIONS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = f"{lo}" if hi == lo else f">= {lo}"
            raise ArityError(f"{name} takes {want} argument(s), got {len(args)}",
                             _byte_offset(self.text, start))
        if name == "pow":
            exponent = args[1]
            if not isinstance(exponent, Const) or exponent.value != int(exponent.value) \
                    or int(exponent.value) < 1:
                raise ArityError("pow exponent must be an integer literal >= 1",
                                 _byte_offset(self.text, start))
            return SmoothUnary("pow", args[0], int(exponent.value))
        if name in ("sin", "cos", "exp"):
            return SmoothUnary(name, args[0])
        if name == "abs":
            return Abs(args[0])
        if name == "max":
            return Max(tuple(args))
        return Min(tuple(args))


def parse_expression(text: str, n: int) -> Expr:
    """Parse source text into an Expr over x1..xn.

    Raises ExprSyntaxError (with byte offset), UnknownIdentifierError or
    ArityError on malformed input.
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


def kink_distance(e: Expr, b: Binding) -> float:
    """Distance to the nearest nonsmooth switching surface, in value space.

    Minimum over Abs nodes of |argument| and over Max/Min nodes of the gap
    between the two leading children.  Infinite for smooth expressions.
    Used to reject finite-difference probes that straddle a kink.
    """
    return float(e._kink(b.point, b.params))
