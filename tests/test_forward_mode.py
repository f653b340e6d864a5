"""Forward-mode differentiation of smooth subtrees changes no byte.

reference_vqd applies the pair algebra at every node, smooth or not, and
folds smooth-led pairs back with absorb_singleton_sup.  The tests compare
its value and vertex arrays with qd_value_at's by their bytes.
reference_kink is kink_distance written as one rule per node type; the
single walk over the operands must give the same float, bit for bit.
The row walk, qd_rows_at, must give each row's qd_value_at by its bytes,
or decline.  A value of the walk at a point is an np.float64.
"""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_equal

from quasidiff import geometry
from quasidiff.calculus import (absorb_singleton_sub, absorb_singleton_sup,
                                dd, qd_abs, qd_add, qd_max, qd_min,
                                qd_scale, qd_smooth, qd_zero,
                                singleton_rates, steepest_rate)
from quasidiff.expressions import (_FUNCTIONS, Abs, Add, Binding, Const, Max,
                                   Min, Mul, Neg, Param, SmoothUnary, Sub,
                                   UnboundParameterError, Var,
                                   kink_distance, parse_expression, qd_at,
                                   qd_rows_at, qd_value_at)
from quasidiff.geometry import GeometryError
from quasidiff.optimality import build_penalty
from quasidiff.problemfile import load, loads
from quasidiff.regularity import psi_expr

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _reference_piecewise(e) -> bool:
    if isinstance(e, (Abs, Max, Min)):
        return True
    if isinstance(e, (Neg, SmoothUnary)):
        return _reference_piecewise(e.child)
    if isinstance(e, (Add, Sub, Mul)):
        return _reference_piecewise(e.a) or _reference_piecewise(e.b)
    return False


def reference_pow(v, k):
    """v ** k by the chain the expressions module states: one step per bit
    of k, from the leading one, squaring and then multiplying by v when
    the bit is 1.  Starting from 1.0 changes no bit, since 1.0 * 1.0 and
    1.0 * v are exact."""
    r = 1.0
    for bit in bin(k)[2:]:
        r = r * r
        if bit == "1":
            r = r * v
    return r


def reference_scaled(e, q, t):
    """The pair q of operand e scaled by its slope t; a smooth operand's
    pair is shifted back to [{t grad}, {0}], whatever the sign of t."""
    out = qd_scale(q, t)
    return out if _reference_piecewise(e) else absorb_singleton_sup(out)


def reference_vqd(e, b):
    """The pair walk of every node type, one polytope pair per node."""
    if isinstance(e, Var):
        n = b.n
        g = np.zeros(n)
        g[e.index - 1] = 1.0
        return float(b.point[e.index - 1]), qd_smooth(g)
    if isinstance(e, Param):
        if e.name not in b.params:
            raise UnboundParameterError(e.name)
        return float(b.params[e.name]), qd_zero(b.n)
    if isinstance(e, Const):
        return float(e.value), qd_zero(b.n)
    if isinstance(e, Neg):
        v, q = reference_vqd(e.child, b)
        return -v, reference_scaled(e.child, q, -1.0)
    if isinstance(e, Add):
        va, qa = reference_vqd(e.a, b)
        vb, qb = reference_vqd(e.b, b)
        return va + vb, qd_add(qa, qb)
    if isinstance(e, Sub):
        va, qa = reference_vqd(e.a, b)
        vb, qb = reference_vqd(e.b, b)
        return va - vb, qd_add(qa, reference_scaled(e.b, qb, -1.0))
    if isinstance(e, Mul):
        va, qa = reference_vqd(e.a, b)
        vb, qb = reference_vqd(e.b, b)
        return va * vb, qd_add(reference_scaled(e.a, qa, vb),
                               reference_scaled(e.b, qb, va))
    if isinstance(e, SmoothUnary):
        v, q = reference_vqd(e.child, b)
        if e.kind == "sin":
            val = float(np.sin(v))
        elif e.kind == "cos":
            val = float(np.cos(v))
        elif e.kind == "exp":
            val = float(np.exp(v))
        else:
            val = reference_pow(v, e.k)
        if e.kind == "sin":
            d = float(np.cos(v))
        elif e.kind == "cos":
            d = float(-np.sin(v))
        elif e.kind == "exp":
            d = float(np.exp(v))
        else:
            d = float(e.k) * reference_pow(v, e.k - 1)
        return val, reference_scaled(e.child, q, d)
    if isinstance(e, Abs):
        v, q = reference_vqd(e.child, b)
        out = qd_abs(q, v)
        if not _reference_piecewise(e.child):
            out = absorb_singleton_sup(out)
        return abs(v), out
    if isinstance(e, Max):
        items = [reference_vqd(c, b) for c in e.children]
        val = max(v for v, _ in items)
        return val, qd_max(items)
    items = [reference_vqd(c, b) for c in e.children]  # Min
    val = min(v for v, _ in items)
    out = qd_min(items)
    if out.sup.nvertices > 1 and \
            not any(_reference_piecewise(c) for c in e.children):
        out = absorb_singleton_sub(out)
    return val, out


def assert_same_bytes(e, b):
    want_v, want = reference_vqd(e, b)
    got_v, got = qd_value_at(e, b)
    assert np.float64(got_v).tobytes() == np.float64(want_v).tobytes()
    for g, w in ((got.sub, want.sub), (got.sup, want.sup)):
        assert_equal(g.vertices.shape, w.vertices.shape)
        assert g.vertices.tobytes() == w.vertices.tobytes()


def _file_cases(pf, extra_points=()):
    """(expression, binding) pairs of a problem file: its functions, psi
    at two targets (the system's psi tree with its target parameters
    bound) and a penalty, at the file's point and extra_points."""
    exprs = list(pf.equalities) + list(pf.inequalities)
    if pf.objective is not None:
        exprs.append(pf.objective)
        if exprs[:-1]:
            exprs.append(build_penalty(pf.program(), 2.0))
    cases = [(e, pf.params) for e in exprs]
    if pf.equalities or pf.inequalities:
        s = pf.system()
        l, m = len(s.equalities), len(s.inequalities)
        for shift in (0.0, 0.25):
            cases.append((s.psi_tree,
                          psi_expr(s, [shift] * l, [-shift] * m).params))
    x0 = pf.point if pf.point is not None else np.zeros(pf.n)
    for x in [x0] + [x0 + np.asarray(h, dtype=float)[:pf.n]
                     for h in extra_points]:
        for e, params in cases:
            yield e, Binding(x, dict(params))


class TestSameBytesAsThePairWalk:

    @pytest.mark.parametrize("name", ["cubic.prob", "penalty_demo.prob",
                                      "sin_system.prob"])
    def test_fixtures(self, name):
        pf = load(str(PROBLEMS / name))
        for e, b in _file_cases(pf, [(0.1, -0.2, 0.3), (-0.5, 0.5, 0.0)]):
            assert_same_bytes(e, b)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_benchmark_generator_expressions(self, seed, load_perfbench):
        load_perfbench("oracle")
        gen = load_perfbench("gen")
        count = 0
        # the kink chains as their qd ops take them: at the file's point
        for op in gen.qd_build(seed).ops:
            pf = loads(op.text)
            for e in pf.equalities:
                assert_same_bytes(e, Binding(pf.point, {}))
                count += 1
        workload = gen.verdicts(seed)
        for op in workload.ops + workload.warmup:
            for e, b in _file_cases(loads(op.text), [(0.5, -0.5, 0.25, 0.0)]):
                assert_same_bytes(e, b)
                count += 1
        assert count > 200

    def test_random_trees_with_zeros_and_ties(self):
        rng = random.Random(7)
        stats = {"zero_factor": 0, "tie": 0, "smooth": 0}

        def tree(n, depth):
            if depth == 0 or rng.random() < 0.25:
                r = rng.random()
                if r < 0.6:
                    return Var(rng.randint(1, n))
                if r < 0.85:
                    return Const(rng.choice([0.0, 1.0, -1.0, 0.5, 2.0]))
                return Param("p")
            kind = rng.choice(["sin", "cos", "exp", "pow", "neg", "sub",
                               "mul", "mul", "add", "abs", "max", "min"])
            if kind in ("sin", "cos", "exp"):
                return SmoothUnary(kind, tree(n, depth - 1))
            if kind == "pow":
                return SmoothUnary("pow", tree(n, depth - 1),
                                   rng.randint(1, 3))
            if kind == "neg":
                return Neg(tree(n, depth - 1))
            if kind == "abs":
                return Abs(tree(n, depth - 1))
            if kind in ("max", "min"):
                first = tree(n, depth - 1)
                # repeat a branch now and then, so that it ties with itself
                rest = [first if rng.random() < 0.3 else tree(n, depth - 1)
                        for _ in range(rng.randint(1, 2))]
                return (Max if kind == "max" else Min)((first, *rest))
            a, c = tree(n, depth - 1), tree(n, depth - 1)
            return {"sub": Sub, "mul": Mul, "add": Add}[kind](a, c)

        def walk_stats(e, b):
            if isinstance(e, Mul) and 0.0 in (
                    float(e.a.evaluate(b.point, b.params)),
                    float(e.b.evaluate(b.point, b.params))):
                stats["zero_factor"] += 1
            if isinstance(e, (Max, Min)):
                vals = [float(c.evaluate(b.point, b.params))
                        for c in e.children]
                if len(set(vals)) < len(vals):
                    stats["tie"] += 1
            for c in (getattr(e, "children", ()) or
                      [getattr(e, k) for k in ("child", "a", "b")
                       if hasattr(e, k)]):
                walk_stats(c, b)

        for _ in range(600):
            n = rng.randint(1, 4)
            e = tree(n, rng.randint(1, 5))
            x = [rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, -2.0])
                 for _ in range(n)]
            b = Binding(np.array(x), {"p": rng.choice([0.0, 1.5])})
            stats["smooth"] += not e._piecewise
            with np.errstate(all="ignore"):
                try:
                    reference_vqd(e, b)
                except GeometryError:
                    with pytest.raises(GeometryError):
                        qd_value_at(e, b)
                    continue
                walk_stats(e, b)
                assert_same_bytes(e, b)
        assert stats["zero_factor"] > 50 and stats["tie"] > 50
        assert stats["smooth"] > 50

    def test_non_finite_gradient_still_raises(self):
        # exp(exp(x1)) at 7 overflows to inf, and the gradient with it
        e = parse_expression("x2 * exp(exp(x1))", 2)
        b = Binding(np.array([7.0, 0.0]), {})
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError, match="must be finite"):
                reference_vqd(e, b)
            with pytest.raises(GeometryError, match="must be finite"):
                qd_at(e, b)

    def test_unbound_parameter_in_a_smooth_subtree(self):
        e = parse_expression("sin(q*x1) - x2", 2)
        with pytest.raises(UnboundParameterError, match="'q'"):
            qd_at(e, Binding(np.zeros(2), {}))


@pytest.mark.parametrize("text", ["x1*(abs(x2) - 1)", "(abs(x2) - 1)*x1"])
def test_smooth_factor_of_a_negative_kink_stays_in_sub(text):
    # the slope of x1 is abs(0) - 1 = -1, so its scaled gradient (-1, 0)
    # enters the subdifferential, as it does in abs(x2) - x1, and not the
    # superdifferential, as the scale rule would swap it
    q = qd_at(parse_expression(text, 2), Binding(np.array([0.5, 0.0]), {}))
    assert_equal(q.sub.vertices, [[-1.0, -0.5], [-1.0, 0.5]])
    assert_equal(q.sup.vertices, [[0.0, 0.0]])
    # dyadic directions, so that the closed form is exact
    for h in [(1.0, 0.0), (0.0, 1.0), (-1.0, 2.0), (0.25, -0.75),
              (-2.0, -1.0)]:
        assert_equal(dd(q, h), -h[0] + 0.5 * abs(h[1]))


@pytest.mark.parametrize("text", ["x1", "p", "3", "x1*p", "abs(x1)",
                                  "max(x1, x2)"])
def test_values_at_a_point_are_numpy_floats(text):
    # an np.float64, not a 0-d array nor a Python float: its arithmetic
    # raises under np.errstate, and it prints as a number
    b = Binding(np.array([0.5, -2.0]), {"p": 1.5})
    v, _ = qd_value_at(parse_expression(text, 2), b)
    assert type(v) is np.float64


class TestPolytopeBuilds:
    """Only the root of a smooth subtree and the kink nodes build
    polytopes; counted at geometry._canonical, which every Polytope(...)
    runs once.  {0}, a sum with {0} and a sign flip of a canonical array
    are returned without it."""

    def count(self, monkeypatch, text, n, x):
        calls = []
        canonical = geometry._canonical

        def counted(points):
            calls.append(1)
            return canonical(points)

        monkeypatch.setattr(geometry, "_canonical", counted)
        qd_at(parse_expression(text, n), Binding(np.asarray(x, float), {}))
        return len(calls)

    def test_smooth_expression_builds_one_pair(self, monkeypatch):
        # the gradient; its {0} partner is built directly
        assert_equal(self.count(monkeypatch, "pow(x1, 3)*sin(x2) - 2*x1",
                                2, [0.5, -1.0]), 1)

    @pytest.mark.parametrize("x", [[0.5, -1.0], [0.0, 0.0]])
    def test_abs_of_a_smooth_argument(self, monkeypatch, x):
        # the gradient; the negated branch and the absorb step only flip
        # signs or add {0}.  At the tie (x = 0) qd_max adds the shifted
        # piece g + g and the hull co{0, 2g}, and the absorb step shifts
        # it by -g
        want = 4 if x == [0.0, 0.0] else 1
        assert_equal(self.count(monkeypatch, "abs(pow(x1, 3)*sin(x2) - x1)",
                                2, x), want)

    def test_kink_sum_builds_no_zero_side(self, monkeypatch):
        # 4 per abs term at its tie, as above, and the square
        # seg1 + seg2; the sup sums {0} + {0} and {0} - seg3 and the sub
        # sum square + {0} return an operand or its sign flip
        assert_equal(self.count(monkeypatch, "abs(x1) + abs(x2) - abs(x3)",
                                3, [0.0, 0.0, 0.0]), 3 * 4 + 1)


def reference_kink(e, b):
    """kink_distance as one rule per node type."""
    if isinstance(e, (Neg, SmoothUnary)):
        return reference_kink(e.child, b)
    if isinstance(e, (Add, Sub, Mul)):
        return min(reference_kink(e.a, b), reference_kink(e.b, b))
    if isinstance(e, Abs):
        own = float(np.abs(e.child.evaluate(b.point, b.params)))
        return min(own, reference_kink(e.child, b))
    if isinstance(e, Max):
        vals = sorted(float(c.evaluate(b.point, b.params))
                      for c in e.children)
    elif isinstance(e, Min):
        vals = sorted(-float(c.evaluate(b.point, b.params))
                      for c in e.children)
    else:
        return np.inf  # Var, Const, Param
    own = float(vals[-1] - vals[-2])
    return min([own] + [reference_kink(c, b) for c in e.children])


def assert_same_kink(e, b):
    got, want = kink_distance(e, b), reference_kink(e, b)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
        (e.to_text(), got, want)
    return got


class TestKinkDistance:

    @pytest.mark.parametrize("name", ["cubic.prob", "penalty_demo.prob",
                                      "sin_system.prob"])
    def test_fixtures(self, name):
        pf = load(str(PROBLEMS / name))
        gaps = [assert_same_kink(e, b) for e, b in _file_cases(
            pf, [(0.1, -0.2, 0.3), (-0.5, 0.5, 0.0)])]
        assert 0.0 in gaps

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_qd_build_chains(self, seed, load_perfbench):
        load_perfbench("oracle")
        gen = load_perfbench("gen")
        gaps = []
        for op in gen.qd_build(seed).ops:
            pf = loads(op.text)
            # at the kink the file names, and off it
            for x in (pf.point, pf.point + 0.125):
                gaps += [assert_same_kink(e, Binding(x, {}))
                         for e in pf.equalities]
        assert len(gaps) > 20 and 0.0 in gaps and max(gaps) > 0.0

    def test_random_trees_with_ties_and_zero_arguments(self):
        rng = random.Random(11)

        def tree(n, depth):
            if depth == 0 or rng.random() < 0.2:
                r = rng.random()
                if r < 0.6:
                    return Var(rng.randint(1, n))
                if r < 0.9:
                    return Const(rng.choice([0.0, 1.0, -1.0, 0.5]))
                return Param("p")
            kind = rng.choice(["sin", "exp", "pow", "neg", "sub", "mul",
                               "add", "abs", "abs", "max", "min"])
            if kind in ("sin", "exp"):
                return SmoothUnary(kind, tree(n, depth - 1))
            if kind == "pow":
                return SmoothUnary("pow", tree(n, depth - 1),
                                   rng.randint(1, 3))
            if kind == "neg":
                return Neg(tree(n, depth - 1))
            if kind == "abs":
                return Abs(tree(n, depth - 1))
            if kind in ("max", "min"):
                first = tree(n, depth - 1)
                # a repeated branch ties with itself
                rest = [first if rng.random() < 0.4 else tree(n, depth - 1)
                        for _ in range(rng.randint(1, 3))]
                return (Max if kind == "max" else Min)((first, *rest))
            return {"sub": Sub, "mul": Mul, "add": Add}[kind](
                tree(n, depth - 1), tree(n, depth - 1))

        counts = {"zero": 0, "positive": 0, "smooth": 0}
        for _ in range(600):
            n = rng.randint(1, 3)
            e = tree(n, rng.randint(1, 5))
            x = [rng.choice([0.0, 0.0, 1.0, -1.0, 0.5]) for _ in range(n)]
            b = Binding(np.array(x), {"p": rng.choice([0.0, 1.5])})
            with np.errstate(all="ignore"):
                gap = assert_same_kink(e, b)
            counts["zero" if gap == 0.0 else
                   "smooth" if gap == np.inf else "positive"] += 1
        assert min(counts.values()) > 50, counts


def _calls(children):
    """A node of each function of the grammar over children; pow takes an
    exponent of 1 to 4."""
    def call(name):
        lo, hi, build = _FUNCTIONS[name]
        if name == "pow":
            args = st.tuples(children, st.integers(1, 4).map(float).map(Const))
        else:
            args = st.lists(children, min_size=lo, max_size=hi or 3)
        return args.map(lambda a: build(list(a), 0))
    return st.sampled_from(sorted(_FUNCTIONS)).flatmap(call)


def _trees(n):
    """Trees over x1..xn, a parameter p and a few constants, built from
    the grammar's functions, +, -, * and negation."""
    leaves = st.one_of(st.integers(1, n).map(Var), st.just(Param("p")),
                       st.sampled_from([0.0, 0.5, -1.0, 2.0]).map(Const))

    def grow(children):
        binary = st.tuples(st.sampled_from([Add, Sub, Mul]), children,
                           children).map(lambda t: t[0](t[1], t[2]))
        return st.one_of(_calls(children), binary, children.map(Neg))
    return st.recursive(leaves, grow, max_leaves=12)


# coordinates and parameter values: a few that make kinks tie, and any
# float in [-2, 2]
_COORDS = st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-2.0, 2.0))


class TestRowWalk:

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_rows_are_the_pair_walk_or_decline(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        e = data.draw(_trees(n), label="tree")
        rows = data.draw(st.integers(1, 6), label="rows")
        X = np.array(data.draw(st.lists(
            st.lists(_COORDS, min_size=n, max_size=n),
            min_size=rows, max_size=rows), label="points"))
        P = np.array(data.draw(st.lists(_COORDS, min_size=rows,
                                        max_size=rows), label="p"))
        with np.errstate(all="ignore"):
            walked = qd_rows_at(e, X, {"p": P})
            if walked is None:
                event("declined")
                return
            event("walked")
            values, a, b = walked
            rates = singleton_rates(a, b)
            for i in range(rows):
                v, q = qd_value_at(e, Binding(X[i], {"p": P[i]}))
                assert np.float64(v).tobytes() == values[i].tobytes()
                assert q.sub.vertices.tobytes() == a[i:i + 1].tobytes()
                assert q.sup.vertices.tobytes() == b[i:i + 1].tobytes()
                assert_equal(q.sub.vertices.shape, (1, n))
                assert_equal(q.sup.vertices.shape, (1, n))
                want = steepest_rate(q)[0]
                assert np.float64(want).tobytes() == \
                    np.float64(rates[i]).tobytes()

    @pytest.mark.parametrize("text", [
        # a smooth subtrahend, and a kink subtrahend (swapped by -1)
        "abs(x1) - x1*x2", "x1*x2 - abs(x1)",
        # negation, a smooth function and products above a kink
        "-abs(x1 - x2)", "sin(max(x1, x2)) * x1 + p*min(x2, 1)",
        # three branches; abs of a smooth and of a kink argument
        "min(x1, -x2, 2*x1*x2)", "abs(pow(x1, 3) - x2)",
        "abs(abs(x1) - x2) - exp(x2)",
    ])
    def test_each_row_rule(self, text):
        e = parse_expression(text, 2)
        X = np.array([[0.3, -0.7], [-1.1, 0.4], [0.6, 0.2], [-0.2, -0.9]])
        P = np.array([0.5, -2.0, 0.0, 1.0])
        values, a, b = qd_rows_at(e, X, {"p": P})
        rates = singleton_rates(a, b)
        for i, x in enumerate(X):
            v, q = qd_value_at(e, Binding(x, {"p": P[i]}))
            got = (values[i], a[i:i + 1], b[i:i + 1], rates[i])
            want = (v, q.sub.vertices, q.sup.vertices, steepest_rate(q)[0])
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("text, x, p", [
        ("max(x1, x1)", [0.3, -1.0], 0.0),
        # 1e-10 lies inside FEAS_TOL
        ("max(x1, x1 + 0.0000000001)", [0.3, -1.0], 0.0),
        # one row with x1 = p is enough
        ("abs(x1 - p)", [0.3, 0.5, -1.0], [0.0, 0.5, 0.0]),
        ("min(2*x1, x1 + x1) + abs(x1)", [0.3, 0.7], 0.0),
    ])
    def test_declines_at_a_tie(self, text, x, p):
        X = np.array(x)[:, None]
        assert qd_rows_at(parse_expression(text, 1), X, {"p": p}) is None

    def test_walks_off_the_ties(self):
        e = parse_expression("abs(x1 - p) + max(x1, x1 + 0.00000001)", 1)
        X = np.array([[0.3], [-1.0]])
        values, a, b = qd_rows_at(e, X, {"p": 0.5})
        for i, x in enumerate(X):
            v, q = qd_value_at(e, Binding(x, {"p": 0.5}))
            assert_equal((values[i], a[i], b[i]),
                         (v, q.sub.vertices[0], q.sup.vertices[0]))

    @pytest.mark.parametrize("text", ["x2 * exp(exp(x1))",
                                      "abs(x2 * exp(exp(x1)))"])
    def test_declines_where_the_pair_walk_raises(self, text):
        # at x1 = 7 the gradient overflows: inf without np.errstate, a
        # FloatingPointError with over="raise"
        e = parse_expression(text, 2)
        X = np.array([[0.0, 1.0], [7.0, 1.0]])
        for over in ("ignore", "raise"):
            with np.errstate(over=over, invalid="ignore"):
                assert qd_rows_at(e, X, {}) is None
                with pytest.raises((GeometryError, FloatingPointError)):
                    qd_at(e, Binding(X[1], {}))
