import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal

from quasidiff.calculus import dd
from quasidiff.expressions import (ArityError, Binding, ExprSyntaxError,
                                   UnboundParameterError,
                                   UnknownIdentifierError, _operands,
                                   _power, eval_expr, is_piecewise_affine,
                                   kink_distance, parse_expression, qd_at,
                                   qd_matrix_at, qd_value_at)
from quasidiff.geometry import Polytope, singleton, zero_polytope
from quasidiff.problemfile import load, loads

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

F1_TEXT = "max(2*x1, x1) - abs(sin(p*x2))"
F2_TEXT = "min(x2, 2*x2) + sin(p*(x1+x2))"


def binding(x, **params):
    return Binding(np.asarray(x, dtype=float), params)


class TestParsing(TestCase):

    def test_round_trip_is_stable(self):
        texts = ["abs(x1) - abs(x2)", F1_TEXT, F2_TEXT,
                 "min(x1, max(pow(x1, 3), 0))",
                 "x2 - x1 + 0.5*cos(x1*x2) - exp(x2)"]
        for text in texts:
            n = 2
            e = parse_expression(text, n)
            printed = e.to_text()
            again = parse_expression(printed, n)
            assert_equal(again.to_text(), printed)
            # and the reparse evaluates identically
            rng = np.random.default_rng(0)
            for _ in range(10):
                b = binding(rng.uniform(-1, 1, n), p=1.3)
                assert_allclose(eval_expr(again, b), eval_expr(e, b),
                                atol=1e-15)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("abs(x1", 2)
        assert "offset" in str(err.value) or any(
            ch.isdigit() for ch in str(err.value))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("x3 + 1", 2)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_expression("max(x1)", 2)

    def test_unbound_parameter_at_eval(self):
        e = parse_expression("p * x1", 1)
        with pytest.raises(UnboundParameterError):
            eval_expr(e, binding([1.0]))


PIECEWISE_AFFINE = [
    ("2*abs(x1) - max(x1, p*x2)", True),
    ("pow(x1 - 1, 1)", True),
    ("sin(p)*x1", True),
    ("-min(x1, 3) + x2*cos(p)", True),
    ("pow(x1, 2)", False),
    ("x1*x2", False),
    ("sin(x1)", False),
    ("abs(x1)*x2", False),
]


@pytest.mark.parametrize("text, affine", PIECEWISE_AFFINE)
def test_is_piecewise_affine(text, affine):
    assert_equal(is_piecewise_affine(parse_expression(text, 2)), affine)


class TestEvaluation(TestCase):

    def test_abs_difference(self):
        e = parse_expression("abs(x1) - abs(x2)", 2)
        assert_allclose(eval_expr(e, binding([3.0, 1.0])), 2.0)

    def test_cubic_branch(self):
        e = parse_expression("min(x1, max(pow(x1, 3), 0))", 1)
        assert_allclose(eval_expr(e, binding([0.5])), 0.125)

    def test_system_solved_by_origin(self):
        for text in (F1_TEXT, F2_TEXT):
            e = parse_expression(text, 2)
            for p in (0.3, 1.0, -2.0):
                assert_allclose(eval_expr(e, binding([0.0, 0.0], p=p)), 0.0,
                                atol=1e-15)

    def test_vectorized_evaluate(self):
        e = parse_expression("abs(x1) - abs(x2)", 2)
        pts = np.array([[3.0, 1.0], [0.0, 2.0], [-1.0, -1.0]])
        assert_allclose(e.evaluate(pts, {}), [2.0, -2.0, 0.0])

    def test_batch_arithmetic_reuses_a_temporary(self):
        # Neg, Add, Sub and Mul apply their operator to the operands'
        # temporaries, so numpy writes the result into one of them: the
        # peak is the one column of the constant (8 MB), where a result
        # in a buffer of its own would make it two
        column = 8 * 10 ** 6
        pts = np.linspace(-1.0, 1.0, 10 ** 6)[:, None]
        for text in ("x1 + 0.3", "-1*x1"):
            e = parse_expression(text, 1)
            tracemalloc.start()
            try:
                e.evaluate(pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * column, (text, peak)


class TestQdFixtures(TestCase):
    """Set-level pins for the engine's canonical pairs.

    Kink-free subtrees stay gradient-led; trees with a kink keep the raw
    max-rule algebra, which is what the worked derivations display.
    """

    def test_smooth_expression_is_gradient_leaf(self):
        q = qd_at(parse_expression("sin(x1)", 2), binding([0.0, 0.0]))
        assert q.sub == singleton([1.0, 0.0])
        assert q.sup == zero_polytope(2)

    def test_abs_of_smooth_folds(self):
        q = qd_at(parse_expression("abs(x1)", 1), binding([0.0]))
        assert q.sub == Polytope([[-1.0], [1.0]])
        assert q.sup == zero_polytope(1)

    def test_abs_difference_pair(self):
        q = qd_at(parse_expression("abs(x1) - abs(x2)", 2),
                  binding([0.0, 0.0]))
        assert q.sub == Polytope([[-1.0, 0.0], [1.0, 0.0]])
        assert q.sup == Polytope([[0.0, -1.0], [0.0, 1.0]])

    def test_f1_pair_at_origin(self):
        # max{2 x1, x1} - |sin(p x2)| at 0, p = 1
        q = qd_at(parse_expression(F1_TEXT, 2), binding([0.0, 0.0], p=1.0))
        assert q.sub == Polytope([[1.0, 0.0], [2.0, 0.0]])
        assert q.sup == Polytope([[0.0, -1.0], [0.0, 1.0]])

    def test_f1_sup_interval_scales_with_p(self):
        # the -|sin(p x2)| term contributes {0} x [-p, p]
        q = qd_at(parse_expression("0 - abs(sin(p*x2))", 2),
                  binding([0.0, 0.0], p=2.5))
        assert q.sub == zero_polytope(2)
        assert q.sup == Polytope([[0.0, -2.5], [0.0, 2.5]])

    def test_f2_pair_at_origin(self):
        # min{x2, 2 x2} + sin(p(x1+x2)) at 0, p = 1: the tie of two
        # smooth branches leads with the superdifferential
        q = qd_at(parse_expression(F2_TEXT, 2), binding([0.0, 0.0], p=1.0))
        assert q.sub == singleton([1.0, 1.0])
        assert q.sup == Polytope([[0.0, 1.0], [0.0, 2.0]])

    def test_min_single_active_stays_gradient_led(self):
        q = qd_at(parse_expression("min(x2, 2*x2)", 2), binding([0.0, 1.0]))
        assert q.sub == singleton([0.0, 1.0])
        assert q.sup == zero_polytope(2)

    def test_psi_pair_on_positive_branch(self):
        # |f - y| with f = |x1| - x2 at y = f(x), x1 > 0
        x = np.array([1.0, 0.5])
        y = abs(x[0]) - x[1]
        q = qd_at(parse_expression(f"abs(abs(x1) - x2 - {y})", 2),
                  Binding(x, {}))
        assert q.sub == Polytope([[0.0, 0.0], [2.0, -2.0]])
        assert q.sup == singleton([-1.0, 1.0])

    def test_cubic_pair_inside_unit_interval(self):
        # psi_0 = |min{x, max{x^3, 0}}| behaves like -3x^2 descent
        e = parse_expression("abs(min(x1, max(pow(x1, 3), 0)) - 0)", 1)
        for x in (0.2, 0.5, 0.9):
            q = qd_at(e, binding([x]))
            assert_allclose(dd(q, [1.0]), 3.0 * x ** 2, atol=1e-12)
            assert_allclose(dd(q, [-1.0]), -3.0 * x ** 2, atol=1e-12)

    def test_compass_directional_derivatives(self):
        q = qd_at(parse_expression("abs(x1) - abs(x2)", 2),
                  binding([0.0, 0.0]))
        for h1 in (-1.0, 0.0, 1.0):
            for h2 in (-1.0, 0.0, 1.0):
                if h1 == h2 == 0.0:
                    continue
                assert_allclose(dd(q, [h1, h2]), abs(h1) - abs(h2),
                                atol=1e-12)

    def test_qd_value_at_returns_both(self):
        v, q = qd_value_at(parse_expression("abs(x1)", 1), binding([-2.0]))
        assert_allclose(v, 2.0)
        assert q.sub == singleton([-1.0])


FIXTURES = [
    ("abs(x1) - abs(x2)", 2, {}),
    (F1_TEXT, 2, {"p": 1.0}),
    (F2_TEXT, 2, {"p": 1.0}),
    ("min(x1, max(pow(x1, 3), 0))", 1, {}),
    ("x1*x2 + 0.3*cos(x1) - exp(0 - x2)", 2, {}),
    ("abs(abs(x1) - x2 - 0.5) + max(x1 - 0.25, 0)", 2, {}),
]


class TestFiniteDifferenceOracle(TestCase):

    def test_dd_against_one_sided_differences(self):
        # 100 random (point, direction) pairs per fixture; probes that
        # straddle a kink are rejected via the kink distance
        rng = np.random.default_rng(42)
        for text, n, params in FIXTURES:
            e = parse_expression(text, n)
            checked = 0
            while checked < 100:
                x = rng.uniform(-1.0, 1.0, n)
                h = rng.standard_normal(n)
                h /= np.linalg.norm(h)
                b = Binding(x, params)
                if kink_distance(e, b) < 1e-7:
                    continue
                estimates = []
                for alpha in (1e-4, 1e-5, 1e-6):
                    estimates.append(
                        (eval_expr(e, Binding(x + alpha * h, params))
                         - eval_expr(e, b)) / alpha)
                # Richardson-style: the last estimate is the best
                assert_allclose(dd(qd_at(e, b), h), estimates[-1], atol=1e-4)
                checked += 1

    def test_dd_at_constructed_kinks(self):
        # exact closed forms at the kink itself
        e = parse_expression("abs(x1)", 1)
        q = qd_at(e, binding([0.0]))
        for h in (-2.0, -1.0, 0.5, 3.0):
            assert_allclose(dd(q, [h]), abs(h), atol=1e-12)


class TestMatrixAssembly(TestCase):

    def test_single_smooth_row(self):
        mq = qd_matrix_at([parse_expression("x1 + 2*x2", 2)],
                          binding([0.3, 0.4]))
        assert_equal(len(mq), 1)
        assert mq[0].sub == singleton([1.0, 2.0])

    def test_sin_system_rows(self):
        es = [parse_expression(F1_TEXT, 2), parse_expression(F2_TEXT, 2)]
        mq = qd_matrix_at(es, binding([0.0, 0.0], p=1.0))
        assert mq[0].sub == Polytope([[1.0, 0.0], [2.0, 0.0]])
        assert mq[0].sup == Polytope([[0.0, -1.0], [0.0, 1.0]])
        assert mq[1].sub == singleton([1.0, 1.0])
        assert mq[1].sup == Polytope([[0.0, 1.0], [0.0, 2.0]])

    def test_rows_against_finite_differences(self):
        rng = np.random.default_rng(1)
        es = [parse_expression(F1_TEXT, 2), parse_expression(F2_TEXT, 2)]
        x = np.array([0.21, 0.37])  # off every kink
        b = binding(x, p=1.0)
        mq = qd_matrix_at(es, b)
        for e, row in zip(es, mq):
            for h in rng.standard_normal((20, 2)):
                fdval = (eval_expr(e, binding(x + 1e-7 * h, p=1.0))
                         - eval_expr(e, b)) / 1e-7
                assert_allclose(dd(row, h), fdval, atol=1e-5)


def _benchmark_files(gen):
    """The problem files of the qd-build and verdicts workloads, seeds
    41-43."""
    return [loads(op.text) for seed in (41, 42, 43)
            for w in (gen.qd_build(seed), gen.verdicts(seed))
            for op in w.ops + w.warmup]


def depth_reference(e) -> int:
    """Operator levels from e down to its deepest leaf, recomputed."""
    ops = _operands(e)
    return 1 + max(depth_reference(c) for c in ops) if ops else 0


def test_depth_is_computed_at_construction(load_perfbench):
    load_perfbench("oracle")
    gen = load_perfbench("gen")
    files = [load(path) for path in sorted(PROBLEMS.glob("*.prob"))]
    files += _benchmark_files(gen)
    roots = [e for pf in files for e in (pf.objective, *pf.equalities,
                                          *pf.inequalities) if e is not None]
    assert len(roots) > 200
    todo = list(roots)
    while todo:
        e = todo.pop()
        assert_equal(e._depth, depth_reference(e))
        todo.extend(_operands(e))


class TestPointAndBatchRoundAlike:
    """evaluate at a point gives the bytes of that row of a batch, and pow
    takes the chain of the expressions module docstring."""

    def assert_rows_as_points(self, e, pts, params):
        batch = e.evaluate(pts, params)
        assert_equal(batch.shape, pts.shape[:1])
        for x, row in zip(pts, batch):
            assert np.float64(e.evaluate(x, params)).tobytes() \
                == row.tobytes()

    @pytest.mark.parametrize("text", [
        "x2", "0.7", "p", "-x1", "x1 + x2", "x1 - x2", "x1 * x2",
        "sin(3*x1)", "cos(x1 - x2)", "exp(2*x2)", "pow(x1, 1)",
        "pow(x1 + 0.3, 2)", "pow(0.28*x1 + 0.96*x2 + 0.368, 3)",
        "pow(x1 - x2, 7)", "pow(1.1*x2, 64)", "abs(x1 - p)",
        "max(x1, x2, p)", "min(x1*x2, 0.1, -x2)"])
    def test_every_node_kind(self, text):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(500, 2))
        pts[:20] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(20, 2))
        self.assert_rows_as_points(parse_expression(text, 2), pts,
                                   {"p": 0.25})

    def test_benchmark_expressions(self, load_perfbench):
        load_perfbench("oracle")
        rng = np.random.default_rng(1)
        count = 0
        for pf in _benchmark_files(load_perfbench("gen")):
            x0 = pf.point if pf.point is not None else np.zeros(pf.n)
            pts = x0 + rng.uniform(-0.5, 0.5, size=(64, pf.n))
            pts[0] = x0
            for e in (pf.objective, *pf.equalities, *pf.inequalities):
                if e is not None:
                    self.assert_rows_as_points(e, pts, pf.params)
                    count += 1
        assert count > 200

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 11, 64])
    def test_pow_never_writes_its_argument(self, k):
        # Var.evaluate returns a view of the caller's array, so a chain
        # that multiplied into its argument would change the scan
        base = np.random.default_rng(k).uniform(-2.0, 2.0, size=(40, 3))
        before = base.copy()
        view = base[5:35, 1]
        out = _power(view, k)
        assert base.tobytes() == before.tobytes()
        assert_equal(out, [_power(v, k) for v in view])
        pts = base.copy()
        parse_expression(f"pow(x2, {k})", 3).evaluate(pts)
        assert pts.tobytes() == before.tobytes()

    def test_pow_error_bound(self):
        # |v| in [2^-15, 2^16), so that v^64 neither underflows nor
        # overflows; the bound is k u with u = 2^-53, above the chain's
        # (1 + u)^(k-1) - 1
        rng = np.random.default_rng(3)
        v = rng.choice([-1.0, 1.0], 60) * rng.uniform(1.0, 2.0, 60) \
            * 2.0 ** rng.integers(-15, 16, 60)
        v[:2] = [0.0, -0.0]
        for k in range(1, 65):
            batch = _power(v, k)
            for x, got in zip(v, batch):
                at_point = _power(x, k)
                assert at_point.tobytes() == got.tobytes()
                exact = Fraction(x) ** k
                assert abs(Fraction(float(got)) - exact) \
                    <= k * Fraction(1, 2 ** 53) * abs(exact)
                if x == 0.0:
                    assert np.signbit(got) == (np.signbit(x) and k % 2 == 1)
