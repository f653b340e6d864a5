import functools
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import TestCase, assert_allclose, assert_equal

from quasidiff import regularity
from quasidiff.calculus import Quasidifferential, steepest_rate
from quasidiff.expressions import (Abs, Add, Binding, Const, Max, Mul, Sub,
                                   UnboundParameterError, Var,
                                   parse_expression, qd_at)
from quasidiff.geometry import Polytope, contains, minkowski_sum, scale
from quasidiff.mfcq import qd_mfcq
from quasidiff.problemfile import load, loads
from quasidiff.regularity import (GRID_BUDGET, SCAN_BLOCK, SCAN_MAX,
                                  SCAN_RADIUS, TARGET_GRID, X_GRID,
                                  BudgetExceededError, GridViolator,
                                  PsiFunction, RegularityError,
                                  RegularityGridReport, SystemSpec, _axis,
                                  _lattice, _near, _near_some_target,
                                  _nearest_distances, _on_set,
                                  _refine_distance,
                                  _scan_grid, center_line_slope,
                                  check_condition4, decay_flag,
                                  margin_infima, psi_expr,
                                  sampled_strong_slope, solution_distance,
                                  verify_regularity_grid)
from test_cli import cap_text

SQ2 = np.sqrt(2.0)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

ABS_DIFF = SystemSpec(2, (parse_expression("abs(x1) - abs(x2)", 2),))
MIXED = SystemSpec(2, (parse_expression("abs(x1) - x2", 2),),
                   (parse_expression("x1", 2),))
CUBIC = SystemSpec(1, (parse_expression("min(x1, max(pow(x1, 3), 0))", 1),))
IDENTITY = SystemSpec(1, (parse_expression("x1", 1),))


def margin_at(system, x, y, z=None):
    q = psi_expr(system, y, z).qd(np.asarray(x, dtype=float))
    return check_condition4(q, 2.0).margin


class TestSystemSpec(TestCase):

    def test_requires_some_constraint(self):
        with pytest.raises(RegularityError):
            SystemSpec(2, ())

    def test_binding_carries_params(self):
        s = SystemSpec(1, (parse_expression("p*x1", 1),), params={"p": 3.0})
        b = s.binding([2.0])
        assert_equal(b.params["p"], 3.0)


class TestPsiAssembly(TestCase):

    def test_mixed_system_formula(self):
        # psi = |f - y| + max{g - z, 0} pointwise
        psi = psi_expr(MIXED, [0.3], [0.1])
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 2)
            want = abs(abs(x[0]) - x[1] - 0.3) + max(x[0] - 0.1, 0.0)
            assert_allclose(psi.value(x), want, atol=1e-12)

    def test_slack_inequality_vanishes_locally(self):
        s = SystemSpec(2, (), (parse_expression("x1", 2),))
        psi = psi_expr(s, [], [0.5])
        assert_allclose(psi.value([0.0, 0.0]), 0.0)
        q = psi.qd(np.zeros(2))
        assert_allclose(steepest_rate(q)[0], 0.0, atol=1e-12)


class TestCondition4(TestCase):
    """Margins of psi_y(x) = |y - |x1| + |x2|| in the four worked cases:
    sqrt(2) generically, 1 when the branch-relevant coordinate is zero."""

    def test_margin_above_branch(self):
        # y > F(x): sqrt(2) while x2 != 0, else 1
        assert_allclose(margin_at(ABS_DIFF, [0.7, -0.3], [1.2]), SQ2,
                        atol=1e-9)
        assert_allclose(margin_at(ABS_DIFF, [0.0, 0.4], [0.2]), SQ2,
                        atol=1e-9)
        assert_allclose(margin_at(ABS_DIFF, [0.5, 0.0], [0.8]), 1.0,
                        atol=1e-9)

    def test_margin_below_branch(self):
        # y < F(x): sqrt(2) while x1 != 0, else 1
        assert_allclose(margin_at(ABS_DIFF, [0.6, 0.0], [-0.1]), SQ2,
                        atol=1e-9)
        assert_allclose(margin_at(ABS_DIFF, [0.5, 0.5], [-0.3]), SQ2,
                        atol=1e-9)
        assert_allclose(margin_at(ABS_DIFF, [0.0, 0.3], [-0.5]), 1.0,
                        atol=1e-9)

    def test_holds_for_any_K_above_one(self):
        q = psi_expr(ABS_DIFF, [0.8]).qd(np.array([0.5, 0.0]))  # margin 1
        for K in (1.0 + 1e-9, 1.5, 10.0, 1e6):
            assert check_condition4(q, K).holds
        assert not check_condition4(q, 1.0).holds
        assert not check_condition4(q, 0.5).holds

    def test_uderzo_comparison(self):
        # at the origin the pointwise condition degenerates (w* = 0 sits
        # in the superdifferential and 0 in sub + w*), yet the existence
        # form still gives margin 1
        q = psi_expr(ABS_DIFF, [0.5]).qd(np.zeros(2))
        assert contains(q.sup, [0.0, 0.0])
        assert contains(q.sub, [0.0, 0.0])
        res = check_condition4(q, 1.5)
        assert_allclose(res.margin, 1.0, atol=1e-12)
        assert res.holds

    def test_mixed_system_equality_case(self):
        # y = f(x) with the inequality strictly violated: sqrt(2)/2
        x = np.array([1.0, 0.5])
        y = abs(x[0]) - x[1]
        assert_allclose(margin_at(MIXED, x, [y], [0.5]), SQ2 / 2.0,
                        atol=1e-9)

    def test_mixed_system_sampled_lower_bound(self):
        rng = np.random.default_rng(1)
        count = 0
        while count < 60:
            x = rng.uniform(-1.0, 1.0, 2)
            y, z = rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)
            psi = psi_expr(MIXED, [y], [z])
            if psi.value(x) <= 1e-9:
                continue
            m = check_condition4(psi.qd(x), 2.0).margin
            assert m >= SQ2 / 2.0 - 1e-9
            count += 1

    def test_cubic_margins(self):
        for x in (0.05, 0.1, 0.2):
            assert_allclose(margin_at(CUBIC, [x], [0.0]), 3.0 * x ** 2,
                            atol=1e-9)

    def test_margin_invariant_under_pair_shifts(self):
        rng = np.random.default_rng(2)
        q = psi_expr(MIXED, [0.5], [0.5]).qd(np.array([1.0, 0.5]))
        base = check_condition4(q, 2.0).margin
        for _ in range(50):
            c = Polytope(rng.uniform(-1.0, 1.0, (3, 2)))
            q2 = Quasidifferential(minkowski_sum(q.sub, c),
                                   minkowski_sum(q.sup, scale(c, -1.0)))
            assert_allclose(check_condition4(q2, 2.0).margin, base,
                            atol=1e-10)

    def test_nonpositive_K_rejected(self):
        q = psi_expr(CUBIC, [0.0]).qd(np.array([0.1]))
        with pytest.raises(RegularityError):
            check_condition4(q, 0.0)


class TestSampledSlope(TestCase):

    def test_cubic_slope_matches_margin(self):
        psi = psi_expr(CUBIC, [0.0])
        got = sampled_strong_slope(psi.value, [0.1])
        assert_allclose(got, 0.03, rtol=0.1)

    def test_constant_function(self):
        assert_equal(sampled_strong_slope(lambda x: 7.0, [0.3, 0.4]), 0.0)

    def test_quadratic_gradient_norm(self):
        fn = lambda x: float(np.sum(np.asarray(x) ** 2))
        got = sampled_strong_slope(fn, [0.3, 0.4])
        assert_allclose(got, 1.0, rtol=0.1)  # 2 * ||(0.3, 0.4)||

    def test_margin_cross_check_on_lipschitz_fixture(self):
        # positive margin must agree with the sampled slope within 15%
        x = np.array([0.7, -0.3])
        psi = psi_expr(ABS_DIFF, [1.2])
        margin = check_condition4(psi.qd(x), 2.0).margin
        slope = sampled_strong_slope(psi.value, x)
        assert abs(slope - margin) <= 0.15 * margin


class TestSolutionDistance(TestCase):

    def test_cubic_cube_root_law(self):
        for y in (1e-2, 1e-3, 1e-4):
            d = solution_distance(CUBIC, [0.0], [y], scan_radius=0.6,
                                  budget=10 ** 5)
            assert_allclose(d, y ** (1.0 / 3.0), atol=2e-3)

    def test_empty_window_reports_inf(self):
        d = solution_distance(IDENTITY, [0.0], [10.0], scan_radius=1.0,
                              budget=10 ** 4)
        assert d == np.inf

    def test_inequality_half_line(self):
        # S = {u : u <= 0.2}, so d(0.6, S) = 0.4
        s = SystemSpec(1, (), (parse_expression("x1", 1),))
        d = solution_distance(s, [0.6], z=[0.2], budget=10 ** 4)
        assert_allclose(d, 0.4, atol=1e-8)

    def test_identity_exact(self):
        d = solution_distance(IDENTITY, [0.0], [0.25], scan_radius=1.0,
                              budget=10 ** 5)
        assert_allclose(d, 0.25, atol=1e-4)


class TestRegularityGrid(TestCase):

    def test_identity_ratio_one(self):
        rep = verify_regularity_grid(IDENTITY, [0.0], K=1.5, r=0.5,
                                     x_grid=9, target_grid=5,
                                     scan_radius=1.0, budget=10 ** 5)
        assert rep.certified
        assert 0.95 <= rep.worst_ratio <= 1.0 + 1e-6

    def test_identity_below_threshold_flags(self):
        # the true constant is 1; K = 0.9 must produce a violator
        rep = verify_regularity_grid(IDENTITY, [0.0], K=0.9, r=0.5,
                                     x_grid=9, target_grid=5,
                                     scan_radius=1.0, budget=10 ** 5)
        assert not rep.certified

    def test_abs_difference_certifies_at_K_1_5(self):
        rep = verify_regularity_grid(ABS_DIFF, [0.0, 0.0], K=1.5, r=0.5,
                                     x_grid=9, target_grid=5,
                                     scan_radius=1.2, budget=10 ** 6)
        assert rep.n_checked > 100
        assert rep.certified
        assert rep.worst_ratio <= 1.0 + 1e-2

    def test_cubic_violation_found(self):
        rep = verify_regularity_grid(CUBIC, [0.0], K=5.0, r=0.2,
                                     x_grid=9, target_grid=5,
                                     scan_radius=0.8, budget=10 ** 5)
        assert not rep.certified
        assert rep.violators and rep.worst_ratio > 5.0

    def test_grid_over_budget_refused_before_evaluation(self):
        # 3^2 targets x 3 points = 27; the unbound q would fail evaluation
        f = parse_expression("q*x1", 1)
        s = SystemSpec(1, (f, f))
        with pytest.raises(BudgetExceededError,
                           match=r"3\^2 targets x 3\^1 points = 27 exceeds "
                                 "the budget 26"):
            verify_regularity_grid(s, [0.0], K=1.0, r=0.5, x_grid=3,
                                   target_grid=3, budget=26)
        with pytest.raises(UnboundParameterError):
            verify_regularity_grid(s, [0.0], K=1.0, r=0.5, x_grid=3,
                                   target_grid=3, budget=27)

    def test_even_grid_rejected(self):
        with pytest.raises(RegularityError):
            verify_regularity_grid(IDENTITY, [0.0], K=1.0, r=0.5, x_grid=8)

    def one_point_grid(self, x_grid, target_grid):
        # K so small that every checked point is a violator, whose x, y
        # the report keeps
        pf = load(PROBLEMS / "cubic.prob")
        rep = verify_regularity_grid(pf.system(), pf.point, K=1e-6,
                                     r=pf.check.r, x_grid=x_grid,
                                     target_grid=target_grid,
                                     scan_radius=pf.check.scan_radius)
        assert_equal(rep.n_checked + rep.n_skipped_near_graph,
                     x_grid * target_grid)
        assert_equal(len(rep.violators), rep.n_checked)
        return rep

    def test_one_point_x_grid_is_the_center(self):
        rep = self.one_point_grid(1, 11)
        assert_equal(rep.n_checked, 10)
        assert_equal({v.x for v in rep.violators}, {(0.0,)})

    def test_one_point_target_grid_is_zero(self):
        rep = self.one_point_grid(21, 1)
        assert rep.n_checked > 0
        assert_equal({(v.y, v.z) for v in rep.violators}, {((0.0,), ())})


class TestCenterLineSlope:
    """The least center-line slope of psi (the regularity module
    docstring): hand values, and the paper's theorem, q.d.-MFCQ implies
    metric regularity, so the slope is positive wherever qd_mfcq holds."""

    @pytest.mark.parametrize("name, center, slope, patterns", [
        ("CUBIC", [0.0], 0.0, 2),
        # |x1| - |x2| - y: d(0, co{(+-1, 0)} + (0, +-1)) = 1
        ("ABS_DIFF", [0.0, 0.0], 1.0, 2),
        # the least of 1, sqrt 2, 1 and sqrt 5 over the four patterns
        ("MIXED", [0.0, 0.0], 1.0, 4),
        ("IDENTITY", [0.0], 1.0, 2),
    ])
    def test_hand_values(self, name, center, slope, patterns):
        s = {"CUBIC": CUBIC, "ABS_DIFF": ABS_DIFF, "MIXED": MIXED,
             "IDENTITY": IDENTITY}[name]
        assert_equal(center_line_slope(s, center, GRID_BUDGET),
                     (slope, patterns))

    @pytest.mark.parametrize("name, slope, patterns", [
        ("cubic.prob", 0.0, 2),
        ("penalty_demo.prob", 1.0, 2),
        ("sin_system.prob", np.sqrt(5.0), 4),
    ])
    def test_fixtures(self, name, slope, patterns):
        pf = load(PROBLEMS / name)
        got, count = center_line_slope(pf.system(), pf.point, GRID_BUDGET)
        assert abs(got - slope) <= 1e-12, got
        assert_equal(count, patterns)

    def test_no_term_reads_inf(self):
        # inactive inequality: one empty pattern, and psi = 0 near 0
        s = SystemSpec(1, (), (parse_expression("x1 - 1", 1),))
        assert_equal(center_line_slope(s, [0.0], 1), (np.inf, 1))
        # active: the pattern without it has no term, the other slope 1
        s = SystemSpec(1, (), (parse_expression("x1", 1),))
        assert_equal(center_line_slope(s, [0.0], 2), (1.0, 2))

    def test_budget_caps_the_patterns_before_any_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked past the budget")
        monkeypatch.setattr(regularity, "qd_at", refuse)
        s = SystemSpec(1, (parse_expression("x1", 1),) * 7)
        with pytest.raises(BudgetExceededError, match="count 128 exceeds "
                           "the budget 100"):
            center_line_slope(s, [0.0], 100)

    def test_mfcq_implies_a_positive_slope(self, load_perfbench):
        load_perfbench("oracle")
        gen = load_perfbench("gen")
        files = [load(PROBLEMS / f"{name}.prob")
                 for name in ("cubic", "penalty_demo", "sin_system")]
        for seed in (41, 42, 43):
            workload = gen.verdicts(seed)
            files += [loads(op.text) for op in workload.ops + workload.warmup
                      if op.command in ("mfcq", "optcheck")]
        held = 0
        for pf in files:
            s = pf.system()
            if qd_mfcq(s, pf.point).verdict:
                held += 1
                assert center_line_slope(s, pf.point, GRID_BUDGET)[0] > 0.0
        # the fixtures and 48 benchmark systems; sin_system and 12 of the
        # benchmark's hold
        assert_equal((len(files), held), (51, 13))

    def test_the_slope_ignores_the_representative(self, load_perfbench):
        # each constraint h becomes (h + k) - k, k = |a.x| for a seeded a:
        # the same function, whose walked pair the kink of k shifts
        load_perfbench("oracle")
        gen = load_perfbench("gen")
        files = [load(PROBLEMS / f"{name}.prob")
                 for name in ("cubic", "penalty_demo", "sin_system")]
        for seed in (41, 42, 43):
            workload = gen.verdicts(seed)
            files += [loads(op.text) for op in workload.ops + workload.warmup
                      if op.command in ("mfcq", "optcheck", "regcheck")]
        rng = np.random.default_rng(9)
        compared = 0
        for pf in files:
            s = pf.system()
            want = center_line_slope(s, pf.point, GRID_BUDGET)
            for _ in range(3):
                a = rng.integers(-3, 4, size=s.n) * 0.5
                k = Abs(functools.reduce(Add, [
                    Mul(Const(v), Var(i + 1)) for i, v in enumerate(a)]))
                shifted = SystemSpec(
                    s.n, [Sub(Add(h, k), k) for h in s.equalities],
                    [Sub(Add(h, k), k) for h in s.inequalities], s.params)
                got = center_line_slope(shifted, pf.point, GRID_BUDGET)
                assert_equal((got[0] == 0.0, got[1]),
                             (want[0] == 0.0, want[1]))
                assert_allclose(got[0], want[0], rtol=1e-9)
                compared += 1
        assert_equal((len(files), compared), (63, 189))


class TestMarginInfima(TestCase):

    def test_cubic_margins_collapse(self):
        infima = margin_infima(CUBIC, [0.0])
        assert decay_flag(infima)
        radii = [r for r, _, _ in infima]
        assert_equal(radii, sorted(radii, reverse=True))

    def test_identity_margins_stay_up(self):
        infima = margin_infima(IDENTITY, [0.0])
        assert not decay_flag(infima)
        for _, inf, n in infima:
            assert n > 0 and inf > 0.5


def reference_psi_tree(s, y, z):
    """psi_{y,z} with the targets written in as Const leaves, the tree that
    was built anew for every target pair before the system's psi tree
    took them as parameters."""
    y, z = s.targets(y, z)
    terms = ([Abs(Sub(f, Const(float(yj)))) for f, yj in zip(s.equalities, y)]
             + [Max((Sub(g, Const(float(zi))), Const(0.0)))
                for g, zi in zip(s.inequalities, z)])
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


def reference_margin_infima(s, center, seed=0):
    """margin_infima drawing, building and testing one (x, y, z) at a
    time."""
    center = np.asarray(center, dtype=float)
    y0, z0 = s.targets()
    rng = np.random.default_rng(seed)
    out = []
    for rho in (0.3, 0.1, 0.03, 0.01):
        inf_margin = np.inf
        valid = 0
        attempts = 0
        while valid < 48 and attempts < 960:
            attempts += 1
            xs = center + rho * rng.uniform(-1.0, 1.0, size=s.n)
            ys = y0 + rho * rng.uniform(-1.0, 1.0, size=y0.shape)
            zs = z0 + rho * rng.uniform(-1.0, 1.0, size=z0.shape)
            e = reference_psi_tree(s, ys, zs)
            if float(e.evaluate(xs, s.params)) <= 1e-9:
                continue
            valid += 1
            margin = steepest_rate(qd_at(e, s.binding(xs)))[0]
            inf_margin = min(inf_margin, margin)
        out.append((float(rho), float(inf_margin), valid))
    return out


def _same_bytes(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert_equal(got.shape, want.shape)
    assert got.tobytes() == want.tobytes()


def _psi_cases(pf, rng):
    """(system, point, batch, y rows, z rows) for a problem file: the
    file's point x0, and 16 rows (x, y, z) drawn uniformly within 0.5 of
    (x0, 0, 0)."""
    s = pf.system()
    l, m = len(s.equalities), len(s.inequalities)
    x0 = pf.point if pf.point is not None else np.zeros(s.n)
    draws = rng.uniform(-0.5, 0.5, size=(16, s.n + l + m))
    xs, ys, zs = np.split(draws, [s.n, s.n + l], axis=1)
    return s, x0, x0 + xs, ys, zs


def _assert_psi_as_reference(s, x0, xs, ys, zs):
    # one target pair (a drawn one, then zeros): value and qd at a point,
    # value over the batch
    for y, z in [(ys[0], zs[0]), (ys[1] * 0.0, zs[1] * 0.0)]:
        psi, ref = PsiFunction(s, y, z), reference_psi_tree(s, y, z)
        for x in (x0, xs[0]):
            _same_bytes(psi.value(x), ref.evaluate(x, s.params))
            got, want = psi.qd(x), qd_at(ref, s.binding(x))
            _same_bytes(got.sub.vertices, want.sub.vertices)
            _same_bytes(got.sup.vertices, want.sup.vertices)
        _same_bytes(psi.value(xs), ref.evaluate(xs, s.params))
    # one target pair per row, against each row's tree at that row's point
    _same_bytes(PsiFunction(s, ys, zs).value(xs),
                [reference_psi_tree(s, y, z).evaluate(x, s.params)
                 for x, y, z in zip(xs, ys, zs)])


def _same_infima(got, want):
    """Equal margin_infima entries, the floats by their bytes."""
    assert_equal(len(got), len(want))
    for (r, m, k), (r0, m0, k0) in zip(got, want):
        assert (np.float64(r).tobytes(), np.float64(m).tobytes(), k) == \
            (np.float64(r0).tobytes(), np.float64(m0).tobytes(), k0)


class TestPsiTreeAsReference:
    """The system's psi tree with bound target parameters gives the bytes
    of the tree with the targets written in, and margin_infima's batched
    rounds the floats of the per-draw loop."""

    @pytest.mark.parametrize("name", ["cubic.prob", "penalty_demo.prob",
                                      "sin_system.prob"])
    def test_fixtures(self, name):
        rng = np.random.default_rng(0)
        _assert_psi_as_reference(*_psi_cases(load(PROBLEMS / name), rng))

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_benchmark_verdict_systems(self, seed, load_perfbench):
        load_perfbench("oracle")
        workload = load_perfbench("gen").verdicts(seed)
        rng = np.random.default_rng(seed)
        count = 0
        for op in workload.ops + workload.warmup:
            pf = loads(op.text)
            if pf.equalities or pf.inequalities:
                _assert_psi_as_reference(*_psi_cases(pf, rng))
                count += 1
        assert count > 0

    def test_tree_is_built_once_per_system(self):
        s = SystemSpec(2, (parse_expression("abs(x1) - x2", 2),),
                       (parse_expression("x1", 2),))
        tree = s.psi_tree
        assert_equal(psi_expr(s, [0.3], [0.1]).value([1.0, 0.5]), 1.1)
        assert s.psi_tree is tree
        with pytest.raises(RegularityError):
            psi_expr(s, [[0.3, 0.1]], [[0.1]])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["CUBIC", "IDENTITY", "MIXED",
                                      "sin_system", "cap", "half_valid"])
    def test_margin_infima_as_per_draw_loop(self, name, seed):
        s, center = {
            "CUBIC": (CUBIC, [0.0]),
            "IDENTITY": (IDENTITY, [0.0]),
            "MIXED": (MIXED, [0.0, 0.0]),
            "sin_system": (load(PROBLEMS / "sin_system.prob").system(),
                           load(PROBLEMS / "sin_system.prob").point),
            # the cap file's two constraint shapes: psi is 0 at every
            # draw, so no sample is valid
            "cap": (loads(cap_text(2)).system(), [0.0]),
            # psi = max(x1 - z, 0) is positive at about half the draws
            "half_valid": (SystemSpec(1, (), (parse_expression("x1", 1),)),
                           [0.0]),
        }[name]
        got = margin_infima(s, center, seed=seed)
        assert_equal(got, reference_margin_infima(s, center, seed=seed))
        if name == "cap":
            assert_equal([k for _, _, k in got], [0, 0, 0, 0])
        if name == "half_valid":
            assert all(0 < k <= 48 for _, _, k in got)

    @pytest.mark.parametrize("text, center", [
        # exp overflows in the screen's evaluation of the first shell
        ("exp(10000*x1)", 0.0),
        # 1e308 x1^2 stays finite on the first shell; its gradient
        # 2e308 x1 overflows past x1 = 0.9, inside the walk
        ("1e308*pow(x1, 2)", 1.0),
        # finite everywhere on the shells
        ("exp(700*x1) - 1", 0.0),
    ])
    def test_margin_infima_under_overflow_as_per_draw_loop(self, text,
                                                           center):
        s = SystemSpec(1, (parse_expression(text, 1),))
        outcomes = []
        for run in (margin_infima, reference_margin_infima):
            with np.errstate(over="raise"):
                try:
                    outcomes.append(run(s, [center]))
                except FloatingPointError as exc:
                    outcomes.append((type(exc), str(exc)))
        if isinstance(outcomes[0], tuple):
            assert_equal(outcomes[0], outcomes[1])
        else:
            _same_infima(*outcomes)


def reference_verify_regularity_grid(s, center, K, r, x_grid=X_GRID,
                                     target_grid=TARGET_GRID, *,
                                     scan_radius=SCAN_RADIUS,
                                     budget=GRID_BUDGET):
    """verify_regularity_grid with every target testing the full scan, as
    before the scan kept only its rows near some target."""
    from scipy.spatial import cKDTree

    l, m = len(s.equalities), len(s.inequalities)
    center = np.asarray(center, dtype=float)
    xpts = _lattice(center, r, x_grid)
    taxis = _axis(0.0, r, target_grid)
    axes, step = _scan_grid(center, scan_radius, budget)
    scan_pts = np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, len(center))
    eta = 8.0 * step
    slack = 3.0 * step * np.sqrt(s.n)
    psi_cutoff = 10.0 * eta
    f_scan, g_scan = s.values(scan_pts)
    report = RegularityGridReport()
    for combo in itertools.product(range(target_grid), repeat=l + m):
        y, z = np.split(taxis[list(combo)], [l])
        accepted = scan_pts[_near(f_scan, g_scan, y, z, eta)]
        psi = PsiFunction(s, y, z).value(xpts)
        if accepted.shape[0] == 0:
            d = np.full(xpts.shape[0], np.inf)
            report.n_empty_solution_sets += 1
        else:
            d, _ = cKDTree(accepted).query(xpts)
        for i in range(xpts.shape[0]):
            if psi[i] < psi_cutoff:
                report.n_skipped_near_graph += 1
                continue
            report.n_checked += 1
            ratio = d[i] / psi[i]
            if ratio > report.worst_ratio:
                report.worst_ratio = float(ratio)
                report.worst_point = (tuple(xpts[i]), tuple(y), tuple(z))
            if d[i] > K * psi[i] + slack:
                dist = d[i]
                if np.isfinite(d[i]):
                    j = int(np.argmin(np.einsum("ij,ij->i",
                                                accepted - xpts[i],
                                                accepted - xpts[i])))
                    dist = _refine_distance(
                        s, xpts[i], accepted[j],
                        _on_set(s, accepted[j], y, z, step), y, z, step)
                if dist > K * psi[i] + slack:
                    report.violators.append(GridViolator(
                        x=tuple(xpts[i]), y=tuple(y), z=tuple(z),
                        distance=float(dist), psi=float(psi[i]),
                        ratio=float(dist / psi[i])))
    return report


def _assert_same_report(got, want):
    """Every RegularityGridReport field equal, floats by their bytes."""
    assert_equal((got.n_checked, got.n_skipped_near_graph,
                  got.n_empty_solution_sets, len(got.violators)),
                 (want.n_checked, want.n_skipped_near_graph,
                  want.n_empty_solution_sets, len(want.violators)))
    _same_bytes(got.worst_ratio, want.worst_ratio)
    assert (got.worst_point is None) == (want.worst_point is None)
    for a, b in zip(got.worst_point or (), want.worst_point or ()):
        _same_bytes(a, b)
    for u, v in zip(got.violators, want.violators):
        for name in ("x", "y", "z", "distance", "psi", "ratio"):
            _same_bytes(getattr(u, name), getattr(v, name))


def _file_grid(pf):
    """verify_regularity_grid's arguments as regcheck takes them from a
    problem file with K and r."""
    c = pf.check
    return dict(s=pf.system(), center=pf.point, K=c.k, r=c.r,
                x_grid=c.grid or X_GRID,
                target_grid=c.target_grid or TARGET_GRID,
                scan_radius=c.scan_radius or SCAN_RADIUS,
                budget=c.budget or GRID_BUDGET)


TWO_EQUALITIES = SystemSpec(2, (parse_expression("abs(x1) - x2", 2),
                                parse_expression("x1 + max(x2, 0)", 2)))
ONE_INEQUALITY = SystemSpec(2, (), (parse_expression(
    "pow(x1, 2) + x2 - 0.1", 2),))


class TestGridScanPassAsReference:
    """The grid check's one scan pass gives every report field of the
    per-target full scans, to the byte."""

    @pytest.mark.parametrize("name", [
        "CUBIC", "IDENTITY", "ABS_DIFF", "MIXED", "sin_system",
        "two_equalities", "one_inequality", "IDENTITY_one_target"])
    def test_systems(self, name):
        kw = {
            "CUBIC": dict(s=CUBIC, center=[0.0], K=5.0, r=0.2, x_grid=9,
                          target_grid=5, scan_radius=0.8, budget=10 ** 5),
            "IDENTITY": dict(s=IDENTITY, center=[0.0], K=0.9, r=0.5,
                             x_grid=9, target_grid=5, budget=10 ** 5),
            "ABS_DIFF": dict(s=ABS_DIFF, center=[0.0, 0.0], K=1.5, r=0.5,
                             x_grid=9, target_grid=5, scan_radius=1.2),
            "MIXED": dict(s=MIXED, center=[0.1, -0.2], K=1.0, r=0.4,
                          x_grid=7, target_grid=5, budget=10 ** 5),
            # two equalities, 11^2 targets
            "sin_system": dict(s=load(PROBLEMS / "sin_system.prob").system(),
                               center=[0.0, 0.0], K=0.85, r=0.3,
                               x_grid=5, budget=10 ** 5),
            # 11^2 targets: a row must be near an axis value in both
            # coordinates at once
            "two_equalities": dict(s=TWO_EQUALITIES, center=[0.0, 0.0],
                                   K=1.0, r=0.3, x_grid=5, target_grid=11,
                                   budget=10 ** 5),
            "one_inequality": dict(s=ONE_INEQUALITY, center=[0.0, 0.3],
                                   K=0.9, r=0.3, x_grid=7, target_grid=7,
                                   budget=10 ** 5),
            "IDENTITY_one_target": dict(s=IDENTITY, center=[0.0], K=0.9,
                                        r=0.5, x_grid=9, target_grid=1),
        }[name]
        got = verify_regularity_grid(**kw)
        _assert_same_report(got, reference_verify_regularity_grid(**kw))
        assert got.n_checked > 0

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_benchmark_regcheck_systems(self, seed, load_perfbench):
        load_perfbench("oracle")
        workload = load_perfbench("gen").verdicts(seed)
        count = 0
        for op in workload.ops + workload.warmup:
            if op.command == "regcheck":
                kw = _file_grid(loads(op.text))
                _assert_same_report(verify_regularity_grid(**kw),
                                    reference_verify_regularity_grid(**kw))
                count += 1
        assert_equal(count, 4)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_all_skipped_grids_measure_no_distance(self, seed,
                                                   load_perfbench,
                                                   monkeypatch):
        # every row of the n = 2 grids lies below the psi cutoff, so no
        # nearest-distance structure is built and nothing is refined
        def unused(*args):
            raise AssertionError("a distance was measured")

        monkeypatch.setattr(regularity, "_nearest_distances", unused)
        monkeypatch.setattr(regularity, "_on_set", unused)
        load_perfbench("oracle")
        workload = load_perfbench("gen").verdicts(seed)
        count = 0
        for op in workload.ops + workload.warmup:
            if op.key.startswith(("regcheck-n2", "warmup-regcheck")):
                kw = _file_grid(loads(op.text))
                got = verify_regularity_grid(**kw)
                assert_equal(got.n_checked, 0)
                _assert_same_report(got,
                                    reference_verify_regularity_grid(**kw))
                count += 1
        assert_equal(count, 3)

    @pytest.mark.parametrize("scan_radius", [1.0, 40.0])
    def test_n1_scan_with_rounding_ties(self, scan_radius):
        # at 1e16 the float spacing is 2, so the scan's linspace repeats
        # each value many times (at radius 1 all of them round to 1e16),
        # and the nearest accepted point has equal neighbours
        s = SystemSpec(1, (parse_expression("x1 - 10000000000000000", 1),))
        kw = dict(s=s, center=[1e16], K=0.5, r=8.0, x_grid=5,
                  target_grid=5, scan_radius=scan_radius, budget=10 ** 4)
        (axis,), _ = _scan_grid(np.array([1e16]), scan_radius, 10 ** 4)
        assert len(np.unique(axis)) < len(axis) // 100
        got = verify_regularity_grid(**kw)
        _assert_same_report(got, reference_verify_regularity_grid(**kw))
        assert got.violators

    def test_targets_sharing_a_start_index(self, monkeypatch):
        # x1 = y: each target's accepted rows are a window of equal size
        # about y, so violators above their target all start from the
        # last row of their own window, the same index for every target;
        # the first refinement phase is reused within a target only
        starts = []

        def recording(s, start, y, z, step):
            starts.append((tuple(y), tuple(start)))
            return _on_set(s, start, y, z, step)

        monkeypatch.setattr(regularity, "_on_set", recording)
        kw = dict(s=IDENTITY, center=[0.0], K=0.5, r=0.5, x_grid=9,
                  target_grid=5, budget=10 ** 4)
        got = verify_regularity_grid(**kw)
        _assert_same_report(got, reference_verify_regularity_grid(**kw))
        assert_equal(len(starts), len(set(starts)))
        assert len({y for y, _ in starts}) > 1
        assert len(starts) < len(got.violators)

    @pytest.mark.parametrize("budget", [
        1000, SCAN_BLOCK, 2 * SCAN_BLOCK, 2 * SCAN_BLOCK + 1])
    def test_scan_block_boundaries(self, budget):
        # a scan inside one block, at one and two whole blocks, and one
        # row into a third block
        kw = dict(s=CUBIC, center=[0.0], K=5.0, r=0.2, x_grid=9,
                  target_grid=5, scan_radius=0.8, budget=budget)
        got = verify_regularity_grid(**kw)
        _assert_same_report(got, reference_verify_regularity_grid(**kw))
        assert got.n_checked > 0

    def test_n3(self):
        # 46^3 scan rows, two blocks
        s = SystemSpec(3, (parse_expression("x1 + abs(x2) - x3", 3),))
        kw = dict(s=s, center=[0.0, 0.0, 0.0], K=0.8, r=0.3, x_grid=5,
                  target_grid=5, scan_radius=0.1, budget=10 ** 5)
        got = verify_regularity_grid(**kw)
        _assert_same_report(got, reference_verify_regularity_grid(**kw))
        assert got.n_checked > 0 and got.violators

    def test_one_feasibility_search_per_start(self, monkeypatch):
        # cubic.prob's 14 violators share 2 starts: 2 searches for the
        # first phase and 14 for the second, where running both phases
        # per violator takes 28
        calls = []
        search = regularity._pattern_search
        monkeypatch.setattr(regularity, "_pattern_search",
                            lambda *a: calls.append(1) or search(*a))
        got = verify_regularity_grid(**_file_grid(load(PROBLEMS
                                                       / "cubic.prob")))
        assert_equal(len(got.violators), 14)
        assert_equal(len(calls), 16)

    def test_scan_is_streamed(self):
        # the cubic.prob settings scan 10^6 rows; streamed in blocks, the
        # peak is the 8 MB scan axis and one block's buffers, where the
        # whole lattice with its value and mask arrays peaked at 25.8 MB
        kw = _file_grid(load(PROBLEMS / "cubic.prob"))
        tracemalloc.start()
        try:
            verify_regularity_grid(**kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10 ** 6, peak

    def test_rows_near_no_target_are_dropped(self):
        # x1 on [-1, 1] against the five axis values of [-0.3, 0.3]: the
        # kept rows are those within eta of one of them, and a nan value
        # is near none
        (axis,), step = _scan_grid(np.zeros(1), 1.0, 1001)
        eta = 8.0 * step
        taxis = _axis(0.0, 0.3, 5)
        fv, gv = IDENTITY.values(axis[:, None])
        keep = _near_some_target(fv, gv, taxis, eta)
        union = np.logical_or.reduce([_near(fv, gv, [y], [], eta)
                                      for y in taxis])
        assert_equal(keep, union)
        assert 0 < keep.sum() < keep.size
        f_nan = [np.where(keep, np.nan, fv[0])]
        assert not _near_some_target(f_nan, gv, taxis, eta).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_mask_is_the_union_of_target_masks(self, seed):
        # two equalities and one inequality over 3^3 targets; the values
        # sit near the axis values or the inequality's cut, and a tenth
        # of them are nan, inf or -inf
        rng = np.random.default_rng(seed)
        taxis, eta, size = _axis(0.0, 0.3, 3), 0.01, 4000
        values = rng.choice(taxis, size=(3, size)) \
            + rng.uniform(-2.0 * eta, 2.0 * eta, size=(3, size))
        odd = rng.random((3, size)) < 0.1
        values[odd] = rng.choice([np.nan, np.inf, -np.inf], size=odd.sum())
        fv, gv = [values[0], values[1]], [values[2]]
        union = np.logical_or.reduce(
            [_near(fv, gv, [y1, y2], [z], eta)
             for y1, y2, z in itertools.product(taxis, repeat=3)])
        keep = _near_some_target(fv, gv, taxis, eta)
        assert keep.tobytes() == union.tobytes()
        assert 0 < keep.sum() < size


# mantissas of the n = 1 distance sets and queries: a few that repeat,
# and any float in [-4, 4]; queries reach past the set on both sides
_MANTISSAS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                       st.floats(-4.0, 4.0))


class TestNearestDistances:

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_n1_is_the_tree_by_bytes(self, data):
        # scales 2^-600 to 2^600: at n = 1 the distance is the least
        # |q - p| at every scale, and the tree's sqrt of its square
        # wherever that square is a normal number; where the square
        # underflows or overflows, only the tree's reading is off
        from scipy.spatial import cKDTree

        scale = 2.0 ** data.draw(st.integers(-600, 600), label="exponent")
        pts = np.sort(np.array(data.draw(st.lists(
            _MANTISSAS, min_size=1, max_size=60), label="set"))) * scale
        q = np.array(data.draw(st.lists(
            st.one_of(_MANTISSAS, st.floats(-8.0, 8.0)), min_size=1,
            max_size=20), label="queries")) * scale
        with np.errstate(over="raise"):
            got = _nearest_distances(pts[:, None], q[:, None])
        want = np.abs(q[:, None] - pts[None, :]).min(axis=1)
        assert got.tobytes() == want.tobytes()
        with np.errstate(over="ignore", under="ignore"):
            square = want * want
        normal = (want == 0) | ((square >= np.finfo(float).tiny)
                                & (square < np.inf))
        tree = cKDTree(pts[:, None]).query(q[:, None])[0]
        assert got[normal].tobytes() == tree[normal].tobytes()


class TestScanSize:
    """budget sizes the solution-set scan at budget^(1/n) points per axis;
    a scan above SCAN_MAX points is refused before it is allocated."""

    @pytest.mark.parametrize("n, budget", [
        (1, 10 ** 30), (1, SCAN_MAX + 1), (1, 10 ** 400), (3, 10 ** 9),
        (3, 10 ** 30), (3, 10 ** 4000)])
    def test_refused_before_allocation(self, n, budget):
        # the unbound q would fail the scan's evaluation
        s = SystemSpec(n, (parse_expression("q*x1", n),))
        with pytest.raises(RegularityError, match=r"^budget \d+ sizes the "
                           r"solution-set scan .* more than its maximum "
                           r"100000000$"):
            verify_regularity_grid(s, np.zeros(n), K=1.0, r=0.5, x_grid=1,
                                   target_grid=1, budget=budget)
        with pytest.raises(RegularityError, match="^budget"):
            _scan_grid(np.zeros(n), 1.0, budget)
