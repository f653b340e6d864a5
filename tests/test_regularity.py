from pathlib import Path

import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal

from quasidiff.calculus import Quasidifferential, steepest_rate
from quasidiff.expressions import (Binding, UnboundParameterError,
                                   parse_expression)
from quasidiff.geometry import Polytope, contains, minkowski_sum, scale
from quasidiff.problemfile import load
from quasidiff.regularity import (BudgetExceededError, RegularityError,
                                  SystemSpec, check_condition4, decay_flag,
                                  margin_infima, psi_expr,
                                  sampled_strong_slope, solution_distance,
                                  verify_regularity_grid)

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
