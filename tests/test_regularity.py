import itertools
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal

from quasidiff import regularity
from quasidiff.calculus import Quasidifferential, steepest_rate
from quasidiff.expressions import (Abs, Add, Binding, Const, Max, Sub,
                                   UnboundParameterError, parse_expression,
                                   qd_at)
from quasidiff.geometry import Polytope, contains, minkowski_sum, scale
from quasidiff.problemfile import load, loads
from quasidiff.regularity import (GRID_BUDGET, SCAN_MAX, SCAN_RADIUS,
                                  TARGET_GRID, X_GRID, BudgetExceededError,
                                  GridViolator, PsiFunction,
                                  RegularityError, RegularityGridReport,
                                  SystemSpec, _axis, _lattice, _near,
                                  _near_some_target, _refine_distance,
                                  _scan_grid, check_condition4, decay_flag,
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


def _count_row_walks(monkeypatch) -> list:
    """The outcomes of margin_infima's row walks, one per round, as they
    happen."""
    walked, walk = [], regularity.qd_rows_at

    def counting(*args):
        walked.append(walk(*args))
        return walked[-1]

    monkeypatch.setattr(regularity, "qd_rows_at", counting)
    return walked


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

    @pytest.mark.parametrize("name", ["cubic.prob", "penalty_demo.prob",
                                      "sin_system.prob", "verdicts-41",
                                      "verdicts-42", "verdicts-43"])
    def test_margin_infima_of_files_as_per_draw_loop(self, name,
                                                     load_perfbench,
                                                     monkeypatch):
        # the row walk takes every round of these systems, and its floats
        # have the bytes of the per-draw loop
        if name.startswith("verdicts"):
            load_perfbench("oracle")
            workload = load_perfbench("gen").verdicts(int(name[-2:]))
            files = [loads(op.text) for op in workload.ops + workload.warmup]
        else:
            files = [load(PROBLEMS / name)]
        walked = _count_row_walks(monkeypatch)
        count = 0
        for pf in files:
            if not (pf.equalities or pf.inequalities):
                continue
            s = pf.system()
            center = pf.point if pf.point is not None else np.zeros(s.n)
            _same_infima(margin_infima(s, center),
                         reference_margin_infima(s, center))
            count += 1
        assert count > 0 and len(walked) >= 4 * count
        assert all(w is not None for w in walked)

    @pytest.mark.parametrize("text, center", [
        ("max(x1, x1)", 0.0),
        ("max(x1, x1 + 0.0000000001)", 0.0),
        ("abs(x1 - p)", 0.5),
    ])
    def test_margin_infima_at_ties_as_per_draw_loop(self, text, center,
                                                    monkeypatch):
        # the first two tie at every draw, so each round takes the pair
        # walk per row; the third ties only where x1 = p
        s = SystemSpec(1, (parse_expression(text, 1),), params={"p": 0.5})
        walked = _count_row_walks(monkeypatch)
        for seed in range(3):
            _same_infima(margin_infima(s, [center], seed=seed),
                         reference_margin_infima(s, [center], seed=seed))
        assert walked
        declined = all(w is None for w in walked)
        assert declined == text.startswith("max")

    @pytest.mark.parametrize("text, center", [
        # exp overflows in the screen's evaluation of the first shell
        ("exp(10000*x1)", 0.0),
        # 1e308 x1^2 stays finite on the first shell; its gradient
        # 2e308 x1 overflows past x1 = 0.9, inside the row walk
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
    scan_pts, step = _scan_grid(center, scan_radius, budget)
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
                    dist = _refine_distance(s, xpts[i], accepted[j], y, z,
                                            step)
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

    def test_rows_near_no_target_are_dropped(self):
        # x1 on [-1, 1] against the five axis values of [-0.3, 0.3]: the
        # kept rows are those within eta of one of them, and a nan value
        # is near none
        pts, step = _scan_grid(np.zeros(1), 1.0, 1001)
        eta = 8.0 * step
        taxis = _axis(0.0, 0.3, 5)
        fv, gv = IDENTITY.values(pts)
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
