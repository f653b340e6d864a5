import itertools

import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal
from scipy.optimize import lsq_linear

from quasidiff.expressions import parse_expression
from quasidiff.geometry import (Polytope, minkowski_sum, scale, singleton,
                                solve_lp, LpStatus)
from quasidiff.mfcq import (BudgetExceededError, InfeasiblePointError,
                            _sign_pattern_dependence, active_inequalities,
                            find_hbar, full_rank_det_range, full_rank_general,
                            qd_mfcq)
from quasidiff.regularity import SystemSpec

UNIT_BOX = Polytope([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])


def sin_system(p):
    return SystemSpec(2, (parse_expression("max(2*x1, x1) - abs(sin(p*x2))", 2),
                          parse_expression("min(x2, 2*x2) + sin(p*(x1+x2))", 2)),
                      params={"p": p})


def rand_rows(rng, n, k):
    return [Polytope(rng.uniform(-1.0, 1.0, (k, n))) for _ in range(n)]


class TestActiveSet(TestCase):

    def test_boundary_and_slack(self):
        s = SystemSpec(2, (parse_expression("x1", 2),),
                       (parse_expression("x1", 2),
                        parse_expression("x1 - 1", 2)))
        got = active_inequalities(s, s.binding([0.0, 0.0]))
        assert_equal(got, [0])

    def test_value_exactly_at_tolerance_is_active(self):
        s = SystemSpec(1, (), (parse_expression("x1", 1),))
        got = active_inequalities(s, s.binding([1e-9]), tol=1e-9)
        assert_equal(got, [0])


class TestDetRange(TestCase):

    def test_sin_system_rows_at_p_one(self):
        # row sums of the worked two-equality system: range [1, 7]
        rows = [Polytope([[1.0, -1.0], [1.0, 1.0], [2.0, -1.0], [2.0, 1.0]]),
                Polytope([[1.0, 2.0], [1.0, 3.0]])]
        res = full_rank_det_range(rows)
        assert_allclose(res.min_det, 1.0, atol=1e-12)
        assert_allclose(res.max_det, 7.0, atol=1e-12)
        assert res.full_rank
        assert_equal(res.count, 8)

    def test_argmin_argmax_reproduce_extremes(self):
        rng = np.random.default_rng(0)
        rows = rand_rows(rng, 2, 4)
        res = full_rank_det_range(rows)
        dmin = np.linalg.det([rows[0].vertices[res.argmin[0]],
                              rows[1].vertices[res.argmin[1]]])
        dmax = np.linalg.det([rows[0].vertices[res.argmax[0]],
                              rows[1].vertices[res.argmax[1]]])
        assert_allclose(dmin, res.min_det, atol=1e-12)
        assert_allclose(dmax, res.max_det, atol=1e-12)

    def test_singleton_rows_are_a_point_range(self):
        rows = [singleton([2.0, 1.0]), singleton([0.0, 3.0])]
        res = full_rank_det_range(rows)
        assert_allclose(res.min_det, 6.0)
        assert_allclose(res.max_det, 6.0)
        assert res.full_rank

    def test_vertex_extremes_beat_random_sampling(self):
        # criterion: dense random selections never escape the vertex range
        rng = np.random.default_rng(1)
        for n in (2, 3):
            rows = rand_rows(rng, n, 4)
            res = full_rank_det_range(rows)
            mats = np.stack([
                r.vertices[rng.integers(0, r.nvertices, 10 ** 5)]
                for r in rows], axis=1)
            dets = np.linalg.det(mats)
            assert dets.min() >= res.min_det - 1e-9
            assert dets.max() <= res.max_det + 1e-9

    def test_interior_selections_stay_inside_too(self):
        # determinant is multilinear in the rows, so convex-combination
        # rows cannot widen the vertex range either
        rng = np.random.default_rng(2)
        rows = rand_rows(rng, 2, 3)
        res = full_rank_det_range(rows)
        for _ in range(2000):
            mat = [rng.dirichlet(np.ones(r.nvertices)) @ r.vertices
                   for r in rows]
            d = np.linalg.det(mat)
            assert res.min_det - 1e-9 <= d <= res.max_det + 1e-9

    def test_budget_guard(self):
        rows = [Polytope([[1.0, 0.0], [2.0, 0.0]]),
                Polytope([[0.0, 1.0], [0.0, 2.0]])]
        with pytest.raises(BudgetExceededError):
            full_rank_det_range(rows, budget=1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            full_rank_det_range([singleton([1.0, 0.0])])

    def test_one_pass_matches_running_best_across_chunks(self):
        # 61^3 = 226,981 tuples cross the 200,000-tuple chunk boundary; the
        # 81-vertex paraboloid grid has 12 ties at each extreme, on both
        # sides of it
        rng = np.random.default_rng(29)
        sphere = []
        for _ in range(3):
            raw = rng.standard_normal((61, 3))
            sphere.append(Polytope(raw / np.linalg.norm(raw, axis=1,
                                                        keepdims=True)))
        g = np.arange(-4.0, 5.0)
        grid = Polytope([(a, b, a * a + b * b) for a in g for b in g])
        for rows, m in ((sphere, 61), ([grid] * 3, 81)):
            assert all(r.nvertices == m for r in rows)
            res = full_rank_det_range(rows)
            lo, hi, argmin, argmax, count = running_best_det_range(rows)
            assert np.float64(res.min_det).tobytes() == \
                np.float64(lo).tobytes()
            assert np.float64(res.max_det).tobytes() == \
                np.float64(hi).tobytes()
            assert_equal((res.argmin, res.argmax, res.count),
                         (argmin, argmax, count))
            assert count > 200_000


def running_best_det_range(rows, chunk=200_000):
    """(min, max, argmin, argmax, count) by the loop that kept a running
    best per chunk, with strict comparisons, over meshgrid tuples."""
    l = len(rows)
    grids = np.meshgrid(*[np.arange(r.nvertices) for r in rows],
                        indexing="ij")
    combos = np.stack([g.reshape(-1) for g in grids], axis=1)
    best_min, best_max = np.inf, -np.inf
    argmin = argmax = (0,) * l
    for start in range(0, len(combos), chunk):
        idx = combos[start:start + chunk]
        mats = np.stack([rows[j].vertices[idx[:, j]] for j in range(l)],
                        axis=1)
        dets = np.linalg.det(mats)
        i_min, i_max = int(np.argmin(dets)), int(np.argmax(dets))
        if dets[i_min] < best_min:
            best_min = float(dets[i_min])
            argmin = tuple(int(v) for v in idx[i_min])
        if dets[i_max] > best_max:
            best_max = float(dets[i_max])
            argmax = tuple(int(v) for v in idx[i_max])
    return best_min, best_max, argmin, argmax, len(combos)


class TestFullRankDispatch(TestCase):

    def test_no_equalities_vacuous(self):
        res = full_rank_general([], 2)
        assert res.full_rank and res.method == "no equalities"

    def test_more_sets_than_dimensions(self):
        res = full_rank_general([singleton([1.0, 0.0]),
                                 singleton([0.0, 1.0]),
                                 singleton([1.0, 1.0])], 2)
        assert not res.full_rank
        assert res.method == "counting"

    def test_single_set_membership(self):
        # the unit box contains the origin: dependence
        res = full_rank_general([UNIT_BOX], 2)
        assert not res.full_rank
        assert res.method == "sign-pattern hull test"
        off = full_rank_general([Polytope([[1.0, 0.0], [2.0, 0.0]])], 2)
        assert off.full_rank

    def test_square_case_delegates_to_det_range(self):
        rows = [Polytope([[1.0, 0.0], [2.0, 0.0]]),
                Polytope([[0.0, 1.0], [0.0, 2.0]])]
        res = full_rank_general(rows, 2)
        assert res.full_rank and res.method == "determinant range"
        assert_allclose(res.det_range.min_det, 1.0)
        assert_allclose(res.det_range.max_det, 4.0)

    def test_lambda_grid_finds_dependence(self):
        res = full_rank_general([singleton([1.0, 0.0, 0.0]),
                                 singleton([-1.0, 0.0, 0.0])], 3)
        assert not res.full_rank
        assert res.method == "sign-pattern hull test"
        lam = np.array(res.failing_lambda)
        assert_allclose(np.linalg.norm(lam), 1.0, atol=1e-9)
        assert_allclose(lam[0] * np.array([1.0, 0, 0])
                        + lam[1] * np.array([-1.0, 0, 0]), 0.0, atol=1e-9)

    def test_lambda_grid_certifies_independence(self):
        res = full_rank_general([singleton([1.0, 0.0, 0.0]),
                                 singleton([0.0, 1.0, 0.0])], 3)
        assert res.full_rank
        assert "outside every signed hull" in res.certificate


class TestSignPatternHullTest(TestCase):

    def test_dependent_segments_missed_by_a_direction_grid(self):
        # both sums are segments and lam_1 a_1 + lam_2 a_2 = 0 is solvable
        # only for lam along (1, -3), which sampled lambda directions miss
        s = SystemSpec(3, (
            parse_expression("-10.11*x1 - 1.74*x2 + 1.35*x3"
                             " - 0.9*abs(1.7*x1 + 1.7*x2 + 0.3*x3)", 3),
            parse_expression("-1.5*x1 + 0.1*x2 + 1.9*x3"
                             " - 1.7*abs(1.6*x1 + 0.2*x2 + 1.6*x3)", 3)))
        rep = qd_mfcq(s, np.zeros(3))
        assert not rep.rank.full_rank
        assert not rep.verdict
        lam = np.array(rep.rank.failing_lambda)
        assert_allclose(np.linalg.norm(lam), 1.0, atol=1e-12)
        assert_allclose(lam, np.array([1.0, -3.0]) / np.sqrt(10.0), atol=1e-9)
        # a_j = v_j0 + t_j (v_j1 - v_j0) with t in [0, 1], solved
        # independently by bounded least squares
        ends = [p.vertices for p in rep.eq_plus]
        assert_equal([len(v) for v in ends], [2, 2])
        a = np.stack([lj * (v[1] - v[0]) for lj, v in zip(lam, ends)], axis=1)
        c = sum(lj * v[0] for lj, v in zip(lam, ends))
        fit = lsq_linear(a, -c, bounds=(0.0, 1.0), method="bvls")
        assert np.linalg.norm(a @ fit.x + c) <= 1e-9

    def test_agrees_with_det_range_on_square_cases(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 4))
            rows = [Polytope(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 5)), n))
                             + rng.uniform(0.0, 3.0) * np.eye(n)[j])
                    for j in range(n)]
            dr = full_rank_det_range(rows)
            if min(abs(dr.min_det), abs(dr.max_det)) < 1e-6:
                continue
            lam, _ = _sign_pattern_dependence(rows)
            assert (lam is None) == dr.full_rank
            seen.add(dr.full_rank)
        assert_equal(seen, {True, False})

    def test_cut_is_relative_to_the_largest_vertex(self):
        # find_hbar's SVD cuts at FEAS_TOL * max s; the hull test must not
        # call 1e-10 * x1 dependent next to an equality span rank of 1
        s = SystemSpec(2, (parse_expression("0.0000000001*x1", 2),),
                       (parse_expression("x2", 2),))
        rep = qd_mfcq(s, np.zeros(2))
        assert rep.rank.full_rank and rep.verdict
        assert_equal(rep.direction.eq_span_rank, 1)
        e1, e2 = singleton([1.0, 0.0, 0.0]), singleton([0.0, 1.0, 0.0])
        for rows, independent in (([e1, e2], True),
                                  ([e1, scale(e1, -1.0)], False),
                                  ([UNIT_BOX], False)):
            for t in (1.0, 1e-10):
                res = full_rank_general([scale(r, t) for r in rows],
                                        rows[0].dim)
                assert_equal(res.full_rank, independent)
        assert not full_rank_general([singleton([0.0, 0.0, 0.0])], 3).full_rank

    def test_budget_caps_the_pattern_count(self):
        rows = [singleton([1.0, 0.0, 0.0]), singleton([0.0, 1.0, 0.0])]
        with pytest.raises(BudgetExceededError):
            full_rank_general(rows, 3, budget=1)
        assert full_rank_general(rows, 3, budget=2).full_rank


class TestFindHbar(TestCase):

    def test_separating_from_single_point(self):
        res = find_hbar([], [singleton([1.0, 0.0])], 2)
        assert_allclose(res.hbar, [-1.0, 0.0], atol=1e-9)
        assert_allclose(res.margin, 1.0, atol=1e-9)

    def test_full_space_span_fails(self):
        # equality sum vertices spanning the plane leave no room for a
        # direction once an active inequality must be pushed negative
        res = find_hbar([Polytope([[-1.0, -1.0], [1.0, -1.0]])],
                        [singleton([1.0, 0.0])], 2)
        assert_equal(res.complement_dim, 0)
        assert res.margin == -np.inf
        assert res.hbar is None

    def test_rank_and_complement_come_from_one_svd(self):
        # a gradient of norm 1e-10 is under the absolute FEAS_TOL, but the
        # SVD's cut is relative to the set, so it spans a line; the printed
        # rank comes from the same SVD as the complement
        res = find_hbar([singleton([1e-10, 0.0])], [singleton([0.0, 1.0])], 2)
        assert_equal((res.eq_span_rank, res.complement_dim), (1, 1))
        s = SystemSpec(2, (parse_expression("0.0000000001*x1", 2),),
                       (parse_expression("x2", 2),))
        rep = qd_mfcq(s, [0.0, 0.0])
        assert_equal((rep.direction.eq_span_rank,
                      rep.direction.complement_dim), (1, 1))
        rng = np.random.default_rng(17)
        for _ in range(20):
            eq = [Polytope(rng.uniform(-1, 1, (int(rng.integers(1, 3)), 3)))
                  for _ in range(int(rng.integers(0, 3)))]
            res = find_hbar(eq, [singleton([0.0, 0.0, 1.0])], 3)
            assert_equal(res.eq_span_rank + res.complement_dim, 3)

    def test_no_inequalities_is_vacuous(self):
        res = find_hbar([singleton([1.0, 0.0])], [], 2)
        assert res.margin == np.inf
        assert res.hbar is not None
        assert_allclose(res.hbar @ np.array([1.0, 0.0]), 0.0, atol=1e-9)

    def test_reported_direction_satisfies_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            eq = [Polytope(rng.uniform(-1, 1, (2, 3)))]
            ineq = [Polytope(rng.uniform(-1, 1, (3, 3))) for _ in range(2)]
            res = find_hbar(eq, ineq, 3)
            if res.hbar is None:
                continue
            for v in eq[0].vertices:
                assert abs(v @ res.hbar) <= 1e-9
            if np.isfinite(res.margin):
                for p in ineq:
                    for v in p.vertices:
                        assert v @ res.hbar <= -res.margin + 1e-9


class TestQdMfcq(TestCase):

    def test_sin_system_inside_the_interval(self):
        rep = qd_mfcq(sin_system(1.0), np.zeros(2))
        assert rep.verdict
        assert rep.rank.method == "determinant range"
        assert_allclose(rep.rank.det_range.min_det, 1.0, atol=1e-12)
        assert_allclose(rep.rank.det_range.max_det, 7.0, atol=1e-12)

    def test_sin_system_outside_the_interval(self):
        # beyond either endpoint the determinant range reaches zero
        for p in (-0.7, 1.7):
            rep = qd_mfcq(sin_system(p), np.zeros(2))
            assert not rep.verdict
            dr = rep.rank.det_range
            assert dr.min_det <= 0.0 <= dr.max_det

    def test_single_equality_box_fails(self):
        s = SystemSpec(2, (parse_expression("abs(x1) - abs(x2)", 2),))
        rep = qd_mfcq(s, np.zeros(2))
        assert not rep.verdict
        assert not rep.rank.full_rank
        assert rep.eq_plus[0] == UNIT_BOX

    def test_infeasible_point_rejected_with_residuals(self):
        with pytest.raises(InfeasiblePointError) as err:
            qd_mfcq(sin_system(1.0), np.array([1.0, 1.0]))
        assert err.value.residuals
        assert max(err.value.residuals.values()) > 0.1

    def test_smooth_linear_fixture(self):
        s = SystemSpec(2, (parse_expression("x1", 2),),
                       (parse_expression("x2", 2),))
        rep = qd_mfcq(s, np.zeros(2))
        assert rep.verdict
        assert_allclose(rep.direction.hbar, [0.0, -1.0], atol=1e-9)
        assert_allclose(rep.direction.margin, 1.0, atol=1e-9)

    def test_verdict_shape(self):
        rep = qd_mfcq(sin_system(1.0), np.zeros(2))
        assert rep.verdict == (rep.rank.full_rank
                               and rep.direction.margin > 0)

    def test_smooth_matches_classical_mfcq(self):
        # all-singleton quasidifferentials: the verdict must agree with
        # the Jacobian-based criterion solved independently by LP
        rng = np.random.default_rng(4)
        agree = 0
        for trial in range(20):
            n, l, m = 3, int(rng.integers(1, 3)), int(rng.integers(0, 3))
            A = np.round(rng.uniform(-2, 2, (l, n)), 1)
            B = np.round(rng.uniform(-2, 2, (m, n)), 1)
            eqs = tuple(_linear_expr(a, n) for a in A)
            ineqs = tuple(_linear_expr(b, n) for b in B)
            s = SystemSpec(n, eqs, ineqs)
            rep = qd_mfcq(s, np.zeros(n))
            want = _classical_mfcq(A, B)
            assert rep.verdict == want
            agree += 1
        assert_equal(agree, 20)


def _linear_expr(coeffs, n):
    terms = [f"{c}*x{i + 1}" for i, c in enumerate(coeffs)]
    return parse_expression(" + ".join(terms), n)


def _classical_mfcq(A, B):
    """Independent oracle: rank(A) full and a strict descent direction."""
    l, n = A.shape
    if np.linalg.matrix_rank(A, tol=1e-9) < l:
        return False
    if B.shape[0] == 0:
        return True
    # max t  s.t.  A h = 0,  B h <= -t,  |h| <= 1
    m = B.shape[0]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack([B, np.ones((m, 1))])
    a_eq = np.hstack([A, np.zeros((l, 1))])
    out = solve_lp(c, a_ub=a_ub, b_ub=np.zeros(m),
                   a_eq=a_eq, b_eq=np.zeros(l),
                   bounds=[(-1.0, 1.0)] * n + [(None, None)],
                   maximize=True)
    return out.status == LpStatus.FEASIBLE and out.point[-1] > 1e-9


class TestShiftMonotonicity(TestCase):

    def test_enlarged_rows_widen_the_det_range(self):
        # [sub+C, sup-C] only grows the sums: true can flip to false,
        # never the reverse
        rng = np.random.default_rng(5)
        for _ in range(10):
            rows = rand_rows(rng, 2, 3)
            base = full_rank_det_range(rows)
            c = Polytope(rng.uniform(-0.5, 0.5, (3, 2)))
            blown = minkowski_sum(c, scale(c, -1.0))
            grown = [minkowski_sum(r, blown) for r in rows]
            res = full_rank_det_range(grown)
            assert res.min_det <= base.min_det + 1e-9
            assert res.max_det >= base.max_det - 1e-9
            if not base.full_rank:
                assert not res.full_rank

    def test_enlarged_inequality_sums_shrink_the_margin(self):
        rng = np.random.default_rng(6)
        eq = [singleton([1.0, 0.0, 0.0])]
        ineq = [Polytope(rng.uniform(-1, 1, (3, 3)) + [0.0, 2.0, 0.0])]
        base = find_hbar(eq, ineq, 3)
        c = Polytope(rng.uniform(-0.3, 0.3, (3, 3)))
        blown = minkowski_sum(c, scale(c, -1.0))
        grown = [minkowski_sum(p, blown) for p in ineq]
        res = find_hbar(eq, grown, 3)
        assert res.margin <= base.margin + 1e-9
