import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal

from quasidiff.calculus import (Quasidifferential, absorb_singleton_sub,
                                absorb_singleton_sup, dd, matrix_qd_plus,
                                qd_abs, qd_add, qd_max, qd_min, qd_mul,
                                qd_plus_set, qd_scale, qd_smooth, qd_zero,
                                steepest_rate)
from quasidiff.geometry import (FEAS_TOL, Polytope, convex_hull_union,
                                minkowski_sum, scale, singleton, support,
                                zero_polytope)

# the Euclidean-norm pair of f = |x1| - |x2| at the origin
ABS_DIFF = Quasidifferential(Polytope([[-1.0, 0.0], [1.0, 0.0]]),
                             Polytope([[0.0, -1.0], [0.0, 1.0]]))


def abs_diff_fn(x):
    return abs(x[0]) - abs(x[1])


def fd(fn, x, h, alpha=1e-7):
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    return (fn(x + alpha * h) - fn(x)) / alpha


def rand_qd(rng, dim, k=3):
    return Quasidifferential(Polytope(rng.uniform(-1.0, 1.0, (k, dim))),
                             Polytope(rng.uniform(-1.0, 1.0, (k, dim))))


def polygon_distance(verts, queries):
    """Distance from each query row to conv(verts) in R^2, in closed form
    and without Wolfe: 0 inside, else the least distance to an edge of the
    vertices in counter-clockwise order (a point or a segment has its
    edges only)."""
    rel = verts - verts.mean(axis=0)
    ring = verts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
    edge = np.roll(ring, -1, axis=0) - ring
    off = queries[:, None, :] - ring[None, :, :]
    len2 = np.einsum("ed,ed->e", edge, edge)
    t = np.divide(np.einsum("ned,ed->ne", off, edge), len2,
                  out=np.zeros(off.shape[:2]), where=len2 > 0.0)
    dist = np.linalg.norm(off - np.clip(t, 0.0, 1.0)[:, :, None] * edge,
                          axis=2).min(axis=1)
    if len(verts) > 2:
        cross = edge[:, 0] * off[:, :, 1] - edge[:, 1] * off[:, :, 0]
        dist[(cross >= 0.0).all(axis=1)] = 0.0
    return dist


def shifted(q, c):
    """Equivalent representative [sub + C, sup + (-C)]."""
    return Quasidifferential(minkowski_sum(q.sub, c),
                             minkowski_sum(q.sup, scale(c, -1.0)))


class TestDirectionalDerivative(TestCase):

    def test_smooth_leaf_is_linear(self):
        rng = np.random.default_rng(0)
        g = np.array([0.3, -1.2])
        q = qd_smooth(g)
        for h in rng.standard_normal((20, 2)):
            assert_allclose(dd(q, h), g @ h, atol=1e-12)

    def test_abs_difference_closed_form(self):
        # f'(0; h) = |h1| - |h2|
        assert_allclose(dd(ABS_DIFF, [1.0, 0.0]), 1.0)
        assert_allclose(dd(ABS_DIFF, [0.0, 1.0]), -1.0)
        assert_allclose(dd(ABS_DIFF, [1.0, -1.0]), 0.0)
        assert_allclose(dd(ABS_DIFF, [1.0, -1.0]),
                        fd(abs_diff_fn, [0.0, 0.0], [1.0, -1.0]), atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = Polytope(rng.uniform(-1.0, 1.0, (3, 2)))
            q2 = shifted(ABS_DIFF, c)
            for h in rng.standard_normal((4, 2)):
                assert_allclose(dd(q2, h), dd(ABS_DIFF, h), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Quasidifferential(zero_polytope(1), zero_polytope(2))


class TestAddScale(TestCase):

    def test_add_is_dd_additive(self):
        rng = np.random.default_rng(2)
        a, b = rand_qd(rng, 2), rand_qd(rng, 2)
        s = qd_add(a, b)
        for h in rng.standard_normal((100, 2)):
            assert_allclose(dd(s, h), dd(a, h) + dd(b, h), atol=1e-10)

    def test_scale_negative_swaps_roles(self):
        q = qd_scale(ABS_DIFF, -1.0)
        assert q.sub == scale(ABS_DIFF.sup, -1.0)
        assert q.sup == scale(ABS_DIFF.sub, -1.0)

    def test_scale_is_involution(self):
        rng = np.random.default_rng(3)
        q = rand_qd(rng, 2)
        back = qd_scale(qd_scale(q, -1.0), -1.0)
        assert back.sub == q.sub and back.sup == q.sup

    def test_scale_matches_dd_of_scaled_function(self):
        # (t f)'(x; h) = t f'(x; h) for every real t, kinks included
        rng = np.random.default_rng(4)
        for t in (-2.5, -1.0, -0.3, 0.0, 0.7, 3.0):
            qt = qd_scale(ABS_DIFF, t)
            for h in rng.standard_normal((100, 2)):
                assert_allclose(dd(qt, h), t * dd(ABS_DIFF, h), atol=1e-10)
                assert_allclose(
                    dd(qt, h),
                    fd(lambda x: t * abs_diff_fn(x), [0.0, 0.0], h),
                    atol=1e-5)


class TestProduct(TestCase):

    def test_multiply_by_constant_one(self):
        one = qd_zero(2)
        out = qd_mul(ABS_DIFF, one, 0.0, 1.0)
        assert out.sub == ABS_DIFF.sub and out.sup == ABS_DIFF.sup

    def test_dd_bilinearity(self):
        rng = np.random.default_rng(5)
        a, b = rand_qd(rng, 2), rand_qd(rng, 2)
        fa, fb = 0.7, -1.3
        prod = qd_mul(a, b, fa, fb)
        for h in rng.standard_normal((50, 2)):
            assert_allclose(dd(prod, h), fa * dd(b, h) + fb * dd(a, h),
                            atol=1e-10)

    def test_smooth_product_rule(self):
        # d(x1 * x2) at (2, 3) = (3, 2)
        x = np.array([2.0, 3.0])
        prod = qd_mul(qd_smooth([1.0, 0.0]), qd_smooth([0.0, 1.0]),
                      x[0], x[1])
        for h in np.eye(2):
            assert_allclose(dd(prod, h),
                            fd(lambda p: p[0] * p[1], x, h), atol=1e-6)


class TestMaxMin(TestCase):

    def test_single_active_passthrough(self):
        rng = np.random.default_rng(6)
        q1, q2 = rand_qd(rng, 2), rand_qd(rng, 2)
        out = qd_max([(1.0, q1), (0.0, q2)])
        assert out.sub == q1.sub and out.sup == q1.sup

    def test_tie_within_tolerance_is_active(self):
        q1 = qd_smooth([1.0])
        q2 = qd_smooth([-1.0])
        out = qd_max([(0.5, q1), (0.5 + 0.5 * FEAS_TOL, q2)])
        # both branches active: max{x, -x} shape, sub spans both slopes
        assert_allclose(dd(out, [1.0]), 1.0, atol=1e-9)
        assert_allclose(dd(out, [-1.0]), 1.0, atol=1e-9)

    def test_two_line_max_fixture(self):
        # max{2 x1, x1} at the origin
        out = qd_max([(0.0, qd_smooth([2.0, 0.0])),
                      (0.0, qd_smooth([1.0, 0.0]))])
        assert out.sub == Polytope([[1.0, 0.0], [2.0, 0.0]])
        assert out.sup == zero_polytope(2)

    def test_max_dd_is_active_max(self):
        rng = np.random.default_rng(7)
        items = [(1.0, rand_qd(rng, 2)), (1.0, rand_qd(rng, 2)),
                 (0.2, rand_qd(rng, 2))]
        out = qd_max(items)
        for h in rng.standard_normal((100, 2)):
            want = max(dd(q, h) for v, q in items if v >= 1.0 - FEAS_TOL)
            assert_allclose(dd(out, h), want, atol=1e-9)

    def test_min_dd_is_active_min(self):
        rng = np.random.default_rng(8)
        items = [(0.0, rand_qd(rng, 2)), (0.0, rand_qd(rng, 2)),
                 (0.5, rand_qd(rng, 2))]
        out = qd_min(items)
        for h in rng.standard_normal((100, 2)):
            want = min(dd(q, h) for v, q in items if v <= FEAS_TOL)
            assert_allclose(dd(out, h), want, atol=1e-9)

    def test_min_equals_direct_dual_formula(self):
        """The -max(-.) implementation must reproduce, set for set, the
        direct rule: sub = sum of active subs, sup = hull over k of
        (sup_k + sum of the other subs negated)."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            items = [(0.0, rand_qd(rng, 2, k=int(rng.integers(1, 4))))
                     for _ in range(int(rng.integers(2, 4)))]
            out = qd_min(items)
            active = [q for _, q in items]
            sub = active[0].sub
            for q in active[1:]:
                sub = minkowski_sum(sub, q.sub)
            parts = []
            for k in range(len(active)):
                acc = active[k].sup
                for i, q in enumerate(active):
                    if i != k:
                        acc = minkowski_sum(acc, scale(q.sub, -1.0))
                parts.append(acc)
            sup = convex_hull_union(parts)
            assert_allclose(out.sub.vertices, sub.vertices, rtol=0,
                            atol=1e-9)
            assert_allclose(out.sup.vertices, sup.vertices, rtol=0,
                            atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qd_max([])


class TestAbs(TestCase):

    def test_abs_at_kink_raw_pair(self):
        # |x| at 0 from the smooth leaf x: the max-rule pair, not the
        # folded co{-1, 1} form
        out = qd_abs(qd_smooth([1.0]), 0.0)
        assert out.sub == Polytope([[0.0], [2.0]])
        assert out.sup == Polytope([[-1.0]])
        assert_allclose(dd(out, [1.0]), 1.0)
        assert_allclose(dd(out, [-1.0]), 1.0)

    def test_folded_form_is_dd_equivalent(self):
        out = absorb_singleton_sup(qd_abs(qd_smooth([1.0]), 0.0))
        assert out.sub == Polytope([[-1.0], [1.0]])
        assert out.sup == zero_polytope(1)
        assert_allclose(dd(out, [1.0]), 1.0)
        assert_allclose(dd(out, [-1.0]), 1.0)

    def test_positive_branch_passthrough(self):
        rng = np.random.default_rng(10)
        q = rand_qd(rng, 2)
        out = qd_abs(q, 0.8)
        assert out.sub == q.sub and out.sup == q.sup

    def test_negative_branch_is_swap(self):
        rng = np.random.default_rng(11)
        q = rand_qd(rng, 2)
        out = qd_abs(q, -0.8)
        flipped = qd_scale(q, -1.0)
        assert out.sub == flipped.sub and out.sup == flipped.sup


class TestPlusSet(TestCase):

    def test_interval_pair(self):
        q = Quasidifferential(Polytope([[-1.0], [1.0]]), zero_polytope(1))
        assert qd_plus_set(q) == Polytope([[-1.0], [1.0]])

    def test_abs_difference_gives_unit_box(self):
        box = qd_plus_set(ABS_DIFF)
        assert box == Polytope([[-1.0, -1.0], [-1.0, 1.0],
                                [1.0, -1.0], [1.0, 1.0]])

    def test_zero_sup_returns_sub(self):
        rng = np.random.default_rng(12)
        q = Quasidifferential(rand_qd(rng, 2).sub, zero_polytope(2))
        assert qd_plus_set(q) == q.sub

    def test_sums_grow_under_shifts(self):
        # the documented non-invariance: [sub+C, sup-C] has a bigger sum
        rng = np.random.default_rng(13)
        q = rand_qd(rng, 2)
        base = qd_plus_set(q)
        for _ in range(10):
            c = Polytope(rng.uniform(-1.0, 1.0, (3, 2)))
            grown = qd_plus_set(shifted(q, c))
            for h in rng.standard_normal((20, 2)):
                assert support(grown, h) >= support(base, h) - 1e-9


class TestSteepestRate(TestCase):

    def test_cubic_fixture(self):
        for x in (0.2, 0.5, 0.9):
            q = Quasidifferential(singleton([-3.0 * x ** 2]),
                                  zero_polytope(1))
            rate, _ = steepest_rate(q)
            assert_allclose(rate, 3.0 * x ** 2, atol=1e-12)

    def test_stationary_pair_rate_zero(self):
        # -sup contained in sub forces rate 0
        q = Quasidifferential(Polytope([[-1.0, -1.0], [1.0, -1.0],
                                        [-1.0, 1.0], [1.0, 1.0]]),
                              Polytope([[-0.5, 0.0], [0.5, 0.0]]))
        rate, _ = steepest_rate(q)
        assert_allclose(rate, 0.0, atol=1e-12)

    def test_nonnegative_and_witness_is_vertex(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            q = rand_qd(rng, 2)
            rate, w = steepest_rate(q)
            assert rate >= 0.0
            assert any(np.allclose(w, v) for v in q.sup.vertices)

    def test_vertex_max_matches_dense_sampling(self):
        # rate is convex in w, so sampling sup densely cannot beat the
        # vertex maximum and must reach it at the vertices themselves
        rng = np.random.default_rng(15)
        for _ in range(20):
            q = rand_qd(rng, 2, k=int(rng.integers(2, 5)))
            rate, _ = steepest_rate(q)
            weights = rng.dirichlet(np.ones(q.sup.nvertices), size=10 ** 4)
            pts = np.vstack([q.sup.vertices, weights @ q.sup.vertices])
            sampled = polygon_distance(q.sub.vertices, -pts).max()
            assert_allclose(rate, sampled, atol=1e-6)


class TestMatrixRows(TestCase):

    def test_row_sums_match_brute_force(self):
        rng = np.random.default_rng(17)
        rows = tuple(rand_qd(rng, 2) for _ in range(2))
        sums = matrix_qd_plus(rows)
        for q, got in zip(rows, sums):
            pairwise = np.array([v + w for v in q.sub.vertices
                                 for w in q.sup.vertices])
            assert got == Polytope(pairwise)

    def test_sin_system_rows_at_p_one(self):
        # row 1 spans {(t, s) : t in [1,2], s in [-1,1]},
        # row 2 the segment {(1, 1 + r) : r in [1,2]}
        row1 = Quasidifferential(Polytope([[1.0, 0.0], [2.0, 0.0]]),
                                 Polytope([[0.0, -1.0], [0.0, 1.0]]))
        row2 = Quasidifferential(singleton([1.0, 1.0]),
                                 Polytope([[0.0, 1.0], [0.0, 2.0]]))
        sums = matrix_qd_plus((row1, row2))
        assert sums[0] == Polytope([[1.0, -1.0], [1.0, 1.0],
                                    [2.0, -1.0], [2.0, 1.0]])
        assert sums[1] == Polytope([[1.0, 2.0], [1.0, 3.0]])


class TestSingletonShifts(TestCase):

    def test_absorb_sup_preserves_dd(self):
        rng = np.random.default_rng(18)
        q = Quasidifferential(Polytope(rng.uniform(-1, 1, (3, 2))),
                              singleton(rng.uniform(-1, 1, 2)))
        folded = absorb_singleton_sup(q)
        assert folded.sup == zero_polytope(2)
        for h in rng.standard_normal((30, 2)):
            assert_allclose(dd(folded, h), dd(q, h), atol=1e-10)

    def test_absorb_sub_preserves_dd(self):
        rng = np.random.default_rng(19)
        q = Quasidifferential(singleton(rng.uniform(-1, 1, 2)),
                              Polytope(rng.uniform(-1, 1, (3, 2))))
        folded = absorb_singleton_sub(q)
        assert folded.sub == zero_polytope(2)
        for h in rng.standard_normal((30, 2)):
            assert_allclose(dd(folded, h), dd(q, h), atol=1e-10)

    def test_absorb_noop_on_wide_sets(self):
        rng = np.random.default_rng(20)
        q = rand_qd(rng, 2)
        assert absorb_singleton_sup(q) is q
        assert absorb_singleton_sub(q) is q
