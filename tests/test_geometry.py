from pathlib import Path

import numpy as np
import pytest
from numpy.testing import (TestCase, assert_allclose,
                           assert_array_almost_equal, assert_equal)

from quasidiff import cli, geometry
from quasidiff.calculus import qd_plus_set
from quasidiff.expressions import Binding, qd_at
from quasidiff.geometry import (CERT_GAP, DEDUP_TOL, FEAS_TOL, GeometryError,
                                LpStatus, Polytope, _canonical,
                                _certified_extreme, _dedup, _min_norm_point,
                                complement_basis,
                                contains, convex_hull_union, minkowski_sum,
                                nearest_point, scale, singleton, solve_lp,
                                span_basis, support, zero_polytope)
from quasidiff.problemfile import load

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def gift_wrap_2d(points):
    """Independent 2-D convex hull: Jarvis march on exact comparisons."""
    pts = np.unique(np.round(np.asarray(points, dtype=float), 12), axis=0)
    if len(pts) == 1:
        return pts
    start = min(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % len(pts)
        for j in range(len(pts)):
            if j == cur:
                continue
            u, v = pts[cand] - pts[cur], pts[j] - pts[cur]
            cross = u[0] * v[1] - u[1] * v[0]
            d_cand = np.linalg.norm(u)
            d_j = np.linalg.norm(v)
            if cross < -1e-12 or (abs(cross) <= 1e-12 and d_j > d_cand):
                cand = j
        if cand == start:
            break
        hull.append(cand)
    return pts[hull]


def sample_hull(rng, poly, n):
    """Hull points: the vertices, dense edge combinations, interior mix.

    In 2-D both the support maximum (a vertex) and the projection of an
    outside query (an edge point) live on this set, so the sample is an
    oracle for those quantities at edge resolution.
    """
    verts = poly.vertices
    k = len(verts)
    w = rng.dirichlet(np.ones(k), size=n // 2)
    interior = w @ verts
    i = rng.integers(0, k, size=n // 2)
    j = rng.integers(0, k, size=n // 2)
    lam = rng.uniform(0.0, 1.0, size=(n // 2, 1))
    edges = lam * verts[i] + (1.0 - lam) * verts[j]
    return np.vstack([verts, interior, edges])


def rand_poly(rng, dim, k):
    return Polytope(rng.uniform(-1.0, 1.0, (k, dim)))


def reference_dedup(pts, tol):
    """The O(m^2) greedy dedup the windowed one must reproduce."""
    order = np.lexsort(pts.T[::-1])
    p = pts[order]
    kept = []
    for row in p:
        if all(np.max(np.abs(row - k)) > tol for k in kept):
            kept.append(row)
    return np.array(kept)


def reference_canonical(points):
    """Canonical vertices in dim >= 3 without the certified pre-pass:
    greedy dedup, then one Wolfe solve per point against the rest kept."""
    pts = np.atleast_2d(np.asarray(points, dtype=float)) + 0.0
    assert pts.shape[1] >= 3
    pts = reference_dedup(pts, DEDUP_TOL)
    if pts.shape[0] > 2:
        kept = list(pts)
        i = 0
        while i < len(kept) and len(kept) > 1:
            others = np.array(kept[:i] + kept[i + 1:])
            x = _min_norm_point(others - kept[i])
            if float(np.linalg.norm(x)) <= FEAS_TOL:
                kept.pop(i)
            else:
                i += 1
        pts = np.array(kept)
    order = np.lexsort(pts.T[::-1])
    return np.ascontiguousarray(pts[order])


def assert_fixed_point(v):
    """v is canonical: _canonical gives v back, and gives -v as the
    re-sorted negation, byte for byte.  minkowski_sum with {0} and scale
    by +-1 return these arrays without canonicalising again."""
    got = _canonical(v)
    assert (got.shape, got.tobytes()) == (v.shape, v.tobytes())
    flipped = -v + 0.0
    flipped = flipped[np.lexsort(flipped.T[::-1])]
    got = _canonical(-v)
    assert (got.shape, got.tobytes()) == (flipped.shape, flipped.tobytes())


SMALL_POLYGONS = [
    1e-6 * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]),
    1e-5 * np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]),
]


class TestCanonicalForm(TestCase):

    def test_hull_matches_gift_wrapping(self):
        # canonical vertices of 50 random clouds vs an independent hull
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = rng.uniform(-1.0, 1.0, (rng.integers(3, 12), 2))
            poly = Polytope(pts)
            oracle = gift_wrap_2d(pts)
            assert_equal(poly.nvertices, len(oracle))
            got = sorted(map(tuple, np.round(poly.vertices, 9)))
            want = sorted(map(tuple, np.round(oracle, 9)))
            assert_allclose(got, want, atol=1e-9)

    def test_interior_points_dropped(self):
        poly = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
        assert_equal(poly.nvertices, 3)

    def test_duplicates_merged(self):
        poly = Polytope([[1.0], [1.0 + 1e-14], [-1.0]])
        assert_equal(poly.nvertices, 2)

    def test_small_polygons_keep_their_corners(self):
        # the 2-D hull's cut is absolute below unit size; the lift by a
        # power of two makes it relative without changing a bit
        for pts in SMALL_POLYGONS:
            got = Polytope(pts).vertices
            assert_equal(got.shape, pts.shape)
            assert_fixed_point(got)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7], [0.2, 0.2]])
        want = Polytope(tri).vertices
        for k in (2, 20, 30):
            got = Polytope(2.0 ** -k * tri).vertices
            assert got.tobytes() == (2.0 ** -k * want).tobytes()

    def test_vertices_lex_sorted(self):
        poly = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        order = sorted(map(tuple, poly.vertices))
        assert_equal([tuple(v) for v in poly.vertices], order)

    def test_zero_dimension_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.zeros((1, 0)))

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Polytope(np.zeros((0, 2)))


class TestCanonicalMatchesReference(TestCase):
    """The windowed dedup and the certified pre-pass change no byte."""

    def setUp(self):
        self.certified = 0

    def check(self, points, got=None):
        """got (default: Polytope(points).vertices) equals the reference
        on points byte for byte; every certified point is an output row
        and lies more than the certificate's gap from the other points'
        hull."""
        points = np.asarray(points, dtype=float)
        if got is None:
            got = Polytope(points).vertices
        want = reference_canonical(points)
        assert_equal(got.shape, want.shape)
        assert got.tobytes() == want.tobytes()
        pts = _dedup(points + 0.0, DEDUP_TOL)
        if pts.shape[0] > 2:
            cert = _certified_extreme(pts)
            rows = {r.tobytes() for r in got}
            assert all(r.tobytes() in rows for r in pts[cert])
            gap = CERT_GAP * max(1.0, float(np.abs(pts).max()))
            for j in np.flatnonzero(cert):
                x = _min_norm_point(np.delete(pts, j, axis=0) - pts[j])
                assert np.linalg.norm(x) > gap
            self.certified += int(cert.sum())
        assert_fixed_point(got)
        return got

    def segment_sums(self, rng, dim, basis=None):
        """Minkowski sums of 4-10 random segments, checked at every step;
        with a basis, the segments lie in its row span."""
        segs = []
        for _ in range(rng.integers(4, 11)):
            ends = np.round(rng.uniform(-2.0, 2.0, (2, dim if basis is None
                                                    else basis.shape[0])), 2)
            segs.append(ends if basis is None else ends @ basis)
        acc = segs[0]
        for seg in segs[1:]:
            acc = self.check((acc[:, None, :] + seg[None, :, :])
                             .reshape(-1, dim))
        return acc

    def test_segment_sums_r3_r4(self):
        rng = np.random.default_rng(40)
        for dim in (3, 4):
            for _ in range(3):
                self.segment_sums(rng, dim)
        assert self.certified > 0

    def test_flat_inputs_rank_2_in_r4(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            basis = rng.standard_normal((2, 4))
            offset = rng.uniform(-1.0, 1.0, 4)
            self.check(rng.uniform(-1.0, 1.0, (30, 2)) @ basis + offset)
            self.segment_sums(rng, 4, basis)

    def test_hull_union_of_shifted_sums(self):
        rng = np.random.default_rng(42)
        for dim in (3, 4):
            acc = self.segment_sums(rng, dim)
            parts = [Polytope(self.check(acc + t))
                     for t in rng.uniform(-1.0, 1.0, (2, dim))]
            self.check(np.vstack([p.vertices for p in parts]),
                       convex_hull_union(parts).vertices)

    def test_ties_and_near_duplicates(self):
        # a lattice with exact support ties, plus copies 1e-13 off
        grid = np.array(np.meshgrid(*[[0.0, 0.5, 1.0]] * 3)).reshape(3, -1).T
        rng = np.random.default_rng(43)
        noisy = grid + rng.choice([-1e-13, 0.0, 1e-13], grid.shape)
        got = self.check(np.vstack([grid, noisy]))
        assert_equal(got.shape, (8, 3))

    def test_dedup_keeps_greedy_clusters(self):
        # (2e-13, 1, 0) is within DEDUP_TOL of (0, 1, 0) but not adjacent
        # to it in lex order, so a row-difference dedup would keep it
        pts = np.array([[0.0, 1.0, 0.0], [1e-13, 0.0, 0.0],
                        [2e-13, 1.0, 0.0], [5.0, 5.0, 5.0]])
        want = np.array([[0.0, 1.0, 0.0], [1e-13, 0.0, 0.0],
                         [5.0, 5.0, 5.0]])
        got = _dedup(pts, DEDUP_TOL)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == reference_dedup(pts, DEDUP_TOL).tobytes()


class TestCanonicalFixedPoints:
    """Every canonical array that the benchmark's generators reach is a
    fixed point of _canonical, and so is its sign flip up to order."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("workload", ["qd_build", "verdicts"])
    def test_benchmark_arrays(self, workload, seed, load_perfbench,
                              monkeypatch, tmp_path, capsys):
        load_perfbench("oracle")
        ops = getattr(load_perfbench("gen"), workload)(seed).ops
        canonical = geometry._canonical
        seen = {}

        def recorded(points):
            out = canonical(points)
            seen.setdefault((out.shape, out.tobytes()), out)
            return out

        monkeypatch.setattr(geometry, "_canonical", recorded)
        path = tmp_path / "op.prob"
        for op in ops:
            path.write_text(op.text)
            assert_equal(cli.main([op.command, str(path)] + op.flags), 0)
        assert len(seen) > 100
        assert any(v.shape[0] > 2 and v.shape[1] >= 3 for v in seen.values())
        for v in seen.values():
            assert_fixed_point(v)


class TestMinkowskiSum(TestCase):

    def test_identity_element(self):
        rng = np.random.default_rng(1)
        a = rand_poly(rng, 2, 5)
        assert minkowski_sum(a, zero_polytope(2)) is a
        assert minkowski_sum(zero_polytope(2), a) is a
        assert minkowski_sum(a, zero_polytope(2)) == Polytope(a.vertices)

    def test_interval_sums(self):
        # [-1,1] + {0} stays [-1,1]; [-2,2] + [-1,1] widens to [-3,3]
        seg1 = Polytope([[-1.0], [1.0]])
        seg2 = Polytope([[-2.0], [2.0]])
        assert minkowski_sum(seg1, zero_polytope(1)) == seg1
        assert minkowski_sum(seg2, seg1) == Polytope([[-3.0], [3.0]])

    def test_support_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rand_poly(rng, 2, 4), rand_poly(rng, 2, 5)
            sab = minkowski_sum(a, b)
            for h in rng.standard_normal((100, 2)):
                assert_allclose(support(sab, h),
                                support(a, h) + support(b, h), atol=1e-9)

    def test_commutative_associative(self):
        rng = np.random.default_rng(3)
        a, b, c = (rand_poly(rng, 2, 4) for _ in range(3))
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        left = minkowski_sum(minkowski_sum(a, b), c)
        right = minkowski_sum(a, minkowski_sum(b, c))
        assert left.approx_equal(right, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            minkowski_sum(zero_polytope(1), zero_polytope(2))


class TestScale(TestCase):

    def test_unit(self):
        rng = np.random.default_rng(4)
        a = rand_poly(rng, 2, 4)
        assert scale(a, 1.0) is a

    def test_reflection(self):
        a = Polytope([[1.0, 0.0], [2.0, 0.0]])
        assert scale(a, -1.0) == Polytope([[-1.0, 0.0], [-2.0, 0.0]])
        # no -0 in the flipped array
        assert scale(a, -1.0).vertices.tobytes() == \
            np.array([[-2.0, 0.0], [-1.0, 0.0]]).tobytes()
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3):
            b = rand_poly(rng, dim, 6)
            assert scale(b, -1.0) == Polytope(-b.vertices)

    def test_zero_collapses_to_origin(self):
        rng = np.random.default_rng(5)
        a = rand_poly(rng, 3, 5)
        assert scale(a, 0.0) == zero_polytope(3)


class TestHullUnion(TestCase):

    def test_two_singletons_make_segment(self):
        got = convex_hull_union([singleton([0.0, 0.0]), singleton([1.0, 0.0])])
        assert got == Polytope([[0.0, 0.0], [1.0, 0.0]])

    def test_idempotent_on_single_polytope(self):
        rng = np.random.default_rng(6)
        a = rand_poly(rng, 2, 6)
        assert convex_hull_union([a]) == a

    def test_empty_list_rejected(self):
        with pytest.raises(GeometryError):
            convex_hull_union([])


class TestSupport(TestCase):

    def test_singleton(self):
        p = np.array([0.3, -0.7])
        h = np.array([2.0, 1.0])
        assert_allclose(support(singleton(p), h), p @ h)

    def test_segment_vertex_max(self):
        a = Polytope([[1.0, 0.0], [-1.0, 0.0]])
        assert_allclose(support(a, [1.0, 1.0]), 1.0)

    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rand_poly(rng, 2, 6)
            pts = sample_hull(rng, a, 10 ** 4)
            for h in rng.standard_normal((10, 2)):
                sampled = float(np.max(pts @ h))
                exact = support(a, h)
                # vertices are in the sample, so this is an equality test
                assert_allclose(exact, sampled, atol=1e-12)


class TestNearestPoint(TestCase):

    def test_four_remark_corners(self):
        # d(0, {(-s1, s2)}) = sqrt(2) for every sign choice
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                _, dist = nearest_point(singleton([-s1, s2]), [0.0, 0.0])
                assert_allclose(dist, np.sqrt(2.0), atol=1e-12)

    def test_interior_query(self):
        a = Polytope([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        q = np.array([0.2, -0.3])
        pt, dist = nearest_point(a, q)
        assert_allclose(dist, 0.0, atol=1e-9)
        assert_array_almost_equal(pt, q)

    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rand_poly(rng, 2, 5)
            q = rng.uniform(-2.0, 2.0, 2)
            _, dist = nearest_point(a, q)
            sampled = np.min(np.linalg.norm(sample_hull(rng, a, 10 ** 5) - q,
                                            axis=1))
            assert dist <= sampled + 1e-9
            assert dist >= sampled - 1e-6

    def test_distance_is_1_lipschitz_in_query(self):
        rng = np.random.default_rng(9)
        a = rand_poly(rng, 2, 5)
        for _ in range(50):
            q = rng.uniform(-2.0, 2.0, 2)
            dq = rng.standard_normal(2) * 0.1
            _, d1 = nearest_point(a, q)
            _, d2 = nearest_point(a, q + dq)
            assert abs(d1 - d2) <= np.linalg.norm(dq) + 1e-9

    def test_projection_onto_segment(self):
        a = Polytope([[0.0, 0.0], [2.0, 0.0]])
        pt, dist = nearest_point(a, [1.0, 1.0])
        assert_array_almost_equal(pt, [1.0, 0.0])
        assert_allclose(dist, 1.0)


class TestContains(TestCase):

    def test_origin_in_unit_box(self):
        box = Polytope([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        assert contains(box, [0.0, 0.0])

    def test_vertex_is_inside(self):
        a = Polytope([[0.0, 1.0], [1.0, 0.0]])
        assert contains(a, [0.0, 1.0])

    def test_point_beyond_tolerance(self):
        a = Polytope([[0.0, 0.0], [1.0, 0.0]])
        assert not contains(a, [0.0, 2e-9])

    def test_consistent_with_nearest_point(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = rand_poly(rng, 2, 4)
            q = rng.uniform(-1.5, 1.5, 2)
            _, dist = nearest_point(a, q)
            assert contains(a, q) == (dist <= FEAS_TOL)


class TestSpanBasis(TestCase):

    def test_full_plane(self):
        basis = span_basis([[1.0, -1.0], [-1.0, -1.0]])
        assert_equal(basis.shape[0], 2)

    def test_zero_points(self):
        assert_equal(span_basis([[0.0, 0.0]]).shape[0], 0)

    def test_rank_matches_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, k = 4, int(rng.integers(1, 4))
            base = rng.standard_normal((k, n))
            coeffs = rng.standard_normal((6, k))
            pts = coeffs @ base
            got = span_basis(pts).shape[0]
            want = np.linalg.matrix_rank(pts, tol=1e-9)
            assert_equal(got, want)

    def test_complement_dimensions(self):
        comp = complement_basis([[1.0, 0.0, 0.0]], 3)
        assert_equal(comp.shape, (3, 2))
        assert_allclose(comp.T @ np.array([1.0, 0.0, 0.0]), 0.0, atol=1e-12)

    def test_complement_is_scipy_null_space_bitwise(self):
        # the package takes the null space from numpy so that it need not
        # import scipy; it must stay scipy's, byte for byte
        from scipy.linalg import null_space

        rng = np.random.default_rng(5)
        stacks = []
        for n in range(1, 5):
            for rows in (1, n, 3 * n + 1):
                stacks.append(rng.standard_normal((rows, n)))
                stacks.append(np.round(4 * rng.standard_normal((rows, n))) / 4)
                stacks.append(np.zeros((rows, n)))
                for rank in range(1, n):
                    stacks.append(rng.standard_normal((rows, rank))
                                  @ rng.standard_normal((rank, n)))
        for name in ("cubic.prob", "penalty_demo.prob", "sin_system.prob"):
            pf = load(PROBLEMS / name)
            b = Binding(pf.point, dict(pf.params))
            stacks.append(np.vstack([qd_plus_set(qd_at(f, b)).vertices
                                     for f in pf.equalities]))
        for pts in stacks:
            got = complement_basis(pts, pts.shape[1])
            want = null_space(pts, rcond=FEAS_TOL)
            assert_equal(got.shape, want.shape)
            assert got.tobytes() == want.tobytes(), pts


class TestSolveLp(TestCase):

    def test_boxed_maximum(self):
        # max t subject to -t >= 0 and t <= 1
        out = solve_lp([1.0], a_ub=[[1.0], [1.0]], b_ub=[0.0, 1.0],
                       maximize=True)
        assert_equal(out.status, LpStatus.FEASIBLE)
        assert_allclose(out.point, [0.0], atol=1e-9)

    def test_circular_multiplier_bounds_infeasible(self):
        # mu_lo, mu_hi >= 0 with 1 + mu_hi <= mu_lo and 1 + mu_lo <= mu_hi
        out = solve_lp([0.0, 0.0],
                       a_ub=[[-1.0, 1.0], [1.0, -1.0]], b_ub=[-1.0, -1.0],
                       bounds=[(0.0, None), (0.0, None)])
        assert_equal(out.status, LpStatus.INFEASIBLE)

    def test_unbounded_status(self):
        out = solve_lp([1.0], maximize=True)
        assert_equal(out.status, LpStatus.UNBOUNDED)

    def test_random_feasible_residuals(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a_ub = rng.standard_normal((n + 1, n))
            x0 = rng.standard_normal(n)
            b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, n + 1)
            out = solve_lp(rng.standard_normal(n), a_ub=a_ub, b_ub=b_ub,
                           bounds=[(-10.0, 10.0)] * n)
            assert_equal(out.status, LpStatus.FEASIBLE)
            assert np.all(a_ub @ out.point <= b_ub + 1e-9)
