import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import (TestCase, assert_allclose,
                           assert_array_almost_equal, assert_equal)

from quasidiff import cli, geometry
from quasidiff.calculus import Quasidifferential, qd_plus_set, steepest_rate
from quasidiff.expressions import Binding, parse_expression, qd_at
from quasidiff.geometry import (CERT_GAP, DEDUP_TOL, FEAS_TOL, GeometryError,
                                LpStatus, Polytope, _batched_min_norm,
                                _canonical, _certificates,
                                _certified_extreme, _dedup,
                                _min_norm_combination,
                                complement_basis,
                                contains, convex_hull_union, minkowski_sum,
                                nearest_point, scale, singleton, solve_lp,
                                span_basis, support, ties, zero_polytope)
from quasidiff.optimality import ProgramSpec, program_data
from quasidiff.problemfile import load
from quasidiff.regularity import InfeasiblePointError

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
            # through the module, so that a test can count the solves
            x = geometry._min_norm_combination(others - kept[i])[0]
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
        # the dedup and 2-D hull cuts are absolute below unit size; the
        # lift by a power of two makes them relative without changing a bit
        for pts in SMALL_POLYGONS:
            got = Polytope(pts).vertices
            assert_equal(got.shape, pts.shape)
            assert_fixed_point(got)
        # at k = 40 the absolute dedup cut collapsed it to 1 vertex
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7], [0.2, 0.2]])
        want = Polytope(tri).vertices
        for k in (2, 20, 30, 40):
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


def unit_sized_set(rng, dim):
    """Points in [0, 1)^dim whose largest entry lies in [1/2, 1), with a
    near-duplicate row at relative 1e-13 and a row within relative 1e-11
    of the hull of two others."""
    pts = rng.uniform(0.0, 0.99, (int(rng.integers(3, 9)), dim))
    pts[0, 0] = rng.uniform(0.5, 0.99)
    near_dup = pts[1] + 1e-13 * rng.uniform(-1.0, 1.0, dim)
    near_hull = (0.5 * (pts[1] + pts[2])
                 + 1e-11 * rng.uniform(-1.0, 1.0, dim))
    return np.clip(np.vstack([pts, near_dup, near_hull]), 0.0, 0.99)


# every k from -60 up, and every 13th k from -900 to -68, where the
# squares of a distance underflow unless it is measured lifted
SCALE_EXPONENTS = [*range(-900, -60, 13), *range(-60, 1)]


class TestScaleCovariance(TestCase):
    """One lift rule: a set smaller than 1/2 is canonicalised and
    projected as the power-of-two multiple of it in [1/2, 1) is, so
    scaling by 2^k, k <= 0, commutes with both, byte for byte."""

    def test_polytope_commutes_with_powers_of_two(self):
        rng = np.random.default_rng(23)
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                pts = unit_sized_set(rng, dim)
                want = Polytope(pts).vertices
                for k in range(-60, 1):
                    got = Polytope(np.ldexp(pts, k)).vertices
                    assert got.tobytes() == np.ldexp(want, k).tobytes()

    def test_nearest_point_commutes_with_powers_of_two(self):
        # the query also lies in [0, 1)^dim, so Wolfe's input P - q has
        # entries in (-1, 1): it is lifted back to itself for every k
        rng = np.random.default_rng(29)
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                poly = Polytope(unit_sized_set(rng, dim))
                q = rng.uniform(0.0, 0.99, dim)
                pt, d = nearest_point(poly, q)
                for k in SCALE_EXPONENTS:
                    got_pt, got_d = nearest_point(
                        Polytope(np.ldexp(poly.vertices, k)), np.ldexp(q, k))
                    assert got_d == np.ldexp(d, k)
                    assert got_pt.tobytes() == np.ldexp(pt, k).tobytes()

    def test_steepest_rate_commutes_with_powers_of_two(self):
        # sub = {(1, 0)}, sup = co{+-(1, 1)}: the margin is sqrt(5) at
        # (1, 1), and the first vertex (-1, -1) gives 1; an absolute tie
        # cut of 1e-15 kept the 1 from k = -51 down
        pairs = [(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0],
                                                    [-1.0, -1.0]]))]
        # sub + w then has entries in (-1/2, 1), so every Wolfe input is
        # lifted back to its k = 0 self, as in the test above
        rng = np.random.default_rng(31)
        for dim in (1, 2, 3):
            for _ in range(3):
                pairs.append((0.5 * unit_sized_set(rng, dim),
                              0.5 * unit_sized_set(rng, dim) - 0.25))
        for sub, sup in pairs:
            base = Quasidifferential(Polytope(sub), Polytope(sup))
            margin, witness = steepest_rate(base)
            for k in SCALE_EXPONENTS:
                got, got_w = steepest_rate(Quasidifferential(
                    Polytope(np.ldexp(sub, k)), Polytope(np.ldexp(sup, k))))
                assert got == np.ldexp(margin, k), (k, got, margin)
                assert got_w.tobytes() == np.ldexp(witness, k).tobytes()

    def test_tiny_segment_contains_the_origin(self):
        # Wolfe's stopping test was absolute below unit norm (1e-10 here)
        _, d = nearest_point(Polytope([[1e-10, 0.0], [-1e-10, 0.0]]),
                             [0.0, 0.0])
        assert_equal(d, 0.0)

    def test_subnormal_set_is_lifted_exactly(self):
        # 2.0 ** 1029 overflows; ldexp does not
        pts = np.array([[1e-310, 0.0], [0.0, 1e-310], [-1e-310, 0.0]])
        got = Polytope(pts).vertices
        assert got.tobytes() == pts[[2, 1, 0]].tobytes()
        _, d = nearest_point(Polytope(pts), [0.0, 0.0])
        assert_equal(d, 0.0)


class TestCanonicalMatchesReference(TestCase):
    """The windowed dedup and the certificates change no byte."""

    @pytest.fixture(autouse=True)
    def counters(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.certified = 0
        self.batched = 0

    def check(self, points, got=None):
        """got (default: Polytope(points).vertices) equals the reference
        on points byte for byte.  Every certified vertex is an output row
        and lies more than the certificate's gap from the other points'
        hull; every interior-certified point is missing from the output
        and lies within FEAS_TOL of the hull of the pre-pass's vertices.
        Where the batch runs, fewer scalar solves remain than the
        reference loop makes."""
        points = np.asarray(points, dtype=float)
        solves = []
        scalar = geometry._min_norm_combination

        def counted(p):
            solves.append(1)
            return scalar(p)

        with self.monkeypatch.context() as mp:
            mp.setattr(geometry, "_min_norm_combination", counted)
            want = reference_canonical(points)
            n_reference = len(solves)
            built = got is None
            if built:
                got = Polytope(points).vertices
            n_scalar = len(solves) - n_reference
        assert_equal(got.shape, want.shape)
        assert got.tobytes() == want.tobytes()
        pts = _dedup(points + 0.0, DEDUP_TOL)
        if pts.shape[0] > 2:
            filtered = _certified_extreme(pts)
            vertex, inside = _certificates(pts)
            assert not (vertex & inside).any()
            assert (vertex >= filtered).all()
            rows = {r.tobytes() for r in got}
            assert all(r.tobytes() in rows for r in pts[vertex])
            assert not any(r.tobytes() in rows for r in pts[inside])
            gap = CERT_GAP * max(1.0, float(np.abs(pts).max()))
            for j in np.flatnonzero(vertex):
                x = _min_norm_combination(
                    np.delete(pts, j, axis=0) - pts[j])[0]
                assert np.linalg.norm(x) > gap
            for j in np.flatnonzero(inside):
                x = _min_norm_combination(pts[filtered] - pts[j])[0]
                assert np.linalg.norm(x) <= FEAS_TOL
            self.certified += int(vertex.sum())
            if (~filtered).sum() >= geometry._CERT_BATCH_MIN:
                self.batched += int((vertex & ~filtered).sum()
                                    + inside.sum())
                assert n_scalar < n_reference
            if built:
                # a certified point gets no scalar solve
                assert n_scalar <= int((~vertex & ~inside).sum())
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

    def test_zonotopes_of_eight_generators(self):
        # the qd-build chain shape: sums of c [-g, g] with two-digit g
        rng = np.random.default_rng(44)
        for dim in (3, 4):
            gens = (np.round(rng.uniform(-2.0, 2.0, (8, dim)), 2)
                    * np.round(rng.uniform(0.5, 2.0, (8, 1)), 1))
            acc = np.stack([gens[0], -gens[0]])
            for g in gens[1:]:
                acc = self.check(np.vstack([acc + g, acc - g]))
        assert self.batched > 0

    def test_rank_2_set_in_r4_reaches_the_batch(self):
        # a corral in a plane holds at most 3 of the dim + 1 = 5 slots;
        # the edge midpoints and inner points leave the pre-pass undecided
        rng = np.random.default_rng(45)
        basis = rng.standard_normal((2, 4))
        ring = np.stack([np.cos(np.arange(7) * 2 * np.pi / 7),
                         np.sin(np.arange(7) * 2 * np.pi / 7)], axis=1)
        inner = np.vstack([0.5 * (ring + np.roll(ring, 1, axis=0)),
                           rng.uniform(-0.3, 0.3, (6, 2))])
        self.check(np.vstack([ring, inner]) @ basis + 0.25)
        assert self.batched >= geometry._CERT_BATCH_MIN

    def test_ties_and_near_duplicates(self):
        # a lattice with exact support ties, plus copies 1e-13 off
        grid = np.array(np.meshgrid(*[[0.0, 0.5, 1.0]] * 3)).reshape(3, -1).T
        rng = np.random.default_rng(43)
        noisy = grid + rng.choice([-1e-13, 0.0, 1e-13], grid.shape)
        got = self.check(np.vstack([grid, noisy]))
        assert_equal(got.shape, (8, 3))
        assert self.batched > 0

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


class TestBatchedMinNorm:
    """The batched Wolfe kernel returns convex weights, and |x| never
    claims a query closer to the hull than the scalar solve finds."""

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -40])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_contract(self, dim, scale):
        rng = np.random.default_rng(46 + dim)
        for n, m, with_skip in ((geometry.CERT_BLOCK + 9, 12, False),
                                (7, 40, True), (5, 3, False)):
            v = scale * rng.uniform(-1.0, 1.0, (m, dim))
            q = scale * rng.uniform(-1.5, 1.5, (n, dim))
            skip = rng.integers(0, m, n) if with_skip else None
            x, corral, lam = _batched_min_norm(q, v, skip)
            self.check_contract(q, v, skip, x, corral, lam)

    def test_failed_solve_falls_back(self, monkeypatch):
        rng = np.random.default_rng(50)
        v = rng.uniform(-1.0, 1.0, (20, 4))
        q = rng.uniform(-1.0, 1.0, (10, 4))

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        with monkeypatch.context() as mp:
            mp.setattr(geometry.np.linalg, "solve", singular)
            x, corral, lam = _batched_min_norm(q, v)
        self.check_contract(q, v, None, x, corral, lam)

    @staticmethod
    def check_contract(q, v, skip, x, corral, lam):
        assert lam.min() >= 0.0
        assert_allclose(lam.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if skip is not None:
            assert not lam[corral == skip[:, None]].any()
        rel = v[corral] - q[:, None, :]
        assert_allclose(x, np.einsum("rk,rkd->rd", lam, rel), rtol=0,
                        atol=1e-15 * np.abs(rel).max())
        for r in range(q.shape[0]):
            others = v if skip is None else np.delete(v, skip[r], axis=0)
            scale = np.abs(others - q[r]).max()
            d = np.linalg.norm(_min_norm_combination(others - q[r])[0])
            assert np.linalg.norm(x[r]) >= d - 1e-12 * scale


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


def reference_min_norm_combination(points):
    """Wolfe's algorithm on one point array, step for step: the bytes
    that each _min_norm_combination call keeps."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy(), [0], np.ones(1)
    pts, lift = geometry._lifted(pts)
    norms2 = np.einsum("ij,ij->i", pts, pts)
    start = int(np.argmin(norms2))
    corral = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    scale2 = max(1.0, float(norms2.max()))
    for _ in range(16 * m + 64):
        dots = pts @ x
        xx = float(x @ x)
        j = int(np.argmin(dots))
        if dots[j] >= xx - 1e-12 * scale2:
            break
        if j in corral:
            break
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            sub = pts[corral]
            k = len(corral)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = sub @ sub.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            mu = sol[:k]
            if np.all(mu >= -1e-12):
                lam = np.clip(mu, 0.0, None)
                lam = lam / lam.sum()
                x = lam @ sub
                break
            neg = mu < 0
            steps = lam[neg] / (lam[neg] - mu[neg])
            theta = float(np.clip(steps.min(), 0.0, 1.0))
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > 1e-14
            if keep.all():
                lam = np.clip(lam, 0.0, None)
                lam = lam / lam.sum()
                x = lam @ pts[corral]
                break
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
    return (np.ldexp(x, -lift) if lift else x), corral, lam


class TestMinNormOfSums:
    """Wolfe's nearest point on one point array keeps the bytes of
    reference_min_norm_combination, and its distance those of the norm of
    x, taken lifted."""

    def test_one_set_keeps_its_bytes_on_the_fixtures(self, monkeypatch,
                                                     capsys):
        # every one-set call of the 15 flagless fixture runs
        solver, seen = geometry._min_norm_combination, []

        def recorded(points):
            if isinstance(points, np.ndarray):
                seen.append(np.array(points, dtype=float))
            return solver(points)

        monkeypatch.setattr(geometry, "_min_norm_combination", recorded)
        for path in sorted(PROBLEMS.glob("*.prob")):
            for command in ("qd", "slope", "mfcq", "regcheck", "optcheck"):
                cli.main([command, str(path)])
        capsys.readouterr()
        assert len(seen) > 10
        # and seeded sets in R^1 to R^4 from 2^-40 to 2^9 in size, half
        # of them on a grid so that points tie
        rng = np.random.default_rng(5)
        for _ in range(400):
            size = 2.0 ** int(rng.integers(-40, 10))
            pts = rng.standard_normal((int(rng.integers(2, 30)),
                                       int(rng.integers(1, 5)))) * size
            if rng.random() < 0.5:
                pts = np.round(pts * 4 / size) * size / 4
            seen.append(pts - pts.mean(axis=0) * rng.random())
        scaled = 0
        for pts in seen:
            x, corral, lam, dist = solver(pts)
            want = reference_min_norm_combination(pts)
            assert x.tobytes() == want[0].tobytes()
            assert corral == want[1]
            assert all(type(c) is int for c in corral)
            assert lam.tobytes() == want[2].tobytes()
            assert type(dist) is float
            assert (np.float64(dist).tobytes()
                    == np.linalg.norm(x).tobytes())
            if np.abs(pts).max() < 1.0:
                # below unit size both sets lift to one array, so the
                # distance scales exactly, where the squares of the
                # scaled x would underflow
                assert_equal(solver(np.ldexp(pts, -540))[3],
                             np.ldexp(dist, -540))
                scaled += 1
        assert scaled > 100


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
        assert_allclose(left.vertices, right.vertices, rtol=0, atol=1e-9)

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


def steps_around(c, k):
    """c and the k floats on each side of it."""
    out = [c]
    for toward in (np.inf, -np.inf):
        v = c
        for _ in range(k):
            v = math.nextafter(v, toward)
            out.append(v)
    return out


def test_tie_rule_float_forms():
    # the tie rule's float form v >= top - FEAS_TOL against 0 is the
    # active set's |g| <= FEAS_TOL and the violation's g > FEAS_TOL on
    # every float: fl(g - FEAS_TOL) has the sign of g - FEAS_TOL
    rng = np.random.default_rng(44)
    values = [v for c in (FEAS_TOL, 0.0, 5e-324) for s in (1.0, -1.0)
              for v in steps_around(s * c, 5)]
    values += list(FEAS_TOL * rng.uniform(-3.0, 3.0, 100))
    values += list(rng.standard_normal(100)
                   * 10.0 ** rng.integers(-320, 5, 100))
    objective = parse_expression("x1", 1)
    constraint = (parse_expression("x1 + g", 1),)
    for g in values:
        assert (len(ties([g, 0.0])) == 2) == (abs(g) <= FEAS_TOL), g
        assert (ties([g, 0.0]) == [0]) == (g > FEAS_TOL), g
        # phi's max(x1 + g, 0) keeps both branches, its sub co{0, 1},
        # exactly on the active set; a point outside the cut is infeasible
        p = ProgramSpec(1, objective, (), constraint, {"g": g})
        if g > FEAS_TOL:
            with pytest.raises(InfeasiblePointError):
                program_data(p, p.binding([0.0]))
            continue
        data = program_data(p, p.binding([0.0]))
        assert (data.active == (0,)) == (data.phi.sub.nvertices == 2), g


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

    def test_one_rank_rule_at_every_scale(self):
        # span and complement come from one SVD whose cut is relative to
        # the set, so 2^k P keeps the rank of P for every k, and the two
        # bases split R^n into orthogonal parts
        rng = np.random.default_rng(23)
        sets = [np.array([[1.0, -1.0, 0.5], [-1.0, -1.0, 0.25]])]
        for n in range(2, 5):
            for rank in range(n + 1):
                for rows in (rank, n + 2):
                    sets.append(rng.standard_normal((rows, rank))
                                @ rng.standard_normal((rank, n)))
        for pts in sets:
            n = pts.shape[1]
            rank = span_basis(pts).shape[0]
            for k in range(-60, 1):
                scaled = np.ldexp(pts, k)
                span = span_basis(scaled)
                comp = complement_basis(scaled, n)
                assert_equal(span.shape[0], rank)
                assert_equal(span.shape[0] + comp.shape[1], n)
                assert_allclose(span @ comp, 0.0, atol=1e-12)

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
