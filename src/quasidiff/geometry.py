"""Convex polytope kernel in vertex representation.

Every set handled by this package is the convex hull of finitely many
points in R^n.  A Polytope stores the minimal vertex list, deduplicated
and lexicographically sorted, so that equal sets produced along different
routes compare equal.  All operations are pure and return new objects.

Canonicalisation in dim >= 3 visits the deduplicated points in lex order
and drops each one that lies within FEAS_TOL of the hull of the points
still kept, found by a Wolfe nearest-point solve.  A cheap pre-pass first
certifies points as vertices: a point that is the unique maximiser of
<., h> for some direction h, by a gap that puts it more than
CERT_GAP * max(1, max|p|) >> FEAS_TOL from the hull of the other points.
Wolfe's answer is a convex combination of those other points, so the
loop would keep a certified point anyway; it skips the solve for it and
solves for every other point against the same kept set as before.  The
canonical vertex array is therefore the one the plain loop gives, byte
for byte, whatever the directions.

A canonical array is a fixed point of that map, so operations whose
result is an operand's array, or its exact negation, skip it.  Dedup
keeps rows that are already more than DEDUP_TOL apart; in 1-D the min
and max, and in 2-D the hull of a hull, are the same rows; in dim >= 3
a second pass tests each vertex against the other vertices, a subset of
the points it was kept against in the first, so its distance can only
grow.  Float
negation is exact and keeps every pairwise distance, so the canonical
form of -V is -V re-sorted: the 2-D chain meets the same cross products
in mirrored order, and Wolfe's iterates on -V are those on V negated.
Hence minkowski_sum with {0} returns the other operand, scale by 1
returns its operand and scale by -1 the sorted negation, and none runs
the dedup, the pre-pass or a Wolfe solve.  The one caveat is a vertex
whose distance from the others' hull lies within rounding of FEAS_TOL,
which a second pass could judge the other way.

Tolerances: DEDUP_TOL collapses coincident vertices, FEAS_TOL is the
membership/feasibility tolerance used everywhere else.  The 2-D hull's
cut is absolute below unit size, so a planar set smaller than 1/2 is
lifted by a power of two, which is exact, before its hull is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

DEDUP_TOL = 1e-12
FEAS_TOL = 1e-9
CERT_GAP = 1e-7
CERT_DIRS_PER_POINT = 16
CERT_BLOCK = 256


class GeometryError(ValueError):
    pass


class LpStatus(Enum):
    FEASIBLE = "feasible-with-point"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Result of a linear program.

    point and objective are present exactly when status is FEASIBLE.
    """

    status: LpStatus
    point: np.ndarray | None = None
    objective: float | None = None


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             maximize=False) -> LpOutcome:
    """Solve min (or max) c.x subject to a_ub x <= b_ub, a_eq x = b_eq.

    bounds follows scipy's convention; default is free variables, which
    differs from scipy's nonnegative default on purpose.  Infeasible and
    unbounded are ordinary statuses, not errors.
    """
    # imported here so that commands that solve no LP never load scipy
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    obj = -c if maximize else c
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = linprog(obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        val = float(res.fun)
        return LpOutcome(LpStatus.FEASIBLE, np.asarray(res.x, dtype=float),
                         -val if maximize else val)
    if res.status == 2:
        return LpOutcome(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpOutcome(LpStatus.UNBOUNDED)
    raise GeometryError(f"linear program solver failed: {res.message}")


def _min_norm_point(points: np.ndarray) -> np.ndarray:
    """Minimum-norm point of the convex hull of the given points."""
    return _min_norm_combination(points)[0]


def _min_norm_combination(points: np.ndarray):
    """Minimum-norm point x of the convex hull of the given points, with
    the weights that give it: (x, corral, lam), x = lam @ points[corral].

    Wolfe's algorithm.  Terminates finitely on exact data; the stopping
    test tolerates double-precision roundoff.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy(), [0], np.ones(1)
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
        # minor cycle: pull x to the affine minimizer over the corral,
        # dropping vertices whose weight hits zero on the way
        while True:
            sub = pts[corral]
            k = len(corral)
            g = sub @ sub.T
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = g
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
                # numerical stall; accept the clipped point
                lam = np.clip(lam, 0.0, None)
                lam = lam / lam.sum()
                x = lam @ pts[corral]
                break
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
    return x, corral, lam


def _hull_2d(pts: np.ndarray, tol: float) -> np.ndarray:
    """Andrew's monotone chain; drops collinear points."""
    order = np.lexsort(pts.T[::-1])
    p = pts[order]
    scale = max(1.0, float(np.abs(p).max()))
    eps = tol * scale

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], q) <= eps:
                out.pop()
            out.append(q)
        return out

    lower = half(p)
    upper = half(p[::-1])
    hull = lower[:-1] + upper[:-1]
    if not hull:
        hull = [p[0]]
    return np.array(hull)


def _dedup(pts: np.ndarray, tol: float) -> np.ndarray:
    """Rows in lexicographic order, each dropped when it lies within tol
    (max-norm) of an earlier kept row.

    Rows are sorted by their first coordinate, so a row can only match
    earlier rows whose first coordinate lies within tol of its own; the
    window is taken 2 tol wide so that rounding in its bound never cuts a
    match off.  Comparing adjacent rows only would not do: in the lex
    order (0, 1), (1e-13, 0), (2e-13, 1) the first and last rows match.
    """
    p = pts[np.lexsort(pts.T[::-1])]
    m = p.shape[0]
    if m < 2:
        return p
    lo = np.searchsorted(p[:, 0], p[:, 0] - 2.0 * tol, side="left")
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(lo < np.arange(m)):
        window = slice(lo[i], i)
        near = np.max(np.abs(p[window] - p[i]), axis=1) <= tol
        if np.any(near & keep[window]):
            keep[i] = False
    return p[keep]


def _certified_extreme(pts: np.ndarray) -> np.ndarray:
    """Mask of points certified to be vertices of conv(pts).

    Point j is certified when some direction h has j as its unique
    maximiser with a gap over the runner-up above
    CERT_GAP * max(1, max|p|) * |h|; then j lies that far from the hull
    of every subset of the other points.  The directions are a fixed
    pseudo-random set of CERT_DIRS_PER_POINT * m, scored in blocks of at
    most CERT_BLOCK so that the score matrix stays small.
    """
    m, dim = pts.shape
    rng = np.random.default_rng(0)
    gap_tol = CERT_GAP * max(1.0, float(np.abs(pts).max()))
    cert = np.zeros(m, dtype=bool)
    n_dirs = CERT_DIRS_PER_POINT * m
    buf = np.empty((min(CERT_BLOCK, n_dirs), m))
    for start in range(0, n_dirs, CERT_BLOCK):
        h = rng.standard_normal((min(CERT_BLOCK, n_dirs - start), dim))
        scores = np.matmul(h, pts.T, out=buf[:h.shape[0]])  # row per direction
        rows = np.arange(h.shape[0])
        best = np.argmax(scores, axis=1)
        top = scores[rows, best]
        scores[rows, best] = -np.inf
        gap = top - scores.max(axis=1)
        cert[best[gap > gap_tol * np.linalg.norm(h, axis=1)]] = True
        if cert.all():
            break
    return cert


def _drop_redundant(pts: np.ndarray) -> np.ndarray:
    """Drop, in row order, each point within FEAS_TOL of the hull of the
    points still kept; certified vertices are kept without a Wolfe solve."""
    m = pts.shape[0]
    cert = _certified_extreme(pts)
    alive = np.ones(m, dtype=bool)
    n_alive = m
    for i in range(m):
        if n_alive <= 1:
            break
        if cert[i]:
            continue
        alive[i] = False
        x = _min_norm_point(pts[alive] - pts[i])
        if float(np.linalg.norm(x)) <= FEAS_TOL:
            n_alive -= 1
        else:
            alive[i] = True
    return pts[alive]


def _canonical(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise GeometryError("a polytope needs at least one point in R^n, n >= 1")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("polytope vertices must be finite")
    pts = pts + 0.0  # drop negative zeros so formatting stays canonical
    pts = _dedup(pts, DEDUP_TOL)
    m, dim = pts.shape
    if m > 2:
        if dim == 1:
            pts = np.array([[pts[:, 0].min()], [pts[:, 0].max()]])
        elif dim == 2:
            top = float(np.abs(pts).max())
            if top < 0.5:  # the hull's cut is absolute below unit size
                lift = 2.0 ** -int(np.frexp(top)[1])
                pts = _hull_2d(pts * lift, FEAS_TOL) / lift
            else:
                pts = _hull_2d(pts, FEAS_TOL)
            pts = pts[np.lexsort(pts.T[::-1])]
        else:
            pts = _drop_redundant(pts)
    # every branch leaves a fresh, C-contiguous, lex-sorted array
    pts.setflags(write=False)
    return pts


class Polytope:
    """Convex compact polytope, stored as its canonical vertex array.

    vertices has shape (m, dim); rows are lexicographically sorted and no
    row lies in the convex hull of the others.
    """

    __slots__ = ("vertices",)

    def __init__(self, points):
        self.vertices = _canonical(points)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def nvertices(self) -> int:
        return self.vertices.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and bool(np.array_equal(self.vertices, other.vertices)))

    def approx_equal(self, other: "Polytope", tol: float = FEAS_TOL) -> bool:
        """Same vertex set up to tol, after canonical sorting."""
        if self.vertices.shape != other.vertices.shape:
            return False
        return bool(np.max(np.abs(self.vertices - other.vertices)) <= tol)

    def __repr__(self) -> str:
        rows = " ".join("(" + ", ".join(f"{v:.12g}" for v in row) + ")"
                        for row in self.vertices)
        return f"Polytope[{rows}]"


def _from_canonical(vertices: np.ndarray) -> Polytope:
    """A Polytope around an array that is already canonical, built
    without running _canonical again (see the module docstring)."""
    poly = object.__new__(Polytope)
    vertices.setflags(write=False)
    poly.vertices = vertices
    return poly


def _is_origin(a: Polytope) -> bool:
    return a.nvertices == 1 and not a.vertices.any()


def zero_polytope(dim: int) -> Polytope:
    if dim < 1:
        raise GeometryError("a polytope needs at least one point in R^n, n >= 1")
    return _from_canonical(np.zeros((1, dim)))


def singleton(point) -> Polytope:
    return Polytope(np.atleast_2d(np.asarray(point, dtype=float)))


def _check_dims(a: Polytope, b: Polytope) -> None:
    if a.dim != b.dim:
        raise GeometryError(f"dimension mismatch: {a.dim} vs {b.dim}")


def minkowski_sum(a: Polytope, b: Polytope) -> Polytope:
    """{u + v : u in a, v in b}.

    A {0} operand returns the other operand itself: v + 0.0 is v, and a
    canonical array is a fixed point of canonicalisation.
    """
    _check_dims(a, b)
    if _is_origin(b):
        return a
    if _is_origin(a):
        return b
    pts = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, a.dim)
    return Polytope(pts)


def scale(a: Polytope, t: float) -> Polytope:
    """{t v : v in a}.  t = 0 collapses to the origin; t < 0 reflects.

    t = 1 returns a itself, and t = -1 the negated vertices re-sorted
    (+ 0.0 so that no -0 appears), without canonicalising again: negation
    is exact and keeps every pairwise distance.
    """
    if t == 0.0:
        return zero_polytope(a.dim)
    if t == 1.0:
        return a
    if t == -1.0:
        flipped = -a.vertices + 0.0
        return _from_canonical(flipped[np.lexsort(flipped.T[::-1])])
    return Polytope(t * a.vertices)


def convex_hull_union(polys: Sequence[Polytope]) -> Polytope:
    """Convex hull of the union of the given polytopes."""
    if len(polys) == 0:
        raise GeometryError("convex_hull_union of an empty collection")
    dim = polys[0].dim
    for p in polys[1:]:
        if p.dim != dim:
            raise GeometryError("convex_hull_union: mixed dimensions")
    return Polytope(np.vstack([p.vertices for p in polys]))


def support(a: Polytope, h) -> float:
    """max_{v in a} <v, h>."""
    h = np.asarray(h, dtype=float)
    return float(np.max(a.vertices @ h))


def nearest_point(a: Polytope, q) -> tuple[np.ndarray, float]:
    """Euclidean projection of q onto a: (point, distance)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (a.dim,):
        raise GeometryError("query point has wrong dimension")
    x = _min_norm_point(a.vertices - q)
    return q + x, float(np.linalg.norm(x))


def contains(a: Polytope, q) -> bool:
    """Membership test within FEAS_TOL, consistent with nearest_point by
    construction."""
    return nearest_point(a, q)[1] <= FEAS_TOL


def span_basis(points) -> np.ndarray:
    """Orthonormal basis (rows) of span{points}; empty for all-zero input.

    Modified Gram-Schmidt with one reorthogonalization pass.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    basis: list[np.ndarray] = []
    for p in pts:
        r = p.copy()
        for _ in range(2):
            for b in basis:
                r = r - (r @ b) * b
        if np.linalg.norm(r) > FEAS_TOL * max(1.0, float(np.linalg.norm(p))):
            basis.append(r / np.linalg.norm(r))
    if not basis:
        return np.zeros((0, pts.shape[1]))
    return np.array(basis)


def complement_basis(points, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of
    span{points} in R^dim.

    Singular values up to FEAS_TOL * max(s) count as zero; this is the
    same SVD and cut as scipy.linalg.null_space(pts, rcond=FEAS_TOL), and
    gives its bytes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return np.eye(dim)
    _, s, vh = np.linalg.svd(pts, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * FEAS_TOL))
    return vh[rank:].T
