"""Convex polytope kernel in vertex representation.

Every set handled by this package is the convex hull of finitely many
points in R^n.  A Polytope stores the minimal vertex list, deduplicated
and lexicographically sorted, so that equal sets produced along different
routes compare equal.  All operations are pure and return new objects.

Canonicalisation in dim >= 3 visits the deduplicated points in lex order
and drops each one that lies within FEAS_TOL of the hull of the points
still kept, found by a Wolfe nearest-point solve.  Three certificates,
in this order, settle most points without that solve:
  1. a cheap pre-pass certifies a point as a vertex when it is the
     unique maximiser of <., h> for some random direction h, by a gap
     that puts it more than CERT_GAP * max(1, max|p|) >> FEAS_TOL from
     the hull of the other points;
  2. when _CERT_BATCH_MIN or more points are left undecided, one
     batched Wolfe solve runs each of them against the pre-pass's
     vertices.  A point within FEAS_TOL of their hull is
     interior-certified: certified vertices are never dropped, so at its
     turn it lies within FEAS_TOL of the hull of the points still kept,
     and the rule drops it.  Otherwise x, the offset from the point to
     its nearest point of that hull, gives h = -x, which is tried by the
     pre-pass's gap rule against all other points;
  3. a second batched solve runs each point still open against all the
     other points and tries its h = -x by the gap rule.
Wolfe's answer is a convex combination of the other points, so the loop
would keep a vertex certified by the gap rule anyway, whatever the
directions; it keeps those, drops the interior-certified points and
solves for every other point against the same kept set as before.  The
canonical vertex array is therefore the one the plain loop gives, byte
for byte, with two caveats for the interior certificate, which decides
by the rule itself rather than by the scalar solve: a distance within
rounding of FEAS_TOL, and a scalar Wolfe solve that stops early, above
FEAS_TOL at a point that lies within it.

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
the dedup, the pre-pass or a Wolfe solve.  The caveats are a vertex
whose distance from the others' hull lies within rounding of FEAS_TOL,
which a second pass could judge the other way, and a set below 1/2 whose
largest |entry| lay on a dropped row just above a power of two, so that
its canonical array gets a larger lift (see Tolerances).

Tolerances: DEDUP_TOL collapses coincident vertices, FEAS_TOL is the
membership/feasibility tolerance used everywhere else.  DEDUP_TOL, the
2-D hull's cut and Wolfe's stopping test are absolute below unit size,
so one lift rule makes them relative there: a set whose largest |entry|
is below 1/2 is multiplied by the power of two 2^k that puts it in
[1/2, 1), which is exact, at the entry of _canonical (before the dedup)
and of _min_norm_combination, and the result is scaled back; nearest_point
takes the norm of the lifted offset, so its distance does not underflow.
Sets of size 1/2 or more keep their arithmetic and their absolute cuts.
So for k <= 0, and P's largest |entry| in [1/2, 1), Polytope(2^k P) is
2^k Polytope(P) byte for byte; for k > 0 it need not be.  The span of a
point set and its orthogonal complement come from one SVD, whose cut is
relative to the largest singular value, so 2^k P has the rank of P for
every k.

FEAS_TOL is also the one tie cut: qd_max and the row walk take a branch
within FEAS_TOL of the top as active, so phi's max(g_i, 0) ties where
mfcq's active_inequalities takes |g_i| <= FEAS_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

DEDUP_TOL = 1e-12
FEAS_TOL = 1e-9
CERT_GAP = 1e-7
CERT_DIRS_PER_POINT = 16
CERT_BLOCK = 256
# Fewest undecided points for which the batched certificates run.  Per
# _drop_redundant input of qd-build seeds 41-43 (2-vCPU Xeon, one BLAS
# thread), with the batch against without it: 1 point 1.3 against
# 0.5 ms, 3 points 2.6 against 1.3 ms, 6 points 3.3 against 2.5 ms,
# 7 points 2.6 against 2.8 ms, 10-19 points 4.6 against 6.4 ms and 20 or
# more 7.3 against 19.4 ms.
_CERT_BATCH_MIN = 7


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


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
             bounds=(None, None), maximize=False) -> LpOutcome:
    """Solve min (or max) c.x subject to a_ub x <= b_ub, a_eq x = b_eq.

    bounds follows scipy's convention: one (lo, hi) pair that every
    variable shares, or one pair per variable.  The default is free
    variables, which differs from scipy's nonnegative default on purpose.
    Infeasible and unbounded are ordinary statuses, not errors.
    """
    # imported here so that commands that solve no LP never load scipy
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    obj = -c if maximize else c
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


def _lift_exponent(top):
    """The k that lifts a set whose largest |entry| is top into [1/2, 1)
    by the exact factor 2^k when top < 1/2; 0 for top >= 1/2 or top = 0.
    An array of tops gives one k per entry."""
    return np.maximum(0, -np.frexp(top)[1])


def _lifted(points: np.ndarray) -> tuple[np.ndarray, int]:
    """(points * 2^k, k), with k the _lift_exponent of the largest
    |entry|: exact, and the points themselves when k = 0."""
    # math.frexp on a float: numpy's scalar frexp costs as much as the
    # norms that the lift guards
    k = max(0, -math.frexp(float(np.abs(points).max()))[1])
    return (np.ldexp(points, k) if k else points), k


def _min_norm_combination(points):
    """Minimum-norm point x of the convex hull of the given points, with
    the weights that give it: (x, corral, lam), x = lam @ points[corral].

    Wolfe's algorithm.  Terminates finitely on exact data; the stopping
    test, relative to the largest squared norm of the points, tolerates
    double-precision roundoff.  A set smaller than 1/2 is solved lifted
    by the exact 2^k of _lifted and x scaled back.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts[0].copy(), [0], np.ones(1)
    pts, lift = _lifted(pts)
    norms2 = np.einsum("ij,ij->i", pts, pts)
    corral = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = pts[corral[0]].copy()
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
                # numerical stall; accept the clipped point
                lam = np.clip(lam, 0.0, None)
                lam = lam / lam.sum()
                x = lam @ sub
                break
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
    return (np.ldexp(x, -lift) if lift else x), corral, lam


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

    # called with more than two distinct rows, so each chain keeps at
    # least its two ends and the hull is never empty
    return np.array(half(p)[:-1] + half(p[::-1])[:-1])


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


def _wolfe_block(q: np.ndarray, v: np.ndarray, skip):
    """Wolfe's iteration for at most CERT_BLOCK queries at once; see
    _batched_min_norm.  Returns (corral, lam), padded to dim + 1 slots,
    with lam >= 0 summing to 1 and 0 on the unused slots."""
    b, dim = q.shape
    m, k = v.shape[0], dim + 1
    rows = np.arange(b)
    # |v_j - q_r|^2 expanded: its rounding moves only the start and the
    # scale, never the validity of the answer
    d2 = (np.einsum("ij,ij->i", v, v)[None, :] - 2.0 * (q @ v.T)
          + np.einsum("ij,ij->i", q, q)[:, None])
    scale2 = np.maximum(d2.max(axis=1), 0.0)
    tol, root = 1e-12 * scale2, np.sqrt(scale2)
    if skip is not None:
        d2[rows, skip] = np.inf
    corral = np.zeros((b, k), dtype=np.intp)
    corral[:, 0] = np.argmin(d2, axis=1)
    act = np.zeros((b, k), dtype=bool)
    act[:, 0] = True
    lam = np.zeros((b, k))
    lam[:, 0] = 1.0
    # Row s of aug[r] is (v[corral[r, s]] - q[r], sqrt(c_r), 0) on a used
    # slot and (0, 0, e_s) on an unused one, so aug[r] @ aug[r].T is
    # P P^T + c_r a a^T + diag(1 - a): Wolfe's e e^T + P^T P with the
    # unused slots as identity rows.  On sum(mu) = 1 the c_r term is
    # constant, and the matrix is nonsingular exactly when the corral is
    # affinely independent; c_r = scale2 keeps it free of scale.
    aug = np.zeros((b, k, dim + 1 + k))
    aug[:, 0, :dim] = v[corral[:, 0]] - q
    aug[:, 0, dim] = root
    aug[:, 1:, dim + 2:] = np.eye(k - 1)
    x = aug[:, 0, :dim].copy()
    run = np.ones(b, dtype=bool)
    for _ in range(16 * m + 64):
        # major step: the point most opposite x joins the corral, unless
        # Wolfe's test stops the query
        live = np.flatnonzero(run)
        if live.size == 0:
            break
        xl = x[live]
        at = np.arange(live.size)
        dots = xl @ v.T - np.einsum("ij,ij->i", q[live], xl)[:, None]
        if skip is not None:
            dots[at, skip[live]] = np.inf
        j = np.argmin(dots, axis=1)
        used = act[live]
        stop = (dots[at, j] >= np.einsum("ij,ij->i", xl, xl) - tol[live])
        stop |= (used & (corral[live] == j[:, None])).any(axis=1)
        stop |= used.all(axis=1)
        run[live[stop]] = False
        minor, j = live[~stop], j[~stop]
        slot = np.argmin(used[~stop], axis=1)
        corral[minor, slot] = j
        act[minor, slot] = True
        aug[minor, slot, :dim] = v[j] - q[minor]
        aug[minor, slot, dim] = root[minor]
        aug[minor, slot, dim + 1 + slot] = 0.0
        while minor.size:
            # one batched solve for the affine minimiser mu over each
            # corral
            a, s = act[minor], aug[minor]
            gram = s @ s.transpose(0, 2, 1)
            rhs = a[:, :, None].astype(float)
            try:
                y = np.linalg.solve(gram, rhs)[:, :, 0]
            except np.linalg.LinAlgError:
                y = (np.linalg.pinv(gram) @ rhs)[:, :, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                mu = y / y.sum(axis=1, keepdims=True)
            bad = ~np.isfinite(mu).all(axis=1)
            back = ~bad & (mu < -1e-12).any(axis=1)
            new = np.clip(mu, 0.0, None)
            shrink = np.zeros(minor.size, dtype=bool)
            if back.any():
                # step from lam toward mu until a weight reaches zero, and
                # drop the slots left without weight
                back = np.flatnonzero(back)
                old, mb, ab = lam[minor[back]], mu[back], a[back]
                steps = np.divide(old, old - mb, where=mb < 0.0,
                                  out=np.full(old.shape, np.inf))
                theta = np.minimum(steps.min(axis=1), 1.0)[:, None]
                step = (1.0 - theta) * old + theta * mb
                keep = ab & (step > 1e-14)
                new[back] = np.where(keep, step, 0.0)
                bad[back] = ~keep.any(axis=1)
                shrink[back] = (keep != ab).any(axis=1) & ~bad[back]
            if bad.any():
                # a failed solve ends that query's iteration where it stands
                new[bad] = lam[minor[bad]]
                run[minor[bad]] = False
            new /= new.sum(axis=1, keepdims=True)
            lam[minor] = new
            out = ~shrink
            x[minor[out]] = np.einsum("rk,rkd->rd", new[out], s[out, :, :dim])
            if not shrink.any():
                break
            drop = (new[shrink] == 0.0) & a[shrink]
            minor = minor[shrink]
            r, c = np.nonzero(drop)
            act[minor[r], c] = False
            aug[minor[r], c] = 0.0
            aug[minor[r], c, dim + 1 + c] = 1.0
    return corral, lam


def _batched_min_norm(q: np.ndarray, v: np.ndarray, skip=None):
    """Wolfe's min-norm point x_r of conv{v_j - q_r}, for every query row
    q_r, leaving out j = skip[r] when skip is given: (x, corral, lam).

    x_r = lam_r @ (v[corral_r] - q_r) with lam_r >= 0 summing to 1, so
    |x_r| bounds the distance from q_r to the hull from above however the
    iteration ended.  Queries run in blocks of at most CERT_BLOCK, so that
    the temporaries stay at CERT_BLOCK x len(v).  This serves certificates
    only: nearest_point and steepest_rate keep the scalar solver.
    """
    n, dim = q.shape
    corral = np.empty((n, dim + 1), dtype=np.intp)
    lam = np.empty((n, dim + 1))
    for start in range(0, n, CERT_BLOCK):
        blk = slice(start, start + CERT_BLOCK)
        corral[blk], lam[blk] = _wolfe_block(
            q[blk], v, None if skip is None else skip[blk])
    x = np.einsum("rk,rkd->rd", lam, v[corral] - q[:, None, :])
    return x, corral, lam


def _gap_wins(scores: np.ndarray, best: np.ndarray, gap_tol: float,
              h: np.ndarray) -> np.ndarray:
    """Rows r of scores (one per direction h[r]) in which column best[r]
    beats every other column by more than gap_tol * |h[r]|; scores is
    overwritten."""
    rows = np.arange(scores.shape[0])
    top = scores[rows, best]
    scores[rows, best] = -np.inf
    gap = top - scores.max(axis=1)
    return gap > gap_tol * np.linalg.norm(h, axis=1)


def _cert_gap(pts: np.ndarray) -> float:
    return CERT_GAP * max(1.0, float(np.abs(pts).max()))


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
    gap_tol = _cert_gap(pts)
    cert = np.zeros(m, dtype=bool)
    n_dirs = CERT_DIRS_PER_POINT * m
    buf = np.empty((min(CERT_BLOCK, n_dirs), m))
    for start in range(0, n_dirs, CERT_BLOCK):
        h = rng.standard_normal((min(CERT_BLOCK, n_dirs - start), dim))
        scores = np.matmul(h, pts.T, out=buf[:h.shape[0]])  # row per direction
        best = np.argmax(scores, axis=1)
        cert[best[_gap_wins(scores, best, gap_tol, h)]] = True
        if cert.all():
            break
    return cert


def _separated(pts: np.ndarray, idx: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Whether pts[idx[r]] passes _certified_extreme's gap rule in the
    direction h[r], scored in blocks of at most CERT_BLOCK."""
    gap_tol = _cert_gap(pts)
    won = np.empty(idx.size, dtype=bool)
    for start in range(0, idx.size, CERT_BLOCK):
        blk = slice(start, start + CERT_BLOCK)
        won[blk] = _gap_wins(h[blk] @ pts.T, idx[blk], gap_tol, h[blk])
    return won


def _certificates(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex, inside): masks of the points certified to be kept and to
    be dropped by _drop_redundant's rule, in the order of the module
    docstring."""
    vertex = _certified_extreme(pts)
    inside = np.zeros(pts.shape[0], dtype=bool)
    undecided = np.flatnonzero(~vertex)
    if undecided.size < _CERT_BATCH_MIN:
        return vertex, inside
    kept = np.flatnonzero(vertex)
    if kept.size:
        # certified vertices are never dropped, so a point within FEAS_TOL
        # of their hull is within FEAS_TOL of the points kept at its turn
        x = _batched_min_norm(pts[undecided], pts[kept])[0]
        near = np.linalg.norm(x, axis=1) <= FEAS_TOL
        inside[undecided[near]] = True
        far = undecided[~near]
        vertex[far] = _separated(pts, far, -x[~near])
        undecided = far[~vertex[far]]
    if undecided.size:
        x = _batched_min_norm(pts[undecided], pts, skip=undecided)[0]
        vertex[undecided] = _separated(pts, undecided, -x)
    return vertex, inside


def _drop_redundant(pts: np.ndarray) -> np.ndarray:
    """Drop, in row order, each point within FEAS_TOL of the hull of the
    points still kept.  Certified vertices are kept and interior-certified
    points dropped without a scalar Wolfe solve (_certificates); every
    other point is solved against the points still kept."""
    m = pts.shape[0]
    vertex, inside = _certificates(pts)
    alive = np.ones(m, dtype=bool)
    n_alive = m
    for i in range(m):
        if n_alive <= 1:
            break
        if vertex[i]:
            continue
        alive[i] = False
        if inside[i] or float(np.linalg.norm(
                _min_norm_point(pts[alive] - pts[i]))) <= FEAS_TOL:
            n_alive -= 1
        else:
            alive[i] = True
    return pts[alive]


def _canonical(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise GeometryError("a polytope needs at least one point in R^n, n >= 1")
    top = float(np.abs(pts).max())
    if not np.isfinite(top):
        raise GeometryError("polytope vertices must be finite")
    k = _lift_exponent(top)
    # + 0.0 drops negative zeros so formatting stays canonical
    pts = _dedup((np.ldexp(pts, k) if k else pts) + 0.0, DEDUP_TOL)
    m, dim = pts.shape
    if m > 2:
        if dim == 1:
            pts = np.array([[pts[:, 0].min()], [pts[:, 0].max()]])
        elif dim == 2:
            pts = _hull_2d(pts, FEAS_TOL)
            pts = pts[np.lexsort(pts.T[::-1])]
        else:
            pts = _drop_redundant(pts)
    if k:  # the kept rows are lifted input rows, so this is exact
        pts = np.ldexp(pts, -k)
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
    # the norm is taken lifted, where no square underflows
    lifted, k = _lifted(a.vertices - q)
    x = _min_norm_point(lifted)
    return q + np.ldexp(x, -k), float(np.ldexp(np.linalg.norm(x), -k))


def contains(a: Polytope, q) -> bool:
    """Membership test within FEAS_TOL, consistent with nearest_point by
    construction."""
    return nearest_point(a, q)[1] <= FEAS_TOL


def _svd_split(points, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(span rows, complement columns): orthonormal bases of span{points}
    and of its orthogonal complement in R^dim, from one SVD.

    Singular values up to FEAS_TOL * max(s) count as zero, a cut relative
    to the set, so 2^k P has the rank of P; this is the SVD and cut of
    scipy.linalg.null_space(pts, rcond=FEAS_TOL), and the complement has
    its bytes.  No points, or only zeros, span nothing.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return np.zeros((0, dim)), np.eye(dim)
    _, s, vh = np.linalg.svd(pts, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * FEAS_TOL))
    return vh[:rank], vh[rank:].T


def span_basis(points) -> np.ndarray:
    """Orthonormal basis (rows) of span{points}; empty for all-zero input."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _svd_split(pts, pts.shape[1])[0]


def complement_basis(points, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of
    span{points} in R^dim, by the rank rule of span_basis."""
    return _svd_split(points, dim)[1]
