"""Quasidifferential Mangasarian-Fromovitz constraint qualification.

For a feasible point of F(x,p) = 0, g(x,p) <= 0 the qualification asks
two things of the quasidifferential sums A_j = sub_j + sup_j:

  1. the equality sums are linearly independent as sets: 0 = sum_j l_j a_j
     with a_j in A_j forces l = 0;
  2. some direction hbar annihilates every equality-sum vector and is
     strictly negative on every active inequality sum.

Condition 1 is decided exactly.  Writing the multipliers as s mu with
signs s and mu in the simplex, the l sets are dependent exactly when 0 is
in conv(s_1 A_1 u ... u s_l A_l) for some s with s_1 = +1 (Gordan's
alternative for sets; Demyanov & Rubinov, Quasidifferential Calculus,
1986): 2^(l-1) nearest-point solves, for every 1 <= l <= n.  The range
of the determinant over vertex tuples also decides the square case l = n
(the determinant is multilinear in the rows, so the extremes sit at
vertices); no command reads it, and full_rank_det_range stays as the
tests' reference for that case.

Condition 2 is the same question.  With Q an orthonormal basis of the
complement of the equality sums' span, a u with <v, Q u> < 0 for every
vertex v of the active inequality sums exists exactly when 0 is outside
conv{Q^T v} (Gordan, Math. Ann. 6, 1873; Mangasarian, Nonlinear
Programming, 1969, ch. 2).  One nearest-point solve gives that hull's
least-norm point x*; if x* is not 0, hbar = -Q x*/|x*| is the unit l2
direction whose worst slack min_v -<v, hbar> is largest, and that
largest slack, the margin, is |x*|.  "Is x* zero?" is the hull test's
cut, so both conditions decide "is 0 in this hull?" by one rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import qd_plus_set
from .expressions import Binding, qd_at
from .geometry import (FEAS_TOL, Polytope, _lifted, _min_norm_combination,
                       complement_basis)
from .regularity import BudgetExceededError, SystemSpec

# caps the 2^(l-1) sign patterns of the hull test
PATTERN_BUDGET = 10 ** 6


class InfeasiblePointError(ValueError):
    """The base point does not satisfy the constraint system."""

    def __init__(self, residuals: dict):
        detail = ", ".join(f"{k} = {v:.6g}" for k, v in residuals.items())
        super().__init__(f"base point infeasible: {detail}")
        self.residuals = residuals


def active_inequalities(s: SystemSpec, b: Binding,
                        tol: float = FEAS_TOL) -> list[int]:
    """Indices i with |g_i(x,p)| <= tol."""
    return [i for i, g in enumerate(s.inequalities)
            if abs(float(g.evaluate(b.point, b.params))) <= tol]


def feasibility_violations(s: SystemSpec, b: Binding,
                           tol: float = FEAS_TOL) -> dict:
    """Constraint residuals exceeding tol, keyed like 'f2' / 'g1'; s is a
    system or a program."""
    out = {}
    for j, f in enumerate(s.equalities):
        r = float(f.evaluate(b.point, b.params))
        if abs(r) > tol:
            out[f"f{j + 1}"] = r
    for i, g in enumerate(s.inequalities):
        r = float(g.evaluate(b.point, b.params))
        if r > tol:
            out[f"g{i + 1}"] = r
    return out


@dataclass(frozen=True)
class DetRangeResult:
    min_det: float
    max_det: float
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]
    count: int

    @property
    def full_rank(self) -> bool:
        return self.min_det > 0.0 or self.max_det < 0.0


def full_rank_det_range(rows: Sequence[Polytope],
                        budget: int = 10 ** 6) -> DetRangeResult:
    """Exact determinant range over all vertex tuples (square case).

    Ties for the extremes break to the lexicographically first tuple.
    """
    l = len(rows)
    if l == 0:
        raise ValueError("no rows")
    n = rows[0].dim
    if l != n:
        raise ValueError(f"determinant range needs l = n, got l={l}, n={n}")
    counts = [r.nvertices for r in rows]
    total = int(np.prod(counts, dtype=np.int64))
    if total > budget:
        raise BudgetExceededError(
            f"vertex-tuple count {total} exceeds the budget {budget}")
    # lexicographic order, so the first occurrence that argmin and argmax
    # return is the tie-break of the docstring
    combos = np.indices(counts).reshape(l, -1).T  # (total, l)
    dets = np.empty(total)
    chunk = 200_000
    for start in range(0, total, chunk):
        idx = combos[start:start + chunk]
        mats = np.stack([rows[j].vertices[idx[:, j]] for j in range(l)], axis=1)
        dets[start:start + chunk] = np.linalg.det(mats)
    i_min, i_max = int(np.argmin(dets)), int(np.argmax(dets))
    return DetRangeResult(float(dets[i_min]), float(dets[i_max]),
                          tuple(int(v) for v in combos[i_min]),
                          tuple(int(v) for v in combos[i_max]), total)


def _nearest_to_zero(points: np.ndarray, tol: float = FEAS_TOL):
    """(x, corral, weights, dist, inside): Wolfe's least-norm point x of
    conv(points) in lifted units, the weights on points[corral] that give
    it, dist = |x| in the points' units, and inside when |x| <= tol *
    max|point|.

    The points are lifted by geometry's rule (a set whose largest |entry|
    is below 1/2 goes into [1/2, 1) by an exact power of two, larger ones
    stay as they are), and x and the cut are in lifted units, where no
    norm underflows.  The cut is relative to the largest point, as the
    SVD cut of geometry.complement_basis is, so that scaling every point
    by one factor keeps the verdict; all-zero points are inside.
    """
    lifted, k = _lifted(points)
    x, corral, weights = _min_norm_combination(lifted)
    dist = float(np.linalg.norm(x))
    inside = dist <= tol * np.linalg.norm(lifted, axis=1).max()
    return x, corral, weights, float(np.ldexp(dist, -k)), inside


def _sign_pattern_dependence(rows: Sequence[Polytope],
                             tol: float = FEAS_TOL):
    """(lam, dist) for the first sign pattern whose hull is inside the
    cut of _nearest_to_zero, lam = s mu at unit l2 norm with mu_j the
    Wolfe weight on A_j's rows; (None, least distance) when every hull is
    outside.  All-zero sets are dependent."""
    owner = np.repeat(np.arange(len(rows)), [r.nvertices for r in rows])
    points = np.vstack([r.vertices for r in rows])
    least = np.inf
    for tail in itertools.product((1.0, -1.0), repeat=len(rows) - 1):
        signs = np.array((1.0,) + tail)
        _, corral, weights, dist, inside = _nearest_to_zero(
            signs[owner, None] * points, tol)
        if inside:
            lam = signs * np.bincount(owner[corral], weights=weights,
                                      minlength=len(rows))
            return lam / np.linalg.norm(lam), dist
        least = min(least, dist)
    return None, least


@dataclass(frozen=True)
class FullRankResult:
    """The independence verdict.  The hull test also gives distance, the
    least distance of 0 from the signed hulls it solved, and the count
    sign_patterns of its hulls; both are None for the other methods."""

    full_rank: bool
    method: str
    certificate: str
    distance: float | None = None
    sign_patterns: int | None = None
    failing_lambda: tuple | None = None


def full_rank_general(rows: Sequence[Polytope], n: int, *,
                      budget: int = PATTERN_BUDGET,
                      tol: float = FEAS_TOL) -> FullRankResult:
    """Linear independence of the sets, decided exactly for every shape.

    l > n is dependent by counting; 1 <= l <= n runs the 2^(l-1)
    sign-pattern hull tests, which must fit in budget.  A dependent
    verdict carries the unit failing lambda of its certificate.
    """
    l = len(rows)
    if l == 0:
        return FullRankResult(True, "no equalities", "vacuously independent")
    if l > n:
        return FullRankResult(False, "counting",
                              f"{l} sets in R^{n} are always dependent")
    patterns = 2 ** (l - 1)
    if patterns > budget:
        raise BudgetExceededError(
            f"sign-pattern count {patterns} exceeds the budget {budget}")
    lam, dist = _sign_pattern_dependence(rows, tol)
    if lam is None:
        return FullRankResult(True, "sign-pattern hull test",
                              f"0 is outside every signed hull ({patterns} "
                              "of them)", dist, patterns)
    return FullRankResult(False, "sign-pattern hull test",
                          "0 is in a signed hull", dist, patterns,
                          tuple(float(v) for v in lam))


@dataclass(frozen=True)
class HbarResult:
    hbar: np.ndarray | None
    margin: float
    eq_span_rank: int
    complement_dim: int


def find_hbar(eq_sums: Sequence[Polytope], ineq_sums: Sequence[Polytope],
              n: int) -> HbarResult:
    """Direction orthogonal to all equality sums, strictly negative on the
    active inequality sums, by Gordan's alternative.

    hbar = -Q x*/|x*| has unit l2 norm, with x* the least-norm point of
    conv{Q^T v} over the inequality-sum vertices v, and margin = |x*| is
    the largest worst slack over unit directions.  When x* is within the
    hull test's cut of 0, at the default FEAS_TOL, no hbar exists and
    margin is 0.  With no active
    inequality the requirement is vacuous and margin is +inf; with no
    complement left it is -inf.
    """
    eq_vertices = (np.vstack([p.vertices for p in eq_sums])
                   if eq_sums else np.zeros((0, n)))
    # one SVD gives the complement and, with it, the printed rank
    q = complement_basis(eq_vertices, n)
    d = q.shape[1]
    rank = n - d
    if not ineq_sums:
        hbar = q[:, 0] if d > 0 else np.zeros(n)
        return HbarResult(hbar, np.inf, rank, d)
    if d == 0:
        return HbarResult(None, -np.inf, rank, 0)
    x, _, _, margin, inside = _nearest_to_zero(
        np.vstack([p.vertices for p in ineq_sums]) @ q)
    if inside:
        return HbarResult(None, 0.0, rank, d)
    return HbarResult(q @ (-x / np.linalg.norm(x)), margin, rank, d)


# the one caveat of every q.d.-MFCQ verdict
CAVEATS = ("image-set regularity (outer semicontinuity, local closedness of "
           "the target section) is assumed, not verified",)


@dataclass
class MfcqReport:
    """The q.d.-MFCQ at a point: the active inequalities, the sums
    A = sub + sup of the equalities, the independence verdict (rank) and
    the direction search (direction)."""

    active: tuple[int, ...]
    eq_plus: list
    rank: FullRankResult
    direction: HbarResult
    verdict: bool
    warnings: list


def qd_mfcq(s: SystemSpec, x, *, tol: float = FEAS_TOL,
            budget: int = PATTERN_BUDGET, walked=None) -> MfcqReport:
    """Full qualification check at a feasible point.

    verdict is rank.full_rank AND direction.margin > 0.  Infeasible base
    points are rejected with their residuals.  walked, when given, is a
    dict that receives the pair at x of each f_j and active g_i, keyed by
    the id of the function, for program_data to read.
    """
    b = s.binding(x)
    residuals = feasibility_violations(s, b, tol)
    if residuals:
        raise InfeasiblePointError(residuals)

    active = active_inequalities(s, b, tol)
    walked = {} if walked is None else walked
    for fn in s.equalities + tuple(s.inequalities[i] for i in active):
        walked[id(fn)] = qd_at(fn, b)
    eq_plus = [qd_plus_set(walked[id(f)]) for f in s.equalities]
    ineq_plus = [qd_plus_set(walked[id(s.inequalities[i])]) for i in active]

    fr = full_rank_general(eq_plus, s.n, budget=budget, tol=tol)
    hb = find_hbar(eq_plus, ineq_plus, s.n)
    warnings = []
    if hb.eq_span_rank == s.n and s.equalities:
        warnings.append(
            "equality sums span the whole space; with active inequalities "
            "the qualification needs spare dimensions and fails here")
    return MfcqReport(tuple(active), eq_plus, fr, hb,
                      fr.full_rank and hb.margin > 0.0, warnings)
