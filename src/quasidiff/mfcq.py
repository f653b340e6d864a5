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
1986): 2^(l-1) nearest-point solves.  The square case l = n reads the
determinant range over vertex tuples instead, which the reports print
(the determinant is multilinear in the rows, so the extremes sit at
vertices and the image over the connected product is an interval).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calculus import qd_plus_set
from .expressions import Binding, qd_at
from .geometry import (FEAS_TOL, LpStatus, Polytope, _lift_exponent,
                       _min_norm_combination, complement_basis, solve_lp,
                       support)
from .regularity import BudgetExceededError, SystemSpec

DET_BUDGET = 10 ** 6


class InfeasiblePointError(ValueError):
    """The base point does not satisfy the constraint system."""

    def __init__(self, residuals: dict):
        detail = ", ".join(f"{k} = {v:.6g}" for k, v in residuals.items())
        super().__init__(f"base point infeasible: {detail}")
        self.residuals = residuals


def active_inequalities(s: SystemSpec, b: Binding,
                        tol: float = FEAS_TOL) -> list[int]:
    """Indices i with |g_i(x,p)| <= tol."""
    out = []
    for i, g in enumerate(s.inequalities):
        if abs(float(g.evaluate(b.point, b.params))) <= tol:
            out.append(i)
    return out


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
                        budget: int = DET_BUDGET) -> DetRangeResult:
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
    grids = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
    combos = np.stack([g.reshape(-1) for g in grids], axis=1)  # (total, l)
    best_min = np.inf
    best_max = -np.inf
    argmin = argmax = (0,) * l
    chunk = 200_000
    for start in range(0, total, chunk):
        idx = combos[start:start + chunk]
        mats = np.stack([rows[j].vertices[idx[:, j]] for j in range(l)], axis=1)
        dets = np.linalg.det(mats)
        i_min = int(np.argmin(dets))
        i_max = int(np.argmax(dets))
        if dets[i_min] < best_min:
            best_min = float(dets[i_min])
            argmin = tuple(int(v) for v in idx[i_min])
        if dets[i_max] > best_max:
            best_max = float(dets[i_max])
            argmax = tuple(int(v) for v in idx[i_max])
    return DetRangeResult(best_min, best_max, argmin, argmax, total)


def _sign_pattern_dependence(rows: Sequence[Polytope],
                             tol: float = FEAS_TOL):
    """(lam, dist) for the first sign pattern whose hull lies within
    tol * max|a| of 0, lam = s mu at unit l2 norm with mu_j the Wolfe
    weight on A_j's rows; (None, least distance) when every hull is
    farther.  The cut is relative to the largest vertex, as the SVD cut of
    geometry.complement_basis is, so that scaling every set by one factor
    keeps the verdict; all-zero sets are dependent.  The sets are lifted
    by geometry's rule (a union whose largest |entry| is below 1/2 goes
    into [1/2, 1) by an exact power of two, larger ones stay as they are)
    and compared in lifted units, where no norm underflows."""
    owner = np.repeat(np.arange(len(rows)), [r.nvertices for r in rows])
    stacked = np.vstack([r.vertices for r in rows])
    k = _lift_exponent(np.abs(stacked).max())
    lifted = np.ldexp(stacked, k) if k else stacked
    big = np.linalg.norm(lifted, axis=1).max()
    least = np.inf
    for tail in itertools.product((1.0, -1.0), repeat=len(rows) - 1):
        signs = np.array((1.0,) + tail)
        x, corral, weights = _min_norm_combination(signs[owner, None] * lifted)
        dist = float(np.linalg.norm(x))
        if dist <= tol * big:
            lam = signs * np.bincount(owner[corral], weights=weights,
                                      minlength=len(rows))
            return lam / np.linalg.norm(lam), float(np.ldexp(dist, -k))
        least = min(least, dist)
    return None, float(np.ldexp(least, -k))


@dataclass(frozen=True)
class FullRankResult:
    full_rank: bool
    method: str
    certificate: str
    det_range: DetRangeResult | None = None
    failing_lambda: tuple | None = None


def full_rank_general(rows: Sequence[Polytope], n: int, *,
                      budget: int = DET_BUDGET,
                      tol: float = FEAS_TOL) -> FullRankResult:
    """Linear independence of the sets, decided exactly for every shape.

    l > n is dependent by counting; l = n reads the determinant range;
    1 <= l < n runs the 2^(l-1) sign-pattern hull tests, which must fit
    in budget.  A dependent verdict from the hull test carries the unit
    failing lambda of its certificate.
    """
    l = len(rows)
    if l == 0:
        return FullRankResult(True, "no equalities", "vacuously independent")
    if l > n:
        return FullRankResult(False, "counting",
                              f"{l} sets in R^{n} are always dependent")
    if l == n:
        dr = full_rank_det_range(rows, budget)
        cert = (f"0 not in det range [{dr.min_det:.12g}, {dr.max_det:.12g}]"
                if dr.full_rank else
                f"det range [{dr.min_det:.12g}, {dr.max_det:.12g}] contains 0")
        return FullRankResult(dr.full_rank, "determinant range", cert, dr)
    patterns = 2 ** (l - 1)
    if patterns > budget:
        raise BudgetExceededError(
            f"sign-pattern count {patterns} exceeds the budget {budget}")
    lam, dist = _sign_pattern_dependence(rows, tol)
    if lam is None:
        return FullRankResult(True, "sign-pattern hull test",
                              f"0 is outside every signed hull ({patterns} "
                              f"of them), least distance {dist:.6g}")
    return FullRankResult(False, "sign-pattern hull test",
                          f"0 is in a signed hull, distance {dist:.3g}",
                          failing_lambda=tuple(float(v) for v in lam))


@dataclass(frozen=True)
class HbarResult:
    hbar: np.ndarray | None
    margin: float
    eq_span_rank: int
    complement_dim: int


def find_hbar(eq_sums: Sequence[Polytope], ineq_sums: Sequence[Polytope],
              n: int) -> HbarResult:
    """Direction orthogonal to all equality sums, strictly negative on the
    active inequality sums, found by LP with an infinity-norm box.

    margin is the best achievable worst slack; hbar is present exactly
    when margin > 0.  With no active inequality the requirement is vacuous
    and margin is +inf.  Among maximizers, the returned hbar has minimal
    l1 norm (second-stage LP), which makes reports reproducible.
    """
    eq_vertices = (np.vstack([p.vertices for p in eq_sums])
                   if eq_sums else np.zeros((0, n)))
    # one SVD gives the complement and, with it, the printed rank
    q = complement_basis(eq_vertices, n) if eq_vertices.size else np.eye(n)
    d = q.shape[1]
    rank = n - d
    if not ineq_sums:
        hbar = q[:, 0] if d > 0 else np.zeros(n)
        return HbarResult(hbar, np.inf, rank, d)
    if d == 0:
        return HbarResult(None, -np.inf, rank, 0)

    # stage 1: maximize the worst slack t over h = q u, |h|_inf <= 1
    vrows = np.vstack([p.vertices for p in ineq_sums])
    a_ub = []
    b_ub = []
    for v in vrows:
        a_ub.append(np.concatenate([v @ q, [1.0]]))  # <v, qu> + t <= 0
        b_ub.append(0.0)
    for k in range(n):
        a_ub.append(np.concatenate([q[k], [0.0]]))
        b_ub.append(1.0)
        a_ub.append(np.concatenate([-q[k], [0.0]]))
        b_ub.append(1.0)
    c = np.zeros(d + 1)
    c[d] = 1.0
    out = solve_lp(c, a_ub=np.array(a_ub), b_ub=np.array(b_ub), maximize=True)
    if out.status != LpStatus.FEASIBLE:
        return HbarResult(None, -np.inf, rank, d)
    t_star = float(out.objective)
    if t_star <= 0.0:
        return HbarResult(None, t_star, rank, d)

    # stage 2: among maximizers, minimize |h|_1 (variables u, h+, h-)
    nvar = d + 2 * n
    a_eq = np.zeros((n, nvar))
    a_eq[:, :d] = q
    a_eq[:, d:d + n] = -np.eye(n)
    a_eq[:, d + n:] = np.eye(n)
    rows2 = []
    rhs2 = []
    for v in vrows:
        rows2.append(np.concatenate([v @ q, np.zeros(2 * n)]))
        rhs2.append(-t_star)
    cost = np.concatenate([np.zeros(d), np.ones(2 * n)])
    bounds = [(None, None)] * d + [(0.0, 1.0)] * (2 * n)
    out2 = solve_lp(cost, a_ub=np.array(rows2), b_ub=np.array(rhs2),
                    a_eq=a_eq, b_eq=np.zeros(n), bounds=bounds)
    if out2.status == LpStatus.FEASIBLE:
        hbar = q @ out2.point[:d]
    else:
        hbar = q @ out.point[:d]
    margin = min(-support(p, hbar) for p in ineq_sums)
    return HbarResult(hbar, float(margin), rank, d)


@dataclass
class MfcqReport:
    point: tuple
    params: dict
    active: tuple[int, ...]
    eq_plus: list
    ineq_plus_active: list
    full_rank: bool
    full_rank_method: str
    full_rank_certificate: str
    det_range: DetRangeResult | None
    failing_lambda: tuple | None
    hbar: np.ndarray | None
    margin: float
    eq_span_rank: int
    complement_dim: int
    verdict: bool
    warnings: list = field(default_factory=list)
    caveats: list = field(default_factory=list)


def qd_mfcq(s: SystemSpec, x, *, tol: float = FEAS_TOL,
            budget: int = DET_BUDGET) -> MfcqReport:
    """Full qualification check at a feasible point.

    verdict is full_rank AND margin > 0.  Infeasible base points are
    rejected with their residuals.
    """
    b = s.binding(x)
    residuals = feasibility_violations(s, b, tol)
    if residuals:
        raise InfeasiblePointError(residuals)

    active = active_inequalities(s, b, tol)
    eq_plus = [qd_plus_set(qd_at(f, b)) for f in s.equalities]
    ineq_plus = [qd_plus_set(qd_at(s.inequalities[i], b)) for i in active]

    fr = full_rank_general(eq_plus, s.n, budget=budget, tol=tol)
    hb = find_hbar(eq_plus, ineq_plus, s.n)
    verdict = fr.full_rank and hb.margin > 0.0

    warnings = []
    if hb.eq_span_rank == s.n and s.equalities:
        warnings.append(
            "equality sums span the whole space; with active inequalities "
            "the qualification needs spare dimensions and fails here")
    caveats = [
        "image-set regularity (outer semicontinuity, local closedness of "
        "the target section) is assumed, not verified",
    ]
    return MfcqReport(
        point=tuple(float(v) for v in b.point),
        params=dict(s.params),
        active=tuple(active),
        eq_plus=eq_plus,
        ineq_plus_active=ineq_plus,
        full_rank=fr.full_rank,
        full_rank_method=fr.method,
        full_rank_certificate=fr.certificate,
        det_range=fr.det_range,
        failing_lambda=fr.failing_lambda,
        hbar=hb.hbar,
        margin=hb.margin,
        eq_span_rank=hb.eq_span_rank,
        complement_dim=hb.complement_dim,
        verdict=verdict,
        warnings=warnings,
        caveats=caveats,
    )
