"""l1 exact penalty and optimality certificates for constrained programs.

For min u(x) s.t. f_j(x) = 0, g_i(x) <= 0 the penalty

    Psi_c = u + c (sum_j |f_j| + sum_i max{g_i, 0})

is quasidifferentiable whenever the data are.  With phi the constraint
penalty in parentheses, its pair at a point follows from those of u and
phi by the sum rule: [sub u + c sub phi, sup u + c sup phi] for c >= 0.
So program_data walks u, each f_j and g_i, and phi once into a
ProgramData record, and every check below reads that record.  Two
equivalent necessary conditions are checked at a feasible candidate point:

  * stationarity of Psi_c: 0 in sub(Psi_c) + w for every w in
    sup(Psi_c), a polytope containment per superdifferential vertex;
  * multiplier form: for every selection of vertices w0 of sup(u),
    v_j of sub(f_j), w_j of sup(f_j) and z_i of sup(g_i) over the
    active i there exist mu_lo, mu_hi, lam >= 0 with

        0 in sub(u) + w0 - sum_j mu_lo_j (v_j + sup(f_j))
                         + sum_j mu_hi_j (sub(f_j) + w_j)
                         + sum_i lam_i  (sub(g_i) + z_i),

    lam_i = 0 off the active set and max{mu_lo_j + mu_hi_j, lam_i}
    bounded by the penalty parameter.

Each selection reduces to a small LP once every scalar-times-polytope
term is parameterized by nonnegative weights on the polytope vertices;
the scalar is recovered as the weight sum.  Both verdicts agree at
feasible points for the same c, independent of which quasidifferentials
represent the data, and that equivalence is cross-asserted in tests.

The exact penalty threshold c*, the least c at which stationarity
holds, is found by the same weight parameterization: one LP per pair of
superdifferential vertices of u and of the constraint penalty, with c*
the largest per-pair minimum (estimate_c_star has the proof), and
c* = inf when some pair admits no c at all.

Why c* = inf proves non-optimality under a qualification: a local error
bound d(x, S) <= L phi(x) near the point, with phi the constraint
penalty, makes a local minimiser of the Lipschitz objective u on S a
local minimiser of Psi_c for every c >= Lip(u) L (exact penalization),
and a local minimiser of Psi_c is stationary.  The q.d.-MFCQ gives such
a bound (metric regularity).  So does a system whose functions are all
piecewise affine: the map (y, z) -> {x : f(x) = y, g(x) <= z} then has
a graph that is a finite union of polyhedra, and such a polyhedral
multifunction is upper Lipschitz at every point (Robinson, "Some
continuity properties of polyhedral multifunctions", Math. Prog. Study
14, 1981).  With either certificate, c* = inf means the point is not a
local minimiser; without one it proves nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from .calculus import Quasidifferential, qd_add, qd_scale
from .expressions import (Abs, Add, Binding, Const, Expr, Max, Mul,
                          is_piecewise_affine, qd_at)
from .geometry import FEAS_TOL, LpStatus, Polytope, contains, solve_lp
# feasibility_violations is not called here; it stays importable from
# this module because perfbench/tracer.py wraps it under this name
from .mfcq import active_inequalities, feasibility_violations, qd_mfcq
from .regularity import SystemSpec

SELECTION_BUDGET = 10 ** 5
C_LADDER = (0.5, 1.0, 2.0, 10.0, 100.0)


class OptimalityError(ValueError):
    """Malformed program data or selection indices."""


@dataclass(frozen=True)
class ProgramSpec:
    """Objective u, equalities f_j, inequalities g_i on R^n."""

    n: int
    objective: Expr
    equalities: tuple[Expr, ...] = ()
    inequalities: tuple[Expr, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if self.n < 1:
            raise OptimalityError("dimension n must be >= 1")

    def binding(self, x) -> Binding:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise OptimalityError(f"point must have shape ({self.n},)")
        return Binding(x, dict(self.params))

    def constraint_system(self) -> Optional[SystemSpec]:
        """The constraints as a standalone system; None when unconstrained."""
        if not self.equalities and not self.inequalities:
            return None
        return SystemSpec(self.n, self.equalities, self.inequalities,
                          dict(self.params))


def constraint_penalty(p: ProgramSpec) -> Optional[Expr]:
    """phi = sum_j |f_j| + sum_i max{g_i, 0}; None when unconstrained."""
    parts = [Abs(f) for f in p.equalities]
    parts += [Max((g, Const(0.0))) for g in p.inequalities]
    return reduce(Add, parts) if parts else None


def build_penalty(p: ProgramSpec, c: float) -> Expr:
    """Expression for Psi_c (u when c = 0 or unconstrained); the tests'
    reference for the sum-rule pair of ProgramData.penalty."""
    if c < 0:
        raise OptimalityError("penalty parameter c must be >= 0")
    phi = constraint_penalty(p)
    if c == 0 or phi is None:
        return p.objective
    return Add(p.objective, Mul(Const(c), phi))


@dataclass(frozen=True)
class ProgramData:
    """A program at a point: the pairs of u, f_j and g_i, the active
    inequalities in ascending order, and the pair of phi (None when
    unconstrained).  Every check below reads this one record."""

    n: int
    u: Quasidifferential
    f: tuple[Quasidifferential, ...]
    g: tuple[Quasidifferential, ...]
    active: tuple[int, ...]
    phi: Optional[Quasidifferential]

    def penalty(self, c: float) -> Quasidifferential:
        """Pair of Psi_c by the sum rule, [sub u + c sub phi,
        sup u + c sup phi]; c = 0 or an unconstrained program gives u's."""
        if c < 0:
            raise OptimalityError("penalty parameter c must be >= 0")
        if c == 0 or self.phi is None:
            return self.u
        return qd_add(self.u, qd_scale(self.phi, c))


def program_data(p: ProgramSpec, b: Binding) -> ProgramData:
    """Walk u, each f_j and g_i, and phi once at the binding."""
    phi = constraint_penalty(p)
    return ProgramData(p.n, qd_at(p.objective, b),
                       tuple(qd_at(f, b) for f in p.equalities),
                       tuple(qd_at(g, b) for g in p.inequalities),
                       tuple(active_inequalities(p, b, FEAS_TOL)),
                       None if phi is None else qd_at(phi, b))


class StationarityResult(NamedTuple):
    holds: bool
    violating_w: Optional[np.ndarray]


def check_stationarity(data: ProgramData, c: float) -> StationarityResult:
    """Is 0 in sub(Psi_c) + w for every w in sup(Psi_c)?

    Containment over the whole superdifferential reduces to its
    vertices: the condition -w in sub is linear in w, so the worst w
    is extreme.  The first violating vertex in canonical order is
    returned as the witness.
    """
    q = data.penalty(c)
    for w in q.sup.vertices:
        if not contains(q.sub, -w):
            return StationarityResult(False, w.copy())
    return StationarityResult(True, None)


@dataclass(frozen=True)
class Selection:
    """Vertex indices: w0 into sup(u), v_j / w_j into sub/sup(f_j),
    z_i into sup(g_i) for the active inequalities in ascending order."""

    w0: int = 0
    v: tuple[int, ...] = ()
    w: tuple[int, ...] = ()
    z: tuple[int, ...] = ()


@dataclass(frozen=True)
class MultiplierCertificate:
    feasible: bool
    selection: Selection
    mu_lower: Optional[tuple[float, ...]] = None
    mu_upper: Optional[tuple[float, ...]] = None
    lam: Optional[tuple[float, ...]] = None
    residual: Optional[float] = None
    multiplier_bound: Optional[float] = None
    c_bound: Optional[float] = None


def _check_index(idx: int, poly: Polytope, label: str) -> None:
    if not 0 <= idx < poly.nvertices:
        raise OptimalityError(
            f"selection index {idx} out of range for {label} "
            f"({poly.nvertices} vertices)")


def check_multipliers(data: ProgramData, sel: Selection,
                      c_bound: Optional[float] = None) -> MultiplierCertificate:
    """Solve the multiplier LP for one vertex selection."""
    l, na = len(data.f), len(data.active)
    if len(sel.v) != l or len(sel.w) != l or len(sel.z) != na:
        raise OptimalityError(
            f"selection must carry {l} v-indices, {l} w-indices and "
            f"{na} z-indices for the active inequalities")
    _check_index(sel.w0, data.u.sup, "sup(u)")
    n = data.n

    w0 = data.u.sup.vertices[sel.w0]
    # Column blocks: theta over sub(u) vertices, then per equality the
    # mu_lo weights over -(v_j + sup f_j) and mu_hi weights over
    # (sub f_j + w_j), then per active inequality the lam weights over
    # (sub g_i + z_i).
    cols = [data.u.sub.vertices.T]
    sums = []  # (start, stop) of each weight block, theta excluded
    pos = data.u.sub.nvertices
    for j, fj in enumerate(data.f):
        _check_index(sel.v[j], fj.sub, f"sub(f{j + 1})")
        _check_index(sel.w[j], fj.sup, f"sup(f{j + 1})")
        vstar = fj.sub.vertices[sel.v[j]]
        wstar = fj.sup.vertices[sel.w[j]]
        lo_block = -(vstar[None, :] + fj.sup.vertices)
        hi_block = fj.sub.vertices + wstar[None, :]
        for block in (lo_block, hi_block):
            cols.append(block.T)
            sums.append((pos, pos + block.shape[0]))
            pos += block.shape[0]
    for k, i in enumerate(data.active):
        _check_index(sel.z[k], data.g[i].sup, f"sup(g{i + 1})")
        zstar = data.g[i].sup.vertices[sel.z[k]]
        block = data.g[i].sub.vertices + zstar[None, :]
        cols.append(block.T)
        sums.append((pos, pos + block.shape[0]))
        pos += block.shape[0]

    a_eq = np.zeros((n + 1, pos))
    a_eq[:n] = np.hstack(cols)
    a_eq[n, :data.u.sub.nvertices] = 1.0
    b_eq = np.concatenate([-w0, [1.0]])

    a_ub = b_ub = None
    if c_bound is not None and sums:
        # one row per equality (both of its blocks) and per active g_i
        groups = [sums[2 * j:2 * j + 2] for j in range(l)]
        groups += [[pair] for pair in sums[2 * l:]]
        a_ub = np.zeros((len(groups), pos))
        for row, group in zip(a_ub, groups):
            for start, stop in group:
                row[start:stop] = 1.0
        b_ub = np.full(len(groups), float(c_bound))

    cost = np.ones(pos)
    cost[:data.u.sub.nvertices] = 0.0
    out = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                   bounds=[(0.0, None)] * pos)
    if out.status is LpStatus.INFEASIBLE:
        return MultiplierCertificate(False, sel, c_bound=c_bound)
    if out.status is not LpStatus.FEASIBLE:
        raise OptimalityError("multiplier program was unbounded")

    x = out.point
    residual = float(np.max(np.abs(a_eq @ x - b_eq))) if pos else 0.0
    mu_lo = tuple(float(np.sum(x[s:t])) for s, t in sums[0:2 * l:2])
    mu_hi = tuple(float(np.sum(x[s:t])) for s, t in sums[1:2 * l:2])
    lam_full = [0.0] * len(data.g)
    for k, i in enumerate(data.active):
        start, stop = sums[2 * l + k]
        lam_full[i] = float(np.sum(x[start:stop]))
    pairs = [a + bb for a, bb in zip(mu_lo, mu_hi)]
    bound = max(pairs + lam_full) if (pairs or lam_full) else 0.0
    return MultiplierCertificate(True, sel, mu_lo, mu_hi, tuple(lam_full),
                                 residual, bound, c_bound)


@dataclass(frozen=True)
class SelectionSweep:
    """Outcome of enumerating vertex selections.

    holds is False as soon as one selection is infeasible, True when
    every selection was checked and feasible, and None when the budget
    cut the sweep short without finding a violation.
    """

    holds: Optional[bool]
    complete: bool
    n_total: int
    n_checked: int
    first_infeasible: Optional[MultiplierCertificate] = None


def check_all_selections(data: ProgramData,
                         c_bound: Optional[float] = None,
                         budget: int = SELECTION_BUDGET) -> SelectionSweep:
    """Check the multiplier condition over every vertex selection."""
    l = len(data.f)
    ranges = [range(data.u.sup.nvertices)]
    for fj in data.f:
        ranges.append(range(fj.sub.nvertices))
        ranges.append(range(fj.sup.nvertices))
    for i in data.active:
        ranges.append(range(data.g[i].sup.nvertices))
    n_total = 1
    for r in ranges:
        n_total *= len(r)

    n_checked = 0
    for combo in itertools.product(*ranges):
        if n_checked >= budget:
            return SelectionSweep(None, False, n_total, n_checked)
        sel = Selection(combo[0],
                        tuple(combo[1:1 + 2 * l:2]),
                        tuple(combo[2:2 + 2 * l:2]),
                        tuple(combo[1 + 2 * l:]))
        cert = check_multipliers(data, sel, c_bound)
        n_checked += 1
        if not cert.feasible:
            return SelectionSweep(False, False, n_total, n_checked, cert)
    return SelectionSweep(True, True, n_total, n_checked)


def estimate_c_star(data: ProgramData) -> float:
    """The exact penalty threshold: the least c >= 0 with stationarity.

    With phi the constraint penalty, Psi_c = u + c phi, so for c > 0
    sub(Psi_c) = sub(u) + c sub(phi) and sup(Psi_c) = sup(u) + c sup(phi).
    The vertices of sup(Psi_c) are among the sums w0 + c w1 of vertices
    w0 of sup(u) and w1 of sup(phi), so stationarity at c holds exactly
    when every such pair admits theta in the simplex on the vertices a_k
    of sub(u) and rho >= 0 with sum rho = c on the vertices b_l of
    sub(phi) such that

        sum_k theta_k a_k + sum_l rho_l b_l = -w0 - c w1.

    This is linear in (theta, rho, c), so minimising c is one LP per pair.

    The largest of the per-pair minima is the threshold.  A feasible
    point minimises phi, so -sup(phi) lies in sub(phi).  Writing
    -w1 = sum_l sigma_l b_l with sigma in the simplex, a solution at c
    plus d sigma solves the same pair at c + d for every d >= 0: each
    pair's set of feasible c is closed upward, and so is their
    intersection, the set where stationarity holds.  This is also the
    proof that stationarity is monotone in c.

    When some pair's LP is infeasible, no c >= 0 works and the result is
    inf.  Stationarity is checked at 0 first, so that an already
    stationary objective gives exactly 0; an unconstrained program that
    is not stationary there gives inf.
    """
    if check_stationarity(data, 0.0).holds:
        return 0.0
    if data.phi is None:
        return np.inf
    qu, qphi, n = data.u, data.phi, data.n
    na, nb = qu.sub.nvertices, qphi.sub.nvertices
    # columns: theta over sub(u), rho over sub(phi), then c
    a_eq = np.zeros((n + 2, na + nb + 1))
    a_eq[:n, :na] = qu.sub.vertices.T
    a_eq[:n, na:na + nb] = qphi.sub.vertices.T
    a_eq[n, :na] = 1.0
    a_eq[n + 1, na:na + nb] = 1.0
    a_eq[n + 1, -1] = -1.0
    cost = np.zeros(na + nb + 1)
    cost[-1] = 1.0
    c_star = 0.0
    for w0 in qu.sup.vertices:
        for w1 in qphi.sup.vertices:
            a_eq[:n, -1] = w1
            out = solve_lp(cost, a_eq=a_eq,
                           b_eq=np.concatenate([-w0, [1.0, 0.0]]),
                           bounds=[(0.0, None)] * (na + nb + 1))
            if out.status is not LpStatus.FEASIBLE:
                return np.inf
            c_star = max(c_star, out.objective)
    return c_star


@dataclass(frozen=True)
class PathwayReport:
    """Which qualification licenses the necessary condition.

    kind is one of "unconstrained", "qd-mfcq", "error-bound" or "none".
    "error-bound" is certified, not sampled: every constraint is
    piecewise affine, so a local error bound holds (see the module
    docstring).  "none" means neither certificate applies, not that the
    qualification fails.
    """

    kind: str
    mfcq_verdict: Optional[bool] = None


def qualification_pathway(p: ProgramSpec, b: Binding, *,
                          tol: float = FEAS_TOL) -> PathwayReport:
    """Try q.d.-MFCQ first, then the piecewise-affine error bound."""
    s = p.constraint_system()
    if s is None:
        return PathwayReport("unconstrained")
    if qd_mfcq(s, b.point, tol=tol).verdict:
        return PathwayReport("qd-mfcq", mfcq_verdict=True)
    if all(map(is_piecewise_affine, p.equalities + p.inequalities)):
        return PathwayReport("error-bound", mfcq_verdict=False)
    return PathwayReport("none", mfcq_verdict=False)
