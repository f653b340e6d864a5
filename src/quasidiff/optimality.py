"""l1 exact penalty and optimality certificates for constrained programs.

For min u(x) s.t. f_j(x) = 0, g_i(x) <= 0 the penalty

    Psi_c = u + c (sum_j |f_j| + sum_i max{g_i, 0})

is quasidifferentiable whenever the data are.  With phi the constraint
penalty in parentheses, its pair at a point follows from those of u and
phi by the sum rule: [sub u + c sub phi, sup u + c sup phi] for c >= 0.
So program_data takes regularity's record of the constraints at a
feasible point (regularity.feasible_active checks feasibility and takes
the active set by geometry.ties, the tie rule of qd_max, so that
phi's max{g_i, 0} ties on the active set; point_pairs walks each
f_j and the active g_i), walks u and phi once, and extends the record
into a ProgramData.  Every check below reads that record,
qualification_pathway included, so the q.d.-MFCQ and the penalty
conditions read one active set.  Two equivalent necessary conditions
are checked at a feasible candidate point:

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

check_stationarity decides stationarity by calculus.strong_slope of
Psi_c, the vertex margin max over the vertices w of sup(Psi_c) of
d(-w, sub(Psi_c)) read as 0 by geometry.negligible, as contains is; it
does not depend on the representative.  The multiplier form is
the paper's statement of the same condition, kept as the tests'
reference; no command runs it.  For a bound c, an equality's two terms
mu_lo_j L_j + mu_hi_j H_j with mu_lo_j + mu_hi_j <= c,
L_j = -(v_j + sup f_j) and H_j = sub(f_j) + w_j, range over
c co({0} u L_j u H_j), and an inequality's term over
c co({0} u (sub(g_i) + z_i)).  So a selection is feasible exactly when
-w0 lies in the Minkowski sum

    sub(u) + sum_j c co({0} u L_j u H_j) + sum_i c co({0} u (sub g_i + z_i)).

check_multipliers decides that as an LP that also carries multiplier
values: every scalar-times-polytope term parameterized by nonnegative
weights on the polytope vertices, the scalar recovered as the weight
sum.  In block form, with the vertex blocks P_0 = sub(u), P_lo_j = L_j,
P_hi_j = H_j and P_i = sub(g_i) + z_i as columns of P = [P_0, P_lo_1,
P_hi_1, ..., P_i, ...], T the 0/1 row that marks P_0's columns and G the
0/1 rows that mark each group (an equality's lo and hi blocks together,
or one inequality's block), it is

    min sum of the non-theta weights
    s.t.  [P; T] x = (-w0, 1),  G x <= c,  x >= 0,

whose feasible set is the containment's.  Theta's block and each
group's blocks enter it lifted by an exact power of two 2^k, since HiGHS
reads matrix entries below 1e-9 as zero: theta's entries of T become
2^k, and a group takes cost 2^k and cap c / 2^k on its lifted weights.
HiGHS reads a cost of 1e20 or more as infinite, so every cost then takes
one exact factor 2^-t, t = max(0, largest group lift - 66), which leaves
the optima unchanged.  check_all_selections searches the selections in
lex order for the first whose LP is infeasible.  In exact arithmetic the
two verdicts agree at feasible points for the same c, whichever
quasidifferentials represent the data, and the tests cross-assert them
on the ladders they run.

The exact penalty threshold c*, the least c at which stationarity
holds, decides each rung of optcheck's ladder, as stationarity is
monotone in c; a failing rung prints the vertex margin.  c* is found by
the same weight parameterization: one LP per pair of superdifferential
vertices of u and of the constraint penalty, with c* the largest
per-pair minimum (estimate_c_star has the proof), and c* = inf when
some pair admits no c at all.  The pairs' LPs share no variable, so
they are solved as the diagonal blocks of one sparse LP, one HiGHS call
for up to C_STAR_BLOCK pairs, whose objective is the sum of the blocks'
c.  sub(phi) enters it lifted by an exact power of two, since HiGHS
reads matrix entries below 1e-9 as zero.

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
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .calculus import Quasidifferential, qd_add, qd_scale, strong_slope
from .expressions import (Add, Binding, Const, Expr, Mul,
                          is_piecewise_affine, qd_at)
from .geometry import LpStatus, Polytope, _lifted, solve_lp
from .mfcq import PATTERN_BUDGET, mfcq_of_pairs
# feasibility_violations is also imported from here: by the tests and
# perfbench/tracer.PUBLIC
from .regularity import (PointPairs, feasibility_violations, feasible_active,
                         l1_penalty, point_pairs)

SELECTION_BUDGET = 10 ** 5
C_LADDER = (0.5, 1.0, 2.0, 10.0, 100.0)
# Most vertex pairs per c* LP: bounds the block matrix as
# geometry.CERT_BLOCK bounds the batched certificates
C_STAR_BLOCK = 256


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


def build_penalty(p: ProgramSpec, c: float) -> Expr:
    """Expression for Psi_c (u when c = 0 or unconstrained); the tests'
    reference for the sum-rule pair of ProgramData.penalty."""
    if c < 0:
        raise OptimalityError("penalty parameter c must be >= 0")
    phi = l1_penalty(p.equalities, p.inequalities)
    if c == 0 or phi is None:
        return p.objective
    return Add(p.objective, Mul(Const(c), phi))


@dataclass(frozen=True)
class ProgramData(PointPairs):
    """A program at a point: regularity.point_pairs' record of f_j and
    the active g_i, with the pair of u and that of phi (None when
    unconstrained).  Every check below reads this one record."""

    u: Quasidifferential
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
    """regularity.feasible_active and point_pairs at the binding, then
    the walks of u and phi, in that order: the constraints that the
    q.d.-MFCQ reads come first, and no function is walked at an
    infeasible point (InfeasiblePointError names the residuals).  No
    check reads an inactive g_i's pair, so none is walked; phi's walk
    still covers their kinks."""
    pairs = point_pairs(p, b, feasible_active(p, b))
    u = qd_at(p.objective, b)
    phi = l1_penalty(p.equalities, p.inequalities)
    return ProgramData(**vars(pairs), u=u,
                       phi=None if phi is None else qd_at(phi, b))


class StationarityResult(NamedTuple):
    holds: bool
    violating_w: Optional[np.ndarray]
    violating_distance: Optional[float]


def check_stationarity(data: ProgramData, c: float) -> StationarityResult:
    """Is 0 in sub(Psi_c) + w for every w in sup(Psi_c)?

    It holds exactly when calculus.strong_slope of Psi_c reads 0: the
    vertex margin, max over the vertices w of sup(Psi_c) of
    d(-w, sub(Psi_c)), is geometry.negligible, the cut of contains; the
    distance is convex in w, so the worst w is extreme.  When it fails,
    the farthest vertex is the witness and the margin its distance, the
    strong slope of Psi_c, which no choice of quasidifferentials
    changes.
    """
    margin, w = strong_slope(data.penalty(c))
    if margin == 0.0:
        return StationarityResult(True, None, None)
    return StationarityResult(False, w, margin)


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
    """Solve the multiplier LP for one vertex selection: the certificate
    with multiplier values, and check_all_selections' decision."""
    l, na = len(data.f), len(data.active)
    if len(sel.v) != l or len(sel.w) != l or len(sel.z) != na:
        raise OptimalityError(
            f"selection must carry {l} v-indices, {l} w-indices and "
            f"{na} z-indices for the active inequalities")
    _check_index(sel.w0, data.u.sup, "sup(u)")

    # Weight blocks, one LP column per vertex: theta over sub(u), then
    # per equality f_j the mu_lo weights over -(v_j + sup f_j) and the
    # mu_hi weights over (sub f_j + w_j), then per active g_i the lam
    # weights over (sub g_i + z_i).  With P the blocks side by side
    # (points as columns), T the 0/1 row of the theta columns and G the
    # 0/1 rows of the groups (an equality's two blocks, or one
    # inequality's), the LP is
    #     min sum(x off theta)
    #     s.t.  [P; T] x = (-w0, 1),  G x <= c_bound,  x >= 0.
    blocks = [data.u.sub.vertices]
    for j, fj in enumerate(data.f):
        _check_index(sel.v[j], fj.sub, f"sub(f{j + 1})")
        _check_index(sel.w[j], fj.sup, f"sup(f{j + 1})")
        blocks.append(-(fj.sub.vertices[sel.v[j]] + fj.sup.vertices))
        blocks.append(fj.sub.vertices + fj.sup.vertices[sel.w[j]])
    for k, i in enumerate(data.active):
        _check_index(sel.z[k], data.g[i].sup, f"sup(g{i + 1})")
        blocks.append(data.g[i].sub.vertices
                      + data.g[i].sup.vertices[sel.z[k]])
    block_id = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    # the group of each block: -1 for theta, j for f_j's pair, l + k for
    # the k-th active inequality
    block_group = np.concatenate([[-1], np.repeat(np.arange(l), 2),
                                  np.arange(l, l + na)])
    group = block_group[block_id]

    # HiGHS reads matrix entries below 1e-9 as zero, so theta's block and
    # each group's points are lifted by the exact 2^k of geometry._lifted:
    # their weights become x / 2^k, theta's entries of T 2^k, a group's
    # cap c / 2^k and its cost 2^k, and a group's sums are scaled back by
    # 2^k; lift[g + 1] is group g's, lift[0] theta's.  HiGHS reads a cost
    # of 1e20 or more as infinite, so every cost takes one exact factor
    # 2^-t that keeps the largest at most 2^66; a common power of two
    # leaves the optima as they are
    points, lift = np.vstack(blocks), np.zeros(l + na + 1, dtype=int)
    for i in range(-1, l + na):
        points[group == i], lift[i + 1] = _lifted(points[group == i])
    block_lift = lift[block_group + 1]
    t = max(int(lift[1:].max(initial=0)) - 66, 0)
    cost = np.ldexp((group >= 0).astype(float), block_lift[block_id] - t)

    a_eq = np.vstack([points.T, np.ldexp(1.0, lift[0]) * (block_id == 0)])
    b_eq = np.concatenate([-data.u.sup.vertices[sel.w0], [1.0]])
    a_ub = b_ub = None
    if c_bound is not None and l + na:
        a_ub = (group == np.arange(l + na)[:, None]).astype(float)
        b_ub = np.ldexp(float(c_bound), -lift[1:])
    out = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                   bounds=(0.0, None))
    if out.status is LpStatus.INFEASIBLE:
        return MultiplierCertificate(False, sel, c_bound=c_bound)
    if out.status is not LpStatus.FEASIBLE:
        raise OptimalityError("multiplier program was unbounded")

    x = out.point
    sums = [math.ldexp(float(np.sum(x[block_id == b])), int(block_lift[b]))
            for b in range(1, len(blocks))]
    mu_lo, mu_hi = tuple(sums[0:2 * l:2]), tuple(sums[1:2 * l:2])
    lam_full = [0.0] * len(data.g)
    for i, lam in zip(data.active, sums[2 * l:]):
        lam_full[i] = lam
    pairs = [a + bb for a, bb in zip(mu_lo, mu_hi)]
    bound = max(pairs + lam_full) if (pairs or lam_full) else 0.0
    return MultiplierCertificate(True, sel, mu_lo, mu_hi, tuple(lam_full),
                                 float(np.max(np.abs(a_eq @ x - b_eq))),
                                 bound, c_bound)


@dataclass(frozen=True)
class SelectionSweep:
    """Outcome of enumerating vertex selections.

    holds is False as soon as one selection is infeasible, True when
    every selection was checked and feasible, and None when the budget
    cut the sweep short without finding a violation.
    """

    holds: Optional[bool]
    n_total: int
    n_checked: int
    first_infeasible: Optional[MultiplierCertificate] = None


def check_all_selections(data: ProgramData, c_bound: float,
                         budget: int = SELECTION_BUDGET) -> SelectionSweep:
    """Search the vertex selections in lex order for the first one whose
    multiplier LP (check_multipliers) is infeasible at c_bound."""
    l = len(data.f)
    sizes = ([data.u.sup.nvertices]
             + [n for fj in data.f
                for n in (fj.sub.nvertices, fj.sup.nvertices)]
             + [data.g[i].sup.nvertices for i in data.active])
    n_total = math.prod(sizes)
    for n_checked, combo in enumerate(itertools.product(*map(range, sizes))):
        if n_checked >= budget:
            return SelectionSweep(None, n_total, n_checked)
        cert = check_multipliers(data, Selection(
            combo[0], combo[1:1 + 2 * l:2], combo[2:2 + 2 * l:2],
            combo[1 + 2 * l:]), c_bound)
        if not cert.feasible:
            return SelectionSweep(False, n_total, n_checked + 1, cert)
    return SelectionSweep(True, n_total, n_total)


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

    The per-pair LPs share no variable, so they are solved as the
    diagonal blocks of one sparse LP whose objective is the sum of the
    blocks' c: every optimum of the sum is optimal in each block, and
    c* is the largest block c.  The sum is infeasible exactly when some
    block is, and then no c >= 0 works and the result is inf.  The pairs
    go in chunks of at most C_STAR_BLOCK blocks, which bounds the
    matrix, and the first infeasible chunk ends the search.

    HiGHS reads matrix entries below 1e-9 as zero, so sub(phi) and w1
    are lifted by the exact factor 2^k of geometry._lifted, which puts
    the largest |entry| of sub(phi) in [1/2, 1) when it is below 1/2.
    The lifted LP has the solutions (theta, rho / 2^k, c / 2^k), so its
    c' gives c = 2^k c' exactly.

    Stationarity is checked at 0 first, so that an already stationary
    objective gives exactly 0; an unconstrained program that is not
    stationary there gives inf.
    """
    if check_stationarity(data, 0.0).holds:
        return 0.0
    if data.phi is None:
        return np.inf
    # imported here, as solve_lp imports scipy, so that commands that
    # solve no LP never load it
    from scipy import sparse

    qu, n = data.u, data.n
    b, k = _lifted(data.phi.sub.vertices)
    w1s = np.ldexp(data.phi.sup.vertices, k)
    na, nb = qu.sub.nvertices, len(b)
    rows, cols = n + 2, na + nb + 1
    # one block: columns theta over sub(u), rho over lifted sub(phi),
    # then c, whose first n entries are the pair's w1
    block = np.zeros((rows, cols))
    block[:n, :na] = qu.sub.vertices.T
    block[:n, na:-1] = b.T
    block[n, :na] = 1.0
    block[n + 1, na:-1] = 1.0
    block[n + 1, -1] = -1.0
    # pair p is (w0, w1) = (p // |sup phi|, p % |sup phi|) in vertex
    # indices: w0 outer, w1 inner
    n_pairs = qu.sup.nvertices * len(w1s)
    c_star = 0.0
    for start in range(0, n_pairs, C_STAR_BLOCK):
        i0, i1 = np.divmod(np.arange(start, min(start + C_STAR_BLOCK,
                                                n_pairs)), len(w1s))
        m = len(i0)
        stack = np.broadcast_to(block, (m, rows, cols)).copy()
        stack[:, :n, -1] = w1s[i1]
        p, r, col = np.nonzero(stack)
        a_eq = sparse.csc_array((stack[p, r, col],
                                 (p * rows + r, p * cols + col)),
                                shape=(m * rows, m * cols))
        b_eq = np.hstack([-qu.sup.vertices[i0], np.ones((m, 1)),
                          np.zeros((m, 1))])
        out = solve_lp(np.tile(np.eye(cols)[-1], m), a_eq=a_eq,
                       b_eq=b_eq.ravel(), bounds=(0.0, None))
        if out.status is not LpStatus.FEASIBLE:
            return np.inf
        c_star = max(c_star, float(out.point[cols - 1::cols].max()))
    return math.ldexp(c_star, k)


def qualification_pathway(p: ProgramSpec, data: ProgramData, *,
                          budget: int = PATTERN_BUDGET) -> str:
    """Which qualification licenses the necessary condition, tried in
    this order: "unconstrained", "qd-mfcq", "error-bound" or "none".

    The q.d.-MFCQ is decided on data's pairs and active set, those of
    program_data(p, b), as qd_mfcq decides it after its own walk, with
    its sign-pattern count capped at budget (BudgetExceededError).
    "error-bound" is certified, not sampled: every constraint is
    piecewise affine, so a local error bound holds (see the module
    docstring).  "none" means neither certificate applies, not that the
    qualification fails.
    """
    if data.phi is None:
        return "unconstrained"
    if mfcq_of_pairs(data, budget).verdict:
        return "qd-mfcq"
    if all(map(is_piecewise_affine, p.equalities + p.inequalities)):
        return "error-bound"
    return "none"
