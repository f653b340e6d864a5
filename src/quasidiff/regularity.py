"""Metric regularity checks for expression-defined systems.

A system is F(x, p) = y (equalities) together with g(x, p) <= z
(inequalities).  The scalarization

    psi_{y,z}(x) = sum_j |F_j(x,p) - y_j| + sum_i max(g_i(x,p) - z_i, 0)

measures how far (y, z) is from the image set at x.  Each SystemSpec
builds psi's tree once, on first use, with y_j and z_i as the parameters
Y1..Yl and Z1..Zm; PsiFunction binds them to one target pair, or to one
pair per row of a batch of points, so a new target changes a dict and not
the tree.  A Param leaf runs the same IEEE operations as a Const leaf of
the same value, so psi's values and quasidifferentials are those of the
tree with the targets written in.  SystemSpec.values evaluates F and g
once per point or batch, and _near is the one test of a scan point
against the solution set S(y, z).

The grid check scans once for all its targets.  Its targets form the
product grid taxis^(l+m), and _near's test is one comparison per
coordinate, so a scan point is accepted by some target exactly when
each F_j is within eta of some axis value and each g_i is at most
fl(max(taxis) + eta), as fl(z + eta) is monotone in z.
_near_some_target keeps those rows, in order, and each target's _near
then runs on them alone: it accepts the same rows in the same order as
on the full scan, so distances, violators and reports keep their bytes.
_scan builds, evaluates and screens the lattice SCAN_BLOCK rows at a
time, so the full lattice and its value arrays never exist at once.
A target evaluates psi first; a row with psi below the cutoff is only
counted, and distances are measured at the other rows alone, by a sorted
search at n = 1 and by scipy's cKDTree at n >= 2 (_nearest_distances).

A violator's distance is refined in two phases: _on_set searches from
the nearest accepted row to a certified point of S, and
_refine_distance slides from there toward x within S.  The first phase
does not depend on x, so the grid check runs it once per start row of a
target, at its first use, and the second once per violator.

The sufficient condition implemented by check_condition4 asks for a
superdifferential vertex w* with d(0, sub + w*) > 1/K.  The vertex
margin max_w d(0, sub + w) is the strong slope of psi at x (the proof is
in cli.cmd_slope), so it is independent of the quasidifferential
representative.  The grid check and the margin shells of margin_infima
are sampled; sampled_strong_slope is a ring-sampled slope kept as an
independent reference for the tests.  margin_infima takes the margins
of a round of draws from one walk over all its rows: qd_rows_at runs
qd_at's walk with the row rule set of expressions, which carries each
pair as one singleton per row, and calculus.singleton_rates norms them.
That gives each row's steepest_rate(qd_at(...)) by bytes wherever no
kink of psi ties; a round where the walk declines takes the pair walk
row by row.

Everything here is desk scale: n <= 3 for the grid oracle, vertex
enumeration everywhere, deterministic seeds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import Quasidifferential, singleton_rates, steepest_rate
from .expressions import (Abs, Add, Binding, Const, Expr, Max, Param, Sub,
                          qd_at, qd_rows_at)
from .geometry import _lifted

SLOPE_DIRECTIONS = 256
# verify_regularity_grid's defaults: points per axis, targets per axis,
# the radius of the distance scan and the cap on (target, point) pairs
X_GRID = 21
TARGET_GRID = 11
SCAN_RADIUS = 1.0
GRID_BUDGET = 10 ** 6
# the most points the solution-set scan takes.  Streamed in blocks, the
# scan holds no 0.8 GB lattice coordinate array: only its axes (as long
# as the scan itself at n = 1 alone), one block and the rows that some
# target accepts, so the cap bounds time more than memory
SCAN_MAX = 10 ** 8
# the rows of the scan that are built, evaluated and screened at a time
SCAN_BLOCK = 65536


class RegularityError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A combinatorial enumeration exceeded its configured cap."""


def l1_penalty(equalities: Sequence[Expr],
               inequalities: Sequence[Expr]) -> Expr | None:
    """sum_j |a_j| + sum_i max(b_i, 0) over the equality terms a_j and the
    inequality terms b_i, folded left to right into one sum; None when
    there are no terms."""
    parts = ([Abs(a) for a in equalities]
             + [Max((b, Const(0.0))) for b in inequalities])
    return functools.reduce(Add, parts) if parts else None


@dataclass(frozen=True)
class SystemSpec:
    """Equalities F, inequalities g, dimension and parameter values."""

    n: int
    equalities: tuple[Expr, ...]
    inequalities: tuple[Expr, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if self.n < 1:
            raise RegularityError("dimension n must be >= 1")
        if len(self.equalities) + len(self.inequalities) == 0:
            raise RegularityError("a system needs at least one equality or inequality")

    def binding(self, x) -> Binding:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise RegularityError(f"point must have shape ({self.n},)")
        return Binding(x, dict(self.params))

    def values(self, x) -> tuple[list, list]:
        """F(x) and g(x), each function evaluated once, at a point or over
        a batch of points (shape (N, n))."""
        return ([f.evaluate(x, self.params) for f in self.equalities],
                [g.evaluate(x, self.params) for g in self.inequalities])

    def targets(self, y=None, z=None) -> tuple[np.ndarray, np.ndarray]:
        """y and z as arrays, zeros when not given: one pair, or one row per
        batch row (only the last axis is checked)."""
        l, m = len(self.equalities), len(self.inequalities)
        y = np.zeros(l) if y is None else np.atleast_1d(np.asarray(y, dtype=float))
        z = np.zeros(m) if z is None else np.atleast_1d(np.asarray(z, dtype=float))
        if y.shape[-1] != l or z.shape[-1] != m:
            raise RegularityError(f"target shapes must be ({l},) and ({m},)")
        return y, z

    @functools.cached_property
    def psi_tree(self) -> Expr:
        """psi_{y,z}: l1_penalty of the terms F_j - Y_j and g_i - Z_i,
        with the targets as the parameters _target_names."""
        l = len(self.equalities)
        terms = [Sub(h, Param(name)) for h, name in zip(
            self.equalities + self.inequalities, _target_names(self))]
        return l1_penalty(terms[:l], terms[l:])


def _target_names(s: SystemSpec) -> list[str]:
    """The parameters of psi's tree that hold y and z: Y1..Yl, Z1..Zm.
    Problem files lower-case every key and the parser's identifiers are
    lower case, so no file can name them."""
    return ([f"Y{j}" for j in range(1, len(s.equalities) + 1)]
            + [f"Z{i}" for i in range(1, len(s.inequalities) + 1)])


class PsiFunction:
    """psi_{y,z}: the system's psi tree with its target parameters bound to
    y and z, one pair or one pair per row of a batch."""

    def __init__(self, system: SystemSpec, y, z):
        self.system = system
        y, z = system.targets(y, z)
        columns = [*np.moveaxis(y, -1, 0), *np.moveaxis(z, -1, 0)]
        self.params = dict(zip(_target_names(system), columns), **system.params)

    def value(self, x):
        """psi at a point (a float) or over a batch (an array)."""
        v = self.system.psi_tree.evaluate(x, self.params)
        return float(v) if np.ndim(v) == 0 else v

    def qd(self, x) -> Quasidifferential:
        point = self.system.binding(x).point
        return qd_at(self.system.psi_tree, Binding(point, self.params))


def psi_expr(s: SystemSpec, y=None, z=None) -> PsiFunction:
    """The scalarization psi_{y,z} of the system."""
    return PsiFunction(s, y, z)


class Condition4Result(NamedTuple):
    holds: bool
    margin: float
    witness: np.ndarray


def check_condition4(q: Quasidifferential, K: float) -> Condition4Result:
    """Does some superdifferential vertex w* give d(0, sub + w*) > 1/K?

    The margin reported is the full vertex maximum; holds is margin > 1/K.
    """
    if K <= 0:
        raise RegularityError("K must be positive")
    margin, witness = steepest_rate(q)
    return Condition4Result(margin > 1.0 / K, margin, witness)


def sampled_strong_slope(fn: Callable[[np.ndarray], float], x,
                         seed: int = 0) -> float:
    """Monte-Carlo estimate of the strong slope of fn at x.

    Ring sampling over ten radii halving from 1e-2; each ring takes the
    maximum positive difference quotient over SLOPE_DIRECTIONS directions
    (two in R^1; evenly spaced angles in R^2; seeded random ones for
    n >= 3) plus 32 seeded random ones;
    the estimate is the median of the last three rings.  No command calls
    it: `slope` prints the exact vertex margin, and the tests use this
    estimate as an independent reference for it.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        ang = np.linspace(0.0, 2 * np.pi, SLOPE_DIRECTIONS, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        raw = rng.standard_normal((SLOPE_DIRECTIONS, n))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    extra = rng.standard_normal((32, n))
    extra = extra / np.linalg.norm(extra, axis=1, keepdims=True)
    dirs = np.vstack([dirs, extra])
    fx = float(fn(x))
    estimates = []
    for r in [1e-2 * 0.5 ** k for k in range(10)]:
        best = 0.0
        for d in dirs:
            fu = float(fn(x + r * d))
            best = max(best, (fx - fu) / r)
        estimates.append(best)
    return float(np.median(estimates[-3:]))


# ---------------------------------------------------------------------------
# solution-set distance oracle and the grid scan

_REFINE_RES_TOL = 1e-10


def _compass(n: int) -> np.ndarray:
    dirs = [np.array(d, dtype=float)
            for d in itertools.product((-1.0, 0.0, 1.0), repeat=n)
            if any(v != 0 for v in d)]
    return np.array([d / np.linalg.norm(d) for d in dirs])


def _axis(c: float, r: float, k: int) -> np.ndarray:
    """k points evenly spaced on [c - r, c + r]; one point is c itself
    (np.linspace would give c - r)."""
    return np.array([c]) if k == 1 else np.linspace(c - r, c + r, k)


def _rows(axes: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the product of axes, one point per row, the
    last coordinate fastest."""
    idx = np.unravel_index(np.arange(start, stop), [len(a) for a in axes])
    return np.stack([a[i] for a, i in zip(axes, idx)], axis=-1)


def _lattice(center: np.ndarray, r: float, k: int) -> np.ndarray:
    """The k^n points of the product of the axes _axis(c, r, k) over the
    coordinates c of center, one per row, the last coordinate fastest."""
    return _rows([_axis(c, r, k) for c in center], 0, k ** len(center))


def _count_text(count: int) -> str:
    return (str(count) if count < 10 ** 18
            else f"at least 1e{len(str(count)) - 1}")


def _scan_grid(center: np.ndarray, radius: float, budget: int):
    """The axes of the solution-set scan: k = budget^(1/n) points each (at
    least 3), and their spacing.  More than SCAN_MAX points is a
    RegularityError, raised before anything is allocated."""
    n = len(center)
    try:
        k = max(3, int(round(budget ** (1.0 / n))))
        size = k ** n
    except OverflowError:  # budget beyond the float range, about k^n
        size = None
    if size is None or size > SCAN_MAX:
        raise RegularityError(
            f"budget {budget} sizes the solution-set scan at budget^(1/{n}) "
            f"points per axis, "
            f"{'at least 1e308' if size is None else _count_text(size)} "
            f"points in all, more than its maximum {SCAN_MAX}")
    return [_axis(c, radius, k) for c in center], 2.0 * radius / (k - 1)


def _scan(s: SystemSpec, axes: Sequence[np.ndarray], keep):
    """The rows of the scan lattice over axes that keep(F, g) accepts, in
    lattice order, with their F and g values.  The lattice is built,
    evaluated and screened SCAN_BLOCK rows at a time."""
    size, l = len(axes[0]) ** len(axes), len(s.equalities)
    parts = []
    for start in range(0, size, SCAN_BLOCK):
        block = _rows(axes, start, min(start + SCAN_BLOCK, size))
        f, g = s.values(block)
        mask = keep(f, g)
        parts.append([v[mask] for v in [block, *f, *g]])
    pts, *values = map(np.concatenate, zip(*parts))
    return pts, values[:l], values[l:]


def _nearest_distances(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d(q_i, pts) for each row q_i of q.  At n >= 2 it is
    cKDTree(pts).query(q)[0].  At n = 1, pts must be non-decreasing, as
    the kept rows of a scan are (a linspace axis, and rounding is
    monotone); the nearest point is then one of the two neighbours that
    np.searchsorted finds, and the distance is the smaller |x - p|.  That
    is the tree's sqrt of the squared difference, to the byte, wherever
    the square is a normal number, and exact where the square would
    underflow or overflow.  A difference that overflows is inf, and
    raises nothing."""
    if pts.shape[1] > 1:
        from scipy.spatial import cKDTree
        return cKDTree(pts).query(q)[0]
    p, x = pts[:, 0], q[:, 0]
    i = np.searchsorted(p, x)
    with np.errstate(over="ignore"):
        return np.minimum(np.abs(x - p[np.maximum(i - 1, 0)]),
                          np.abs(x - p[np.minimum(i, len(p) - 1)]))


def _pattern_search(objective: Callable[[np.ndarray], float], start: np.ndarray,
                    step0: float, step_min: float, dirs: np.ndarray) -> np.ndarray:
    c = start.copy()
    fc = objective(c)
    step = step0
    rounds = 0
    while step > step_min and rounds < 400:
        rounds += 1
        best_dir = None
        best_val = fc
        for d in dirs:
            val = objective(c + step * d)
            if val < best_val - 1e-16:
                best_val = val
                best_dir = d
        if best_dir is None:
            step *= 0.5
            continue
        c = c + step * best_dir
        fc = best_val
        # amplify while the same direction keeps paying
        while True:
            cand = c + step * best_dir
            val = objective(cand)
            if val < fc - 1e-16:
                c, fc = cand, val
                step *= 2.0
            else:
                break
    return c


def _near(fv, gv, y, z, eta):
    """Mask of the scan points taken as near S(y, z): |F_j - y_j| <= eta
    and g_i <= z_i + eta, from the values of SystemSpec.values."""
    return np.logical_and.reduce(
        [np.abs(f - yj) <= eta for f, yj in zip(fv, y)]
        + [g <= zi + eta for g, zi in zip(gv, z)])


def _near_some_target(fv, gv, taxis, eta):
    """Mask of the scan points that _near accepts for some target of the
    product grid taxis^(l+m): every F_j within eta of some axis value,
    and every g_i <= max(taxis) + eta.  The same IEEE comparisons as
    _near, run in place on one float and two bool buffers; a nan value
    fails every <=, so its row is dropped, as _near drops it."""
    keep = np.ones(len((fv + gv)[0]), dtype=bool)
    diff = np.empty(keep.shape)
    hit = np.empty(keep.shape, dtype=bool)
    near = np.empty(keep.shape, dtype=bool)
    for f in fv:
        hit.fill(False)
        for y in taxis:
            np.abs(np.subtract(f, y, out=diff), out=diff)
            hit |= np.less_equal(diff, eta, out=near)
        keep &= hit
    ztop = taxis.max() + eta
    for g in gv:
        keep &= np.less_equal(g, ztop, out=near)
    return keep


def _residual_fn(s: SystemSpec, y: np.ndarray, z: np.ndarray):
    def res(c: np.ndarray) -> float:
        fv, gv = s.values(c)
        worst = 0.0
        for f, yj in zip(fv, y):
            worst = max(worst, abs(float(f) - yj))
        for g, zi in zip(gv, z):
            worst = max(worst, float(g) - zi)
        return worst

    return res


def _on_set(s: SystemSpec, start: np.ndarray, y: np.ndarray, z: np.ndarray,
            step: float) -> np.ndarray | None:
    """The refinement's first phase: a pattern search on the residual from
    start, to a point of S(y, z) certified within _REFINE_RES_TOL, or None
    where it certifies none.  It depends on start and not on x."""
    res = _residual_fn(s, y, z)
    on_set = _pattern_search(res, start, max(step, 1e-7), 1e-13, _compass(s.n))
    return None if res(on_set) > _REFINE_RES_TOL else on_set


def _norm(v: np.ndarray) -> float:
    """|v|, taken lifted by geometry's exact power of two, as
    nearest_point takes its distance, so that no square underflows; the
    bytes of np.linalg.norm(v), sqrt(v . v), wherever its squares are
    normal."""
    lifted, k = _lifted(v)
    return math.ldexp(math.sqrt(lifted.dot(lifted)), -k)


def _refine_distance(s: SystemSpec, x: np.ndarray, start: np.ndarray,
                     on_set: np.ndarray | None, y: np.ndarray, z: np.ndarray,
                     step: float) -> float:
    """The refinement's second phase: a pattern search toward x that stays
    within _REFINE_RES_TOL of S(y, z), from on_set = _on_set(s, start, y,
    z, step); the distance from x to where it ends."""
    if on_set is None:
        # could not certify a true solution nearby; keep the raw figure
        return _norm(x - start)
    res = _residual_fn(s, y, z)

    def constrained(c: np.ndarray) -> float:
        return _norm(x - c) if res(c) <= _REFINE_RES_TOL else np.inf

    final = _pattern_search(constrained, on_set, max(step, 1e-7), 1e-11,
                            _compass(s.n))
    return _norm(x - final)


def solution_distance(s: SystemSpec, x, y=None, z=None, *, center=None,
                      scan_radius: float = 1.0, budget: int = 10 ** 6) -> float:
    """Empirical d(x, S(p, y, z)) by dense scan plus local refinement.

    S is the solution set {u : F(u,p) = y, g(u,p) <= z}.  Returns +inf
    when the scan finds no candidate solution (empty-set convention).
    Resolution is tied to the scan grid; refinement runs a two-phase
    compass pattern search (feasibility first, then sliding toward x).
    """
    if s.n > 3:
        raise RegularityError("solution-set scans are desk scale: n <= 3")
    x = np.asarray(x, dtype=float)
    y, z = s.targets(y, z)
    c0 = x if center is None else np.asarray(center, dtype=float)
    axes, step = _scan_grid(c0, scan_radius, budget)
    accepted = _scan(s, axes,
                     lambda fv, gv: _near(fv, gv, y, z, 8.0 * step))[0]
    if accepted.shape[0] == 0:
        return np.inf
    dist2 = np.einsum("ij,ij->i", accepted - x, accepted - x)
    order = np.argsort(dist2)
    # refine from a few well-separated nearest candidates
    starts: list[np.ndarray] = []
    for idx in order:
        p = accepted[idx]
        if all(np.linalg.norm(p - q) > 8 * step for q in starts):
            starts.append(p)
        if len(starts) >= 3:
            break
    return min(_refine_distance(s, x, p, _on_set(s, p, y, z, step), y, z, step)
               for p in starts)


@dataclass(frozen=True)
class GridViolator:
    x: tuple
    y: tuple
    z: tuple
    distance: float
    psi: float
    ratio: float


@dataclass
class RegularityGridReport:
    """What the grid scan measured."""

    n_checked: int = 0
    n_skipped_near_graph: int = 0
    n_empty_solution_sets: int = 0
    worst_ratio: float = 0.0
    worst_point: tuple | None = None
    violators: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """No violator found, up to grid resolution and slack."""
        return len(self.violators) == 0


def verify_regularity_grid(s: SystemSpec, center, K: float, r: float,
                           x_grid: int = X_GRID,
                           target_grid: int = TARGET_GRID, *,
                           scan_radius: float = SCAN_RADIUS,
                           budget: int = GRID_BUDGET) -> RegularityGridReport:
    """Check d(x, S(p,y,z)) <= K * psi_{y,z}(x) over a grid.

    Grids are odd-sized and symmetric so the center is sampled exactly.
    A candidate violation must exceed a resolution slack before it is
    re-checked with the refined distance and reported.  Points whose psi
    is below the sampling band are skipped: the raw oracle cannot resolve
    ratios there.  The grid has target_grid^(l+m) * x_grid^n (target,
    point) pairs; more than budget raise BudgetExceededError before any
    evaluation.  budget also sizes the solution-set scan (_scan_grid).

    The scan is evaluated once, and only its rows that some target
    accepts are kept (_near_some_target): a target's _near picks its
    rows out of these, the same rows in the same order as out of the
    full scan (the module docstring has the argument).  Distances are
    measured only at the rows that psi does not skip.
    """
    if s.n > 3:
        raise RegularityError("grid verification is desk scale: n <= 3")
    if x_grid % 2 == 0 or target_grid % 2 == 0:
        raise RegularityError("grid sizes must be odd so the center is sampled")
    if K <= 0 or r <= 0:
        raise RegularityError("K and r must be positive")
    l, m = len(s.equalities), len(s.inequalities)
    count = target_grid ** (l + m) * x_grid ** s.n
    if count > budget:
        raise BudgetExceededError(
            f"regcheck grid of {target_grid}^{l + m} targets x {x_grid}^{s.n} "
            f"points = {_count_text(count)} exceeds the budget {budget}")
    center = np.asarray(center, dtype=float)
    xpts = _lattice(center, r, x_grid)
    taxis = _axis(0.0, r, target_grid)

    axes, step = _scan_grid(center, scan_radius, budget)
    eta = 8.0 * step
    slack = 3.0 * step * np.sqrt(s.n)
    psi_cutoff = 10.0 * eta

    scan_pts, f_scan, g_scan = _scan(
        s, axes, lambda fv, gv: _near_some_target(fv, gv, taxis, eta))
    report = RegularityGridReport()

    for combo in itertools.product(range(target_grid), repeat=l + m):
        y, z = np.split(taxis[list(combo)], [l])
        accepted = scan_pts[_near(f_scan, g_scan, y, z, eta)]
        psi = PsiFunction(s, y, z).value(xpts)
        # not psi >= psi_cutoff: a nan psi is checked
        checked = np.flatnonzero(~(psi < psi_cutoff))
        report.n_skipped_near_graph += len(psi) - len(checked)
        report.n_checked += len(checked)
        d = np.full(len(checked), np.inf)
        if accepted.shape[0] == 0:
            report.n_empty_solution_sets += 1
        elif len(checked):
            d = _nearest_distances(accepted, xpts[checked])
        # the first refinement phase, once per start row of this target
        on_set = functools.cache(
            lambda j: _on_set(s, accepted[j], y, z, step))

        for i, di in zip(checked, d):
            ratio = di / psi[i]
            if ratio > report.worst_ratio:
                report.worst_ratio = float(ratio)
                report.worst_point = (tuple(xpts[i]), tuple(y), tuple(z))
            if di > K * psi[i] + slack:
                dist = di
                if np.isfinite(di):
                    j = int(np.argmin(np.einsum("ij,ij->i",
                                                accepted - xpts[i],
                                                accepted - xpts[i])))
                    dist = _refine_distance(s, xpts[i], accepted[j],
                                            on_set(j), y, z, step)
                if dist > K * psi[i] + slack:
                    report.violators.append(GridViolator(
                        x=tuple(xpts[i]), y=tuple(y), z=tuple(z),
                        distance=float(dist), psi=float(psi[i]),
                        ratio=float(dist / psi[i])))
    return report


def margin_infima(s: SystemSpec, center, *,
                  seed: int = 0) -> list[tuple[float, float, int]]:
    """Infimum of condition-4 margins over shrinking sampling shells.

    Supports the 'consistent with non-regularity' label: margins that
    collapse as the shell shrinks are the necessary-direction signature.
    Each shell draws (x, y, z) uniformly within rho of (center, 0, 0) and
    takes up to 48 valid samples (psi > 1e-9) from 960 draws.  Entries are
    (radius, infimum, n_valid_samples).

    The draws come in rounds of one batched psi evaluation each.  A round
    holds no more rows than valid samples are still needed, so the 48th
    valid sample is always a round's last row: the generator stream and
    the draws evaluated are those of drawing and testing one at a time.

    The valid rows of a round take one row walk (_shell_margins).  Where
    each abs and max node of psi has one branch within FEAS_TOL of its
    top, psi's pair at a row is [{a}, {b}], and its margin is |a + b|,
    normed as nearest_point norms it; the walk gives the bytes of each
    row's qd_at and steepest_rate (the expressions module docstring has
    the argument).  A round where some row ties, some number is not
    finite or the batch raises FloatingPointError takes the pair walk
    per row instead, so its errors are those of the per-row loop.  The
    margins fold in row order with the same min either way.
    """
    base = np.concatenate([s.binding(center).point, *s.targets()])
    targets = set(_target_names(s))
    rng = np.random.default_rng(seed)
    out = []
    for rho in (0.3, 0.1, 0.03, 0.01):
        inf_margin = np.inf
        valid = 0
        drawn = 0
        while valid < 48 and drawn < 960:
            k = min(48 - valid, 960 - drawn)
            drawn += k
            draws = base + rho * rng.uniform(-1.0, 1.0, size=(k, base.size))
            xs, ys, zs = np.split(draws, [s.n, s.n + len(s.equalities)], axis=1)
            batch = PsiFunction(s, ys, zs)
            # not psi > 1e-9: a nan psi stays a valid sample
            rows = np.flatnonzero(~(batch.value(xs) <= 1e-9))
            params = {name: v[rows] if name in targets else v
                      for name, v in batch.params.items()}
            for margin in _shell_margins(s.psi_tree, xs[rows], params,
                                         targets):
                valid += 1
                inf_margin = min(inf_margin, margin)
        out.append((float(rho), float(inf_margin), valid))
    return out


def _shell_margins(psi: Expr, xs: np.ndarray, params: dict,
                   targets: set) -> list[float]:
    """steepest_rate(qd_at(psi, row))[0] at each row of xs, whose values
    of the parameters named in targets are one per row: one row walk, or
    one pair walk per row where the row walk declines."""
    if not len(xs):
        return []
    walked = qd_rows_at(psi, xs, params)
    if walked is not None:
        return singleton_rates(walked[1], walked[2])
    margins = []
    for i, x in enumerate(xs):
        row = {name: v[i] if name in targets else v
               for name, v in params.items()}
        margins.append(steepest_rate(qd_at(psi, Binding(x, row)))[0])
    return margins


def decay_flag(infima: Sequence[tuple[float, float, int]]) -> bool:
    """Heuristic label: margins collapsed across the shells.

    Either a 10x drop from the first shell to the last, or an infimum at
    numerical-zero scale on some shell (the slope can vanish inside every
    shell, in which case no decay between shells is visible).
    """
    vals = [v for _, v, k in infima if k > 0]
    if len(vals) < 2:
        return False
    return vals[-1] < 0.1 * vals[0] + 1e-12 or min(vals) < 1e-6
