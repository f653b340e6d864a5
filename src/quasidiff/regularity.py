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
against the solution set S(y, z).  The sufficient condition implemented by
check_condition4 asks for a superdifferential vertex w* with
d(0, sub + w*) > 1/K.  The vertex margin max_w d(0, sub + w) is the strong
slope of psi at x (the proof is in cli.cmd_slope), so it is independent
of the quasidifferential representative.  The grid check and the margin
shells of margin_infima are sampled; sampled_strong_slope is a
ring-sampled slope kept as an independent reference for the tests.

Everything here is desk scale: n <= 3 for the grid oracle, vertex
enumeration everywhere, deterministic seeds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import Quasidifferential, steepest_rate
from .expressions import Abs, Add, Binding, Const, Expr, Max, Param, Sub, qd_at

SLOPE_DIRECTIONS = 256
# verify_regularity_grid's defaults: points per axis, targets per axis,
# the radius of the distance scan and the cap on (target, point) pairs
X_GRID = 21
TARGET_GRID = 11
SCAN_RADIUS = 1.0
GRID_BUDGET = 10 ** 6


class RegularityError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A combinatorial enumeration exceeded its configured cap."""


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
        """psi_{y,z} with the targets as the parameters _target_names,
        folded left to right into one sum."""
        l = len(self.equalities)
        terms = [Sub(h, Param(name)) for h, name in zip(
            self.equalities + self.inequalities, _target_names(self))]
        return functools.reduce(Add, [Abs(t) for t in terms[:l]]
                                + [Max((t, Const(0.0))) for t in terms[l:]])


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
    maximum positive difference quotient over a deterministic set of
    SLOPE_DIRECTIONS directions (two in R^1) plus 32 seeded random ones;
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
    elif n == 3:
        k = np.arange(SLOPE_DIRECTIONS)
        golden = (1 + 5 ** 0.5) / 2
        zc = 1 - 2 * (k + 0.5) / SLOPE_DIRECTIONS
        th = 2 * np.pi * k / golden
        rc = np.sqrt(np.maximum(1 - zc ** 2, 0.0))
        dirs = np.stack([rc * np.cos(th), rc * np.sin(th), zc], axis=1)
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


def _lattice(center: np.ndarray, r: float, k: int) -> np.ndarray:
    """The k^n points of the product of the axes _axis(c, r, k) over the
    coordinates c of center, one per row, the last coordinate fastest."""
    # axes stays alive through the stack: freed first, it lets malloc trim
    # the heap, and a 10^6-point scan's temporaries then fault their pages
    # in again (3.5x the minor faults, 10-15% of an n = 1 grid check)
    axes = [_axis(c, r, k) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(center))


def _scan_grid(center: np.ndarray, radius: float, budget: int):
    k = max(3, int(round(budget ** (1.0 / len(center)))))
    return _lattice(center, radius, k), 2.0 * radius / (k - 1)


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


def _refine_distance(s: SystemSpec, x: np.ndarray, start: np.ndarray,
                     y: np.ndarray, z: np.ndarray, step: float) -> float:
    dirs = _compass(s.n)
    res = _residual_fn(s, y, z)
    on_set = _pattern_search(res, start, max(step, 1e-7), 1e-13, dirs)
    if res(on_set) > _REFINE_RES_TOL:
        # could not certify a true solution nearby; keep the raw figure
        return float(np.linalg.norm(x - start))

    def constrained(c: np.ndarray) -> float:
        return float(np.linalg.norm(x - c)) if res(c) <= _REFINE_RES_TOL else np.inf

    final = _pattern_search(constrained, on_set, max(step, 1e-7), 1e-11, dirs)
    return float(np.linalg.norm(x - final))


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
    pts, step = _scan_grid(c0, scan_radius, budget)
    accepted = pts[_near(*s.values(pts), y, z, 8.0 * step)]
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
    return min(_refine_distance(s, x, p, y, z, step) for p in starts)


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
    evaluation.
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
        size = (str(count) if count < 10 ** 18
                else f"at least 1e{len(str(count)) - 1}")
        raise BudgetExceededError(
            f"regcheck grid of {target_grid}^{l + m} targets x {x_grid}^{s.n} "
            f"points = {size} exceeds the budget {budget}")
    from scipy.spatial import cKDTree

    center = np.asarray(center, dtype=float)
    xpts = _lattice(center, r, x_grid)
    taxis = _axis(0.0, r, target_grid)

    scan_pts, step = _scan_grid(center, scan_radius, budget)
    eta = 8.0 * step
    slack = 3.0 * step * np.sqrt(s.n)
    psi_cutoff = 10.0 * eta

    f_scan, g_scan = s.values(scan_pts)
    report = RegularityGridReport()

    for combo in itertools.product(range(target_grid), repeat=l + m):
        y, z = np.split(taxis[list(combo)], [l])
        accepted = scan_pts[_near(f_scan, g_scan, y, z, eta)]
        psi = PsiFunction(s, y, z).value(xpts)

        if accepted.shape[0] == 0:
            d = np.full(xpts.shape[0], np.inf)
            report.n_empty_solution_sets += 1
        else:
            d, _ = cKDTree(accepted).query(xpts)

        for i in range(xpts.shape[0]):
            if psi[i] < psi_cutoff:
                report.n_skipped_near_graph += 1
                continue
            report.n_checked += 1
            ratio = d[i] / psi[i]
            if ratio > report.worst_ratio:
                report.worst_ratio = float(ratio)
                report.worst_point = (tuple(xpts[i]), tuple(y), tuple(z))
            if d[i] > K * psi[i] + slack:
                dist = d[i]
                if np.isfinite(d[i]):
                    j = int(np.argmin(np.einsum("ij,ij->i",
                                                accepted - xpts[i],
                                                accepted - xpts[i])))
                    dist = _refine_distance(s, xpts[i], accepted[j], y, z, step)
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
    numpy's array pow can round a last bit differently from its scalar
    pow, so only a psi within rounding of the cut could be screened the
    other way.
    """
    base = np.concatenate([s.binding(center).point, *s.targets()])
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
            psi = PsiFunction(s, ys, zs).value(xs)
            # not psi > 1e-9: a nan psi stays a valid sample
            for i in np.flatnonzero(~(psi <= 1e-9)):
                valid += 1
                q = PsiFunction(s, ys[i], zs[i]).qd(xs[i])
                inf_margin = min(inf_margin, steepest_rate(q)[0])
        out.append((float(rho), float(inf_margin), valid))
    return out


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
