"""Independent answers for the generated problems, and the report checks.

Every answer here is computed from the generator's own data (the
coefficients it wrote into the problem file), never from the program's
output.  A verdict counts only when a certificate backs it:

* an explicit combination with residual <= COMBO_TOL, or
* a separating direction with margin >= SEPARATION_MARGIN.

The generators call the `decide_*` functions and redraw a problem whose
answer no certificate decides.  `check_report` compares one text report
with its answer and returns the failures, each tagged with a cause; the
causes in KNOWN_CAUSES are the defects the program has at the seed commit.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from scipy.optimize import linprog

COMBO_TOL = 1e-9
SEPARATION_MARGIN = 1e-6

# Causes of oracle disagreements that the seed commit is known to have.
KNOWN_CAUSES = {
    "mfcq-grid-miss": "the lambda sphere grid certifies 'full rank: yes' "
                      "for sets with an explicit dependent combination",
    "regcheck-distance-bias": "the distance oracle accepts |f - y| <= 1e-10 "
                              "as on the solution set, so violator "
                              "distances on cubic systems read low",
}


# ---------------------------------------------------------------------------
# piecewise-linear functions given by the generators
#
# A "kink sum" is a·x + sum_k c_k |b_k·x|, stored as {"a": [...],
# "terms": [[c, [b...]], ...]}.  It is positively homogeneous, so its
# directional derivative at 0 is the function itself.

def kink_value(f: dict, h) -> float:
    h = np.asarray(h, dtype=float)
    v = float(np.dot(f["a"], h))
    for c, b in f["terms"]:
        v += c * abs(float(np.dot(b, h)))
    return v


def zonotope_corners(f: dict) -> np.ndarray:
    """Points whose hull is the sum set a + sum_k |c_k| [-b_k, b_k]."""
    a = np.asarray(f["a"], dtype=float)
    gens = [abs(c) * np.asarray(b, dtype=float) for c, b in f["terms"]]
    pts = [a + sum((e * g for e, g in zip(signs, gens)), np.zeros_like(a))
           for signs in itertools.product((-1.0, 1.0), repeat=len(gens))]
    return np.array(pts)


def _lp(c, **kw):
    return linprog(c, method="highs", **kw)


def _combination(points: np.ndarray, free: np.ndarray | None = None):
    """Weights mu >= 0 summing to 1 (and free weights nu) with
    points^T mu + free^T nu = 0, or None.  Returns (mu, nu, residual)."""
    m, n = points.shape
    k = 0 if free is None else free.shape[0]
    a_eq = np.zeros((n + 1, m + k))
    a_eq[:n, :m] = points.T
    if k:
        a_eq[:n, m:] = free.T
    a_eq[n, :m] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    res = _lp(np.zeros(m + k), A_eq=a_eq, b_eq=b_eq,
              bounds=[(0, None)] * m + [(None, None)] * k)
    if res.status != 0:
        return None
    mu, nu = res.x[:m], res.x[m:]
    residual = float(np.max(np.abs(points.T @ mu
                                   + (free.T @ nu if k else 0.0))))
    return mu, nu, residual


def _separation(points: np.ndarray, equal: np.ndarray | None = None) -> float:
    """max t over |h|_inf <= 1 with p·h >= t for all points (and e·h = 0
    for the rows of `equal`)."""
    m, n = points.shape
    a_ub = np.hstack([-points, np.ones((m, 1))])
    kw = {}
    if equal is not None and equal.size:
        kw = {"A_eq": np.hstack([equal, np.zeros((equal.shape[0], 1))]),
              "b_eq": np.zeros(equal.shape[0])}
    res = _lp(np.r_[np.zeros(n), -1.0], A_ub=a_ub, b_ub=np.zeros(m),
              bounds=[(-1, 1)] * n + [(None, None)], **kw)
    if res.status != 0:
        raise RuntimeError(f"separation LP failed: {res.message}")
    return float(-res.fun)


def decide_independence(sets: list[np.ndarray]):
    """Sign-pattern test: the sets are dependent iff 0 is in
    conv(s_1 A_1 u ... u s_l A_l) for some s with s_1 = +1.

    True (independent: every pattern separated), False (dependent: an
    explicit combination) or None when no certificate decides.
    """
    patterns = list(itertools.product((1.0, -1.0), repeat=len(sets) - 1))
    separated = 0
    for tail in patterns:
        signs = (1.0,) + tail
        pts = np.vstack([s * a for s, a in zip(signs, sets)])
        combo = _combination(pts)
        if combo is not None and combo[2] <= COMBO_TOL:
            return False
        separated += _separation(pts) >= SEPARATION_MARGIN
    return True if separated == len(patterns) else None


def decide_hbar(eq_sets: list[np.ndarray], ineq_sets: list[np.ndarray]):
    """Is there h orthogonal to every equality sum and strictly negative on
    every active inequality sum?  Returns True/False or None."""
    if not ineq_sets:
        return True
    w = np.vstack(ineq_sets)
    e = np.vstack(eq_sets) if eq_sets else None
    if _separation(-w, e) >= SEPARATION_MARGIN:
        return True
    combo = _combination(w, e)
    if combo is not None and combo[2] <= COMBO_TOL:
        return False
    return None


# ---------------------------------------------------------------------------
# closed forms in the plane

def _perp(v):
    return np.array([-v[1], v[0]], dtype=float)


def _rays(normals) -> list[np.ndarray]:
    """Unit rays +-perp(a) of every normal a, plus +-e_i, by angle."""
    out = [np.array(v, dtype=float) for v in
           ([1, 0], [-1, 0], [0, 1], [0, -1])]
    for a in normals:
        a = np.asarray(a, dtype=float)
        if np.linalg.norm(a) > 0:
            p = _perp(a) / np.linalg.norm(a)
            out += [p, -p]
    return sorted(out, key=lambda r: math.atan2(r[1], r[0]))


def _gradient(f: dict, h) -> np.ndarray:
    """Gradient of the kink sum on the open cone containing h."""
    g = np.asarray(f["a"], dtype=float).copy()
    for c, b in f["terms"]:
        g += c * np.sign(float(np.dot(b, h))) * np.asarray(b, dtype=float)
    return g


def _breakpoints(kink_sums: list[dict], outer: list[dict]) -> list:
    """Rays between which every listed function is linear: the inner
    normals b_k, then the zero rays of each `outer` function (whose
    absolute value or positive part is taken) inside every cone."""
    inner = [b for f in kink_sums + outer for _, b in f["terms"]]
    rays = _rays(inner)
    zeros = []
    for f in outer:
        for r0, r1 in zip(rays, rays[1:] + rays[:1]):
            mid = r0 + r1
            if np.linalg.norm(mid) < 1e-12:
                continue
            zeros.append(_gradient(f, mid))
    return _rays(inner + zeros)


def penalty_truth(u: dict, eqs: list[dict], ineqs: list[dict],
                  ladder: list[float]):
    """Stationarity of Psi_c = u + c(sum |f_j| + sum max(g_i, 0)) at 0
    for each c of the ladder, and the threshold c*.

    All data are kink sums, so Psi_c is positively homogeneous and
    linear between consecutive rays: stationarity is Psi_c >= 0 on them.
    Returns None when some ladder value has |min_r Psi_c(r)| below the
    separation margin.
    """
    rays = _breakpoints([u], eqs + ineqs)
    uv = [kink_value(u, r) for r in rays]
    pv = []
    for r in rays:
        p = sum(abs(kink_value(f, r)) for f in eqs)
        p += sum(max(kink_value(g, r), 0.0) for g in ineqs)
        pv.append(p)
    holds = []
    for c in ladder:
        m = min(a + c * p for a, p in zip(uv, pv))
        if abs(m) < SEPARATION_MARGIN:
            return None
        holds.append(m > 0)
    c_star = 0.0
    for a, p in zip(uv, pv):
        if a >= 0:
            continue
        if p <= SEPARATION_MARGIN:
            c_star = math.inf
            break
        c_star = max(c_star, -a / p)
    return {"holds": holds, "c_star": c_star}


def slope_truth(eqs: list[dict], targets: list[float]) -> float:
    """Strong slope at 0 of sum_j |f_j(x) - y_j| with every y_j != 0.

    Near 0 the function is sum_j |y_j| - sign(y_j) f_j(x), so the slope is
    the positive part of max_{|h| = 1} sum_j sign(y_j) f_j(h).
    """
    n = len(eqs[0]["a"])
    combined = {"a": list(np.sum([np.sign(y) * np.asarray(f["a"])
                                  for f, y in zip(eqs, targets)], axis=0)),
                "terms": [[np.sign(y) * c, b] for f, y in zip(eqs, targets)
                          for c, b in f["terms"]]}
    if n == 1:
        return max(0.0, kink_value(combined, [1.0]),
                   kink_value(combined, [-1.0]))
    rays = _rays([b for _, b in combined["terms"]])
    best = max(kink_value(combined, r) for r in rays)
    for r0, r1 in zip(rays, rays[1:] + rays[:1]):
        g = _gradient(combined, r0 + r1)
        if np.linalg.norm(g) == 0:
            continue
        d = g / np.linalg.norm(g)
        # d lies in the cone spanned by r0, r1 (each under pi wide)
        if _cross(r0, d) >= 0 and _cross(d, r1) >= 0:
            best = max(best, kink_value(combined, d))
    return max(best, 0.0)


def _cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def lipschitz(fs: list[dict]) -> float:
    return sum(float(np.linalg.norm(f["a"]))
               + sum(abs(c) * float(np.linalg.norm(b)) for c, b in f["terms"])
               for f in fs)


def chain_dd(chain: dict, h) -> float:
    """Directional derivative at the common kink point of
    sum s c |a·(x - x0)| + sum s max_j(l_j·(x - x0)) + sum s min_j(...)."""
    h = np.asarray(h, dtype=float)
    v = 0.0
    for s, c, a in chain["abs"]:
        v += s * c * abs(float(np.dot(a, h)))
    for s, forms in chain["max"]:
        v += s * max(float(np.dot(l, h)) for l in forms)
    for s, forms in chain["min"]:
        v += s * min(float(np.dot(l, h)) for l in forms)
    return v


def chain_scale(chain: dict) -> float:
    tot = sum(c * float(np.linalg.norm(a)) for _, c, a in chain["abs"])
    for key in ("max", "min"):
        tot += sum(max(float(np.linalg.norm(l)) for l in forms)
                   for _, forms in chain[key])
    return tot


# ---------------------------------------------------------------------------
# report checks

_NUM = r"(-?(?:inf|nan|[0-9.]+(?:e[-+]?[0-9]+)?))"


def _lines(report: str, prefix: str) -> list[str]:
    return [ln for ln in report.splitlines() if ln.startswith(prefix)]


def _value_after(report: str, prefix: str):
    found = _lines(report, prefix)
    if not found:
        return None
    return found[0][len(prefix):].strip()


def _vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.strip("()").split(",")])


def check_report(answer: dict, report: str) -> list[tuple[str, str]]:
    """Compare one text report with its answer: [(cause, detail), ...]."""
    kind = answer["kind"]
    return _CHECKS[kind](answer, report)


def _check_qd(answer, report):
    got = [float(m.group(1)) for m in
           re.finditer(r"^  dd \([^)]*\): " + _NUM + "$", report, re.M)]
    want = answer["dd"]
    if len(got) != len(want):
        return [("qd-dd", f"{len(got)} dd lines, expected {len(want)}")]
    out = []
    for g, (w, scale) in zip(got, want):
        if abs(g - w) > 1e-9 * (1.0 + scale):
            out.append(("qd-dd", f"dd {g!r} vs closed form {w!r}"))
    return out


def _check_slope(answer, report):
    got = _value_after(report, "slope estimate:")
    if got is None:
        return [("slope", "no slope estimate line")]
    est, true, res = float(got), answer["slope"], answer["resolution"]
    if abs(est - true) > res + 1e-9 * (1.0 + true):
        return [("slope", f"estimate {est!r} vs closed form {true!r} "
                          f"(resolution {res:.3g})")]
    return []


def _check_mfcq(answer, report):
    out = []
    fr = _value_after(report, "full rank:")
    verdict = _value_after(report, "verdict:")
    if fr is None or verdict is None:
        return [("mfcq", "missing full rank or verdict line")]
    says_yes = fr.startswith("yes")
    grid = "lambda sphere grid" in fr
    if says_yes != answer["full_rank"]:
        cause = ("mfcq-grid-miss" if says_yes and grid else "mfcq-full-rank")
        out.append((cause, f"full rank line '{fr}', sign-pattern test says "
                           f"{'independent' if answer['full_rank'] else 'dependent'}"))
    holds = verdict.endswith("holds")
    if holds != answer["verdict"]:
        # a wrong full-rank line carries the verdict with it
        cause = out[0][0] if out else "mfcq-verdict"
        out.append((cause, f"verdict '{verdict}', oracle says "
                           f"{'holds' if answer['verdict'] else 'fails'}"))
    act = _value_after(report, "active inequalities:")
    want_act = ", ".join(str(i + 1) for i in range(answer["n_ineq"])) or "none"
    if act != want_act:
        out.append(("mfcq-active", f"active '{act}', expected '{want_act}'"))
    return out


def _check_optcheck(answer, report):
    out = []
    rows = _lines(report, "c = ")
    if len(rows) != len(answer["holds"]):
        return [("optcheck", f"{len(rows)} ladder lines, expected "
                             f"{len(answer['holds'])}")]
    for row, want in zip(rows, answer["holds"]):
        holds = "stationarity holds" in row
        if holds != want:
            out.append(("optcheck-stationarity",
                        f"'{row.split(';')[0]}', rays say "
                        f"{'holds' if want else 'fails'}"))
        if row.endswith("agreement: NO"):
            out.append(("optcheck-agreement", row.split(":")[0]))
    cs = _value_after(report, "c* estimate:")
    c_star = answer["c_star"]
    if any(answer["holds"]):
        if cs is None:
            out.append(("optcheck-cstar", "no c* line"))
        elif cs.startswith("none"):
            if c_star <= answer["c_max"]:
                out.append(("optcheck-cstar",
                            f"'{cs}', closed form {c_star!r}"))
        elif abs(float(cs.split()[0]) - c_star) > 1e-3 + 1e-6:
            out.append(("optcheck-cstar", f"'{cs}', closed form {c_star!r}"))
    return out


_VIOL = re.compile(r"^  x = (\([^)]*\)), y = (\([^)]*\)), z = \(\): "
                   r"d = " + _NUM + ", psi", re.M)


def _check_regcheck(answer, report):
    out = []
    n = answer["n"]
    radius = float(_value_after(report, "scan radius:").split()[0])
    budget = int(_value_after(report, "scan radius:").split()[-1])
    k = max(3, int(round(budget ** (1.0 / n))))
    slack = 3.0 * (2.0 * radius / (k - 1)) * math.sqrt(n)
    c, s, a = answer["c"], answer["shift"], np.asarray(answer["a"])
    # points with |c u^3| <= 1e-10 are accepted as solutions
    bias = (1e-10 / abs(c)) ** (1.0 / 3.0)
    for m in _VIOL.finditer(report):
        x, y, d = _vec(m.group(1)), _vec(m.group(2))[0], float(m.group(3))
        root = math.copysign(abs(y / c) ** (1.0 / 3.0), y / c)
        true = abs(float(np.dot(a, x)) - s - root)
        if abs(d - true) <= slack:
            continue
        known = d < true and true - d <= bias + slack
        out.append(("regcheck-distance-bias" if known else "regcheck-distance",
                    f"x = {m.group(1)}, y = {y:g}: d = {d!r}, "
                    f"closed form {true!r}, slack {slack:.3g}"))
    if len(out) > 1:
        out = [(out[0][0], out[0][1] + f" (and {len(out) - 1} more)")]
    return out


_CHECKS = {"qd": _check_qd, "slope": _check_slope, "mfcq": _check_mfcq,
           "optcheck": _check_optcheck, "regcheck": _check_regcheck}
