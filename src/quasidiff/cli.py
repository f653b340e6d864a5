"""Batch front-end over the analysis modules.

Subcommands share one problem-file format and three conventions: the
text report is byte-identical across runs for identical inputs, every
number in it reappears in the optional --json sidecar, and exit codes
mean 0 = check ran, 1 = a configured budget or limit cut the run short,
2 = the input was rejected, 3 = an internal error (a defect of the
program, reported as one line instead of a traceback).  For optcheck,
exit 1 means only that the sign-pattern count of the q.d.-MFCQ hull
test exceeds the budget.

main reads the problem file and the point once and opens the _Report
with the header and point lines; each command then adds only its own
lines.  One add per report line carries the sidecar fields that mirror
its numbers, and lines repeated per item (functions, ladder rungs,
violators, warnings) mirror one sidecar list.  main writes the sidecar
first, then the lines to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from .calculus import dd, steepest_rate
from .expressions import Binding, ExpressionError, qd_at
from .geometry import FEAS_TOL, Polytope
from .mfcq import (CAVEATS, PATTERN_BUDGET, BudgetExceededError,
                   InfeasiblePointError, qd_mfcq)
from .optimality import (C_LADDER, OptimalityError, estimate_c_star,
                         program_data, qualification_pathway)
from .problemfile import ProblemFile, ProblemFileError, check_numbers, load
from .regularity import (GRID_BUDGET, SCAN_RADIUS, TARGET_GRID, X_GRID,
                         RegularityError, center_line_slope, psi_expr,
                         verify_regularity_grid)

_MAX_VIOLATOR_LINES = 5


def _g(x) -> str:
    # + 0.0: a zero prints as 0, whatever its sign
    return "%.12g" % (float(x) + 0.0)


def _vec(v) -> str:
    return "(" + ", ".join(_g(c) for c in v) + ")"


def _poly(p: Polytope) -> str:
    body = ", ".join(_vec(v) for v in p.vertices)
    return "{" + body + "}" if p.nvertices == 1 else "co{" + body + "}"


def _floats(v) -> list | None:
    return None if v is None else [float(c) for c in np.atleast_1d(v)]


class _Report:
    """One command's report, opened with the header lines and the point
    x (the center for regcheck): each add writes one text line for stdout
    together with the --json sidecar fields that mirror its numbers."""

    def __init__(self, args, x, params: dict):
        self.lines: list = []
        self.payload: dict = {}
        self.add(f"quasidiff {args.command} report", command=args.command)
        # the feasibility cut is a constant, echoed so that every report
        # states it
        self.add(f"tol: {_g(FEAS_TOL)}", tol=FEAS_TOL)
        label = "center" if args.command == "regcheck" else "point"
        self.add(f"{label}: {_vec(x)}", params=dict(params),
                 **{label: _floats(x)})
        if params:
            self.add("params: " + ", ".join(
                f"{k} = {_g(v)}" for k, v in sorted(params.items())))

    def add(self, text=None, **fields) -> None:
        """Append the line text, if given, and the sidecar fields."""
        if text is not None:
            self.lines.append(text)
        self.payload.update(fields)


def _given(value, default):
    """value unless it is None: unlike `or`, keeps 0 and empty values."""
    return default if value is None else value


def _check_flags(args) -> None:
    """Reject a --target or --dir value that is not finite."""
    flags = [("target", getattr(args, "target", None))]
    flags += [("dir", h) for h in getattr(args, "dir", None) or []]
    for name, vals in flags:
        if vals is not None:
            check_numbers(f"--{name}", vals, " ".join(map(_g, vals)))


def _vector(flag: str, values, n: int) -> np.ndarray:
    """The values of a coordinate flag as a vector of R^n."""
    x = np.asarray(values, dtype=float)
    if x.shape != (n,):
        raise ProblemFileError(f"{flag} needs {n} coordinates, got {x.size}")
    return x


def _point_at(pf: ProblemFile) -> np.ndarray:
    if pf.point is None:
        raise ProblemFileError("no evaluation point: add [point] x = ...")
    return pf.point


def _xyz(x, y, z) -> dict:
    return {"x": _floats(x), "y": _floats(y), "z": _floats(z)}


def cmd_qd(args, pf: ProblemFile, x, out: _Report) -> None:
    b = Binding(x, dict(pf.params))
    roles = [("objective", pf.objective)] if pf.objective is not None else []
    roles += [(f"equality {j + 1}", f) for j, f in enumerate(pf.equalities)]
    roles += [(f"inequality {i + 1}", g)
              for i, g in enumerate(pf.inequalities)]
    if not roles:
        raise ProblemFileError("the problem file defines no functions")
    dirs = [_vector("--dir", h, pf.n) for h in args.dir or []]
    functions: list = []
    out.add(functions=functions)
    for role, e in roles:
        value = float(e.evaluate(b.point, b.params))
        q = qd_at(e, b)
        rec = {"role": role, "text": e.to_text(), "value": value, "dd": []}
        functions.append(rec)
        out.add(f"{role}: {e.to_text()}")
        out.add(f"  value: {_g(value)}")
        for key, part in (("sub", q.sub), ("sup", q.sup)):
            out.add(f"  {key}: {_poly(part)}")
            rec[key] = [_floats(v) for v in part.vertices]
        for h in dirs:
            val = float(dd(q, h))
            out.add(f"  dd {_vec(h)}: {_g(val)}")
            rec["dd"].append({"h": _floats(h), "value": val})


def cmd_slope(args, pf: ProblemFile, x, out: _Report) -> None:
    """Exact strong slope of psi = psi_{y,z} at the point.

    Grammar functions are locally Lipschitz and directionally
    differentiable, so psi(x + t d) = psi(x) + t psi'(x; d) + o(t)
    uniformly in |d| = 1, and the slope is max(0, -min_{|d|=1} psi'(x; d)).
    With psi'(x; d) = max_U <u, d> + min_V <v, d> that is
    max_{v in V} max(0, max_{|d|=1} -max_{u in U + v} <u, d>)
    = max_{v in V} d(0, U + v), the vertex margin of steepest_rate.
    At psi(x) = 0 the point minimises psi >= 0, so the slope is 0 and no
    quasidifferential is taken; a margin within FEAS_TOL prints 0, the cut
    `contains` uses.
    """
    s = pf.system()
    l, m = len(s.equalities), len(s.inequalities)
    y = z = None
    if args.target is not None:
        if len(args.target) != l + m:
            raise ProblemFileError(f"--target needs {l + m} values "
                                   f"({l} equality, {m} inequality)")
        y, z = args.target[:l], args.target[l:]
    y, z = s.targets(y, z)
    psi = psi_expr(s, y, z)
    value = float(psi.value(x))
    if value == 0.0:
        slope, witness, method = 0.0, None, "exact (psi = 0 is its minimum)"
    else:
        margin, witness = steepest_rate(psi.qd(x))
        slope = float(margin) if margin > FEAS_TOL else 0.0
        method = "exact (vertex margin)"
    out.add("norm: l1", norm="l1")
    out.add(f"target y: {_vec(y)}", target_y=_floats(y))
    out.add(f"target z: {_vec(z)}", target_z=_floats(z))
    out.add(f"psi at point: {_g(value)}", psi=value)
    out.add(f"slope estimate: {_g(slope)}", slope=slope,
            slope_witness=_floats(witness))
    out.add(f"slope method: {method}", slope_method=method)


def cmd_mfcq(args, pf: ProblemFile, x, out: _Report) -> None:
    rep = qd_mfcq(pf.system(), x,
                  budget=_given(pf.check.budget, PATTERN_BUDGET))
    out.add("active inequalities: "
            + (", ".join(str(i + 1) for i in rep.active) or "none"),
            active=[i + 1 for i in rep.active])
    fr, hb = rep.rank, rep.direction
    out.add(f"full rank: {'yes' if fr.full_rank else 'no'} ({fr.method})",
            full_rank=fr.full_rank, full_rank_method=fr.method)
    cert, hull = fr.certificate, {}
    if fr.distance is not None:
        cert += f", distance {_g(fr.distance)}"
        hull = {"full_rank_distance": float(fr.distance),
                "sign_patterns": fr.sign_patterns}
    out.add(f"  {cert}", full_rank_certificate=fr.certificate, **hull)
    if fr.failing_lambda is not None:
        out.add(f"failing lambda: {_vec(fr.failing_lambda)}",
                failing_lambda=_floats(fr.failing_lambda))
    out.add(f"equality span rank: {hb.eq_span_rank} "
            f"(complement dimension {hb.complement_dim})",
            eq_span_rank=hb.eq_span_rank, complement_dim=hb.complement_dim)
    out.add("hbar: " + ("none" if hb.hbar is None else _vec(hb.hbar)),
            hbar=_floats(hb.hbar))
    out.add(f"margin: {_g(hb.margin)}", margin=float(hb.margin))
    out.add("verdict: q.d.-MFCQ " + ("holds" if rep.verdict else "fails"),
            verdict=rep.verdict)
    out.add(warnings=list(rep.warnings), caveats=list(CAVEATS))
    for w in rep.warnings:
        out.add(f"warning: {w}")
    for cv in CAVEATS:
        out.add(f"caveat: {cv}")


def cmd_regcheck(args, pf: ProblemFile, center, out: _Report) -> None:
    s = pf.system()
    K, r = pf.check.k, pf.check.r
    if K is None or r is None:
        raise ProblemFileError("regcheck needs [check] K and r")
    x_grid = _given(pf.check.grid, X_GRID)
    target_grid = _given(pf.check.target_grid, TARGET_GRID)
    scan_radius = _given(pf.check.scan_radius, SCAN_RADIUS)
    budget = _given(pf.check.budget, GRID_BUDGET)

    rep = verify_regularity_grid(s, center, K, r, x_grid, target_grid,
                                 scan_radius=scan_radius, budget=budget)
    slope = center_line_slope(s, center, budget)
    out.add(f"K: {_g(K)}  r: {_g(r)}  x grid: {x_grid}  "
            f"target grid: {target_grid}", K=float(K), r=float(r),
            x_grid=x_grid, target_grid=target_grid)
    out.add(f"scan radius: {_g(scan_radius)}  budget: {budget}",
            scan_radius=float(scan_radius), budget=budget)
    out.add(f"checked: {rep.n_checked}  skipped near graph: "
            f"{rep.n_skipped_near_graph}  empty targets: "
            f"{rep.n_empty_solution_sets}", n_checked=rep.n_checked,
            n_skipped_near_graph=rep.n_skipped_near_graph,
            n_empty_solution_sets=rep.n_empty_solution_sets)
    out.add(f"worst ratio: {_g(rep.worst_ratio)}",
            worst_ratio=float(rep.worst_ratio))
    if rep.worst_point is not None:
        out.add("  at x = {}, y = {}, z = {}".format(
            *map(_vec, rep.worst_point)), worst_point=_xyz(*rep.worst_point))
    out.add(f"violators: {len(rep.violators)}", violators=[
        {**_xyz(v.x, v.y, v.z), "distance": float(v.distance),
         "psi": float(v.psi), "ratio": float(v.ratio)}
        for v in rep.violators])
    for v in rep.violators[:_MAX_VIOLATOR_LINES]:
        out.add(f"  x = {_vec(v.x)}, y = {_vec(v.y)}, z = {_vec(v.z)}: "
                f"d = {_g(v.distance)}, psi = {_g(v.psi)}, "
                f"ratio = {_g(v.ratio)}")
    if len(rep.violators) > _MAX_VIOLATOR_LINES:
        out.add(f"  ... and {len(rep.violators) - _MAX_VIOLATOR_LINES} "
                "more")
    out.add("certified: " + ("yes (up to grid resolution)"
                             if rep.certified else "no"),
            certified=rep.certified)
    if slope is None:
        out.add("center-line slope: not computed (the center is not in "
                "S(0, 0))", center_line_slope=None, center_line_patterns=None,
                modulus_lower_bound=None)
    else:
        # the least slope s bounds the modulus below by 1/s (regularity)
        s_min, patterns = slope
        bound = 1.0 / s_min if s_min else np.inf
        out.add(f"center-line slope: {_g(s_min)} (exact, {patterns} sign "
                "patterns)", center_line_slope=s_min,
                center_line_patterns=patterns)
        out.add("modulus lower bound: " + (_g(bound) if s_min else
                "inf (not metrically regular)"), modulus_lower_bound=bound)
    out.add(notes=[])
    if rep.n_empty_solution_sets:
        note = (f"{rep.n_empty_solution_sets} target(s) had an empty sampled "
                "solution set; distances recorded as +inf")
        out.add(f"note: {note}", notes=[note])


_PATHWAYS = {
    "qd-mfcq": "q.d.-MFCQ verified",
    "error-bound": "local error bound (piecewise-affine constraints)",
    "unconstrained": "unconstrained problem, no qualification needed",
    "none": "none verified (necessity of the conditions not established)"}


def cmd_optcheck(args, pf: ProblemFile, x, out: _Report) -> None:
    p = pf.program()
    b = p.binding(x)
    ladder = _given(pf.check.c, C_LADDER)
    data = program_data(p, b)
    pathway = qualification_pathway(
        p, data, budget=_given(pf.check.budget, PATTERN_BUDGET))
    out.add(f"objective: {p.objective.to_text()}",
            objective=p.objective.to_text())
    out.add(f"constraints: {len(p.equalities)} equalities, "
            f"{len(p.inequalities)} inequalities",
            n_equalities=len(p.equalities),
            n_inequalities=len(p.inequalities))
    out.add(f"qualification pathway: {_PATHWAYS[pathway]}",
            pathway={"kind": pathway, "mfcq_verdict": (
                None if pathway == "unconstrained"
                else pathway == "qd-mfcq")})
    # stationarity is monotone in c with the exact threshold c*
    # (optimality.estimate_c_star), so c >= c* decides each rung, and a
    # failing rung prints the vertex margin of Psi_c, its strong slope
    c_star = estimate_c_star(data)
    checks: list = []
    out.add(ladder=[float(c) for c in ladder], checks=checks)
    for c in ladder:
        margin = w = None
        if c < c_star:
            margin, w = steepest_rate(data.penalty(c))
        checks.append({"c": float(c), "stationarity": margin is None,
                       "violating_w": _floats(w),
                       "violating_distance": margin})
        out.add(f"c = {_g(c)}: stationarity holds" if margin is None else
                f"c = {_g(c)}: stationarity fails, violating w = {_vec(w)}, "
                f"distance {_g(margin)}")

    if np.isfinite(c_star):
        out.add(f"c* estimate: {_g(c_star)} (exact, one LP per vertex pair)",
                c_star=float(c_star))
    else:
        out.add("c* estimate: none (stationarity fails for every c >= 0)",
                c_star=None)

    # c* = inf is non-optimality only under a qualification (see optimality)
    if np.isinf(c_star) and pathway != "none":
        verdict = "necessary conditions fail: the point is not optimal"
    elif np.isinf(c_star):
        verdict = ("conditions fail at every tested c; no qualification "
                   "verified, so non-optimality is not certified")
    elif c_star <= max(ladder):
        verdict = ("necessary conditions hold at some tested c "
                   "(no sufficiency claim)")
    else:
        verdict = (f"necessary conditions hold only for c >= {_g(c_star)}, "
                   "above every tested c (no sufficiency claim)")
    out.add(f"verdict: {verdict}", verdict=verdict)


def _json_safe(obj):
    """obj with each float as the text report gives it: a zero without
    its sign, and a non-finite value spelt ("inf", "-inf", "nan"), which
    standard JSON has no number for."""
    if isinstance(obj, float):
        return obj + 0.0 if np.isfinite(obj) else _g(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_json_safe(payload), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
    except OSError as e:
        raise ProblemFileError(f"cannot write {path}: {e.strerror}") from e


_INPUT_ERRORS = (ProblemFileError, ExpressionError, InfeasiblePointError,
                 RegularityError, OptimalityError)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the CLI's error contract: a rejected command line is
    a ProblemFileError, which main prints as one line with exit 2, and
    every negative float literal is a flag value, not an option.
    argparse's own pattern has no exponent (-8.5e-16) and no -inf or -nan
    (any case, as float() reads them); the flag's own check then rejects
    a value that is not finite."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.I)

    def error(self, message):
        raise ProblemFileError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args keeps
    no state on it between calls."""
    ap = _ArgumentParser(
        prog="quasidiff",
        description="quasidifferential analysis of expression-defined "
                    "functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="problem file")
        sp.add_argument("--json", metavar="PATH",
                        help="write a machine-readable sidecar")

    sp = sub.add_parser("qd", help="quasidifferentials of the file's "
                                   "functions at a point")
    common(sp)
    sp.add_argument("--dir", action="append", nargs="+", type=float,
                    metavar="H", help="direction for a dd value; repeatable")

    sp = sub.add_parser("slope", help="exact strong slope of the "
                                      "target-distance function")
    common(sp)
    sp.add_argument("--target", nargs="+", type=float, metavar="T",
                    help="targets, equalities then inequalities (default 0)")

    sp = sub.add_parser("mfcq", help="quasidifferential MFCQ at the point")
    common(sp)

    sp = sub.add_parser("regcheck", help="grid check of metric regularity")
    common(sp)

    sp = sub.add_parser("optcheck", help="penalty-based necessary "
                                         "optimality conditions")
    common(sp)
    return ap


_COMMANDS = {"qd": cmd_qd, "slope": cmd_slope, "mfcq": cmd_mfcq,
             "regcheck": cmd_regcheck, "optcheck": cmd_optcheck}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # numpy overflow would otherwise give inf with a warning only
        with np.errstate(over="raise"):
            _check_flags(args)
            pf = load(args.file)
            x = _point_at(pf)
            out = _Report(args, x, pf.params)
            _COMMANDS[args.command](args, pf, x, out)
        # the sidecar goes first, so that a path it cannot use leaves
        # nothing on stdout
        if args.json:
            _write_json(args.json, out.payload)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OverflowError, FloatingPointError):
        # exit 1 means a budget ran out; an input too large for floats is
        # a rejected input
        print("error: a value overflows the float range while evaluating "
              "the problem", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(out.lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
