"""Batch front-end over the analysis modules.

Subcommands share one problem-file format and three conventions: the
text report is byte-identical across runs for identical inputs, every
number in it reappears in the optional --json sidecar, and exit codes
mean 0 = check ran, 1 = a configured budget or limit cut the run short,
2 = the input was rejected, 3 = an internal error (a defect of the
program, reported as one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .calculus import dd, steepest_rate
from .expressions import Binding, ExpressionError, qd_at
from .geometry import FEAS_TOL, Polytope
from .mfcq import (DET_BUDGET, BudgetExceededError, InfeasiblePointError,
                   qd_mfcq)
from .optimality import (C_LADDER, SELECTION_BUDGET, OptimalityError,
                         check_all_selections, check_stationarity,
                         estimate_c_star, feasibility_violations,
                         qualification_pathway)
from .problemfile import ProblemFile, ProblemFileError, _finite, load
from .regularity import (RegularityError, decay_flag, margin_infima,
                         psi_expr, verify_regularity_grid)

_MAX_VIOLATOR_LINES = 5
_NUMERIC_FLAGS = ("at", "target", "c", "K", "r", "tol")


def _g(x) -> str:
    return "%.12g" % float(x)


def _vec(v) -> str:
    return "(" + ", ".join(_g(c) for c in v) + ")"


def _poly(p: Polytope) -> str:
    body = ", ".join(_vec(v) for v in p.vertices)
    return "{" + body + "}" if p.nvertices == 1 else "co{" + body + "}"


def _floats(v) -> list:
    return [float(c) for c in np.atleast_1d(v)]


def _header(args, lines: list, payload: dict) -> None:
    lines.append(f"quasidiff {args.command} report")
    lines.append(f"seed: {args.seed}")
    lines.append(f"tol: {_g(args.tol)}")
    payload.update(command=args.command, seed=args.seed,
                   tol=float(args.tol))


def _params_line(params: dict, lines: list) -> None:
    if params:
        body = ", ".join(f"{k} = {_g(v)}" for k, v in sorted(params.items()))
        lines.append(f"params: {body}")


def _given(value, default):
    """value unless it is None: unlike `or`, keeps 0 and empty values."""
    return default if value is None else value


def _check_flags(args) -> None:
    """Reject numeric flags that a problem file would reject."""
    flags = [(f"--{name}", getattr(args, name, None))
             for name in _NUMERIC_FLAGS]
    flags += [("--dir", h) for h in getattr(args, "dir", None) or []]
    for flag, value in flags:
        if value is not None:
            vals = np.atleast_1d(value)
            _finite(vals, " ".join(_g(v) for v in vals), None, flag)
    if args.tol <= 0:
        raise ProblemFileError(f"--tol must be positive, got {_g(args.tol)}")
    if args.seed < 0:
        raise ProblemFileError(f"--seed must be >= 0, got {args.seed}")
    for name in ("K", "r"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ProblemFileError(f"--{name} must be positive, "
                                   f"got {_g(value)}")
    grid = getattr(args, "grid", None)
    if grid is not None and grid < 1:
        raise ProblemFileError(f"--grid must be >= 1, got {grid}")
    if grid is not None and grid % 2 == 0:
        raise ProblemFileError(f"--grid must be odd, got {grid}")


def _point_at(pf: ProblemFile, args) -> np.ndarray:
    at = getattr(args, "at", None)
    if at is not None:
        x = np.asarray(at, dtype=float)
        if x.shape != (pf.n,):
            raise ProblemFileError(f"--at needs {pf.n} coordinates, "
                                   f"got {x.size}")
        return x
    if pf.point is None:
        raise ProblemFileError("no evaluation point: add [point] x = ... "
                               "or pass --at")
    return pf.point


def _selection_str(sel) -> str:
    return (f"w0={sel.w0} v={list(sel.v)} w={list(sel.w)} "
            f"z={list(sel.z)}")


def cmd_qd(args) -> tuple[list, dict, int]:
    pf = load(args.file)
    x = _point_at(pf, args)
    b = Binding(x, dict(pf.params))
    roles = []
    if pf.objective is not None:
        roles.append(("objective", pf.objective))
    roles += [(f"equality {j + 1}", f) for j, f in enumerate(pf.equalities)]
    roles += [(f"inequality {i + 1}", g)
              for i, g in enumerate(pf.inequalities)]
    if not roles:
        raise ProblemFileError("the problem file defines no functions")
    dirs = []
    for h in args.dir or []:
        hv = np.asarray(h, dtype=float)
        if hv.shape != (pf.n,):
            raise ProblemFileError(f"--dir needs {pf.n} coordinates, "
                                   f"got {hv.size}")
        dirs.append(hv)

    lines: list = []
    payload: dict = {}
    _header(args, lines, payload)
    lines.append(f"point: {_vec(x)}")
    _params_line(pf.params, lines)
    payload.update(point=_floats(x), params=dict(pf.params), functions=[])
    for role, e in roles:
        value = float(e.evaluate(b.point, b.params))
        q = qd_at(e, b)
        lines.append(f"{role}: {e.to_text()}")
        lines.append(f"  value: {_g(value)}")
        lines.append(f"  sub: {_poly(q.sub)}")
        lines.append(f"  sup: {_poly(q.sup)}")
        rec = {"role": role, "text": e.to_text(), "value": value,
               "sub": [ _floats(v) for v in q.sub.vertices ],
               "sup": [ _floats(v) for v in q.sup.vertices ],
               "dd": []}
        for h in dirs:
            val = dd(q, h)
            lines.append(f"  dd {_vec(h)}: {_g(val)}")
            rec["dd"].append({"h": _floats(h), "value": float(val)})
        payload["functions"].append(rec)
    return lines, payload, 0


def cmd_slope(args) -> tuple[list, dict, int]:
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
    pf = load(args.file)
    s = pf.system()
    x = _point_at(pf, args)
    l, m = len(s.equalities), len(s.inequalities)
    if args.target is not None:
        t = [float(v) for v in args.target]
        if len(t) != l + m:
            raise ProblemFileError(f"--target needs {l + m} values "
                                   f"({l} equality, {m} inequality)")
        y, z = t[:l], t[l:]
    else:
        y = list(pf.check.y) if pf.check.y is not None else [0.0] * l
        z = list(pf.check.z) if pf.check.z is not None else [0.0] * m
    psi = psi_expr(s, y, z)
    value = float(psi.value(x))
    if value == 0.0:
        slope, witness = 0.0, None
        method = "exact (psi = 0 is its minimum)"
    else:
        margin, w = steepest_rate(psi.qd(x))
        slope = float(margin) if margin > FEAS_TOL else 0.0
        witness = _floats(w)
        method = "exact (vertex margin)"

    lines: list = []
    payload: dict = {}
    _header(args, lines, payload)
    lines.append(f"point: {_vec(x)}")
    _params_line(pf.params, lines)
    lines.append("norm: l1")
    lines.append(f"target y: {_vec(y) if y else '()'}")
    lines.append(f"target z: {_vec(z) if z else '()'}")
    lines.append(f"psi at point: {_g(value)}")
    lines.append(f"slope estimate: {_g(slope)}")
    lines.append(f"slope method: {method}")
    payload.update(point=_floats(x), params=dict(pf.params), norm="l1",
                   target_y=y, target_z=z, psi=value, slope=slope,
                   slope_method=method, slope_witness=witness)
    return lines, payload, 0


def cmd_mfcq(args) -> tuple[list, dict, int]:
    pf = load(args.file)
    s = pf.system()
    x = _point_at(pf, args)
    budget = _given(pf.check.budget, DET_BUDGET)
    rep = qd_mfcq(s, x, tol=args.tol, budget=budget)

    lines: list = []
    payload: dict = {}
    _header(args, lines, payload)
    lines.append(f"point: {_vec(rep.point)}")
    _params_line(rep.params, lines)
    act = ", ".join(str(i + 1) for i in rep.active) if rep.active else "none"
    lines.append(f"active inequalities: {act}")
    lines.append(f"full rank: {'yes' if rep.full_rank else 'no'} "
                 f"({rep.full_rank_method})")
    lines.append(f"  {rep.full_rank_certificate}")
    payload.update(point=_floats(rep.point), params=dict(rep.params),
                   active=[i + 1 for i in rep.active],
                   full_rank=rep.full_rank,
                   full_rank_method=rep.full_rank_method,
                   full_rank_certificate=rep.full_rank_certificate)
    if rep.det_range is not None:
        lines.append(f"det range: [{_g(rep.det_range.min_det)}, "
                     f"{_g(rep.det_range.max_det)}]")
        payload["det_range"] = [float(rep.det_range.min_det),
                                float(rep.det_range.max_det)]
    if rep.failing_lambda is not None:
        lines.append(f"failing lambda: {_vec(rep.failing_lambda)}")
        payload["failing_lambda"] = _floats(rep.failing_lambda)
    lines.append(f"equality span rank: {rep.eq_span_rank} "
                 f"(complement dimension {rep.complement_dim})")
    lines.append("hbar: " + (_vec(rep.hbar) if rep.hbar is not None
                             else "none"))
    lines.append(f"margin: {_g(rep.margin)}")
    lines.append("verdict: q.d.-MFCQ "
                 + ("holds" if rep.verdict else "fails"))
    payload.update(eq_span_rank=rep.eq_span_rank,
                   complement_dim=rep.complement_dim,
                   hbar=None if rep.hbar is None else _floats(rep.hbar),
                   margin=float(rep.margin), verdict=rep.verdict,
                   warnings=list(rep.warnings), caveats=list(rep.caveats))
    for w in rep.warnings:
        lines.append(f"warning: {w}")
    for cv in rep.caveats:
        lines.append(f"caveat: {cv}")
    return lines, payload, 0


def cmd_regcheck(args) -> tuple[list, dict, int]:
    pf = load(args.file)
    s = pf.system()
    center = _point_at(pf, args)
    K = _given(args.K, pf.check.k)
    r = _given(args.r, pf.check.r)
    if K is None or r is None:
        raise ProblemFileError("regcheck needs K and r "
                               "(flags --K/--r or [check] K/r)")
    x_grid = _given(args.grid, _given(pf.check.grid, 21))
    target_grid = _given(pf.check.target_grid, 11)
    scan_radius = _given(pf.check.scan_radius, 1.0)
    budget = _given(pf.check.budget, 10 ** 6)

    rep = verify_regularity_grid(s, center, K, r, x_grid, target_grid,
                                 scan_radius=scan_radius, budget=budget)
    infima = margin_infima(s, center, seed=args.seed)
    rep.margin_infima.extend(infima)
    rep.nonregularity_consistent = decay_flag(infima)

    lines: list = []
    payload: dict = {}
    _header(args, lines, payload)
    lines.append(f"center: {_vec(center)}")
    _params_line(pf.params, lines)
    lines.append(f"K: {_g(K)}  r: {_g(r)}  x grid: {x_grid}  "
                 f"target grid: {target_grid}")
    lines.append(f"scan radius: {_g(scan_radius)}  budget: {budget}")
    lines.append(f"checked: {rep.n_checked}  skipped near graph: "
                 f"{rep.n_skipped_near_graph}  empty targets: "
                 f"{rep.n_empty_solution_sets}")
    lines.append(f"worst ratio: {_g(rep.worst_ratio)}")
    payload.update(center=_floats(center), params=dict(pf.params),
                   K=float(K), r=float(r), x_grid=x_grid,
                   target_grid=target_grid, scan_radius=float(scan_radius),
                   budget=budget, n_checked=rep.n_checked,
                   n_skipped_near_graph=rep.n_skipped_near_graph,
                   n_empty_solution_sets=rep.n_empty_solution_sets,
                   worst_ratio=float(rep.worst_ratio))
    if rep.worst_point is not None:
        wx, wy, wz = rep.worst_point
        lines.append(f"  at x = {_vec(wx)}, y = {_vec(wy)}, z = {_vec(wz)}")
        payload["worst_point"] = {"x": _floats(wx), "y": _floats(wy),
                                  "z": _floats(wz)}
    lines.append(f"violators: {len(rep.violators)}")
    payload["violators"] = []
    for v in rep.violators[:_MAX_VIOLATOR_LINES]:
        lines.append(f"  x = {_vec(v.x)}, y = {_vec(v.y)}, z = {_vec(v.z)}: "
                     f"d = {_g(v.distance)}, psi = {_g(v.psi)}, "
                     f"ratio = {_g(v.ratio)}")
    if len(rep.violators) > _MAX_VIOLATOR_LINES:
        lines.append(f"  ... and {len(rep.violators) - _MAX_VIOLATOR_LINES} "
                     "more")
    for v in rep.violators:
        payload["violators"].append({
            "x": _floats(v.x), "y": _floats(v.y), "z": _floats(v.z),
            "distance": float(v.distance), "psi": float(v.psi),
            "ratio": float(v.ratio)})
    lines.append("certified: " + ("yes (up to grid resolution)"
                                  if rep.certified else "no"))
    for radius, inf_margin, n_valid in infima:
        lines.append(f"margin infimum r = {_g(radius)}: {_g(inf_margin)} "
                     f"({n_valid} valid)")
    lines.append("consistent with non-regularity: "
                 + ("yes" if rep.nonregularity_consistent else "no"))
    payload.update(certified=rep.certified,
                   margin_infima=[{"radius": float(a), "infimum": float(b),
                                   "n_valid": int(c)}
                                  for a, b, c in infima],
                   nonregularity_consistent=rep.nonregularity_consistent,
                   notes=list(rep.notes))
    for note in rep.notes:
        lines.append(f"note: {note}")
    return lines, payload, 0


def cmd_optcheck(args) -> tuple[list, dict, int]:
    pf = load(args.file)
    p = pf.program()
    x = _point_at(pf, args)
    b = p.binding(x)
    bad = feasibility_violations(p, b, args.tol)
    if bad:
        raise InfeasiblePointError(bad)
    ladder = tuple(_given(args.c, _given(pf.check.c, C_LADDER)))
    budget = _given(pf.check.budget, SELECTION_BUDGET)
    pathway = qualification_pathway(p, b, tol=args.tol)

    lines: list = []
    payload: dict = {}
    _header(args, lines, payload)
    lines.append(f"point: {_vec(x)}")
    _params_line(pf.params, lines)
    lines.append(f"objective: {p.objective.to_text()}")
    lines.append(f"constraints: {len(p.equalities)} equalities, "
                 f"{len(p.inequalities)} inequalities")
    if pathway.kind == "qd-mfcq":
        pw = "q.d.-MFCQ verified"
    elif pathway.kind == "error-bound":
        pw = "local error bound (piecewise-affine constraints)"
    elif pathway.kind == "unconstrained":
        pw = "unconstrained problem, no qualification needed"
    else:
        pw = "none verified (necessity of the conditions not established)"
    lines.append(f"qualification pathway: {pw}")
    payload.update(point=_floats(x), params=dict(pf.params),
                   objective=p.objective.to_text(),
                   n_equalities=len(p.equalities),
                   n_inequalities=len(p.inequalities),
                   pathway={"kind": pathway.kind,
                            "mfcq_verdict": pathway.mfcq_verdict},
                   ladder=[float(c) for c in ladder], checks=[])

    exit_code = 0
    for c in ladder:
        st = check_stationarity(p, b, c)
        sw = check_all_selections(p, b, c_bound=c, budget=budget)
        if st.holds:
            st_text = "stationarity holds"
        else:
            st_text = f"stationarity fails, violating w = {_vec(st.violating_w)}"
        if sw.holds is True:
            sw_text = f"all {sw.n_total} selections feasible"
        elif sw.holds is False:
            sw_text = (f"infeasible selection "
                       f"{_selection_str(sw.first_infeasible.selection)} "
                       f"({sw.n_checked} of {sw.n_total} checked)")
        else:
            sw_text = (f"budget cut the sweep after {sw.n_checked} of "
                       f"{sw.n_total} selections")
            exit_code = 1
        if sw.holds is None:
            agree = "undetermined"
        else:
            agree = "yes" if st.holds == sw.holds else "NO"
        lines.append(f"c = {_g(c)}: {st_text}; {sw_text}; agreement: {agree}")
        payload["checks"].append({
            "c": float(c), "stationarity": bool(st.holds),
            "violating_w": None if st.violating_w is None
            else _floats(st.violating_w),
            "selections": None if sw.holds is None else bool(sw.holds),
            "n_total": sw.n_total, "n_checked": sw.n_checked,
            "first_infeasible": None if sw.first_infeasible is None else {
                "w0": sw.first_infeasible.selection.w0,
                "v": list(sw.first_infeasible.selection.v),
                "w": list(sw.first_infeasible.selection.w),
                "z": list(sw.first_infeasible.selection.z)},
            "agreement": agree})

    c_star = estimate_c_star(p, b)
    if np.isfinite(c_star):
        lines.append(f"c* estimate: {_g(c_star)} "
                     "(exact, one LP per vertex pair)")
        payload["c_star"] = float(c_star)
    else:
        lines.append("c* estimate: none (stationarity fails for every c >= 0)")
        payload["c_star"] = None

    # c* = inf is non-optimality only under a qualification (see optimality)
    if np.isinf(c_star) and pathway.kind != "none":
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
    lines.append(f"verdict: {verdict}")
    payload["verdict"] = verdict
    return lines, payload, exit_code


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ProblemFileError(f"cannot write {path}: {e.strerror}") from e


_INPUT_ERRORS = (ProblemFileError, ExpressionError, InfeasiblePointError,
                 RegularityError, OptimalityError)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasidiff",
        description="quasidifferential analysis of expression-defined "
                    "functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="problem file")
        sp.add_argument("--json", metavar="PATH",
                        help="write a machine-readable sidecar")
        sp.add_argument("--seed", type=int, default=0,
                        help="seeds regcheck's margin shells only "
                             "(default 0)")
        sp.add_argument("--tol", type=float, default=FEAS_TOL,
                        help="feasibility/active tolerance (default 1e-9)")

    sp = sub.add_parser("qd", help="quasidifferentials of the file's "
                                   "functions at a point")
    common(sp)
    sp.add_argument("--at", nargs="+", type=float, metavar="X",
                    help="evaluation point (overrides [point])")
    sp.add_argument("--dir", action="append", nargs="+", type=float,
                    metavar="H", help="direction for a dd value; repeatable")

    sp = sub.add_parser("slope", help="exact strong slope of the "
                                      "target-distance function")
    common(sp)
    sp.add_argument("--at", nargs="+", type=float, metavar="X")
    sp.add_argument("--target", nargs="+", type=float, metavar="T",
                    help="target values, equalities then inequalities")

    sp = sub.add_parser("mfcq", help="quasidifferential MFCQ at the point")
    common(sp)
    sp.add_argument("--at", nargs="+", type=float, metavar="X")

    sp = sub.add_parser("regcheck", help="grid check of metric regularity")
    common(sp)
    sp.add_argument("--at", nargs="+", type=float, metavar="X")
    sp.add_argument("--K", type=float, help="regularity constant")
    sp.add_argument("--r", type=float, help="neighborhood radius")
    sp.add_argument("--grid", type=int, help="points per axis (odd)")

    sp = sub.add_parser("optcheck", help="penalty-based necessary "
                                         "optimality conditions")
    common(sp)
    sp.add_argument("--at", nargs="+", type=float, metavar="X")
    sp.add_argument("--c", nargs="+", type=float, metavar="C",
                    help="penalty ladder (default 0.5 1 2 10 100)")
    return ap


_COMMANDS = {"qd": cmd_qd, "slope": cmd_slope, "mfcq": cmd_mfcq,
             "regcheck": cmd_regcheck, "optcheck": cmd_optcheck}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # numpy overflow would otherwise give inf with a warning only
        with np.errstate(over="raise"):
            _check_flags(args)
            lines, payload, code = _COMMANDS[args.command](args)
        # the sidecar goes first, so that a path it cannot use leaves
        # nothing on stdout
        if args.json:
            _write_json(args.json, payload)
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
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
