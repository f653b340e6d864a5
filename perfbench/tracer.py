"""Spans around the package's public functions, installed from outside.

`from .geometry import solve_lp` binds the function object in the
importing module, so a wrapper is installed under every module attribute
that holds the original object.  Each call records a span (name, start,
end, parent span, op id, attributes); spans stay in memory until the
caller writes them out.  `Expr.evaluate` is recursive and is recorded
for the outermost call only.

Run as a script it is a drop-in for `python -m quasidiff.cli` that traces
one op and writes its spans to a file:

    python3 perfbench/tracer.py SPANS.json qd problems/cubic.prob
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, public functions); Polytope construction is traced as
# "geometry.polytope" and the outermost Expr.evaluate as
# "expressions.evaluate"
PUBLIC = {
    "cli": ("main",),
    "problemfile": ("load", "loads"),
    "expressions": ("parse_expression", "eval_expr", "qd_at",
                    "qd_matrix_at", "kink_distance"),
    "calculus": ("dd", "qd_zero", "qd_smooth", "qd_add", "qd_scale", "qd_mul",
                 "qd_max", "qd_min", "qd_abs", "qd_plus_set", "matrix_qd_plus",
                 "steepest_rate", "absorb_singleton_sup",
                 "absorb_singleton_sub"),
    "geometry": ("solve_lp", "zero_polytope", "singleton", "minkowski_sum",
                 "scale", "convex_hull_union", "support", "nearest_point",
                 "contains", "span_basis", "complement_basis"),
    "mfcq": ("active_inequalities", "full_rank_det_range",
             "full_rank_general", "find_hbar", "qd_mfcq"),
    "optimality": ("build_penalty", "feasibility_violations",
                   "check_stationarity", "check_multipliers",
                   "check_all_selections", "estimate_c_star",
                   "qualification_pathway"),
    "regularity": ("psi_expr", "check_condition4", "sampled_strong_slope",
                   "solution_distance", "verify_regularity_grid",
                   "margin_infima", "decay_flag"),
}


def _attrs_solve_lp(args, kwargs, out):
    return {"infeasible": out.status.value == "infeasible"}


def _attrs_qd_at(args, kwargs, out):
    e, b = args[0], args[1]
    key = (e, b.point.tobytes(), tuple(sorted(b.params.items())))
    return {"key": key, "vertices": max(out.sub.nvertices, out.sup.nvertices)}


def _attrs_polytope(args, kwargs, out):
    return {"points_in": int(np.atleast_2d(np.asarray(args[1])).shape[0]),
            "kept": int(args[0].vertices.shape[0])}


def _attrs_det_range(args, kwargs, out):
    return {"tuples": out.count}


def _attrs_selections(args, kwargs, out):
    return {"selections": out.n_checked}


ATTRS = {"geometry.polytope": _attrs_polytope,
         "geometry.solve_lp": _attrs_solve_lp,
         "expressions.qd_at": _attrs_qd_at,
         "mfcq.full_rank_det_range": _attrs_det_range,
         "optimality.check_all_selections": _attrs_selections}


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, t0, t1, parent, op, attrs]
        self.stack: list = []
        self.op = None
        self._restore: list = []
        self._eval_depth = 0

    def _span(self, name, fn, args, kwargs, attrs=None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.op, attrs]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        extra = ATTRS.get(name)
        if extra is not None:
            rec[5] = extra(args, kwargs, out)
        return out

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def install(self) -> None:
        import quasidiff.cli  # noqa: F401  (loads every module)
        from quasidiff import expressions, geometry

        mods = [m for k, m in sys.modules.items()
                if k == "quasidiff" or k.startswith("quasidiff.")]
        for short, names in PUBLIC.items():
            mod = sys.modules[f"quasidiff.{short}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

        init = geometry.Polytope.__init__

        def polytope_init(poly, points):
            self._span("geometry.polytope", init, (poly, points), {})

        geometry.Polytope.__init__ = polytope_init
        self._restore.append((geometry.Polytope, "__init__", init))

        for cls in _expr_classes(expressions.Expr):
            if "evaluate" in vars(cls):
                orig = vars(cls)["evaluate"]
                setattr(cls, "evaluate", self._outermost(orig))
                self._restore.append((cls, "evaluate", orig))

    def _outermost(self, orig):
        def evaluate(expr, point, params=None):
            if self._eval_depth:
                return orig(expr, point, params)
            self._eval_depth += 1
            try:
                return self._span("expressions.evaluate", orig,
                                  (expr, point, params), {},
                                  {"batched": np.ndim(point) > 1})
            finally:
                self._eval_depth -= 1
        return evaluate

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self) -> list:
        """Spans as JSON-ready rows; attribute keys that are not plain
        values (the qd_at repeat key) become strings."""
        rows = []
        for name, t0, t1, parent, op, attrs in self.spans:
            if attrs and "key" in attrs:
                attrs = dict(attrs, key=str(hash(attrs["key"])))
            rows.append([name, t0, t1, parent, op, attrs])
        return rows


def _expr_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(spans: list, op_seconds: float) -> dict:
    """Aggregate spans (rows as produced by Tracer.dump) of one pass.

    For each name: calls, s (time not already inside a span of the same
    name) and self_s (time minus direct child spans).  op_seconds is the
    traced wall time of the same ops, the base of the shares.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)
    self_s = defaultdict(float)
    names = [s[0] for s in spans]
    query = {"geometry.solve_lp", "geometry.nearest_point",
             "expressions.evaluate"}
    query_s = 0.0
    frg_lps = 0   # LPs issued inside full_rank_general
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        up, nested, in_query, in_frg = parent, False, False, False
        while up >= 0:
            nested |= names[up] == name
            in_query |= names[up] in query
            in_frg |= names[up] == "mfcq.full_rank_general"
            up = spans[up][3]
        if not nested:
            busy[name] += t1 - t0
        if name in query and not in_query:
            query_s += t1 - t0
        frg_lps += name == "geometry.solve_lp" and in_frg

    def attr_rows(name):
        return [s[5] for s in spans if s[0] == name and s[5]]

    poly = attr_rows("geometry.polytope")
    points_in = sum(a["points_in"] for a in poly)
    lps = attr_rows("geometry.solve_lp")
    evals = attr_rows("expressions.evaluate")
    qd = [s for s in spans if s[0] == "expressions.qd_at"]
    seen, repeats = set(), 0
    for s in qd:
        key = (s[4], s[5]["key"])
        repeats += key in seen
        seen.add(key)

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for name in sorted(calls):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = busy[name]
        m[f"{name}.self_s"] = self_s[name]
    m.update({
        "expressions.qd_at.max_vertices": max(
            (s[5]["vertices"] for s in qd), default=0),
        "expressions.qd_at.repeat_frac": frac(repeats, len(qd)),
        "expressions.evaluate.batched_frac": frac(
            sum(a["batched"] for a in evals), len(evals)),
        "geometry.polytope.builds": calls["geometry.polytope"],
        "geometry.polytope.points_in": points_in,
        "geometry.polytope.kept_frac": frac(
            sum(a["kept"] for a in poly), points_in),
        "geometry.solve_lp.infeasible_frac": frac(
            sum(a["infeasible"] for a in lps), len(lps)),
        "mfcq.full_rank_general.lps_per_call": frac(
            frg_lps, calls["mfcq.full_rank_general"]),
        "mfcq.full_rank_det_range.tuples": sum(
            a["tuples"] for a in attr_rows("mfcq.full_rank_det_range")),
        "optimality.check_all_selections.selections": sum(
            a["selections"]
            for a in attr_rows("optimality.check_all_selections")),
        "trace.share_polytope": frac(busy["geometry.polytope"], op_seconds),
        "trace.share_query": frac(query_s, op_seconds),
    })
    return m


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import quasidiff.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.op = "op"
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
