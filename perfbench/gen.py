"""Seeded workloads: the problem files, the command lines and the answers.

Each workload is a list of ops (one subcommand on one problem file) plus
one warm-up op per subcommand.  Everything is drawn from the seed with the
stdlib generator, so the same seed gives the same files on any machine.
The answer of every op comes from oracle.py and the generator's own
coefficients; a draw whose answer no certificate decides is redrawn, and
the number of redraws is recorded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

COMMANDS = ("qd", "slope", "mfcq", "regcheck", "optcheck")
FIXTURES = ("cubic.prob", "penalty_demo.prob", "sin_system.prob")


@dataclass
class Op:
    key: str                 # unique within the workload
    command: str
    file: str                # path relative to the checkout root
    flags: list = field(default_factory=list)
    text: str | None = None  # file content to write; None for a fixture
    answer: dict | None = None

    def argv(self) -> list[str]:
        return [self.command, self.file] + self.flags


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    redraws: int = 0


# ---------------------------------------------------------------------------
# text helpers

def _num(v: float) -> str:
    return format(v, ".10g")


def _lin(coef, const: float = 0.0) -> str:
    parts = [(a, f"{_num(abs(a))}*x{i}") for i, a in enumerate(coef, 1) if a]
    if const:
        parts.append((const, _num(abs(const))))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] < 0 else "") + parts[0][1]
    for v, t in parts[1:]:
        out += (" - " if v < 0 else " + ") + t
    return out


def _kink_text(f: dict) -> str:
    """a·x + sum c |b·x| as problem-file text."""
    out = _lin(f["a"]) if any(f["a"]) else ""
    for c, b in f["terms"]:
        term = f"{_num(abs(c))}*abs({_lin(b)})"
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += (" - " if c < 0 else " + ") + term
    return out or "0"


def _file(n: int, eqs=(), ineqs=(), objective=None, point=None,
          check=None) -> str:
    lines = ["[problem]", f"n = {n}"]
    if objective is not None:
        lines.append(f"objective = {objective}")
    lines += [f"equality = {e}" for e in eqs]
    lines += [f"inequality = {g}" for g in ineqs]
    lines += ["", "[point]",
              "x = " + " ".join(_num(v) for v in (point or [0.0] * n))]
    if check:
        lines += ["", "[check]"] + [f"{k} = {v}" for k, v in check.items()]
    return "\n".join(lines) + "\n"


class _Draw:
    def __init__(self, seed: int, salt: str):
        self.rng = random.Random(f"{salt}:{seed}")

    def dec(self, lo: float, hi: float, digits: int = 2) -> float:
        return round(self.rng.uniform(lo, hi), digits)

    def vec(self, n: int, lo: float = -2.0, hi: float = 2.0,
            digits: int = 1) -> list[float]:
        while True:
            v = [self.dec(lo, hi, digits) for _ in range(n)]
            if any(v):
                return v

    def coef(self, lo: float = 0.5, hi: float = 2.0) -> float:
        return self.rng.choice((-1.0, 1.0)) * self.dec(lo, hi, 1)

    def kink(self, n: int, k: int, linear: bool = True) -> dict:
        return {"a": self.vec(n) if linear else [0.0] * n,
                "terms": [[self.coef(), self.vec(n)] for _ in range(k)]}


# ---------------------------------------------------------------------------
# cli-fixtures

# closed forms of the shipped fixtures at their [point] (all at 0, p = 1)
def _fixture_roles(name: str) -> list:
    if name == "cubic.prob":
        return [lambda h: 0.0]
    if name == "penalty_demo.prob":
        return [lambda h: -h[0] + h[1], lambda h: abs(h[0]) - abs(h[1])]
    return [lambda h: max(2 * h[0], h[0]) - abs(h[1]),
            lambda h: (h[0] + h[1]) + min(h[1], 2 * h[1])]


_FIXTURE_N = {"cubic.prob": 1, "penalty_demo.prob": 2, "sin_system.prob": 2}

# sum sets (sub + sup) of the fixtures' equalities at their points
_FIXTURE_SETS = {
    "cubic.prob": [np.zeros((1, 1))],
    "penalty_demo.prob": [np.array([[-1.0, -1.0], [-1.0, 1.0],
                                    [1.0, -1.0], [1.0, 1.0]])],
    "sin_system.prob": [np.array([[1.0, -1.0], [1.0, 1.0], [2.0, -1.0],
                                  [2.0, 1.0]]),
                        np.array([[1.0, 2.0], [1.0, 3.0]])],
}


def cli_fixtures(seed: int) -> Workload:
    """Every subcommand on every shipped fixture it accepts, with the
    README's flags; the seed draws the qd directions and slope target."""
    d = _Draw(seed, "cli-fixtures")
    ops = []
    for name in FIXTURES:
        path = f"problems/{name}"
        n = _FIXTURE_N[name]
        dirs = [d.vec(n, -2.0, 2.0, 2) for _ in range(2)]
        flags = [tok for h in dirs for tok in ["--dir"] + [_num(v) for v in h]]
        dd = [(f(h), 4.0 * max(abs(v) for v in h))
              for f in _fixture_roles(name) for h in dirs]
        ops.append(Op(f"qd:{name}", "qd", path, flags,
                      answer={"kind": "qd", "dd": dd}))
        verdict = _fixture_mfcq(name)
        ops.append(Op(f"mfcq:{name}", "mfcq", path, answer=verdict))
    t = d.dec(0.001, 0.01, 4)
    # psi(u) = |u^3 - t|: every ring quotient is r^2, so the estimate is
    # the square of the middle one of the last three radii
    ops.append(Op("slope:cubic.prob", "slope", "problems/cubic.prob",
                  ["--target", _num(t)],
                  answer={"kind": "slope", "slope": 0.0,
                          "resolution": (1e-2 * 0.5 ** 7) ** 2}))
    for name in ("penalty_demo.prob", "sin_system.prob"):
        ops.append(Op(f"slope:{name}", "slope", f"problems/{name}",
                      answer={"kind": "slope", "slope": 0.0,
                              "resolution": 1e-12}))
    ops.append(Op("regcheck:cubic.prob", "regcheck", "problems/cubic.prob",
                  answer={"kind": "regcheck", "n": 1, "c": 1.0,
                          "shift": 0.0, "a": [1.0]}))
    ops.append(Op("optcheck:penalty_demo.prob", "optcheck",
                  "problems/penalty_demo.prob",
                  answer=_penalty_demo_answer()))
    d.rng.shuffle(ops)
    warm = {}
    for op in ops:
        warm.setdefault(op.command, op)
    return Workload("cli-fixtures", ops, [warm[c] for c in COMMANDS])


def _fixture_mfcq(name: str) -> dict:
    independent = oracle.decide_independence(_FIXTURE_SETS[name])
    return {"kind": "mfcq", "full_rank": independent,
            "verdict": independent, "n_ineq": 0}


def _penalty_demo_answer() -> dict:
    u = {"a": [-1.0, 1.0], "terms": []}
    f = {"a": [0.0, 0.0], "terms": [[1.0, [1.0, 0.0]], [-1.0, [0.0, 1.0]]]}
    ladder = [0.5, 1.0, 2.0, 10.0, 100.0]
    truth = oracle.penalty_truth(u, [f], [], ladder)
    return {"kind": "optcheck", "c_max": max(ladder), **truth}


# ---------------------------------------------------------------------------
# qd-build

# (n, abs terms, max forms, min forms) of each chain in a pass; the kink
# count is abs terms plus one per max or min.  Half the abs terms carry a
# minus sign, and the max adds to sub while the min adds to sup, so sub and
# sup are sums of about equally many generic generators: their vertex
# counts, and so the cost of each chain, do not depend on the seed.
QD_CHAINS = (
    (2, 4, 0, 0), (2, 8, 0, 0), (2, 12, 0, 0), (2, 14, 3, 3),
    (3, 4, 0, 0), (3, 6, 0, 0), (3, 8, 0, 0), (3, 4, 3, 0),
    (3, 6, 0, 3), (3, 10, 0, 0), (3, 16, 0, 0),
    (4, 4, 0, 0), (4, 6, 0, 0), (4, 4, 3, 3), (4, 8, 0, 0),
    (4, 12, 3, 3), (4, 16, 0, 0),
)


def _chain(d: _Draw, n: int, k: int, nmax: int, nmin: int):
    x0 = [float(d.rng.choice((-1, 0, 1))) for _ in range(n)]
    signs = [1.0 if i % 2 == 0 else -1.0 for i in range(k)]
    d.rng.shuffle(signs)
    chain = {"abs": [], "max": [], "min": []}
    text = ""

    def shifted(a):
        return _lin(a, -round(sum(ai * xi for ai, xi in zip(a, x0)), 2))

    def add(sign, term):
        nonlocal text
        if not text:
            text = ("-" if sign < 0 else "") + term
        else:
            text += (" - " if sign < 0 else " + ") + term

    for s in signs:
        c, a = d.dec(0.5, 2.0, 1), d.vec(n, -2.0, 2.0, 2)
        chain["abs"].append((s, c, a))
        add(s, f"{_num(c)}*abs({shifted(a)})")
    for key, count in (("max", nmax), ("min", nmin)):
        if count:
            forms = [d.vec(n, -2.0, 2.0, 2) for _ in range(count)]
            chain[key].append((1.0, forms))
            add(1.0, f"{key}(" + ", ".join(shifted(l) for l in forms) + ")")
    return x0, chain, text


def qd_build(seed: int) -> Workload:
    d = _Draw(seed, "qd-build")
    ops = []
    for i, spec in enumerate(QD_CHAINS):
        n = spec[0]
        x0, chain, text = _chain(d, *spec)
        dirs = [d.vec(n, -2.0, 2.0, 2) for _ in range(2)]
        flags = [tok for h in dirs for tok in ["--dir"] + [_num(v) for v in h]]
        scale = oracle.chain_scale(chain) * max(max(abs(v) for v in h)
                                                for h in dirs) * n
        kinks = spec[1] + (spec[2] > 0) + (spec[3] > 0)
        ops.append(Op(f"qd:chain{i:02d}-n{n}-k{kinks}",
                      "qd", f"chain{i:02d}.prob", flags,
                      _file(n, eqs=[text], point=x0),
                      {"kind": "qd",
                       "dd": [(oracle.chain_dd(chain, h), scale)
                              for h in dirs]}))
    d.rng.shuffle(ops)
    x0, chain, text = _chain(d, 2, 4, 0, 0)
    warm = Op("qd:warmup", "qd", "warmup.prob", ["--dir", "1", "1"],
              _file(2, eqs=[text], point=x0))
    return Workload("qd-build", ops, [warm])


# ---------------------------------------------------------------------------
# verdicts

class _Verdicts:
    def __init__(self, seed: int):
        self.d = _Draw(seed, "verdicts")
        self.redraws = 0

    def decided(self, draw, limit: int = 10000):
        """Call draw() until the oracle decides its answer."""
        for _ in range(limit):
            out = draw()
            if out is not None:
                return out
            self.redraws += 1
        raise RuntimeError(f"no decided draw in {limit} tries")

    def mfcq(self, key: str, n: int, eq_terms, n_ineq: int,
             linear=None) -> Op:
        d = self.d
        linear = linear or [True] * len(eq_terms)

        def draw():
            eqs = [d.kink(n, k, lin) for k, lin in zip(eq_terms, linear)]
            return self._mfcq_answer(n, eqs, [d.kink(n, 1)
                                              for _ in range(n_ineq)])
        eqs, ineqs, answer = self.decided(draw)
        return Op(key, "mfcq", f"{key}.prob", [],
                  _file(n, [_kink_text(f) for f in eqs],
                        [_kink_text(g) for g in ineqs]), answer)

    def mfcq_thin(self, key: str) -> Op:
        """l = 2 segments in R^3 where an endpoint of A1 is r times an
        interior point of A2: dependent for the single ratio (1, -r)."""
        d = self.d

        def draw():
            f2 = d.kink(3, 1)
            c2, b2 = f2["terms"][0]
            t = d.rng.choice((-0.75, -0.5, -0.25, 0.25, 0.5, 0.75))
            r = float(d.rng.choice((2, 3, 4)))
            m = [a + t * abs(c2) * b for a, b in zip(f2["a"], b2)]
            c1, b1 = d.coef(), d.vec(3)
            a1 = [round(r * mi - abs(c1) * bi, 6) for mi, bi in zip(m, b1)]
            return self._mfcq_answer(3, [{"a": a1, "terms": [[c1, b1]]}, f2],
                                     [])
        eqs, ineqs, answer = self.decided(draw)
        return Op(key, "mfcq", f"{key}.prob", [],
                  _file(3, [_kink_text(f) for f in eqs]), answer)

    @staticmethod
    def _mfcq_answer(n, eqs, ineqs):
        sets = [oracle.zonotope_corners(f) for f in eqs]
        independent = oracle.decide_independence(sets)
        if independent is None:
            return None
        verdict = independent
        if verdict:
            verdict = oracle.decide_hbar(
                sets, [oracle.zonotope_corners(g) for g in ineqs])
            if verdict is None:
                return None
        return eqs, ineqs, {"kind": "mfcq", "full_rank": independent,
                            "verdict": verdict, "n_ineq": len(ineqs)}

    def optcheck(self, key: str, n_ineq: int, mfcq: bool,
                 minimum: bool) -> Op:
        """n = 2 program at 0.

        With minimum the conditions hold at the top of the c ladder, so
        the report runs the c* bisection; without, they fail at every c.

        With mfcq the constraints satisfy the q.d.-MFCQ, so the
        qualification pathway stops there.  The equality is a·x + c|k a·x|
        with |c k| < 1: its sum set is a segment on the line through a that
        misses 0, which leaves perp(a) for an inequality to be negative on.
        Without mfcq the equality is c(|x1| - |x2|) (with minimum) or
        c(|x1 + x2| - |x1 - x2|): 0 lies in its sum set, so the pathway goes on to the
        sampled error bound.  The zero set of both is axis- or diagonal-
        aligned, as in penalty_demo.prob, which keeps the compass search of
        the distance oracle, and so the cost of the op, independent of the
        draw.
        """
        d = self.d
        ladder = [0.5, 1.0, 2.0, 10.0, 100.0]

        def draw():
            u = d.kink(2, 1)
            if mfcq:
                a, k = d.vec(2), d.dec(0.2, 0.6, 1)
                c = d.rng.choice((-1.0, 1.0)) * d.dec(0.5, 1.6, 1)
                f = {"a": a, "terms": [[c, [round(k * v, 2) for v in a]]]}
            else:
                c = d.dec(0.5, 2.0, 1)
                f = {"a": [0.0, 0.0],
                     "terms": [[c, [1.0, 0.0]], [-c, [0.0, 1.0]]] if minimum
                     else [[c, [1.0, 1.0]], [-c, [1.0, -1.0]]]}
            gs = [d.kink(2, 1) for _ in range(n_ineq)]
            if mfcq:
                decided = self._mfcq_answer(2, [f], gs)
                if decided is None or not decided[2]["verdict"]:
                    return None
            truth = oracle.penalty_truth(u, [f], gs, ladder)
            if truth is None or truth["holds"][-1] != minimum:
                return None
            return u, f, gs, truth
        u, f, gs, truth = self.decided(draw)
        text = _file(2, [_kink_text(f)], [_kink_text(g) for g in gs],
                     objective=_kink_text(u))
        return Op(key, "optcheck", f"{key}.prob", [], text,
                  {"kind": "optcheck", "c_max": max(ladder), **truth})

    def regcheck(self, key: str, n: int) -> Op:
        d = self.d
        # |c| = 1: the scale of f sets which grid points violate, and so
        # how many distances are refined
        c = d.rng.choice((-1.0, 1.0))
        if n == 1:
            a, x0 = [1.0], [d.dec(-0.5, 0.5, 1)]
            check = {"K": 22, "r": 0.2, "grid": 21, "target_grid": 11,
                     "scan_radius": 1.0}
        else:
            a = d.rng.choice(([0.6, 0.8], [0.8, -0.6], [0.28, 0.96],
                              [-0.96, 0.28]))
            x0 = [d.dec(-0.5, 0.5, 1) for _ in range(2)]
            check = {"K": 22, "r": 0.2, "grid": 11, "target_grid": 5,
                     "scan_radius": 1.0, "budget": 40000}
        shift = round(sum(ai * xi for ai, xi in zip(a, x0)), 6)
        text = _file(n, [f"{_num(c)}*pow({_lin(a, -shift)}, 3)"], point=x0,
                     check=check)
        return Op(key, "regcheck", f"{key}.prob", [], text,
                  {"kind": "regcheck", "n": n, "c": c, "shift": shift,
                   "a": a})

    def slope(self, key: str, n: int, l: int) -> Op:
        d = self.d
        eqs = [d.kink(n, 1) for _ in range(l)]
        ys = [d.rng.choice((-1.0, 1.0)) * d.dec(0.2, 0.5, 2)
              for _ in range(l)]
        true = oracle.slope_truth(eqs, ys)
        # 256 evenly spaced directions in the plane miss the maximiser by
        # at most pi/256 in angle; on the line both directions are sampled
        res = (oracle.lipschitz(eqs) * math.pi / 256 if n == 2 else 1e-12)
        return Op(key, "slope", f"{key}.prob",
                  ["--target"] + [_num(y) for y in ys],
                  _file(n, [_kink_text(f) for f in eqs]),
                  {"kind": "slope", "slope": true, "resolution": res})


def verdicts(seed: int) -> Workload:
    """A mix of mfcq, optcheck, regcheck and slope on systems whose answers
    are known by construction; see README.md for why each op is there."""
    v = _Verdicts(seed)
    # The mix has three cost bands: ten cheap ops, five slope ops in the
    # middle (where the median of the op times falls) and ten heavy ops,
    # so that no class dominates and the median sits inside one class.
    ops = [
        v.mfcq("mfcq-l1-n2", 2, [2], 1),
        v.mfcq("mfcq-l1-n2-b", 2, [2], 1),
        v.mfcq("mfcq-l1-n3", 3, [2], 1),
        v.mfcq("mfcq-l1-n4", 4, [2], 0),
        v.mfcq("mfcq-square-n2", 2, [1, 1], 0),
        v.mfcq("mfcq-square-n2-b", 2, [1, 1], 1),
        v.mfcq("mfcq-square-n3", 3, [1, 1, 1], 1),
        # the third sum set contains a ball around 0 (four generators, no
        # linear part), so the sets are dependent with a wide margin and the
        # first grid direction finds it
        v.mfcq("mfcq-l3-n4", 4, [1, 1, 4], 0, linear=[True, True, False]),
        v.slope("slope-n1", 1, 1),
        v.slope("slope-n1-b", 1, 1),
    ] + [v.slope(f"slope-n2-l1-{i}", 2, 1) for i in range(5)] + [
        v.slope("slope-n2-l2", 2, 2),
        # 1 < l < n goes through the lambda grid: 720 LPs unless a grid
        # direction hits a dependent combination
        v.mfcq("mfcq-seg-n4", 4, [1, 1], 1),
        v.mfcq_thin("mfcq-thin-n3"),
        v.optcheck("optcheck-mfcq-min", 1, True, True),
        v.optcheck("optcheck-mfcq-nonmin", 1, True, False),
        v.optcheck("optcheck-errbound-min", 0, False, True),
        v.optcheck("optcheck-errbound-nonmin", 0, False, False),
        v.regcheck("regcheck-n1", 1),
        v.regcheck("regcheck-n2", 2),
        v.regcheck("regcheck-n2-b", 2),
    ]
    v.d.rng.shuffle(ops)
    warm = [v.mfcq("warmup-mfcq", 2, [2], 1),
            v.optcheck("warmup-optcheck", 1, True, False),
            v.regcheck("warmup-regcheck", 2),
            v.slope("warmup-slope", 1, 1)]
    return Workload("verdicts", ops, warm, v.redraws)


WORKLOADS = {"cli-fixtures": cli_fixtures, "qd-build": qd_build,
             "verdicts": verdicts}
