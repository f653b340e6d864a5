import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import TestCase, assert_allclose, assert_equal
from scipy import sparse

from quasidiff import cli, geometry, mfcq, optimality, regularity
from quasidiff.calculus import Quasidifferential, dd, steepest_rate
from quasidiff.cli import main
from quasidiff.expressions import parse_expression, qd_at
from quasidiff.geometry import (FEAS_TOL, Polytope, contains, minkowski_sum,
                                nearest_point, scale, solve_lp)
from quasidiff.mfcq import qd_mfcq
from quasidiff.optimality import (C_LADDER, OptimalityError, ProgramSpec,
                                  Selection, build_penalty,
                                  check_all_selections, check_multipliers,
                                  check_stationarity, estimate_c_star,
                                  feasibility_violations, program_data,
                                  qualification_pathway)
from quasidiff.problemfile import loads
from quasidiff.regularity import SystemSpec, l1_penalty

ORIGIN = [0.0, 0.0]
PENALTY_DEMO = (Path(__file__).resolve().parent.parent / "problems"
                / "penalty_demo.prob")


def pe(text, n=2):
    return parse_expression(text, n)


def at_origin(p):
    return program_data(p, p.binding(ORIGIN))


def sign_program():
    """Objective descending along a kink of the constraint set.

    min x2 - x1 s.t. |x1| - |x2| = 0 at the origin.  The feasible set is
    the pair of diagonals; along (t, -t) the objective drops at rate 2
    while the penalty term vanishes identically, so no finite c rescues
    stationarity and every multiplier system is infeasible.
    """
    return ProgramSpec(2, pe("x2 - x1"), (pe("abs(x1) - abs(x2)"),))


def dc_program(rng):
    # one kinked equality, one active max-type inequality, one slack
    # linear inequality; all constraints vanish at the origin
    a = rng.uniform(-2.0, 2.0, 2)
    s1, s2 = rng.uniform(0.3, 1.5, 2)
    l1 = rng.uniform(-1.5, 1.5, 2)
    l2 = rng.uniform(-1.5, 1.5, 2)
    u = (f"{a[0]:.3f}*x1 + {a[1]:.3f}*x2"
         f" + {s1:.3f}*abs({l1[0]:.3f}*x1 + {l1[1]:.3f}*x2)"
         f" - {s2:.3f}*abs({l2[0]:.3f}*x1 + {l2[1]:.3f}*x2)")
    m1 = rng.uniform(-1.5, 1.5, 2)
    m2 = rng.uniform(-1.5, 1.5, 2)
    f1 = (f"abs({m1[0]:.3f}*x1 + {m1[1]:.3f}*x2)"
          f" - abs({m2[0]:.3f}*x1 + {m2[1]:.3f}*x2)")
    c1 = rng.uniform(-1.5, 1.5, 2)
    c3 = rng.uniform(-1.5, 1.5)
    g1 = f"max({c1[0]:.3f}*x1 + {c1[1]:.3f}*x2, {c3:.3f}*x1)"
    return ProgramSpec(2, pe(u), (pe(f1),), (pe(g1), pe("x1 + x2 - 1")))


def twelve_equalities():
    """A program whose enumerated containment sum would hold 5^12 points:
    12 kinked equalities in R^2, 4^12 vertex selections, at the origin."""
    eqs = "".join(f"equality = abs({j}*x1 - x2) - abs(x1 + {j}*x2)\n"
                  for j in range(1, 13))
    pf = loads("[problem]\nn = 2\nobjective = -x1 + x2\n" + eqs
               + "[point]\nx = 0 0\n")
    return pf.program(), pf.point


class TestProgramSpec(TestCase):

    def test_binding_rejects_wrong_shape(self):
        p = ProgramSpec(2, pe("x1"))
        with pytest.raises(OptimalityError, match=r"shape \(2,\)"):
            p.binding([1.0, 2.0, 3.0])

    def test_dimension_must_be_positive(self):
        with pytest.raises(OptimalityError):
            ProgramSpec(0, parse_expression("x1", 1))


class TestBuildPenalty(TestCase):

    def test_zero_c_is_the_objective(self):
        p = sign_program()
        assert build_penalty(p, 0.0) is p.objective

    def test_unconstrained_is_the_objective(self):
        p = ProgramSpec(2, pe("pow(x1, 2)"))
        assert build_penalty(p, 7.0) is p.objective

    def test_equality_text_form(self):
        got = build_penalty(sign_program(), 2.0).to_text()
        assert_equal(got, "x2 - x1 + 2 * abs(abs(x1) - abs(x2))")

    def test_inequality_hinge_value(self):
        p = ProgramSpec(2, pe("x1"), (), (pe("x2"),))
        psi = build_penalty(p, 1.5)
        assert_equal(psi.to_text(), "x1 + 1.5 * max(x2, 0)")
        assert_allclose(psi.evaluate(np.array([0.3, -0.2]), {}), 0.3)
        assert_allclose(psi.evaluate(np.array([0.3, 0.4]), {}), 0.9)

    def test_negative_c_rejected(self):
        with pytest.raises(OptimalityError):
            build_penalty(sign_program(), -1.0)


def assert_penalty_pairs_match(p, b):
    """The record's Psi_c pair is the walk of build_penalty, bit for bit,
    on the default ladder, at 0 and at c*."""
    d = program_data(p, b)
    cs = {0.0, *C_LADDER}
    c_star = estimate_c_star(d)
    if np.isfinite(c_star):
        cs.add(c_star)
    for c in sorted(cs):
        want = qd_at(build_penalty(p, c), b)
        got = d.penalty(c)
        assert got.sub == want.sub and got.sup == want.sup, c


class TestProgramData(TestCase):

    def test_penalty_pair_matches_the_expression_walk(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = dc_program(rng)
            assert_penalty_pairs_match(p, p.binding(ORIGIN))
        p = sign_program()
        assert_penalty_pairs_match(p, p.binding(ORIGIN))

    def test_zero_c_and_unconstrained_give_the_objective_pair(self):
        d = at_origin(sign_program())
        assert d.penalty(0.0) is d.u
        d = at_origin(ProgramSpec(2, pe("pow(x1, 2)")))
        assert d.phi is None and d.penalty(7.0) is d.u

    def test_negative_c_rejected(self):
        with pytest.raises(OptimalityError,
                           match=r"penalty parameter c must be >= 0"):
            check_stationarity(at_origin(sign_program()), -1.0)

    def test_optcheck_walks_each_function_once(self):
        # penalty_demo with an inactive g1 and an active g2: f1, g2, u and
        # phi, each once, against 18 walks when each c built its own
        # Psi_c; regularity.point_pairs walks f1 and g2, the pathway
        # reads program_data's pairs of them, and no check reads the
        # inactive g1's
        walked = []

        def counting(e, b):
            walked.append(e)
            return qd_at(e, b)

        text = PENALTY_DEMO.read_text().replace(
            "[point]", "inequality = x1 - 1\ninequality = x2\n[point]")
        p = loads(text).program()
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "walks.prob"
            path.write_text(text)
            for module in (regularity, optimality):
                mp.setattr(module, "qd_at", counting)
            with contextlib.redirect_stdout(io.StringIO()):
                assert_equal(main(["optcheck", str(path)]), 0)
        assert_equal(walked, [p.equalities[0], p.inequalities[1],
                              p.objective,
                              l1_penalty(p.equalities, p.inequalities)])

    def test_optcheck_takes_feasibility_and_the_active_set_once(self):
        # both are regularity.feasible_active's, called by program_data,
        # and qualification_pathway reads them; each module that binds a
        # name gets the counted one
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        with pytest.MonkeyPatch.context() as mp:
            for name in ("feasibility_violations", "active_inequalities"):
                wrapped = counted(name, getattr(regularity, name))
                for module in (regularity, mfcq, optimality):
                    if hasattr(module, name):
                        mp.setattr(module, name, wrapped)
            with contextlib.redirect_stdout(io.StringIO()):
                assert_equal(main(["optcheck", str(PENALTY_DEMO)]), 0)
        assert_equal(calls, ["feasibility_violations",
                             "active_inequalities"])


def test_penalty_pairs_match_on_the_benchmark_programs(load_perfbench):
    load_perfbench("oracle")
    gen = load_perfbench("gen")
    n_checked = 0
    for seed in (41, 42, 43):
        w = gen.verdicts(seed)
        for op in w.ops + w.warmup:
            if op.command == "optcheck":
                pf = loads(op.text)
                p = pf.program()
                assert_penalty_pairs_match(p, p.binding(pf.point))
                n_checked += 1
    assert n_checked > 0


class TestFeasibilityViolations(TestCase):

    def test_equality_residual(self):
        p = sign_program()
        out = feasibility_violations(p, p.binding([0.3, 0.1]))
        assert_equal(list(out), ["f1"])
        assert_allclose(out["f1"], 0.2)

    def test_feasible_point_is_clean(self):
        p = sign_program()
        assert_equal(feasibility_violations(p, p.binding([0.2, 0.2])), {})

    def test_inequality_only_flags_positive_side(self):
        p = ProgramSpec(2, pe("x1"), (), (pe("x1"),))
        assert_equal(feasibility_violations(p, p.binding([0.5, 0.0])),
                     {"g1": 0.5})
        assert_equal(feasibility_violations(p, p.binding([-0.5, 0.0])), {})


class TestStationarity(TestCase):

    def test_smooth_minimum_holds(self):
        p = ProgramSpec(2, pe("pow(x1, 2) + pow(x2, 2)"))
        out = check_stationarity(at_origin(p), 1.0)
        assert out.holds and out.violating_w is None
        assert out.violating_distance is None

    def test_sharp_minimum_holds(self):
        p = ProgramSpec(2, pe("abs(x1)"))
        assert check_stationarity(at_origin(p), 1.0).holds

    def test_sign_program_fails_on_the_whole_ladder(self):
        p = sign_program()
        b = p.binding(ORIGIN)
        for c in C_LADDER:
            out = check_stationarity(program_data(p, b), c)
            assert not out.holds
            # the witness is a superdifferential vertex whose negative
            # escapes the subdifferential
            q = qd_at(build_penalty(p, c), b)
            row = np.flatnonzero(
                np.all(np.isclose(q.sup.vertices, out.violating_w), axis=1))
            assert row.size == 1
            assert not contains(q.sub, -out.violating_w)
            # and its distance is the one contains cuts at FEAS_TOL
            assert_equal(out.violating_distance,
                         nearest_point(q.sub, -out.violating_w)[1])
            assert out.violating_distance > FEAS_TOL

    def test_penalty_is_blind_along_the_balanced_diagonal(self):
        # |h1| = |h2| kills the penalty term while the objective drops
        p = sign_program()
        b = p.binding(ORIGIN)
        h = np.array([1.0, -1.0]) / np.sqrt(2.0)
        for c in C_LADDER:
            q = qd_at(build_penalty(p, c), b)
            assert_allclose(dd(q, h), -np.sqrt(2.0), atol=1e-12)

    def test_descent_direction_survives_an_angular_sweep(self):
        p = sign_program()
        b = p.binding(ORIGIN)
        theta = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        for c in C_LADDER:
            q = qd_at(build_penalty(p, c), b)
            rates = [dd(q, h) for h in dirs]
            assert min(rates) <= -np.sqrt(2.0) + 1e-9

    def test_monotone_in_c_equality(self):
        p = ProgramSpec(2, pe("0 - x1"), (pe("x1"),))
        d = at_origin(p)
        got = [check_stationarity(d, c).holds for c in C_LADDER]
        assert_equal(got, [False, True, True, True, True])

    def test_monotone_in_c_inequality(self):
        p = ProgramSpec(2, pe("0 - x1"), (), (pe("x1"),))
        d = at_origin(p)
        got = [check_stationarity(d, c).holds for c in C_LADDER]
        assert_equal(got, [False, True, True, True, True])

    def test_random_fixtures_never_flip_back(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = dc_program(rng)
            d = at_origin(p)
            got = [check_stationarity(d, c).holds for c in C_LADDER]
            first = got.index(True) if True in got else len(got)
            assert_equal(got[first:], [True] * (len(got) - first))


class TestMultiplierSelection(TestCase):

    def test_active_inequality_with_slack_partner(self):
        p = ProgramSpec(2, pe("pow(x1, 2) + pow(x2, 2)"),
                        (), (pe("x1"), pe("x1 - 1")))
        cert = check_multipliers(at_origin(p), Selection(z=(0,)))
        assert cert.feasible
        # lam spans all inequalities; the slack one is pinned to zero
        assert_equal(cert.lam, (0.0, 0.0))
        assert_equal(cert.mu_lower, ())
        assert cert.residual <= 1e-8

    def test_smooth_equality_matches_classical_multiplier(self):
        # min x2 s.t. x2 = 0: the classical multiplier is -1, recovered
        # here as mu_upper - mu_lower = -1
        p = ProgramSpec(2, pe("x2"), (pe("x2"),))
        cert = check_multipliers(at_origin(p), Selection(0, (0,), (0,)))
        assert cert.feasible
        assert_allclose(cert.mu_lower, (1.0,))
        assert_allclose(cert.mu_upper, (0.0,))
        assert_allclose(cert.residual, 0.0, atol=1e-12)
        assert_allclose(cert.multiplier_bound, 1.0)

    def test_unrelated_equality_is_infeasible(self):
        # min x2 s.t. x1 = 0: no multiplier can rotate (0,1) into
        # span{(1,0)}, exactly as in the classical KKT system
        p = ProgramSpec(2, pe("x2"), (pe("x1"),))
        cert = check_multipliers(at_origin(p), Selection(0, (0,), (0,)))
        assert not cert.feasible
        assert cert.lam is None and cert.residual is None

    def test_sign_program_selections(self):
        p = sign_program()
        d = at_origin(p)
        # three of the four vertex selections admit multipliers; the
        # remaining one is infeasible no matter how large the bound
        assert check_multipliers(d, Selection(0, (0,), (0,))).feasible
        assert check_multipliers(d, Selection(0, (0,), (1,))).feasible
        assert check_multipliers(d, Selection(0, (1,), (0,))).feasible
        assert not check_multipliers(d, Selection(0, (1,), (1,))).feasible
        assert not check_multipliers(d, Selection(0, (1,), (1,)),
                                     c_bound=1e6).feasible

    def test_bound_is_respected_when_given(self):
        p = ProgramSpec(2, pe("0 - x1"), (pe("x1"),))
        cert = check_multipliers(at_origin(p), Selection(0, (0,), (0,)),
                                 c_bound=2.0)
        assert cert.feasible
        assert_equal(cert.c_bound, 2.0)
        assert cert.multiplier_bound <= 2.0 + 1e-9
        tight = check_multipliers(at_origin(p),
                                  Selection(0, (0,), (0,)), c_bound=0.5)
        assert not tight.feasible

    def test_selection_shape_error(self):
        p = ProgramSpec(2, pe("pow(x1, 2)"), (), (pe("x1"),))
        with pytest.raises(OptimalityError,
                           match="0 v-indices, 0 w-indices and 1 z-indices"):
            check_multipliers(at_origin(p), Selection())

    def test_selection_index_out_of_range(self):
        p = sign_program()
        with pytest.raises(OptimalityError,
                           match=r"index 5 out of range for sub\(f1\)"):
            check_multipliers(at_origin(p), Selection(0, (5,), (0,)))


@pytest.mark.parametrize("coef", [1e-6, 1e-9, 1e-13, 1e-25, 1e-30])
def test_small_constraint_entries_are_lifted_past_highs_zero_cut(coef):
    # HiGHS reads matrix entries below 1e-9 as zero; each group's blocks
    # are lifted by an exact power of two, and the multiplier 1 / coef
    # holds under a cap of twice it, not under 0.999 of it.  The lift
    # 2^k is the group's cost, and HiGHS reads a cost of 1e20 or more
    # (2^83 at 1e-25) as infinite, so every cost is scaled down by one
    # power of two
    equality = ProgramSpec(1, pe("0 - x1", 1), (pe(f"{coef!r}*x1", 1),))
    inequality = ProgramSpec(1, pe("0 - x1", 1), (),
                             (pe(f"{coef!r}*x1", 1),))
    for p, sel, got in ((equality, Selection(0, (0,), (0,)),
                         lambda cert: cert.mu_upper[0]),
                        (inequality, Selection(z=(0,)),
                         lambda cert: cert.lam[0])):
        data = program_data(p, p.binding([0.0]))
        for c_bound in (None, 2 / coef):
            cert = check_multipliers(data, sel, c_bound)
            assert cert.feasible
            assert_allclose(got(cert), 1 / coef, rtol=1e-12)
            assert_allclose(cert.multiplier_bound, 1 / coef, rtol=1e-12)
        assert not check_multipliers(data, sel, 0.999 / coef).feasible


@pytest.mark.parametrize("coef", [1e-6, 1e-10, 1e-13])
def test_small_objective_entries_are_lifted_past_highs_zero_cut(coef):
    # min coef x2 s.t. x1 = 0 at the origin: x2 can fall, so the one
    # selection admits no multipliers at any bound; theta's block,
    # sub(u) = {(0, coef)}, is lifted as the groups are, or HiGHS reads
    # coef as zero
    data = at_origin(ProgramSpec(2, pe(f"{coef!r}*x2"), (pe("x1"),)))
    for c_bound in (None, 1.0, 1e6):
        assert not check_multipliers(data, Selection(0, (0,), (0,)),
                                     c_bound).feasible


class TestSelectionSweep(TestCase):

    def test_sign_program_sweep_finds_the_witness(self):
        p = sign_program()
        sweep = check_all_selections(at_origin(p), 1e6)
        assert sweep.holds is False
        assert_equal(sweep.n_total, 4)
        assert sweep.first_infeasible is not None
        assert_equal(sweep.first_infeasible.selection,
                     Selection(0, (1,), (1,)))

    def test_budget_cuts_the_sweep_short(self):
        p = ProgramSpec(2, pe("pow(x1, 2)"), (pe("abs(x1)"),))
        sweep = check_all_selections(at_origin(p), 1e6, budget=1)
        assert sweep.holds is None
        assert_equal((sweep.n_total, sweep.n_checked), (2, 1))
        assert sweep.first_infeasible is None

    def test_full_sweep_reports_complete(self):
        p = ProgramSpec(2, pe("pow(x1, 2)"), (pe("abs(x1)"),))
        sweep = check_all_selections(at_origin(p), 1e6)
        assert sweep.holds is True
        assert_equal((sweep.n_total, sweep.n_checked), (2, 2))

    def test_singleton_selection_space(self):
        p = ProgramSpec(2, pe("x2"), (pe("x2"),))
        sweep = check_all_selections(at_origin(p), 1e6)
        assert sweep.holds is True
        assert_equal(sweep.n_total, 1)


def benchmark_programs(load_perfbench):
    """The problem-file texts of the optcheck ops and warm-ups of the
    verdicts workload for seeds 41-43."""
    load_perfbench("oracle")
    gen = load_perfbench("gen")
    texts = [op.text for seed in (41, 42, 43)
             for op in gen.verdicts(seed).ops + gen.verdicts(seed).warmup
             if op.command == "optcheck"]
    assert_equal(len(texts), 15)
    return texts


def test_search_decides_every_rung_as_stationarity(load_perfbench):
    # on penalty_demo, the benchmark programs and the random DC programs
    # of TestVerdictEquivalence the full LP-decided search holds exactly
    # where stationarity holds
    programs = [(pf.program(), pf.point) for pf in map(
        loads, [PENALTY_DEMO.read_text()] + benchmark_programs(load_perfbench))]
    rng = np.random.default_rng(7)
    programs += [(dc_program(rng), ORIGIN) for _ in range(20)]
    seen = {True: 0, False: 0}
    for p, x in programs:
        b = p.binding(x)
        for c in (0.0, 0.1) + C_LADDER:
            stat = check_stationarity(program_data(p, b), c)
            sweep = check_all_selections(program_data(p, b), c_bound=c)
            assert_equal(sweep.holds, stat.holds)
            seen[stat.holds] += 1
    assert seen[True] > 0 and seen[False] > 0


def selection_programs(family, load_perfbench):
    """(program, point) pairs of one family of test programs."""
    if family == "twelve_equalities":
        return [twelve_equalities()]
    if family == "dc":
        rng = np.random.default_rng(7)
        return [(dc_program(rng), ORIGIN) for _ in range(20)]
    texts = ([PENALTY_DEMO.read_text()] if family == "penalty_demo"
             else benchmark_programs(load_perfbench))
    return [(pf.program(), pf.point) for pf in map(loads, texts)]


def optcheck_report(path, ladder, tmp_path):
    """The report lines and the sidecar of optcheck on path with [check]
    c set to ladder."""
    laddered = tmp_path / "ladder.prob"
    laddered.write_text(re.sub(r"(?m)^c = .*\n", "", path.read_text())
                        + "[check]\nc = " + " ".join(map(str, ladder)) + "\n")
    sidecar = tmp_path / "oc.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert_equal(main(["optcheck", str(laddered), "--json",
                           str(sidecar)]), 0)
    return out.getvalue().splitlines(), json.loads(sidecar.read_text())


def optcheck_checks(path, ladder, tmp_path):
    """The sidecar's rung records of optcheck on path with [check] c set
    to ladder."""
    return optcheck_report(path, ladder, tmp_path)[1]["checks"]


def test_every_rung_holds_exactly_from_c_star_on(tmp_path, load_perfbench):
    # stationarity is monotone in c with the exact threshold c*, so no
    # report prints a holding rung below its c* or a failing rung at or
    # above it, up to c = 1e16, where rounding swamps every margin
    ladder = C_LADDER + (1e3, 1e4, 1e6, 1e10, 1e16)
    seen = {True: 0, False: 0}
    for text in [PENALTY_DEMO.read_text()] + benchmark_programs(
            load_perfbench):
        path = tmp_path / "op.prob"
        path.write_text(text)
        lines, report = optcheck_report(path, ladder, tmp_path)
        c_star = np.inf if report["c_star"] is None else report["c_star"]
        rungs = [line for line in lines if line.startswith("c = ")]
        assert_equal(len(rungs), len(ladder))
        for c, line, row in zip(ladder, rungs, report["checks"]):
            holds = c >= c_star
            assert_equal(row["stationarity"], holds, line)
            assert_equal(line.endswith(": stationarity holds"), holds, line)
            seen[holds] += 1
    assert min(seen.values()) > 0, seen


def _rungs_as_fresh(path, seed, tmp_path):
    """Run optcheck on the ladder ascending, descending, and shuffled
    with a repeated rung and c = 0; each rung must report what optcheck
    with that rung alone reports.  Returns the number of failing rungs."""
    rng = np.random.default_rng(seed)
    shuffled = list(C_LADDER) + [C_LADDER[2], 0.0]
    rng.shuffle(shuffled)
    fresh = {c: optcheck_checks(path, [c], tmp_path)[0] for c in shuffled}
    failing = 0
    for ladder in (C_LADDER, C_LADDER[::-1], shuffled):
        for c, row in zip(ladder, optcheck_checks(path, ladder, tmp_path)):
            assert_equal(row, fresh[c])
            failing += row["stationarity"] is False
    return failing


class TestSweepReuseAcrossRungs:
    """c* alone decides each optcheck rung: no rung carries anything over
    from another, and no command runs the multiplier form
    (check_all_selections or check_multipliers)."""

    @pytest.fixture(autouse=True)
    def no_multiplier_form(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("optcheck ran the multiplier form")

        for module in (cli, optimality):
            for name in ("check_all_selections", "check_multipliers"):
                monkeypatch.setattr(module, name, refused, raising=False)

    def test_penalty_demo(self, tmp_path):
        assert _rungs_as_fresh(PENALTY_DEMO, 0, tmp_path) > 0

    def test_benchmark_programs(self, tmp_path, load_perfbench):
        failing = 0
        for k, text in enumerate(benchmark_programs(load_perfbench)):
            path = tmp_path / "op.prob"
            path.write_text(text)
            failing += _rungs_as_fresh(path, k, tmp_path)
        assert failing > 0

    @staticmethod
    def optcheck_lps(path):
        """The number of LPs that optcheck on path solves."""
        solved = []
        solver = optimality.solve_lp

        def counting(*args, **kwargs):
            solved.append(args)
            return solver(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for module in (geometry, optimality):
                mp.setattr(module, "solve_lp", counting)
            with contextlib.redirect_stdout(io.StringIO()):
                assert_equal(main(["optcheck", str(path)]), 0)
        return len(solved)

    def test_optcheck_solves_each_undecided_selection_once(self):
        # 17 selection decisions when every rung searched anew, 8 with the
        # resume; none now, so the one LP left is the c* estimate's
        assert_equal(self.optcheck_lps(PENALTY_DEMO), 1)

    def test_holding_rungs_solve_no_lp(self, tmp_path):
        path = tmp_path / "oc.prob"
        path.write_text("[problem]\nn = 1\nobjective = cos(x1)\n"
                        "[point]\nx = 3.141592653589793\n")
        assert_equal(self.optcheck_lps(path), 0)


class TestVerdictEquivalence(TestCase):
    """Stationarity of Psi_c and the multiplier sweep with bound c are
    two readings of the same condition; they must agree verdict for
    verdict at feasible points."""

    def test_sign_program_agrees_on_the_ladder(self):
        p = sign_program()
        b = p.binding(ORIGIN)
        for c in C_LADDER:
            sweep = check_all_selections(program_data(p, b), c_bound=c)
            assert sweep.holds is False
            assert not check_stationarity(program_data(p, b), c).holds

    def test_random_dc_fixtures(self):
        rng = np.random.default_rng(7)
        seen = {True: 0, False: 0}
        for _ in range(20):
            p = dc_program(rng)
            b = p.binding(ORIGIN)
            for c in (0.1, 1.0, 10.0):
                sweep = check_all_selections(program_data(p, b), c_bound=c)
                stat = check_stationarity(program_data(p, b), c)
                assert sweep.holds is not None
                assert_equal(sweep.holds, stat.holds)
                seen[stat.holds] += 1
        # the family must exercise both verdicts to mean anything
        assert seen[True] > 0 and seen[False] > 0

    def test_verdict_survives_pair_shifts(self):
        # [sub + C, sup + (-C)] represents the same function; the
        # containment verdict must not notice
        rng = np.random.default_rng(13)
        for k in range(10):
            p = dc_program(rng)
            b = p.binding(ORIGIN)
            c = float(rng.choice([0.5, 1.0, 5.0]))
            q = qd_at(build_penalty(p, c), b)
            shift = Polytope(rng.uniform(-1.0, 1.0, (3, 2)))
            sub = minkowski_sum(q.sub, shift)
            sup = minkowski_sum(q.sup, scale(shift, -1.0))
            direct = all(contains(sub, -w) for w in sup.vertices)
            assert_equal(direct,
                         check_stationarity(program_data(p, b), c).holds)


def reference_multiplier_lp(data, sel, c_bound=None):
    """check_multipliers' LP as its loops with (start, stop) offsets built
    it before the block form, with theta's block and each group (an
    equality's two blocks, or one inequality's block) lifted by the exact
    2^k of geometry._lifted: theta's entries of the T row 2^k, a group's
    cost 2^k and its cap c_bound / 2^k.  Every cost then takes the factor
    2^-t, t = max(0, largest group lift - 66)."""
    l = len(data.f)
    n = data.n
    w0 = data.u.sup.vertices[sel.w0]
    theta, theta_lift = geometry._lifted(data.u.sub.vertices)
    cols = [theta.T]
    sums, lifts = [], []
    pos = data.u.sub.nvertices
    for j, fj in enumerate(data.f):
        vstar = fj.sub.vertices[sel.v[j]]
        wstar = fj.sup.vertices[sel.w[j]]
        lo_block = -(vstar[None, :] + fj.sup.vertices)
        hi_block = fj.sub.vertices + wstar[None, :]
        pair, lift = geometry._lifted(np.vstack([lo_block, hi_block]))
        lifts.append(lift)
        for block in (pair[:len(lo_block)], pair[len(lo_block):]):
            cols.append(block.T)
            sums.append((pos, pos + block.shape[0]))
            pos += block.shape[0]
    for k, i in enumerate(data.active):
        zstar = data.g[i].sup.vertices[sel.z[k]]
        block, lift = geometry._lifted(data.g[i].sub.vertices
                                       + zstar[None, :])
        lifts.append(lift)
        cols.append(block.T)
        sums.append((pos, pos + block.shape[0]))
        pos += block.shape[0]
    a_eq = np.zeros((n + 1, pos))
    a_eq[:n] = np.hstack(cols)
    a_eq[n, :data.u.sub.nvertices] = math.ldexp(1.0, theta_lift)
    b_eq = np.concatenate([-w0, [1.0]])
    groups = [sums[2 * j:2 * j + 2] for j in range(l)]
    groups += [[pair] for pair in sums[2 * l:]]
    a_ub = b_ub = None
    if c_bound is not None and sums:
        a_ub = np.zeros((len(groups), pos))
        for row, group in zip(a_ub, groups):
            for start, stop in group:
                row[start:stop] = 1.0
        b_ub = np.array([math.ldexp(float(c_bound), -lift)
                         for lift in lifts])
    t = max([0] + [lift - 66 for lift in lifts])
    cost = np.zeros(pos)
    for group, lift in zip(groups, lifts):
        for start, stop in group:
            cost[start:stop] = math.ldexp(1.0, lift - t)
    return (cost, a_ub, b_ub, a_eq, b_eq, [(0.0, None)] * pos, False)


def _lp_bytes(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize):
    """An LP's inputs as (shape, bytes) pairs, bounds expanded to one
    (lo, hi) pair per variable with None as -inf or inf, and a sparse
    matrix densified."""
    c = np.asarray(c, dtype=float)
    pairs = [bounds] * c.size if np.ndim(bounds[0]) == 0 else bounds
    box = np.array([[-np.inf if lo is None else lo,
                     np.inf if hi is None else hi] for lo, hi in pairs])
    dense = [a.toarray() if sparse.issparse(a) else a
             for a in (c, a_ub, b_ub, a_eq, b_eq, box)]
    return [None if a is None else (np.shape(a), np.asarray(a, float).tobytes())
            for a in dense] + [maximize]


class TestLpInputsAsReference:
    """find_hbar solves no LP, and no command runs check_multipliers; its
    block-built LP, called by the reference search on each selection,
    takes the inputs of the loop-built one, to the byte; estimate_c_star's
    variables stay nonnegative."""

    @pytest.fixture(autouse=True)
    def recorded(self, monkeypatch):
        # (name, arguments, [(solve_lp inputs, outcome)]) per call of
        # find_hbar or check_multipliers, and the inputs of every other
        # solve_lp call
        self.calls, self.others, inside = [], [], []

        def recording(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                      bounds=(None, None), maximize=False):
            out = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize)
            lp = (c, a_ub, b_ub, a_eq, b_eq, bounds, maximize)
            (inside[-1] if inside else self.others).append((lp, out))
            return out

        def traced(name, fn):
            def call(*args):
                inside.append([])
                try:
                    return fn(*args)
                finally:
                    self.calls.append((name, args, inside.pop()))
            return call

        # mfcq imports no solve_lp; geometry's is the one it could reach
        for module in (geometry, optimality):
            monkeypatch.setattr(module, "solve_lp", recording)
        monkeypatch.setattr(mfcq, "find_hbar",
                            traced("find_hbar", mfcq.find_hbar))
        monkeypatch.setattr(optimality, "check_multipliers",
                            traced("check_multipliers",
                                   optimality.check_multipliers))

    def assert_inputs_kept(self):
        counts = {"find_hbar": 0, "check_multipliers": 0}
        for name, args, lps in self.calls:
            want = ([] if name == "find_hbar"
                    else [reference_multiplier_lp(*args)])
            assert_equal(len(lps), len(want))
            for (got, _), ref in zip(lps, want):
                assert _lp_bytes(*got) == _lp_bytes(*ref), name
            counts[name] += len(lps)
        nonnegative = (None, None, None, None, (0.0, None), False)
        for lp, _ in self.others:
            assert _lp_bytes(*lp)[5] == _lp_bytes(lp[0], *nonnegative)[5]
        return counts

    def run(self, tmp_path, command, path_or_text, *flags):
        path = path_or_text
        if not isinstance(path, Path):
            path = tmp_path / "op.prob"
            path.write_text(path_or_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main([command, str(path), *flags])

    def test_fixtures(self, tmp_path):
        for name in ("cubic", "penalty_demo", "sin_system"):
            for command in ("mfcq", "optcheck"):
                self.run(tmp_path, command, PENALTY_DEMO.with_stem(name))
        # find_hbar runs for mfcq on each fixture and for optcheck's
        # pathway on penalty_demo, the one program
        counts = self.assert_inputs_kept()
        assert_equal(counts, {"find_hbar": 0, "check_multipliers": 0})
        assert_equal(sum(name == "find_hbar" for name, _, _ in self.calls), 4)

    def test_random_dc_programs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = dc_program(rng)
            b = p.binding(ORIGIN)
            qualification_pathway(p, program_data(p, b))
            # the equality's sum spans R^2, which leaves no direction to
            # search; without it the active max-type inequality gets one
            qd_mfcq(SystemSpec(2, (), p.inequalities), ORIGIN)
            for c in (0.1, 1.0, 10.0):
                optimality.check_all_selections(program_data(p, b), c)
        counts = self.assert_inputs_kept()
        assert counts["check_multipliers"] > 0
        assert any(name == "find_hbar" and args[1]
                   for name, args, _ in self.calls)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_benchmark_ops(self, seed, tmp_path, load_perfbench):
        load_perfbench("oracle")
        w = load_perfbench("gen").verdicts(seed)
        ops = [op for op in w.warmup + w.ops
               if op.command in ("mfcq", "optcheck")]
        for op in ops:
            self.run(tmp_path, op.command, op.text, *op.flags)
        assert all(name == "find_hbar" for name, _, _ in self.calls)
        # the reference search on the optcheck programs
        for op in ops:
            if op.command == "optcheck":
                pf = loads(op.text)
                p = pf.program()
                data = program_data(p, p.binding(pf.point))
                for c in (0.1, 1.0, 10.0):
                    optimality.check_all_selections(data, c)
        counts = self.assert_inputs_kept()
        assert counts["check_multipliers"] > 0
        assert any(name == "find_hbar" and args[1]
                   for name, args, _ in self.calls)
        assert self.others


class TestCStarEstimate(TestCase):

    def test_linear_objective_crosses_at_one(self):
        p = ProgramSpec(2, pe("0 - x1"), (pe("x1"),))
        est = estimate_c_star(at_origin(p))
        assert_allclose(est, 1.0, atol=5e-3)
        assert check_stationarity(at_origin(p), est).holds
        assert not check_stationarity(at_origin(p), 0.9).holds

    def test_already_stationary_gives_zero(self):
        p = ProgramSpec(2, pe("pow(x1, 2) + pow(x2, 2)"))
        assert_equal(estimate_c_star(at_origin(p)), 0.0)

    def test_sign_program_never_crosses(self):
        p = sign_program()
        assert_equal(estimate_c_star(at_origin(p)), np.inf)

    def test_threshold_is_exact_at_one(self):
        p = ProgramSpec(2, pe("0 - x1"), (pe("x1"),))
        d = at_origin(p)
        est = estimate_c_star(d)
        assert_allclose(est, 1.0, rtol=0.0, atol=1e-12)
        assert check_stationarity(d, est).holds
        assert not check_stationarity(d, est * (1 - 1e-6)).holds

    def test_multi_pair_threshold_matches_rays(self):
        # u, phi and so Psi_c are positively homogeneous and linear between
        # the rays on which some argument of abs or max changes sign, so
        # Psi_c >= 0 everywhere iff it is on those rays: c* is the largest
        # -u(r) / phi(r) over the rays where u(r) < 0
        p = ProgramSpec(2, pe("0 - abs(x1) - abs(x2) - 2*x2"),
                        (pe("2*x1 + abs(x2)"),), (pe("x2 - abs(x1)"),))
        b = p.binding(ORIGIN)
        rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 2), (-1, 0),
                (-1, -2), (0, -1)]
        ratios = []
        for r1, r2 in rays:
            u = -abs(r1) - abs(r2) - 2 * r2
            phi = abs(2 * r1 + abs(r2)) + max(r2 - abs(r1), 0)
            if u < 0:
                assert phi > 0
                ratios.append(-u / phi)
        assert_equal(max(ratios), 7.0)
        # several vertices on each side, so several LPs decide c*
        assert qd_at(p.objective, b).sup.nvertices > 1
        phi = l1_penalty(p.equalities, p.inequalities)
        assert qd_at(phi, b).sup.nvertices > 1
        d = program_data(p, b)
        est = estimate_c_star(d)
        assert_allclose(est, 7.0, rtol=0.0, atol=1e-12)
        assert check_stationarity(d, est).holds
        assert not check_stationarity(d, est * (1 - 1e-6)).holds


def reference_c_star(data):
    """estimate_c_star as one dense LP per vertex pair, before the pairs
    became the blocks of one LP and sub(phi) was lifted."""
    if check_stationarity(data, 0.0).holds:
        return 0.0
    if data.phi is None:
        return np.inf
    qu, qphi, n = data.u, data.phi, data.n
    na, nb = qu.sub.nvertices, qphi.sub.nvertices
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
                           bounds=(0.0, None))
            if out.status is not geometry.LpStatus.FEASIBLE:
                return np.inf
            c_star = max(c_star, out.objective)
    return c_star


def assert_same_c_star(got, want):
    """The report's %.12g text, and a relative difference of at most
    1e-12 (inf only against inf)."""
    assert_equal(f"{got:.12g}", f"{want:.12g}")
    if np.isfinite(want):
        assert_allclose(got, want, rtol=1e-12, atol=0.0)


def c_star_programs(load_perfbench, families=("penalty_demo", "benchmark",
                                              "dc", "twelve_equalities")):
    """ProgramData of selection_programs' families, family by family."""
    return [program_data(p, p.binding(x)) for family in families
            for p, x in selection_programs(family, load_perfbench)]


class TestCStarBlockLp:
    """estimate_c_star solves the per-pair LPs as the blocks of one LP
    and finds the c* of one LP per pair."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(optimality, "solve_lp", counting)
        return calls

    def test_one_lp_per_estimate_gives_the_per_pair_c_star(
            self, counted, load_perfbench):
        seen = {"finite": 0, "inf": 0}
        for data in c_star_programs(load_perfbench):
            del counted[:]
            got = estimate_c_star(data)
            assert_equal(len(counted), 1)
            assert_same_c_star(got, reference_c_star(data))
            seen["finite" if np.isfinite(got) else "inf"] += 1
        assert min(seen.values()) > 0, seen
        # twelve_equalities has 48 pairs, one block each
        data = c_star_programs(load_perfbench, ["twelve_equalities"])[0]
        assert_equal(data.u.sup.nvertices * data.phi.sup.nvertices, 48)

    def test_chunks_of_two_pairs_give_the_same_c_star(
            self, counted, monkeypatch, load_perfbench):
        programs = c_star_programs(load_perfbench)
        whole = [estimate_c_star(data) for data in programs]
        del counted[:]
        monkeypatch.setattr(optimality, "C_STAR_BLOCK", 2)
        chunked = [estimate_c_star(data) for data in programs]
        for got, want in zip(chunked, whole):
            assert_same_c_star(got, want)
        assert np.inf in chunked
        # twelve_equalities' 48 pairs alone take 24 calls
        assert len(counted) > 24

    def test_small_phi_is_lifted_past_highs_zero_cut(self):
        # HiGHS reads matrix entries below 1e-9 as zero; the lift by an
        # exact power of two keeps them, and c* = 1 / coefficient
        for coef, want in ((1e-6, 1e6), (1e-9, 1e9), (1e-13, 1e13)):
            p = ProgramSpec(1, pe("0 - x1", 1), (pe(f"{coef!r}*x1", 1),))
            data = program_data(p, p.binding([0.0]))
            assert_allclose(estimate_c_star(data), want, rtol=1e-12)


def _shifted(q, rng):
    """[sub + C, sup - C] for a random triangle C: q's function again."""
    shift = Polytope(rng.uniform(-1.0, 1.0, (3, q.dim)))
    return Quasidifferential(minkowski_sum(q.sub, shift),
                             minkowski_sum(q.sup, scale(shift, -1.0)))


def test_c_star_ignores_the_choice_of_quasidifferential(load_perfbench):
    # stationarity, and so its threshold c*, is a property of the
    # functions, not of the pairs that represent them
    rng = np.random.default_rng(17)
    seen = {"finite": 0, "inf": 0}
    for data in c_star_programs(load_perfbench, ["penalty_demo", "benchmark"]):
        want = estimate_c_star(data)
        for _ in range(5):
            shifted = dataclasses.replace(data, u=_shifted(data.u, rng),
                                          phi=_shifted(data.phi, rng))
            got = estimate_c_star(shifted)
            if np.isfinite(want):
                assert_allclose(got, want, rtol=1e-9, atol=0.0)
            else:
                assert_equal(got, np.inf)
            seen["finite" if np.isfinite(want) else "inf"] += 1
    assert min(seen.values()) > 0, seen


def test_margin_ignores_the_choice_of_quasidifferential(load_perfbench):
    # a failing rung prints the vertex margin of Psi_c, its strong slope,
    # a property of the functions like c*: the shifted pairs give it again
    rng = np.random.default_rng(19)
    failing = 0
    for data in c_star_programs(load_perfbench, ["penalty_demo", "benchmark"]):
        rungs = [c for c in C_LADDER if c < estimate_c_star(data)]
        want = [steepest_rate(data.penalty(c))[0] for c in rungs]
        for _ in range(5):
            shifted = dataclasses.replace(data, u=_shifted(data.u, rng),
                                          phi=_shifted(data.phi, rng))
            got = [steepest_rate(shifted.penalty(c))[0] for c in rungs]
            assert_allclose(got, want, rtol=1e-9, atol=0.0)
        failing += len(rungs)
    assert failing > 0


def test_c_star_is_the_ladder_threshold(load_perfbench):
    # stationarity holds at c* and just above it, and fails just below
    finite = 0
    for data in c_star_programs(load_perfbench, ["benchmark", "dc"]):
        c_star = estimate_c_star(data)
        if not 0 < c_star < np.inf:
            continue
        for c, holds in ((c_star, True), (c_star * (1 + 1e-6), True),
                         (c_star * (1 - 1e-6), False)):
            assert_equal(check_stationarity(data, c).holds, holds, c)
        finite += 1
    assert finite > 0


def test_c_star_matches_the_benchmark_oracle(load_perfbench):
    load_perfbench("oracle")
    gen = load_perfbench("gen")
    seen = set()
    for seed in (41, 42, 43):
        w = gen.verdicts(seed)
        for op in w.ops + w.warmup:
            if op.command != "optcheck":
                continue
            pf = loads(op.text)
            p = pf.program()
            est = estimate_c_star(program_data(p, p.binding(pf.point)))
            truth = op.answer["c_star"]
            if np.isfinite(truth):
                assert abs(est - truth) <= 1e-9, op.key
                seen.add("above the ladder" if truth > op.answer["c_max"]
                         else "finite")
            else:
                assert_equal(est, np.inf, op.key)
                seen.add("infinite")
    assert_equal(seen, {"finite", "above the ladder", "infinite"})


class TestQualificationPathway(TestCase):

    def test_unconstrained(self):
        p = ProgramSpec(2, pe("pow(x1, 2)"))
        kind = qualification_pathway(p, at_origin(p))
        assert_equal(kind, "unconstrained")

    def test_regular_equality_uses_mfcq(self):
        p = ProgramSpec(2, pe("x2"), (pe("x1"),))
        kind = qualification_pathway(p, at_origin(p))
        assert_equal(kind, "qd-mfcq")

    def test_regular_inequality_uses_mfcq(self):
        p = ProgramSpec(2, pe("x1"), (), (pe("x1"),))
        kind = qualification_pathway(p, at_origin(p))
        assert_equal(kind, "qd-mfcq")

    def test_sign_program_falls_back_to_error_bound(self):
        # MFCQ fails on the diagonal-pair set, but the constraint is
        # piecewise affine, so a local error bound holds
        p = sign_program()
        kind = qualification_pathway(p, at_origin(p))
        assert_equal(kind, "error-bound")

    def test_flat_equality_is_not_certified(self):
        # x1^2 = 0 has no error bound at 0: phi = x1^2 against d = |x1|.
        # The point is optimal (x1 = 0 is the whole feasible set), so a
        # certified pathway here would make c* = inf read "not optimal"
        p = ProgramSpec(2, pe("x1"), (pe("pow(x1, 2)"),))
        kind = qualification_pathway(p, at_origin(p))
        assert_equal(kind, "none")
        assert_equal(estimate_c_star(at_origin(p)), np.inf)
