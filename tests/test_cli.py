import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

from quasidiff import cli, optimality, regularity
from quasidiff.cli import main
from quasidiff.expressions import MAX_DEPTH
from quasidiff.geometry import FEAS_TOL
from quasidiff.mfcq import full_rank_det_range, qd_mfcq
from quasidiff.problemfile import (MAX_CONSTRAINTS, ProblemFileError, load,
                                   loads)
from quasidiff.regularity import (PsiFunction, center_line_slope, psi_expr,
                                  verify_regularity_grid)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
# the CLI subprocesses import the package from this checkout
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

FULL_TEXT = """\
# exercise every section and key
[problem]
n = 2
objective = -x1 + x2
equality = abs(x1) - abs(x2)
equality = x1 + p*x2
inequality = x1 - 1

[params]
p = 2.5

[point]
x = 0 0

[check]
K = 2.0
r = 0.5
grid = 21
target_grid = 11
scan_radius = 1.0
budget = 1000
c = 0.5 1 2
"""


def fixture_with(name, old=None, new=None):
    """The text of problems/<name>.prob with its one old replaced by new."""
    text = (PROBLEMS / f"{name}.prob").read_text()
    if old is not None:
        assert_equal(text.count(old), 1)
        text = text.replace(old, new)
    return text


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "quasidiff.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


def run_twice(tmp_path, tag, *args):
    """Two full runs with separate sidecars; reports must not drift."""
    outs = []
    for k in (1, 2):
        sidecar = tmp_path / f"{tag}{k}.json"
        r = run_cli(*args, "--json", str(sidecar))
        assert r.returncode == 0, r.stderr
        outs.append((r.stdout, sidecar.read_text()))
    assert_equal(outs[0][0], outs[1][0])
    assert_equal(outs[0][1], outs[1][1])
    return outs[0][0], json.loads(outs[0][1])


def refuse_constant(token):
    raise ValueError(f"{token} is not standard JSON")


CASES = {
    "qd": ("qd", str(PROBLEMS / "sin_system.prob"),
           "--dir", "1", "-1", "--dir", "0", "1"),
    "mfcq": ("mfcq", str(PROBLEMS / "sin_system.prob")),
    "mfcq_flat": ("mfcq", str(PROBLEMS / "cubic.prob")),
    "slope": ("slope", str(PROBLEMS / "cubic.prob")),
    "regcheck": ("regcheck", str(PROBLEMS / "cubic.prob")),
    "optcheck": ("optcheck", str(PROBLEMS / "penalty_demo.prob")),
}


# one equality in R^2, l < n: its sum co{(1, 1), (3, 1)} is sqrt(2) from 0
HULL_TEXT = "[problem]\nn = 2\nequality = abs(x1) + 2*x1 + x2\n[point]\nx = 0 0\n"


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    hull = tmp / "hull.prob"
    hull.write_text(HULL_TEXT)
    cases = dict(CASES, mfcq_hull=("mfcq", str(hull)))
    return {tag: run_twice(tmp, tag, *args) for tag, args in cases.items()}


class TestProblemFileParsing:

    def test_full_file(self):
        pf = loads(FULL_TEXT)
        assert_equal(pf.n, 2)
        assert_equal(pf.objective.to_text(), "-x1 + x2")
        assert_equal([e.to_text() for e in pf.equalities],
                     ["abs(x1) - abs(x2)", "x1 + p * x2"])
        assert_equal([g.to_text() for g in pf.inequalities], ["x1 - 1"])
        assert_equal(pf.params, {"p": 2.5})
        assert_allclose(pf.point, [0.0, 0.0])
        c = pf.check
        assert_equal((c.k, c.r, c.grid, c.target_grid), (2.0, 0.5, 21, 11))
        assert_equal((c.scan_radius, c.budget), (1.0, 1000))
        assert_equal(c.c, (0.5, 1.0, 2.0))

    def test_system_and_program_accessors(self):
        pf = loads(FULL_TEXT)
        s = pf.system()
        assert_equal((s.n, len(s.equalities), len(s.inequalities)), (2, 2, 1))
        p = pf.program()
        assert_equal(p.params, {"p": 2.5})
        bare = loads("[problem]\nn = 1\nequality = x1\n")
        with pytest.raises(ProblemFileError, match="needs an objective"):
            bare.program()

    def test_minimal_file(self):
        pf = loads("[problem]\nn = 3\n")
        assert pf.objective is None and pf.point is None
        assert_equal(pf.equalities, ())
        assert pf.check.k is None

    def test_key_before_any_header(self):
        with pytest.raises(ProblemFileError,
                           match="line 1: key before any \\[section\\]"):
            loads("n = 1\n[problem]\n")

    def test_unknown_section(self):
        with pytest.raises(ProblemFileError,
                           match=r"line 2: unknown section \[solver\]"):
            loads("# hi\n[solver]\n")

    def test_missing_and_bad_n(self):
        with pytest.raises(ProblemFileError, match="missing n"):
            loads("[problem]\nequality = x1\n")
        with pytest.raises(ProblemFileError, match="line 2: n must be an integer"):
            loads("[problem]\nn = two\n")
        with pytest.raises(ProblemFileError, match="n must be >= 1"):
            loads("[problem]\nn = 0\n")
        with pytest.raises(ProblemFileError, match="line 3: duplicate n"):
            loads("[problem]\nn = 1\nn = 2\n")

    def test_expression_error_carries_line_and_key(self):
        with pytest.raises(ProblemFileError, match="line 3: equality:"):
            loads("[problem]\nn = 1\nequality = x2\n")

    def test_non_finite_numbers_rejected(self):
        base = "[problem]\nn = 1\nequality = x1\n"
        for section, key, value in (("point", "x", "nan"),
                                    ("params", "p", "1e400"),
                                    ("check", "K", "inf"),
                                    ("check", "c", "0 -inf")):
            with pytest.raises(ProblemFileError,
                               match=f"line 5: .*{key.lower()} must be finite"):
                loads(f"{base}[{section}]\n{key} = {value}\n")

    def test_duplicate_objective(self):
        with pytest.raises(ProblemFileError, match="duplicate objective"):
            loads("[problem]\nn = 1\nobjective = x1\nobjective = x1\n")

    def test_param_validation(self):
        with pytest.raises(ProblemFileError, match="duplicate parameter 'p'"):
            loads("[problem]\nn = 1\n[params]\np = 1\np = 2\n")
        with pytest.raises(ProblemFileError, match="must be a number"):
            loads("[problem]\nn = 1\n[params]\np = fast\n")

    def test_point_validation(self):
        with pytest.raises(ProblemFileError, match="x needs 2 coordinates"):
            loads("[problem]\nn = 2\n[point]\nx = 0\n")
        with pytest.raises(ProblemFileError, match=r"unknown \[point\] key 'y'"):
            loads("[problem]\nn = 1\n[point]\ny = 0\n")

    def test_check_validation(self):
        with pytest.raises(ProblemFileError, match="grid must be an integer"):
            loads("[problem]\nn = 1\n[check]\ngrid = 2.5\n")
        # psi is the l1 scalarization, and no key names another norm
        with pytest.raises(ProblemFileError,
                           match=r"unknown \[check\] key 'norm'"):
            loads("[problem]\nn = 1\n[check]\nnorm = l1\n")
        with pytest.raises(ProblemFileError, match=r"unknown \[check\] key"):
            loads("[problem]\nn = 1\n[check]\nfanciness = 11\n")
        with pytest.raises(ProblemFileError, match="duplicate \\[check\\] key"):
            loads("[problem]\nn = 1\n[check]\nr = 1\nr = 2\n")

    def test_key_value_shape(self):
        with pytest.raises(ProblemFileError, match="line 2: expected key = value"):
            loads("[problem]\nn 1\n")

    def test_load_missing_file(self):
        with pytest.raises(ProblemFileError, match="cannot read"):
            load("/no/such/place.prob")

    def test_shipped_problems_parse(self):
        for name in ("sin_system.prob", "cubic.prob", "penalty_demo.prob"):
            pf = load(str(PROBLEMS / name))
            assert pf.n >= 1 and pf.point is not None


class TestReportShape:
    """Every number printed in a text report reappears in the sidecar."""

    @staticmethod
    def _json_numbers(obj, acc):
        if isinstance(obj, bool):
            return
        if isinstance(obj, (int, float)):
            acc.add("%.12g" % float(obj))
        elif obj in ("inf", "-inf", "nan"):
            acc.add(obj)
        elif isinstance(obj, dict):
            for v in obj.values():
                TestReportShape._json_numbers(v, acc)
        elif isinstance(obj, list):
            for v in obj:
                TestReportShape._json_numbers(v, acc)

    def test_every_float_token_is_mirrored(self, reports):
        pattern = re.compile(
            r"-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+|\binf\b")
        for tag, (text, payload) in reports.items():
            mirrored = set()
            self._json_numbers(payload, mirrored)
            for token in pattern.findall(text):
                assert token in mirrored, f"{tag}: {token!r} not in sidecar"

    def test_sidecars_are_standard_json(self, tmp_path, capsys):
        # RFC 8259 has no Infinity or NaN: the sidecar spells a non-finite
        # number as the text report does
        payloads = {}
        for tag, args in CASES.items():
            sidecar = tmp_path / f"{tag}.json"
            assert_equal(main([*args, "--json", str(sidecar)]), 0)
            payloads[tag] = json.loads(sidecar.read_text(),
                                       parse_constant=refuse_constant)
        capsys.readouterr()
        assert_equal(payloads["mfcq"]["margin"], "inf")
        assert_equal(payloads["optcheck"]["c_star"], None)

    def test_header_lines(self, reports):
        for tag, (text, payload) in reports.items():
            lines = text.splitlines()
            assert lines[0].endswith(" report")
            assert_equal(lines[1], "tol: 1e-09")
            # no command samples at random, so no seed is echoed
            assert "seed" not in payload
            assert_allclose(payload["tol"], 1e-9)

    @pytest.mark.parametrize("command, text, flags, line", [
        ("qd", "[problem]\nn = 1\nobjective = -x1\n[point]\nx = 0\n", (),
         "  value: 0"),
        ("optcheck", fixture_with("penalty_demo", "c = 0.5 1 2 10 100",
                                  "c = -0"), (), "c = 0: "),
        ("mfcq", fixture_with("sin_system", "x = 0 0", "x = -0 0"), (),
         "point: (0, 0)"),
        ("slope", fixture_with("cubic"), ("--target", "-0"),
         "target y: (0)"),
    ], ids=["qd-value", "optcheck-c", "mfcq-at", "slope-target"])
    def test_zero_prints_without_sign(self, tmp_path, capsys, command, text,
                                      flags, line):
        f = tmp_path / "neg.prob"
        f.write_text(text)
        sidecar = tmp_path / "neg.json"
        assert_equal(main([command, str(f), *flags,
                           "--json", str(sidecar)]), 0)
        out = capsys.readouterr().out
        assert any(l.startswith(line) for l in out.splitlines()), out
        assert "-0.0" not in sidecar.read_text()


class TestQdReport:

    def test_pair_and_direction_lines(self, reports):
        text, payload = reports["qd"]
        lines = text.splitlines()
        assert "point: (0, 0)" in lines
        assert "params: p = 1" in lines
        assert "  sub: co{(1, 0), (2, 0)}" in lines
        assert "  sup: co{(0, -1), (0, 1)}" in lines
        assert "  sub: {(1, 1)}" in lines
        assert "  sup: co{(0, 1), (0, 2)}" in lines
        assert "  dd (1, -1): 1" in lines
        assert "  dd (0, 1): 2" in lines
        f1, f2 = payload["functions"]
        assert_equal(f1["role"], "equality 1")
        assert_allclose(f1["sub"], [[1.0, 0.0], [2.0, 0.0]])
        assert_allclose(f1["dd"][0]["value"], 1.0)
        assert_allclose(f2["sub"], [[1.0, 1.0]])
        assert_allclose(f2["dd"][1]["value"], 2.0)

    def test_abs_of_a_huge_gradient_at_its_tie(self, tmp_path, capsys):
        # |f| is max(f, -f) of [{g}, {0}] and [{-g}, {0}]: the hull
        # co{g, -g} is formed as it is, never by way of 2g = 2e308
        f = tmp_path / "huge.prob"
        f.write_text("[problem]\nn = 1\nequality = abs(1e308*x1)\n"
                     "[point]\nx = 0\n")
        assert_equal(main(["qd", str(f)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert "  sub: co{(-1e+308), (1e+308)}" in lines
        assert "  sup: {(0)}" in lines


class TestMfcqReport:

    def test_holding_system(self, reports):
        text, payload = reports["mfcq"]
        lines = text.splitlines()
        assert "full rank: yes (sign-pattern hull test)" in lines
        # the nearest of the two signed hulls passes at 1/sqrt(13)
        assert ("  0 is outside every signed hull (2 of them), distance "
                "0.277350098113") in lines
        assert "verdict: q.d.-MFCQ holds" in lines
        assert any(l.startswith("warning: equality sums span")
                   for l in lines)
        assert payload["verdict"] is True
        assert_allclose(payload["full_rank_distance"], 1.0 / np.sqrt(13.0),
                        rtol=1e-12)
        assert_equal(payload["sign_patterns"], 2)
        assert_equal(payload["full_rank_method"], "sign-pattern hull test")
        # the determinant range of the same sums, by the reference
        pf = load(str(PROBLEMS / "sin_system.prob"))
        dr = full_rank_det_range(qd_mfcq(pf.system(), pf.point).eq_plus)
        assert_allclose([dr.min_det, dr.max_det], [1.0, 7.0])

    def test_degenerate_equality(self, reports):
        text, payload = reports["mfcq_flat"]
        assert "  0 is in a signed hull, distance 0" in text.splitlines()
        assert "failing lambda: (1)" in text.splitlines()
        assert "verdict: q.d.-MFCQ fails" in text
        assert payload["verdict"] is False and payload["full_rank"] is False
        assert_equal((payload["full_rank_distance"], payload["sign_patterns"]),
                     (0.0, 1))
        pf = load(str(PROBLEMS / "cubic.prob"))
        dr = full_rank_det_range(qd_mfcq(pf.system(), pf.point).eq_plus)
        assert_equal([dr.min_det, dr.max_det], [0.0, 0.0])

    def test_hull_distance_is_mirrored(self, reports):
        text, payload = reports["mfcq_hull"]
        assert ("  0 is outside every signed hull (1 of them), distance "
                "1.41421356237") in text.splitlines()
        assert_allclose(payload["full_rank_distance"], np.sqrt(2.0),
                        rtol=1e-12)
        assert_equal(payload["sign_patterns"], 1)

    @pytest.mark.parametrize("coef", ["1e-200", "1e-310"])
    def test_tiny_gradient_is_full_rank(self, tmp_path, capsys, coef):
        # row norms of these sets underflow when squared; the hull test
        # lifts the sets by a power of two before it measures them
        f = tmp_path / "tiny.prob"
        f.write_text(f"[problem]\nn = 2\nequality = {coef}*x1\n"
                     "[point]\nx = 0 0\n")
        assert_equal(main(["mfcq", str(f)]), 0)
        out, err = capsys.readouterr()
        assert "full rank: yes (sign-pattern hull test)" in out.splitlines()
        assert_equal(err, "")


    @pytest.mark.parametrize("coef, margin", [
        ("1", "1.41421356237"),
        ("0.000000000001", "1.41421356237e-12"),
    ])
    def test_direction_with_an_active_inequality(self, tmp_path, capsys,
                                                 coef, margin):
        # hbar is the unit l2 direction of Gordan's alternative, and the
        # margin scales with the sets: no box makes tiny sets fail
        f = tmp_path / "active.prob"
        f.write_text(f"[problem]\nn = 3\nequality = {coef}*x1\n"
                     f"inequality = {coef}*x2 + {coef}*x3\n"
                     "[point]\nx = 0 0 0\n")
        assert_equal(main(["mfcq", str(f)]), 0)
        lines = capsys.readouterr().out.splitlines()
        for line in ("active inequalities: 1",
                     "hbar: (0, -0.707106781187, -0.707106781187)",
                     f"margin: {margin}",
                     "verdict: q.d.-MFCQ holds"):
            assert line in lines


class TestSlopeReport:

    def test_zero_slope_at_the_kink_of_the_cubic(self, reports):
        text, payload = reports["slope"]
        lines = text.splitlines()
        assert "psi at point: 0" in lines
        assert "slope estimate: 0" in lines
        assert "slope method: exact (psi = 0 is its minimum)" in lines
        assert "norm: l1" in lines
        assert_allclose((payload["psi"], payload["slope"]), (0.0, 0.0))
        assert_equal((payload["slope_method"], payload["slope_witness"]),
                     ("exact (psi = 0 is its minimum)", None))

    def test_explicit_target(self):
        r = run_cli("slope", str(PROBLEMS / "cubic.prob"),
                    "--target", "0.008")
        assert r.returncode == 0
        assert "target y: (0.008)" in r.stdout
        # psi = |x^3 - 0.008| is flat at 0; ring sampling read 1.5e-9
        lines = r.stdout.splitlines()
        assert "slope estimate: 0" in lines
        assert "slope method: exact (vertex margin)" in lines

    def test_sin_system_slope_is_sqrt_10(self, capsys):
        # near 0, psi = 0.6 - (3 x1 + x2) + o(|x|); ring sampling read
        # 3.16226628167
        assert_equal(main(["slope", str(PROBLEMS / "sin_system.prob"),
                           "--target", "0.3", "0.3"]), 0)
        assert "slope estimate: 3.16227766017" in (
            capsys.readouterr().out.splitlines())

    def test_linear_residuals_slope_is_the_signed_gradient_sum(
            self, tmp_path, capsys):
        # near 0, sum_j |a_j x - y_j| = sum_j |y_j| - sum_j sign(y_j) a_j x
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for trial in range(5):
                l = int(rng.integers(1, 4))
                a = rng.uniform(-2.0, 2.0, (l, n))
                y = rng.choice((-1.0, 1.0), l) * rng.uniform(0.1, 1.0, l)
                f = tmp_path / f"lin{n}_{trial}.prob"
                f.write_text(f"[problem]\nn = {n}\n" + "".join(
                    "equality = " + " + ".join(
                        f"{float(c)!r}*x{i + 1}" for i, c in enumerate(row)) + "\n"
                    for row in a) + "[point]\nx = " + " ".join(["0"] * n)
                    + "\n")
                sidecar = tmp_path / "lin.json"
                assert_equal(main(["slope", str(f), "--target",
                                   *(repr(float(v)) for v in y),
                                   "--json", str(sidecar)]),
                             0)
                capsys.readouterr()
                got = json.loads(sidecar.read_text())["slope"]
                want = np.linalg.norm(np.sign(y) @ a)
                assert abs(got - want) <= 1e-12, (n, trial, got, want)

    def test_zero_psi_takes_no_quasidifferential(self, capsys, monkeypatch):
        def refuse(self, x):
            raise AssertionError("qd taken at psi = 0")
        monkeypatch.setattr(PsiFunction, "qd", refuse)
        assert_equal(main(["slope", str(PROBLEMS / "sin_system.prob")]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert "slope estimate: 0" in lines
        assert "slope method: exact (psi = 0 is its minimum)" in lines


class TestRegcheckReport:

    def test_cubic_grid_summary(self, reports):
        text, payload = reports["regcheck"]
        lines = text.splitlines()
        assert "K: 22  r: 0.2  x grid: 21  target grid: 11" in lines
        assert ("checked: 226  skipped near graph: 5  empty targets: 0"
                in lines)
        assert "violators: 14" in lines
        assert "certified: no" in lines
        assert "center-line slope: 0 (exact, 2 sign patterns)" in lines
        assert_equal(payload["n_checked"], 226)
        assert_equal(len(payload["violators"]), 14)
        assert payload["certified"] is False
        assert_equal(payload["center_line_slope"], 0.0)
        assert_allclose(payload["worst_ratio"], 161.124883347, rtol=1e-9)

    def test_violator_lines_are_truncated_but_mirrored_in_full(self, reports):
        text, payload = reports["regcheck"]
        shown = [l for l in text.splitlines()
                 if l.startswith("  x = ") and "ratio = " in l]
        assert_equal(len(shown), 5)
        assert "  ... and 9 more" in text.splitlines()
        ratios = [v["ratio"] for v in payload["violators"]]
        assert_equal(len(ratios), 14)
        assert min(ratios) > 22.0

    def test_center_line_lines(self, reports):
        # x^3 has slope 0 at 0 on both target orthants: the modulus is
        # unbounded there
        text, payload = reports["regcheck"]
        lines = text.splitlines()
        at = lines.index("center-line slope: 0 (exact, 2 sign patterns)")
        assert_equal(lines[at - 1], "certified: no")
        assert_equal(lines[at + 1],
                     "modulus lower bound: inf (not metrically regular)")
        assert_equal((payload["center_line_slope"],
                      payload["center_line_patterns"],
                      payload["modulus_lower_bound"]), (0.0, 2, "inf"))
        for gone in ("margin_infima", "nonregularity_consistent", "seed"):
            assert gone not in payload
        assert not any(l.startswith(("margin infimum", "consistent with"))
                       for l in lines)

    @pytest.mark.parametrize("line, slope, bound", [
        # slope 2 on both orthants: the modulus is at least 1/2
        ("equality = 2*x1", "2 (exact, 2 sign patterns)", "0.5"),
        # |x1| - y has slope 0 at 0 where y < 0, which no x reaches
        ("equality = abs(x1)", "0 (exact, 2 sign patterns)",
         "inf (not metrically regular)"),
        # no equality and no active inequality: psi = 0 near the center
        ("inequality = x1 - 1", "inf (exact, 1 sign patterns)", "0"),
    ])
    def test_center_line_bound_is_the_inverse_slope(self, tmp_path, capsys,
                                                    line, slope, bound):
        f = tmp_path / "lin.prob"
        f.write_text(f"[problem]\nn = 1\n{line}\n[point]\nx = 0\n"
                     "[check]\nK = 1\nr = 0.1\ngrid = 1\n"
                     "target_grid = 1\n")
        assert_equal(main(["regcheck", str(f)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert_equal(lines[-2:], [f"center-line slope: {slope}",
                                  f"modulus lower bound: {bound}"])

    def test_infeasible_center_is_not_computed(self, tmp_path, capsys):
        f = tmp_path / "off.prob"
        sidecar = tmp_path / "off.json"
        f.write_text("[problem]\nn = 1\nequality = x1 - 0.5\n[point]\n"
                     "x = 0\n[check]\nK = 1\nr = 0.1\ngrid = 1\n"
                     "target_grid = 1\n")
        assert_equal(main(["regcheck", str(f), "--json", str(sidecar)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert_equal(lines[-1], "center-line slope: not computed (the "
                     "center is not in S(0, 0))")
        assert not any(l.startswith("modulus") for l in lines)
        payload = json.loads(sidecar.read_text())
        for key in ("center_line_slope", "center_line_patterns",
                    "modulus_lower_bound"):
            assert payload[key] is None

    def test_empty_targets_are_counted_and_noted(self, tmp_path, capsys):
        # |x1| - 0.05 <= z has no solution for the targets z = -0.2, -0.1
        f = tmp_path / "empty.prob"
        f.write_text("[problem]\nn = 1\ninequality = abs(x1) - 0.05\n"
                     "[point]\nx = 0\n[check]\nK = 2\nr = 0.2\n"
                     "grid = 11\ntarget_grid = 5\n")
        sidecar = tmp_path / "empty.json"
        assert_equal(main(["regcheck", str(f), "--json", str(sidecar)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert "worst ratio: inf" in lines
        assert_equal(lines[-1], "note: 2 target(s) had an empty sampled "
                     "solution set; distances recorded as +inf")
        payload = json.loads(sidecar.read_text(),
                             parse_constant=refuse_constant)
        assert_equal(payload["n_empty_solution_sets"], 2)
        assert_equal(payload["worst_ratio"], "inf")
        assert_equal(payload["notes"], [lines[-1][len("note: "):]])

    def test_n1_distances_keep_their_scale(self, tmp_path, capsys):
        # the ratios of 2*x1 at scale 1e-170 are those at scale 1: d(x, S)
        # = |x|, psi = 2|x|, so every checked ratio is near 1/2 > 1/K,
        # although each squared difference here would underflow to 0
        f = tmp_path / "tiny.prob"
        f.write_text("[problem]\nn = 1\nequality = 2*x1\n[point]\nx = 0\n"
                     "[check]\nK = 0.1\nr = 1e-170\nscan_radius = 1e-170\n"
                     "budget = 10000\n")
        assert_equal(main(["regcheck", str(f)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert "worst ratio: 0.499783311664" in lines
        assert "violators: 220" in lines
        assert "certified: no" in lines

    def test_flag_overrides_shrink_the_grid(self, tmp_path, capsys):
        # the [check] keys, the only source of K, r and grid, shrink it
        f = tmp_path / "small.prob"
        f.write_text(fixture_with("cubic", "K = 22.0\nr = 0.2\ngrid = 21",
                                  "K = 1.0\nr = 0.1\ngrid = 5"))
        assert_equal(main(["regcheck", str(f)]), 0)
        assert "K: 1  r: 0.1  x grid: 5" in capsys.readouterr().out


class TestOptcheckReport:

    def test_penalty_demo(self, reports):
        text, payload = reports["optcheck"]
        lines = text.splitlines()
        assert ("qualification pathway: local error bound "
                "(piecewise-affine constraints)") in lines
        cs = [l for l in lines if l.startswith("c = ")]
        assert_equal(len(cs), 5)
        for l in cs:
            assert "stationarity fails" in l
        assert ("c* estimate: none "
                "(stationarity fails for every c >= 0)") in lines
        assert ("verdict: necessary conditions fail: "
                "the point is not optimal") in lines
        assert_equal(payload["ladder"], [0.5, 1.0, 2.0, 10.0, 100.0])
        assert payload["c_star"] is None
        assert_equal(payload["pathway"],
                     {"kind": "error-bound", "mfcq_verdict": False})
        for l, chk in zip(cs, payload["checks"]):
            assert chk["stationarity"] is False
            assert l.endswith(
                f", distance {cli._g(chk['violating_distance'])}")
            # penalty_demo's margin is sqrt(2) on this ladder; c* decides a
            # rung, so elsewhere a failing rung's margin can be below
            # FEAS_TOL (test_rung_just_below_a_tiny_threshold_fails)
            assert chk["violating_distance"] > FEAS_TOL
            assert "selections" not in chk and "agreement" not in chk

    @staticmethod
    def optcheck_lines(tmp_path, capsys, text):
        f = tmp_path / "oc.prob"
        f.write_text(text)
        code = main(["optcheck", str(f)])
        out, err = capsys.readouterr()
        assert_equal((code, err), (0, ""))
        return out.splitlines()

    def test_huge_bound_leaves_open_selections_to_their_lps(self, tmp_path,
                                                           capsys):
        # at c = 1e150 c* = inf alone decides the rung; its distance is
        # not pinned, as at this scale it is rounding of the order of c's
        # ulp, not the margin sqrt(2) of the smaller rungs
        f = tmp_path / "huge.prob"
        f.write_text(fixture_with("penalty_demo", "c = 0.5 1 2 10 100",
                                  "c = 1e150"))
        assert_equal(main(["optcheck", str(f)]), 0)
        row, = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("c = ")]
        assert row.startswith("c = 1e+150: stationarity fails, violating "
                              "w = (-1e+150, -1e+150), distance "), row

    def test_huge_rungs_fail_where_c_star_is_none(self, tmp_path, capsys):
        # c* = inf fails every rung; at 1e16 rounding of order c times
        # eps, about 2, swamps the margin sqrt(2), so only that rung's
        # verdict is pinned
        lines = self.optcheck_lines(tmp_path, capsys, fixture_with(
            "penalty_demo", "c = 0.5 1 2 10 100", "c = 1e9 1e16"))
        rungs = [l for l in lines if l.startswith("c = ")]
        assert_equal(rungs[0], "c = 1000000000: stationarity fails, "
                     "violating w = (-1000000000, 1000000000), "
                     "distance 1.41421356237")
        assert rungs[1].startswith("c = 1e+16: stationarity fails, "), rungs
        assert ("c* estimate: none (stationarity fails for every c >= 0)"
                in lines)

    def test_rung_just_below_a_tiny_threshold_fails(self, tmp_path, capsys):
        # c* = 1e9: the rung below it fails by the true slope
        # |-1 + 999999999e-9| = 1e-9, within FEAS_TOL, and c* itself holds
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = -x1\n"
                                    "equality = 0.000000001*x1\n[point]\n"
                                    "x = 0\n[check]\n"
                                    "c = 999999999 1000000000\n")
        assert_equal([l for l in lines if l.startswith(("c = ", "c* "))],
                     ["c = 999999999: stationarity fails, violating w = (0), "
                      "distance 9.99999971718e-10",
                      "c = 1000000000: stationarity holds",
                      "c* estimate: 1000000000 (exact, one LP per vertex "
                      "pair)"])

    def test_flat_equality_optimum_is_not_called_non_optimal(self, tmp_path,
                                                            capsys):
        # x1 = 0 is the whole feasible set, so the point is optimal, but
        # pow(x1, 2) has no error bound there and no c makes it stationary
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = x1\nequality = pow(x1, 2)\n"
                                    "[point]\nx = 0\n")
        assert ("qualification pathway: none verified (necessity of the "
                "conditions not established)") in lines
        assert "c* estimate: none (stationarity fails for every c >= 0)" \
            in lines
        assert_equal(lines[-1], "verdict: conditions fail at every tested "
                     "c; no qualification verified, so non-optimality is "
                     "not certified")

    def test_unconstrained_program_needs_no_qualification(self, tmp_path,
                                                          capsys):
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = abs(x1)\n[point]\nx = 0\n")
        assert ("qualification pathway: unconstrained problem, no "
                "qualification needed") in lines

    def test_rounding_sized_gradient_is_stationary(self, tmp_path, capsys):
        # cos'(fl(pi)) = -sin(fl(pi)) = -1.2e-16, a rounding error: the
        # absolute FEAS_TOL cut of contains keeps 0 in sub(u) + w, where a
        # cut relative to the size of the offset set would lift it to 1/2
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = cos(x1)\n[point]\n"
                                    "x = 3.141592653589793\n")
        checks = [line for line in lines if line.startswith("c = ")]
        assert_equal(len(checks), 5)
        for line in checks:
            assert line.endswith(": stationarity holds"), line
        assert "c* estimate: 0 (exact, one LP per vertex pair)" in lines

    # 12 kinked equalities in R^2: 4^12 vertex selections at the origin
    TWELVE_EQUALITIES = ("[problem]\nn = 2\nobjective = -x1 + x2\n"
                         + "".join(f"equality = abs({j}*x1 - x2) - "
                                   f"abs(x1 + {j}*x2)\n" for j in range(1, 13))
                         + "[point]\nx = 0 0\n[check]\n")

    def test_holding_rungs_run_no_selection_search(self, tmp_path, capsys):
        lines = self.optcheck_lines(tmp_path, capsys, self.TWELVE_EQUALITIES
                                    + "c = 1 10\nbudget = 1000\n")
        assert_equal([l for l in lines if l.startswith(("c = ", "c* "))],
                     ["c = 1: stationarity holds",
                      "c = 10: stationarity holds",
                      "c* estimate: 0.214285714286 (exact, one LP per "
                      "vertex pair)"])

    def test_failing_rung_of_twelve_equalities_runs_no_search(
            self, tmp_path, capsys):
        # c* decides the failing rung c = 0.1 alone, and it prints the
        # vertex of sup(Psi_c) farthest from -sub(Psi_c); a search of the
        # 4^12 selections for a second witness ran into the default budget
        # and exit 1
        lines = self.optcheck_lines(tmp_path, capsys,
                                    self.TWELVE_EQUALITIES + "c = 0.1 1\n")
        assert_equal([l for l in lines if l.startswith(("c = ", "c* "))],
                     ["c = 0.1: stationarity fails, violating w = "
                      "(-6.6, 9), distance 0.749634057065",
                      "c = 1: stationarity holds",
                      "c* estimate: 0.214285714286 (exact, one LP per "
                      "vertex pair)"])

    @pytest.mark.parametrize("lines, record", [
        ("objective = abs(x1)\n",
         {"kind": "unconstrained", "mfcq_verdict": None}),
        ("objective = x1\ninequality = x1\n",
         {"kind": "qd-mfcq", "mfcq_verdict": True}),
        ("objective = x1\nequality = pow(x1, 2)\n",
         {"kind": "none", "mfcq_verdict": False}),
    ], ids=["unconstrained", "qd-mfcq", "none"])
    def test_pathway_record(self, tmp_path, capsys, lines, record):
        # penalty_demo's report pins the error-bound record
        f = tmp_path / "pw.prob"
        f.write_text(f"[problem]\nn = 1\n{lines}[point]\nx = 0\n")
        sidecar = tmp_path / "pw.json"
        assert_equal(main(["optcheck", str(f), "--json", str(sidecar)]), 0)
        capsys.readouterr()
        assert_equal(json.loads(sidecar.read_text())["pathway"], record)

    def test_pathway_and_penalty_read_one_active_set(self, tmp_path,
                                                     capsys):
        # g1(0) = -1e-10 is within FEAS_TOL: mfcq counts it active, and
        # so does the program data that every rung reads
        text = ("[problem]\nn = 1\nobjective = -x1\n"
                "inequality = x1 - 0.0000000001\n[point]\nx = 0\n")
        f = tmp_path / "oc.prob"
        f.write_text(text)
        assert_equal(main(["mfcq", str(f)]), 0)
        assert "active inequalities: 1" in capsys.readouterr().out.splitlines()
        pf = load(str(f))
        p = pf.program()
        assert_equal(optimality.program_data(p, p.binding(pf.point)).active,
                     (0,))
        lines = self.optcheck_lines(tmp_path, capsys, text)
        assert "qualification pathway: q.d.-MFCQ verified" in lines
        assert ("c = 0.5: stationarity fails, violating w = (0), "
                "distance 0.5") in lines
        assert "c* estimate: 1 (exact, one LP per vertex pair)" in lines

    def test_threshold_above_the_ladder_is_reported(self, tmp_path, capsys):
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = -x1\n"
                                    "equality = 0.001*x1\n[point]\nx = 0\n")
        assert "qualification pathway: q.d.-MFCQ verified" in lines
        assert "c* estimate: 1000 (exact, one LP per vertex pair)" in lines
        assert_equal(lines[-1], "verdict: necessary conditions hold only "
                     "for c >= 1000, above every tested c "
                     "(no sufficiency claim)")

    @pytest.mark.parametrize("coef, c_star", [
        ("0.000000001", "1000000000"), ("0.0000000000001", "1e+13")])
    def test_small_equality_coefficient_keeps_its_threshold(
            self, tmp_path, capsys, coef, c_star):
        # the feasible set is {0}, so the point is optimal; HiGHS reads
        # matrix entries below 1e-9 as zero, and c* read "none" before
        # sub(phi) was lifted by a power of two
        lines = self.optcheck_lines(tmp_path, capsys, "[problem]\nn = 1\n"
                                    "objective = -x1\n"
                                    f"equality = {coef}*x1\n[point]\n"
                                    "x = 0\n")
        assert "qualification pathway: q.d.-MFCQ verified" in lines
        assert (f"c* estimate: {c_star} (exact, one LP per vertex pair)"
                in lines)
        assert_equal(lines[-1], "verdict: necessary conditions hold only "
                     f"for c >= {c_star}, above every tested c "
                     "(no sufficiency claim)")

    def test_benchmark_threshold_above_the_ladder(self, tmp_path, capsys,
                                                  load_perfbench):
        load_perfbench("oracle")
        ops = load_perfbench("gen").verdicts(41).ops
        op, = [op for op in ops if op.key == "optcheck-mfcq-nonmin"]
        lines = self.optcheck_lines(tmp_path, capsys, op.text)
        assert ("c* estimate: 225.141025641 (exact, one LP per vertex pair)"
                in lines)
        assert_equal(lines[-1], "verdict: necessary conditions hold only "
                     "for c >= 225.141025641, above every tested c "
                     "(no sufficiency claim)")

    def test_explicit_ladder_flag(self, tmp_path, capsys):
        # the ladder is [check] c
        f = tmp_path / "one.prob"
        f.write_text(fixture_with("penalty_demo", "c = 0.5 1 2 10 100",
                                  "c = 0.5"))
        assert_equal(main(["optcheck", str(f)]), 0)
        lines = capsys.readouterr().out.splitlines()
        assert_equal(sum(l.startswith("c = ") for l in lines), 1)


class TestExitCodes:

    def test_detsweep_budget_exhausted_is_one(self, tmp_path):
        f = tmp_path / "b.prob"
        f.write_text("[problem]\nn = 2\n"
                     "equality = max(2*x1, x1) - abs(sin(p*x2))\n"
                     "equality = sin(p*(x1 + x2)) + min(x2, 2*x2)\n"
                     "[params]\np = 1.0\n[point]\nx = 0 0\n"
                     "[check]\nbudget = 1\n")
        r = run_cli("mfcq", str(f))
        assert_equal(r.returncode, 1)
        assert_equal(r.stdout, "")
        assert "sign-pattern count 2 exceeds the budget 1" in r.stderr

    def test_square_system_within_the_pattern_budget_is_zero(
            self, tmp_path, capsys):
        # the budget caps the 2 sign patterns, not the 8 vertex tuples
        f = tmp_path / "b.prob"
        f.write_text("[problem]\nn = 2\n"
                     "equality = max(2*x1, x1) - abs(sin(p*x2))\n"
                     "equality = sin(p*(x1 + x2)) + min(x2, 2*x2)\n"
                     "[params]\np = 1.0\n[point]\nx = 0 0\n"
                     "[check]\nbudget = 2\n")
        assert_equal(main(["mfcq", str(f)]), 0)
        out, err = capsys.readouterr()
        assert "verdict: q.d.-MFCQ holds" in out.splitlines()
        assert_equal(err, "")

    def test_budget_caps_only_the_hull_test(self, tmp_path):
        # abs(x1) - abs(x2) has one sign pattern, within budget = 1, and
        # optcheck runs no search for the budget to cut
        f = tmp_path / "ob.prob"
        f.write_text("[problem]\nn = 2\nobjective = -x1 + x2\n"
                     "equality = abs(x1) - abs(x2)\n[point]\nx = 0 0\n"
                     "[check]\nbudget = 1\nc = 1\n")
        r = run_cli("optcheck", str(f))
        assert_equal((r.returncode, r.stderr), (0, ""))
        assert ("c = 1: stationarity fails, violating w = (-1, 1), "
                "distance 1.41421356237\n") in r.stdout

    def test_selection_budget_is_unused_where_stationarity_holds(self,
                                                                  tmp_path):
        # budget = 1 caps the hull test, which this unconstrained program
        # does not run
        f = tmp_path / "oh.prob"
        f.write_text("[problem]\nn = 1\nobjective = cos(x1)\n[point]\n"
                     "x = 3.141592653589793\n[check]\nbudget = 1\n")
        r = run_cli("optcheck", str(f))
        assert_equal((r.returncode, r.stderr), (0, ""))
        assert "c = 100: stationarity holds\n" in r.stdout

    def test_regcheck_grid_over_budget_is_one(self, tmp_path):
        # 11^12 targets x 21 points, refused before any evaluation
        f = tmp_path / "g.prob"
        f.write_text("[problem]\nn = 1\n" + "equality = --x1\n" * 12 +
                     "[point]\nx = 0\n[check]\nK = 2\nr = 0.1\n")
        r = run_cli("regcheck", str(f))
        assert_equal(r.returncode, 1)
        assert_equal(r.stdout, "")
        assert_equal(r.stderr, "error: regcheck grid of 11^12 targets x "
                     "21^1 points = 65906995911141 exceeds the budget "
                     "1000000\n")

    def test_unbound_parameter_is_two(self, tmp_path):
        f = tmp_path / "u.prob"
        f.write_text("[problem]\nn = 1\nequality = sin(q*x1)\n"
                     "[point]\nx = 0\n")
        r = run_cli("qd", str(f))
        assert_equal(r.returncode, 2)
        assert "error: unbound parameter 'q'" in r.stderr

    def test_missing_file_is_two(self, tmp_path):
        r = run_cli("qd", str(tmp_path / "absent.prob"))
        assert_equal(r.returncode, 2)
        assert "error: cannot read" in r.stderr

    def test_malformed_file_is_two_with_line_number(self, tmp_path):
        f = tmp_path / "m.prob"
        f.write_text("n = 1\n[problem]\n")
        r = run_cli("qd", str(f))
        assert_equal(r.returncode, 2)
        assert "error: line 1: key before any [section] header" in r.stderr

    def test_infeasible_candidate_is_two(self, tmp_path):
        f = tmp_path / "off.prob"
        f.write_text(fixture_with("penalty_demo", "x = 0 0", "x = 0.3 0.1"))
        r = run_cli("optcheck", str(f))
        assert_equal(r.returncode, 2)
        assert "error: base point infeasible: f1 = 0.2" in r.stderr

    def test_regcheck_without_constants_is_two(self):
        r = run_cli("regcheck", str(PROBLEMS / "sin_system.prob"))
        assert_equal(r.returncode, 2)
        assert_equal(r.stderr, "error: regcheck needs [check] K and r\n")

    def test_pattern_budget_cuts_optcheck_as_it_cuts_mfcq(self, tmp_path,
                                                         capsys):
        # one budget key: the qualification pathway's hull test has the
        # 2 sign patterns that mfcq counts, and budget 1 cuts both
        f = tmp_path / "pb.prob"
        f.write_text("[problem]\nn = 2\nobjective = x1\n"
                     "equality = abs(x1) + 2*x1\n"
                     "equality = abs(x2) + 2*x2\n[point]\nx = 0 0\n"
                     "[check]\nbudget = 1\n")
        for command in ("mfcq", "optcheck"):
            assert_equal(main([command, str(f)]), 1)
            assert_equal(capsys.readouterr(), ("", "error: sign-pattern "
                                               "count 2 exceeds the budget "
                                               "1\n"))

    def test_optcheck_without_objective_is_two(self):
        r = run_cli("optcheck", str(PROBLEMS / "sin_system.prob"))
        assert_equal(r.returncode, 2)
        assert "needs an objective = line" in r.stderr


# every subcommand but regcheck, which needs K and r, accepts it; [check]
# lines appended to it are line 8
FLAG_TEXT = ("[problem]\nn = 1\nobjective = x1\nequality = x1\n"
             "[point]\nx = 0\n[check]\n")
BAD_FLAGS = [
    ("qd", ("--dir", "1", "--dir", "nan"), "--dir must be finite, got 'nan'"),
    ("slope", ("--target", "nan"), "--target must be finite, got 'nan'"),
    # float() spellings of -inf and -nan are values, not options
    ("slope", ("--target", "-Infinity"),
     "--target must be finite, got '-inf'"),
] + [
    # the flags that shadowed [point] x, [check] K, r, grid and c, and the
    # seed, are unknown arguments on the commands that took them
    (command, flags, "unrecognized arguments: " + " ".join(flags))
    for command, flags in [
        ("qd", ("--at", "nan")), ("mfcq", ("--at", "nan")),
        ("regcheck", ("--at", "nan")), ("optcheck", ("--at", "nan")),
        ("slope", ("--at", "nan")), ("optcheck", ("--c", "1", "nan")),
        ("qd", ("--at", "-inf")), ("optcheck", ("--c", "1", "-NaN")),
        ("regcheck", ("--K", "nan")), ("regcheck", ("--r", "1e400")),
        ("slope", ("--seed", "-1")), ("regcheck", ("--grid", "-3")),
        ("regcheck", ("--grid", "4")), ("regcheck", ("--K", "0")),
        ("regcheck", ("--r", "-0.5")), ("optcheck", ("--c", "-1")),
        ("optcheck", ("--c", "1", "-2"))]
]
BAD_CHECK_LINES = [
    ("mfcq", "budget = 0", "line 8: budget must be >= 1, got '0'"),
    ("optcheck", "budget = -5", "line 8: budget must be >= 1, got '-5'"),
    ("regcheck", "scan_radius = 0",
     "line 8: scan_radius must be positive, got '0'"),
    ("regcheck", "scan_radius = -1",
     "line 8: scan_radius must be positive, got '-1'"),
    ("regcheck", "grid = -3", "line 8: grid must be >= 1, got '-3'"),
    ("regcheck", "target_grid = -1",
     "line 8: target_grid must be >= 1, got '-1'"),
    ("regcheck", "grid = 4", "line 8: grid must be odd, got '4'"),
    ("regcheck", "target_grid = 2",
     "line 8: target_grid must be odd, got '2'"),
    ("regcheck", "K = 0", "line 8: k must be positive, got '0'"),
    ("regcheck", "r = -1", "line 8: r must be positive, got '-1'"),
    # psi is the l1 scalarization; no key names a norm
    ("slope", "norm = l2", "line 8: unknown [check] key 'norm'"),
    # an empty ladder is not the default ladder
    ("optcheck", "c =", "line 8: c needs at least one number"),
    ("optcheck", "c = 1 -2", "line 8: c must be >= 0, got '1 -2'"),
    # the targets are --target's alone
    ("slope", "y = 1 2", "line 8: unknown [check] key 'y'"),
    ("slope", "z = 1", "line 8: unknown [check] key 'z'"),
]
# a problem file or flag the input layer rejects, with its one diagnostic
# line; N1 is a file's lines 1-2 and ONE_VAR its lines 1-3
N1 = "[problem]\nn = 1\n"
ONE_VAR = N1 + "equality = x1\n"
REJECTED_INPUTS = [
    ("qd", N1 + "equality = x1 $ 2\n", (),
     "line 3: equality: syntax error at byte 3: unexpected character '$'"),
    ("qd", N1 + "equality = (x1\n", (),
     "line 3: equality: syntax error at byte 3: expected ')'"),
    ("qd", N1 + "equality = abs x1\n", (),
     "line 3: equality: syntax error at byte 4: expected '(' after abs"),
    ("qd", N1 + "equality = max(x1 x1)\n", (),
     "line 3: equality: syntax error at byte 7: expected ',' or ')'"),
    ("qd", N1 + "equality = x1 +\n", (),
     "line 3: equality: syntax error at byte 4: unexpected end of input"),
    ("qd", N1 + "equality = x1 x1\n", (),
     "line 3: equality: syntax error at byte 3: unexpected 'x1'"),
    ("qd", N1 + "equality = pow(x1, 0)\n", (),
     "line 3: equality: pow exponent must be an integer literal >= 1 "
     "(at byte 0)"),
    ("qd", N1 + "equality = x2\n", (),
     "line 3: equality: variable x2 outside declared dimension n=1 "
     "(at byte 0)"),
    ("qd", N1 + "[point]\nx = 0\n", (),
     "the problem file defines no functions"),
    ("slope", ONE_VAR + "[point]\nx = 0\n", ("--target", "1", "2"),
     "--target needs 1 values (1 equality, 0 inequality)"),
    ("qd", ONE_VAR, (), "no evaluation point: add [point] x = ..."),
    ("qd", ONE_VAR + "[point]\nx = 0 0\n", (),
     "line 5: x needs 1 coordinates, got 2"),
    ("qd", ONE_VAR + "[point]\nx = 0\nx = 0\n", (), "line 6: duplicate x"),
    ("qd", ONE_VAR + "[point]\nx = a\n", (),
     "line 5: x expects numbers separated by spaces, got 'a'"),
    ("qd", ONE_VAR + "foo = 1\n", (), "line 4: unknown [problem] key 'foo'"),
    ("qd", ONE_VAR + "[point]\nx = 0\ny = 0\n", (),
     "line 6: unknown [point] key 'y'"),
    ("qd", ONE_VAR + "[point]\nx = 0\n[check]\nK = 1\nK = 2\n", (),
     "line 8: duplicate [check] key 'k'"),
    ("qd", ONE_VAR + "[point]\nx = 0\n[check]\nfoo = 1\n", (),
     "line 7: unknown [check] key 'foo'"),
]

# integers beyond the float range stay integers: the budget refuses the
# grid, and the budget is used as given
HUGE_INTEGERS = [
    ("mfcq", "budget = 18446744073709551616", 0),
    ("regcheck", "grid = 100000000000000000000001", 1),
]

# an expression nested k levels deep, one text per way of nesting
DEEP_TEXTS = {
    "parentheses": lambda k: "(" * k + "x1" + ")" * k,
    "abs": lambda k: "abs(" * k + "x1" + ")" * k,
    "minus": lambda k: "-" * k + "x1",
    "sum": lambda k: " + ".join(["x1"] * (k + 1)),
}


def cap_text(count):
    """A program with count inequalities, each nested MAX_DEPTH levels.

    The penalty and psi fold the constraints into a left-deep sum, so the
    first one sits at the bottom of the fold: it nests operators, which
    makes the deepest path the fold plus a full-depth tree.  The others
    nest parentheses, which keeps the run cheap.  Every constraint is
    below -0.7 near 0, so psi is 0 at every point regcheck samples.
    """
    deep = "-" * (MAX_DEPTH - 1) + "x1 - 1"
    nested = "(" * MAX_DEPTH + "x1 - 1" + ")" * MAX_DEPTH
    lines = [deep] + [nested] * (count - 1)
    return ("[problem]\nn = 1\nobjective = x1\n"
            + "".join(f"inequality = {g}\n" for g in lines)
            + "[point]\nx = 0\n[check]\nK = 1\nr = 0.1\ngrid = 1\n"
            "target_grid = 1\nbudget = 100\n")


class TestNonFiniteInputs:
    """Inputs beyond the float range, from the file or from a flag,
    expressions nested beyond MAX_DEPTH, more than MAX_CONSTRAINTS
    constraints, an unwritable sidecar and the other rejected inputs of
    REJECTED_INPUTS end in exit 2 and one diagnostic line, never in a
    traceback, in exit 1 (which means a budget ran out) or in a report.
    Any other exception is exit 3, also in one line."""

    def run_main(self, tmp_path, capsys, text, *flags, command="qd"):
        f = tmp_path / "nf.prob"
        f.write_text(text)
        code = main([command, str(f), *flags])
        out, err = capsys.readouterr()
        assert_equal(out, "")
        assert_equal(len(err.splitlines()), 1)
        return code, err

    @pytest.mark.parametrize(
        "command, flags, message", BAD_FLAGS,
        ids=[c + "".join(f) for c, f, _ in BAD_FLAGS])
    def test_bad_flag_is_two_naming_the_flag(self, tmp_path, capsys, command,
                                             flags, message):
        code, err = self.run_main(tmp_path, capsys, FLAG_TEXT, *flags,
                                  command=command)
        assert_equal(code, 2)
        assert_equal(err, f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, line, message", BAD_CHECK_LINES,
        ids=[c + "-" + ln.replace(" ", "") for c, ln, _ in BAD_CHECK_LINES])
    def test_bad_check_value_is_two(self, tmp_path, capsys, command, line,
                                    message):
        code, err = self.run_main(tmp_path, capsys, f"{FLAG_TEXT}{line}\n",
                                  command=command)
        assert_equal(code, 2)
        assert_equal(err, f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, text, flags, message", REJECTED_INPUTS,
        ids=[m.split(": ")[-1] for _, _, _, m in REJECTED_INPUTS])
    def test_rejected_input_is_two(self, tmp_path, capsys, command, text,
                                   flags, message):
        code, err = self.run_main(tmp_path, capsys, text, *flags,
                                  command=command)
        assert_equal(code, 2)
        assert_equal(err, f"error: {message}\n")

    @pytest.mark.parametrize("n, budget, points", [
        (1, "1000000000000000000000000000000", "at least 1e30"),
        (3, "1000000000", "1000000000")])
    def test_scan_above_its_maximum_is_two(self, tmp_path, capsys, n,
                                           budget, points):
        # budget sizes regcheck's solution-set scan at budget^(1/n) points
        # per axis; at n = 1, 10^30 ended in exit 3 from np.linspace
        text = (f"[problem]\nn = {n}\nequality = x1\n[point]\nx ="
                + " 0" * n + "\n[check]\nK = 1\nr = 0.1\n"
                f"budget = {budget}\n")
        code, err = self.run_main(tmp_path, capsys, text,
                                  command="regcheck")
        assert_equal(code, 2)
        assert_equal(err, f"error: budget {budget} sizes the solution-set "
                     f"scan at budget^(1/{n}) points per axis, {points} "
                     "points in all, more than its maximum 100000000\n")

    @pytest.mark.parametrize(
        "command, line, want_code", HUGE_INTEGERS,
        ids=["mfcq-budget", "regcheck-grid"])
    def test_huge_integer_is_an_integer(self, tmp_path, capsys, command,
                                        line, want_code):
        f = tmp_path / "huge.prob"
        f.write_text(f"{FLAG_TEXT}K = 1\nr = 0.1\n{line}\n")
        code = main([command, str(f)])
        out, err = capsys.readouterr()
        assert_equal(code, want_code)
        if code == 0:
            assert_equal(err, "")
            assert out.startswith(f"quasidiff {command} report\n")
        else:
            assert_equal(out, "")
            assert err.startswith("error: regcheck grid of 11^1 targets x "
                                  "100000000000000000000001^1 points"), err
            assert err.endswith(" exceeds the budget 1000000\n"), err

    @pytest.mark.parametrize("kind", sorted(DEEP_TEXTS))
    def test_expression_at_depth_limit_runs(self, tmp_path, capsys, kind):
        f = tmp_path / "deep.prob"
        f.write_text(f"[problem]\nn = 1\nequality = "
                     f"{DEEP_TEXTS[kind](MAX_DEPTH)}\n[point]\nx = 0\n")
        assert_equal(main(["qd", str(f)]), 0)
        assert_equal(capsys.readouterr().err, "")

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
    @pytest.mark.parametrize("kind", sorted(DEEP_TEXTS))
    def test_expression_past_depth_limit_is_two(self, tmp_path, capsys, kind,
                                                depth):
        # a RecursionError would be a traceback with exit 1
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  f"equality = {DEEP_TEXTS[kind](depth)}\n"
                                  "[point]\nx = 0\n")
        assert_equal(code, 2)
        assert err.startswith("error: line 3: equality: syntax error at byte ")
        assert err.endswith(
            f": expression nests deeper than {MAX_DEPTH} levels\n")

    def test_every_command_runs_at_the_constraint_cap(self, tmp_path,
                                                      capsys):
        f = tmp_path / "cap.prob"
        f.write_text(cap_text(MAX_CONSTRAINTS))
        for command in ("qd", "slope", "mfcq", "regcheck", "optcheck"):
            # exit 3 would be a RecursionError caught by main
            assert main([command, str(f)]) in (0, 1), command
            out, err = capsys.readouterr()
            assert out.startswith(f"quasidiff {command} report\n"), command
            assert_equal(err, "")
        # regcheck's center-line slope walks no pair here, with no
        # equality and no inequality active at 0, so psi's is taken here
        s = load(str(f)).system()
        assert_equal(psi_expr(s).qd(np.zeros(1)).sub.nvertices, 1)

    def test_regcheck_builds_psi_once_at_the_constraint_cap(
            self, tmp_path, capsys, monkeypatch):
        # each psi tree holds one max node per inequality; a tree per
        # target (3,841 of them here) would build that many times more
        built = []

        class CountingMax(regularity.Max):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(regularity, "Max", CountingMax)
        f = tmp_path / "cap.prob"
        f.write_text(cap_text(MAX_CONSTRAINTS))
        assert_equal(main(["regcheck", str(f)]), 0)
        capsys.readouterr()
        assert_equal(len(built), MAX_CONSTRAINTS)

    def test_overflow_in_the_center_walk_is_two(self, tmp_path, capsys):
        # 1e308 x1^2 - 1e308 stays finite on the grid and the scan (radius
        # 0.01 about 1), and is 0 at the center, where its gradient, 2e308,
        # overflows in the center-line slope's walk
        text = ("[problem]\nn = 1\nequality = 1e308*pow(x1, 2) - 1e308\n"
                "[point]\nx = 1\n[check]\nK = 1\nr = 0.01\ngrid = 1\n"
                "target_grid = 1\nscan_radius = 0.01\nbudget = 100\n")
        s = loads(text).system()
        with np.errstate(over="raise"):
            verify_regularity_grid(s, [1.0], 1.0, 0.01, 1, 1,
                                   scan_radius=0.01, budget=100)
            with pytest.raises(FloatingPointError):
                center_line_slope(s, [1.0], 100)
        code, err = self.run_main(tmp_path, capsys, text, command="regcheck")
        assert_equal(code, 2)
        assert_equal(err, "error: a value overflows the float range while "
                     "evaluating the problem\n")

    def test_overflow_in_the_scan_alone_is_two(self, tmp_path, capsys):
        # x1^1100 overflows past x1 = 1.906: inside the scan (radius 1
        # about 1), outside the grid (radius 0.01) and the center, where
        # x1^1100 - 1 is 0 and the center-line slope is taken; the
        # batched pow chain must raise as the scalar one does
        text = ("[problem]\nn = 1\nequality = pow(x1, 1100) - 1\n"
                "[point]\nx = 1\n[check]\nK = 1\nr = 0.01\ngrid = 1\n"
                "target_grid = 1\nscan_radius = 1\nbudget = 100\n")
        s = loads(text).system()
        with np.errstate(over="raise"):
            assert np.isfinite(center_line_slope(s, [1.0], 100)[0])
            with pytest.raises(FloatingPointError):
                verify_regularity_grid(s, [1.0], 1.0, 0.01, 1, 1,
                                       scan_radius=1.0, budget=100)
        code, err = self.run_main(tmp_path, capsys, text, command="regcheck")
        assert_equal(code, 2)
        assert_equal(err, "error: a value overflows the float range while "
                     "evaluating the problem\n")

    def test_center_line_patterns_past_the_budget_are_one(self, tmp_path,
                                                          capsys):
        # 7 equalities give 2^7 = 128 sign patterns; the 1-point grid and
        # the 100-point scan fit in the budget
        text = ("[problem]\nn = 1\n" + "equality = x1\n" * 7
                + "[point]\nx = 0\n[check]\nK = 1\nr = 0.01\ngrid = 1\n"
                "target_grid = 1\nbudget = 100\n")
        code, err = self.run_main(tmp_path, capsys, text, command="regcheck")
        assert_equal(code, 1)
        assert_equal(err, "error: center-line sign-pattern count 128 "
                     "exceeds the budget 100\n")

    def test_constraint_past_the_cap_is_two(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys,
                                  cap_text(MAX_CONSTRAINTS + 1))
        assert_equal(code, 2)
        assert_equal(err, f"error: line {MAX_CONSTRAINTS + 4}: more than "
                     f"{MAX_CONSTRAINTS} constraints\n")

    def test_unwritable_sidecar_is_two(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.json"
        code, err = self.run_main(tmp_path, capsys, FLAG_TEXT, "--json",
                                  str(path))
        assert_equal(code, 2)
        assert_equal(err, f"error: cannot write {path}: "
                     "No such file or directory\n")

    def test_internal_error_is_three(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._COMMANDS, "qd", broken)
        code, err = self.run_main(tmp_path, capsys, FLAG_TEXT)
        assert_equal(code, 3)
        assert_equal(err, "error: internal: RuntimeError: boom\n")

    def test_nan_point_is_two_with_line_number(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  "equality = abs(x1)\n[point]\nx = nan\n")
        assert_equal(code, 2)
        assert "error: line 5: x must be finite, got 'nan'" in err

    def test_point_beyond_float_range_is_two(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  "equality = abs(x1)\n[point]\nx = 1e400\n")
        assert_equal(code, 2)
        assert "error: line 5: x must be finite, got '1e400'" in err

    def test_overflowing_literal_is_two(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  "equality = 1e400*x1\n[point]\nx = 0\n")
        assert_equal(code, 2)
        assert "error: line 3: equality:" in err
        assert "overflows to infinity" in err

    def test_overflow_during_evaluation_is_two(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  "equality = pow(x1, 400)\n[point]\n"
                                  "x = 10\n", "--dir", "1")
        assert_equal(code, 2)
        assert "overflows the float range" in err

    def test_overflow_in_a_smooth_product_is_two(self, tmp_path, capsys,
                                                 recwarn):
        # exp's value and derivative were Python floats, whose product
        # overflowed to inf without raising; inf * 0 then put nan in the
        # gradient, and optcheck ended in exit 3 after two warnings
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 2\n"
                                  "objective = exp(p)*exp(p)*x1\n"
                                  "equality = x2\n[params]\np = 400\n"
                                  "[point]\nx = 0 0\n", command="optcheck")
        assert_equal((code, err), (2, "error: a value overflows the float "
                                      "range while evaluating the problem\n"))
        assert_equal([str(w.message) for w in recwarn], [])

    def test_infeasible_point_is_named_before_an_objective_overflow(
            self, tmp_path, capsys):
        # program_data checks feasibility before it walks the objective
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  "objective = exp(x1)\nequality = x1\n"
                                  "[point]\nx = 1000\n", command="optcheck")
        assert_equal((code, err),
                     (2, "error: base point infeasible: f1 = 1000\n"))

    @pytest.mark.parametrize("command", ["qd", "slope", "mfcq", "regcheck",
                                         "optcheck"])
    @pytest.mark.parametrize("lines", [
        "equality = p*p*x1\n[params]\np = 1e308\n[point]\nx = 0.5\n",
        "inequality = 1e300 * 1e300 * x1 - 1\n[point]\nx = -1\n",
        "equality = abs(1e300 * 1e300 + x1)\n[point]\nx = 0\n"],
        ids=["param-product", "constant-product", "constant-under-abs"])
    def test_overflow_free_of_x_is_two(self, tmp_path, capsys, command,
                                       lines):
        # Python float arithmetic overflows to inf without raising, so a
        # product of constants or parameters ended in exit 3 (a polytope
        # vertex at inf), in a report of inf, or in "q.d.-MFCQ holds"
        code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                  f"objective = x1\n{lines}[check]\nK = 1\n"
                                  "r = 0.1\n", command=command)
        assert_equal((code, err), (2, "error: a value overflows the float "
                                      "range while evaluating the problem\n"))

    def test_numpy_overflow_is_two_without_warnings(self, tmp_path, capsys,
                                                    recwarn):
        # exp overflows to inf inside numpy, which by itself only warns
        for command in ("qd", "slope"):
            code, err = self.run_main(tmp_path, capsys, "[problem]\nn = 1\n"
                                      "equality = exp(x1)\n[point]\n"
                                      "x = 1000\n", command=command)
            assert_equal(code, 2)
            assert "overflows the float range" in err
        assert_equal([str(w.message) for w in recwarn], [])


# a negative number in exponent notation is a flag value, not an option;
# each flag's value reaches the report, and a removed flag is refused
# with its values
NEGATIVE_EXPONENT_FLAGS = [
    ("qd", ("--dir", "-1e0"), 0, "  dd (-1): -1"),
    ("slope", ("--target", "-8.5E-16"), 0, "target y: (-8.5e-16)"),
] + [(command, flags, 2, "error: unrecognized arguments: " + " ".join(flags))
     for command, flags in [("qd", ("--at", "-1e-3")),
                            ("optcheck", ("--c", "1", "-1e0")),
                            ("regcheck", ("--K", "-1e0")),
                            ("regcheck", ("--r", "-.5e0"))]]
# command lines that argparse rejects, each with its one-line diagnostic
# (None for the file written by the test)
REJECTED_COMMAND_LINES = [
    (["qd", None, "--bogus"], "unrecognized arguments: --bogus"),
    # every cut is geometry.FEAS_TOL; no flag sets it
    (["mfcq", None, "--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
    # K, r, grid, c and the point are file keys alone, and the seed is 0
    (["regcheck", None, "--K", "abc"], "unrecognized arguments: --K abc"),
    (["slope", None, "--target"],
     "argument --target: expected at least one argument"),
    (["mfcq", None, "--seed", "1.5"], "unrecognized arguments: --seed 1.5"),
    (["qd"], "the following arguments are required: file"),
    (["frob", None], "argument command: invalid choice: 'frob'"),
    ([], "the following arguments are required: command"),
]


class TestCommandLine:
    """argparse's rejections follow the CLI's contract: main returns 2
    after one `error:` line on stderr and nothing on stdout."""

    def run_main(self, tmp_path, capsys, argv):
        f = tmp_path / "flags.prob"
        f.write_text(FLAG_TEXT)
        code = main([str(f) if a is None else a for a in argv])
        return code, *capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flags, want_code, want_line", NEGATIVE_EXPONENT_FLAGS,
        ids=[c + "".join(f) for c, f, _, _ in NEGATIVE_EXPONENT_FLAGS])
    def test_negative_exponent_is_a_value(self, tmp_path, capsys, command,
                                          flags, want_code, want_line):
        code, out, err = self.run_main(tmp_path, capsys,
                                       [command, None, *flags])
        assert_equal(code, want_code)
        if code == 0:
            assert want_line in out.splitlines()
            assert_equal(err, "")
        else:
            assert_equal((out, err), ("", want_line + "\n"))

    @pytest.mark.parametrize(
        "argv, message", REJECTED_COMMAND_LINES,
        ids=["-".join(a or "file" for a in argv) or "empty"
             for argv, _ in REJECTED_COMMAND_LINES])
    def test_rejected_command_line_is_one_line(self, tmp_path, capsys, argv,
                                               message):
        code, out, err = self.run_main(tmp_path, capsys, argv)
        assert_equal(code, 2)
        assert_equal(out, "")
        assert_equal(len(err.splitlines()), 1)
        assert err.startswith(f"error: {message}"), err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert_equal(exit_.value.code, 0)
        assert capsys.readouterr().out.startswith("usage: quasidiff")
