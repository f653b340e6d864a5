"""End-to-end gate over the worked fixtures and property suites.

One test per criterion, run in order; each prints a single
[PASS]/[FAIL] line (visible without -s) before asserting, so the
terminal shows the full scoreboard even when a criterion is red.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

from quasidiff.calculus import (Quasidifferential, dd, matrix_qd_plus,
                                steepest_rate)
from quasidiff.expressions import (Binding, kink_distance, parse_expression,
                                   qd_at, qd_matrix_at)
from quasidiff.geometry import (Polytope, contains, minkowski_sum,
                                nearest_point, scale, singleton, support)
from quasidiff.mfcq import full_rank_det_range, qd_mfcq
from quasidiff.optimality import (C_LADDER, ProgramSpec, Selection,
                                  check_all_selections, check_multipliers,
                                  check_stationarity, program_data)
from quasidiff.regularity import (SystemSpec, check_condition4, psi_expr,
                                  solution_distance)

from test_optimality import dc_program

SQ2 = np.sqrt(2.0)

ABS_DIFF = SystemSpec(2, (parse_expression("abs(x1) - abs(x2)", 2),))
MIXED = SystemSpec(2, (parse_expression("abs(x1) - x2", 2),),
                   (parse_expression("x1", 2),))
CUBIC = SystemSpec(1, (parse_expression("min(x1, max(pow(x1, 3), 0))", 1),))


def sin_system(p):
    return SystemSpec(2,
                      (parse_expression("max(2*x1, x1) - abs(sin(p*x2))", 2),
                       parse_expression("min(x2, 2*x2) + sin(p*(x1+x2))", 2)),
                      params={"p": p})


def margin(s, x, y, z=None, K=2.0):
    q = psi_expr(s, y, z).qd(np.asarray(x, dtype=float))
    return check_condition4(q, K).margin


def holds_for(s, x, y, K):
    q = psi_expr(s, y).qd(np.asarray(x, dtype=float))
    return check_condition4(q, K).holds


def emit(capsys, ok, num, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_four_case_margins(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    F = lambda x: abs(x[0]) - abs(x[1])
    sqrt2_margins, one_margins = [], []
    points = []
    for _ in range(10):
        sgn = rng.choice([-1.0, 1.0], 2)
        u = rng.uniform(0.2, 1.0, 2)
        d = rng.uniform(0.05, 0.5)
        # above the graph with both coordinates nonzero, then x2 = 0;
        # below the graph with both nonzero, then x1 = 0
        xa = sgn * u
        xb = np.array([sgn[0] * u[0], 0.0])
        xd = np.array([0.0, sgn[1] * u[1]])
        sqrt2_margins.append(margin(ABS_DIFF, xa, [F(xa) + d]))
        one_margins.append(margin(ABS_DIFF, xb, [F(xb) + d]))
        sqrt2_margins.append(margin(ABS_DIFF, xa, [F(xa) - d]))
        one_margins.append(margin(ABS_DIFF, xd, [F(xd) - d]))
        points += [(xa, F(xa) + d), (xb, F(xb) + d),
                   (xa, F(xa) - d), (xd, F(xd) - d)]
    all_k = all(holds_for(ABS_DIFF, x, [y], K)
                for x, y in points
                for K in (1.0 + 1e-9, 1.0001, 2.0, 1e6))
    elapsed = time.perf_counter() - t0
    ok = (np.allclose(sqrt2_margins, SQ2, atol=1e-9)
          and np.allclose(one_margins, 1.0, atol=1e-9)
          and all_k and elapsed < 1.0)
    emit(capsys, ok, 1,
         f"four-case margins sqrt(2) and 1 within 1e-9, "
         f"holds for every K > 1 ({elapsed:.2f} s)")
    assert_allclose(sqrt2_margins, SQ2, atol=1e-9)
    assert_allclose(one_margins, 1.0, atol=1e-9)
    assert all_k
    assert elapsed < 1.0


def test_criterion_2_pointwise_comparator(capsys):
    q = psi_expr(ABS_DIFF, [0.3]).qd(np.zeros(2))
    zero = np.zeros(2)
    degenerate = contains(q.sup, zero) and contains(q.sub, zero)
    res = check_condition4(q, 1.0001)
    certifies = (abs(res.margin - 1.0) <= 1e-12
                 and all(check_condition4(q, K).holds
                         for K in (1.0 + 1e-9, 2.0, 1e6)))
    ok = degenerate and certifies
    emit(capsys, ok, 2,
         "w* = 0 lies in the superdifferential and 0 in sub + w*, "
         f"yet the vertex margin is {res.margin:.12g} and the criterion "
         "certifies regularity for every K > 1")
    assert degenerate
    assert certifies


def test_criterion_3_cubic_margins_and_ratio_growth(capsys):
    t0 = time.perf_counter()
    margins = {xs: margin(CUBIC, [xs], [0.0]) for xs in (0.05, 0.1, 0.2)}
    margins_ok = all(abs(m - 3.0 * xs ** 2) <= 1e-9
                     for xs, m in margins.items())
    ratios = {}
    for y in (1e-2, 1e-4):
        d = solution_distance(CUBIC, [0.0], [y], center=[0.0],
                              scan_radius=0.6, budget=10 ** 5)
        ratios[y] = d / y
    growth = ratios[1e-4] / ratios[1e-2]
    elapsed = time.perf_counter() - t0
    ok = margins_ok and growth >= 10.0 and elapsed < 10.0
    emit(capsys, ok, 3,
         f"margins 3x^2 at x = 0.05/0.1/0.2 within 1e-9; distance/residual "
         f"ratio grows {growth:.1f}x from y = 1e-2 to 1e-4 "
         f"({elapsed:.2f} s)")
    for xs, m in margins.items():
        assert_allclose(m, 3.0 * xs ** 2, atol=1e-9)
    assert growth >= 10.0
    assert elapsed < 10.0


def _verdict_flip(lo, hi):
    vlo = qd_mfcq(sin_system(lo), np.zeros(2)).verdict
    assert vlo != qd_mfcq(sin_system(hi), np.zeros(2)).verdict
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if qd_mfcq(sin_system(mid), np.zeros(2)).verdict == vlo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_parametric_verdict_flips(capsys):
    # At x = 0 the equality sums are A1 = {(s, u) : s in [1, 2], |u| <= |p|}
    # and A2 = {(p, p + t) : t in [1, 2]}, so det = s(p + t) - u p.  It is
    # multilinear, hence extremal at vertex tuples; for p > -1 its minimum
    # is 1 + p - p^2 (s = t = 1, u = p) for both signs of p, because u
    # ranges over the symmetric interval [-|p|, |p|].  Both flips are the
    # roots (1 -+ sqrt(5))/2.  The monomial-wise interval bound
    # min(s p) + min(s t) + min(-u p) = 1 + 2p - p^2 (root 1 - sqrt(2))
    # takes s = 2 in s p but s = 1 in s t for p < 0, so no matrix attains it.
    lower = _verdict_flip(-0.7, -0.3)
    upper = _verdict_flip(1.5, 1.7)
    expected_lower = (1.0 - np.sqrt(5.0)) / 2.0
    expected_upper = (1.0 + np.sqrt(5.0)) / 2.0
    rep = qd_mfcq(sin_system(1.0), np.zeros(2))
    det_range = full_rank_det_range(rep.eq_plus)
    range_ok = (rep.rank.full_rank
                and abs(det_range.min_det - 1.0) <= 1e-12
                and abs(det_range.max_det - 7.0) <= 1e-12)
    member = np.array([[1.0, -1.0], [1.0, 2.0]])
    member_det = float(np.linalg.det(member))
    rows = matrix_qd_plus(qd_matrix_at(sin_system(1.0).equalities,
                                       Binding(np.zeros(2), {"p": 1.0})))
    member_ok = (abs(member_det - 3.0) <= 1e-12
                 and contains(rows[0], member[0])
                 and contains(rows[1], member[1])
                 and det_range.min_det - 1e-12 <= member_det
                 <= det_range.max_det + 1e-12)
    # p = -0.5 lies between 1 - sqrt(2) and (1 - sqrt(5))/2: the sums are
    # the polytopes above and every vertex tuple has det >= 1 + p - p^2.
    mid_rows = matrix_qd_plus(qd_matrix_at(sin_system(-0.5).equalities,
                                           Binding(np.zeros(2), {"p": -0.5})))
    mid_range = full_rank_det_range(mid_rows)
    mid_ok = (mid_rows[0] == Polytope([[1.0, -0.5], [1.0, 0.5],
                                       [2.0, -0.5], [2.0, 0.5]])
              and mid_rows[1] == Polytope([[-0.5, 0.5], [-0.5, 1.5]])
              and abs(mid_range.min_det - 0.25) <= 1e-12)
    upper_ok = abs(upper - expected_upper) <= 1e-6
    lower_ok = abs(lower - expected_lower) <= 1e-6
    ok = lower_ok and upper_ok and range_ok and member_ok and mid_ok

    def word(flag):
        return "ok" if flag else "WRONG"

    emit(capsys, ok, 4,
         f"lower verdict flip measured {lower:.9f}, expected "
         f"{expected_lower:.9f} (diff {abs(lower - expected_lower):.3g}) "
         f"{word(lower_ok)}; upper flip {upper:.9f} vs "
         f"{expected_upper:.9f} {word(upper_ok)}; det range [1, 7] "
         f"{word(range_ok)}; member det 3 {word(member_ok)}; "
         f"p = -0.5 min det {mid_range.min_det:.12g} vs 0.25 "
         f"{word(mid_ok)}")
    assert upper_ok, f"upper flip at {upper!r}"
    assert range_ok, f"full rank {rep.rank}, det range {det_range}"
    assert member_ok, f"member determinant {member_det!r}"
    assert mid_ok, f"p = -0.5 sums {mid_rows}, det range {mid_range}"
    assert lower_ok, (f"lower verdict flip at {lower:.9f}, expected "
                      f"{expected_lower:.9f}")


def test_criterion_5_qualification_not_necessary(capsys):
    rep = qd_mfcq(ABS_DIFF, np.zeros(2))
    box = Polytope([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    fails = (not rep.verdict and not rep.rank.full_rank
             and rep.eq_plus[0] == box
             and contains(rep.eq_plus[0], np.zeros(2)))
    F = lambda x: abs(x[0]) - abs(x[1])
    probes = [np.array(p) for p in
              ((0.4, 0.7), (0.5, 0.0), (-0.6, 0.3), (0.0, 0.8))]
    margins = [margin(ABS_DIFF, x, [F(x) + s])
               for x in probes for s in (0.1, -0.1)]
    positive = min(margins) > 0.0
    ok = fails and positive
    emit(capsys, ok, 5,
         "q.d.-MFCQ fails (0 in the sup-norm unit box) while the "
         f"regularity margins stay positive (min {min(margins):.12g})")
    assert fails
    assert positive


def test_criterion_6_margin_floor(capsys):
    rep = qd_mfcq(MIXED, np.zeros(2))
    hb = rep.direction
    hbar_fails = (hb.eq_span_rank == 2 and hb.complement_dim == 0
                  and hb.hbar is None and hb.margin == -np.inf
                  and not rep.verdict)
    rng = np.random.default_rng(0)
    margins = []
    while len(margins) < 200:
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-1.0, 1.0)
        psi = psi_expr(MIXED, [y], [z])
        if psi.value(x) <= 1e-9:
            continue
        margins.append(check_condition4(psi.qd(x), 2.0).margin)
    floor_ok = min(margins) >= SQ2 / 2.0 - 1e-9
    eq_margin = margin(MIXED, [1.0, 0.5], [0.5], [0.5])
    equality_ok = abs(eq_margin - SQ2 / 2.0) <= 1e-9
    ok = hbar_fails and floor_ok and equality_ok
    emit(capsys, ok, 6,
         "equality sums span the whole space so no hbar exists; "
         f"200 sampled margins >= sqrt(2)/2 (min {min(margins):.12g}), "
         f"equality attained on the y = f(x), x1 > z face "
         f"({eq_margin:.12g})")
    assert hbar_fails
    assert floor_ok
    assert equality_ok


def test_criterion_7_penalty_conditions(capsys):
    p = ProgramSpec(2, parse_expression("x2 - x1", 2),
                    (parse_expression("abs(x1) - abs(x2)", 2),))
    b = p.binding([0.0, 0.0])
    # the handpicked selection v* = (1,0), w* = (0,1)
    sub_f = qd_at(p.equalities[0], b).sub
    sup_f = qd_at(p.equalities[0], b).sup
    assert_allclose(sub_f.vertices[1], [1.0, 0.0])
    assert_allclose(sup_f.vertices[1], [0.0, 1.0])
    d = program_data(p, b)
    picked = check_multipliers(d, Selection(0, (1,), (1,)))
    ladder_fails = all(not check_stationarity(d, c).holds
                       for c in C_LADDER)
    agree = all(check_all_selections(d, c_bound=c).holds is False
                for c in C_LADDER)
    rng = np.random.default_rng(7)
    cross = 0
    for _ in range(20):
        q = dc_program(rng)
        qb = q.binding([0.0, 0.0])
        for c in (0.1, 1.0, 10.0):
            sweep = check_all_selections(program_data(q, qb), c_bound=c)
            stat = check_stationarity(program_data(q, qb), c)
            assert sweep.holds is not None
            assert_equal(sweep.holds, stat.holds)
            cross += 1
    ok = (not picked.feasible) and ladder_fails and agree and cross == 60
    emit(capsys, ok, 7,
         "selection v* = (1,0), w* = (0,1) infeasible; stationarity fails "
         "on the whole default ladder; stationarity and selection sweep "
         f"agree on {cross} random DC fixture checks")
    assert not picked.feasible
    assert ladder_fails
    assert agree


def _suite_fd_oracle(rng):
    # (a) dd against one-sided differences away from kinks
    fixtures = ("max(2*x1, x1) - abs(sin(x2))",
                "min(x2, 2*x2) + sin(x1 + x2)",
                "abs(abs(x1) - x2 - 0.5)")
    for text in fixtures:
        e = parse_expression(text, 2)
        done = 0
        while done < 100:
            x = rng.uniform(-1.0, 1.0, 2)
            bind = Binding(x, {})
            if kink_distance(e, bind) < 1e-4:
                continue
            h = rng.standard_normal(2)
            h /= np.linalg.norm(h)
            q = qd_at(e, bind)
            alpha = 1e-5
            fd = (e.evaluate(x + alpha * h, {}) - e.evaluate(x, {})) / alpha
            assert abs(dd(q, h) - fd) <= 1e-4
            done += 1


def _suite_shift_invariance(rng):
    # (b) dd blind to [sub + C, sup + (-C)] re-representations
    qs = [qd_at(parse_expression("max(2*x1, x1) - abs(sin(x2))", 2),
                Binding(np.zeros(2), {})),
          qd_at(parse_expression("min(x2, 2*x2) + sin(x1 + x2)", 2),
                Binding(np.zeros(2), {})),
          qd_at(parse_expression("abs(abs(x1) - x2 - 0.5)", 2),
                Binding(np.array([1.0, 0.5]), {}))]
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for q in qs:
        base = [dd(q, h) for h in dirs]
        for _ in range(50):
            c = Polytope(rng.uniform(-1.0, 1.0, (3, 2)))
            q2 = Quasidifferential(minkowski_sum(q.sub, c),
                                   minkowski_sum(q.sup, scale(c, -1.0)))
            for h, want in zip(dirs, base):
                assert abs(dd(q2, h) - want) <= 1e-10


def _suite_steepest_rate(rng):
    # (c) vertex maximum against dense superdifferential sampling
    for _ in range(20):
        sub = Polytope(rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), 2)))
        sup = Polytope(rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), 2)))
        q = Quasidifferential(sub, sup)
        rate, witness = steepest_rate(q)
        mixes = rng.dirichlet(np.ones(sup.nvertices), 200) @ sup.vertices
        dense = 0.0
        for w in np.vstack([sup.vertices, mixes]):
            shifted = minkowski_sum(sub, singleton(w))
            dense = max(dense, nearest_point(shifted, np.zeros(2))[1])
        assert abs(rate - dense) <= 1e-6
        in_sup = contains(sup, witness)
        assert in_sup


def _suite_det_range(rng):
    # (d) exact vertex-tuple extremes against 1e5 random selections
    row_sets = [matrix_qd_plus(qd_matrix_at(sin_system(1.0).equalities,
                                            Binding(np.zeros(2),
                                                    {"p": 1.0})))]
    for _ in range(2):
        row_sets.append([Polytope(rng.uniform(-1.0, 1.0,
                                              (int(rng.integers(2, 4)), 2)))
                         for _ in range(2)])
    for rows in row_sets:
        res = full_rank_det_range(rows)
        i = rng.integers(0, rows[0].nvertices, 10 ** 5)
        j = rng.integers(0, rows[1].nvertices, 10 ** 5)
        a = rows[0].vertices[i]
        b = rows[1].vertices[j]
        dets = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        assert dets.min() >= res.min_det - 1e-9
        assert dets.max() <= res.max_det + 1e-9
        assert abs(dets.min() - res.min_det) <= 1e-9
        assert abs(dets.max() - res.max_det) <= 1e-9


def _suite_geometry(rng):
    # (e) support additivity, hull idempotence, projection consistency
    for _ in range(20):
        a = Polytope(rng.uniform(-1.0, 1.0, (4, 2)))
        b = Polytope(rng.uniform(-1.0, 1.0, (4, 2)))
        s = minkowski_sum(a, b)
        for _ in range(100):
            h = rng.standard_normal(2)
            assert abs(support(s, h) - support(a, h) - support(b, h)) <= 1e-9
        assert Polytope(s.vertices) == s
        inside = rng.dirichlet(np.ones(s.nvertices)) @ s.vertices
        assert contains(s, inside)
        far = rng.uniform(3.0, 4.0, 2) * rng.choice([-1.0, 1.0], 2)
        proj, dist = nearest_point(s, far)
        assert not contains(s, far)
        assert dist > 0.0
        assert contains(s, proj)
        assert abs(np.linalg.norm(far - proj) - dist) <= 1e-9


def test_criterion_8_property_suites(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    _suite_fd_oracle(rng)
    _suite_shift_invariance(rng)
    _suite_steepest_rate(rng)
    _suite_det_range(rng)
    _suite_geometry(rng)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    emit(capsys, ok, 8,
         "finite-difference, shift-invariance, steepest-rate, det-range "
         f"and geometry suites all green ({elapsed:.2f} s)")
    assert ok
