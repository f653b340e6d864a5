"""tools/ab_pairs.py, the alternating-pairs comparison of two checkouts,
on fixed numbers and on stand-in perfbench/run.py scripts."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_fixed_pairs():
    ops = [(10, 15), (20, 18), (30, 45), (40, 50)]
    p50 = [(2, 1), (2, 3), (2, 2), (2, 1)]
    pairs = [({"ops_per_s": o[0], "latency_p50_ms": l[0]},
              {"ops_per_s": o[1], "latency_p50_ms": l[1]})
             for o, l in zip(ops, p50)]
    s = load_tool().summarize(pairs)
    # more ops/s leads; a tie leads on neither side
    assert_equal(s["ops_per_s"]["led"], 3)
    assert_equal(s["latency_p50_ms"]["led"], 2)
    assert_allclose(s["ops_per_s"]["parent"], (17.5, 25.0, 32.5))
    assert_allclose(s["ops_per_s"]["change"], (17.25, 31.5, 46.25))
    assert_allclose(s["ops_per_s"]["ratio"], 1.26)
    assert_allclose(s["latency_p50_ms"]["change"], (1.0, 1.5, 2.25))
    assert_allclose(s["latency_p50_ms"]["ratio"], 0.75)
    # the quartiles are numpy's default percentiles
    change = [c for _, c in ops]
    assert_allclose(s["ops_per_s"]["change"],
                    np.percentile(change, [25, 50, 75]))


def test_one_pair_is_its_own_quartiles():
    s = load_tool().summarize([({"setup_s": 2.0}, {"setup_s": 1.0})])
    assert_equal(s["setup_s"]["parent"], (2.0, 2.0, 2.0))
    assert_equal(s["setup_s"]["led"], 1)


@pytest.mark.parametrize("stdout", [
    "", "table\nnot json\n",
    '{"correct": false, "metrics": {"setup_s": {"value": 1.0}}}\n',
    '{"qd-build": {"correct": true, "attempted": 1, "failed": 0, '
    '"metrics": {"setup_s": {"value": 1.0}}}, '
    '"verdicts": {"correct": false, "attempted": 1, "failed": 1, '
    '"metrics": {"setup_s": {"value": 1.0}}}}\n'])
def test_a_run_without_a_correct_json_line_is_refused(stdout):
    tool = load_tool()
    with pytest.raises(tool.RunError):
        tool.parse_result(stdout)


FAKE_RUN = '''\
import json, sys
with open({log!r}, "a") as fh:
    fh.write({side!r} + "\\n")
print("a table line")
print({last!r})
'''


def fake_checkout(tmp_path, side, last, log):
    root = tmp_path / side
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(log=str(log), side=side, last=last))
    return str(root)


def result_line(ops):
    return json.dumps({"correct": True, "attempted": 4, "failed": 0,
                       "metrics": {"ops_per_s": {"value": ops,
                                                 "unit": "1/s"}}})


def test_runs_alternate_and_a_bad_run_exits_two(tmp_path, capsys):
    tool = load_tool()
    log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path, "parent", result_line(10.0), log)
    change = fake_checkout(tmp_path, "change", result_line(12.0), log)
    flags = ["--workload", "verdicts", "--seed", "41", "--seconds", "1"]
    assert_equal(tool.main([parent, change, "--pairs", "3", *flags]), 0)
    assert_equal(log.read_text().split(),
                 ["parent", "change", "change", "parent", "parent", "change"])
    row, = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("ops_per_s")]
    assert_equal(row[-4:], ["1.200", "3", "of", "3"])
    broken = fake_checkout(tmp_path, "broken", "not json", log)
    assert_equal(tool.main([parent, broken, "--pairs", "1", *flags]), 2)
    assert "not JSON" in capsys.readouterr().err


def all_line(qd_ops, verdicts_ops, verdicts_failed):
    """The last line of a `--workload all` run of two workloads."""
    qd, verdicts = json.loads(result_line(qd_ops)), \
        json.loads(result_line(verdicts_ops))
    verdicts["failed"] = verdicts_failed
    return json.dumps({"qd-build": qd, "verdicts": verdicts})


def test_every_workload_of_a_run_is_read(tmp_path, capsys):
    tool = load_tool()
    log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path, "parent", all_line(10.0, 20.0, 1), log)
    change = fake_checkout(tmp_path, "change", all_line(11.0, 19.0, 2), log)
    flags = ["--workload", "all", "--seed", "41", "--seconds", "1"]
    assert_equal(tool.main([parent, change, "--pairs", "2", *flags]), 0)
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[-4:] for line in out
            if line.startswith(("qd-build/", "verdicts/"))}
    assert_equal(rows, {"qd-build/ops_per_s": ["1.100", "2", "of", "2"],
                        "verdicts/ops_per_s": ["0.950", "0", "of", "2"]})
    assert_equal(out[-2:], [
        "parent: qd-build failed 0/8 (0), verdicts failed 2/8 (0.25)",
        "change: qd-build failed 0/8 (0), verdicts failed 4/8 (0.5)"])
