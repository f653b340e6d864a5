"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload verdicts \
        --seed 41 --pairs 10 --seconds 20

Each pair runs `python3 perfbench/run.py --trace 0` with the given
workload, seed and length once in each checkout, from its root.  The
parent goes first in even pairs and the change in odd ones, so that a
drift of the machine's speed over the comparison weighs on both sides
alike.  Only `perfbench/` of each checkout is read.

With `--workload all` each run measures every workload, and each metric
is named `workload/metric`.

It prints each run's end-to-end metrics and failed ops as it ends, then,
for each metric, the median and quartiles of each side, the
change/parent ratio of the medians, and in how many pairs the change
led, and last each side's failed ops over all its runs, by workload.  It
exits 2 when a run fails, ends in a line that is not JSON, or reads
`"correct": false` for any workload.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# the end-to-end metrics for which more is better; less is better for
# every other one
HIGHER_IS_BETTER = frozenset({"ops_per_s"})


class RunError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between
    order statistics as numpy's default percentile does."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric, from (parent, change) pairs of {metric: value}:
    parent and change (q1, median, q3), the ratio of the change median
    to the parent median, and the number of pairs the change led."""
    out = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        higher = name.split("/")[-1] in HIGHER_IS_BETTER
        led = sum((c > p) if higher else (c < p)
                  for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {"parent": pq, "change": cq, "ratio": cq[1] / pq[1],
                     "led": led}
    return out


def parse_result(stdout: str) -> tuple[dict, dict]:
    """({metric: value}, {workload: (failed ops, attempted ops)}) from the
    last line of a run.py run.  That line is one workload's result, named
    "" here, or for `--workload all` a map from each workload to its
    result, whose metrics are then named workload/metric.  RunError if
    the line is not JSON or some workload reads "correct": false."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunError("the last line of the run is not JSON") from None
    results = {"": result} if "metrics" in result else result
    metrics, ops = {}, {}
    for workload, r in results.items():
        if r.get("correct") is not True:
            raise RunError(f"the run is not correct: {lines[-1]}")
        prefix = f"{workload}/" if workload else ""
        metrics.update({prefix + k: m["value"]
                        for k, m in r["metrics"].items()})
        ops[workload] = (r["failed"], r["attempted"])
    return metrics, ops


def run(checkout: str, args) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd)} in {checkout} exited "
                       f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_result(proc.stdout)


def _failed(workload: str, failed: int, attempted: int) -> str:
    return (f"{workload + ' ' if workload else ''}failed {failed}/"
            f"{attempted} ({failed / attempted if attempted else 0.0:.4g})")


def report(summary: dict, n_pairs: int, ops: dict) -> None:
    """The summary table, then each workload's failed/attempted ops on
    each side, from ops, {(side, workload): [failed, attempted]}."""
    print(f"{'metric':28s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'ratio':>7s} {'change led':>10s}")
    for name, s in summary.items():
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                 for q in (s["parent"], s["change"])]
        print(f"{name:28s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{s['ratio']:7.3f} {s['led']:>5d} of {n_pairs}")
    for side in ("parent", "change"):
        print(f"{side}: " + ", ".join(_failed(w, *ops[side, w])
                                      for o, w in ops if o == side))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    pairs, ops = [], {}
    try:
        for i in range(args.pairs):
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side], counts = run(getattr(args, side), args)
                for w, (failed, attempted) in counts.items():
                    total = ops.setdefault((side, w), [0, 0])
                    total[0] += failed
                    total[1] += attempted
                print(f"pair {i + 1} {side}: " + ", ".join(
                    [f"{k} {v:.4g}" for k, v in sides[side].items()]
                    + [_failed(w, *c) for w, c in counts.items()]),
                    flush=True)
            pairs.append((sides["parent"], sides["change"]))
    except RunError as e:
        print(f"ab_pairs: {e}", file=sys.stderr)
        return 2
    report(summarize(pairs), args.pairs, ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
