"""quasidiff benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

It prints a table per workload and, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.main.calls": "count", "cli.main.self_s": "s",
    "problemfile.load.calls": "count", "problemfile.load.s": "s",
    "expressions.qd_at.calls": "count", "expressions.qd_at.self_s": "s",
    "expressions.qd_at.max_vertices": "count",
    "expressions.qd_at.repeat_frac": "fraction",
    "expressions.evaluate.calls": "count", "expressions.evaluate.s": "s",
    "expressions.evaluate.batched_frac": "fraction",
    "geometry.polytope.builds": "count", "geometry.polytope.s": "s",
    "geometry.polytope.points_in": "count",
    "geometry.polytope.kept_frac": "fraction",
    "geometry.minkowski_sum.calls": "count", "geometry.minkowski_sum.s": "s",
    "geometry.nearest_point.calls": "count", "geometry.nearest_point.s": "s",
    "calculus.steepest_rate.calls": "count", "calculus.steepest_rate.s": "s",
    "geometry.solve_lp.calls": "count", "geometry.solve_lp.s": "s",
    "geometry.solve_lp.infeasible_frac": "fraction",
    "mfcq.full_rank_general.calls": "count", "mfcq.full_rank_general.s": "s",
    "mfcq.full_rank_general.lps_per_call": "count",
    "mfcq.full_rank_det_range.tuples": "count", "mfcq.find_hbar.s": "s",
    "mfcq.qd_mfcq.s": "s",
    "optimality.check_stationarity.calls": "count",
    "optimality.check_stationarity.s": "s",
    "optimality.check_all_selections.calls": "count",
    "optimality.check_all_selections.s": "s",
    "optimality.check_all_selections.selections": "count",
    "optimality.estimate_c_star.s": "s",
    "optimality.qualification_pathway.s": "s",
    "regularity.verify_regularity_grid.s": "s",
    "regularity.solution_distance.calls": "count",
    "regularity.solution_distance.s": "s",
    "regularity.margin_infima.s": "s",
    "regularity.sampled_strong_slope.s": "s",
    "trace.op_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
    "trace.share_import": "fraction", "trace.share_polytope": "fraction",
    "trace.share_query": "fraction",
}


class BenchError(RuntimeError):
    pass


def checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quasidiff", "cli.py")):
        raise BenchError("run from the root of a quasidiff checkout: "
                         "src/quasidiff/cli.py not found")
    for name in gen.FIXTURES:
        if not os.path.isfile(os.path.join(root, "problems", name)):
            raise BenchError(f"shipped fixture problems/{name} not found")
    return root


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, mode: str, out: str, env: dict):
    """Spawn a worker; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up ({args.workload})")
    return proc, setup


def finish_worker(proc) -> None:
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def measure(args, root: str) -> dict:
    env = worker_env(root)
    tmp = os.path.join(".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    out = os.path.join(tmp, f"{args.workload}-{os.getpid()}.json")
    setups = []
    modes = ["setup"] * (SETUP_SAMPLES - 1) + ["run"] if not args.trace \
        else ["trace"]
    for mode in modes:
        proc, setup = start_worker(args, mode, out, env)
        setups.append(setup)
        finish_worker(proc)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    result["setup_samples"] = setups
    return result


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def summarize(r: dict) -> dict:
    times = r["op_s"]
    failed_keys = {f["key"] for f in r["failures"]}
    execs = r["attempted"] // r["n_distinct"] if r["n_distinct"] else 0
    failed = len(failed_keys) * execs
    info = {"samples": len(times), "passes": r["passes"],
            "error_rate": failed / r["attempted"],
            "latency_p90_ms": (percentile(times, 0.9) * 1000.0
                               if len(times) >= 100 else None)}
    for cmd in gen.COMMANDS:
        sub = [t for t, c in zip(times, r["op_command"]) if c == cmd]
        info[f"{cmd}_p50_ms"] = (statistics.median(sub) * 1000.0
                                 if sub else None)
        info[f"{cmd}_ops"] = len(sub)
    metrics = {
        "setup_s": statistics.median(r["setup_samples"]),
        "ops_per_s": len(times) / r["loop_s"],
        "latency_p50_ms": statistics.median(times) * 1000.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    return {"metrics": metrics, "info": info, "failed": failed,
            "correct": all(f["known"] for f in r["failures"])}


def environment(root: str) -> dict:
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "cpu": _cpu_model(), "threads_pinned": {v: "1" for v in THREAD_VARS},
           "source_sha256": _source_digest(root)}
    env["git_commit"] = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=root, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            env["git_commit"] = "unknown (git failed)"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "quasidiff")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def reports_changed(args, digests: dict) -> str:
    """Compare report digests with the previous results file of the same
    workload and seed, then replace it.  Information only."""
    path = os.path.join(".perfbench", "results",
                        f"{args.workload}-seed{args.seed}.json")
    text = "n/a (no previous results file)"
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh).get("digests", {})
        changed = sum(old.get(k) != v for k, v in digests.items())
        text = f"{changed} of {len(digests)} (vs {path})"
    return text


def save(args, record: dict) -> None:
    path = os.path.join(".perfbench", "results",
                        f"{args.workload}-seed{args.seed}"
                        + ("-trace" if args.trace else "") + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def report(args, r: dict, s: dict, changed: str, env: dict) -> None:
    w = args.workload
    print(f"== {w}  seed {args.seed}  (closed loop, 1 client, "
          f"{s['info']['samples']} ops in {r['passes']} passes over "
          f"{r['n_distinct']} distinct ops)")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:44s} {_fmt(r['layers'].get(name, 0)):>12} {unit}")
    else:
        m, info = s["metrics"], s["info"]
        print(f"  {'setup_s':24s} {_fmt(m['setup_s']):>12} s   (median of "
              f"{len(r['setup_samples'])} fresh workers)")
        print(f"  {'ops_per_s':24s} {_fmt(m['ops_per_s']):>12} 1/s")
        print(f"  {'latency_p50_ms':24s} {_fmt(m['latency_p50_ms']):>12} ms  "
              f"({info['samples']} samples)")
        p90 = info["latency_p90_ms"]
        print(f"  {'latency_p90_ms':24s} {_fmt(p90):>12} ms  " +
              (f"({info['samples']} samples)" if p90 is not None
               else "(needs >= 100 ops in a run)"))
        for cmd in gen.COMMANDS:
            print(f"  {cmd + '_p50_ms':24s} {_fmt(info[cmd + '_p50_ms']):>12} "
                  f"ms  ({info[cmd + '_ops']} samples)")
        print(f"  {'error_rate':24s} {_fmt(info['error_rate']):>12} fraction "
              f"({s['failed']} of {r['attempted']} ops)")
        print(f"  {'peak_rss_mb':24s} {_fmt(m['peak_rss_mb']):>12} MB")
    for f in r["failures"]:
        tag = "known seed defect" if f["known"] else "UNEXPECTED"
        print(f"  failed op {f['key']} x{f['executions']}: {f['cause']} "
              f"[{tag}]: {f['detail']}")
    print(f"  redraws: {r['redraws']}   reports_changed: {changed}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, {env['cpu']}, "
          f"BLAS/OpenMP threads 1, commit {env['git_commit']}")


def run_one(args, root: str, env: dict) -> dict:
    r = measure(args, root)
    s = summarize(r)
    changed = reports_changed(args, r["digests"])
    units = PER_LAYER if args.trace else END_TO_END
    values = r["layers"] if args.trace else s["metrics"]
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "info": s["info"],
              "failures": r["failures"], "digests": r["digests"],
              "redraws": r["redraws"], "setup_samples": r["setup_samples"],
              "reports_changed": changed}
    save(args, record)
    report(args, r, s, changed, env)
    return {"correct": s["correct"], "attempted": r["attempted"],
            "failed": s["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        root = checkout_root()
        env = environment(root)
        names = sorted(gen.WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = {}
        for name in names:
            results[name] = run_one(argparse.Namespace(**{**vars(args),
                                                          "workload": name}),
                                    root, env)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
