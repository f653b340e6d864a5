"""One fresh worker process of the benchmark.

It imports quasidiff.cli, writes the workload's problem files, runs one
untimed warm-up op per subcommand and prints READY; run.py times that as
the set-up.  In `setup` mode it then exits.  In `run` mode it runs the
ops in a closed loop with one client, whole passes over the workload
until --seconds have passed (at least two, so every op runs twice), and
then checks every report against its answer and against its repeats.  In
`trace` mode it runs one pass untraced, one traced and one untraced
again, and reports per-layer metrics and the tracing overhead.

    python3 perfbench/worker.py --workload qd-build --seed 1 --seconds 20 \
        --mode run --out .perfbench/tmp/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
T_IMPORT = time.perf_counter()
import quasidiff.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - T_IMPORT

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

OP_TIMEOUT_S = 150


class Runner:
    """Runs ops in this process, or as fresh CLI processes (cli-fixtures)."""

    def __init__(self, workload: str, spans_dir: str):
        self.subprocess = workload == "cli-fixtures"
        self.spans_dir = spans_dir
        self.tracer = None
        self.child_spans: list = []
        self.child_import_s: list = []

    def run(self, op: gen.Op, traced: bool = False) -> dict:
        if self.subprocess:
            return self._run_child(op, traced)
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.op = op.key
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv())
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a crash
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        return {"s": dt, "code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    def _run_child(self, op: gen.Op, traced: bool) -> dict:
        if traced:
            spans = os.path.join(self.spans_dir, "child.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans]
        else:
            cmd = [sys.executable, "-m", "quasidiff.cli"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + op.argv(), capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, "", "timed out"
        dt = time.perf_counter() - t0
        if traced and code is not None:
            with open(spans, encoding="utf-8") as fh:
                data = json.load(fh)
            base = len(self.child_spans)
            for name, a, b, parent, _, attrs in data["spans"]:
                self.child_spans.append([name, a, b,
                                         parent + base if parent >= 0 else -1,
                                         op.key, attrs])
            self.child_import_s.append(data["import_s"])
            os.remove(spans)
        return {"s": dt, "code": code, "stdout": stdout, "stderr": stderr}


def write_files(w: gen.Workload, workdir: str) -> None:
    for op in w.ops + w.warmup:
        if op.text is not None:
            op.file = os.path.relpath(os.path.join(workdir, op.file))
            with open(op.file, "w", encoding="utf-8") as fh:
                fh.write(op.text)


def judge(w: gen.Workload, runs: dict) -> list:
    """Failures per op key: [(key, cause, detail, executions)]."""
    out = []
    for op in w.ops:
        execs = runs[op.key]
        first = execs[0]
        causes = []
        if first["code"] is None:
            causes.append(("raised", first["stderr"].strip().splitlines()[-1]
                           if first["stderr"].strip() else "no output"))
        elif first["code"] != 0:
            causes.append(("exit", f"exit {first['code']} on a valid input: "
                                   f"{first['stderr'].strip()[:200]}"))
        else:
            causes += oracle.check_report(op.answer, first["stdout"])
        if any((e["code"], e["stdout"]) != (first["code"], first["stdout"])
               for e in execs[1:]):
            causes.append(("nondeterministic",
                           "report differs from its repeat"))
        for cause, detail in causes:
            out.append({"key": op.key, "cause": cause, "detail": detail,
                        "executions": len(execs),
                        "known": cause in oracle.KNOWN_CAUSES})
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    workdir = os.path.join(".perfbench", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _work(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _work(args, workdir: str) -> int:
    w = gen.WORKLOADS[args.workload](args.seed)
    write_files(w, workdir)
    runner = Runner(args.workload, workdir)
    for op in w.warmup:
        runner.run(op)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runs: dict = {op.key: [] for op in w.ops}
    times, commands = [], []
    passes = 0
    t_loop = time.perf_counter()
    while True:
        for op in w.ops:
            r = runner.run(op)
            runs[op.key].append(r)
            times.append(r["s"])
            commands.append(op.command)
        passes += 1
        elapsed = time.perf_counter() - t_loop
        if args.mode == "trace" or (passes >= 2 and elapsed >= args.seconds):
            break

    result = {"import_s": IMPORT_S, "passes": passes, "loop_s": elapsed,
              "op_s": times, "op_command": commands,
              "redraws": w.redraws, "n_distinct": len(w.ops)}
    if args.mode == "trace":
        t = tracing.Tracer()
        runner.tracer = t
        t.install()
        traced_s = 0.0
        try:
            for op in w.ops:
                r = runner.run(op, traced=True)
                runs[op.key].append(r)
                traced_s += r["s"]
        finally:
            t.uninstall()
        # a second untraced pass after the traced one, so that drift
        # during the run does not read as tracing overhead
        again_s = 0.0
        for op in w.ops:
            r = runner.run(op)
            runs[op.key].append(r)
            again_s += r["s"]
        spans = runner.child_spans if runner.subprocess else t.dump()
        layers = tracing.layer_metrics(spans, traced_s)
        imports = runner.child_import_s or [IMPORT_S]
        layers["cli.import_s"] = sorted(imports)[len(imports) // 2]
        untraced_s = (sum(times) + again_s) / 2
        layers["trace.op_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        if runner.subprocess:
            # each child's import runs before its tracer is installed
            layers["trace.share_import"] = sum(imports) / untraced_s
        result["layers"] = layers
        with open(os.path.join(".perfbench", f"spans-{args.workload}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner.subprocess
                               else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["failures"] = judge(w, runs)
    result["digests"] = {op.key: digest(runs[op.key][0]["stdout"])
                         for op in w.ops}
    result["attempted"] = sum(len(v) for v in runs.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
