#!/usr/bin/env python3
"""End-to-end benchmark of the loglog engine.

Builds the engine library from ../src together with the benchmark program
(perfbench_e2e) under the build directory, then runs it.

  python3 perfbench/run.py --workload txn_commit --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seconds 10     # every workload
  python3 perfbench/run.py --selfcheck                     # tiny check run

Workloads: txn_commit, logical_mix, btree_kv (see BENCHMARK.json for why
each exists). --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run (spans are written under the build
directory in traces/). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is
non-zero when a correctness oracle fails or the run cannot complete.

The build directory is $CARGO_TARGET_DIR when set (relative paths are
taken from the repository root), else .bench_build at the root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["txn_commit", "logical_mix", "btree_kv"]
RUN_TIMEOUT_S = 175
SELFCHECK_SECONDS = 0.5


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once and builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: engine sources (src/) not found next to "
                 "perfbench/; run from a full source checkout")
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit("perfbench: build failed (log: %s)" % log)
    return out / "perfbench_e2e"


def run_one(binary, workload, seed, seconds, trace, selfcheck=False):
    """Runs one workload; returns (exit code, parsed result line or None)."""
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", str(traces / ("%s-seed%d.tsv" % (workload, seed)))]
    if selfcheck:
        cmd.append("--selfcheck")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, None
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None and proc.returncode == 0:
        return 1, None
    return proc.returncode, result


def declared_metrics():
    """Metric names BENCHMARK.json declares, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def selfcheck(binary):
    """A short run of every workload, traced and untraced: oracles, trace
    accounting, and every declared metric present."""
    declared = declared_metrics()
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            code, result = run_one(binary, w, 1, SELFCHECK_SECONDS, trace,
                                   selfcheck=trace)
            if code != 0 or result is None or not result.get("correct"):
                print("SELFCHECK FAIL: %s trace=%d (exit %d)" % (w, trace, code))
                ok = False
                continue
            if declared is not None:
                missing = declared[1 if trace else 0] - set(result["metrics"])
                if missing:
                    print("SELFCHECK FAIL: %s trace=%d lacks %s"
                          % (w, trace, sorted(missing)))
                    ok = False
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not a.selfcheck and a.workload is None:
        p.error("--workload is required")
    binary = build()
    if a.selfcheck:
        return selfcheck(binary)
    if a.workload != "all":
        code, _ = run_one(binary, a.workload, a.seed, a.seconds, a.trace)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(binary, w, a.seed, a.seconds, a.trace)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(combined, separators=(",", ":")))
    return worst or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
