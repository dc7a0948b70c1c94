#!/usr/bin/env python3
"""The wsnex benchmark: one command per measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the product and the
C++ benchmark program, wsnex_bench, from source (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload in a fresh
wsnex_bench process, prints every metric with its unit, and ends with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json
(job_latency_p50_ms and job_latency_p95_ms are printed too but left out:
on a shared 4-vCPU host they follow how fast the host wakes idle threads
and drift by more than any allowed bound), with --trace 1 the per_layer
list (plus the ledger, printed above the JSON; the
spans are kept in $CARGO_TARGET_DIR/perfbench-cmake/spans-NAME.jsonl).
Workloads, metric definitions and output checks are documented at the top
of the sources in perfbench/src/.

Exit status: 0 after a run (correct or not, see "correct"); 1 when the
build or wsnex_bench fails; 2 on bad arguments or a missing source tree.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench-cmake"


def build():
    """Configures once and builds wsnex_bench and the wsnex CLI; returns
    their paths. Build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no wsnex source tree at {ROOT}")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "wsnex_bench", "wsnex"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(1)
    return out / "wsnex_bench", out / "wsnex" / "tools" / "wsnex"


def die_with_parent():
    """Child side: get SIGKILL when this script dies (PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


def run_bench(args):
    """Runs one measured run; returns wsnex_bench's stdout lines."""
    return run_bench_command(
        ["run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
        + (["--tiny"] if args.tiny else []))


def run_bench_command(arguments):
    bench, wsnex = build()
    work = build_dir() / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    command = [str(bench)] + arguments
    if arguments[0] == "run":
        command += ["--work-dir", str(work), "--wsnex", str(wsnex)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S, check=False,
                              preexec_fn=die_with_parent)
        # A traced run's spans (one JSON object per line) outlive the run.
        if (work / "spans.jsonl").is_file():
            shutil.copyfile(work / "spans.jsonl",
                            build_dir() / f"spans-{arguments[2]}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        log(f"perfbench: wsnex_bench exited with {done.returncode}")
        sys.exit(1)
    return lines


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign_nsga2", "campaign_mosa",
                                 "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    lines = run_bench(args)
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    names = metric_names(args.trace)
    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        log(f"perfbench: wsnex_bench did not report {', '.join(missing)}")
        sys.exit(1)
    metrics = {n: raw["metrics"][n] for n in names}
    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in raw["metrics"].items():
        if name not in metrics:
            print(f"  {name} = {m['value']:.6g} {m['unit']} (reported, "
                  f"not in BENCHMARK.json)")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"  ops_failed_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": raw["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
