#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
                                  [--workload NAME ...] [--write]

For every workload, runs `perfbench/run.py --trace 0` once per seed and
reports, per end-to-end metric, the median and quartiles of the runs
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged (setup_s excepted: its bound limits drift of the median, not the
spread). With --write the summary, with provenance, replaces
perfbench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def provenance():
    sys.path.insert(0, str(BENCH_DIR))
    import run  # pylint: disable=import-outside-toplevel
    facts = json.loads(run.run_bench_command(["provenance"])[-1])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, check=False)
    facts["commit"] = commit.stdout.strip() or "unknown"
    return facts


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workload or names:
        runs = [run_once(workload, args.first_seed + k, spec["run_seconds"])
                for k in range(args.runs)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} "
              f"operations failed")
        rows = {}
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = meta["bound"] / 3
            flag = ""
            if name != "setup_s" and spread > limit:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:20s} median {med:12.6g} {meta['unit']:5s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"(bound {meta['bound']:.0%}){flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
            rows[name] = {"unit": meta["unit"], "median": med, "q1": q1,
                          "q3": q3, "spread": spread, "values": values}
        summary[workload] = {"seeds": [args.first_seed + k
                                       for k in range(args.runs)],
                             "attempted": attempted, "failed": failed,
                             "metrics": rows}
    if args.write:
        out = {"provenance": provenance(),
               "run_seconds": spec["run_seconds"],
               "workloads": summary}
        (BENCH_DIR / "baseline.json").write_text(
            json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
