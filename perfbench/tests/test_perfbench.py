#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests

Builds wsnex_bench through perfbench/run.py (as a measured run would) and
checks: the generator is deterministic per seed, metric names and units
are well formed, percentiles carry their sample count and the trace
ledger adds up (wsnex_bench selftest), and a tiny-size run of every workload,
untraced and traced, reports every listed metric with no failed
operation.
"""

import io
import json
import re
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  pylint: disable=wrong-import-position

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class GeneratorTest(unittest.TestCase):
    def corpus(self, workload, seed):
        return "\n".join(run.run_bench_command(
            ["corpus", "--workload", workload, "--seed", str(seed)]))

    def test_same_seed_same_bytes_other_seed_differs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.corpus(workload, 7)
                self.assertEqual(first, self.corpus(workload, 7))
                self.assertNotEqual(first, self.corpus(workload, 8))

    def test_corpus_sizes_fixed_across_seeds(self):
        # Budgets and ward sizes are fixed per slot; only the remaining
        # dimensions are drawn from the seed.
        def shape(workload, seed):
            items = json.loads(self.corpus(workload, seed))
            if workload == "serve_mixed":
                return [(j.get("kind", "campaign"), len(j["scenarios"]),
                         j["scenarios"][0]["node_count"]
                         if j.get("kind") == "validation" else 0)
                        for j in items]
            return [(s["node_count"], s["optimizer"]["population"],
                     s["optimizer"]["generations"],
                     s["optimizer"]["iterations"]) for s in items]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(shape(workload, 1), shape(workload, 2))


class NamesTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])


class SelfTest(unittest.TestCase):
    def test_percentile_and_ledger(self):
        lines = run.run_bench_command(["selftest"])
        self.assertEqual(lines[-1], "selftest: ok", "\n".join(lines))


class SmokeTest(unittest.TestCase):
    def smoke(self, workload, trace):
        out = io.StringIO()
        with redirect_stdout(out):
            run.main(["--workload", workload, "--seed", "3", "--seconds",
                      "0.5", "--trace", str(trace), "--tiny"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], out.getvalue())
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result, out.getvalue()

    def test_workloads_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.smoke(workload, 0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_workloads_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, text = self.smoke(workload, 1)
                self.assertIn("unaccounted", text)
                self.assertIn("tracing overhead", text)
                self.assertGreater(result["metrics"]["model.designs"]["value"],
                                   0)


if __name__ == "__main__":
    unittest.main()
