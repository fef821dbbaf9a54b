#!/usr/bin/env python3
"""Self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gen
import run
from tracing import LAYER_METRICS

FIXTURES = run.SRC / "strat_euler" / "fixtures"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_bytes_and_calls(self):
        for workload in gen.WORKLOADS:
            files_a, calls_a = gen.build(workload, 3, FIXTURES)
            files_b, calls_b = gen.build(workload, 3, FIXTURES)
            self.assertEqual(files_a, files_b, workload)
            self.assertEqual(calls_a, calls_b, workload)

    def test_different_seed_different_bytes(self):
        for workload in gen.WORKLOADS:
            files_a, _ = gen.build(workload, 3, FIXTURES)
            files_b, _ = gen.build(workload, 4, FIXTURES)
            self.assertNotEqual(files_a, files_b, workload)


class MetricNames(unittest.TestCase):
    def test_spec_matches_the_harness(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}, LAYER_METRICS
        )
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(gen.WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for trace, spec in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
                 "catalog-cli", "--seed", "5", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            for metric in spec:
                name, unit = metric["name"], metric["unit"]
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertTrue(
                    any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines),
                    f"{name} not printed with unit {unit}",
                )
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})


class CorruptedDigest(unittest.TestCase):
    def test_counted_as_a_failed_call(self):
        sys.path.insert(0, str(run.SRC))
        run.OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
        try:
            bench = run.Bench("catalog-cli", 0, workdir)
            bench.write_inputs()
            bench.calls = [c for c in bench.calls if c.kind in ("check", "fubini")][:2]
            for call in bench.calls:
                rc, out, _err, _dt = bench.run_inprocess(call)
                bench.expected[call] = (rc, run.sha256(out))
            _walls, latencies, failed = bench.measure_cli(0)
            self.assertEqual((len(latencies), failed), (2, 0))
            rc, digest = bench.expected[bench.calls[0]]
            bench.expected[bench.calls[0]] = (rc, "0" * len(digest))
            _walls, latencies, failed = bench.measure_cli(0)
            self.assertEqual((len(latencies), failed), (2, 1))
        finally:
            bench.close()
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
