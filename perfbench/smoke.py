"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload (those of BENCHMARK.json and the unlisted build-o48)
for about a second, untraced once and traced twice, and checks that each
result line names every metric of BENCHMARK.json with its unit, reports
correct outputs and zero failed operations, and that the two traced runs
repeat every count exactly.  It also checks that the benchmark refuses to
run without the package's source.  Nothing here asserts a speed.  Takes
about four minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        proc = run(BENCH.parent, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stderr[-2000:])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0, proc.stderr[-2000:])
        return result

    def test_every_workload_names_every_metric(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.result(workload, trace)["metrics"]
                    self.assertEqual({name: m["unit"] for name, m in metrics.items()},
                                     {m["name"]: m["unit"] for m in SPEC[kind]})
                    if trace:
                        again = self.result(workload, trace)["metrics"]
                        counts = [m["name"] for m in SPEC[kind] if m["unit"] in ("count", "bits")]
                        self.assertEqual({n: metrics[n]["value"] for n in counts},
                                         {n: again[n]["value"] for n in counts})

    def test_refuses_without_source(self):
        bare = BENCH / "runs" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "traces", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        try:
            proc = run(bare, SPEC["workloads"][0]["name"], 0)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
