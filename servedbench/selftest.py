"""The benchmark's own tests.  Run from the repository root::

    python3 servedbench/selftest.py

Runs every workload at ``--tiny`` size, traced and untraced, and checks
that each prints every metric of ``BENCHMARK.json`` with its unit, that a
corrupted expected answer fails the run, and that the benchmark refuses
to run where the program's sources are missing.  About a minute.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from oracles import three_colourable  # noqa: E402
from run import nearest_rank  # noqa: E402
from workloads import WORKLOADS, FleetCatalog  # noqa: E402

BENCHMARK = spec.load()


def bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "servedbench/run.py", "--seed", "3", "--seconds",
         "1.5", "--tiny", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(output: str):
    lines = output.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


class SpecTest(unittest.TestCase):

    def test_names_units_and_bounds_are_well_formed(self):
        document = BENCHMARK
        names = [metric["name"] for key in ("end_to_end", "per_layer")
                 for metric in document[key]]
        names += [workload["name"] for workload in document["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for workload in document["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertTrue(workload["why"].isascii())
        for metric in document["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in document["end_to_end"]])
        for workload in document["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)

    def test_every_per_layer_metric_has_a_layer_map_row(self):
        self.assertEqual(sorted(spec.LAYER_MAP),
                         sorted(metric["name"] for metric in BENCHMARK["per_layer"]))


class OracleTest(unittest.TestCase):

    def test_three_colouring(self):
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        self.assertFalse(three_colourable(4, k4))
        self.assertTrue(three_colourable(5, [(i, (i + 1) % 5) for i in range(5)]))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(nearest_rank(values, 90.0), 90)
        self.assertEqual(nearest_rank(values, 99.0), 99)
        self.assertEqual(nearest_rank([7.0], 99.0), 7.0)

    def test_fleet_rewrites_follow_only_registered_versions(self):
        workload = FleetCatalog(3, tiny=True)
        for put in workload.setup_requests():
            workload.observe(put, {"fingerprint": f"fp{put.tenant}"})
        tenants = {tenant.schema_text: tenant for tenant in workload.tenants}
        registered = {tenant.index: (f"fp{tenant.index}", tenant.text)
                      for tenant in workload.tenants}
        stream = workload.stream(0)
        puts = 0
        for request in itertools.islice(stream, 3 * workload.write_every):
            if request.write:
                # The first put fails (is never observed); the second
                # succeeds and becomes its tenant's latest version.
                puts += 1
                if puts == 2:
                    workload.observe(request, {"fingerprint": f"new{puts}"})
                    registered[request.tenant] = (f"new{puts}",
                                                  request.context[0])
                continue
            tenant = tenants[request.record["schema"]]
            self.assertEqual((request.record["catalog_fp"], request.context),
                             registered[tenant.index])
        self.assertEqual(puts, 3)


class RunTest(unittest.TestCase):

    def check_run(self, workload: str, trace: int) -> None:
        completed = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(completed.returncode, 0, completed.stderr[-3000:])
        result = last_json(completed.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual({name: metric["unit"]
                          for name, metric in result["metrics"].items()},
                         {metric["name"]: metric["unit"] for metric in expected})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertIn(name, completed.stdout.split("{")[0])

    def test_served_warm(self):
        self.check_run("served_warm", 0)

    def test_served_cold(self):
        self.check_run("served_cold", 0)

    def test_fleet_catalog(self):
        self.check_run("fleet_catalog", 0)

    def test_served_warm_traced(self):
        self.check_run("served_warm", 1)

    def test_served_cold_traced(self):
        self.check_run("served_cold", 1)

    def test_fleet_catalog_traced(self):
        self.check_run("fleet_catalog", 1)

    def test_corrupted_expected_answer_fails_the_run(self):
        completed = bench("--workload", "served_cold", "--trace", "0",
                          "--corrupt")
        self.assertNotEqual(completed.returncode, 0)
        self.assertFalse(last_json(completed.stdout)["correct"])
        self.assertIn("WRONG ANSWER", completed.stderr)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".servedbench" / f"selftest-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "servedbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            completed = bench("--workload", "served_warm", "--trace", "0",
                              cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertIsNone(last_json(completed.stdout))


if __name__ == "__main__":
    unittest.main(verbosity=2)
