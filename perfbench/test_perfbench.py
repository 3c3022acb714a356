#!/usr/bin/env python3
"""Self-tests of the benchmark, at reduced size.

Run from the root of the repository:  python3 perfbench/test_perfbench.py

Each workload runs once untraced and once traced with --small. The tests
check that the concurrent clients' answers equal the single-client replay's,
that the printed metrics are exactly BENCHMARK.json's with valid names and
units, that the traced stage means plus mediator.overhead_us add up to the
traced mean query time, and that the benchmark refuses to run without the
library sources next to it.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STAGES = ["mediator.fragment_us", "mediator.source_execution_us",
          "mediator.privacy_control_us", "mediator.integrate_us",
          "mediator.record_us", "mediator.warehouse_lookup_us"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_small(workload, trace):
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (workload, done.returncode, done.stderr))
    lines = done.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        for key, value in re.findall(r"(\w+)=(\S+)", line):
            info.setdefault(line.split()[1] + "." + key, value)
    return json.loads(lines[-1]), info


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.spec = load_spec()
        cls.results = {}
        for workload in [w["name"] for w in cls.spec["workloads"]]:
            for trace in (0, 1):
                cls.results[(workload, trace)] = run_small(workload, trace)

    def test_concurrent_answers_equal_single_client_replay(self):
        for (workload, trace), (result, info) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(info["timed.digest"], info["replay.digest"])
                self.assertEqual(info["timed.refused"], info["replay.refused"])

    def test_metrics_match_benchmark_json(self):
        for (workload, trace), (result, _) in self.results.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for metric in declared:
                    printed = result["metrics"][metric["name"]]
                    self.assertRegex(metric["name"], NAME)
                    self.assertRegex(printed["unit"], UNIT)
                    self.assertEqual(printed["unit"], metric["unit"])
                    self.assertIsInstance(printed["value"], (int, float))

    def test_stage_means_plus_overhead_equal_query_time(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            metrics = self.results[(workload, 1)][0]["metrics"]
            total = sum(metrics[name]["value"] for name in STAGES)
            total += metrics["mediator.overhead_us"]["value"]
            with self.subTest(workload=workload):
                self.assertGreater(metrics["mediator.answered"]["value"], 0)
                self.assertAlmostEqual(total, metrics["mediator.query_us"]["value"],
                                       delta=1e-6 * metrics["mediator.query_us"]["value"])

    def test_refuses_to_run_without_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(self.spec["command"] + ["--workload", "wide-integrate",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
