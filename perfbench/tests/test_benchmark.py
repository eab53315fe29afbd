"""Tests of BENCHMARK.json and of the benchmark's output.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The output tests build the benchmark through run.py (the first run
compiles) and run every workload in quick mode, traced and untraced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpecGrammar(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_command_and_paths(self):
        command = self.spec["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for part in command:
            self.assertLessEqual(len(part), 200)
            self.assertFalse(part.startswith("/"))
            self.assertNotIn("..", part.split("/"))
        paths = self.spec["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertNotIn("..", path.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        for part in command[1:]:
            if os.path.exists(os.path.join(ROOT, part)):
                self.assertTrue(any(part == p or part.startswith(p + "/")
                                    for p in paths), part)

    def test_names_units_and_bounds(self):
        names = []
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for workload in workloads:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        end_to_end = self.spec["end_to_end"]
        self.assertTrue(1 <= len(end_to_end) <= 16)
        for metric in end_to_end:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        per_layer = self.spec["per_layer"]
        self.assertTrue(1 <= len(per_layer) <= 128)
        for metric in per_layer:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in end_to_end + per_layer:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "a name is reused")
        setup = [m for m in end_to_end if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in end_to_end))

    def test_file_size(self):
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)


def run_benchmark(workload, trace):
    spec = load_spec()
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "3",
                           "--seconds", "0.2", "--trace", str(trace),
                           "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Output(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.results = {}
        for workload in cls.spec["workloads"]:
            for trace in (0, 1):
                cls.results[workload["name"], trace] = run_benchmark(
                    workload["name"], trace)

    def test_every_metric_is_reported_with_its_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {m["name"]: m["unit"] for m in declared},
                    {k: v["unit"] for k, v in result["metrics"].items()})
                if not trace:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def layer(self, workload, name):
        return self.results[workload, 1]["metrics"][name]["value"]

    def test_layer_contrasts(self):
        self.assertGreater(self.layer("scale64", "cpu.load_stall_frac"),
                           self.layer("light16_writes", "cpu.load_stall_frac"))
        for name in ("mem.skip_frac", "mem.write_share"):
            self.assertGreater(self.layer("light16_writes", name),
                               self.layer("scale64", name))
        for workload in ("paper16", "scale64", "light16_writes"):
            self.assertEqual(self.layer(workload, "sim.engine.sync_frac"), 0)
            self.assertEqual(self.layer(workload, "sim.engine.windows"), 0)
        self.assertGreater(
            self.layer("scale64_sharded", "sim.engine.sync_frac"), 0)
        self.assertGreater(self.layer("paper16", "experiment.alone_runs"), 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
