#!/usr/bin/env python3
"""The benchmark's own test: BENCHMARK.json and the emitted result lines
must follow the output contract, malformed output must be rejected, and a
wrong answer must fail the run.

    python3 perfbench/test_contract.py            # everything (~3 minutes)
    PERFBENCH_SKIP_RUNS=1 python3 perfbench/test_contract.py   # format only

The end-to-end cases build the benchmark (like run.py) and run each
workload briefly.
"""

import copy
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import contract  # noqa: E402

ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def good_result(spec, trace):
    metrics = {name: {"value": 1.25, "unit": unit}
               for name, unit in contract.expected_metrics(spec, trace).items()}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = contract.load_spec(SPEC_PATH)

    def test_spec_follows_contract(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         {"q16_server", "q4_write_server", "q16_router"})

    def test_rejects_bad_specs(self):
        def drop_setup(spec):
            spec["end_to_end"] = [m for m in spec["end_to_end"]
                                  if m["name"] != "setup_s"]

        mutations = [
            lambda spec: spec.update(extra=1),
            lambda spec: spec["end_to_end"][0].update(bound=0.5),
            drop_setup,
            lambda spec: spec.update(workloads=spec["workloads"][:1]),
            lambda spec: spec["per_layer"][0].update(unit="m s"),
            lambda spec: spec.update(command=["python3", "/abs/run.py"]),
            lambda spec: spec.update(run_seconds=61),
            lambda spec: spec["per_layer"].append(dict(spec["per_layer"][0])),
        ]
        raw = json.loads(SPEC_PATH.read_text())
        tmp = ROOT / ".bench_build"
        tmp.mkdir(exist_ok=True)
        path = tmp / f"perfbench-spec-{os.getpid()}.json"
        try:
            for mutate in mutations:
                spec = copy.deepcopy(raw)
                mutate(spec)
                path.write_text(json.dumps(spec))
                with self.assertRaises(contract.ContractError):
                    contract.load_spec(path)
        finally:
            path.unlink(missing_ok=True)


class ResultFormatTest(unittest.TestCase):
    def setUp(self):
        self.spec = contract.load_spec(SPEC_PATH)

    def assert_rejected(self, result, trace=0):
        line = result if isinstance(result, str) else json.dumps(result)
        with self.assertRaises(contract.ContractError):
            contract.check_result(line, self.spec, trace)

    def test_accepts_well_formed(self):
        for trace in (0, 1):
            contract.check_result(json.dumps(good_result(self.spec, trace)),
                                  self.spec, trace)

    def test_rejects_malformed(self):
        base = good_result(self.spec, 0)
        name = next(iter(base["metrics"]))

        def surplus(r):
            r["metrics"]["surplus_ms"] = {"value": 1, "unit": "ms"}

        mutations = [
            lambda r: r.update(extra=0),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=1.5),
            lambda r: r.update(correct="yes"),
            lambda r: r["metrics"].pop(name),
            surplus,
            lambda r: r["metrics"][name].update(unit="h"),
            lambda r: r["metrics"][name].update(value="1"),
            lambda r: r["metrics"][name].update(value=True),
            lambda r: r["metrics"].update({name: 1.0}),
        ]
        for mutate in mutations:
            bad = copy.deepcopy(base)
            mutate(bad)
            self.assert_rejected(bad)
        self.assert_rejected("not json")
        self.assert_rejected('{"correct": true}')
        self.assert_rejected(json.dumps(base).replace("1.25", "NaN", 1))
        # End-to-end metrics in a traced result are wrong, and vice versa.
        self.assert_rejected(base, trace=1)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_RUNS"), "runs skipped")
class BenchmarkRunTest(unittest.TestCase):
    """Runs the real benchmark briefly and checks what it prints."""

    @classmethod
    def setUpClass(cls):
        cls.spec = contract.load_spec(SPEC_PATH)
        import run
        run.build()

    def run_bench(self, *args):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        return proc.returncode, proc.stdout.splitlines()

    def test_every_workload_emits_contract_output(self):
        for workload in ("q16_server", "q4_write_server", "q16_router"):
            code, lines = self.run_bench("--workload", workload, "--seed", "3",
                                         "--seconds", "2", "--trace", "0")
            self.assertEqual(code, 0, workload)
            result = contract.check_result(lines[-1], self.spec, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_traced_run_shows_each_split(self):
        shares = {}
        for workload in ("q16_server", "q4_write_server"):
            code, lines = self.run_bench("--workload", workload, "--seed", "3",
                                         "--seconds", "4", "--trace", "1")
            self.assertEqual(code, 0, workload)
            result = contract.check_result(lines[-1], self.spec, 1)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            self.assertGreater(m["cluster.fabric_overhead_ms"], 0)
            shares[workload] = (m["core.filter_share"],
                                m["isomorphism.verify_share"])
        filter_share, verify_share = shares["q16_server"]
        self.assertGreater(filter_share, verify_share)
        filter_share, verify_share = shares["q4_write_server"]
        self.assertGreater(verify_share, filter_share)

    def test_wrong_answer_fails_the_run(self):
        proc = subprocess.run(
            [str(ROOT / ".bench_build" / "cmake" / "pisbench"), "--workload",
             "q16_server", "--seed", "3", "--seconds", "1", "--trace", "0",
             "--work_dir", ".bench_build/runs", "--corrupt_oracle"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
