"""Self-tests of the benchmark, on the tiny smoke workloads.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the first test to run builds the program.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import build  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "metrics.json")) as f:
    DOCS = json.load(f)


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    r = subprocess.run([sys.executable, script, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), *extra],
                       cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if r.returncode == 0 and lines else None), r


def out_file(*parts):
    return os.path.join(ROOT, build.out_dir(), *parts)


class SpecTest(unittest.TestCase):
    def test_every_metric_and_workload_is_documented(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(names), set(DOCS["metrics"]))
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(DOCS["workloads"]))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])
        self.assertTrue(all(m["bound"] <= 0.25 for m in SPEC["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, seed=1):
        code, res, r = bench(workload, seed, trace)
        self.assertEqual(code, 0, r.stderr[-2000:])
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in want])
        for m in want:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def test_untraced_runs_print_the_end_to_end_metrics(self):
        for w in ("smoke-serial", "smoke-engine"):
            res = self.check_run(w, 0)
            for m in SPEC["end_to_end"]:
                self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_runs_have_non_negative_self_times(self):
        for w in ("smoke-serial", "smoke-engine"):
            res = self.check_run(w, 1)
            with open(out_file("traces", f"{w}-seed1.jsonl")) as f:
                spans = [json.loads(line) for line in f]
            self.assertTrue(spans)
            ids = {s["id"] for s in spans}
            for s in spans:
                self.assertGreaterEqual(s["self_ns"], 0, s)
                self.assertLessEqual(s["self_ns"], s["end_ns"] - s["start_ns"], s)
                self.assertTrue(s["parent"] == -1 or s["parent"] in ids, s)
            for m in SPEC["per_layer"]:
                if m["unit"] == "ms" and not m["name"].endswith("other_ms"):
                    self.assertGreaterEqual(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_engine_trace_splits_each_run_into_spark_jobs(self):
        self.check_run("smoke-engine", 1)
        with open(out_file("traces", "smoke-engine-seed1.jsonl")) as f:
            spans = [json.loads(line) for line in f]
        runs = [s["id"] for s in spans if s["name"] == "gthinker.run"]
        self.assertTrue(runs)
        for r in runs:
            kids = [s["name"] for s in spans if s["parent"] == r]
            self.assertEqual(kids.count("gthinker.spawn"), 1, kids)
            self.assertEqual(kids.count("gthinker.prelude"), 1, kids)
            self.assertEqual(kids.count("gthinker.post"), 1, kids)
            self.assertGreaterEqual(kids.count("gthinker.round"), 1, kids)
            self.assertEqual(kids.count("gthinker.driver"), kids.count("gthinker.round"), kids)

    def test_exact_counts_repeat_across_seeds(self):
        exact = []
        for seed in (1, 2):
            self.check_run("smoke-serial", 1, seed)
            with open(out_file("runs", f"smoke-serial-seed{seed}-trace1.json")) as f:
                exact.append(json.load(f)["exact"])
        self.assertEqual(exact[0], exact[1])
        self.assertIn("candidates", exact[0])


class GateTest(unittest.TestCase):
    def test_a_corrupted_answer_is_caught(self):
        for w in ("smoke-serial", "smoke-engine"):
            code, res, r = bench(w, 1, 0, "--corrupt-answers")
            self.assertEqual(code, 0, r.stderr[-2000:])
            self.assertFalse(res["correct"])
            self.assertEqual(res["failed"], res["attempted"])

    def test_no_result_without_the_program(self):
        bare = out_file("selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, res, r = bench("smoke-serial", cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
