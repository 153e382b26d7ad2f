"""Tests of the PB-SC benchmark itself, on the tiny workload sizes.

    python3 -m unittest discover -s pbsc_bench -p 'test_*.py'

Run from the repository root; the first test builds the benchmark.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402
import run as R  # noqa: E402

LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \((lower|higher) is better\)$")


def run_tiny(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--tiny"], cwd=R.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    def test_benchmark_json_matches_definitions(self):
        spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["workloads"],
                         [{"name": w.name, "why": w.why}
                          for w in M.WORKLOADS])
        self.assertEqual(
            spec["end_to_end"],
            [{"name": m.name, "unit": m.unit, "better": m.better,
              "bound": m.bound} for m in M.END_TO_END])
        self.assertEqual(
            spec["per_layer"],
            [{"name": m.name, "unit": m.unit, "better": m.better}
             for m in M.PER_LAYER])
        e2e = {m.name for m in M.END_TO_END}
        for m in M.PER_LAYER:
            for metric, workload in m.moves:
                self.assertIn(metric, e2e, m.name)
                self.assertIn(workload, M.ALL_WORKLOADS, m.name)
        readme = (HERE / "README.md").read_text()
        for name in M.ALL_WORKLOADS + [m.name for m in M.END_TO_END +
                                       M.PER_LAYER]:
            self.assertIn(f"`{name}`", readme)

    def check_printed(self, lines, result, defs):
        printed = {}
        for line in lines:
            match = LINE.match(line)
            if match:
                printed[match.group(1)] = (match.group(3), match.group(4))
        for m in defs:
            self.assertEqual(printed.get(m.name), (m.unit, m.better), m.name)
            self.assertEqual(result["metrics"][m.name]["unit"], m.unit)
        self.assertEqual(set(result["metrics"]), {m.name for m in defs})

    def test_end_to_end_metrics_printed_and_deterministic(self):
        for workload in M.ALL_WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run_tiny(workload, 7, 0) for _ in range(2)]
                for code, lines, result in runs:
                    self.assertEqual(code, 0, "\n".join(lines))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_printed(lines, result, M.END_TO_END)
                    self.assertTrue(any(line.startswith("provenance ")
                                        for line in lines))
                first, second = (r[2]["metrics"] for r in runs)
                for name in ("quality", "assigned", "expired_share"):
                    self.assertEqual(first[name], second[name], name)

    def test_traced_run_spans_nest(self):
        for workload in M.ALL_WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run_tiny(workload, 3, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.check_printed(lines, result, M.PER_LAYER)
                spans = json.loads(
                    (R.BUILD_DIR / "spans" / f"{workload}-seed3.json")
                    .read_text())
                self.assertTrue(spans)
                children = {}
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    if s["parent"] >= 0:
                        parent = spans[s["parent"]]
                        self.assertGreaterEqual(s["start_ns"],
                                                parent["start_ns"])
                        self.assertLessEqual(s["end_ns"], parent["end_ns"])
                        children[s["parent"]] = children.get(
                            s["parent"], 0) + s["end_ns"] - s["start_ns"]
                for parent, total in children.items():
                    p = spans[parent]
                    self.assertLessEqual(total, p["end_ns"] - p["start_ns"],
                                         p["name"])

    def test_refuses_without_library_sources(self):
        bare = R.ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(R.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             M.ALL_WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
