"""Quick test of the benchmark itself: python3 bench/selftest.py

Runs every workload on tiny inputs through the same measuring code, and
shows that the checks reject a flipped pair, a non-optimal dimension and a
duplicated isomorphism class.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import checks
import run
from checks import CheckError
from spans import NullTracer, Tracer
from workloads import ClassSweep, CoverCorpus, VerifyReps

TINY = {
    "verify-reps": {"generic_n": 8, "structured_n": 24},
    "cover-corpus": {"sizes": range(6, 8), "per_cell": 2},
    "class-sweep": {"n_max": 5},
}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        run.OUT.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        cls.tg, cls.cli = run.load_package()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def build(self, cls, seed=3):
        return cls(self.tg, self.cli, seed, self.workdir, **TINY[cls.name])

    def test_every_workload_reports_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(TINY))
        for trace, table, key in ((False, run.END_TO_END, "end_to_end"), (True, run.PER_LAYER, "per_layer")):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, table)
            for name in TINY:
                workload, times = run.setup(name, 5, self.workdir, **TINY[name])
                resetup = None if trace else lambda: run.set_up(name, 5, self.workdir, **TINY[name])[1]
                result = run.measure(workload, times, 0, trace, resetup=resetup)
                self.assertEqual(len(times), run.SETUPS + (not trace), name)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(table), name)
                self.assertEqual(result["failed"], 2 if name == "cover-corpus" else 0, name)
                if not trace:
                    self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), name)

    def test_flipped_pair_is_rejected(self):
        workload = self.build(VerifyReps)
        outputs = workload.run_round(NullTracer()).outputs
        workload.check(outputs)
        command, label, rc, text = outputs[0]
        report = json.loads(text)
        self.assertTrue(report["valid"])
        report["violations"].append({"u": 0, "v": 1, "dot": "0/1", "expected": "edge: dot >= t"})
        bad = [(command, label, 1, json.dumps({**report, "valid": False}))] + outputs[1:]
        with self.assertRaisesRegex(CheckError, "adds pairs"):
            workload.check(bad)
        case = workload.cases[0]
        flipped = case.edges ^ {(0, 1)}
        with self.assertRaises(CheckError):
            checks.check_verify_report(report, 0, case.valid, flipped, "flipped")

    def test_non_optimal_dimension_is_rejected(self):
        workload = self.build(CoverCorpus)
        outputs = workload.run_round(NullTracer()).outputs
        workload.check(outputs)
        for i, (label, result, valid) in enumerate(outputs[: len(workload.graphs)]):
            g = self.tg.Graph(*next((n, e) for lab, n, e, _ in workload.graphs if lab == label))
            star = self.tg.star_cover(g)
            if len(star.parts) > result.rho_max_plus:
                break
        else:
            self.fail("no corpus graph whose star cover is larger than its cover number")
        worse = dataclasses.replace(
            result,
            rho_max_plus=len(star.parts),
            witness_max_plus=self.tg.maxplus_from_cover(g, star),
        )
        self.assertTrue(self.tg.verify(g, worse.witness_max_plus).valid)
        with self.assertRaisesRegex(CheckError, "independent value"):
            workload.check(outputs[:i] + [(label, worse, valid)] + outputs[i + 1:])

    def test_duplicated_class_is_rejected(self):
        workload = self.build(ClassSweep)
        report, classes, sweep = workload.run_round(NullTracer()).outputs
        workload.check([report, classes, sweep])
        twin = classes[-2].relabel(list(reversed(range(workload.n_max))))
        with self.assertRaisesRegex(CheckError, "isomorphic"):
            workload.check([report, classes[:-1] + [twin], sweep])
        with self.assertRaises(CheckError):
            checks.check_distinct_classes([(4, {(0, 1), (1, 2)}), (4, {(2, 3), (1, 2)})], "paths")

    def test_independent_cover_number(self):
        path6 = {(i, i + 1) for i in range(5)}
        self.assertEqual(checks.cover_number(6, path6), 3)
        self.assertEqual(checks.cover_number(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), 2)
        self.assertEqual(checks.cover_number(4, {(0, 1), (0, 2), (0, 3), (1, 2)}), 1)
        self.assertIsNotNone(checks.forbidden_quad(4, {(0, 1), (2, 3)}))

    def test_traced_run_attributes_rho(self):
        workload = self.build(CoverCorpus)
        tracer, counts = Tracer(), Counter()
        outputs = workload.run_round(tracer).outputs
        workload.attribute(tracer, outputs, counts)
        self.assertEqual(counts["solves"], 2 * len(workload.graphs))
        self.assertGreaterEqual(counts["decisions"], counts["solves"])
        self.assertEqual(len(tracer.durations("verify.rho")), len(outputs))
        self.assertGreater(tracer.self_times()["threshold"], 0)

    def test_bare_directory_fails_without_result(self):
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cover-corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
