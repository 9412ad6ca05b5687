"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))


def traced_counters(name: str, seed: int) -> dict:
    """Counters and ratios of one traced pass over round 0."""
    workload = workloads.WORKLOADS[name]()
    workload.load()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(workload.make_round(seed, 0)):
            _, result = run.run_op(workload, op, tracer, i)
            assert run.check(workload, op, result) is None
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.summary()])
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


class DeterministicCounters(unittest.TestCase):
    def test_same_seed_same_counters(self):
        expected_nonzero = {
            "cli_corpus": ["cli.main.calls", "specparse.tokens", "polynomials.poly2_gcd.calls"],
            "restrict_highdeg": ["polynomials.berlekamp.modular_factors", "curverestrict.records"],
            "mordell_search": ["mordell.is_p_full.calls", "mordell.points_found"],
            "symdiff_exhaustive": ["symdiff.multi_indices_checked", "symdiff.decompositions_checked"],
        }
        for name, keys in expected_nonzero.items():
            with self.subTest(workload=name):
                first = traced_counters(name, 7)
                self.assertEqual(first, traced_counters(name, 7))
                for key in keys:
                    self.assertGreater(first[key], 0, key)

    def test_criterion_6_grid_count(self):
        counters = traced_counters("symdiff_exhaustive", 3)
        self.assertEqual(counters["symdiff.check_positive_floor.calls"], 105)
        self.assertEqual(counters["symdiff.multi_indices_checked"], 22179)

    def test_grid_round_covers_every_ordering(self):
        """The round's non-decreasing mults stand for all 426 orderings of
        the criterion-6 grid: together they check its 123785 multi-indices."""
        from collections import Counter
        from itertools import product

        import oracles

        ops = workloads.SymdiffExhaustive().make_round(3, 0)
        grid = {op.args for op in ops if op.kind == "positive_floor"}
        orderings = Counter(
            (p, q, tuple(sorted(mults)))
            for p in range(1, 5)
            for q in range(1, p + 1)
            for mults in product((2, 3, 4), repeat=p)
        )
        self.assertEqual(set(orderings), grid)
        self.assertEqual(sum(orderings.values()), 426)
        total = sum(n * oracles.multi_index_count(*args, extra=2) for args, n in orderings.items())
        self.assertEqual(total, 123785)

    def test_tracing_leaves_the_program_unwrapped(self):
        traced_counters("mordell_search", 1)
        import orbpairs.mordell as mordell

        self.assertEqual(mordell.is_p_full.__module__, "orbpairs.mordell")
        self.assertEqual(mordell.search_points.__qualname__, "search_points")


class MetricNames(unittest.TestCase):
    def run_bench(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli_corpus",
             "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        return result["metrics"]

    def test_printed_names_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                printed = {k: v["unit"] for k, v in self.run_bench(trace).items()}
                declared = {m["name"]: m["unit"] for m in BENCH[section]}
                self.assertEqual(printed, declared)

    def test_design_record_matches(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        self.assertEqual(sorted(names), sorted(DESIGN["workloads"]))
        mapped = [m for layer in DESIGN["layers"] for m in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in BENCH["per_layer"]))
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for layer in DESIGN["layers"]:
            self.assertLessEqual(set(layer["should_move"]), end_to_end)
            self.assertLessEqual(set(layer["should_not_move_on"]), set(names))


class OraclesRejectWrongOutputs(unittest.TestCase):
    """A faster but wrong program must fail, so each oracle must notice a
    plausible wrong answer."""

    def first(self, name: str, kind: str | None = None):
        workload = workloads.WORKLOADS[name]()
        workload.load()
        ops = [op for op in workload.make_round(2, 0) if kind is None or op.kind == kind]
        op = min(ops, key=lambda o: str(o.args))
        result = workload.run(op)
        self.assertIsNone(workload.check(op, result))
        return workload, op, result

    def test_cli(self):
        workload, op, (code, out) = self.first("cli_corpus")
        self.assertIsNotNone(workload.check(op, (code, out + " ")))
        self.assertIsNotNone(workload.check(op, (1, out)))

    def test_restrict_dropped_or_merged_factor(self):
        workload = workloads.RestrictHighdeg()
        workload.load()
        for op in workload.make_round(2, 0):
            result = workload.run(op)
            self.assertIsNone(workload.check(op, result))
            self.assertIsNotNone(workload.check(op, result[1:]))
            if len(result) >= 2:
                merged = result[0].point.mul(result[1].point)
                wrong = [type(result[0])(merged, result[0].contacts)] + result[2:]
                self.assertIsNotNone(workload.check(op, wrong))

    def test_mordell_missing_or_extra_point(self):
        workload = workloads.MordellSearch()
        workload.load()
        for op in workload.make_round(2, 0):
            if op.kind != "points" or max(op.args[1:3]) > workloads.BRUTE_POINTS_MAX:
                continue
            points = workload.run(op)
            self.assertIsNone(workload.check(op, points))
            if points:
                self.assertIsNotNone(workload.check(op, points[1:]))
                self.assertIsNotNone(workload.check(op, points + points[:1]))

    def test_symdiff_wrong_count(self):
        workload, op, report = self.first("symdiff_exhaustive", "positive_floor")
        wrong = type(report)(**{**report.__dict__, "checked": report.checked - 1})
        self.assertIsNotNone(workload.check(op, wrong))


class NoProgramNoResult(unittest.TestCase):
    def test_fails_without_source(self):
        import shutil
        import tempfile

        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli_corpus",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
