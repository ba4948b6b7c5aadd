"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that the recorded b-tables fed to `models` are what `bst.full_table`
computes, that every per-layer metric the traced run reports moves on the
workloads that exercise its layer and stays zero on the ones that bypass
it, that the metric names match `BENCHMARK.json`, that a changed output
counts as a failed operation, and that the benchmark refuses to run
without the program.
"""

import fnmatch
import json
import shutil
import subprocess
import sys
import unittest

from run import check_ops, spawn
from workloads import DIGESTS_FILE, HERE, PAIRS, SRC, TABLES_FILE, WORKLOADS, label

ROOT = HERE.parent
CROSSCHECK_PAIRS = [label(pair) for pair in WORKLOADS["crosscheck"]]
TRACE_ONLY = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")

# Per workload: layer metrics that must be nonzero in the timed phase (the
# layer does the work) and those that must be zero (the layer is bypassed).
METHOD_LAYERS = [
    "symfun.wu_formula.*", "groebner.*", "ffpoly.order_key.calls", "steenrod.power.*",
    "bst.fallback_share", "bst.method2.attempts",
    "bst.entries.instability-zero", "bst.entries.method1",
    "bst.entries.case1", "bst.entries.method1-fallback",
]
HOPF_LAYERS = ["hopf.*"]
SHOULD_MOVE = {
    "tables": METHOD_LAYERS + ["liedata.theta_set.s", "bst.entries.method2"]
    + [f"bst.full_table.{label(pair)}.s" for pair in PAIRS],
    "crosscheck": METHOD_LAYERS + [
        "liedata.theta_set.s", "liedata.expand_in_weights.*", "ffpoly.mul.calls",
        "bst.entries.both",
    ] + [f"bst.full_table.{name}.s" for name in CROSSCHECK_PAIRS],
    "models": HOPF_LAYERS + ["liedata.theta_set.s"],
}
SHOULD_BE_ZERO = {
    "tables": HOPF_LAYERS,
    "crosscheck": HOPF_LAYERS,
    "models": ["symfun.*", "groebner.*", "ffpoly.*", "steenrod.*",
               "liedata.expand_in_weights.*", "bst.*"],
}


def _matching(patterns, names):
    out = {n for n in names if any(fnmatch.fnmatchcase(n, pat) for pat in patterns)}
    missing = [pat for pat in patterns if not any(fnmatch.fnmatchcase(n, pat) for n in names)]
    if missing:
        raise AssertionError(f"patterns match no metric: {missing}")
    return out


class RecordedTables(unittest.TestCase):
    def test_recorded_tables_equal_full_table(self):
        sys.path.insert(0, str(SRC))
        from exhopf import bst

        recorded = json.loads(TABLES_FILE.read_text())
        for group, p in PAIRS:
            with self.subTest(pair=(group, p)):
                self.assertEqual(bst.full_table(group, p).as_dict(),
                                 recorded[label((group, p))])


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.layers, cls.results = {}, {}
        for workload, pairs in WORKLOADS.items():
            result = spawn(workload, [label(pair) for pair in pairs], trace=True)
            cls.results[workload] = result
            cls.layers[workload] = {n: m["value"] for n, m in result["layers"].items()}

    def test_speed_probe_rescales_the_timed_phase(self):
        # the machine is never more than a few times faster or slower than
        # the reference speed, so a far-off factor means the probe took no
        # samples or timed the wrong thing
        for workload, result in self.results.items():
            with self.subTest(workload=workload):
                factor = result["norm_wall_s"] / result["wall_s"]
                self.assertNotEqual(factor, 1.0)
                self.assertTrue(0.2 < factor < 5, factor)

    def test_layers_move_where_exercised_and_stay_zero_where_bypassed(self):
        for workload, values in self.layers.items():
            move = _matching(SHOULD_MOVE[workload], values)
            zero = _matching(SHOULD_BE_ZERO[workload], values)
            self.assertFalse(move & zero)
            with self.subTest(workload=workload):
                self.assertEqual([n for n in sorted(move) if not values[n]], [])
                self.assertEqual([n for n in sorted(zero) if values[n]], [])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload, values in self.layers.items():
            self.assertEqual(sorted(declared), sorted(list(values) + list(TRACE_ONLY)))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


class Checking(unittest.TestCase):
    def test_changed_digest_counts_as_failed(self):
        recorded = json.loads(DIGESTS_FILE.read_text())
        ops = [{"pair": "G2_2", "stage": stage, "digest": digest, "error": None}
               for stage, digest in recorded["tables"]["G2_2"].items()]
        self.assertEqual(check_ops("tables", [{"ops": ops}], recorded)[:2], (2, 0))
        ops[0] = dict(ops[0], digest="0" * 64)
        ops[1] = dict(ops[1], digest=None, error="ValueError: boom")
        self.assertEqual(check_ops("tables", [{"ops": ops}], recorded)[:2], (2, 2))

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "tables",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
