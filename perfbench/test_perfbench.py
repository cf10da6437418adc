"""The benchmark's own tests: a smoke run of every workload, traced and
untraced, and the output check catching a corrupted reference value.

    python3 perfbench/test_perfbench.py

Each smoke run builds the program first if needed, then takes seconds."""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import unittest  # noqa: E402

import batch  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402
import svc  # noqa: E402
import tracefile  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TMP = common.ROOT / ".bench_build" / "test"
SEED = 7

# Layers each workload must exercise: their figures may not read 0.
LIVE = {
    "table2": ["bu.build_s", "mdp.compile_s", "mdp.cache.misses",
               "mdp.ratio.outer_iters", "mdp.rvi.evaluate_sweeps",
               "mdp.rvi.optimize_sweeps", "util.pool.utilization"],
    "table3-serial": ["bu.build_s", "mdp.compile_s", "mdp.rvi.optimize_s",
                      "mdp.batch.queue_wait_max_s"],
    "svc-cells": ["svc.job_p50_ms", "svc.submit_p50_ms", "svc.poll_p50_ms",
                  "svc.job_compute_p50_ms", "mdp.cache.hits",
                  "mdp.rvi.optimize_sweeps"],
    "sim-journal": ["sim.events", "sim.replica_s", "robust.journal_s",
                    "robust.journal.appends"],
}


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra], capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def corrupted_reference(workload):
    """A copy of the workload's reference with one value the smoke run
    checks moved well past the tolerance."""
    TMP.mkdir(parents=True, exist_ok=True)
    if workload == "svc-cells":
        reference = json.loads((common.REFERENCE / "svc_cells.json")
                               .read_text())
        reference["utility_value"][svc.cell_key(svc.pool()[0])] += 0.01
    elif workload == "sim-journal":
        reference = json.loads((common.REFERENCE / "sim_journal.json")
                               .read_text())
        key = batch.sim_reference_key(
            batch.SIM_SMOKE_SHAPE,
            batch.SIM_FAULT_SEEDS[SEED % len(batch.SIM_FAULT_SEEDS)])
        lines = reference["csv"][key].splitlines(keepends=True)
        lines[1] = lines[1].replace(",", ",9", 1)
        reference["csv"][key] = "".join(lines)
    else:
        reference = json.loads((common.REFERENCE / f"{workload}.json")
                               .read_text())
        table = batch.TABLES[workload]
        key = next(k for k in sorted(reference["cells"])
                   if table.smoke_keeps(k))
        reference["cells"][key] += 0.01
    path = TMP / f"{workload}.corrupted.json"
    path.write_text(json.dumps(reference))
    return path


class Smoke(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(TMP, ignore_errors=True)

    def check_emits(self, workload, trace, declared):
        code, result = bench(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for entry in declared:
            emitted = result["metrics"][entry["name"]]
            self.assertEqual(emitted["unit"], entry["unit"], entry["name"])
            self.assertIsInstance(emitted["value"], (int, float))
        return result["metrics"]

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                end_to_end = self.check_emits(workload, 0, SPEC["end_to_end"])
                for name, entry in end_to_end.items():
                    self.assertGreater(entry["value"], 0, name)
                layers = self.check_emits(workload, 1, SPEC["per_layer"])
                for name in LIVE[workload]:
                    self.assertGreater(layers[name]["value"], 0, name)
                self.assertEqual(layers["obs.dropped_spans"]["value"], 0)
                self.assertEqual(layers["failed_share"]["value"], 0)

    def test_layer_self_times_cover_the_batch_items(self):
        _, result = bench("table2", 1)
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        covered = sum(layers[name] for name in (
            "bu.build_s", "mdp.compile_s", "mdp.ratio.self_s",
            "mdp.rvi.evaluate_s", "mdp.rvi.optimize_s"))
        self.assertGreaterEqual(covered, 0.95 * layers["mdp.batch.item_s"])

    def test_corrupted_reference_fails_the_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                path = corrupted_reference(workload)
                code, result = bench(workload, 0, "--reference", str(path))
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_record_refuses_a_failed_check(self):
        ledger = TMP / "ledger.jsonl"
        path = corrupted_reference("table2")
        code, _ = bench("table2", 0, "--reference", str(path),
                        "--record", str(ledger))
        self.assertEqual(code, 1)
        self.assertFalse(ledger.exists())
        code, _ = bench("table2", 0, "--record", str(ledger))
        self.assertEqual(code, 0)
        self.assertEqual(len(ledger.read_text().splitlines()), 1)


class BareCheckout(unittest.TestCase):
    def test_fails_without_printing_when_the_program_is_absent(self):
        bare = TMP / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(common.HERE, bare / common.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{common.HERE.name}/run.py", "--workload",
             "table2", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def span(name, ts, dur, tid=1, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 0,
            "tid": tid, "args": args}


class TraceReader(unittest.TestCase):
    def test_self_times_split_rvi_by_mode_and_queue_waits(self):
        events = [
            span("pool.task", 0, 100, tid=1), span("pool.task", 1, 60, tid=2),
            span("batch.item", 2, 50, tid=1, index=0),
            span("cache.compile", 3, 5, tid=1),
            span("ratio.solve", 10, 40, tid=1),
            span("rvi.solve", 11, 20, tid=1, mode="optimize", states=10,
                 sweeps=4, status="converged", kernel="avx512"),
            span("rvi.solve", 32, 10, tid=1, mode="evaluate", states=10,
                 sweeps=3, status="tolerance-stalled", kernel="avx512"),
            span("batch.item", 5, 30, tid=2, index=1),
            span("batch.item", 60, 10, tid=1, index=2),
        ]
        figures = tracefile.layer_metrics(
            [tracefile.Span(e) for e in events], {}, {})
        self.assertAlmostEqual(figures["mdp.batch.item_s"], 90e-6)
        self.assertAlmostEqual(figures["bu.build_s"], 45e-6)
        self.assertAlmostEqual(figures["mdp.ratio.self_s"], 10e-6)
        self.assertAlmostEqual(figures["mdp.rvi.optimize_s"], 20e-6)
        self.assertEqual(figures["mdp.rvi.evaluate_sweeps"], 3)
        self.assertEqual(figures["mdp.rvi.stalled"], 1)
        self.assertAlmostEqual(figures["mdp.batch.queue_wait_max_s"], 60e-6)
        self.assertAlmostEqual(figures["mdp.batch.queue_wait_p50_s"], 5e-6)

    def test_repeated_index_starts_a_new_batch(self):
        items = [tracefile.Span(span("batch.item", ts, 1, index=i))
                 for ts, i in [(0, 0), (2, 1), (4, 0), (6, 1)]]
        self.assertEqual([len(g) for g in tracefile.batches(items)], [2, 2])
        self.assertEqual(tracefile.queue_waits(items, []),
                         [0, 2e-6, 0, 2e-6])

    def test_dropped_spans_are_reported(self):
        figures = tracefile.layer_metrics(
            [], {"obs.trace.dropped_spans": 2}, {})
        self.assertEqual(figures["obs.dropped_spans"], 2)


if __name__ == "__main__":
    unittest.main()
