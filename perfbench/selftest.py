"""Self-tests of the benchmark harness: its arithmetic, its tables, and a smoke
run of each workload on a small input.

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (4.5, 2.25, 6.75, 8))
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0, 1))
        self.assertEqual(run.quartiles([5, 1, 3])[0], 3)

    def test_failed_share(self):
        self.assertEqual(run.failed_share(10, 1), 0.1)
        self.assertEqual(run.failed_share(4, 0), 0.0)
        self.assertEqual(run.failed_share(0, 0), 1.0)

    def test_covered_length_merges_overlaps(self):
        self.assertEqual(run.covered_length([]), 0.0)
        self.assertEqual(run.covered_length([(2, 5), (1, 3), (8, 10), (9, 9.5)]), 6.0)

    def test_self_time_subtracts_covered_child_intervals(self):
        spans = [
            ["bench.op", -1, 0.0, 10.0],
            ["mapper.a", 0, 1.0, 3.0],
            ["mapper.b", 0, 2.0, 5.0],  # overlaps a: the union counts once
            ["nocsim.c", 0, 8.0, 12.0],  # runs past its parent: clipped
            ["decoder.d", 3, 9.0, 11.0],
        ]
        got = run.self_times(spans)
        self.assertEqual(got["bench"], 10.0 - 6.0)
        self.assertEqual(got["mapper"], 5.0)
        self.assertEqual(got["nocsim"], 4.0 - 2.0)
        self.assertEqual(got["decoder"], 2.0)

    def test_read_bound_is_busiest_pe_degree_sum(self):
        h = SimpleNamespace(rows=[[0, 1, 2], [1, 2, 3, 4], [0, 5, 6, 7, 8, 9]])
        self.assertEqual(run.read_bound(h, [[0, 1], [2]]), 7)
        self.assertEqual(run.read_bound(h, [[0], [1, 2]]), 10)

    def test_tracer_nesting_and_off_switch(self):
        off = run.Tracer(False)
        with off.span("codes.x"):
            off.add("n", 3)
        self.assertEqual((off.spans, dict(off.counters)), ([], {}))
        tr = run.Tracer(True)
        with tr.span("bench.op"):
            with tr.span("codes.x"):
                tr.add("n", 3)
        with tr.span("mapper.y"):
            pass
        self.assertEqual([(s[0], s[1]) for s in tr.spans],
                         [("bench.op", -1), ("codes.x", 0), ("mapper.y", -1)])
        self.assertTrue(all(s[3] >= s[2] for s in tr.spans))
        self.assertEqual(tr.counters["n"], 3)


class Tables(unittest.TestCase):
    def test_benchmark_json_matches_the_script(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]],
                         [row[:4] for row in run.E2E])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [row[:3] for row in run.PER_LAYER])
        self.assertEqual(max(m["bound"] for m in doc["end_to_end"]),
                         next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"))

    def test_every_layer_reports_a_self_time(self):
        names = {row[0] for row in run.PER_LAYER}
        for layer in run.LAYERS:
            self.assertIn(f"{layer}.self_s", names)


SMALL_BER = {
    "ber-converging": run.BerSpec("wimax_576_288", 2.2, 1, ("layered-nms",), 2),
    "ber-waterfall-2t": run.BerSpec("wimax_576_288", 1.5, 2, ("layered-nms", "flooding-spa"), 2),
}
SMALL_CASES = (("wimax_576_288", 2, 2.6), ("wimax_576_288", 3, 2.6))


def small(fn):
    """Run fn with the workloads shrunk to a few frames of a short code."""
    patches = [
        mock.patch.object(run, "BER_WORKLOADS", SMALL_BER),
        mock.patch.object(run, "CASES", SMALL_CASES),
        mock.patch.object(run, "BLOCK", 4),
        mock.patch.object(run, "SETUP_EVERY_S", 0.0),
        mock.patch.object(run, "RANDOM_SEEDS", 2),
        mock.patch.object(run, "SPOT_FRAMES", 2),
    ]
    with contextlib.ExitStack() as stack:
        for p in patches:
            stack.enter_context(p)
        return fn()


def smoke(workload, trace, seed=7):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            mock.patch.object(run, "SPANS_DIR", Path(tmp)):
        code = small(lambda: run.main(["--workload", workload, "--seed", str(seed),
                                       "--seconds", "0", "--trace", str(trace)]))
    return code, out.getvalue(), json.loads(out.getvalue().strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_both_modes(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, text, result = smoke(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], text)
                    self.assertGreaterEqual(result["attempted"], 2)
                    self.assertEqual(result["failed"], 0)
                    table = run.PER_LAYER if trace else run.E2E
                    self.assertEqual(list(result["metrics"]), [row[0] for row in table])
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), text)

    def test_pinned_counts_gate_the_default_seed(self):
        # the small input does not produce the full-size workload's pinned counts
        _, text, result = smoke("ber-converging", 0, seed=run.DEFAULT_SEED)
        self.assertFalse(result["correct"])
        self.assertIn("pinned", text)

    def test_wrong_replay_fails_the_case(self):
        real = run.replay_decode

        def off_by_one(*args, **kwargs):
            res = real(*args, **kwargs)
            res.final_llrs = res.final_llrs + 1
            return res

        with mock.patch.object(run, "replay_decode", off_by_one):
            _, text, result = smoke("codegen-pipeline", 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], len(SMALL_CASES))
        self.assertIn("replay frames differ", text)

    def test_without_the_program_it_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ber-converging",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
