"""Self-tests of the benchmark itself: metric catalogue, output checker, span
arithmetic and seed handling.

Run from the root of a checkout: ``python3 perfbench/selftest.py`` (about a
minute; it runs the train workload briefly and sets up each workload).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def correlate_output() -> dict:
    """A hand-built output of the sweep's correlation step that passes."""
    import numpy as np

    x = np.round(np.linspace(0.3, 0.35, 12) * 500) / 500
    y = np.linspace(0.1, 0.9, 12) ** 2
    coefs = checks.scipy_coefficients(x, y)
    tests = [{"method": m, "coefficient": c, "p_value": 3 / (W.PERMUTATIONS + 1),
              "n_permutations": W.PERMUTATIONS}
             for m, c in zip(W.CORRELATE_METHODS, coefs)]
    tests.append({"method": "exhaustive", "coefficient": coefs[3], "p_value": 0.5,
                  "n_permutations": 40320})
    return {"x": x.tolist(), "y": y.tolist(), "tests": tests, "report": "r"}


def sweep_output() -> tuple[dict, dict]:
    """A hand-built sweep output that passes, with its reference."""
    n = W.REPROGRAM["metrics_set_size"]
    rows, runs = [], []
    for i, size in enumerate(W.SWEEP_SIZES):
        rows.append({
            "source": "synthetic-strokes", "target": "synthetic-outline",
            "model": "cwnet-w0.25-64x64", "trained": "true",
            "mask_size": str(3 * (size * size - W.INNER[0] * W.INNER[1])),
            "DA": repr(5 / n), "RA": repr((10 + i) / n), "r0": "0.25", "rN": "0.125",
            "g_l1": "0.03", "seed": "4", "config_hash": f"{i:016x}",
        })
        history = [2.3, 2.2, 2.1]
        runs.append({"mask_outer_size": size, "best_loss": 2.1, "history": history,
                     "delta": f"digest{i}"})
    out = {"rows": rows, "runs": runs, "metrics_csv": "csv", "failures": [],
           "expected_hashes": [f"{i:016x}" for i in range(len(W.SWEEP_SIZES))],
           **correlate_output()}
    return out, checks.sweep_reference(out)


class CatalogueTest(unittest.TestCase):
    def test_list_metrics_prints_every_metric_with_unit(self):
        proc = bench("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = {tuple(line.split()[1:]) for line in proc.stdout.splitlines()}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn((metric["name"], metric["unit"]), listed)

    def test_layers_compute_exactly_the_per_layer_catalogue(self):
        names = set(run.metric_catalogue()["per_layer"])
        self.assertEqual(set(run.Layers().metrics(0.0)), names)


class CheckerTest(unittest.TestCase):
    def test_sweep_output_passes(self):
        out, ref = sweep_output()
        self.assertEqual(checks.check("sweep", out, copy.deepcopy(out), ref, 4), {})

    def test_ra_moved_by_one_in_500_fails_that_run_only(self):
        out, ref = sweep_output()
        out["rows"][1]["RA"] = repr(float(out["rows"][1]["RA"]) + 1 / 500)
        bad = checks.check("sweep", out, None, ref, 4)
        self.assertEqual(list(bad), [1])
        self.assertTrue(any("RA" in message for message in bad[1]))

    def test_row_differing_from_first_operation_fails(self):
        out, _ = sweep_output()
        first = copy.deepcopy(out)
        out["rows"][2]["rN"] = "0.126"
        self.assertEqual(list(checks.check("sweep", out, first, None, 4)), [2])

    def test_corrupted_p_value_fails_its_test_only(self):
        out, ref = sweep_output()
        out["tests"][0]["p_value"] = 4 / (W.PERMUTATIONS + 1)
        first_test = len(W.SWEEP_SIZES)
        self.assertEqual(list(checks.check("sweep", out, None, ref, 4)), [first_test])
        out["tests"][1]["coefficient"] += 1e-6
        self.assertEqual(sorted(checks.check("sweep", out, None, ref, 4)),
                         [first_test, first_test + 1])


class SpanTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        tree = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],      # overlaps a: the covered part counts once
            ["leaf", 2.0, 3.0, 1],
            ["root", 4.0, 5.0, 2],   # nested inside a span of the same name
        ]
        times = spans.layer_times(tree)
        self.assertEqual(times["root"], (10.0, 5.0, 1))
        self.assertEqual(times["a"], (3.0, 2.0, 1))
        self.assertEqual(times["b"], (3.0, 2.0, 1))
        self.assertEqual(times["leaf"], (1.0, 1.0, 1))

    def test_covered_clips_and_merges(self):
        self.assertEqual(spans.covered([(0, 2), (1, 3), (5, 9)], 1, 6), 3)
        self.assertEqual(spans.covered([], 0, 1), 0)

    def test_conv2d_counts_from_shapes(self):
        fwd, bwd, nbytes, valid, computed = spans.conv2d_counts(
            (2, 3, 4, 4), (5, 3, 3, 3), padding=1, x_grad=True, k_grad=False)
        span = (2 * 6 - 2) * 6
        self.assertEqual(fwd, 2 * 5 * 3 * 9 * span)
        self.assertEqual(bwd, fwd)
        self.assertEqual((valid, computed), (2 * 4 * 4, span))
        self.assertGreater(nbytes, 0)

    def test_tracer_restores_every_patch(self):
        import reprolab.cli as cli
        import reprolab.models as models
        import reprolab.tensor as T

        before = (T.conv2d, T.add, cli.run_reprogram, models.Network.forward)
        with tempfile.TemporaryDirectory() as tmp:
            with spans.Tracer(tmp):
                self.assertIsNot(T.conv2d, before[0])
        self.assertEqual((T.conv2d, T.add, cli.run_reprogram, models.Network.forward), before)


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for cls in W.WORKLOADS.values():
                digests = []
                for seed in (1, 2):
                    workload = cls(seed, Path(tmp) / f"{cls.name}-{seed}")
                    workload.setup()
                    digests.append(workload.input_digest())
                self.assertNotEqual(digests[0], digests[1], cls.name)

    def test_seed_keeps_the_set_of_metrics(self):
        catalogue = run.metric_catalogue()
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            keys = []
            for seed in ("1", "2"):
                proc = bench("--workload", "train", "--seed", seed, "--seconds", "1",
                             "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_line(proc)
                self.assertTrue(result["correct"], proc.stdout)
                keys.append(set(result["metrics"]))
            self.assertEqual(keys[0], keys[1])
            self.assertEqual(keys[0], set(catalogue[kind]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
