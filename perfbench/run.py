#!/usr/bin/env python3
"""reprolab benchmark: the train and sweep workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --write-references --seeds 0-63 [--workload sweep]

A run sets up the workload's inputs several times (reporting the median),
then repeats the workload's operation until ``--seconds`` would be exceeded
(at least three times; the fastest is reported), checks every operation's
outputs and prints one JSON object as its last line. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json from untraced operations;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# Set-up is repeated at least SETUP_REPEATS times and, while it is cheap, until
# SETUP_BUDGET_S seconds are spent (at most SETUP_MAX times); the median is reported.
SETUP_REPEATS = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 2.5
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# As found, before the sweep workload may set OPENBLAS_NUM_THREADS.
FOUND_THREADS = {k: os.environ.get(k) for k in THREAD_VARS}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def metric_catalogue() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def environment(found: dict) -> dict:
    import multiprocessing
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "threads_found": found,
        "threads_used": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def cold_import() -> None:
    """Import the CLI in a fresh interpreter: the start-up cost users pay per command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, subprocess polls the child every 50 ms, which
    # quantizes the measured set-up time.
    subprocess.run([sys.executable, "-c", "import reprolab.cli"], env=env, check=True)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Layers:
    """Per-layer totals accumulated over the traced operations of a run.

    ``metrics`` turns them into the per-layer metrics of BENCHMARK.json: times,
    counts and bytes are means per traced operation, the step percentiles pool
    every traced step, and a layer that did not run reads 0.
    """

    def __init__(self):
        self.ops = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.steps: list[float] = []
        self.step_s_in_optimize = 0.0
        self.sweep_s = 0.0
        self.run_s = 0.0
        self.dispatch_s = 0.0
        self.jobs = 1
        self.evaluations = 0
        self.best_epoch_ratios: list[float] = []

    def add(self, own_spans, worker_spans, counts, outputs, jobs) -> None:
        from spans import covered, layer_times

        self.ops += 1
        self.jobs = jobs
        for tree in (own_spans, worker_spans):
            for name, (total, own, n) in layer_times(tree).items():
                self.total[name] += total
                self.self_time[name] += own
                self.calls[name] += n
            for name, start, end, parent in tree:
                if name == "reprogram.step":
                    self.steps.append(end - start)
                    if parent >= 0 and tree[parent][0] == "reprogram.optimize_program":
                        self.step_s_in_optimize += end - start
        for key, value in counts.items():
            self.counts[key] += value
        runs = [(s, e) for name, s, e, _ in worker_spans if name == "cli.run_reprogram"]
        for name, start, end, _ in own_spans:
            if name == "cli.cmd_sweep":
                self.sweep_s += end - start
                self.dispatch_s += end - start - covered(runs, start, end)
        self.run_s += sum(e - s for s, e in runs)
        for test in outputs.get("tests", []):
            exhaustive = test["method"] == "exhaustive"
            self.evaluations += test["n_permutations"] + (0 if exhaustive else 1)
        for run in outputs.get("runs", []):
            if run is not None:
                history = run["history"]
                best = history.index(min(history))
                self.best_epoch_ratios.append(best / max(1, len(history) - 1))

    def metrics(self, overhead: float) -> dict:
        import numpy as np

        k = max(1, self.ops)
        t = {name: v / k for name, v in self.total.items()}
        c = {name: v / k for name, v in self.counts.items()}

        def s(name):
            return t.get(name, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        conv_s = s("tensor.conv2d") + s("tensor.conv2d_grad")
        pvalue_s = sum(s(f"stats.permutation_pvalue.{m}")
                       for m in ("pearson", "spearman", "kendall", "exhaustive"))
        optimize_s = s("reprogram.optimize_program")
        return {
            "tensor.conv2d.s": conv_s,
            "tensor.conv2d.calls": c.get("tensor.conv2d.calls", 0.0),
            "tensor.conv2d.gflop": c.get("tensor.conv2d.flop", 0.0) / 1e9,
            "tensor.conv2d.gflops_rate": ratio(c.get("tensor.conv2d.flop", 0.0) / 1e9, conv_s),
            "tensor.conv2d.mb": c.get("tensor.conv2d.bytes", 0.0) / 1e6,
            "tensor.conv2d.useful_ratio": ratio(c.get("tensor.conv2d.valid", 0.0),
                                                c.get("tensor.conv2d.computed", 0.0)),
            "tensor.backward.s": s("tensor.backward"),
            "tensor.backward.calls": c.get("tensor.backward.calls", 0.0),
            "tensor.maxpool2d.s": s("tensor.maxpool2d"),
            "tensor.matmul.s": s("tensor.matmul"),
            "tensor.pointwise.s": s("tensor.pointwise"),
            "datasets.synth.s": s("datasets.synth"),
            "datasets.synth.images": c.get("datasets.synth.images", 0.0),
            "datasets.preprocess.s": s("datasets.preprocess"),
            "datasets.preprocess.mb": c.get("datasets.preprocess.mb", 0.0),
            "datasets.split_batches.s": s("datasets.split_batches"),
            "models.train_sgd.s": s("models.train_sgd"),
            "models.train_sgd.self_s": self.self_time.get("models.train_sgd", 0.0) / k,
            "models.forward.s": s("models.forward"),
            "models.forward.calls": self.calls.get("models.forward", 0) / k,
            "models.forward.samples": c.get("models.forward.samples", 0.0),
            "models.predict_batch.s": s("models.predict_batch"),
            "models.accuracy.s": s("models.accuracy"),
            "models.checkpoint.s": s("models.checkpoint"),
            "reprogram.optimize_program.s": optimize_s,
            "reprogram.steps": len(self.steps) / k,
            "reprogram.step_ms_p50": float(np.percentile(self.steps, 50)) * 1e3
            if self.steps else 0.0,
            "reprogram.step_ms_p90": float(np.percentile(self.steps, 90)) * 1e3
            if self.steps else 0.0,
            "reprogram.eval_share": ratio(optimize_s - self.step_s_in_optimize / k, optimize_s),
            "reprogram.best_epoch_ratio": (statistics.fmean(self.best_epoch_ratios)
                                           if self.best_epoch_ratios else 0.0),
            "diagnostics.alignment_stats.s": s("diagnostics.alignment_stats"),
            "diagnostics.accuracy.s": s("diagnostics.accuracy"),
            "diagnostics.confusion.s": s("diagnostics.confusion"),
            "diagnostics.io.s": s("diagnostics.io"),
            "stats.permutation_pvalue.pearson.s": s("stats.permutation_pvalue.pearson"),
            "stats.permutation_pvalue.spearman.s": s("stats.permutation_pvalue.spearman"),
            "stats.permutation_pvalue.kendall.s": s("stats.permutation_pvalue.kendall"),
            "stats.permutation_pvalue.exhaustive.s": s("stats.permutation_pvalue.exhaustive"),
            "stats.coefficient_us": ratio(pvalue_s * k * 1e6, self.evaluations),
            "cli.cmd_train.s": s("cli.cmd_train"),
            "cli.cmd_sweep.s": s("cli.cmd_sweep"),
            "cli.cmd_correlate.s": s("cli.cmd_correlate"),
            "cli.run_reprogram.s": self.run_s / k,
            "cli.sweep.parallel_speedup": ratio(self.run_s, self.sweep_s),
            "cli.sweep.worker_idle_share": (1.0 - ratio(self.run_s, self.jobs * self.sweep_s)
                                            if self.sweep_s else 0.0),
            "cli.sweep.dispatch_s": self.dispatch_s / k,
            "trace_overhead_share": overhead,
        }


def run_benchmark(args, catalogue) -> int:
    import checks
    import workloads
    from spans import Tracer

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    reference = checks.load_references().get(args.workload, {}).get(str(args.seed))

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
        t0 = time.perf_counter()
        cold_import()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    attempted = failed = 0
    untraced: list[float] = []
    traced: list[float] = []
    layers = Layers()
    first = None
    problems: list[str] = []
    t_start = time.perf_counter()
    n = 0
    while True:
        use_trace = bool(args.trace) and n % 2 == 1
        op_dir = work / f"op{n}"
        shutil.rmtree(op_dir, ignore_errors=True)
        tracer = Tracer(work / f"trace{n}") if use_trace else None
        t_op = time.perf_counter()
        try:
            if tracer is not None:
                with tracer:
                    result = workload.run(op_dir)
            else:
                result = workload.run(op_dir)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            problems.append(traceback.format_exc(limit=3))
            result = None
        op_wall = time.perf_counter() - t_op
        if result is None:
            attempted += workloads.WORKLOADS[args.workload].units
            failed += workloads.WORKLOADS[args.workload].units
        else:
            attempted += result.attempted
            bad = checks.check(args.workload, result.outputs, first, reference, args.seed)
            failed += len(bad)
            problems.extend(f"unit {unit}: {msg}" for unit, msgs in sorted(bad.items())
                            for msg in msgs)
            if first is None and not bad:
                first = result.outputs
            if tracer is not None:
                layers.add(*tracer.collect(), result.outputs, workloads.worker_count())
                traced.append(result.seconds)
            else:
                untraced.append(result.seconds)
                items = result.items
        shutil.rmtree(op_dir, ignore_errors=True)
        n += 1
        elapsed = time.perf_counter() - t_start
        min_ops = 2 * MIN_TRACED_PAIRS if args.trace else MIN_OPS
        if elapsed > 4 * args.seconds:
            break
        if n >= min_ops and (not args.trace or n % 2 == 0) \
                and elapsed + op_wall * (2 if args.trace else 1) > args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass

    print("env " + json.dumps(environment(FOUND_THREADS), sort_keys=True))
    print(f"reference {'stored' if reference else 'none'} for {args.workload} seed {args.seed}"
          + ("" if reference else ": invariant, scipy and determinism checks only"))
    for line in problems[:20]:
        print("check-failed " + line.strip().replace("\n", " | "))
    print(f"operations {n}, attempted {attempted}, failed {failed}, "
          f"failed_share {failed / max(1, attempted):.4f}")
    print("setup_seconds " + " ".join(f"{t:.4f}" for t in setup_times))
    print("op_seconds " + " ".join(f"{t:.4f}" for t in untraced))
    if untraced:
        print(f"op_median_s {statistics.median(untraced):.4f} over {len(untraced)} operations")
    if traced:
        print("traced_op_seconds " + " ".join(f"{t:.4f}" for t in traced))

    if not untraced:
        print("error: no untraced operation succeeded, so nothing was measured",
              file=sys.stderr)
        return 1
    if args.trace:
        overhead = min(traced) / min(untraced) - 1.0 if traced else 0.0
        values = layers.metrics(overhead)
        print("computed from conv2d call shapes, not measured: tensor.conv2d.gflop, "
              "tensor.conv2d.mb, tensor.conv2d.useful_ratio")
        units = catalogue["per_layer"]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        # The fastest operation: interference from other tenants of the host
        # only ever adds time, and it shifted per-run medians by up to 30%.
        wall = min(untraced)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "items_per_s": items / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = catalogue["end_to_end"]
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"{workload.items_name} {items / wall:.6g} 1/s (= items_per_s)")
        for name, value in workload.quality(first or {}).items():
            print(f"{name} {value:.10g}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_references(seeds: list[int], only: str | None) -> int:
    import checks
    import workloads

    refs = checks.load_references()
    for name, cls in workloads.WORKLOADS.items():
        if only is not None and name != only:
            continue
        table = refs.setdefault(name, {})
        for seed in seeds:
            work = WORK / f"ref-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            workload = cls(seed, work)
            workload.setup()
            result = workload.run(work / "op")
            bad = checks.check(name, result.outputs, None, None, seed)
            if bad:
                shutil.rmtree(work, ignore_errors=True)
                return fail(f"{name} seed {seed} fails its invariant checks: {bad}")
            table[str(seed)] = checks.REFERENCE_OF[name](result.outputs)
            shutil.rmtree(work, ignore_errors=True)
            print(f"reference {name} seed {seed}", flush=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--write-references", action="store_true",
                        help="store reference outputs of the current code for --seeds")
    parser.add_argument("--seeds", default="0-63")
    args = parser.parse_args(argv)

    if not (SRC / "reprolab" / "__init__.py").is_file():
        return fail(f"reprolab sources not found under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    catalogue = metric_catalogue()
    if args.list_metrics:
        for kind in ("end_to_end", "per_layer"):
            for name, unit in catalogue[kind].items():
                print(f"{kind} {name} {unit}")
        return 0
    if args.workload not in catalogue["workloads"] and not (
            args.write_references and args.workload is None):
        return fail(f"--workload must be one of {catalogue['workloads']}")
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if args.workload == "sweep" or args.write_references:
        # Two workers with one OpenBLAS thread per core each; see README.md.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    try:
        import reprolab  # noqa: F401
    except ImportError as exc:
        return fail(f"cannot import reprolab: {exc}")
    if args.write_references:
        return write_references(parse_seeds(args.seeds), args.workload)
    return run_benchmark(args, catalogue)


if __name__ == "__main__":
    sys.exit(main())
