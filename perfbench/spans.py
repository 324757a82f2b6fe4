"""Span tracing of reprolab from outside the package.

``Tracer.install`` replaces public functions with timing wrappers in the module
namespace where callers look each name up (``reprolab.cli.optimize_program``,
``reprolab.tensor.conv2d``, ``reprolab.models.Network.forward`` and so on), and
``Tracer.restore`` puts the originals back. Spans live in memory as
``[name, start, end, parent]`` lists. Sweep workers are forked from the traced
process, so they inherit the wrappers; a worker notices the new pid, starts an
empty span list, and writes its spans to ``worker-<pid>.json`` in the trace
directory each time a wrapped ``run_reprogram`` returns. ``time.perf_counter``
reads the system-wide monotonic clock, so worker and parent spans share one
time axis.

Counters (conv2d flop and bytes, samples forwarded, images synthesized) are
computed from argument shapes at the same boundaries.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import reprolab.cli as cli
import reprolab.diagnostics as diagnostics
import reprolab.models as models
import reprolab.reprogram as reprogram
import reprolab.stats as stats
import reprolab.tensor as T

POINTWISE = ("add", "mul", "scale", "relu", "dropout", "reshape", "softmax_cross_entropy")


def _samples(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = x.shape
    return {"models.forward.samples": shape[0] if len(shape) == 4 else 1}


def _synth_images(result):
    return {"datasets.synth.images": len(result)}


def _preprocess_mb(result):
    return {"datasets.preprocess.mb": result.images.array.nbytes / 1e6}


def _pvalue_name(args, kwargs):
    if kwargs.get("exhaustive"):
        return "stats.permutation_pvalue.exhaustive"
    method = kwargs.get("method", args[2] if len(args) > 2 else "pearson")
    return f"stats.permutation_pvalue.{method}"


def conv2d_counts(x_shape, k_shape, padding, x_grad, k_grad):
    """Computed work of one conv2d call on the wrapped grid, from shapes alone.

    Returns (forward flop, backward flop, compulsory bytes, valid output
    columns, grid columns computed). The wrapped grid computes every column
    of the padded batch; only ``n * h1 * w1`` of them are valid outputs.
    """
    n, c_in, h, w = (1, *x_shape) if len(x_shape) == 3 else x_shape
    c_out, _, kh, kw = k_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    span = (n * hp - (kh - 1)) * wp
    h1, w1 = hp - kh + 1, wp - kw + 1
    gemm = 2 * c_out * c_in * kh * kw * span
    fwd_bytes = 8 * (c_in * n * hp * wp + c_out * c_in * kh * kw + c_out * n * h1 * w1)
    bwd_flop = gemm * (int(x_grad) + int(k_grad))
    bwd_bytes = fwd_bytes if (x_grad or k_grad) else 0
    return gemm, bwd_flop, fwd_bytes + bwd_bytes, n * h1 * w1, span


class Tracer:
    """Records spans and counters in memory; one instance per traced run."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _begin(self, name: str) -> list:
        if os.getpid() != self.pid:
            # First span in a forked worker: drop what the parent had recorded.
            self.pid = os.getpid()
            self.spans, self._stack = [], []
            self.counts = defaultdict(float)
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] += value

    def wrap(self, name, fn, from_args=None, from_result=None):
        """Timing wrapper; ``name`` may be a function of the call's arguments.

        ``from_args(args, kwargs)`` and ``from_result(result)`` return counters
        to add once the call has returned.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if from_args is not None:
                tracer.add_counts(from_args(args, kwargs))
            if from_result is not None:
                tracer.add_counts(from_result(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_conv2d(self, fn):
        tracer = self

        def conv2d(x, kernels, stride=1, padding=0):
            span = tracer._begin("tensor.conv2d")
            try:
                out = fn(x, kernels, stride=stride, padding=padding)
            finally:
                tracer._end(span)
            fwd, bwd, nbytes, valid, computed = conv2d_counts(
                x.shape, kernels.shape, padding, x.requires_grad, kernels.requires_grad)
            tracer.add_counts({"tensor.conv2d.calls": 1, "tensor.conv2d.flop": fwd,
                               "tensor.conv2d.bytes": nbytes, "tensor.conv2d.valid": valid,
                               "tensor.conv2d.computed": computed})
            rule = out._backward_rule
            if rule is not None:
                def timed_rule(grad):
                    inner = tracer._begin("tensor.conv2d_grad")
                    try:
                        rule(grad)
                    finally:
                        tracer._end(inner)
                    tracer.add_counts({"tensor.conv2d.flop": bwd})

                out._backward_rule = timed_rule
            return out

        conv2d.__wrapped__ = fn
        return conv2d

    def _wrap_run_reprogram(self, fn):
        inner = self.wrap("cli.run_reprogram", fn)
        tracer = self
        main_pid = self.pid

        def run_reprogram(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                if os.getpid() != main_pid:
                    tracer.write_worker_file()

        run_reprogram.__wrapped__ = fn
        return run_reprogram

    def write_worker_file(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        os.replace(tmp, path)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        w = self.wrap
        self._patch(T, "conv2d", self._wrap_conv2d(T.conv2d))
        self._patch(T, "backward", w("tensor.backward", T.backward,
                                     from_args=lambda a, k: {"tensor.backward.calls": 1}))
        self._patch(T, "maxpool2d", w("tensor.maxpool2d", T.maxpool2d))
        self._patch(T, "matmul", w("tensor.matmul", T.matmul))
        for op in POINTWISE:
            self._patch(T, op, w("tensor.pointwise", getattr(T, op)))

        self._patch(cli, "synth_target_dataset",
                    w("datasets.synth", cli.synth_target_dataset, from_result=_synth_images))
        self._patch(cli, "preprocess", w("datasets.preprocess", cli.preprocess,
                                         from_result=_preprocess_mb))
        self._patch(cli, "split_dataset", w("datasets.split_batches", cli.split_dataset))
        for owner in (models, reprogram):
            self._patch(owner, "make_batches", w("datasets.split_batches", owner.make_batches))

        self._patch(cli, "train_sgd", w("models.train_sgd", cli.train_sgd))
        self._patch(models.Network, "forward", w("models.forward", models.Network.forward,
                                                 from_args=_samples))
        for owner in (models, diagnostics):
            self._patch(owner, "predict_batch", w("models.predict_batch", owner.predict_batch))
        for owner in (cli, diagnostics):
            self._patch(owner, "accuracy", w("models.accuracy", owner.accuracy))
        for attr in ("save_model", "load_model"):
            self._patch(cli, attr, w("models.checkpoint", getattr(cli, attr)))

        self._patch(cli, "optimize_program",
                    w("reprogram.optimize_program", cli.optimize_program))
        self._patch(reprogram, "average_masked_gradient",
                    w("reprogram.step", reprogram.average_masked_gradient))

        self._patch(cli, "alignment_stats",
                    w("diagnostics.alignment_stats", cli.alignment_stats))
        for attr in ("domain_alignment", "reprogramming_accuracy"):
            self._patch(cli, attr, w("diagnostics.accuracy", getattr(cli, attr)))
        self._patch(cli, "confusion_matrix", w("diagnostics.confusion", cli.confusion_matrix))
        for attr in ("append_metrics", "save_confusion_csv", "read_metrics_csv", "save_program"):
            self._patch(cli, attr, w("diagnostics.io", getattr(cli, attr)))

        for owner in (cli, stats):
            self._patch(owner, "permutation_pvalue",
                        w(_pvalue_name, owner.permutation_pvalue))

        for attr in ("cmd_train", "cmd_sweep", "cmd_correlate"):
            self._patch(cli, attr, w(f"cli.{attr}", getattr(cli, attr)))
        self._patch(cli, "run_reprogram", self._wrap_run_reprogram(cli.run_reprogram))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- collection --------------------------------------------------------------

    def collect(self) -> tuple[list[list], list[list], dict]:
        """Parent spans, worker spans and merged counters; clears both sides."""
        worker_spans: list[list] = []
        counts = defaultdict(float, self.counts)
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            offset = len(worker_spans)
            for name, start, end, parent in data["spans"]:
                worker_spans.append([name, start, end, parent + offset if parent >= 0 else -1])
            for key, value in data["counts"].items():
                counts[key] += value
            path.unlink()
        spans = self.spans
        self.spans, self.counts = [], defaultdict(float)
        return spans, worker_spans, dict(counts)


# -- span arithmetic ---------------------------------------------------------------


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total, cursor = 0.0, start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def layer_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total seconds, self seconds, count).

    Self time is a span's duration minus the part of it that its child spans
    cover. A span nested inside another of the same name is left out of the
    total, so recursion is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (name, start, end, parent) in enumerate(spans):
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        entry = out[name]
        entry[0] += end - start
        entry[1] += end - start - covered(children.get(i, ()), start, end)
        entry[2] += 1
    return {name: tuple(v) for name, v in out.items()}
