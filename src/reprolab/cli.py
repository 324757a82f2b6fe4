"""Experiment driver: train, reprogram, sweep, correlate.

Every emitted metrics row carries the seed and the canonical config hash of
the run that produced it, so any row regenerates from its configuration
alone. Exit codes: 0 all requested runs completed, 3 partial failure inside a
sweep, 1 hard failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    DatasetSpec,
    ExperimentConfig,
    config_hash,
    load_config,
)
from .datasets import (
    LabeledDataset,
    load_idx,
    preprocess,
    split_dataset,
    synth_target_dataset,
)
from .diagnostics import (
    CSV_HEADER,
    MetricsRecord,
    alignment_stats,
    confusion_matrix,
    csv_text,
    diagonal_accuracy,
    read_metrics_csv,
    save_confusion_csv,
    write_metrics,
)

# Not called here, but part of this module's namespace: perfbench/spans.py
# wraps each name it times where the CLI would look it up.
from .diagnostics import append_metrics, domain_alignment, reprogramming_accuracy  # noqa: F401
from .errors import ConfigurationError, ReproLabError, SchemaError
from .models import (
    Network,
    accuracy,
    build_cwnet,
    init_weights,
    load_model,
    save_model,
    train_sgd,
)
from .reprogram import (
    Mask,
    Program,
    build_class_map,
    build_frame_mask,
    merge_zero_program,
    optimize_program,
    save_program,
    zero_program_loss,
)
from .stats import permutation_pvalue
from .tensor import blas_threads, replace_file, set_blas_threads, write_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 3


# -- dataset assembly ---------------------------------------------------------------


def _load_raw(spec: DatasetSpec, seed: int, train: bool) -> LabeledDataset:
    if spec.kind == "idx":
        if not train and spec.test_images is None:
            raise ConfigurationError(f"{spec.display_name}: no test IDX files configured")
        images = spec.images if train else spec.test_images
        labels = spec.labels if train else spec.test_labels
        raw = load_idx(images, labels)
        if not len(raw):
            raise ConfigurationError(f"{images}: holds no images")
        h, w = raw.images.shape[2:]
        if (h, w) != spec.image_size:
            raise ConfigurationError(f"{images}: images are {h}x{w}, not the configured "
                                     f"image_size {list(spec.image_size)}")
        # IDX labels are bytes, so none is negative.
        outside = np.unique(raw.labels[raw.labels >= spec.num_classes])
        if len(outside):
            raise ConfigurationError(f"{labels}: labels {outside.tolist()} lie outside "
                                     f"[0, {spec.num_classes}), the configured num_classes")
        return raw
    if train:
        return _synthesize(spec, seed, spec.per_class)
    return _synthesize(spec, seed + 1, spec.test_per_class)


def _synthesize(spec: DatasetSpec, seed: int, per_class: int) -> LabeledDataset:
    return synth_target_dataset(
        seed=seed,
        num_classes=spec.num_classes,
        per_class=per_class,
        size=spec.image_size,
        family=spec.family,
        noise_amplitude=spec.noise_amplitude,
        max_shift=spec.max_shift,
        contrast_jitter=spec.contrast_jitter,
    )


# -- train ---------------------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Train (or initialize, for the untrained condition) the source model, at one
    OpenBLAS thread like every sweep task, so the checkpoint's bytes do not
    depend on the caller's thread count."""
    out_dir = Path(out_dir if out_dir is not None else Path(cfg.out) / "model")
    net = build_cwnet(
        cfg.model.input_shape,
        num_classes=cfg.source.num_classes,
        width_scale=cfg.model.width_scale,
        dropout_enabled=cfg.model.dropout_enabled,
        dropout_rate=cfg.model.dropout_rate,
    )
    mode = "trained-init" if cfg.model.trained else "untrained-random"
    init_weights(net, cfg.seed, mode)

    history: list[float] = []
    test_accuracy = None
    if cfg.model.trained:
        raw_train = _load_raw(cfg.source, cfg.seed, train=True)
        raw_test = _load_raw(cfg.source, cfg.seed, train=False)
        train_ds = preprocess(raw_train, cfg.model.input_shape)
        test_ds = preprocess(raw_test, cfg.model.input_shape)
        net.set_input_standardization(train_ds)
        with blas_threads(1):
            net, history = train_sgd(net, train_ds, replace(cfg.train, seed=cfg.seed))
            test_accuracy = accuracy(net, test_ds)

    save_model(net, out_dir)
    losses = [["epoch", "mean_loss"]] + [[i, repr(value)] for i, value in enumerate(history)]
    replace_file(out_dir / "training_loss.csv", csv_text(losses))
    summary = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "trained": cfg.model.trained,
        "source": cfg.source.display_name,
        "test_accuracy": test_accuracy,
    }
    write_json(out_dir / "summary.json", summary)
    return out_dir


# -- reprogram --------------------------------------------------------------------------


@dataclass
class ZeroProgram:
    """A run's results at the zero program, which a sweep computes once.

    At delta = 0 the perturbed input x + 0 o M is x for every mask, so the
    evaluation loss (``history[0]``) and the confusion matrix (DA) are the same
    for all mask sizes. r0 and g_l1 differ only in which coordinates of one
    shared input gradient the mask selects.
    """

    eval_loss: float
    confusion: np.ndarray
    r0: float
    g_l1: float


def _target_sets(cfg: ExperimentConfig) -> list[LabeledDataset]:
    """The preprocessed optimization, evaluation and metrics sets of a run."""
    rc = cfg.reprogram
    sizes = [rc.opt_set_size, rc.eval_set_size, rc.metrics_set_size]
    needed = sum(sizes)
    if cfg.target.kind == "idx":
        raw = _load_raw(cfg.target, cfg.seed, train=True)
    else:
        per_class = max(cfg.target.per_class, -(-needed // cfg.target.num_classes))
        raw = _synthesize(cfg.target, cfg.seed + 2, per_class)
    if needed > len(raw):
        raise ConfigurationError(
            f"target dataset has {len(raw)} samples but the run needs {needed} "
            "(opt + eval + metrics)"
        )
    return [preprocess(part, cfg.model.input_shape)
            for part in split_dataset(raw, sizes, cfg.seed)]


def _build_mask(cfg: ExperimentConfig, outer_size) -> Mask:
    return build_frame_mask(cfg.model.input_shape, cfg.target.image_size, outer_size)


def _class_map(cfg: ExperimentConfig, net: Network):
    return build_class_map(cfg.target.num_classes, cfg.class_map, net.num_classes)


def _zero_programs(cfg: ExperimentConfig, net: Network, sets: list[LabeledDataset],
                   masks: list[Mask]) -> list[ZeroProgram]:
    """The zero-program stage for each mask: one loss pass, one confusion pass
    and one backward per chunk, whatever the number of masks."""
    _, eval_set, metrics_set = sets
    class_map = _class_map(cfg, net)
    net.set_requires_grad(False)
    eval_loss = zero_program_loss(net, eval_set, class_map)
    confusion = confusion_matrix(net, metrics_set, None, class_map)
    zero = np.zeros(net.input_shape)
    return [ZeroProgram(eval_loss, confusion, r0, g_l1)
            for r0, g_l1 in alignment_stats(net, eval_set, zero, masks, class_map)]


def _best_epoch(cfg: ExperimentConfig, net: Network, sets: list[LabeledDataset],
                mask: Mask) -> Program:
    """The optimization stage: sign-SGD without the zero program, which
    merge_zero_program compares with the best epoch afterwards."""
    opt_set, eval_set, _ = sets
    return optimize_program(net, opt_set, eval_set, mask, _class_map(cfg, net), cfg.reprogram,
                            initial_loss=math.inf)


def run_reprogram(cfg: ExperimentConfig, net: Network, out_dir=None,
                  mask_outer_size=None, shared: ZeroProgram | None = None,
                  program: Program | None = None,
                  sets: list[LabeledDataset] | None = None) -> MetricsRecord:
    """Optimize a program against ``net`` and emit metrics and checkpoints.

    A run has three stages: the zero-program stage (``shared``), the
    optimization stage (``program``, the best epoch from _best_epoch) and the
    post stage, which merges the two and computes RA, rN and the artifacts.
    A sweep runs the first two as separate tasks and passes their results in;
    a stage whose result is not given runs here. ``sets`` are the target sets
    from _target_sets, built here when not given.
    """
    outer = mask_outer_size if mask_outer_size is not None else cfg.mask_outer_size
    rc = cfg.reprogram
    sets = _target_sets(cfg) if sets is None else sets
    _, eval_set, metrics_set = sets
    mask = _build_mask(cfg, outer)
    class_map = _class_map(cfg, net)
    if shared is None:
        shared = _zero_programs(cfg, net, sets, [mask])[0]
    if program is None:
        program = _best_epoch(cfg, net, sets, mask)

    prog = merge_zero_program(shared.eval_loss, program)
    offset = prog.delta * mask.array
    confusion_after = confusion_matrix(net, metrics_set, offset, class_map)
    [(rn, _)] = alignment_stats(net, eval_set, offset, [mask], class_map)

    run_hash = config_hash(cfg, effective_mask_outer_size=outer)
    record = MetricsRecord(
        source=cfg.source.display_name,
        target=cfg.target.display_name,
        model=cfg.model.tag,
        trained=cfg.model.trained,
        mask_size=mask.size(),
        da=diagonal_accuracy(shared.confusion), ra=diagonal_accuracy(confusion_after),
        r0=shared.r0, rn=rn, g_l1=shared.g_l1,
        seed=cfg.seed,
        config_hash=run_hash,
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_program(prog, out_dir / "program", mask=mask, class_map=class_map, cfg=rc,
                     extra={"config_hash": run_hash})
        save_confusion_csv(shared.confusion, out_dir / "confusion_before.csv")
        save_confusion_csv(confusion_after, out_dir / "confusion_after.csv")
        write_metrics([record], out_dir / "metrics.csv", out_dir / "metrics.jsonl")
    return record


def _load_checkpoint(cfg: ExperimentConfig, model_dir) -> Network:
    """The model at ``model_dir``; ConfigurationError unless its input shape is the config's."""
    net = load_model(model_dir)
    if net.input_shape != cfg.model.input_shape:
        raise ConfigurationError(
            f"checkpoint input shape {net.input_shape} does not match config "
            f"{cfg.model.input_shape}"
        )
    return net


def cmd_reprogram(cfg: ExperimentConfig, model_dir, out_dir=None) -> MetricsRecord:
    """run_reprogram on the checkpoint at ``model_dir``, at one OpenBLAS thread
    like every sweep task, so it gives the bytes of the sweep's row for its size."""
    net = _load_checkpoint(cfg, model_dir)
    with blas_threads(1):
        return run_reprogram(cfg, net,
                             out_dir if out_dir is not None else Path(cfg.out) / "reprogram")


# -- sweep ---------------------------------------------------------------------------------


@dataclass
class _Sweep:
    """What every task of a sweep reads. The parent builds it once, before the
    pool starts; pool workers receive it through the pool initializer, which
    under fork inherits it instead of pickling it. ``masks``, ``sizes`` and
    ``run_dirs`` are aligned: one entry per mask size, in the order given."""

    cfg: ExperimentConfig
    net: Network
    sets: list[LabeledDataset]
    masks: list[Mask]
    sizes: list[int]
    run_dirs: list[str]


@dataclass
class _TaskError:
    """Why one mask's task failed, and in which process."""

    error: str
    pid: int
    traceback: str

    @classmethod
    def of(cls, exc: BaseException, pid: int | None = None) -> "_TaskError":
        return cls(f"{type(exc).__name__}: {exc}", os.getpid() if pid is None else pid,
                   "".join(traceback.format_exception(exc)))


def _per_mask(task):
    """Task decorator: an exception becomes a _TaskError, so only that mask fails."""
    @functools.wraps(task)
    def run(*args):
        try:
            return task(*args)
        except Exception as exc:  # noqa: BLE001 - per-mask isolation
            return _TaskError.of(exc)
    return run


def _zero_task(sweep: _Sweep) -> list[ZeroProgram]:
    return _zero_programs(sweep.cfg, sweep.net, sweep.sets, sweep.masks)


@_per_mask
def _optimize_task(sweep: _Sweep, i: int) -> Program:
    return _best_epoch(sweep.cfg, sweep.net, sweep.sets, sweep.masks[i])


@_per_mask
def _post_task(sweep: _Sweep, i: int, zero: ZeroProgram, program: Program) -> dict:
    return run_reprogram(sweep.cfg, sweep.net, sweep.run_dirs[i], sweep.sizes[i], shared=zero,
                         program=program, sets=sweep.sets).to_json()


# Set only inside pool workers, by the pool initializer.
_worker_sweep: _Sweep | None = None


def _init_worker(sweep: _Sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep
    set_blas_threads(1)


def _in_worker(task, *args):
    return task(_worker_sweep, *args)


def _pool(sweep: _Sweep | None, workers: int) -> ProcessPoolExecutor:
    """A pool whose workers hold ``sweep`` and run one BLAS thread each."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(sweep,))


def _run_now(task, sweep: _Sweep, *args) -> Future:
    """A finished future of task(sweep, *args): the stand-in for a pool at jobs=1."""
    future = Future()
    try:
        future.set_result(task(sweep, *args))
    except Exception as exc:  # noqa: BLE001 - re-raised by future.result()
        future.set_exception(exc)
    return future


def _schedule(sweep: _Sweep, submit, futures: dict[tuple, Future]) -> None:
    """Run a sweep's tasks; ``submit(task, *args)`` returns a future.

    The zero-program task and every mask's optimization are submitted at once.
    Then, in mask order, each mask whose optimization gave a program gets its
    post task. ``futures`` maps ("zero", None), ("optimize", i) and ("post", i)
    to their futures: a future that holds a result is reused, and a task whose
    pool broke under it is submitted again, so a retry picks up where a broken
    pool left off. Raises what a task raised, BrokenProcessPool included.
    """
    def start(key, task, *args) -> Future:
        future = futures.get(key)
        if future is None or isinstance(future.exception(), BrokenProcessPool):
            future = futures[key] = submit(task, *args)
        return future

    zero = start(("zero", None), _zero_task)
    optimized = [start(("optimize", i), _optimize_task, i) for i in range(len(sweep.masks))]
    for i, future in enumerate(optimized):
        program = future.result()
        if not isinstance(program, _TaskError):
            start(("post", i), _post_task, i, zero.result()[i], program)
    for future in futures.values():
        future.result()


def _in_own_worker(sweep: _Sweep, task, *args):
    """Run one task in a one-worker pool of its own, so that a task that kills
    its worker fails its mask alone (or, for the zero-program task, the sweep)."""
    with _pool(sweep, 1) as pool:
        pid = pool.submit(os.getpid).result()
        try:
            return pool.submit(_in_worker, task, *args).result()
        except BrokenProcessPool as exc:
            if task is _zero_task:
                raise
            return _TaskError.of(exc, pid)


def cmd_sweep(cfg: ExperimentConfig, model_dir, out_dir=None, jobs: int = 1) -> tuple[list, list]:
    """One reprogramming run per mask outer size; task failures isolate per run.

    The parent loads the checkpoint (_load_checkpoint), then builds the target
    sets and every mask once, in run_reprogram's order, and runs the sweep's
    tasks (_schedule): one zero-program task, and per mask an optimization
    followed by a post task. At ``jobs`` = 1 they run inline in a fixed order,
    otherwise on one pool of ``jobs`` workers; either way at one OpenBLAS thread.
    ``jobs`` below 1, a repeated size, a checkpoint whose input shape is not
    the config's, target sets that cannot be built, or a size whose mask cannot
    be built, raises before any task runs and before anything is written, with
    the error ``reprogram`` gives. An error in the zero-program task fails the
    sweep. A mask whose optimization or post task raises fails alone. When a
    worker dies, finished results are kept and the lost tasks run again one at
    a time, each in a fresh worker (_in_own_worker). Returns (records,
    failures). The combined CSV, JSON lines and ``failures.json`` are written
    afresh, rows in the order the sizes were given, so a re-run into the same
    directory replaces them.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    sizes = list(cfg.mask_outer_sizes)
    if len(sizes) < 2:
        raise ConfigurationError("a sweep needs at least 2 mask sizes")
    repeated = sorted({size for size in sizes if sizes.count(size) > 1})
    if repeated:
        raise ConfigurationError(f"mask_outer_sizes repeats {repeated}; each size runs once")
    net = _load_checkpoint(cfg, model_dir)
    out_dir = Path(out_dir if out_dir is not None else Path(cfg.out) / "sweep")
    run_dirs = [str(out_dir / f"mask_{size}") for size in sizes]

    sets = _target_sets(cfg)  # before the masks, as run_reprogram builds them
    sweep = _Sweep(cfg, net, sets, [_build_mask(cfg, size) for size in sizes], sizes, run_dirs)
    futures: dict[tuple, Future] = {}
    if jobs > 1:
        try:
            with _pool(sweep, min(jobs, len(sizes) + 1)) as pool:
                _schedule(sweep, lambda task, *args: pool.submit(_in_worker, task, *args),
                          futures)
        except BrokenProcessPool:
            # A worker died; run the lost tasks again, each in a fresh worker.
            _schedule(sweep, lambda task, *args: _run_now(_in_own_worker, sweep, task, *args),
                      futures)
    else:
        # One BLAS thread, as in a pool worker: the thread count can decide
        # the last bits of a GEMM, and jobs must not change the bytes.
        with blas_threads(1):
            _schedule(sweep, lambda task, *args: _run_now(task, sweep, *args), futures)

    failures: dict[int, _TaskError] = {}
    rows: dict[int, dict] = {}
    for (kind, i), future in futures.items():
        value = future.result()
        if isinstance(value, _TaskError):
            failures[i] = value
        elif kind == "post":
            rows[i] = value
    records = [MetricsRecord(**rows[i]) for i in sorted(rows)]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(records, out_dir / "metrics.csv", out_dir / "metrics.jsonl")
    failures_path = out_dir / "failures.json"
    if failures:
        replace_file(failures_path, json.dumps([
            {"mask_outer_size": sizes[i], "error": f.error,
             "config_hash": config_hash(cfg, effective_mask_outer_size=sizes[i]),
             "pid": f.pid, "traceback": f.traceback}
            for i, f in sorted(failures.items())], indent=1))
    else:
        failures_path.unlink(missing_ok=True)
    return records, [(sizes[i], failures[i].error) for i in sorted(failures)]


# -- correlate ------------------------------------------------------------------------------


_NUMERIC_COLUMNS = {"mask_size", "DA", "RA", "r0", "rN", "g_l1", "seed"}


def _column(records: list[MetricsRecord], name: str) -> np.ndarray:
    attr = {"DA": "da", "RA": "ra", "r0": "r0", "rN": "rn"}.get(name, name)
    if name not in _NUMERIC_COLUMNS:
        raise SchemaError(
            f"unknown column {name!r}; numeric columns: {sorted(_NUMERIC_COLUMNS)}"
        )
    return np.asarray([float(getattr(r, attr)) for r in records])


def cmd_correlate(metrics_csv, x_column: str, y_column: str,
                  methods=("pearson", "spearman", "kendall"), n_permutations: int = 10000,
                  seed: int = 0, out_dir=None) -> list:
    if not methods:
        raise ConfigurationError("no correlation method given")
    records = read_metrics_csv(metrics_csv)
    if len(records) < 3:
        raise ConfigurationError(f"need at least 3 metric rows, got {len(records)}")
    x = _column(records, x_column)
    y = _column(records, y_column)
    results = [
        permutation_pvalue(x, y, method=method, n_permutations=n_permutations, seed=seed)
        for method in methods
    ]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        correlations = [["method", "x", "y", "n", "coefficient", "p_value",
                         "n_permutations", "seed"]]
        for res in results:
            correlations.append([res.method, x_column, y_column, len(x), repr(res.coefficient),
                                 repr(res.p_value), res.n_permutations, res.seed])
        replace_file(out_dir / "correlations.csv", csv_text(correlations))
        scatter = [[x_column, y_column, "label"]]
        for record, xv, yv in zip(records, x, y):
            label = f"{record.model}|{record.source}->{record.target}|" \
                    f"{'T' if record.trained else 'U'}|m{record.mask_size}"
            scatter.append([repr(float(xv)), repr(float(yv)), label])
        replace_file(out_dir / "scatter.csv", csv_text(scatter))
    return results


# -- entry point ---------------------------------------------------------------------------


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    overrides = {name: getattr(args, name) for name in ("seed", "out")
                 if getattr(args, name) is not None}
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolab",
        description="Adversarial reprogramming lab: train targets, optimize programs, "
                    "sweep mask sizes, and correlate diagnostics with success.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment YAML")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p_train = sub.add_parser("train", help="train or initialize the source model")
    add_common(p_train)

    p_rep = sub.add_parser("reprogram", help="optimize a program against a checkpoint")
    add_common(p_rep)
    p_rep.add_argument("--model", required=True, help="model checkpoint directory")

    p_sweep = sub.add_parser("sweep", help="reprogram once per configured mask size")
    add_common(p_sweep)
    p_sweep.add_argument("--model", required=True, help="model checkpoint directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")

    p_corr = sub.add_parser("correlate", help="correlate two metrics columns")
    p_corr.add_argument("--metrics", required=True, help="metrics CSV produced by runs")
    p_corr.add_argument("--x", required=True, help="x column (e.g. RA)")
    p_corr.add_argument("--y", required=True, help="y column (e.g. rN)")
    p_corr.add_argument("--methods", default="pearson,spearman,kendall")
    p_corr.add_argument("--permutations", type=int, default=10000)
    p_corr.add_argument("--seed", type=int, default=0)
    p_corr.add_argument("--out", default=None, help="directory for correlation reports")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cfg = _apply_overrides(load_config(args.config), args)
            out = cmd_train(cfg)
            print(f"checkpoint written to {out}")
        elif args.command == "reprogram":
            cfg = _apply_overrides(load_config(args.config), args)
            record = cmd_reprogram(cfg, args.model)
            print(",".join(CSV_HEADER))
            print(",".join(record.to_csv_row()))
        elif args.command == "sweep":
            cfg = _apply_overrides(load_config(args.config), args)
            records, failures = cmd_sweep(cfg, args.model, jobs=args.jobs)
            for record in records:
                print(",".join(record.to_csv_row()))
            for size, error in failures:
                print(f"mask size {size} failed: {error}", file=sys.stderr)
            if failures:
                return EXIT_PARTIAL
        elif args.command == "correlate":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            results = cmd_correlate(
                args.metrics, args.x, args.y, methods=methods,
                n_permutations=args.permutations, seed=args.seed, out_dir=args.out,
            )
            for res in results:
                print(f"{res.method}: coefficient={res.coefficient:+.4f} "
                      f"p={res.p_value:.5f} (P={res.n_permutations}, seed={res.seed})")
    except ReproLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
