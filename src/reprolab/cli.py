"""Experiment driver: train, reprogram, sweep, correlate.

Every emitted metrics row carries the seed and the canonical config hash of
the run that produced it, so any row regenerates from its configuration
alone. Exit codes: 0 all requested runs completed, 3 partial failure inside a
sweep, 1 hard failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    DatasetSpec,
    ExperimentConfig,
    config_hash,
    config_to_dict,
    load_config,
)
from .datasets import (
    LabeledDataset,
    PadSpec,
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
    diagonal_accuracy,
    read_metrics_csv,
    replace_file,
    save_confusion_csv,
    write_metrics,
    zero_program_alignment,
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
    build_class_map,
    build_frame_mask,
    optimize_program,
    save_program,
    zero_program_loss,
)
from .stats import permutation_pvalue

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 3


# -- dataset assembly ---------------------------------------------------------------


def _load_raw(spec: DatasetSpec, seed: int, train: bool) -> LabeledDataset:
    if spec.kind == "idx":
        if train:
            return load_idx(spec.images, spec.labels)
        if spec.test_images is None:
            raise ConfigurationError(f"{spec.display_name}: no test IDX files configured")
        return load_idx(spec.test_images, spec.test_labels)
    per_class = spec.per_class if train else spec.test_per_class
    return synth_target_dataset(
        seed=seed + (0 if train else 1),
        num_classes=spec.num_classes,
        per_class=per_class,
        size=spec.image_size,
        family=spec.family,
        noise_amplitude=spec.noise_amplitude,
        max_shift=spec.max_shift,
        name=spec.display_name,
    )


def _pad_spec(cfg: ExperimentConfig, spec: DatasetSpec) -> PadSpec:
    return PadSpec(target_size=cfg.model.input_shape, inner_size=spec.image_size)


# -- train ---------------------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Train (or initialize, for the untrained condition) the source model."""
    out_dir = Path(out_dir if out_dir is not None else Path(cfg.out) / "model")
    out_dir.mkdir(parents=True, exist_ok=True)
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
        pad = _pad_spec(cfg, cfg.source)
        train_ds = preprocess(raw_train, pad)
        test_ds = preprocess(raw_test, pad)
        net.set_input_standardization(train_ds)
        train_cfg = cfg.train
        if train_cfg.seed != cfg.seed:
            train_cfg = type(train_cfg)(
                epochs=train_cfg.epochs, learning_rate=train_cfg.learning_rate,
                momentum=train_cfg.momentum, batch_size=train_cfg.batch_size, seed=cfg.seed,
            )
        net, history = train_sgd(net, train_ds, train_cfg)
        test_accuracy = accuracy(net, test_ds)

    save_model(net, out_dir)
    with open(out_dir / "training_loss.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for i, value in enumerate(history):
            writer.writerow([i, repr(value)])
    summary = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "trained": cfg.model.trained,
        "source": cfg.source.display_name,
        "test_accuracy": test_accuracy,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
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
    raw = synth_or_idx_target(cfg)
    sizes = [rc.opt_set_size, rc.eval_set_size, rc.metrics_set_size]
    if sum(sizes) > len(raw):
        raise ConfigurationError(
            f"target dataset has {len(raw)} samples but the run needs {sum(sizes)} "
            "(opt + eval + metrics)"
        )
    pad = _pad_spec(cfg, cfg.target)
    return [preprocess(part, pad) for part in split_dataset(raw, sizes, cfg.seed)]


def _build_mask(cfg: ExperimentConfig, outer_size) -> Mask:
    return build_frame_mask(cfg.model.input_shape, cfg.target.image_size, outer_size)


def _class_map(cfg: ExperimentConfig, net: Network):
    return build_class_map(cfg.target.num_classes, cfg.class_map, net.num_classes)


def _zero_programs(cfg: ExperimentConfig, net: Network, sets: list[LabeledDataset],
                   masks: list[Mask]) -> list[ZeroProgram]:
    """The zero-program stage for each mask: one loss pass, one confusion pass
    and one backward per batch, whatever the number of masks."""
    opt_set, eval_set, metrics_set = sets
    class_map = _class_map(cfg, net)
    net.set_requires_grad(False)
    eval_loss = zero_program_loss(net, opt_set, eval_set, class_map, cfg.reprogram)
    confusion = confusion_matrix(net, metrics_set, None, masks[0], class_map)
    return [ZeroProgram(eval_loss, confusion, r0, g_l1)
            for r0, g_l1 in zero_program_alignment(net, eval_set, masks, class_map)]


def run_reprogram(cfg: ExperimentConfig, net: Network, out_dir=None,
                  mask_outer_size=None, shared: ZeroProgram | None = None) -> MetricsRecord:
    """Optimize a program against ``net`` and emit metrics and checkpoints.

    ``shared`` holds this mask's zero-program results when a sweep has computed
    them for all its sizes at once; without it they are computed here.
    """
    outer = mask_outer_size if mask_outer_size is not None else cfg.mask_outer_size
    rc = cfg.reprogram
    sets = _target_sets(cfg)
    opt_set, eval_set, metrics_set = sets
    mask = _build_mask(cfg, outer)
    class_map = _class_map(cfg, net)
    if shared is None:
        shared = _zero_programs(cfg, net, sets, [mask])[0]

    prog = optimize_program(net, opt_set, eval_set, mask, class_map, rc,
                            initial_loss=shared.eval_loss)
    confusion_after = confusion_matrix(net, metrics_set, prog, mask, class_map)
    rn, _ = alignment_stats(net, eval_set, prog, mask, class_map)

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


def synth_or_idx_target(cfg: ExperimentConfig) -> LabeledDataset:
    rc = cfg.reprogram
    needed = rc.opt_set_size + rc.eval_set_size + rc.metrics_set_size
    if cfg.target.kind == "idx":
        return _load_raw(cfg.target, cfg.seed, train=True)
    per_class = max(cfg.target.per_class, -(-needed // cfg.target.num_classes))
    return synth_target_dataset(
        seed=cfg.seed + 2,
        num_classes=cfg.target.num_classes,
        per_class=per_class,
        size=cfg.target.image_size,
        family=cfg.target.family,
        noise_amplitude=cfg.target.noise_amplitude,
        max_shift=cfg.target.max_shift,
        name=cfg.target.display_name,
    )


def cmd_reprogram(cfg: ExperimentConfig, model_dir, out_dir=None) -> MetricsRecord:
    net = load_model(model_dir)
    if net.input_shape != cfg.model.input_shape:
        raise ConfigurationError(
            f"checkpoint input shape {net.input_shape} does not match config "
            f"{cfg.model.input_shape}"
        )
    return run_reprogram(cfg, net, out_dir if out_dir is not None else Path(cfg.out) / "reprogram")


# -- sweep ---------------------------------------------------------------------------------


def _sweep_worker(config_dict: dict, model_dir: str, outer_size: int, out_dir: str,
                  shared: ZeroProgram) -> dict:
    from .config import config_from_dict

    cfg = config_from_dict(config_dict)
    net = load_model(model_dir)
    record = run_reprogram(cfg, net, out_dir, mask_outer_size=outer_size, shared=shared)
    return record.to_json()


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def cmd_sweep(cfg: ExperimentConfig, model_dir, out_dir=None, jobs: int = 1) -> tuple[list, list]:
    """One reprogramming run per mask outer size; failures isolate per run.

    The zero-program stage (evaluation loss, confusion matrix, r0 and g_l1 of
    every size) runs once, before any run starts; an error there fails the
    sweep. A size whose mask cannot be built, or whose run raises, fails
    alone. Returns (records, failures). The combined CSV, JSON lines and
    ``failures.json`` are written afresh, rows in the order the sizes were
    given, so a re-run into the same directory replaces them.
    """
    sizes = list(cfg.mask_outer_sizes)
    if len(sizes) < 2:
        raise ConfigurationError("a sweep needs at least 2 mask sizes")
    out_dir = Path(out_dir if out_dir is not None else Path(cfg.out) / "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    config_dict = config_to_dict(cfg)
    run_dirs = [str(out_dir / f"mask_{size}") for size in sizes]

    errors: list[str | None] = [None] * len(sizes)
    masks: dict[int, Mask] = {}
    for i, size in enumerate(sizes):
        try:
            masks[i] = _build_mask(cfg, size)
        except ReproLabError as exc:
            errors[i] = _error_text(exc)
    net = load_model(model_dir)
    shared = {}
    if masks:
        # The target sets are dropped when this returns, before workers fork.
        stage = _zero_programs(cfg, net, _target_sets(cfg), list(masks.values()))
        shared = dict(zip(masks, stage))

    results: list[dict | None] = [None] * len(sizes)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                i: pool.submit(_sweep_worker, config_dict, str(model_dir), sizes[i],
                               run_dirs[i], zero)
                for i, zero in shared.items()
            }
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except Exception as exc:  # noqa: BLE001 - per-run isolation
                    errors[i] = _error_text(exc)
    else:
        for i, zero in shared.items():
            try:
                results[i] = run_reprogram(cfg, net, run_dirs[i], mask_outer_size=sizes[i],
                                           shared=zero).to_json()
            except Exception as exc:  # noqa: BLE001 - per-run isolation
                errors[i] = _error_text(exc)

    records = [MetricsRecord(**row) for row in results if row is not None]
    write_metrics(records, out_dir / "metrics.csv", out_dir / "metrics.jsonl")
    failures = [(size, error) for size, error in zip(sizes, errors) if error is not None]
    failures_path = out_dir / "failures.json"
    if failures:
        replace_file(failures_path, json.dumps(
            [{"mask_outer_size": s, "error": e} for s, e in failures], indent=1))
    else:
        failures_path.unlink(missing_ok=True)
    return records, failures


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
        with open(out_dir / "correlations.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "x", "y", "n", "coefficient", "p_value",
                             "n_permutations", "seed"])
            for res in results:
                writer.writerow([res.method, x_column, y_column, len(x), repr(res.coefficient),
                                 repr(res.p_value), res.n_permutations, res.seed])
        with open(out_dir / "scatter.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([x_column, y_column, "label"])
            for record, xv, yv in zip(records, x, y):
                label = f"{record.model}|{record.source}->{record.target}|" \
                        f"{'T' if record.trained else 'U'}|m{record.mask_size}"
                writer.writerow([repr(float(xv)), repr(float(yv)), label])
    return results


# -- entry point ---------------------------------------------------------------------------


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolab",
        description="Adversarial reprogramming lab: train targets, optimize programs, "
                    "sweep mask sizes, and correlate diagnostics with success.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
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
