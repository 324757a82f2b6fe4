"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
The desk-scale experiments (criteria 6-8) train a small model and run full
reprogramming protocols; REPROLAB_ACCEPT_CACHE=<dir> caches their artifacts
keyed by config hash for repeated local runs.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import reprolab.tensor as T
from reprolab.cli import cmd_train, run_reprogram
from reprolab.config import DatasetSpec, ExperimentConfig, ModelSpec, config_hash
from reprolab.datasets import preprocess, split_dataset, synth_target_dataset
from reprolab.diagnostics import (
    MetricsRecord,
    alignment_stats,
    confusion_matrix,
    domain_alignment,
    gradient_alignment,
    predicted_loss_drop,
    read_metrics_csv,
    reprogramming_accuracy,
)
from reprolab.models import TrainConfig, accuracy, build_cwnet, init_weights, load_model
from reprolab.reprogram import (
    ReprogramConfig,
    box_project,
    build_class_map,
    build_frame_mask,
    average_masked_gradient,
    merge_zero_program,
    optimize_program,
    zero_program_loss,
)
from reprolab.stats import kendall_tau, pearson, permutation_pvalue, spearman
from reprolab.tensor import Tensor, softmax_cross_entropy

from oracles import (
    finite_diff_check,
    grid_min_inner_product,
    kendall_tau_b_loops,
    linear_network,
    pearson_fraction,
    spearman_rank_then_pearson,
)


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


# ---------------------------------------------------------------------------
# Desk-scale experiment suite (shared by criteria 6-9 and 11)
# ---------------------------------------------------------------------------

INPUT_SHAPE = (3, 64, 64)
INNER = (28, 28)

SOURCE = dict(kind="synthetic", family="strokes", per_class=400, test_per_class=40,
              image_size=INNER, noise_amplitude=70.0, max_shift=3, contrast_jitter=0.5)
TARGET = dict(kind="synthetic", family="outline", per_class=300, image_size=INNER,
              noise_amplitude=20.0, max_shift=1)

FULL_PROTOCOL = dict(eta=0.005, epochs=100, batch_size=50, opt_set_size=1500,
                     eval_set_size=500, metrics_set_size=500)
SWEEP_PROTOCOL = dict(eta=0.005, epochs=25, batch_size=50, opt_set_size=800,
                      eval_set_size=300, metrics_set_size=400)
UNTRAINED_PROTOCOL = dict(eta=0.005, epochs=15, batch_size=50, opt_set_size=800,
                          eval_set_size=300, metrics_set_size=400)
SWEEP_SIZES = [36, 48, 64]


def _experiment_config(out, seed=7, trained=True, protocol=FULL_PROTOCOL,
                       outer_size=None) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        out=str(out),
        source=DatasetSpec(**SOURCE),
        target=DatasetSpec(**TARGET),
        model=ModelSpec(input_shape=INPUT_SHAPE, width_scale=0.25, trained=trained,
                        dropout_enabled=True, dropout_rate=0.5),
        train=TrainConfig(epochs=10, learning_rate=0.001, momentum=0.9, batch_size=10,
                          seed=seed),
        reprogram=ReprogramConfig(seed=seed, **protocol),
        mask_outer_size=outer_size,
    )


def _cache_dir():
    root = os.environ.get("REPROLAB_ACCEPT_CACHE")
    return Path(root) if root else None


def _train_checkpoint(cfg: ExperimentConfig, tmp: Path) -> Path:
    cache = _cache_dir()
    key = config_hash(cfg)
    if cache is not None:
        cached = cache / f"model-{key}"
        if (cached / "manifest.json").exists():
            return cached
        out = cmd_train(cfg, cached)
        return out
    return cmd_train(cfg, tmp / f"model-{key}")


def _run(cfg: ExperimentConfig, model_dir: Path, tmp: Path, outer_size=None):
    """run_reprogram with optional on-disk caching of the metrics row."""
    cache = _cache_dir()
    key = config_hash(cfg, effective_mask_outer_size=outer_size)
    if cache is not None:
        row_dir = cache / f"run-{key}"
        csv_path = row_dir / "metrics.csv"
        if csv_path.exists():
            record = read_metrics_csv(csv_path)[0]
            elapsed = float((row_dir / "elapsed.txt").read_text())
            return record, elapsed, row_dir
        out_dir = row_dir
    else:
        out_dir = tmp / f"run-{key}"
    net = load_model(model_dir)
    start = time.perf_counter()
    record = run_reprogram(cfg, net, out_dir, mask_outer_size=outer_size)
    elapsed = time.perf_counter() - start
    (Path(out_dir) / "elapsed.txt").write_text(repr(elapsed))
    return record, elapsed, Path(out_dir)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trained_model(workdir):
    cfg = _experiment_config(workdir / "train")
    start = time.perf_counter()
    model_dir = _train_checkpoint(cfg, workdir)
    elapsed = time.perf_counter() - start
    return {"cfg": cfg, "dir": model_dir, "train_elapsed": elapsed}


@pytest.fixture(scope="module")
def big_run(workdir, trained_model):
    cfg = _experiment_config(workdir / "big", protocol=FULL_PROTOCOL)
    record, elapsed, out_dir = _run(cfg, trained_model["dir"], workdir)
    return {"cfg": cfg, "record": record,
            "elapsed": elapsed + trained_model["train_elapsed"], "dir": out_dir,
            "model_dir": trained_model["dir"]}


@pytest.fixture(scope="module")
def sweep_records(workdir, trained_model):
    records = []
    for size in SWEEP_SIZES:
        cfg = _experiment_config(workdir / f"sweep{size}", protocol=SWEEP_PROTOCOL,
                                 outer_size=size)
        record, _, _ = _run(cfg, trained_model["dir"], workdir, outer_size=size)
        records.append(record)
    return records


@pytest.fixture(scope="module")
def suite_records(workdir, big_run, sweep_records, trained_model):
    """>= 8 desk-scale rows mixing trained/untrained models and mask sizes."""
    records = [big_run["record"], *sweep_records]
    extra_cfg = _experiment_config(workdir / "extra56", protocol=SWEEP_PROTOCOL,
                                   outer_size=56)
    record, _, _ = _run(extra_cfg, trained_model["dir"], workdir, outer_size=56)
    records.append(record)
    untrained_cfg = _experiment_config(workdir / "untrain", seed=19, trained=False)
    untrained_dir = _train_checkpoint(untrained_cfg, workdir)
    for size in SWEEP_SIZES:
        cfg = _experiment_config(workdir / f"u{size}", seed=19, trained=False,
                                 protocol=UNTRAINED_PROTOCOL, outer_size=size)
        record, _, _ = _run(cfg, untrained_dir, workdir, outer_size=size)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    primitive_worst = 0.0

    for seed in range(20):
        rng = np.random.default_rng([seed, 1])
        # matmul: input and weight routes
        a = rng.normal(0, 1, (3, 4))
        w = Tensor(rng.normal(0, 1, (4, 2)))
        r = Tensor(rng.normal(0, 1, (3, 2)))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.matmul(t, w) * r).sum(), Tensor(a)))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.matmul(Tensor(a), t) * r).sum(), Tensor(w.array.copy())))
        # conv2d: input and kernel routes (stride 1 pad 1 and stride 2)
        x = rng.normal(0, 1, (2, 6, 6))
        k = Tensor(rng.normal(0, 1, (3, 2, 3, 3)))
        rc = Tensor(rng.normal(0, 1, (3, 6, 6)))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.conv2d(t, k, 1, 1) * rc).sum(), Tensor(x)))
        rc2 = Tensor(rng.normal(0, 1, (3, 3, 3)))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.conv2d(Tensor(x), t, 2, 1) * rc2).sum(), Tensor(k.array.copy())))
        # maxpool: margin away from within-window ties
        base = rng.normal(0, 1, (2, 4, 4))
        base += 0.05 * np.arange(base.size).reshape(base.shape)
        rp = Tensor(rng.normal(0, 1, (2, 2, 2)))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.maxpool2d(t) * rp).sum(), Tensor(base)))
        # relu: margin away from the kink
        v = rng.normal(0, 1, 24)
        v = np.sign(v) * (np.abs(v) + 0.05)
        rr = Tensor(rng.normal(0, 1, 24))
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: (T.relu(t) * rr).sum(), Tensor(v)))
        # softmax cross-entropy
        logits = rng.normal(0, 2, (4, 5))
        labels = rng.integers(0, 5, 4)
        primitive_worst = max(primitive_worst, finite_diff_check(
            lambda t: softmax_cross_entropy(t, labels), Tensor(logits)))

    composite_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 2])
        net = init_weights(build_cwnet((3, 12, 12), width_scale=0.25), seed)
        x = rng.normal(0, 1, (1, 3, 12, 12))
        labels = rng.integers(0, 10, 1)
        composite_worst = max(composite_worst, finite_diff_check(
            lambda t: softmax_cross_entropy(net.forward(t), labels), Tensor(x)))

    elapsed = time.perf_counter() - start
    ok = primitive_worst <= 1e-7 and composite_worst <= 1e-4 and elapsed < 60
    _criterion(1, "gradient correctness (finite differences, 20 seeds)", ok,
               f"primitives {primitive_worst:.2e}, composite {composite_worst:.2e}, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: first-order exactness on a frozen linear model
# ---------------------------------------------------------------------------


def _mean_logit(logits, labels):
    return T.tensor_mean(logits)


def test_criterion_02_linear_model_exactness():
    rng = np.random.default_rng(22)
    w = rng.normal(0, 0.7, (1, 12, 12))
    model = linear_network(w, (1, 12, 12))
    raw = synth_target_dataset(5, per_class=2, size=(6, 6))
    ds = preprocess(raw, (1, 12, 12))
    mask = build_frame_mask((1, 12, 12), (6, 6))
    cm = build_class_map(10, "first-ten")
    eta = 1.0 / 128.0
    cfg = ReprogramConfig(eta=eta, epochs=130, batch_size=len(ds), opt_set_size=len(ds),
                          eval_set_size=len(ds), seed=2)
    prog = merge_zero_program(zero_program_loss(model, ds, cm, loss_fn=_mean_logit),
                              optimize_program(model, ds, ds, mask, cm, cfg, loss_fn=_mean_logit))
    g = average_masked_gradient(model, ds.images.array, ds.labels,
                                np.zeros((1, 12, 12)), mask, cm, loss_fn=_mean_logit)
    predicted = predicted_loss_drop(g, np.inf, 1.0)
    achieved = prog.best_loss - prog.history[0]
    sign_exact = np.array_equal(prog.delta * mask.array, -np.sign(g) * mask.array)
    ok = abs(achieved - predicted) < 1e-9 and sign_exact
    _criterion(2, "linear-model loss drop equals -||g||_1; delta saturates at -sign(g)",
               ok, f"|achieved-predicted|={abs(achieved - predicted):.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: dual-norm predictor vs grid search
# ---------------------------------------------------------------------------


def test_criterion_03_dual_norm_predictor():
    rng = np.random.default_rng(33)
    worst_rel = 0.0
    for dims in (2, 3):
        for p in (1, 2, np.inf):
            for _ in range(3):
                g = rng.normal(0, 1, dims)
                eps = float(rng.uniform(0.2, 1.5))
                predicted = predicted_loss_drop(g, p, eps)
                brute = grid_min_inner_product(g, p, eps, points=41)
                worst_rel = max(worst_rel, abs(predicted - brute) / abs(predicted))
    ok = worst_rel <= 0.02
    _criterion(3, "dual-norm loss-drop predictor matches epsilon-ball grid search",
               ok, f"worst relative gap {worst_rel:.4f}")


# ---------------------------------------------------------------------------
# Criterion 4: r-metric properties
# ---------------------------------------------------------------------------


def test_criterion_04_r_metric_properties():
    rng = np.random.default_rng(44)
    in_bounds = True
    for _ in range(1000):
        count = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 12))
        grads = rng.normal(0, rng.uniform(0.1, 10), (count, dim))
        r = gradient_alignment(list(grads))
        if not (0.0 <= r <= 1.0 + 1e-12):
            in_bounds = False
            break
    orthogonal = gradient_alignment([np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])])
    cancel = gradient_alignment([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    ok = in_bounds and orthogonal == 1.0 and cancel == 0.0
    _criterion(4, "gradient alignment r in [0,1]; orthogonal example = 1; cancellation = 0",
               ok, f"orthogonal={orthogonal}, cancellation={cancel}")


# ---------------------------------------------------------------------------
# Criterion 5: Algorithm contract
# ---------------------------------------------------------------------------


def test_criterion_05_optimizer_contract():
    net = init_weights(build_cwnet((3, 16, 16), width_scale=0.25), 5)
    raw = synth_target_dataset(6, per_class=4, size=(8, 8), family="outline")
    ds = preprocess(raw, (3, 16, 16))
    mask = build_frame_mask((3, 16, 16), (8, 8))
    cm = build_class_map(10, "first-ten")

    zero_cfg = ReprogramConfig(eta=0.005, epochs=0, batch_size=10, seed=1)
    zero_loss = zero_program_loss(net, ds, cm)
    zero_prog = merge_zero_program(zero_loss, optimize_program(net, ds, ds, mask, cm, zero_cfg))
    zero_ok = np.array_equal(zero_prog.delta, np.zeros((3, 16, 16))) and \
        zero_prog.history == [zero_prog.best_loss]

    cfg = ReprogramConfig(eta=0.3, epochs=4, batch_size=10, seed=9)
    violations = []
    snapshots = []

    def check(epoch, batch, delta):
        snapshots.append((epoch, batch, delta))
        if delta.min() < -1.0 or delta.max() > 1.0:
            violations.append("box")
        if np.abs(delta[mask.array == 0]).max(initial=0.0) != 0.0:
            violations.append("mask")

    prog = merge_zero_program(zero_loss,
                              optimize_program(net, ds, ds, mask, cm, cfg, step_callback=check))

    from reprolab.datasets import make_batches

    batch0 = make_batches(ds, 10, cfg.seed, 0)[0]
    g0 = average_masked_gradient(net, ds.images.array[batch0], ds.labels[batch0],
                                 np.zeros((3, 16, 16)), mask, cm)
    first_ok = np.array_equal(snapshots[0][2], box_project(-cfg.eta * np.sign(g0)))
    ok = zero_ok and not violations and first_ok and prog.best_loss == min(prog.history)
    _criterion(5, "optimizer: best=min(history), box+mask at every step, N=0 and "
               "first-step contracts", ok,
               f"{len(snapshots)} steps observed")


# ---------------------------------------------------------------------------
# Criteria 6-9: desk-scale experiments
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_criterion_06_desk_scale_success(big_run):
    record = big_run["record"]
    ok = (record.ra >= 0.70 and (record.ra - record.da) >= 0.40
          and big_run["elapsed"] < 1800)
    _criterion(6, "trained CWNet-small reprograms to RA >= 70 with RA-DA >= 40 in "
               "under 30 minutes", ok,
               f"RA={record.ra:.3f}, DA={record.da:.3f}, "
               f"elapsed={big_run['elapsed']:.0f}s")


@pytest.mark.acceptance
def test_criterion_07_mask_size_trend(sweep_records):
    sizes = [r.mask_size for r in sweep_records]
    ras = [r.ra for r in sweep_records]
    monotone = all(ras[i + 1] >= ras[i] - 0.03 for i in range(len(ras) - 1))
    rho = spearman(sizes, ras)
    ok = len(sweep_records) >= 3 and monotone and rho > 0
    _criterion(7, "RA non-decreasing in mask size (3-point tolerance), "
               "Spearman(RA, mask) > 0", ok,
               f"sizes={sizes}, RA={[round(v, 3) for v in ras]}, spearman={rho:.3f}")


@pytest.mark.acceptance
def test_criterion_08_alignment_accuracy_correlation(suite_records):
    ras = [r.ra for r in suite_records]
    rns = [r.rn for r in suite_records]
    result = permutation_pvalue(ras, rns, method="spearman", n_permutations=10000, seed=0)
    untrained = [r for r in suite_records if not r.trained]
    trained = [r for r in suite_records if r.trained]
    corner = (all(r.ra <= 0.30 for r in untrained) and
              max(r.rn for r in untrained) < np.median([r.rn for r in trained]))
    ok = (len(suite_records) >= 8 and result.coefficient > 0
          and result.p_value < 0.05 and corner)
    _criterion(8, "Spearman(RA, rN) > 0 with permutation p < 0.05 over mixed runs; "
               "untrained runs in the low-RA, low-rN corner", ok,
               f"n={len(suite_records)}, rho={result.coefficient:.3f}, "
               f"p={result.p_value:.5f}, untrained RA max="
               f"{max(r.ra for r in untrained):.3f}")


@pytest.mark.acceptance
def test_criterion_09_domain_alignment_behavior(big_run):
    net = load_model(big_run["model_dir"])
    cfg = big_run["cfg"]
    rc = cfg.reprogram
    raw = synth_target_dataset(cfg.seed + 2, num_classes=10,
                               per_class=max(TARGET["per_class"],
                                             -(-(rc.opt_set_size + rc.eval_set_size
                                                 + rc.metrics_set_size) // 10)),
                               size=INNER, family="outline",
                               noise_amplitude=TARGET["noise_amplitude"],
                               max_shift=TARGET["max_shift"])
    _, _, metrics_raw = split_dataset(
        raw, [rc.opt_set_size, rc.eval_set_size, rc.metrics_set_size], cfg.seed)
    metrics_set = preprocess(metrics_raw, INPUT_SHAPE)
    mask = build_frame_mask(INPUT_SHAPE, INNER)
    cm = build_class_map(10, "first-ten", 10)
    counts = confusion_matrix(net, metrics_set, None, cm)
    majority = counts.sum(axis=0).max() / counts.sum()
    da = domain_alignment(net, metrics_set, cm)
    ra0 = reprogramming_accuracy(net, metrics_set, np.zeros(mask.array.shape), cm)
    ok = majority >= 0.50 and ra0 == da
    _criterion(9, "zero-program confusion concentrates (majority column >= 50%); "
               "RA(0) == DA bitwise", ok,
               f"majority={majority:.3f}, DA={da:.3f}")


# ---------------------------------------------------------------------------
# Criterion 10: statistics correctness
# ---------------------------------------------------------------------------


def test_criterion_10_statistics_correctness():
    rng = np.random.default_rng(1010)
    coeff_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 12))
        x = rng.normal(0, 2, n)
        y = rng.normal(0, 2, n)
        if abs(pearson(x, y) - pearson_fraction(x, y)) > 1e-12:
            coeff_ok = False
        xt = rng.integers(0, 5, n).astype(float)
        if (xt != xt[0]).any():
            if abs(spearman(xt, y) - spearman_rank_then_pearson(xt, y)) > 1e-12:
                coeff_ok = False
            if kendall_tau(xt, y) != kendall_tau_b_loops(list(xt), list(y)):
                coeff_ok = False

    x5 = rng.normal(0, 1, 5)
    y5 = rng.normal(0, 1, 5)
    exhaustive = permutation_pvalue(x5, y5, method="pearson", exhaustive=True)
    observed = abs(pearson(x5, y5))
    count = sum(1 for perm in itertools.permutations(y5)
                if abs(pearson(x5, np.array(perm))) >= observed)
    exhaustive_ok = exhaustive.p_value == count / 120.0 and exhaustive.n_permutations == 120

    null_rng = np.random.default_rng(77)
    hits = 0
    for _ in range(200):
        xs = null_rng.uniform(0, 1, 20)
        ys = null_rng.uniform(0, 1, 20)
        if permutation_pvalue(xs, ys, method="pearson", n_permutations=99,
                              seed=1).p_value <= 0.05:
            hits += 1
    rate = hits / 200
    ok = coeff_ok and exhaustive_ok and 0.02 <= rate <= 0.09
    _criterion(10, "coefficients match oracles; exhaustive p exact; null calibration "
               "in [0.02, 0.09]", ok, f"false-positive rate {rate:.3f}")


# ---------------------------------------------------------------------------
# Criterion 11: reproducibility
# ---------------------------------------------------------------------------


def test_criterion_11_row_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        seed=3,
        out=str(tmp_path / "rep"),
        source=DatasetSpec(kind="synthetic", family="strokes", per_class=30,
                           test_per_class=10, image_size=(8, 8)),
        target=DatasetSpec(kind="synthetic", family="outline", per_class=30,
                           image_size=(8, 8)),
        model=ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=True),
        train=TrainConfig(epochs=2, batch_size=10, seed=3),
        reprogram=ReprogramConfig(eta=0.01, epochs=3, batch_size=20, opt_set_size=100,
                                  eval_set_size=60, metrics_set_size=60, seed=3),
    )
    dir1 = cmd_train(cfg, tmp_path / "m1")
    dir2 = cmd_train(cfg, tmp_path / "m2")
    row1 = run_reprogram(cfg, load_model(dir1), tmp_path / "r1").to_csv_row()
    row2 = run_reprogram(cfg, load_model(dir2), tmp_path / "r2").to_csv_row()
    ok = row1 == row2
    _criterion(11, "metrics row regenerates bit-identically from config hash + seed",
               ok, f"hash={row1[-1]}")
