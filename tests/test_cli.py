import csv
import hashlib
import json
import os
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import reprolab.cli as cli
from reprolab.cli import (
    _target_sets,
    cmd_correlate,
    cmd_reprogram,
    cmd_sweep,
    cmd_train,
    main,
    run_reprogram,
)
from reprolab.config import (
    DatasetSpec,
    ExperimentConfig,
    ModelSpec,
    canonical_json,
    config_from_dict,
    config_hash,
    load_config,
)
from reprolab.datasets import synth_target_dataset, write_idx
from reprolab.diagnostics import (
    CSV_HEADER,
    MetricsRecord,
    alignment_stats,
    append_metrics,
    domain_alignment,
    read_metrics_csv,
    reprogramming_accuracy,
    save_confusion_csv,
)
from reprolab.errors import ConfigurationError, SchemaError, ShapeError
from reprolab.models import TrainConfig, _frame_windows, load_model
from reprolab.reprogram import (
    Program,
    ReprogramConfig,
    build_class_map,
    build_frame_mask,
    load_program,
    reprogramming_loss,
    save_program,
)
from reprolab.tensor import _openblas, blas_threads, replace_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _tiny_config(out, seed=3) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        out=str(out),
        source=DatasetSpec(kind="synthetic", family="strokes", per_class=30,
                           test_per_class=10, image_size=(8, 8), noise_amplitude=30.0),
        target=DatasetSpec(kind="synthetic", family="geom", per_class=30, image_size=(8, 8)),
        model=ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=True),
        train=TrainConfig(epochs=1, batch_size=10, seed=seed),
        reprogram=ReprogramConfig(eta=0.01, epochs=2, batch_size=20, opt_set_size=100,
                                  eval_set_size=60, metrics_set_size=60, seed=seed),
        mask_outer_sizes=[10, 16],
    )


def _dir_hash(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        doc = {
            "seed": 11,
            "out": "runs/x",
            "source": {"kind": "synthetic", "family": "strokes", "per_class": 5},
            "model": {"input_shape": [3, 16, 16], "width_scale": 0.5, "trained": False},
            "reprogram": {"eta": 0.01, "epochs": 3},
        }
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.seed == 11
        assert cfg.model.width_scale == 0.5 and not cfg.model.trained
        assert cfg.reprogram.eta == 0.01 and cfg.reprogram.epochs == 3
        assert cfg.source.family == "strokes"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys.*'etaa'"):
            config_from_dict({"reprogram": {"etaa": 0.1}})
        with pytest.raises(ConfigurationError, match="top-level"):
            config_from_dict({"seeed": 1})

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/config.yaml")

    def test_hash_stable_and_out_independent(self, tmp_path):
        a = _tiny_config(tmp_path / "a")
        b = _tiny_config(tmp_path / "b")  # only 'out' differs
        assert config_hash(a) == config_hash(b)
        b.seed = 4
        assert config_hash(a) != config_hash(b)

    def test_readme_example_loads(self):
        block = README.read_text().split("Config shape:", 1)[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(yaml.safe_load(block))
        assert cfg.source.contrast_jitter == 0.5
        assert cfg.mask_outer_sizes == [36, 48, 64]

    def test_contrast_jitter_changes_hash_and_pixels(self, tmp_path):
        base = _tiny_config(tmp_path)
        jittered = replace(base, source=replace(base.source, contrast_jitter=0.5))
        assert config_hash(jittered) != config_hash(base)
        plain = cli._load_raw(base.source, base.seed, train=True).images.array
        dimmed = cli._load_raw(jittered.source, base.seed, train=True).images.array
        assert plain.shape == dimmed.shape and not np.array_equal(plain, dimmed)

    @pytest.mark.parametrize("value", [0.0, 0])
    def test_contrast_jitter_at_zero_hashes_like_an_absent_key(self, value):
        source = {"kind": "synthetic", "family": "strokes", "per_class": 5}
        absent = config_from_dict({"source": source, "target": source})
        explicit = config_from_dict({"source": dict(source, contrast_jitter=value),
                                     "target": dict(source, contrast_jitter=value)})
        assert config_hash(explicit) == config_hash(absent)

    @pytest.mark.parametrize("value", [-0.1, 1.0])
    def test_contrast_jitter_outside_unit_interval_rejected(self, value):
        with pytest.raises(ConfigurationError, match=r"contrast_jitter must be in \[0, 1\)"):
            config_from_dict({"target": {"contrast_jitter": value}})

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": {"d": 2.5, "c": [1, 2]}}) == \
            '{"a":{"c":[1,2],"d":2.5},"b":1}'


class TestTrainCommand:
    def test_untrained_checkpoint_without_sgd(self, tmp_path):
        cfg = _tiny_config(tmp_path)
        cfg.model = ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=False)
        out = cmd_train(cfg)
        net = load_model(out)
        assert net.mode == "untrained-random"
        loss_rows = (out / "training_loss.csv").read_text().splitlines()
        assert loss_rows == ["epoch,mean_loss"]

    def test_deterministic_checkpoint(self, tmp_path):
        cfg1 = _tiny_config(tmp_path / "r1")
        cfg2 = _tiny_config(tmp_path / "r2")
        h1 = _dir_hash(cmd_train(cfg1))
        h2 = _dir_hash(cmd_train(cfg2))
        assert h1 == h2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path, two_blas_threads,
                                                            seed):
        # At 3x64x64 inputs OpenBLAS splits some conv GEMMs over two threads,
        # and a split can round differently: seed 1 trained to other bytes at the
        # caller's 2 threads than at 1 before training was pinned to one thread.
        cfg = replace(_tiny_config(tmp_path, seed=seed),
                      source=DatasetSpec(kind="synthetic", family="strokes", per_class=5,
                                         test_per_class=2, image_size=(28, 28),
                                         noise_amplitude=70.0),
                      model=ModelSpec(input_shape=(3, 64, 64), width_scale=0.25, trained=True))
        two = cmd_train(cfg, tmp_path / "two")
        assert _blas_threads() == 2
        with blas_threads(1):
            one = cmd_train(cfg, tmp_path / "one")
        files = sorted(str(f.relative_to(one)) for f in one.rglob("*") if f.is_file())
        assert {"training_loss.csv", "summary.json"} < set(files)
        assert any(name.startswith("params") for name in files)
        assert sorted(str(f.relative_to(two)) for f in two.rglob("*") if f.is_file()) == files
        for name in files:
            assert (two / name).read_bytes() == (one / name).read_bytes(), name

    def test_missing_idx_path_is_actionable(self, tmp_path):
        cfg = _tiny_config(tmp_path)
        cfg.source = DatasetSpec(kind="idx", images=str(tmp_path / "none.idx"),
                                 labels=str(tmp_path / "none2.idx"), image_size=(8, 8))
        with pytest.raises((OSError, ConfigurationError), match="none"):
            cmd_train(cfg)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = _tiny_config(root)
    model_dir = cmd_train(cfg)
    return {"cfg": cfg, "model_dir": model_dir, "root": root}


class TestReprogramCommand:
    def test_zero_epoch_run_has_ra_equal_da(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.reprogram = ReprogramConfig(eta=0.01, epochs=0, batch_size=20, opt_set_size=100,
                                        eval_set_size=60, metrics_set_size=60, seed=3)
        net = load_model(pipeline["model_dir"])
        record = run_reprogram(cfg, net, tmp_path / "rep0")
        assert record.ra == record.da

    def test_mask_size_matches_builder(self, pipeline, tmp_path):
        from reprolab.reprogram import build_frame_mask

        net = load_model(pipeline["model_dir"])
        record = run_reprogram(pipeline["cfg"], net, tmp_path / "rep")
        expected = build_frame_mask((3, 16, 16), (8, 8)).size()
        assert record.mask_size == expected

    def test_rerun_reproduces_row_bitwise(self, pipeline, tmp_path):
        net = load_model(pipeline["model_dir"])
        r1 = run_reprogram(pipeline["cfg"], net, tmp_path / "a")
        net2 = load_model(pipeline["model_dir"])
        r2 = run_reprogram(pipeline["cfg"], net2, tmp_path / "b")
        assert r1.to_csv_row() == r2.to_csv_row()

    def test_artifacts_written(self, pipeline, tmp_path):
        net = load_model(pipeline["model_dir"])
        run_reprogram(pipeline["cfg"], net, tmp_path / "art")
        base = tmp_path / "art"
        assert (base / "program" / "delta.tnsr").exists()
        assert (base / "program" / "program.json").exists()
        assert (base / "confusion_before.csv").exists()
        assert (base / "confusion_after.csv").exists()
        rows = read_metrics_csv(base / "metrics.csv")
        assert len(rows) == 1

    def test_saved_history_matches_record(self, pipeline, tmp_path):
        net = load_model(pipeline["model_dir"])
        run_reprogram(pipeline["cfg"], net, tmp_path / "hist")
        sidecar = json.loads((tmp_path / "hist" / "program" / "program.json").read_text())
        assert sidecar["best_loss"] == min(sidecar["history"])


class TestSweepCommand:
    def test_rows_in_order_with_increasing_mask(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [10, 12, 16]
        records, failures = cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "sweep")
        assert not failures
        sizes = [r.mask_size for r in records]
        assert sizes == sorted(sizes) and len(set(sizes)) == 3
        combined = read_metrics_csv(tmp_path / "sweep" / "metrics.csv")
        assert [r.mask_size for r in combined] == sizes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unbuildable_size_rejected_before_any_work(self, pipeline, tmp_path, jobs):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [6, 12]  # 6 < inner image 8: no mask can be built
        with pytest.raises(ShapeError):
            cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "sweepfail", jobs=jobs)
        assert not (tmp_path / "sweepfail").exists()

    def test_rerun_replaces_outputs(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [10, 12, 16]
        out = tmp_path / "again"
        cmd_sweep(cfg, pipeline["model_dir"], out)
        first = (out / "metrics.csv").read_bytes()
        cmd_sweep(cfg, pipeline["model_dir"], out)
        assert (out / "metrics.csv").read_bytes() == first
        assert len(read_metrics_csv(out / "metrics.csv")) == 3
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 3
        for size in cfg.mask_outer_sizes:
            assert len(read_metrics_csv(out / f"mask_{size}" / "metrics.csv")) == 1

    def test_clean_rerun_removes_failures_file(self, pipeline, tmp_path, monkeypatch):
        cfg = _tiny_config(pipeline["root"], seed=3)
        out = tmp_path / "heal"
        cfg.mask_outer_sizes = [10, 12]
        original = cli.optimize_program

        def failing(net, opt_set, eval_set, mask, *args, **kwargs):
            if _mask_outer(mask) == 10:
                raise RuntimeError("injected optimization failure")
            return original(net, opt_set, eval_set, mask, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_program", failing)
        _, failures = cmd_sweep(cfg, pipeline["model_dir"], out)
        assert failures == [(10, "RuntimeError: injected optimization failure")]
        assert (out / "failures.json").exists()
        monkeypatch.setattr(cli, "optimize_program", original)
        _, failures = cmd_sweep(cfg, pipeline["model_dir"], out)
        assert not failures and not (out / "failures.json").exists()
        assert [r.mask_size for r in read_metrics_csv(out / "metrics.csv")] == \
            [build_frame_mask((3, 16, 16), (8, 8), s).size() for s in (10, 12)]

    def test_parallel_writes_same_bytes_as_serial(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [10, 12, 16]
        cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "serial", jobs=1)
        cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "parallel", jobs=2)
        names = ["metrics.csv", "metrics.jsonl"] + [
            f"mask_{size}/{name}" for size in cfg.mask_outer_sizes
            for name in ("metrics.csv", "program/delta.tnsr", "program/program.json",
                         "confusion_before.csv", "confusion_after.csv")]
        for name in names:
            assert (tmp_path / "parallel" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), name

    def test_parallel_four_sizes_same_bytes_as_serial(self, pipeline, tmp_path):
        # More tasks than workers: the post tasks queue behind optimizations.
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [10, 12, 14, 16]
        cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "serial", jobs=1)
        cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "parallel", jobs=2)
        assert _dir_hash(tmp_path / "parallel") == _dir_hash(tmp_path / "serial")
        assert len(read_metrics_csv(tmp_path / "parallel" / "metrics.csv")) == 4

    def test_rows_equal_per_run_diagnostics(self, pipeline, tmp_path):
        # The shared zero-program stage must give exactly what each run would
        # compute alone: a lone `reprogram` run of that size, at this process's
        # BLAS thread count, and DA, RA, r0, rN, g_l1 and history[0] from the
        # diagnostics functions at the one thread both commands run their GEMMs at.
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [10, 12, 16]
        records, _ = cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "sweep")
        net = load_model(pipeline["model_dir"])
        _, eval_set, metrics_set = _target_sets(cfg)
        cm = build_class_map(10, "first-ten", 10)
        zero = np.zeros((3, 16, 16))
        for size, record in zip(cfg.mask_outer_sizes, records):
            run, alone_dir = tmp_path / "sweep" / f"mask_{size}", tmp_path / f"alone_{size}"
            alone = cmd_reprogram(replace(cfg, mask_outer_size=size), pipeline["model_dir"],
                                  alone_dir)
            # Only the config hash differs: it names the one-size config.
            assert replace(alone, config_hash=record.config_hash) == record
            for name in ("program/delta.tnsr", "confusion_before.csv", "confusion_after.csv"):
                assert (alone_dir / name).read_bytes() == (run / name).read_bytes(), name
            mask = build_frame_mask((3, 16, 16), (8, 8), size)
            prog, _ = load_program(run / "program")
            assert load_program(alone_dir / "program")[0].history == prog.history
            offset = prog.delta * mask.array
            with blas_threads(1):
                [(r0, g_l1)] = alignment_stats(net, eval_set, zero, [mask], cm)
                [(rn, _)] = alignment_stats(net, eval_set, offset, [mask], cm)
                assert (record.da, record.ra, record.r0, record.rn, record.g_l1) == (
                    domain_alignment(net, metrics_set, cm),
                    reprogramming_accuracy(net, metrics_set, offset, cm), r0, rn, g_l1)
                assert prog.history[0] == reprogramming_loss(
                    net, eval_set.images.array, eval_set.labels, zero, mask, cm)

    def test_parallel_same_bytes_on_the_framed_path(self, tmp_path):
        # At 16x16 the grown image window reaches the border and every forward
        # takes the tape path; at 32x32 around an 8x8 image the framed one runs.
        cfg = _tiny_config(tmp_path / "experiment", seed=3)
        cfg.model = ModelSpec(input_shape=(3, 32, 32), width_scale=0.25, trained=True)
        cfg.mask_outer_sizes = [12, 20, 32]
        model_dir = cmd_train(cfg)
        net = load_model(model_dir)
        images = _target_sets(cfg)[0].images.array
        assert _frame_windows(net, images) is not None
        cmd_sweep(cfg, model_dir, tmp_path / "serial", jobs=1)
        cmd_sweep(cfg, model_dir, tmp_path / "parallel", jobs=2)
        assert _dir_hash(tmp_path / "parallel") == _dir_hash(tmp_path / "serial")
        assert len(read_metrics_csv(tmp_path / "parallel" / "metrics.csv")) == 3

    def test_requires_two_sizes(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [16]
        with pytest.raises(ConfigurationError, match="at least 2"):
            cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "s")

    def test_repeated_size_rejected_before_any_work(self, pipeline, tmp_path):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = [12, 12, 16]
        with pytest.raises(ConfigurationError, match=r"repeats \[12\]"):
            cmd_sweep(cfg, pipeline["model_dir"], tmp_path / "s", jobs=2)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected(self, pipeline, tmp_path, capsys, jobs):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml")
        argv = ["sweep", "--config", str(cfg_path), "--model", str(pipeline["model_dir"]),
                "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "runs").exists()


SIZES = [10, 12, 16]


@pytest.fixture(scope="module")
def clean_sweep(pipeline, tmp_path_factory):
    """A failure-free 3-size sweep, the reference for the failure tests."""
    out = tmp_path_factory.mktemp("clean")
    cfg = _tiny_config(pipeline["root"], seed=3)
    cfg.mask_outer_sizes = list(SIZES)
    cmd_sweep(cfg, pipeline["model_dir"], out, jobs=1)
    return out


def _blas_threads() -> int:
    return _openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def two_blas_threads():
    if _openblas() is None:
        pytest.skip("numpy's BLAS does not export scipy_openblas_get_num_threads64_")
    with blas_threads(2):
        yield


def _mask_outer(mask) -> int:
    return mask.spec["outer_size"]


def _post_call_of(masks, outer_size) -> bool:
    """Whether an alignment_stats call with ``masks`` is the post stage of that mask:
    a sweep's zero-program task passes all its masks, a post stage its one mask."""
    return len(masks) == 1 and _mask_outer(masks[0]) == outer_size


class TestSweepTaskGraph:
    def _sweep(self, pipeline, out, jobs=2):
        cfg = _tiny_config(pipeline["root"], seed=3)
        cfg.mask_outer_sizes = list(SIZES)
        return cfg, cmd_sweep(cfg, pipeline["model_dir"], out, jobs=jobs)

    def _assert_others_match(self, clean, out, failed_size):
        # The surviving rows and run directories are the clean sweep's bytes.
        lines = (clean / "metrics.csv").read_text().splitlines(keepends=True)
        survivors = [line for size, line in zip(SIZES, lines[1:]) if size != failed_size]
        assert (out / "metrics.csv").read_text() == "".join(lines[:1] + survivors)
        for size in SIZES:
            if size != failed_size:
                assert _dir_hash(out / f"mask_{size}") == _dir_hash(clean / f"mask_{size}")

    def test_target_sets_and_checkpoint_built_once(self, pipeline, tmp_path, monkeypatch):
        # Forked workers inherit the patched names; the log file counts their calls too.
        log = tmp_path / "calls.log"

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "synth_target_dataset",
                            counted("synth", cli.synth_target_dataset))
        monkeypatch.setattr(cli, "load_model", counted("load", cli.load_model))
        _, (records, failures) = self._sweep(pipeline, tmp_path / "sweep")
        assert len(records) == 3 and not failures
        calls = [line.split() for line in log.read_text().splitlines()]
        assert [name for name, _ in calls] == ["load", "synth"]
        assert {int(pid) for _, pid in calls} == {os.getpid()}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_post_stage_error_fails_that_mask_alone(self, pipeline, clean_sweep, tmp_path,
                                                    monkeypatch, jobs):
        original = cli.alignment_stats

        def failing(net, dataset, offset, masks, *args, **kwargs):
            if _post_call_of(masks, 12):
                raise RuntimeError("injected post-stage failure")
            return original(net, dataset, offset, masks, *args, **kwargs)

        monkeypatch.setattr(cli, "alignment_stats", failing)
        out = tmp_path / "sweep"
        _, (records, failures) = self._sweep(pipeline, out, jobs=jobs)
        assert failures == [(12, "RuntimeError: injected post-stage failure")]
        assert len(records) == 2
        self._assert_others_match(clean_sweep, out, 12)

    def test_worker_failure_is_actionable(self, pipeline, tmp_path, monkeypatch):
        original = cli.optimize_program

        def failing(net, opt_set, eval_set, mask, *args, **kwargs):
            if _mask_outer(mask) == 16:
                raise RuntimeError("injected optimization failure")
            return original(net, opt_set, eval_set, mask, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_program", failing)
        cfg, _ = self._sweep(pipeline, tmp_path / "sweep")
        [entry] = json.loads((tmp_path / "sweep" / "failures.json").read_text())
        assert entry["mask_outer_size"] == 16
        assert entry["error"] == "RuntimeError: injected optimization failure"
        assert entry["config_hash"] == config_hash(cfg, effective_mask_outer_size=16)
        assert isinstance(entry["pid"], int) and entry["pid"] != os.getpid()
        assert "in _best_epoch" in entry["traceback"]
        assert "RuntimeError: injected optimization failure" in entry["traceback"]

    def test_dead_worker_fails_its_mask_alone(self, pipeline, clean_sweep, tmp_path,
                                              monkeypatch):
        original = cli.optimize_program

        def dying(net, opt_set, eval_set, mask, *args, **kwargs):
            if _mask_outer(mask) == 12:
                os._exit(1)
            return original(net, opt_set, eval_set, mask, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_program", dying)
        out = tmp_path / "sweep"
        _, (records, failures) = self._sweep(pipeline, out)
        assert [size for size, _ in failures] == [12]
        assert failures[0][1].startswith("BrokenProcessPool")
        [entry] = json.loads((out / "failures.json").read_text())
        assert entry["pid"] != os.getpid()
        self._assert_others_match(clean_sweep, out, 12)

    def test_dead_post_worker_keeps_finished_results(self, pipeline, clean_sweep, tmp_path,
                                                     monkeypatch):
        # Forked workers inherit the patched names; the log file counts their calls too.
        log = tmp_path / "optimized.log"
        optimize, align = cli.optimize_program, cli.alignment_stats

        def logged(net, opt_set, eval_set, mask, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{_mask_outer(mask)}\n")
            return optimize(net, opt_set, eval_set, mask, *args, **kwargs)

        def dying(net, dataset, offset, masks, *args, **kwargs):
            if _post_call_of(masks, 12):
                os._exit(1)
            return align(net, dataset, offset, masks, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_program", logged)
        monkeypatch.setattr(cli, "alignment_stats", dying)
        out = tmp_path / "sweep"
        _, (records, failures) = self._sweep(pipeline, out)
        assert [size for size, _ in failures] == [12]
        assert failures[0][1].startswith("BrokenProcessPool")
        assert len(records) == 2
        # The retry reused mask 12's finished optimization instead of running it again.
        assert log.read_text().split().count("12") == 1
        self._assert_others_match(clean_sweep, out, 12)

    def test_set_blas_threads_returns_the_count_it_replaced(self, two_blas_threads):
        assert cli.set_blas_threads(1) == 2
        assert _blas_threads() == 1
        assert cli.set_blas_threads(2) == 1

    def test_pool_caps_blas_threads(self, two_blas_threads):
        with cli._pool(None, 2) as pool:
            inside = pool.submit(_blas_threads).result()
        assert inside == 1
        assert _blas_threads() == 2

    @pytest.mark.parametrize("command", ["sweep", "reprogram", "train"])
    @pytest.mark.parametrize("fail", [False, True])
    def test_serial_commands_run_one_blas_thread_and_restore(self, pipeline, tmp_path,
                                                             monkeypatch, two_blas_threads,
                                                             command, fail):
        if command == "sweep":
            def run():
                self._sweep(pipeline, tmp_path / "sweep", jobs=1)
        elif command == "reprogram":
            def run():
                cfg = replace(_tiny_config(pipeline["root"], seed=3), mask_outer_size=12)
                cmd_reprogram(cfg, pipeline["model_dir"], tmp_path / "reprogram")
        else:
            def run():
                cmd_train(_tiny_config(tmp_path), tmp_path / "model")
        seen = []
        step = "train_sgd" if command == "train" else "optimize_program"
        optimize = getattr(cli, step)

        def logged(*args, **kwargs):
            seen.append(_blas_threads())
            if fail:  # not an Exception, so no per-mask failure: it ends the sweep
                raise KeyboardInterrupt
            return optimize(*args, **kwargs)

        monkeypatch.setattr(cli, step, logged)
        if fail:
            with pytest.raises(KeyboardInterrupt):
                run()
        else:
            run()
        assert seen and set(seen) == {1}
        assert _blas_threads() == 2


class TestCorrelateCommand:
    def _write_rows(self, path, n=10, seed=0):
        rng = np.random.default_rng(seed)
        for i in range(n):
            ra = float(rng.uniform(0.1, 0.9))
            rec = MetricsRecord(source="s", target="t", model="m", trained=bool(i % 2),
                                mask_size=100 + i, da=0.1, ra=ra, r0=0.1,
                                rn=max(0.0, min(1.0, ra * 0.5 + rng.normal(0, 0.05))),
                                g_l1=1.0, seed=i, config_hash=f"h{i}")
            append_metrics(rec, path)

    def test_identity_correlation_is_one(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write_rows(path)
        results = cmd_correlate(path, "RA", "RA", methods=("pearson", "spearman", "kendall"),
                                n_permutations=99, out_dir=tmp_path / "corr")
        for res in results:
            assert res.coefficient == pytest.approx(1.0)
        assert (tmp_path / "corr" / "correlations.csv").exists()
        scatter = (tmp_path / "corr" / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "RA,RA,label"
        assert len(scatter) == 11

    def test_two_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write_rows(path, n=2)
        with pytest.raises(ConfigurationError, match="at least 3"):
            cmd_correlate(path, "RA", "rN")

    def test_unknown_column_lists_available(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write_rows(path)
        with pytest.raises(SchemaError, match="RAA.*DA"):
            cmd_correlate(path, "RAA", "rN")

    def test_negative_seed_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self._write_rows(path)
        argv = ["correlate", "--metrics", str(path), "--x", "RA", "--y", "rN", "--seed", "-3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -3\n"
        assert captured.out == ""

    def test_no_method_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        self._write_rows(path)
        argv = ["correlate", "--metrics", str(path), "--x", "RA", "--y", "rN", "--methods", ",",
                "--out", str(tmp_path / "corr")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no correlation method given\n"
        assert captured.out == ""
        assert not (tmp_path / "corr").exists()

    def test_positive_relation_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write_rows(path, n=12, seed=5)
        res = cmd_correlate(path, "RA", "rN", methods=("spearman",), n_permutations=999)[0]
        assert res.coefficient > 0.5
        assert res.p_value < 0.05


class TestMainEntry:
    def test_full_cli_flow(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path / "cli")
        cfg_path = tmp_path / "cfg.yaml"
        from dataclasses import asdict

        doc = {
            "seed": cfg.seed, "out": cfg.out,
            "source": asdict(cfg.source), "target": asdict(cfg.target),
            "model": asdict(cfg.model), "train": asdict(cfg.train),
            "reprogram": asdict(cfg.reprogram),
            "mask_outer_sizes": cfg.mask_outer_sizes,
        }
        doc["source"]["image_size"] = list(doc["source"]["image_size"])
        doc["target"]["image_size"] = list(doc["target"]["image_size"])
        doc["model"]["input_shape"] = list(doc["model"]["input_shape"])
        cfg_path.write_text(yaml.safe_dump(doc))

        assert main(["train", "--config", str(cfg_path)]) == 0
        model_dir = tmp_path / "cli" / "model"
        assert main(["reprogram", "--config", str(cfg_path), "--model", str(model_dir)]) == 0
        out = capsys.readouterr().out
        assert ",".join(CSV_HEADER) in out
        assert main(["sweep", "--config", str(cfg_path), "--model", str(model_dir)]) == 0
        sweep_csv = tmp_path / "cli" / "sweep" / "metrics.csv"
        assert sweep_csv.exists()

        manifest_path = model_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"] = [l for l in manifest["layers"] if l["kind"] != "dropout"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in ("reprogram", "sweep"):
            assert main([command, "--config", str(cfg_path), "--model", str(model_dir)]) == 1
            assert "no dropout layer" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("reprogram: {eta: -1}\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_that_is_not_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [1, 2\n")
        assert main(["train", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.yaml: not valid YAML" in err

    @pytest.mark.parametrize("manifest, message", [
        ('{"format": "reprolab-model-v1", "input_sh', "manifest.json: not valid JSON"),
        (json.dumps({"format": "reprolab-model-v1", "num_classes": 10, "width_scale": 0.25,
                     "layers": [], "params": []}), "manifest lacks input_shape"),
    ])
    def test_broken_manifest(self, tmp_path, capsys, manifest, message):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("seed: 1\n")
        (tmp_path / "model").mkdir()
        (tmp_path / "model" / "manifest.json").write_text(manifest)
        argv = ["reprogram", "--config", str(cfg_path), "--model", str(tmp_path / "model")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv", [["reprogram"], ["sweep"], ["sweep", "--jobs", "2"]])
    def test_checkpoint_of_other_input_shape(self, pipeline, tmp_path, capsys, argv):
        cfg_path = _write_config(_tiny_config(tmp_path), tmp_path / "cfg.yaml",
                                 model__input_shape=[3, 20, 20])
        assert main([*argv, "--config", str(cfg_path), "--model", str(pipeline["model_dir"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and \
            "checkpoint input shape (3, 16, 16) does not match config (3, 20, 20)" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.rsplit(",", 3)[0], "line 3: 9 fields, expected 12"),
        (lambda line: line.replace(",0.5,", ",abc,", 1), "line 3: could not convert"),
        (lambda line: line.replace(",true,", ",True,", 1),
         "line 3: trained must be true or false, got 'True'"),
    ])
    def test_malformed_metrics_row(self, tmp_path, capsys, edit, message):
        path = tmp_path / "m.csv"
        for i in range(4):
            append_metrics(MetricsRecord("s", "t", "m", True, 100 + i, 0.1, 0.5, 0.2, 0.3,
                                         1.0, i, f"h{i}"), path)
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        assert main(["correlate", "--metrics", str(path), "--x", "RA", "--y", "rN"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"m.csv, {message}" in err


def _write_config(cfg: ExperimentConfig, path: Path, **changes) -> Path:
    """``cfg`` as a YAML file, with top-level and section keys replaced by ``changes``."""
    doc = json.loads(json.dumps(asdict(cfg)))
    for key, value in changes.items():
        section, _, name = key.partition("__")
        if name:
            doc[section][name] = value
        else:
            doc[key] = value
    path.write_text(yaml.safe_dump(doc))
    return path


def _int_keys():
    """``(key, value)`` for every config key annotated with int, the value holding a bool."""
    cfg = ExperimentConfig()
    for section in ["", "source", "target", "model", "train", "reprogram"]:
        obj = getattr(cfg, section) if section else cfg
        for f in fields(obj):
            if "int" in str(f.type):
                default = getattr(obj, f.name)
                if isinstance(default, tuple):
                    value = [True, *default[1:]]
                else:
                    value = True if default is None or isinstance(default, int) else [True]
                yield f"{section}__{f.name}" if section else f.name, value


class TestConfigValues:
    @pytest.mark.parametrize("name", ["opt_set_size", "eval_set_size", "metrics_set_size"])
    def test_empty_reprogram_set_rejected(self, pipeline, tmp_path, capsys, name):
        cfg_path = _write_config(_tiny_config(tmp_path), tmp_path / "cfg.yaml",
                                 **{f"reprogram__{name}": 0})
        argv = ["reprogram", "--config", str(cfg_path), "--model", str(pipeline["model_dir"])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name} must be >= 1, got 0" in err

    @pytest.mark.parametrize("command, key, value", [
        ("sweep", "mask_outer_sizes", 36),
        ("sweep", "mask_outer_sizes", [10, "16"]),
        ("reprogram", "mask_outer_size", "12"),
        ("reprogram", "class_map", list("abcdefghij")),
        ("reprogram", "class_map", 3),
        ("reprogram", "target__image_size", 28),
        ("reprogram", "model__input_shape", 64),
        ("reprogram", "reprogram__eta", "x"),
        ("reprogram", "train__epochs", "2"),
        ("reprogram", "source__per_class", "x"),
        ("reprogram", "source__num_classes", "3"),
        ("reprogram", "model__width_scale", "a"),
        ("reprogram", "source__family", 3),
        ("reprogram", "model__trained", "no"),
        ("sweep", "seed", True),
        ("reprogram", "mask_outer_size", True),
        ("sweep", "mask_outer_sizes", [True, 12]),
        ("reprogram", "class_map", [True, False] + list(range(2, 10))),
    ])
    def test_value_of_wrong_type_rejected(self, pipeline, tmp_path, capsys, command, key, value):
        cfg_path = _write_config(_tiny_config(tmp_path), tmp_path / "cfg.yaml", **{key: value})
        argv = [command, "--config", str(cfg_path), "--model", str(pipeline["model_dir"])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(value) in err
        assert f"'{key.replace('__', '.')}' must be" in err

    @pytest.mark.parametrize("key, value", list(_int_keys()))
    def test_bool_for_int_rejected(self, tmp_path, capsys, key, value):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml",
                                 **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key.replace('__', '.')}' must be" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "reprogram", "sweep"])
    def test_negative_seed_override_rejected(self, pipeline, tmp_path, capsys, command):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml")
        argv = [command, "--config", str(cfg_path), "--seed", "-3"]
        if command != "train":
            argv += ["--model", str(pipeline["model_dir"])]
        if command == "sweep":
            argv += ["--jobs", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section", ["source", "target"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unknown_family_rejected_before_any_output(self, pipeline, tmp_path, capsys,
                                                        command, section):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml",
                                 **{f"{section}__family": "foo"})
        argv = [command, "--config", str(cfg_path)]
        if command == "sweep":
            argv += ["--model", str(pipeline["model_dir"]), "--jobs", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown synthetic family 'foo'")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section", ["source", "target"])
    @pytest.mark.parametrize("key, value, least", [
        ("max_shift", -1, 0), ("noise_amplitude", -0.5, 0), ("num_classes", 0, 1)])
    def test_out_of_range_dataset_value_rejected(self, tmp_path, capsys, section, key, value,
                                                 least):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml",
                                 **{f"{section}__{key}": value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {key} must be >= {least}, got {value}\n"
        assert not (tmp_path / "runs").exists()

    # trained: false is the case that ended in a ZeroDivisionError from init_weights
    # after creating the model directory.
    @pytest.mark.parametrize("key, value, message", [
        ("model__input_shape", [3, 0, 0],
         "input_shape must be positive with H and W divisible by 4, got [3, 0, 0]"),
        ("model__input_shape", [0, 32, 32],
         "input_shape must be positive with H and W divisible by 4, got [0, 32, 32]"),
        ("model__input_shape", [3, 62, 62],
         "input_shape must be positive with H and W divisible by 4, got [3, 62, 62]"),
        ("source__image_size", [0, 0], "image_size must be positive, got [0, 0]"),
        ("target__image_size", [0, 0], "image_size must be positive, got [0, 0]"),
        ("model__width_scale", 0.0, "width_scale must be positive, got 0.0"),
        ("model__width_scale", -2.0, "width_scale must be positive, got -2.0"),
        ("model__dropout_rate", 1.5, "dropout_rate must be in [0, 1), got 1.5"),
        ("model__dropout_rate", -0.1, "dropout_rate must be in [0, 1), got -0.1"),
    ])
    def test_bad_model_or_image_geometry_rejected_before_any_output(self, tmp_path, capsys,
                                                                    key, value, message):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml",
                                 model__trained=False, **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["reprogram", "sweep"])
    def test_batch_larger_than_opt_set_rejected(self, pipeline, tmp_path, capsys, command):
        cfg_path = _write_config(_tiny_config(tmp_path / "runs"), tmp_path / "cfg.yaml",
                                 reprogram__batch_size=20, reprogram__opt_set_size=10)
        argv = [command, "--config", str(cfg_path), "--model", str(pipeline["model_dir"])]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: batch size 20 exceeds opt_set_size 10\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"target__image_size": [20, 20]}, "a 1x20x20 image does not fit a 3x16x16 input"),
        ({"mask_outer_sizes": [6, 12], "mask_outer_size": 6},
         "outer size 6 smaller than inner image (8, 8)"),
    ], ids=["image-larger-than-input", "size-smaller-than-image"])
    def test_unbuildable_geometry_fails_sweep_and_reprogram_alike(self, tmp_path, capsys,
                                                                  changes, message):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.model = ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=False)
        model_dir = cmd_train(cfg)
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml", **changes)
        for argv in (["sweep", "--jobs", "2"], ["reprogram"]):
            assert main([*argv, "--config", str(cfg_path), "--model", str(model_dir)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["model"]

    def test_valid_values_keep_their_hash(self, tmp_path):
        # Digests of the same configs before their values were checked.
        cfg = _tiny_config(tmp_path)
        assert config_hash(cfg) == "0172284301e72bf8"
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml", mask_outer_size=12,
                                 class_map=[3, 1, 2, 0, 4, 5, 6, 7, 8, 9])
        assert config_hash(load_config(cfg_path)) == "db91aa31cbbbcfbf"
        # An IDX source, a null path and a non-default value in every section.
        # The digest is the one this config had while the reprogram section
        # still held use_heldout_eval at its default, true.
        idx = config_from_dict({
            "seed": 5, "out": "runs/idx",
            "source": {"kind": "idx", "name": "digits", "images": "data/train-images.idx",
                       "labels": "data/train-labels.idx", "test_images": None,
                       "test_labels": None, "image_size": [12, 12]},
            "target": {"kind": "synthetic", "family": "strokes", "num_classes": 4,
                       "per_class": 40, "test_per_class": 7, "image_size": [10, 10],
                       "noise_amplitude": 12.5, "max_shift": 1},
            "model": {"input_shape": [1, 20, 20], "width_scale": 0.5, "trained": False,
                      "dropout_enabled": True, "dropout_rate": 0.1},
            "train": {"epochs": 3, "learning_rate": 0.01, "momentum": 0.5, "batch_size": 20,
                      "seed": 2},
            "reprogram": {"eta": 0.1, "epochs": 7, "batch_size": 25, "opt_set_size": 300,
                          "eval_set_size": 200, "metrics_set_size": 100, "seed": 4},
            "class_map": [2, 0, 1, 3],
            "mask_outer_size": 18,
            "mask_outer_sizes": [14, 18, 20],
        })
        assert config_hash(idx) == "5baafaeb860f7d9e"


def _idx_spec(root: Path, seed: int, name: str, test: bool) -> DatasetSpec:
    """A 10-class IDX dataset of 8x8 images written to ``root``, with test files if ``test``."""
    paths = {}
    parts = [("", seed, 30)] + ([("test_", seed + 1, 5)] if test else [])
    for prefix, part_seed, per_class in parts:
        ds = synth_target_dataset(part_seed, per_class=per_class, size=(8, 8), family="strokes")
        images, labels = root / f"{name}-{prefix}images.idx", root / f"{name}-{prefix}labels.idx"
        write_idx(ds, images, labels)
        paths[f"{prefix}images"], paths[f"{prefix}labels"] = str(images), str(labels)
    return DatasetSpec(kind="idx", image_size=(8, 8), **paths)


class TestIdxDatasets:
    def test_train_and_parallel_sweep(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.source = _idx_spec(tmp_path, 5, "source", test=True)
        cfg.target = _idx_spec(tmp_path, 9, "target", test=False)
        model_dir = cmd_train(cfg)
        summary = json.loads((model_dir / "summary.json").read_text())
        assert summary["source"] == "source-images"
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        records, failures = cmd_sweep(cfg, model_dir, tmp_path / "sweep", jobs=2)
        assert not failures
        assert [(r.source, r.target, r.trained) for r in records] == \
            [("source-images", "target-images", True)] * 2
        assert [r.mask_size for r in records] == \
            [build_frame_mask((3, 16, 16), (8, 8), s).size() for s in cfg.mask_outer_sizes]
        assert read_metrics_csv(tmp_path / "sweep" / "metrics.csv") == records

    def test_source_without_test_files(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.source = _idx_spec(tmp_path, 5, "source", test=False)
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml")
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no test IDX files configured" in err

    @pytest.mark.parametrize("missing", ["test_images", "test_labels"])
    def test_source_with_one_test_file_rejected(self, tmp_path, capsys, missing):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.source = _idx_spec(tmp_path, 5, "source", test=True)
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml", **{f"source__{missing}": None})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == \
            "error: idx datasets need both 'test_images' and 'test_labels' paths, or neither\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key", ["images", "test_images"])
    def test_idx_file_without_images_rejected(self, tmp_path, capsys, key):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.source = _idx_spec(tmp_path, 5, "source", test=True)
        empty = synth_target_dataset(5, per_class=1, size=(8, 8)).subset([])
        write_idx(empty, tmp_path / "empty-images.idx", tmp_path / "empty-labels.idx")
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml", **{
            f"source__{key}": str(tmp_path / "empty-images.idx"),
            f"source__{key.replace('images', 'labels')}": str(tmp_path / "empty-labels.idx")})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'empty-images.idx'}: holds no images\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["reprogram", "sweep"])
    def test_target_labels_beyond_num_classes_rejected(self, tmp_path, capsys, command):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.model = ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=False)
        model_dir = cmd_train(cfg)
        # The IDX target holds labels 0-9.
        cfg.target = replace(_idx_spec(tmp_path, 9, "target", test=False), num_classes=4)
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml")
        assert main([command, "--config", str(cfg_path), "--model", str(model_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "target-labels.idx" in err
        assert "[4, 5, 6, 7, 8, 9]" in err

    @pytest.mark.parametrize("command", ["reprogram", "sweep"])
    def test_target_images_not_of_image_size_rejected(self, tmp_path, capsys, command):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.model = ModelSpec(input_shape=(3, 16, 16), width_scale=0.25, trained=False)
        model_dir = cmd_train(cfg)
        # The IDX target holds 8x8 images.
        cfg.target = replace(_idx_spec(tmp_path, 9, "target", test=False), image_size=(12, 12))
        cfg_path = _write_config(cfg, tmp_path / "cfg.yaml")
        assert main([command, "--config", str(cfg_path), "--model", str(model_dir)]) == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'target-images.idx'}: images "
                                           "are 8x8, not the configured image_size [12, 12]\n")
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["model"]


class TestAtomicWrites:
    def test_text_and_bytes_written_exactly(self, tmp_path):
        replace_file(tmp_path / "t.csv", "a,b\r\ncé\n")
        assert (tmp_path / "t.csv").read_bytes() == "a,b\r\ncé\n".encode()
        payload = bytes(range(256)) * 3
        replace_file(tmp_path / "b.bin", payload)
        assert (tmp_path / "b.bin").read_bytes() == payload
        replace_file(tmp_path / "b.bin", b"")
        assert (tmp_path / "b.bin").read_bytes() == b""

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            replace_file(path, object())
        assert path.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_failed_rename_leaves_previous_artifacts(self, pipeline, tmp_path, monkeypatch):
        net = load_model(pipeline["model_dir"])
        out = tmp_path / "run"
        run_reprogram(pipeline["cfg"], net, out)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        mask, cm = build_frame_mask((3, 16, 16), (8, 8)), build_class_map(10)
        for save in (lambda: save_program(Program(np.ones((3, 16, 16)), 0.0, [0.0]),
                                          out / "program", mask, cm, ReprogramConfig()),
                     lambda: save_confusion_csv(np.eye(10, 11, dtype=np.int64),
                                                out / "confusion_after.csv")):
            with pytest.raises(OSError, match="rename refused"):
                save()
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_clean_pipeline_leaves_no_temporary_file(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs")
        cfg.mask_outer_sizes = [10, 12, 16]
        model_dir = cmd_train(cfg)
        cmd_sweep(cfg, model_dir, tmp_path / "sweep", jobs=2)
        cmd_correlate(tmp_path / "sweep" / "metrics.csv", "RA", "rN", n_permutations=100,
                      out_dir=tmp_path / "corr")
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert {"runs/model/manifest.json", "runs/model/summary.json",
                "runs/model/training_loss.csv", "sweep/metrics.csv",
                "sweep/mask_16/program/delta.tnsr", "corr/correlations.csv",
                "corr/scatter.csv"} <= written
        assert not [name for name in written if name.endswith(".tmp")]
