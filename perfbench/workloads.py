"""The benchmark's two workloads: train, and sweep followed by correlate.

Each workload generates its inputs from the seed in ``setup`` (an experiment
YAML, a source checkpoint, a table of earlier runs), then ``run`` performs one timed
operation through the public reprolab API and returns what the output checker
needs. Sizes are fixed here, not by the seed: the seed changes values only,
so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import reprolab.cli as cli
import reprolab.config as config
import reprolab.models as models
import reprolab.stats as stats
from reprolab.diagnostics import CSV_HEADER

INPUT_SHAPE = [3, 64, 64]
INNER = [28, 28]

# Source domain of the train workload and of the sweep's checkpoint. The
# README's example also sets contrast_jitter, which DatasetSpec rejects.
SOURCE = {"kind": "synthetic", "family": "strokes", "image_size": INNER,
          "noise_amplitude": 70.0, "max_shift": 3}
TARGET = {"kind": "synthetic", "family": "outline", "image_size": INNER,
          "noise_amplitude": 20.0, "max_shift": 1}
MODEL = {"input_shape": INPUT_SHAPE, "width_scale": 0.25, "trained": True,
         "dropout_enabled": True}

TRAIN = {"per_class": 15, "test_per_class": 10, "epochs": 2, "batch_size": 10,
         "learning_rate": 0.01, "momentum": 0.9}
SWEEP_SOURCE = {"per_class": 10, "test_per_class": 5, "epochs": 1, "batch_size": 10,
                "learning_rate": 0.01, "momentum": 0.9}
SWEEP_SIZES = [36, 48, 64]
REPROGRAM = {"eta": 0.05, "epochs": 2, "batch_size": 50, "opt_set_size": 100,
             "eval_set_size": 50, "metrics_set_size": 50}
TARGET_PER_CLASS = 20

# The correlation step of the sweep operation: 21 earlier runs plus the 3 new
# rows, RA against rN.
HISTORY_ROWS = 21
HISTORY_METRICS_SET = 500
CORRELATE_METHODS = ["pearson", "spearman", "kendall"]
PERMUTATIONS = 3000
EXACT_N = 8
EXACT_METHOD = "pearson"


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class OpResult:
    """One timed operation: its time, its work and the outputs to check."""

    seconds: float
    items: int
    attempted: int
    outputs: dict


def _experiment(seed: int, train: dict, out: Path) -> dict:
    src = dict(SOURCE, per_class=train["per_class"], test_per_class=train["test_per_class"])
    return {
        "seed": seed,
        "out": str(out),
        "source": src,
        "target": dict(TARGET, per_class=TARGET_PER_CLASS),
        "model": dict(MODEL),
        "train": {k: train[k] for k in ("epochs", "batch_size", "learning_rate", "momentum")}
                 | {"seed": seed},
        "reprogram": dict(REPROGRAM, seed=seed),
        "mask_outer_sizes": list(SWEEP_SIZES),
    }


def _write_yaml(doc: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


class Workload:
    name = ""
    items_name = ""
    units = 1  # attempted operations per run(): the unit failed_share counts

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.inputs = self.work_dir / "inputs"

    def setup(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self._generate()

    def input_digest(self) -> str:
        """Digest of every generated input file, for the seed self-test."""
        digest = hashlib.sha256()
        for path in sorted(self.inputs.rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(self.inputs).as_posix().encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def _generate(self) -> None:
        raise NotImplementedError

    def run(self, op_dir: Path) -> OpResult:
        raise NotImplementedError

    def quality(self, outputs: dict) -> dict:
        """Result quality at the fixed amount of work, printed for information."""
        return {}


class TrainWorkload(Workload):
    """cmd_train on a synthetic strokes source at batch 10, with dropout."""

    name = "train"
    items_name = "train_samples_per_s"
    units = 1

    def _generate(self) -> None:
        _write_yaml(_experiment(self.seed, TRAIN, self.work_dir / "runs"),
                    self.inputs / "train.yaml")

    def quality(self, outputs: dict) -> dict:
        return {"train_final_loss": outputs["final_loss"]} if outputs else {}

    def samples(self) -> int:
        n = TRAIN["per_class"] * 10
        return TRAIN["epochs"] * (n // TRAIN["batch_size"]) * TRAIN["batch_size"]

    def run(self, op_dir: Path) -> OpResult:
        cfg = config.load_config(self.inputs / "train.yaml")
        t0 = time.perf_counter()
        out = cli.cmd_train(cfg, op_dir / "model")
        seconds = time.perf_counter() - t0
        with open(out / "training_loss.csv", newline="") as fh:
            losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
        summary = json.loads((out / "summary.json").read_text())
        net = models.load_model(out)
        params = [p.array for p in net.params]
        outputs = {
            "final_loss": losses[-1],
            "epochs": len(losses),
            "test_accuracy": summary["test_accuracy"],
            "config_hash": summary["config_hash"],
            "expected_hash": config.config_hash(cfg),
            "param_l1": float(sum(np.abs(p).sum() for p in params)),
            "param_finite": all(bool(np.isfinite(p).all()) for p in params),
            "files": {name: file_digest(out / name) for name in
                      ["training_loss.csv"] + [f"params/{f}" for f in
                                               sorted(os.listdir(out / "params"))]},
        }
        return OpResult(seconds, self.samples(), self.units, outputs)


def history_rows(seed: int) -> list[list[str]]:
    """Rows of earlier runs, shaped like sweep output; RA on a 1/500 grid, so ties occur."""
    rng = np.random.default_rng([seed, 0xC0AA])
    n = HISTORY_ROWS
    # On the scale the sweep's own rows reach, so those 3 rows do not decide
    # the correlation alone.
    ra = rng.integers(60, 100, size=n) / HISTORY_METRICS_SET
    rn = np.clip(0.1 + 0.5 * ra + rng.normal(0.0, 0.02, size=n), 0.0, 1.0)
    r0 = np.clip(rn - rng.uniform(0.0, 0.1, size=n), 0.0, 1.0)
    da = rng.integers(40, 60, size=n) / HISTORY_METRICS_SET
    g_l1 = rng.uniform(0.5, 5.0, size=n)
    sizes = [3 * (s * s - INNER[0] * INNER[1]) for s in SWEEP_SIZES]
    rows = []
    for i in range(n):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()[:16]
        rows.append([
            "synthetic-strokes", "synthetic-outline", "cwnet-w0.25-64x64", "true",
            str(sizes[i % len(sizes)]), repr(float(da[i])), repr(float(ra[i])),
            repr(float(r0[i])), repr(float(rn[i])), repr(float(g_l1[i])), str(seed + i),
            digest,
        ])
    return rows


class SweepWorkload(Workload):
    """cmd_sweep over three mask sizes with one worker per core, then
    cmd_correlate of RA against rN over earlier runs plus the sweep's rows."""

    name = "sweep"
    items_name = "reprogram_samples_per_s"
    units = len(SWEEP_SIZES) + len(CORRELATE_METHODS) + 1

    def _generate(self) -> None:
        path = _write_yaml(_experiment(self.seed, SWEEP_SOURCE, self.work_dir / "runs"),
                           self.inputs / "sweep.yaml")
        cli.cmd_train(config.load_config(path), self.inputs / "source_model")
        with open(self.inputs / "history.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(history_rows(self.seed))

    def quality(self, outputs: dict) -> dict:
        if not outputs:
            return {}
        losses = [run["best_loss"] for run in outputs["runs"]]
        return {"sweep_best_eval_loss": sum(losses) / len(losses)}

    def samples(self) -> int:
        per_run = REPROGRAM["epochs"] * (REPROGRAM["opt_set_size"] // REPROGRAM["batch_size"])
        return len(SWEEP_SIZES) * per_run * REPROGRAM["batch_size"]

    def run(self, op_dir: Path) -> OpResult:
        cfg = config.load_config(self.inputs / "sweep.yaml")
        sweep_dir = op_dir / "sweep"
        t0 = time.perf_counter()
        _, failures = cli.cmd_sweep(cfg, self.inputs / "source_model", sweep_dir,
                                    jobs=worker_count())
        sweep_s = time.perf_counter() - t0
        with open(sweep_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        runs = []
        for size in SWEEP_SIZES:
            program = sweep_dir / f"mask_{size}" / "program"
            if not (program / "program.json").exists():
                runs.append(None)
                continue
            sidecar = json.loads((program / "program.json").read_text())
            runs.append({
                "mask_outer_size": size,
                "best_loss": sidecar["best_loss"],
                "history": sidecar["history"],
                "delta": file_digest(program / "delta.tnsr"),
            })

        with open(self.inputs / "history.csv", newline="") as fh:
            history = list(csv.reader(fh))
        table = op_dir / "table.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(history + [[row[k] for k in CSV_HEADER] for row in rows])
        with open(table, newline="") as fh:
            entries = list(csv.DictReader(fh))
        x = np.array([float(r["RA"]) for r in entries])
        y = np.array([float(r["rN"]) for r in entries])
        t0 = time.perf_counter()
        results = cli.cmd_correlate(table, "RA", "rN", methods=CORRELATE_METHODS,
                                    n_permutations=PERMUTATIONS, seed=self.seed,
                                    out_dir=op_dir / "correlate")
        exact = stats.permutation_pvalue(x[:EXACT_N], y[:EXACT_N], method=EXACT_METHOD,
                                         exhaustive=True, seed=self.seed)
        correlate_s = time.perf_counter() - t0

        outputs = {
            "rows": rows,
            "runs": runs,
            "metrics_csv": file_digest(sweep_dir / "metrics.csv"),
            "failures": [f"mask {s}: {e}" for s, e in failures],
            "expected_hashes": [config.config_hash(cfg, effective_mask_outer_size=s)
                                for s in SWEEP_SIZES],
            "x": x.tolist(),
            "y": y.tolist(),
            "tests": [{"method": r.method, "coefficient": r.coefficient, "p_value": r.p_value,
                       "n_permutations": r.n_permutations} for r in results]
                     + [{"method": "exhaustive", "coefficient": exact.coefficient,
                         "p_value": exact.p_value, "n_permutations": exact.n_permutations}],
            "report": file_digest(op_dir / "correlate" / "correlations.csv"),
        }
        return OpResult(sweep_s + correlate_s, self.samples(), self.units, outputs)


WORKLOADS = {w.name: w for w in (TrainWorkload, SweepWorkload)}
