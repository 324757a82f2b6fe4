"""Output checker: every operation's outputs against invariants, the first
operation of the run, and stored reference values.

Each checker returns ``{unit: [messages]}``, where a unit is one attempted
operation (the cmd_train call, one sweep run, one correlation test); a unit
with any message counts as failed. References are stored per workload and
seed in ``references.json``, written by ``run.py --write-references`` on a
known-good commit; a seed without a stored entry is checked against the
invariants, independent recomputation and determinism alone.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import stats as sps

import workloads as W

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Tolerances. DA and RA are exact fractions, so any moved sample fails. Losses,
# diagnostics and checksums are float64 results of a fixed operation order;
# 1e-8 relative admits reordered float64 sums but not a float32 computation.
TOL_EXACT = 1e-12
TOL_REL = 1e-8
TOL_COEF = 1e-9


def load_references() -> dict:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {}


def _close(value, ref, rel=TOL_REL) -> bool:
    return abs(float(value) - float(ref)) <= max(rel * abs(float(ref)), TOL_EXACT)


# -- train ---------------------------------------------------------------------------


def train_reference(out: dict) -> dict:
    return {k: out[k] for k in ("final_loss", "test_accuracy", "param_l1")}


def check_train(out: dict, first: dict | None, ref: dict | None) -> dict:
    bad = []
    if out["epochs"] != W.TRAIN["epochs"]:
        bad.append(f"{out['epochs']} epochs in training_loss.csv, expected {W.TRAIN['epochs']}")
    if not (math.isfinite(out["final_loss"]) and out["final_loss"] > 0):
        bad.append(f"final loss {out['final_loss']} not a positive number")
    if not 0.0 <= out["test_accuracy"] <= 1.0:
        bad.append(f"test accuracy {out['test_accuracy']} outside [0, 1]")
    if out["config_hash"] != out["expected_hash"]:
        bad.append(f"summary config_hash {out['config_hash']} != {out['expected_hash']}")
    if not out["param_finite"]:
        bad.append("non-finite parameters in the checkpoint")
    if first is not None and out["files"] != first["files"]:
        changed = sorted(k for k in out["files"] if out["files"][k] != first["files"].get(k))
        bad.append(f"checkpoint not byte-identical to the first operation: {changed[:3]}")
    if ref is not None:
        for key in ("final_loss", "param_l1"):
            if not _close(out[key], ref[key]):
                bad.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
        if not _close(out["test_accuracy"], ref["test_accuracy"], 0.0):
            bad.append(f"test_accuracy {out['test_accuracy']} != reference {ref['test_accuracy']}")
    return {0: bad} if bad else {}


# -- sweep ---------------------------------------------------------------------------

_ROW_EXACT = ("DA", "RA")
_ROW_CLOSE = ("r0", "rN", "g_l1")


def sweep_reference(out: dict) -> dict:
    return {
        "rows": [{k: row[k] for k in _ROW_EXACT + _ROW_CLOSE + ("config_hash",)}
                 for row in out["rows"]],
        "best_loss": [run["best_loss"] for run in out["runs"]],
        **correlate_reference(out),
    }


def check_sweep(out: dict, first: dict | None, ref: dict | None, seed: int) -> dict:
    """The sweep's runs, one unit each; ``check`` adds the correlation tests."""
    bad = defaultdict(list)
    sizes = W.SWEEP_SIZES
    for message in out["failures"]:
        size = int(message.split()[1].rstrip(":"))
        bad[sizes.index(size)].append(f"run raised: {message}")
    rows = out["rows"]
    if len(rows) != len(sizes):
        for i in range(len(rows), len(sizes)):
            bad[i].append("no metrics row")
    n_metrics = W.REPROGRAM["metrics_set_size"]
    for i, row in enumerate(rows[: len(sizes)]):
        expected_size = 3 * (sizes[i] ** 2 - W.INNER[0] * W.INNER[1])
        if int(row["mask_size"]) != expected_size:
            bad[i].append(f"mask_size {row['mask_size']} != {expected_size}")
        if row["config_hash"] != out["expected_hashes"][i]:
            bad[i].append(f"config_hash {row['config_hash']} != {out['expected_hashes'][i]}")
        if int(row["seed"]) != seed:
            bad[i].append(f"seed {row['seed']} != {seed}")
        for key in _ROW_EXACT:
            value = float(row[key])
            if not (0.0 <= value <= 1.0 and abs(value * n_metrics - round(value * n_metrics))
                    < 1e-9):
                bad[i].append(f"{key}={value} is not a multiple of 1/{n_metrics} in [0, 1]")
        for key in _ROW_CLOSE:
            if not math.isfinite(float(row[key])):
                bad[i].append(f"{key}={row[key]} not finite")
        if first is not None and i < len(first["rows"]) and row != first["rows"][i]:
            bad[i].append("metrics row differs from the first operation of this seed")
        if ref is not None:
            ref_row = ref["rows"][i]
            for key in _ROW_EXACT:
                if not _close(row[key], ref_row[key], 0.0):
                    bad[i].append(f"{key} {row[key]} != reference {ref_row[key]}")
            for key in _ROW_CLOSE:
                if not _close(row[key], ref_row[key]):
                    bad[i].append(f"{key} {row[key]} != reference {ref_row[key]}")
            if row["config_hash"] != ref_row["config_hash"]:
                bad[i].append(f"config_hash {row['config_hash']} != reference")
    if first is not None and out["metrics_csv"] != first["metrics_csv"] and not bad:
        bad[0].append("metrics.csv not byte-identical to the first operation")
    for i, run in enumerate(out["runs"]):
        if run is None:
            bad[i].append("no program.json written")
            continue
        history = run["history"]
        if len(history) != W.REPROGRAM["epochs"] + 1:
            bad[i].append(f"history has {len(history)} entries")
        if run["best_loss"] != min(history):
            bad[i].append(f"best_loss {run['best_loss']} != min(history) {min(history)}")
        if first is not None and first["runs"][i] is not None \
                and run["delta"] != first["runs"][i]["delta"]:
            bad[i].append("delta.tnsr not byte-identical to the first operation")
        if ref is not None and not _close(run["best_loss"], ref["best_loss"][i]):
            bad[i].append(f"best_loss {run['best_loss']!r} != reference {ref['best_loss'][i]!r}")
    return dict(bad)


# -- correlate -----------------------------------------------------------------------


def correlate_reference(out: dict) -> dict:
    return {"coefficients": [t["coefficient"] for t in out["tests"]],
            "p_values": [t["p_value"] for t in out["tests"]]}


def scipy_coefficients(x, y) -> list[float]:
    n = W.EXACT_N
    return [
        float(sps.pearsonr(x, y)[0]),
        float(sps.spearmanr(x, y)[0]),
        float(sps.kendalltau(x, y, variant="b")[0]),
        float(sps.pearsonr(x[:n], y[:n])[0]),
    ]


def check_correlate(out: dict, first: dict | None, ref: dict | None) -> dict:
    bad = defaultdict(list)
    tests = out["tests"]
    expected_methods = W.CORRELATE_METHODS + ["exhaustive"]
    if [t["method"] for t in tests] != expected_methods:
        return {i: ["methods differ from the request"] for i in range(len(expected_methods))}
    x, y = np.asarray(out["x"]), np.asarray(out["y"])
    for i, (test, coef) in enumerate(zip(tests, scipy_coefficients(x, y))):
        if not _close(test["coefficient"], coef, TOL_COEF):
            bad[i].append(f"{test['method']} coefficient {test['coefficient']!r} != scipy {coef!r}")
        total = test["n_permutations"] + (0 if test["method"] == "exhaustive" else 1)
        expected_total = math.factorial(W.EXACT_N) if test["method"] == "exhaustive" \
            else W.PERMUTATIONS + 1
        count = test["p_value"] * total
        if total != expected_total or not (1 <= round(count) <= total) \
                or abs(count - round(count)) > 1e-6:
            bad[i].append(f"p-value {test['p_value']} is not k/{expected_total}")
        if first is not None and test != first["tests"][i]:
            bad[i].append("result differs from the first operation of this seed")
        if ref is not None:
            if not _close(test["p_value"], ref["p_values"][i], 0.0):
                bad[i].append(f"p-value {test['p_value']!r} != reference {ref['p_values'][i]!r}")
            if not _close(test["coefficient"], ref["coefficients"][i], TOL_COEF):
                bad[i].append(f"coefficient {test['coefficient']!r} != reference")
    if first is not None and out["report"] != first["report"] and not bad:
        bad[0].append("correlations.csv not byte-identical to the first operation")
    return dict(bad)


def check(workload: str, out: dict, first: dict | None, ref: dict | None, seed: int) -> dict:
    if workload == "train":
        return check_train(out, first, ref)
    bad = check_sweep(out, first, ref, seed)
    for unit, messages in check_correlate(out, first, ref).items():
        bad[len(W.SWEEP_SIZES) + unit] = messages
    return bad


REFERENCE_OF = {"train": train_reference, "sweep": sweep_reference}
