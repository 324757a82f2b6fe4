"""Why-it-worked metrics: domain alignment, gradient alignment, loss predictors.

Gradient alignment r is the ratio of the L1 norm of the average masked input
gradient to the average of the per-sample L1 norms. It is 1 when per-sample
gradients never cancel coordinate-wise (identical or orthogonal-support
gradients alike) and 0 when they cancel completely; the first-order theory
predicts reprogramming strength from the same average gradient through its
dual norm.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import LabeledDataset, embed
from .errors import ConfigurationError, SchemaError
from .models import Network, _predict_chunks, accuracy
# Not called here, but perfbench/spans.py wraps it where diagnostics would look it up.
from .models import predict_batch  # noqa: F401
from .reprogram import ClassMap, Mask
from .tensor import Tensor, replace_file

CSV_HEADER = [
    "source", "target", "model", "trained", "mask_size",
    "DA", "RA", "r0", "rN", "g_l1", "seed", "config_hash",
]


@dataclass
class MetricsRecord:
    """One experiment row; field order matches the fixed CSV header."""

    source: str
    target: str
    model: str
    trained: bool
    mask_size: int
    da: float
    ra: float
    r0: float
    rn: float
    g_l1: float
    seed: int
    config_hash: str

    def __post_init__(self):
        for name in ("da", "ra", "r0", "rn"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name}={value} outside [0, 1]")
        if not (np.isfinite(self.g_l1) and self.g_l1 >= 0.0):
            raise ConfigurationError(f"g_l1={self.g_l1} is not finite and non-negative")
        if self.mask_size < 0:
            raise ConfigurationError(f"mask_size={self.mask_size} negative")

    def to_csv_row(self) -> list[str]:
        return [
            self.source, self.target, self.model, str(self.trained).lower(),
            str(self.mask_size), repr(self.da), repr(self.ra), repr(self.r0),
            repr(self.rn), repr(self.g_l1), str(self.seed), self.config_hash,
        ]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "MetricsRecord":
        if row[3] not in ("true", "false"):
            raise ValueError(f"trained must be true or false, got {row[3]!r}")
        return cls(
            source=row[0], target=row[1], model=row[2], trained=row[3] == "true",
            mask_size=int(row[4]), da=float(row[5]), ra=float(row[6]), r0=float(row[7]),
            rn=float(row[8]), g_l1=float(row[9]), seed=int(row[10]), config_hash=row[11],
        )

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def append_metrics(record: MetricsRecord, csv_path, jsonl_path=None) -> None:
    """Append one row to the CSV report (header written once) and JSON lines."""
    csv_path = Path(csv_path)
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.to_csv_row())
    if jsonl_path is not None:
        with open(jsonl_path, "a") as fh:
            fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")


def csv_text(rows) -> str:
    """``rows`` as CSV text, in the dialect of every CSV file reprolab writes."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def write_metrics(records, csv_path, jsonl_path) -> None:
    """Write the CSV report and JSON lines afresh, one row per record.

    The bytes equal those that append_metrics writes for the same records into
    files that did not exist.
    """
    replace_file(csv_path, csv_text([CSV_HEADER, *(record.to_csv_row() for record in records)]))
    replace_file(jsonl_path, "".join(json.dumps(record.to_json(), sort_keys=True) + "\n"
                                     for record in records))


def read_metrics_csv(csv_path) -> list[MetricsRecord]:
    """The records of a metrics CSV; SchemaError names the file and line of a bad row."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != CSV_HEADER:
            raise ConfigurationError(f"{csv_path}: unexpected header {header}")
        records = []
        for row in reader:
            try:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"{len(row)} fields, expected {len(CSV_HEADER)}")
                records.append(MetricsRecord.from_csv_row(row))
            except (ValueError, ConfigurationError) as exc:
                raise SchemaError(f"{csv_path}, line {reader.line_num}: {exc}") from exc
        return records


# -- accuracy-style metrics -----------------------------------------------------


def domain_alignment(net: Network, target_set: LabeledDataset, class_map: ClassMap) -> float:
    """Mapped accuracy on zero-padded target samples before any perturbation."""
    return accuracy(net, target_set, mapping=class_map.map)


def reprogramming_accuracy(net: Network, target_set: LabeledDataset, offset: np.ndarray,
                           class_map: ClassMap) -> float:
    """Mapped accuracy on perturbed target samples x + offset, where offset = delta o M."""
    return diagonal_accuracy(confusion_matrix(net, target_set, offset, class_map))


def diagonal_accuracy(counts: np.ndarray) -> float:
    """Mapped accuracy from a confusion matrix: its diagonal over the sample count."""
    return int(np.trace(counts)) / int(counts.sum())


# -- gradient alignment ------------------------------------------------------------


def _alignment_ratio(sum_grad: np.ndarray, sum_norms: float, count: int) -> float:
    denominator = sum_norms / count
    if denominator == 0.0:
        return 0.0
    # r <= 1 by the triangle inequality; only rounding exceeds it, as when
    # dividing subnormal sums by ``count`` rounds the numerator up.
    return min(1.0, float(np.abs(sum_grad / count).sum() / denominator))


def gradient_alignment(gradients) -> float:
    """r = ||mean g_i||_1 / mean ||g_i||_1 in [0, 1]; 0 when all gradients vanish."""
    if len(gradients) == 0:
        raise ConfigurationError("gradient_alignment needs at least one gradient")
    arrays = [np.asarray(g, dtype=np.float64) for g in gradients]
    sum_grad = np.zeros_like(arrays[0])
    sum_norms = 0.0
    for arr in arrays:
        sum_grad += arr
        sum_norms += float(np.abs(arr).sum())
    return _alignment_ratio(sum_grad, sum_norms, len(arrays))


# Input elements per chunk of per-sample input gradients: 5 samples at 3x64x64,
# 21 at 3x32x32, 85 at 3x16x16. A chunk's tape stays small, so the memory of the
# alignment diagnostics does not grow with the size of the evaluation set.
_CHUNK_ELEMENTS = 1 << 16


def _input_gradients(net: Network, images: np.ndarray, labels: np.ndarray, offset: np.ndarray,
                     class_map: ClassMap) -> np.ndarray:
    """Unmasked per-sample input gradients at x_i + offset; shape (n, *input).

    One batched backward over the chunk ``images`` suffices: with the chunk's
    loss scaled by n, the input gradient at slot i is exactly the gradient of
    sample i's own loss.
    """
    x = Tensor(images, requires_grad=True)
    loss = T.scale(T.softmax_cross_entropy(net.forward(T.add(x, Tensor(offset))),
                                           class_map.apply(labels)), len(images))
    T.backward(loss)
    return x.grad


def alignment_stats(net: Network, dataset: LabeledDataset, offset: np.ndarray, masks: list[Mask],
                    class_map: ClassMap) -> list[tuple[float, float]]:
    """(r, ||g||_1) for each of ``masks``, from the input gradients at x + offset.

    A program enters as its offset delta o M. At the zero program the offset
    is zero for every mask, so all masks share one input gradient per chunk
    and each selects its own coordinates; an optimized program passes its
    offset with its one mask. The gradients come in chunks of about
    _CHUNK_ELEMENTS network input elements, each chunk's images built at the
    input's size (datasets.embed) for its backward; each mask's gradient sum
    and norm sum accumulate over the chunks.
    """
    images = dataset.images.array
    chunk = max(1, _CHUNK_ELEMENTS // offset.size)
    sum_grads = [np.zeros(m.array.shape) for m in masks]
    sum_norms = [0.0] * len(masks)
    for start in range(0, len(dataset), chunk):
        rows = slice(start, start + chunk)
        raw = _input_gradients(net, embed(images[rows], offset.shape), dataset.labels[rows],
                               offset, class_map)
        for i, m in enumerate(masks):
            grads = raw * m.array
            sum_grads[i] += grads.sum(axis=0)
            sum_norms[i] += float(np.abs(grads).sum())
    count = len(dataset)
    return [(_alignment_ratio(sum_grad, sum_norm, count), float(np.abs(sum_grad / count).sum()))
            for sum_grad, sum_norm in zip(sum_grads, sum_norms)]


# -- first-order loss predictors ------------------------------------------------------


def predicted_loss_drop(g, p, epsilon: float = 1.0) -> float:
    """First-order optimum of delta^T g over the epsilon ball: -epsilon ||g||_q.

    q is the dual exponent of p (1/p + 1/q = 1), so p=1, 2, inf give
    q=inf, 2, 1.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    arr = np.asarray(g, dtype=np.float64)
    if p == 1:
        norm = float(np.abs(arr).max(initial=0.0))
    elif p == 2:
        norm = float(np.sqrt((arr * arr).sum()))
    elif p in (np.inf, float("inf")):
        norm = float(np.abs(arr).sum())
    else:
        raise ConfigurationError(f"unsupported norm p={p!r}; use 1, 2, or inf")
    return -float(epsilon) * norm


# -- confusion matrices ----------------------------------------------------------------


def confusion_matrix(net: Network, target_set: LabeledDataset, offset: np.ndarray | None,
                     class_map: ClassMap) -> np.ndarray:
    """Counts of true target class vs predicted class pulled back through the map.

    Shape (num_target, num_target + 1): predictions outside the map's image
    fall into the trailing "other" column. Samples are x + offset, where
    offset = delta o M; ``offset=None`` evaluates the zero program (the
    domain-alignment condition).
    """
    k = target_set.num_classes
    if offset is None:
        offset = np.zeros(target_set.input_shape)
    chunks = _predict_chunks(net, target_set.images.array, offset)
    pred = np.concatenate([chunk_pred for _, chunk_pred, _ in chunks])
    # The map is injective, so each prediction matches at most one target class.
    match = pred[:, None] == class_map.map[None, :]
    column = np.where(match.any(axis=1), match.argmax(axis=1), k)
    counts = np.zeros((k, k + 1), dtype=np.int64)
    np.add.at(counts, (target_set.labels, column), 1)
    return counts


def save_confusion_csv(counts: np.ndarray, path) -> None:
    header = ["true\\pred"] + [str(i) for i in range(counts.shape[0])] + ["other"]
    rows = [[str(i)] + [str(int(v)) for v in row] for i, row in enumerate(counts)]
    replace_file(path, csv_text([header, *rows]))
