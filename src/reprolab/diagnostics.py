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
from .datasets import LabeledDataset
from .errors import ConfigurationError, SchemaError
from .models import Network, _predict_chunks, accuracy
# Not called here, but perfbench/spans.py wraps it where diagnostics would look it up.
from .models import predict_batch  # noqa: F401
from .reprogram import ClassMap, Mask, _delta_array
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


def write_metrics(records, csv_path, jsonl_path=None) -> None:
    """Write the CSV report and JSON lines afresh, one row per record.

    The bytes equal those that append_metrics writes for the same records into
    files that did not exist.
    """
    replace_file(csv_path, csv_text([CSV_HEADER, *(record.to_csv_row() for record in records)]))
    if jsonl_path is not None:
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
            except ValueError as exc:
                raise SchemaError(f"{csv_path}, line {reader.line_num}: {exc}") from exc
        return records


# -- accuracy-style metrics -----------------------------------------------------


def domain_alignment(net: Network, target_set: LabeledDataset, class_map: ClassMap) -> float:
    """Mapped accuracy on zero-padded target samples before any perturbation."""
    return accuracy(net, target_set, mapping=class_map.map)


def reprogramming_accuracy(net: Network, target_set: LabeledDataset, prog, mask: Mask,
                           class_map: ClassMap, batch_size: int = 200) -> float:
    """Mapped accuracy on perturbed target samples x + delta o M."""
    return diagonal_accuracy(confusion_matrix(net, target_set, prog, mask, class_map,
                                              batch_size))


def diagonal_accuracy(counts: np.ndarray) -> float:
    """Mapped accuracy from a confusion matrix: its diagonal over the sample count."""
    return int(np.trace(counts)) / int(counts.sum())


# -- gradient alignment ------------------------------------------------------------


def _alignment_ratio(sum_grad: np.ndarray, sum_norms: float, count: int) -> float:
    denominator = sum_norms / count
    if denominator == 0.0:
        return 0.0
    return float(np.abs(sum_grad / count).sum() / denominator)


def gradient_alignment(gradients) -> float:
    """r = ||mean g_i||_1 / mean ||g_i||_1 in [0, 1]; 0 when all gradients vanish."""
    if len(gradients) == 0:
        raise ConfigurationError("gradient_alignment needs at least one gradient")
    arrays = [g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
              for g in gradients]
    sum_grad = np.zeros_like(arrays[0])
    sum_norms = 0.0
    for arr in arrays:
        sum_grad += arr
        sum_norms += float(np.abs(arr).sum())
    return _alignment_ratio(sum_grad, sum_norms, len(arrays))


def _input_gradients(net, images: np.ndarray, labels: np.ndarray, prog, mask: Mask,
                     class_map: ClassMap) -> np.ndarray:
    """Unmasked per-sample input gradients at x_i + delta o M; shape (n, *input).

    One batched backward suffices: with the batch loss scaled by n, the input
    gradient at slot i is exactly the gradient of sample i's own loss.
    """
    x = Tensor(images, requires_grad=True)
    pert = T.add(x, T.mul(Tensor(_delta_array(prog)), Tensor(mask.array)))
    loss = T.scale(T.softmax_cross_entropy(net.forward(pert), class_map.apply(labels)),
                   len(images))
    T.backward(loss)
    return x.grad if x.grad is not None else np.zeros_like(images)


def _alignment_per_mask(net, dataset: LabeledDataset, prog, mask: Mask, masks: list[Mask],
                        class_map: ClassMap, batch_size: int) -> list[tuple[float, float]]:
    """(r, ||g||_1) for each of ``masks``, from the input gradients at x + delta o M."""
    images = dataset.images.array
    sum_grads = [np.zeros(m.array.shape) for m in masks]
    sum_norms = [0.0] * len(masks)
    count = 0
    for start in range(0, len(dataset), batch_size):
        stop = min(start + batch_size, len(dataset))
        raw = _input_gradients(net, images[start:stop], dataset.labels[start:stop], prog, mask,
                               class_map)
        for i, m in enumerate(masks):
            grads = raw * m.array
            sum_grads[i] += grads.sum(axis=0)
            sum_norms[i] += float(np.abs(grads).sum())
        count += stop - start
    return [(_alignment_ratio(sum_grad, sum_norm, count), float(np.abs(sum_grad / count).sum()))
            for sum_grad, sum_norm in zip(sum_grads, sum_norms)]


def alignment_stats(net, dataset: LabeledDataset, prog, mask: Mask, class_map: ClassMap,
                    batch_size: int = 50) -> tuple[float, float]:
    """(r, ||g||_1) of masked per-sample gradients over a dataset, streamed."""
    return _alignment_per_mask(net, dataset, prog, mask, [mask], class_map, batch_size)[0]


def zero_program_alignment(net, dataset: LabeledDataset, masks: list[Mask],
                           class_map: ClassMap, batch_size: int = 50) -> list[tuple[float, float]]:
    """(r0, ||g||_1) at the zero program for each mask, from one backward per batch.

    At delta = 0 the perturbed input x + 0 o M is x for every mask, so all masks
    share one input gradient and each only selects its coordinates. Entry i
    equals alignment_stats(net, dataset, zeros, masks[i], ...) exactly.
    """
    zero = np.zeros(masks[0].array.shape)
    return _alignment_per_mask(net, dataset, zero, masks[0], masks, class_map, batch_size)


# -- first-order loss predictors ------------------------------------------------------


def predicted_loss_drop(g, p, epsilon: float = 1.0) -> float:
    """First-order optimum of delta^T g over the epsilon ball: -epsilon ||g||_q.

    q is the dual exponent of p (1/p + 1/q = 1), so p=1, 2, inf give
    q=inf, 2, 1.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    arr = g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
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


def confusion_matrix(net: Network, target_set: LabeledDataset, prog, mask: Mask,
                     class_map: ClassMap, batch_size: int = 200) -> np.ndarray:
    """Counts of true target class vs predicted class pulled back through the map.

    Shape (num_target, num_target + 1): predictions outside the map's image
    fall into the trailing "other" column. ``prog=None`` evaluates the zero
    program (the domain-alignment condition).
    """
    k = target_set.num_classes
    offset = None if prog is None else _delta_array(prog) * mask.array
    chunks = _predict_chunks(net, target_set.images.array, offset, batch_size)
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
