"""Adversarial program optimization: mask, class map, loss, and sign-SGD.

The program is a single perturbation ``delta`` in [-1, 1]^d applied through a
binary frame mask to every target-domain sample. Optimization follows
sign-gradient descent with box projection: per batch, delta moves eta along
the negative sign of the average masked input gradient; after each epoch the
loss on a held-out evaluation set decides whether the current delta becomes
the returned optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import LabeledDataset, make_batches, window_origin
from .errors import ConfigurationError, InjectivityError, NumericError, ShapeError
from .models import _predict_chunks, forward_framed
from .tensor import Tensor, load_tensor, save_tensor, write_json


@dataclass
class Mask:
    """Binary array selecting the perturbable region; size() is its L1 norm."""

    array: np.ndarray
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isin(self.array, (0.0, 1.0)).all():
            raise ConfigurationError("mask entries must be 0 or 1")

    def size(self) -> int:
        return int(self.array.sum())


@dataclass
class ClassMap:
    """Injective map from target-domain labels to source-domain labels."""

    map: np.ndarray

    def __post_init__(self):
        self.map = np.asarray(self.map, dtype=np.int64)
        if len(np.unique(self.map)) != len(self.map):
            raise InjectivityError(f"class map {self.map.tolist()} reuses a source class")

    def apply(self, labels: np.ndarray) -> np.ndarray:
        return self.map[np.asarray(labels, dtype=np.int64)]


@dataclass
class Program:
    """Optimized perturbation with its evaluation-loss trail.

    ``history[0]`` is the evaluation loss of the zero program; one entry per
    epoch follows. ``best_loss`` is the minimum of the recorded history and
    ``delta`` the perturbation achieving it.
    """

    delta: np.ndarray
    best_loss: float = float("inf")
    history: list[float] = field(default_factory=list)


@dataclass
class ReprogramConfig:
    eta: float = 0.005
    epochs: int = 100
    batch_size: int = 50
    opt_set_size: int = 5000
    eval_set_size: int = 5000
    metrics_set_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {self.batch_size}")
        for name in ("opt_set_size", "eval_set_size", "metrics_set_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size > self.opt_set_size:
            raise ConfigurationError(f"batch size {self.batch_size} exceeds opt_set_size "
                                     f"{self.opt_set_size}")


def build_frame_mask(input_shape: tuple[int, int, int], inner_size: tuple[int, int],
                     outer_size: int | None = None) -> Mask:
    """Mask that is 0 over the centered inner region and 1 on the frame.

    ``outer_size`` restricts the active frame to a centered square annulus of
    that extent (everything outside it is masked off), which is how mask-size
    sweeps shrink the program without moving the embedded image.
    """
    c, h, w = input_shape
    ih, iw = inner_size
    if ih > h or iw > w:
        raise ShapeError(f"inner {inner_size} larger than input {input_shape}")
    arr = np.ones((c, h, w))
    row, col = window_origin((c, ih, iw), input_shape)
    arr[:, row : row + ih, col : col + iw] = 0.0
    if outer_size is not None:
        if outer_size > min(h, w):
            raise ShapeError(f"outer size {outer_size} larger than input {input_shape}")
        if outer_size < max(ih, iw):
            raise ShapeError(f"outer size {outer_size} smaller than inner image {inner_size}")
        keep = np.zeros((c, h, w))
        orow, ocol = (h - outer_size) // 2, (w - outer_size) // 2
        keep[:, orow : orow + outer_size, ocol : ocol + outer_size] = 1.0
        arr *= keep
    return Mask(
        array=arr,
        spec={"input_shape": list(input_shape), "inner_size": list(inner_size),
              "outer_size": outer_size},
    )


def build_class_map(num_target_classes: int, spec="first-ten",
                    num_source_classes: int | None = None) -> ClassMap:
    """'first-ten' maps target class k to source class k; lists are explicit."""
    if isinstance(spec, str):
        if spec != "first-ten":
            raise ConfigurationError(f"unknown class-map spec {spec!r}")
        mapping = np.arange(num_target_classes, dtype=np.int64)
    else:
        mapping = np.asarray(spec, dtype=np.int64)
        if len(mapping) != num_target_classes:
            raise ConfigurationError(
                f"class map has {len(mapping)} entries for {num_target_classes} classes"
            )
    upper = np.inf if num_source_classes is None else num_source_classes
    if ((mapping < 0) | (mapping >= upper)).any():
        raise ConfigurationError(
            f"class map {mapping.tolist()} references classes outside [0, {upper})"
        )
    return ClassMap(map=mapping)


def box_project(delta: np.ndarray) -> np.ndarray:
    """Elementwise clamp to [-1, 1]."""
    return np.clip(delta, -1.0, 1.0)


def _mean_loss(net, images: np.ndarray, offset, mapped: np.ndarray, loss_fn=None) -> float:
    """Mean loss of images + offset over models.predict_batch's evaluation chunks;
    ``loss_fn`` None is softmax cross-entropy."""
    loss_fn = loss_fn or T.softmax_cross_entropy
    total = 0.0
    for rows, _, logits in _predict_chunks(net, images, offset):
        total += loss_fn(Tensor(logits), mapped[rows]).item() * len(logits)
    return total / len(images)


def reprogramming_loss(net, images: np.ndarray, labels: np.ndarray, delta: np.ndarray,
                       mask: Mask, class_map: ClassMap) -> float:
    """Mean cross-entropy of perturbed samples against their mapped source labels."""
    return _mean_loss(net, images, delta * mask.array, class_map.apply(labels))


def zero_program_loss(net, eval_set: LabeledDataset, class_map: ClassMap,
                      loss_fn=None) -> float:
    """Evaluation loss of the zero program, ``history[0]`` of optimize_program.

    It is the same for every mask, because x + 0 o M = x.
    """
    return _mean_loss(net, eval_set.images.array, np.zeros(eval_set.input_shape),
                      class_map.apply(eval_set.labels), loss_fn)


def average_masked_gradient(net, images: np.ndarray, labels: np.ndarray, delta: np.ndarray,
                            mask: Mask, class_map: ClassMap, loss_fn=None) -> np.ndarray:
    """(1/B) sum of per-sample input gradients at x_i + delta o M, masked.

    Computed as the gradient of the mean batch loss with respect to delta,
    which the chain rule through delta o M masks exactly (zero off-mask). The
    forward shares the frame across the batch and reads the stored images
    where they sit (models.forward_framed), so the backward sums the batch's
    cotangents on the shared region and runs once.
    """
    if len(labels) == 0:
        raise ConfigurationError("average_masked_gradient needs a nonempty batch")
    loss_fn = loss_fn or T.softmax_cross_entropy
    delta_t = Tensor(delta, requires_grad=True)
    logits = forward_framed(net, images, T.mul(delta_t, Tensor(mask.array)))
    loss = loss_fn(logits, class_map.apply(labels))
    if not np.isfinite(loss.item()):
        raise NumericError("non-finite loss while computing the average input gradient")
    T.backward(loss)
    return delta_t.grad if delta_t.grad is not None else np.zeros_like(delta)


def optimize_program(net, opt_set: LabeledDataset, eval_set: LabeledDataset, mask: Mask,
                     class_map: ClassMap, cfg: ReprogramConfig, loss_fn=None,
                     step_callback=None, initial_loss: float | None = None) -> Program:
    """Sign-gradient descent on the masked program with box projection.

    Per epoch the optimization set is reshuffled and split into full batches;
    each batch contributes one step delta <- clamp(delta - eta sign(g)). After
    each epoch the loss on the held-out evaluation set is recorded, and the
    delta with the minimum recorded loss is returned. sign(0) = 0, so
    coordinates outside the mask never move.

    ``initial_loss`` is the zero program's evaluation loss when the caller has
    already computed it with zero_program_loss; otherwise it is computed here.
    ``initial_loss=math.inf`` defers the zero program: every epoch beats it, so
    the result holds the best epoch, and merge_zero_program later turns it
    into the result for the real zero-program loss.
    ``step_callback(epoch, batch, delta)`` observes read-only snapshots.
    """
    if hasattr(net, "set_requires_grad"):
        net.set_requires_grad(False)
    mask_arr = mask.array
    opt_images = opt_set.images.array
    mapped_eval = class_map.apply(eval_set.labels)

    delta = np.zeros(mask_arr.shape)
    if initial_loss is None:
        initial_loss = zero_program_loss(net, eval_set, class_map, loss_fn)
    if not (np.isfinite(initial_loss) or initial_loss == np.inf):
        raise NumericError("non-finite evaluation loss at the zero program")
    history = [initial_loss]
    best_loss, best_delta = initial_loss, delta.copy()

    for epoch in range(cfg.epochs):
        for batch_index, idx in enumerate(make_batches(opt_set, cfg.batch_size, cfg.seed, epoch)):
            g = average_masked_gradient(
                net, opt_images[idx], opt_set.labels[idx], delta, mask, class_map, loss_fn
            )
            delta = box_project(delta - cfg.eta * np.sign(g))
            if step_callback is not None:
                step_callback(epoch, batch_index, delta.copy())
        epoch_loss = _mean_loss(net, eval_set.images.array, delta * mask_arr, mapped_eval,
                                loss_fn)
        if not np.isfinite(epoch_loss):
            raise NumericError(f"non-finite evaluation loss after epoch {epoch}")
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_delta = delta.copy()

    return Program(delta=best_delta, best_loss=best_loss, history=history)


def merge_zero_program(initial_loss: float, best_epoch: Program) -> Program:
    """optimize_program's result for ``initial_loss``, from its result for inf.

    The epochs do not depend on ``history[0]``, so the zero program can be
    compared last. It wins unless the best epoch is strictly lower, which is
    the rule optimize_program applies epoch by epoch; ties go to the zero
    program.
    """
    if not np.isfinite(initial_loss):
        raise NumericError("non-finite evaluation loss at the zero program")
    history = [initial_loss, *best_epoch.history[1:]]
    if best_epoch.best_loss < initial_loss:
        return Program(delta=best_epoch.delta, best_loss=best_epoch.best_loss, history=history)
    return Program(delta=np.zeros(best_epoch.delta.shape), best_loss=initial_loss,
                   history=history)


# -- checkpointing -----------------------------------------------------------------


def save_program(prog: Program, directory, mask: Mask, class_map: ClassMap,
                 cfg: ReprogramConfig, extra: dict | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_tensor(Tensor(prog.delta), directory / "delta.tnsr")
    sidecar = {
        "format": "reprolab-program-v1",
        "best_loss": prog.best_loss,
        "history": prog.history,
        "mask": mask.spec,
        "class_map": [int(v) for v in class_map.map],
        "config": vars(cfg),
    }
    if extra:
        sidecar.update(extra)
    write_json(directory / "program.json", sidecar)


def load_program(directory) -> tuple[Program, dict]:
    directory = Path(directory)
    sidecar = json.loads((directory / "program.json").read_text())
    prog = Program(
        delta=load_tensor(directory / "delta.tnsr").array,
        best_loss=sidecar["best_loss"],
        history=list(sidecar["history"]),
    )
    return prog, sidecar
