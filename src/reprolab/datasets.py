"""Dataset ingestion, synthesis, and preprocessing.

Raw datasets carry pixel values in [0, 255]; ``preprocess`` rescales to
[-1, 1] and keeps the image at its own size and channel count. The network
sees it centred in a zero frame of its input size, with a single channel
repeated across the input's channels (``window_origin``, ``embed``). The
framed forward reads the stored image where it sits; a network-size array is
built only where a computation needs one (a tape-path batch, an alignment
chunk, the standardization fit). The frame is exactly 0 by construction,
which the reprogramming mask relies on. Images of the network's input shape
sit at the origin.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ConsistencyError, FormatError, ShapeError
from .tensor import Tensor, replace_file

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Images (n, c, h, w) with integer labels in [0, num_classes).

    ``pad`` is the network input the images were preprocessed for, which reads
    each image centred in its zero frame (``embed``); None when the images
    have the input's shape themselves, or are raw.
    """

    images: Tensor
    labels: np.ndarray
    num_classes: int
    name: str = ""
    pad: PadSpec | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.array.ndim != 4:
            raise ShapeError(f"dataset images must be 4-D, got shape {self.images.shape}")
        if len(self.labels) != self.images.shape[0]:
            raise ConsistencyError(
                f"{self.images.shape[0]} images but {len(self.labels)} labels"
            )
        if self.pad is not None:
            window_origin(self.images.shape[1:], self.pad.target_size)

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The (C, H, W) network input the images are for."""
        return tuple(self.pad.target_size) if self.pad is not None else self.images.shape[1:]

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices, name: str | None = None) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            images=Tensor(self.images.array[idx]),
            labels=self.labels[idx],
            num_classes=self.num_classes,
            name=self.name if name is None else name,
            pad=self.pad,
        )


@dataclass(frozen=True)
class PadSpec:
    """Target (C, H, W) frame around a centered inner (h, w) image."""

    target_size: tuple[int, int, int]
    inner_size: tuple[int, int]

    def __post_init__(self):
        c, height, width = self.target_size
        ih, iw = self.inner_size
        if min(c, height, width, ih, iw) <= 0:
            raise ShapeError(f"non-positive extents in {self}")
        if ih > height or iw > width:
            raise ShapeError(f"inner {self.inner_size} does not fit in {self.target_size}")


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"{path}: truncated {what} (wanted {count} bytes, got {len(data)})")
    return data


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair into a raw (pre-preprocessing) dataset.

    Pixel bytes become floats in [0, 255]; images get a leading channel axis.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}"
            )
        payload = _read_exact(fh, count * rows * cols, images_path, "pixel payload")
        images = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        images = images.reshape(count, 1, rows, cols)

    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}"
            )
        if label_count != count:
            raise ConsistencyError(
                f"{images_path} holds {count} images but {labels_path} holds "
                f"{label_count} labels"
            )
        labels = np.frombuffer(_read_exact(fh, count, labels_path, "label payload"), dtype=np.uint8)

    return LabeledDataset(
        images=Tensor(images),
        labels=labels.astype(np.int64),
        num_classes=int(labels.max()) + 1 if count else 0,
        name=images_path.stem,
    )


def write_idx(ds: LabeledDataset, images_path, labels_path) -> None:
    """Write a raw single-channel dataset as an IDX image/label file pair."""
    arr = ds.images.array
    if arr.shape[1] != 1:
        raise ShapeError(f"IDX export needs single-channel images, got {arr.shape[1]} channels")
    n, _, rows, cols = arr.shape
    replace_file(images_path, b"".join([struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols),
                                        np.clip(np.rint(arr), 0, 255).astype(np.uint8)]))
    replace_file(labels_path, b"".join([struct.pack(">II", _IDX_LABELS_MAGIC, n),
                                        ds.labels.astype(np.uint8)]))


def window_origin(window: tuple[int, int, int],
                  input_shape: tuple[int, int, int]) -> tuple[int, int]:
    """Top-left (row, col) of a (c, h, w) image centred in a (C, H, W) network input.

    ShapeError unless the image fits and has 1 or C channels. An image of the
    input's own shape sits at (0, 0).
    """
    c, h, w = window
    channels, height, width = input_shape
    if c not in (1, channels) or h > height or w > width:
        raise ShapeError(f"a {c}x{h}x{w} image does not fit a {channels}x{height}x{width} input")
    return (height - h) // 2, (width - w) // 2


def embed(images: np.ndarray, input_shape: tuple[int, int, int]) -> np.ndarray:
    """The network-size array (n, C, H, W) of the (n, c, h, w) ``images``.

    Each image sits at window_origin in a zero frame, a single channel
    repeated across the C channels; ``images`` itself when it already has
    the input's shape.
    """
    if images.shape[1:] == tuple(input_shape):
        return images
    row, col = window_origin(images.shape[1:], input_shape)
    _, _, h, w = images.shape
    out = np.zeros((len(images), *input_shape))
    out[:, :, row : row + h, col : col + w] = images
    return out


def preprocess(ds: LabeledDataset, spec: PadSpec) -> LabeledDataset:
    """Rescale raw pixels to [-1, 1] for a network input of ``spec.target_size``.

    The images keep their own (h, w) and channel count, which must be 1 or
    the target's; nothing of the zero frame is stored. The network reads each
    image centred in that frame with a single channel repeated (``embed``).
    """
    arr = ds.images.array
    if arr.min() < 0 or arr.max() > 255:
        raise ConfigurationError("preprocess expects raw pixels in [0, 255]")
    _, c_in, ih, iw = arr.shape
    if (ih, iw) != tuple(spec.inner_size):
        raise ShapeError(f"images are {ih}x{iw} but the pad spec expects {spec.inner_size}")
    c = spec.target_size[0]
    if c_in not in (1, c):
        raise ShapeError(f"cannot map {c_in} channels onto {c}")

    scaled = arr / 127.5
    scaled -= 1.0
    return LabeledDataset(
        images=Tensor(scaled), labels=ds.labels.copy(), num_classes=ds.num_classes,
        name=ds.name, pad=spec,
    )


# -- synthetic target domain -----------------------------------------------------

# Each class is a fixed geometric glyph drawn on the unit square. "geom" and
# "strokes" are visually unrelated; "outline" renders hollow, slightly shifted
# derivatives of the stroke glyphs, giving a target domain that is visually
# distinct from the source yet shares low-level edge statistics with it.
_FAMILIES = ("geom", "strokes", "outline")


def _neighborhood(maskbool: np.ndarray, reach: int = 1):
    shifted = []
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            shifted.append(np.roll(maskbool, (dy, dx), axis=(0, 1)))
    return shifted


def _glyph(cls: int, h: int, w: int, family: str) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    u = (xx + 0.5) / w - 0.5
    v = (yy + 0.5) / h - 0.5
    r = np.hypot(u, v)
    if family == "geom":
        shapes = [
            r < 0.32,                                   # disc
            (np.abs(u) < 0.12),                         # vertical bar
            (np.abs(v) < 0.12),                         # horizontal bar
            (np.abs(u - v) < 0.12),                     # diagonal
            (np.abs(u + v) < 0.12),                     # anti-diagonal
            ((np.abs(u) < 0.12) | (np.abs(v) < 0.12)),  # cross
            ((r > 0.22) & (r < 0.40)),                  # ring
            ((np.abs(u) > 0.28) | (np.abs(v) > 0.28)),  # square frame
            (np.sin(u * 18) * np.sin(v * 18) > 0.25),   # checker texture
            ((v > 0.05) | ((r < 0.2) & (v < 0))),       # half-plane + dot
        ]
    elif family == "strokes":
        shapes = [
            ((r > 0.2) & (r < 0.36)),                                  # O
            ((np.abs(u) < 0.09) & (v > -0.4)),                         # |
            (((np.abs(v) < 0.09) & (np.abs(u) < 0.35)) | ((np.abs(u - 0.25) < 0.09) & (v < 0))
             | ((np.abs(u + 0.25) < 0.09) & (v > 0))),                 # Z-ish
            (((np.abs(u - 0.2) < 0.09) & (np.abs(v) < 0.4)) | ((np.abs(v) < 0.09) & (u < 0.2))),
            (((np.abs(v + 0.2) < 0.09) | (np.abs(u + 0.2) < 0.09)) & (r < 0.45)),  # corner
            (((np.abs(v - 0.22) < 0.09) | (np.abs(v + 0.22) < 0.09)) & (np.abs(u) < 0.35)),  # =
            ((r > 0.18) & (r < 0.36) & (u < 0.1)) | ((np.abs(v + 0.25) < 0.08) & (u > -0.1)),
            ((np.abs(u * 0.6 - v) < 0.1) & (np.abs(u) < 0.4)),         # slash
            (((np.abs(u) < 0.33) & (np.abs(v) < 0.33)) & ((np.abs(u) > 0.15) | (np.abs(v) > 0.15))),
            ((np.abs(r - 0.3) < 0.07) | ((np.abs(u) < 0.07) & (np.abs(v) < 0.3))),  # theta
        ]
    elif family == "outline":
        # Hollow ring one pixel outside the stroke glyph, displaced by a third
        # of the canvas: no pixel overlap with the source family and a broken
        # spatial alignment, but shared edge orientation statistics.
        core = _glyph(cls, h, w, "strokes") > 0.5
        dilated = np.logical_or.reduce(_neighborhood(core))
        ring = np.roll(dilated & ~core, (h // 5, w // 5), axis=(0, 1))
        shapes = [ring] * 10
    else:
        raise ConfigurationError(f"unknown glyph family {family!r}; choose from {_FAMILIES}")
    return shapes[cls % 10].astype(np.float64)


def synth_target_dataset(
    seed: int,
    num_classes: int = 10,
    per_class: int = 100,
    size: tuple[int, int] = (28, 28),
    family: str = "geom",
    noise_amplitude: float = 25.0,
    max_shift: int = 2,
    contrast_jitter: float = 0.0,
    name: str | None = None,
) -> LabeledDataset:
    """Seed-reproducible class-conditional glyph images with noise and jitter.

    Each image is its class glyph, translated by up to ``max_shift`` pixels,
    optionally dimmed by a per-image contrast factor in [1 - contrast_jitter, 1],
    plus clipped Gaussian pixel noise. Returns a raw dataset (pixels in
    [0, 255]) ordered class-by-class; shuffling happens at batch/split time.
    """
    if per_class < 1:
        raise ConfigurationError(f"per_class must be >= 1, got {per_class}")
    if not 0.0 <= contrast_jitter < 1.0:
        raise ConfigurationError(f"contrast_jitter must be in [0, 1), got {contrast_jitter}")
    h, w = size
    rng = np.random.default_rng([int(seed), _FAMILIES.index(family) if family in _FAMILIES else 99])
    images = np.empty((num_classes * per_class, 1, h, w))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for cls in range(num_classes):
        template = _glyph(cls, h, w, family) * 210.0 + 20.0
        shifts = rng.integers(-max_shift, max_shift + 1, size=(per_class, 2))
        contrast = rng.uniform(1.0 - contrast_jitter, 1.0, size=per_class)
        noise = rng.normal(0.0, noise_amplitude, size=(per_class, h, w))
        for i in range(per_class):
            img = np.roll(template, tuple(shifts[i]), axis=(0, 1)) * contrast[i]
            img = img + noise[i] if noise_amplitude > 0 else img
            images[cls * per_class + i, 0] = np.clip(img, 0.0, 255.0)
        labels[cls * per_class : (cls + 1) * per_class] = cls
    return LabeledDataset(
        images=Tensor(images),
        labels=labels,
        num_classes=num_classes,
        name=name or f"synthetic-{family}",
    )


def make_batches(ds: LabeledDataset, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Deterministic per-epoch shuffle split into floor(n / B) full batches."""
    n = len(ds)
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    if batch_size > n:
        raise ConfigurationError(f"batch size {batch_size} exceeds dataset size {n}")
    perm = np.random.default_rng([int(seed), int(epoch)]).permutation(n)
    return [perm[i * batch_size : (i + 1) * batch_size] for i in range(n // batch_size)]


def split_dataset(ds: LabeledDataset, sizes: list[int], seed: int) -> list[LabeledDataset]:
    """Disjoint random subsets with the given sizes (shuffle seeded)."""
    if sum(sizes) > len(ds):
        raise ConfigurationError(f"cannot draw {sum(sizes)} samples from {len(ds)}")
    perm = np.random.default_rng([int(seed), 0x5E17]).permutation(len(ds))
    parts, start = [], 0
    for k, size in enumerate(sizes):
        parts.append(ds.subset(perm[start : start + size], name=f"{ds.name}[{k}]"))
        start += size
    return parts
