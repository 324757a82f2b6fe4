"""Target networks: a width-scalable CWNet-family classifier.

The architecture is conv32-conv32-pool / conv64-conv64-pool / fc200-fc200 /
softmax head (all 3x3 kernels, 2x2 pooling) at scale 1; ``width_scale``
shrinks filter and unit counts so the same network runs at desk scale. An
input-standardization layer (frozen per-channel z-score affine) sits in
front of the first convolution; dropout between the fourth convolution and
its ReLU is config-gated and active only in a forward given a generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import LabeledDataset, embed, make_batches, window_origin
from .errors import ConfigurationError, FormatError, NumericError, ShapeError
from .tensor import Tensor, load_tensor, no_grad, save_tensor, write_json


# Network input elements per chunk of the standardization fit: 5 samples at
# 3x64x64, 1 at 3x128x128, so the fit's memory does not grow with the set.
_FIT_CHUNK_ELEMENTS = 1 << 16


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.001
    momentum: float = 0.9
    batch_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.learning_rate < 0 or self.batch_size <= 0:
            raise ConfigurationError(f"invalid training config {self}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")


# Samples per graph-free evaluation forward (_predict_chunks).
_EVAL_BATCH = 200


class _ParameterFree:
    """Base of the layers that hold no parameters."""

    @property
    def params(self) -> list[Tensor]:
        return []


class Standardize(_ParameterFree):
    """Frozen per-channel affine (x - mean) / std applied to network input."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels)
        self.std = np.ones(channels)

    def set(self, mean, std) -> None:
        self.mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(std, dtype=np.float64).reshape(-1)
        if (self.std <= 0).any():
            raise ConfigurationError("standardization std must be positive")

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        inv = 1.0 / self.std
        scale = Tensor(inv.reshape(-1, 1, 1))
        shift = Tensor((-self.mean * inv).reshape(-1, 1, 1))
        return T.add(T.mul(x, scale), shift)

    def describe(self) -> dict:
        return {"kind": "standardize", "mean": list(self.mean), "std": list(self.std)}


class Conv:
    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3, padding: int = 1):
        self.weight = Tensor(np.zeros((out_channels, in_channels, kernel, kernel)))
        self.bias = Tensor(np.zeros(out_channels))
        self.padding = padding

    def forward(self, x: Tensor, rng: np.random.Generator | None = None,
                relu: bool = False) -> Tensor:
        """The convolution plus bias, and the following ReLU when ``relu``."""
        return T.conv_layer(x, self.weight, self.bias, self.padding, relu)

    @property
    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def describe(self) -> dict:
        o, c, kh, kw = self.weight.shape
        return {"kind": "conv", "filters": o, "in_channels": c, "kernel": kh, "padding": self.padding}


class ReLU(_ParameterFree):
    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return T.relu(x)

    def describe(self) -> dict:
        return {"kind": "relu"}


class MaxPool(_ParameterFree):
    def __init__(self, window: int = 2):
        self.window = window

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return T.maxpool2d(x, self.window)

    def describe(self) -> dict:
        return {"kind": "maxpool", "window": self.window}


class Dropout(_ParameterFree):
    """Active when enabled, with a positive rate, in a forward given a generator;
    identity otherwise."""

    def __init__(self, rate: float, enabled: bool):
        self.rate = rate
        self.enabled = enabled

    def active(self, rng: np.random.Generator | None) -> bool:
        return self.enabled and rng is not None and self.rate > 0

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        if self.active(rng):
            return T.dropout(x, self.rate, rng)
        return x

    def describe(self) -> dict:
        return {"kind": "dropout", "rate": self.rate, "enabled": self.enabled}


class Flatten(_ParameterFree):
    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return T.reshape(x, (x.shape[0], -1))

    def describe(self) -> dict:
        return {"kind": "flatten"}


class Dense:
    def __init__(self, in_features: int, out_features: int, head: bool = False):
        self.weight = Tensor(np.zeros((in_features, out_features)))
        self.bias = Tensor(np.zeros(out_features))
        self.head = head

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    @property
    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def describe(self) -> dict:
        i, o = self.weight.shape
        return {"kind": "softmax_head" if self.head else "dense", "units": o, "in_features": i}


class Network:
    """Ordered layers with a consistent shape chain from input to logits."""

    def __init__(self, layers: list, input_shape: tuple[int, int, int], num_classes: int,
                 width_scale: float = 1.0):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.width_scale = width_scale
        self.seed: int | None = None
        self.mode: str = "untrained-random"

    @property
    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def standardize(self) -> Standardize:
        return self.layers[0]

    def forward(self, x, rng: np.random.Generator | None = None) -> Tensor:
        """Logits of ``x``; an enabled Dropout draws its mask from ``rng`` when given."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        expected = self.input_shape
        got = x.shape[-3:]
        if got != expected:
            raise ShapeError(f"input shape {got} does not match network input {expected}")
        return _run_layers(self.layers, x, rng)

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.params:
            p.requires_grad = flag

    def set_input_standardization(self, ds: LabeledDataset) -> None:
        """Fit the frozen z-score layer on a preprocessed training set.

        The mean and std are those of the network-size array (datasets.embed)
        over (N, H, W), bit for bit, but that array is built only one chunk
        of _FIT_CHUNK_ELEMENTS input elements at a time. numpy reduces a
        contiguous (N, C, H, W) array over (0, 2, 3) as one pairwise sum over
        (H, W) per sample and channel, added over the samples in order; the
        chunks repeat exactly that, for the values and then for their squared
        deviations from the mean. At C = 1 the axes merge into one pairwise
        sum over the whole array, so a 1-channel input is fit in one chunk.
        """
        images, shape = ds.images.array, self.input_shape
        whole = shape[0] == 1
        chunk = max(1, len(images) if whole else _FIT_CHUNK_ELEMENTS // int(np.prod(shape)))

        def channel_sums(center=None) -> np.ndarray:
            total = np.zeros(shape[0])
            for start in range(0, len(images), chunk):
                part = embed(images[start : start + chunk], shape)
                if center is not None:
                    part = part - center[:, None, None]
                    part *= part
                sums = part.sum(axis=(0, 2, 3) if whole else (2, 3))
                for sample in sums.reshape(-1, shape[0]):
                    total += sample
            return total

        count = len(images) * shape[1] * shape[2]
        mean = channel_sums() / count
        std = np.sqrt(channel_sums(mean) / count)
        std = np.where(std < 1e-8, 1.0, std)
        self.standardize.set(mean, std)


def _steps(layers: list, rng: np.random.Generator | None):
    """(index, layer, relu) for each layer a forward with ``rng`` runs, in order.

    A Dropout inactive with ``rng`` is the identity and is skipped. A Conv
    whose next remaining layer is a ReLU takes that ReLU in (relu=True), so
    conv, bias and ReLU are one tape node.
    """
    acting = [(i, layer) for i, layer in enumerate(layers)
              if not isinstance(layer, Dropout) or layer.active(rng)]
    k = 0
    while k < len(acting):
        i, layer = acting[k]
        relu = (isinstance(layer, Conv) and k + 1 < len(acting)
                and isinstance(acting[k + 1][1], ReLU))
        yield i, layer, relu
        k += 2 if relu else 1


def _run_layers(layers: list, x: Tensor, rng: np.random.Generator | None) -> Tensor:
    """``x`` through ``layers`` as _steps orders them for ``rng``."""
    for _, layer, relu in _steps(layers, rng):
        x = layer.forward(x, relu=True) if relu else layer.forward(x, rng)
    return x


# -- framed forward ------------------------------------------------------------------
#
# Every input the reprogramming loop feeds the network is x_i + offset, with x_i
# a stored image that the network reads centred in a zero frame of its input size
# (datasets.embed); a training or evaluation batch is the same with a zero offset.
# A network-size array is such an image placed at the origin. Outside the image's
# nonzero window all samples of a batch are the same, and so is
# every feature map outside the window grown by the receptive field, up to the
# first layer that makes samples differ: Flatten, or a Dropout active with the
# forward's generator. forward_framed computes that shared part once on a batch-1
# canvas and only the grown window per sample.


def _frame_windows(net, images: np.ndarray,
                   rng: np.random.Generator | None = None) -> list[tuple[int, ...]] | None:
    """Per-sample crop window (r0, r1, c0, c1) at the input of each layer up to the frame's end.

    The frame ends at Flatten or at the first Dropout active with ``rng``
    (none is when ``rng`` is None); the last window is that layer's input.
    The first is the bounding box of the pixels nonzero in any sample and
    channel of ``images``, in network input coordinates: shifted by where
    the images sit (datasets.window_origin). None when the net is not a
    Network, a layer before the end is not a known kind, or a conv's grown
    window would reach past its input's edge.
    """
    if not isinstance(net, Network) or images.ndim != 4:
        return None
    top, left = window_origin(images.shape[1:], net.input_shape)
    nonzero = (images != 0).any(axis=(0, 1))
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    if rows.size == 0:
        return None
    r0, r1 = top + int(rows[0]), top + int(rows[-1]) + 1
    c0, c1 = left + int(cols[0]), left + int(cols[-1]) + 1
    h, w = net.input_shape[1:]
    windows = []
    for layer in net.layers:
        windows.append((r0, r1, c0, c1))
        if isinstance(layer, Flatten) or (isinstance(layer, Dropout) and layer.active(rng)):
            return windows
        if isinstance(layer, Conv):
            ring, p = layer.weight.shape[-1] - 1, layer.padding
            if r0 < ring or c0 < ring or r1 + ring > h or c1 + ring > w:
                return None
            r0, r1, c0, c1 = r0 + p - ring, r1 + p, c0 + p - ring, c1 + p
            h, w = h + 2 * p - ring, w + 2 * p - ring
        elif isinstance(layer, MaxPool):
            s = layer.window
            r0, r1, c0, c1 = r0 // s, -(-r1 // s), c0 // s, -(-c1 // s)
            h, w = h // s, w // s
        elif not isinstance(layer, (Standardize, ReLU, Dropout)):
            return None
    return None


def forward_framed(net, images: np.ndarray, offset: Tensor,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Logits of ``images + offset``, sharing the frame across the batch.

    ``offset`` is (C, H, W), the network input's shape, and ``images`` is
    (N, c, h, w), read centred in a zero frame of that shape with a single
    channel repeated (datasets.embed); network-size images sit at the origin.
    ``rng`` is net.forward's. The layers before the frame's end (Flatten, or
    the first Dropout active with ``rng``) run twice: once on a batch-1 canvas
    holding ``offset``, and once on per-sample crops of the window where some
    image is nonzero, grown by each conv's reach and widened to pool
    alignment. A conv reads its crop's ring from the canvas; at the frame's
    end the crops are pasted into the canvas, and the remaining layers run at
    full batch shape, so an active Dropout draws the same mask as on the tape.
    The result and the parameter gradients equal net.forward(images + offset,
    rng)'s in real arithmetic. Other models, other layer kinds and windows
    that grow past the input's edge take that tape path, on the network-size
    array of ``images``; without ``rng`` it calls net.forward(x) alone, which
    any model takes.
    """
    windows = _frame_windows(net, images, rng)
    if windows is None:
        x = T.add(Tensor(embed(images, offset.shape)), offset)
        return net.forward(x) if rng is None else net.forward(x, rng)
    end = len(windows) - 1
    r0, r1, c0, c1 = windows[0]
    top, left = window_origin(images.shape[1:], net.input_shape)
    canvas = T.reshape(offset, (1, *offset.shape))
    # A single-channel image broadcasts over the canvas's channels.
    crops = T.add(Tensor(images[:, :, r0 - top : r1 - top, c0 - left : c1 - left]),
                  T.crop(canvas, (r0, r1), (c0, c1)))
    for i, layer, relu in _steps(net.layers[:end], rng):
        r0, r1, c0, c1 = windows[i]
        if isinstance(layer, Conv):
            ring = layer.weight.shape[-1] - 1
            crops = T.paste(T.crop(canvas, (r0 - ring, r1 + ring), (c0 - ring, c1 + ring)),
                            crops, ring, ring)
            crops = T.conv_layer(crops, layer.weight, layer.bias, 0, relu)
            canvas = layer.forward(canvas, relu=relu)
            continue
        if isinstance(layer, MaxPool):
            a0, a1, b0, b1 = (v * layer.window for v in windows[i + 1])
            if (a0, a1, b0, b1) != (r0, r1, c0, c1):
                crops = T.paste(T.crop(canvas, (a0, a1), (b0, b1)), crops, r0 - a0, c0 - b0)
        crops = layer.forward(crops, rng)
        canvas = layer.forward(canvas, rng)
    r0, _, c0, _ = windows[end]
    return _run_layers(net.layers[end:], T.paste(canvas, crops, r0, c0), rng)


def _scaled(count: int, width_scale: float) -> int:
    return max(1, round(count * width_scale))


def build_cwnet(input_shape: tuple[int, int, int], num_classes: int = 10,
                width_scale: float = 1.0, dropout_enabled: bool = False,
                dropout_rate: float = 0.5) -> Network:
    """CWNet at the given spatial scale; filter/unit counts scale with width_scale.

    The spatial extent must survive two 2x2 pools (divisible by 4); the first
    fully connected layer's fan-in follows from the shape chain.
    """
    c, h, w = input_shape
    if h % 4 or w % 4:
        raise ShapeError(f"input extent {h}x{w} must be divisible by 4 (two 2x2 pools)")
    c1 = c2 = _scaled(32, width_scale)
    c3 = c4 = _scaled(64, width_scale)
    f1 = f2 = _scaled(200, width_scale)
    feat = c4 * (h // 4) * (w // 4)
    layers = [
        Standardize(c),
        Conv(c, c1), ReLU(),
        Conv(c1, c2), ReLU(),
        MaxPool(2),
        Conv(c2, c3), ReLU(),
        Conv(c3, c4), Dropout(dropout_rate, dropout_enabled), ReLU(),
        MaxPool(2),
        Flatten(),
        Dense(feat, f1), ReLU(),
        Dense(f1, f2), ReLU(),
        Dense(f2, num_classes, head=True),
    ]
    return Network(layers, input_shape, num_classes, width_scale)


def init_weights(net: Network, seed: int, mode: str = "trained-init") -> Network:
    """Fan-in-scaled uniform init (bound sqrt(1/fan_in)), zero biases.

    Both the to-be-trained and untrained-random conditions use the same
    initializer; ``mode`` only tags the network.
    """
    if mode not in ("trained-init", "untrained-random"):
        raise ConfigurationError(f"unknown init mode {mode!r}")
    rng = np.random.default_rng([int(seed), 0x11A7])
    for layer in net.layers:
        if isinstance(layer, Conv):
            o, ci, kh, kw = layer.weight.shape
            bound = (1.0 / (ci * kh * kw)) ** 0.5
            layer.weight.array[...] = rng.uniform(-bound, bound, layer.weight.shape)
            layer.bias.array[...] = 0.0
        elif isinstance(layer, Dense):
            fan_in = layer.weight.shape[0]
            bound = (1.0 / fan_in) ** 0.5
            layer.weight.array[...] = rng.uniform(-bound, bound, layer.weight.shape)
            layer.bias.array[...] = 0.0
    net.seed = int(seed)
    net.mode = mode
    return net


def train_sgd(net: Network, ds: LabeledDataset, cfg: TrainConfig) -> tuple[Network, list[float]]:
    """Classical-momentum SGD (v <- m v + g; theta <- theta - lr v).

    Each batch's forward is forward_framed with a zero offset: the frame
    around the images is shared up to the first active Dropout, which then
    draws the tape path's mask from the same generator. Losses and gradients
    equal the tape path's in real arithmetic. Returns the trained network and
    the per-epoch mean training loss.
    """
    if ds.input_shape != net.input_shape:
        raise ShapeError(
            f"dataset shape {ds.input_shape} does not match network input {net.input_shape}"
        )
    params = net.params
    net.set_requires_grad(True)
    velocity = [np.zeros_like(p.array) for p in params]
    dropout_rng = np.random.default_rng([cfg.seed, 0xD0])
    zero = Tensor(np.zeros(net.input_shape))
    history: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_losses: list[float] = []
        for batch_index, batch in enumerate(make_batches(ds, cfg.batch_size, cfg.seed, epoch)):
            logits = forward_framed(net, ds.images.array[batch], zero, dropout_rng)
            loss = T.softmax_cross_entropy(logits, ds.labels[batch])
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"training diverged at epoch {epoch}, batch {batch_index}")
            T.backward(loss)
            for p, v in zip(params, velocity):
                grad = p.grad if p.grad is not None else 0.0
                v *= cfg.momentum
                v += grad
                p.array -= cfg.learning_rate * v
                p.zero_grad()
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))
    net.set_requires_grad(False)
    return net, history


def predict_batch(net: Network, images: np.ndarray,
                  offset: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Argmax predictions (ties: lowest class index) and raw logits of images + offset.

    The one graph-free forward: forward_framed with ``offset`` (C, H, W),
    zero of the model's ``input_shape`` when None, so a Network shares the
    frame around the images across the batch; other models run ``forward``,
    and one without ``input_shape`` takes network-size images.
    """
    if offset is None:
        offset = np.zeros(getattr(net, "input_shape", images.shape[1:]))
    with no_grad():
        logits = forward_framed(net, images, Tensor(offset)).array
    return logits.argmax(axis=1), logits


def _predict_chunks(net, images: np.ndarray, offset: np.ndarray):
    """Yield (rows, predictions, logits) of predict_batch over chunks of _EVAL_BATCH
    rows of ``images``, in order."""
    for start in range(0, len(images), _EVAL_BATCH):
        rows = slice(start, min(start + _EVAL_BATCH, len(images)))
        yield rows, *predict_batch(net, images[rows], offset)


def accuracy(net: Network, ds: LabeledDataset, mapping=None) -> float:
    """Fraction of samples predicted as their (optionally mapped) label."""
    targets = ds.labels
    if mapping is not None:
        lut = np.asarray(getattr(mapping, "map", mapping), dtype=np.int64)
        targets = lut[ds.labels]
    hits = 0
    for rows, pred, _ in _predict_chunks(net, ds.images.array, np.zeros(ds.input_shape)):
        hits += int((pred == targets[rows]).sum())
    return hits / len(ds)


# -- checkpointing ------------------------------------------------------------------


def save_model(net: Network, directory) -> None:
    directory = Path(directory)
    (directory / "params").mkdir(parents=True, exist_ok=True)
    param_files = []
    for i, p in enumerate(net.params):
        fname = f"p{i:03d}.tnsr"
        save_tensor(p, directory / "params" / fname)
        param_files.append(fname)
    manifest = {
        "format": "reprolab-model-v1",
        "kind": "cwnet",
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "width_scale": net.width_scale,
        "seed": net.seed,
        "mode": net.mode,
        "layers": [layer.describe() for layer in net.layers],
        "params": param_files,
    }
    write_json(directory / "manifest.json", manifest)


def _manifest_layer(manifest: dict, kind: str, directory: Path) -> dict:
    layer = next((l for l in manifest["layers"] if l["kind"] == kind), None)
    if layer is None:
        raise FormatError(f"{directory}: manifest has no {kind} layer")
    return layer


def load_model(directory) -> Network:
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{directory}/manifest.json: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "reprolab-model-v1":
        raise FormatError(f"{directory}: not a model checkpoint")
    missing = [key for key in ("input_shape", "num_classes", "width_scale", "layers", "params")
               if key not in manifest]
    if missing:
        raise FormatError(f"{directory}: manifest lacks {', '.join(missing)}")
    dropout = _manifest_layer(manifest, "dropout", directory)
    net = build_cwnet(
        tuple(manifest["input_shape"]),
        num_classes=manifest["num_classes"],
        width_scale=manifest["width_scale"],
        dropout_enabled=dropout["enabled"],
        dropout_rate=dropout["rate"],
    )
    std = _manifest_layer(manifest, "standardize", directory)
    net.standardize.set(std["mean"], std["std"])
    net.seed = manifest.get("seed")
    net.mode = manifest.get("mode", "untrained-random")
    params = net.params
    if len(params) != len(manifest["params"]):
        raise FormatError(f"{directory}: expected {len(params)} parameter files")
    for p, fname in zip(params, manifest["params"]):
        loaded = load_tensor(directory / "params" / fname)
        if loaded.shape != p.shape:
            raise FormatError(f"{directory}/{fname}: shape {loaded.shape}, expected {p.shape}")
        p.array[...] = loaded.array
    return net
