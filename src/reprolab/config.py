"""Experiment configuration: YAML in, canonical hash out.

The dataclass annotations are the only schema. ``_build_section`` checks every
key and value against them at every level, converting nothing: a bool is no
number, a tuple field fixes its length, and a field annotated with a dataclass
is a nested section checked the same way. ``__post_init__`` methods hold the
value checks (ranges, kinds), so command-line overrides applied with
``dataclasses.replace`` pass them too.

The hash is the sha256 of a canonical JSON form (sorted keys, shortest
round-trip float formatting) of the resolved configuration minus the output
directory, so identical experiments hash identically wherever they run.
"""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .datasets import _FAMILIES
from .errors import ConfigurationError
from .models import TrainConfig
from .reprogram import ReprogramConfig


@dataclass
class DatasetSpec:
    kind: str = "synthetic"  # synthetic | idx
    name: str | None = None
    # synthetic
    family: str = "geom"
    num_classes: int = 10
    per_class: int = 200
    test_per_class: int = 50
    image_size: tuple[int, int] = (28, 28)
    noise_amplitude: float = 25.0
    max_shift: int = 2
    contrast_jitter: float = 0.0
    # idx
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None

    def __post_init__(self):
        self.image_size = tuple(self.image_size)
        if min(self.image_size) < 1:
            raise ConfigurationError(f"image_size must be positive, got {list(self.image_size)}")
        if self.kind not in ("synthetic", "idx"):
            raise ConfigurationError(f"dataset kind must be synthetic or idx, got {self.kind!r}")
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown synthetic family {self.family!r}; "
                                     f"choose from {list(_FAMILIES)}")
        if self.num_classes < 1:
            raise ConfigurationError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.max_shift < 0:
            raise ConfigurationError(f"max_shift must be >= 0, got {self.max_shift}")
        if self.noise_amplitude < 0:
            raise ConfigurationError(
                f"noise_amplitude must be >= 0, got {self.noise_amplitude}")
        if not 0.0 <= self.contrast_jitter < 1.0:
            raise ConfigurationError(
                f"contrast_jitter must be in [0, 1), got {self.contrast_jitter}")
        if self.kind == "idx" and (self.images is None or self.labels is None):
            raise ConfigurationError("idx datasets need 'images' and 'labels' paths")
        if self.kind == "idx" and (self.test_images is None) != (self.test_labels is None):
            raise ConfigurationError("idx datasets need both 'test_images' and 'test_labels' "
                                     "paths, or neither")

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        if self.kind == "idx":
            return Path(self.images).stem
        return f"synthetic-{self.family}"


@dataclass
class ModelSpec:
    input_shape: tuple[int, int, int] = (3, 64, 64)
    width_scale: float = 0.25
    trained: bool = True
    dropout_enabled: bool = False
    dropout_rate: float = 0.5

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        _, h, w = self.input_shape
        if min(self.input_shape) < 1 or h % 4 or w % 4:
            # build_cwnet's rule: the extent must survive two 2x2 pools.
            raise ConfigurationError(f"input_shape must be positive with H and W divisible "
                                     f"by 4, got {list(self.input_shape)}")
        if not self.width_scale > 0:
            raise ConfigurationError(f"width_scale must be positive, got {self.width_scale}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def tag(self) -> str:
        return f"cwnet-w{self.width_scale:g}-{self.input_shape[1]}x{self.input_shape[2]}"


@dataclass
class ExperimentConfig:
    seed: int = 0
    out: str = "runs/experiment"
    source: DatasetSpec = field(default_factory=DatasetSpec)
    target: DatasetSpec = field(default_factory=lambda: DatasetSpec(family="geom"))
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    reprogram: ReprogramConfig = field(default_factory=ReprogramConfig)
    class_map: str | list[int] = "first-ten"
    mask_outer_size: int | None = None
    mask_outer_sizes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")


def _has_type(value, hint) -> bool:
    """Whether ``value`` as YAML loads it has the field type ``hint``, unconverted:
    an int is a float, a bool is no number, and a list is a tuple."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(
            _has_type(v, arg) for v, arg in zip(value, args))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build_section(cls, data, where: str = ""):
    """``cls`` built from the mapping ``data`` at config path ``where`` ('' at the
    top level), each key and value checked against ``cls``'s fields and annotations;
    a field annotated with a dataclass is a section, built the same way."""
    place = f"'{where}' section" if where else "top-level config"
    if not isinstance(data, dict):
        raise ConfigurationError(f"{place} must be a mapping, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {place}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        key = f"{where}.{name}" if where else name
        if is_dataclass(hints[name]):
            value = _build_section(hints[name], value, key)
        elif not _has_type(value, hints[name]):
            raise ConfigurationError(
                f"'{key}' must be {cls.__annotations__[name]}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict | None) -> ExperimentConfig:
    return _build_section(ExperimentConfig, {} if data is None else data)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(data)


def canonical_json(obj) -> str:
    """Sorted-key compact JSON; float repr is the shortest round-trip form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig, **overrides) -> str:
    """Stable 16-hex digest of the resolved config (output path excluded)."""
    data = asdict(cfg)
    data.pop("out", None)
    for section in ("source", "target"):
        # The digests of configs written before contrast_jitter existed are
        # stored (metrics rows, references); leaving the field out at its
        # default keeps every one of them.
        if data[section]["contrast_jitter"] == 0.0:
            del data[section]["contrast_jitter"]
    # The stored digests were taken with a reprogram.use_heldout_eval switch
    # that every run left at true; writing it back keeps all of them.
    data["reprogram"]["use_heldout_eval"] = True
    data.update(overrides)
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]
