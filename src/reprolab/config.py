"""Experiment configuration: YAML in, canonical hash out.

The hash is the sha256 of a canonical JSON form (sorted keys, shortest
round-trip float formatting) of the resolved configuration minus the output
directory, so identical experiments hash identically wherever they run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

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
    # idx
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "idx"):
            raise ConfigurationError(f"dataset kind must be synthetic or idx, got {self.kind!r}")
        if self.kind == "idx" and (self.images is None or self.labels is None):
            raise ConfigurationError("idx datasets need 'images' and 'labels' paths")
        self.image_size = tuple(self.image_size)

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
        if len(self.input_shape) != 3:
            raise ConfigurationError(f"input_shape must be (C, H, W), got {self.input_shape}")

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
    class_map: object = "first-ten"
    mask_outer_size: int | None = None
    mask_outer_sizes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.mask_outer_size, (int, type(None))):
            raise ConfigurationError(
                f"mask_outer_size must be an integer, got {self.mask_outer_size!r}")
        if not isinstance(self.mask_outer_sizes, (list, tuple)) or not all(
                isinstance(size, int) for size in self.mask_outer_sizes):
            raise ConfigurationError(
                f"mask_outer_sizes must be a list of integers, got {self.mask_outer_sizes!r}")


_SECTION_TYPES = {
    "source": DatasetSpec,
    "target": DatasetSpec,
    "model": ModelSpec,
    "train": TrainConfig,
    "reprogram": ReprogramConfig,
}


def _build_section(cls, data: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in '{where}' section")
    return cls(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data or {})
    kwargs = {}
    for key, cls in _SECTION_TYPES.items():
        if key in data:
            section = data.pop(key)
            if not isinstance(section, dict):
                raise ConfigurationError(f"'{key}' must be a mapping")
            kwargs[key] = _build_section(cls, section, key)
    allowed = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"unknown top-level config keys {sorted(unknown)}")
    kwargs.update(data)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def canonical_json(obj) -> str:
    """Sorted-key compact JSON; float repr is the shortest round-trip form."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig, **overrides) -> str:
    """Stable 16-hex digest of the resolved config (output path excluded)."""
    data = config_to_dict(cfg)
    data.pop("out", None)
    data.update(overrides)
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]
