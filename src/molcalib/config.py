"""Experiment configuration: YAML in, a fully resolved record out.

The on-disk grammar is a small versioned YAML mapping with sections
``dataset``, ``model``, ``loss``, ``optimizer``, ``schedule``,
``training``, ``inference``, and ``evaluation``; only ``dataset`` is
mandatory.  Each section resolves into its dataclass: a key must name a
field and match its annotation, and an omitted key takes the field
default, so every default is written once, on its field, and the
dictionary that lands in a run manifest records all of them.  One
coupling is applied during resolution rather than stored as a constant:
when the loss section omits ``l2_coefficient``, the weight-decay
coefficient is ``default_l2_coefficient(dropout_rate)``.  One check is
applied there too: ``model.input_dim`` must be the featurizer's width.

``manifest_fingerprint`` hashes a manifest dictionary minus its
``timing`` section, which is what "identical runs" means here: same
config, data counts, losses, and metrics; wall-clock excluded.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, IoError
from .featurize import NUM_FEATURES
from .losses import LossConfig
from .metrics import DEFAULT_K_GRID, DEFAULT_NUM_BINS
from .model import ModelConfig
from .optim import OptimizerSettings, ScheduleSettings

CONFIG_VERSION = 1

LABEL_RULES = ("direct", "pic50_threshold")

INFERENCE_MODES = ("deterministic", "mc_dropout")


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset lives and how to read labels out of it."""

    name: str = ""  # required: empty is refused below
    path: str = ""  # required
    smiles_column: str = "smiles"
    label_column: str = "label"
    label_rule: str = "direct"
    pic50_threshold: float = 7.0  # boundary value counts as positive
    strip_salts: bool = True

    def __post_init__(self):
        if self.label_rule not in LABEL_RULES:
            raise ConfigError(
                f"unknown label rule {self.label_rule!r}, expected one of "
                f"{', '.join(LABEL_RULES)}")
        for field in ("name", "path", "smiles_column", "label_column"):
            if not getattr(self, field):
                raise ConfigError(f"dataset.{field} must be non-empty")


def check_seed(seed: int) -> int:
    """`seed`, refused unless numpy's generators take it (non-negative)."""
    if seed < 0:
        raise ConfigError(f"seed {seed} must be non-negative")
    return seed


@dataclass(frozen=True)
class TrainingSettings:
    epochs: int = 200
    batch_size: int = 32
    split_ratio: float = 0.8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not (0.0 < self.split_ratio <= 1.0):
            raise ConfigError("split_ratio must lie in (0, 1]")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        seen = set()
        for seed in self.seeds:
            if check_seed(seed) in seen:
                raise ConfigError(f"seed {seed} appears more than once in "
                                  f"seeds")
            seen.add(seed)


@dataclass(frozen=True)
class InferenceSettings:
    mode: str = "deterministic"
    mc_samples: int = 30

    def __post_init__(self):
        if self.mode not in INFERENCE_MODES:
            raise ConfigError(
                f"unknown inference mode {self.mode!r}, expected one of "
                f"{', '.join(INFERENCE_MODES)}")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be positive")


@dataclass(frozen=True)
class EvaluationSettings:
    num_bins: int = DEFAULT_NUM_BINS
    threshold: float = 0.5
    k_grid: tuple[float, ...] = DEFAULT_K_GRID

    def __post_init__(self):
        if self.num_bins < 1:
            raise ConfigError("num_bins must be positive")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold must lie in (0, 1)")
        if not self.k_grid:
            raise ConfigError("k_grid must be non-empty")
        if any(not (0.0 < k <= 100.0) for k in self.k_grid):
            raise ConfigError("k_grid percentages must lie in (0, 100]")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    model: ModelConfig
    loss: LossConfig
    optimizer: OptimizerSettings
    schedule: ScheduleSettings
    training: TrainingSettings
    inference: InferenceSettings
    evaluation: EvaluationSettings

    def to_dict(self) -> dict:
        """Every effective setting, defaults included; manifest-ready."""
        sections = {name: {key: list(value) if isinstance(value, tuple)
                           else value for key, value in section.items()}
                    for name, section in asdict(self).items()}
        return {"config_version": CONFIG_VERSION, **sections}


# -- raw-mapping resolution -----------------------------------------


def default_l2_coefficient(dropout_rate: float) -> float:
    """Weight decay used when the loss section does not set one."""
    return 1e-4 * (1.0 - dropout_rate)


def _reject_leftovers(section: dict, name: str) -> None:
    if section:
        raise ConfigError(
            f"unknown key(s) in {name!r}: {', '.join(sorted(section))}")


def _typed(value, hint, where: str):
    """Check `value` against a field annotation.

    Bools never pass as numbers, ints widen to float and floats must be
    finite, as NaN passes any range check written ``if x <= 0: raise``.
    ``X | None`` checks as ``X``: None is only ever the default, never
    written.  ``tuple[T, ...]`` takes a non-empty list of numbers, each
    checked as a scalar T field is.
    """
    if get_origin(hint) is tuple:
        kind = get_args(hint)[0]
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        if any(isinstance(item, bool) or not isinstance(item, (int, float))
               for item in value):
            raise ConfigError(f"{where} entries must be numbers")
        if kind is int and not all(isinstance(item, int) for item in value):
            raise ConfigError(f"{where} entries must be ints")
        return tuple(_typed(item, kind, where) for item in value)
    kind = get_args(hint)[0] if get_args(hint) else hint
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be finite, got an int "
                              f"beyond float range") from None
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ConfigError(f"{where} must be a {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    return value


@functools.cache
def _field_hints(cls) -> dict:
    """The resolved annotations of `cls`, computed once per class."""
    return get_type_hints(cls)


def _resolve(raw: dict, section: str, cls, **overrides):
    """Pop ``raw[section]`` and build `cls` from it.

    Each key must name a field of `cls` and match its annotation; an
    omitted key takes its value from `overrides`, else the field default.
    """
    given = raw.pop(section, None)
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    given = dict(given)
    hints = _field_hints(cls)
    values = dict(overrides)
    for field in fields(cls):
        if field.name in given:
            values[field.name] = _typed(given.pop(field.name),
                                        hints[field.name],
                                        f"{section}.{field.name}")
    built = cls(**values)
    _reject_leftovers(given, section)
    return built


def resolve_config(raw: dict) -> ExperimentConfig:
    """Expand a raw mapping (parsed YAML) into a validated config."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = dict(raw)

    version = raw.pop("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config_version {version!r} unsupported, expected "
            f"{CONFIG_VERSION}")

    dataset = _resolve(raw, "dataset", DatasetSpec)
    inference = _resolve(raw, "inference", InferenceSettings)
    model = _resolve(raw, "model", ModelConfig)
    if model.input_dim != NUM_FEATURES:
        raise ConfigError(
            f"model.input_dim is {model.input_dim}, but the featurizer gives "
            f"{NUM_FEATURES} node features")
    # decay coefficient tracks dropout unless set explicitly
    loss = _resolve(raw, "loss", LossConfig,
                    l2_coefficient=default_l2_coefficient(model.dropout_rate))
    config = ExperimentConfig(
        dataset=dataset, model=model, loss=loss,
        optimizer=_resolve(raw, "optimizer", OptimizerSettings),
        schedule=_resolve(raw, "schedule", ScheduleSettings),
        training=_resolve(raw, "training", TrainingSettings),
        inference=inference,
        evaluation=_resolve(raw, "evaluation", EvaluationSettings))
    _reject_leftovers(raw, "config")
    return config


def load_raw(path: str) -> dict:
    """Read a YAML config file into a raw mapping (no resolution)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise IoError(f"cannot read config {path!r}: {err}") from err
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise ConfigError(f"config {path!r} is not valid YAML: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must contain a mapping")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return resolve_config(load_raw(path))


def manifest_fingerprint(manifest: dict) -> str:
    """SHA-256 over the manifest with wall-clock data removed.

    Two runs of one build count as identical exactly when these digests
    match.
    """
    trimmed = {k: v for k, v in manifest.items() if k != "timing"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
