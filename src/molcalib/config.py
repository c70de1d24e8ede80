"""Experiment configuration: YAML in, a fully resolved record out.

The on-disk grammar is a small versioned YAML mapping with sections
``dataset``, ``model``, ``loss``, ``optimizer``, ``schedule``,
``training``, ``inference``, and ``evaluation``; only ``dataset`` is
mandatory.  Resolution expands every omitted key to its recorded default,
so the dictionary that lands in a run manifest never depends on hidden
in-code values.  One coupling is applied during resolution rather than
stored as a constant: when the loss section omits ``l2_coefficient``,
the weight-decay coefficient defaults to 1e-4 * (1 - dropout_rate).

``manifest_fingerprint`` hashes a manifest dictionary minus its
``timing`` section, which is what "identical runs" means here: same
config, data counts, losses, and metrics; wall-clock excluded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import yaml

from .errors import ConfigError, IoError
from .losses import LossConfig
from .metrics import DEFAULT_K_GRID
from .model import ModelConfig

CONFIG_VERSION = 1

LABEL_RULES = ("direct", "pic50_threshold")

INFERENCE_MODES = ("deterministic", "mc_dropout")


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset lives and how to read labels out of it."""

    name: str
    path: str
    smiles_column: str
    label_column: str
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "smiles_column": self.smiles_column,
            "label_column": self.label_column,
            "label_rule": self.label_rule,
            "pic50_threshold": self.pic50_threshold,
            "strip_salts": self.strip_salts,
        }


@dataclass(frozen=True)
class OptimizerSettings:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("moment decay rates must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1,
                "beta2": self.beta2, "eps": self.eps}


@dataclass(frozen=True)
class ScheduleSettings:
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (80, 160)

    def __post_init__(self):
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError("decay_factor must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.decay_epochs,
                                      self.decay_epochs[1:])):
            raise ConfigError("decay_epochs must be strictly increasing")

    def to_dict(self) -> dict:
        return {"decay_factor": self.decay_factor,
                "decay_epochs": list(self.decay_epochs)}


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

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "batch_size": self.batch_size,
                "split_ratio": self.split_ratio, "seeds": list(self.seeds)}


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

    def to_dict(self) -> dict:
        return {"mode": self.mode, "mc_samples": self.mc_samples}


@dataclass(frozen=True)
class EvaluationSettings:
    num_bins: int = 10
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

    def to_dict(self) -> dict:
        return {"num_bins": self.num_bins, "threshold": self.threshold,
                "k_grid": list(self.k_grid)}


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
        return {
            "config_version": CONFIG_VERSION,
            "dataset": self.dataset.to_dict(),
            "model": {
                "node_embedding": self.model.node_embedding,
                "readout": self.model.readout,
                "num_layers": self.model.num_layers,
                "hidden_dim": self.model.hidden_dim,
                "graph_dim": self.model.graph_dim,
                "input_dim": self.model.input_dim,
                "dropout_rate": self.model.dropout_rate,
            },
            "loss": self.loss.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "schedule": self.schedule.to_dict(),
            "training": self.training.to_dict(),
            "inference": self.inference.to_dict(),
            "evaluation": self.evaluation.to_dict(),
        }


# -- raw-mapping helpers ---------------------------------------------


def _section(raw: dict, name: str) -> dict:
    got = raw.get(name, {})
    if got is None:
        got = {}
    if not isinstance(got, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return dict(got)


def _reject_leftovers(section: dict, name: str) -> None:
    if section:
        raise ConfigError(
            f"unknown key(s) in {name!r}: {', '.join(sorted(section))}")


def _scalar(section: dict, name: str, key: str, default, kind):
    """Pop a typed scalar; bool masquerading as int is rejected."""
    if key not in section:
        return default
    value = section.pop(key)
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"{name}.{key} must be a {kind.__name__}")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{name}.{key} must be a {kind.__name__}")
    return value


def _sequence(section: dict, name: str, key: str, default, kind):
    if key not in section:
        return default
    value = section.pop(key)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name}.{key} must be a non-empty list")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{name}.{key} entries must be numbers")
        out.append(kind(item))
    return tuple(out)


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

    ds = _section(raw, "dataset")
    raw.pop("dataset", None)
    dataset = DatasetSpec(
        name=_scalar(ds, "dataset", "name", "", str),
        path=_scalar(ds, "dataset", "path", "", str),
        smiles_column=_scalar(ds, "dataset", "smiles_column", "smiles", str),
        label_column=_scalar(ds, "dataset", "label_column", "label", str),
        label_rule=_scalar(ds, "dataset", "label_rule", "direct", str),
        pic50_threshold=_scalar(ds, "dataset", "pic50_threshold", 7.0, float),
        strip_salts=_scalar(ds, "dataset", "strip_salts", True, bool),
    )
    _reject_leftovers(ds, "dataset")

    inf = _section(raw, "inference")
    raw.pop("inference", None)
    inference = InferenceSettings(
        mode=_scalar(inf, "inference", "mode", "deterministic", str),
        mc_samples=_scalar(inf, "inference", "mc_samples", 30, int),
    )
    _reject_leftovers(inf, "inference")

    md = _section(raw, "model")
    raw.pop("model", None)
    defaults = ModelConfig()
    model = ModelConfig(
        node_embedding=_scalar(md, "model", "node_embedding",
                               defaults.node_embedding, str),
        readout=_scalar(md, "model", "readout", defaults.readout, str),
        num_layers=_scalar(md, "model", "num_layers",
                           defaults.num_layers, int),
        hidden_dim=_scalar(md, "model", "hidden_dim",
                           defaults.hidden_dim, int),
        graph_dim=_scalar(md, "model", "graph_dim", defaults.graph_dim, int),
        input_dim=_scalar(md, "model", "input_dim", defaults.input_dim, int),
        dropout_rate=_scalar(md, "model", "dropout_rate",
                             defaults.dropout_rate, float),
    )
    _reject_leftovers(md, "model")

    ls = _section(raw, "loss")
    raw.pop("loss", None)
    # decay coefficient tracks dropout unless set explicitly
    default_l2 = 1e-4 * (1.0 - model.dropout_rate)
    loss = LossConfig(
        kind=_scalar(ls, "loss", "kind", "bce", str),
        smoothing=_scalar(ls, "loss", "smoothing", None, float),
        entropy_weight=_scalar(ls, "loss", "entropy_weight", None, float),
        focusing=_scalar(ls, "loss", "focusing", None, float),
        positive_weight=_scalar(ls, "loss", "positive_weight", None, float),
        l2_coefficient=_scalar(ls, "loss", "l2_coefficient",
                               default_l2, float),
    )
    _reject_leftovers(ls, "loss")

    op = _section(raw, "optimizer")
    raw.pop("optimizer", None)
    optimizer = OptimizerSettings(
        learning_rate=_scalar(op, "optimizer", "learning_rate", 1e-3, float),
        beta1=_scalar(op, "optimizer", "beta1", 0.9, float),
        beta2=_scalar(op, "optimizer", "beta2", 0.999, float),
        eps=_scalar(op, "optimizer", "eps", 1e-8, float),
    )
    _reject_leftovers(op, "optimizer")

    sc = _section(raw, "schedule")
    raw.pop("schedule", None)
    schedule = ScheduleSettings(
        decay_factor=_scalar(sc, "schedule", "decay_factor", 0.1, float),
        decay_epochs=_sequence(sc, "schedule", "decay_epochs",
                               (80, 160), int),
    )
    _reject_leftovers(sc, "schedule")

    tr = _section(raw, "training")
    raw.pop("training", None)
    training = TrainingSettings(
        epochs=_scalar(tr, "training", "epochs", 200, int),
        batch_size=_scalar(tr, "training", "batch_size", 32, int),
        split_ratio=_scalar(tr, "training", "split_ratio", 0.8, float),
        seeds=_sequence(tr, "training", "seeds", (0, 1, 2, 3, 4), int),
    )
    _reject_leftovers(tr, "training")

    ev = _section(raw, "evaluation")
    raw.pop("evaluation", None)
    evaluation = EvaluationSettings(
        num_bins=_scalar(ev, "evaluation", "num_bins", 10, int),
        threshold=_scalar(ev, "evaluation", "threshold", 0.5, float),
        k_grid=_sequence(ev, "evaluation", "k_grid", DEFAULT_K_GRID, float),
    )
    _reject_leftovers(ev, "evaluation")

    _reject_leftovers(raw, "config")
    return ExperimentConfig(dataset=dataset, model=model, loss=loss,
                            optimizer=optimizer, schedule=schedule,
                            training=training, inference=inference,
                            evaluation=evaluation)


def load_raw(path: str) -> dict:
    """Read a YAML config file into a raw mapping (no resolution)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise IoError(f"cannot read config {path!r}: {err}") from err
    except yaml.YAMLError as err:
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
