"""Graph neural network for binary molecular property prediction.

Architecture: a learned input projection, then L embedding blocks, each a
graph layer (convolutional or attention-based) wrapped in dropout and a
residual connection.  After every block a per-layer readout (plain sum or
attention-weighted sum over nodes, sigmoid-squashed) produces a graph
vector; the L vectors are concatenated and a linear head plus sigmoid gives
the positive-class probability.

Readouts expose their pre-sigmoid pooled vectors (``sum_pool`` /
``attn_pool``) because distinguishability arguments are phrased in terms of
the pre-activation values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, IoError, SchemaError
from .featurize import DEFAULT_SCHEMA, MolecularGraph

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    node_embedding: str = "gcn"  # "gcn" | "gat"
    readout: str = "attn"  # "sum" | "attn"
    num_layers: int = 4
    hidden_dim: int = 64
    graph_dim: int = 256
    input_dim: int = DEFAULT_SCHEMA.width
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.node_embedding not in ("gcn", "gat"):
            raise ConfigError(f"unknown node embedding {self.node_embedding!r}")
        if self.readout not in ("sum", "attn"):
            raise ConfigError(f"unknown readout {self.readout!r}")
        if min(self.num_layers, self.hidden_dim, self.graph_dim,
               self.input_dim) < 1:
            raise ConfigError("model dimensions must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout rate {self.dropout_rate} not in [0, 1)")


# -- layer and readout primitives ------------------------------------


def gcn_layer(h: ad.Tensor, a: ad.Tensor, w: ad.Tensor) -> ad.Tensor:
    """Neighborhood sum through the self-looped adjacency, then linear+ReLU."""
    return ad.relu(ad.matmul(ad.matmul(a, h), w))


def gat_layer(h: ad.Tensor, a: ad.Tensor, w: ad.Tensor,
              w_attn: ad.Tensor) -> ad.Tensor:
    """Pairwise tanh attention masked to the self-looped neighborhood.

    Coefficients are not renormalized after masking; non-neighbors simply
    contribute zero.
    """
    p = ad.matmul(h, w)
    d_out = w.shape[1]
    scores = ad.matmul(ad.matmul(p, w_attn), ad.transpose(p))
    alpha = ad.tanh(scores * (1.0 / math.sqrt(d_out))) * a
    return ad.relu(ad.matmul(alpha, p))


def embedding_block(h: ad.Tensor, layer_out: ad.Tensor, rate: float,
                    training: bool,
                    rng: np.random.Generator | None) -> ad.Tensor:
    """Dropout on the layer output, then the residual connection."""
    return ad.dropout(layer_out, rate, training, rng) + h


def sum_pool(h: ad.Tensor, w_read: ad.Tensor) -> ad.Tensor:
    """Pre-sigmoid sum readout: column sums of H W."""
    return ad.tensor_sum(ad.matmul(h, w_read), axis=0)


def attn_pool(h: ad.Tensor, w_read: ad.Tensor) -> ad.Tensor:
    """Pre-sigmoid attention readout.

    Node scores are the scaled row sums of H W; the softmax weights are
    multiplied by the node count so that uniform attention reduces to the
    plain sum readout.
    """
    g = ad.matmul(h, w_read)
    d_g = w_read.shape[1]
    scores = ad.tensor_sum(g, axis=1) * (1.0 / math.sqrt(d_g))
    weights = ad.softmax(scores) * float(h.shape[0])
    return ad.matmul(weights, g)


def sum_readout(h: ad.Tensor, w_read: ad.Tensor) -> ad.Tensor:
    return ad.sigmoid(sum_pool(h, w_read))


def attn_readout(h: ad.Tensor, w_read: ad.Tensor) -> ad.Tensor:
    return ad.sigmoid(attn_pool(h, w_read))


def threshold_label(p_hat: float, threshold: float = 0.5) -> int:
    """Predicted label: 1 iff the probability strictly exceeds the threshold."""
    return 1 if p_hat > threshold else 0


# -- the model -------------------------------------------------------


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple[int, ...]) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class GnnModel:
    """Stacked graph network with per-layer readouts and a linear head."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        d0, d, dg = config.input_dim, config.hidden_dim, config.graph_dim
        params: dict[str, ad.Tensor] = {}
        params["w_in"] = ad.Tensor(_glorot(rng, d0, d, (d0, d)),
                                   requires_grad=True)
        for layer in range(config.num_layers):
            params[f"w_conv_{layer}"] = ad.Tensor(
                _glorot(rng, d, d, (d, d)), requires_grad=True)
            if config.node_embedding == "gat":
                params[f"w_attn_{layer}"] = ad.Tensor(
                    _glorot(rng, d, d, (d, d)), requires_grad=True)
            params[f"w_read_{layer}"] = ad.Tensor(
                _glorot(rng, d, dg, (d, dg)), requires_grad=True)
        total = config.num_layers * dg
        params["w_clf"] = ad.Tensor(_glorot(rng, total, 1, (total,)),
                                    requires_grad=True)
        params["b_clf"] = ad.Tensor(0.0, requires_grad=True)
        self.params = params

    # bias stays out of weight decay
    DECAY_EXCLUDE = frozenset({"b_clf"})

    def parameters(self) -> dict[str, ad.Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, graph: MolecularGraph, training: bool = False,
                rng: np.random.Generator | None = None) -> ad.Tensor:
        """Positive-class probability as a scalar tensor on the tape."""
        cfg = self.config
        x = ad.Tensor(graph.node_features)
        a = ad.Tensor(graph.adjacency)
        h = ad.matmul(x, self.params["w_in"])
        readouts = []
        pool = sum_pool if cfg.readout == "sum" else attn_pool
        for layer in range(cfg.num_layers):
            if cfg.node_embedding == "gcn":
                out = gcn_layer(h, a, self.params[f"w_conv_{layer}"])
            else:
                out = gat_layer(h, a, self.params[f"w_conv_{layer}"],
                                self.params[f"w_attn_{layer}"])
            h = embedding_block(h, out, cfg.dropout_rate, training, rng)
            readouts.append(ad.sigmoid(pool(h, self.params[f"w_read_{layer}"])))
        z = ad.concat(readouts)
        logit = ad.matmul(z, self.params["w_clf"]) + self.params["b_clf"]
        return ad.sigmoid(logit)

    def predict_proba(self, graph: MolecularGraph) -> float:
        return self.forward(graph, training=False).item()

    def predict_mc_dropout(
        self, graph: MolecularGraph, samples: int,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mean of `samples` train-mode forward passes, plus the passes.

        With dropout rate 0 every pass is the deterministic forward, so the
        mean is returned as that exact value (an arithmetic mean of T
        identical floats need not round-trip for T not a power of two).
        """
        if samples < 1:
            raise ConfigError("mc samples must be >= 1")
        if self.config.dropout_rate == 0.0:
            det = self.predict_proba(graph)
            return det, np.full(samples, det)
        if rng is None:
            rng = np.random.default_rng(0)
        draws = np.empty(samples)
        for i in range(samples):
            draws[i] = self.forward(graph, training=True, rng=rng).item()
        return float(draws.mean()), draws


# -- checkpoints -----------------------------------------------------


def save_checkpoint(model: GnnModel, path: str) -> None:
    """JSON checkpoint; float64 values survive the round trip bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "molcalib-checkpoint",
        "config": asdict(model.config),
        "params": {name: t.data.tolist() for name, t in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> GnnModel:
    if not os.path.exists(path):
        raise IoError(f"checkpoint not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"checkpoint is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise SchemaError("checkpoint is not a JSON object")
    for key in ("format_version", "config", "params"):
        if key not in payload:
            raise SchemaError(f"checkpoint missing {key!r}")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise SchemaError(
            f"unsupported checkpoint version {payload['format_version']}"
        )
    config, params = payload["config"], payload["params"]
    if not isinstance(config, dict) or not isinstance(params, dict):
        raise SchemaError("checkpoint config and params must be mappings")
    # older checkpoints store the MC sample count, now an inference setting
    config = {k: v for k, v in config.items() if k != "mc_samples"}
    try:
        model = GnnModel(ModelConfig(**config))
    except (TypeError, ConfigError) as err:
        raise SchemaError(f"checkpoint config is invalid: {err}") from err
    if set(params) != set(model.params):
        raise SchemaError("checkpoint parameters do not match the config")
    for name, values in params.items():
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise SchemaError(
                f"checkpoint parameter {name!r} is not numeric") from err
        if arr.shape != model.params[name].data.shape:
            raise SchemaError(f"checkpoint parameter {name!r} has wrong shape")
        model.params[name].data = arr
    return model
