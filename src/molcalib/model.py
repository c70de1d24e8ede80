"""Graph neural network for binary molecular property prediction.

Architecture: a learned input projection, then L embedding blocks, each a
graph layer (convolutional or attention-based) wrapped in dropout and a
residual connection.  After every block a per-layer readout (plain sum or
attention-weighted sum over nodes, sigmoid-squashed) produces a graph
vector; the L vectors are concatenated and a linear head gives the
positive-class logit.  The model never applies the final sigmoid: the
losses take the logit, and ``runner.predict_probabilities`` turns it into a
probability at the scoring edge.

The model runs on a packed batch (:func:`pack_graphs`): the disjoint union
of the batch's graphs, so one forward and one tape serve every graph in a
training minibatch or an inference chunk.

Readouts expose their pre-sigmoid pooled vectors (``sum_pool`` /
``attn_pool``) because distinguishability arguments are phrased in terms of
the pre-activation values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, SchemaError, ShapeError, reading
from .featurize import NUM_FEATURES, MolecularGraph

CHECKPOINT_VERSION = 1

NODE_EMBEDDINGS = ("gcn", "gat")
READOUTS = ("sum", "attn")


@dataclass(frozen=True)
class ModelConfig:
    node_embedding: str = "gcn"
    readout: str = "attn"
    num_layers: int = 4
    hidden_dim: int = 64
    graph_dim: int = 256
    input_dim: int = NUM_FEATURES
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.node_embedding not in NODE_EMBEDDINGS:
            raise ConfigError(f"unknown node embedding {self.node_embedding!r}")
        if self.readout not in READOUTS:
            raise ConfigError(f"unknown readout {self.readout!r}")
        if min(self.num_layers, self.hidden_dim, self.graph_dim,
               self.input_dim) < 1:
            raise ConfigError("model dimensions must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout rate {self.dropout_rate} not in [0, 1)")


# -- packed batches --------------------------------------------------


@dataclass(frozen=True)
class GraphBatch:
    """Disjoint union of graphs: stacked node features, the self-looped
    neighbour lists of the stacked bonds, and each graph's row range.

    A batch of `copies` > 1 holds each graph `copies` times, graph b's
    copies after graph b-1's.  `x` and `prefix_neighbors` hold each graph
    once, for the layers before the first dropout; `copy_rows[u]` is the
    row of `x` that row u of the copies repeats, and `neighbors` and
    `segments` cover the copies.  Where `copy_rows` is None (one copy,
    or a lone one-atom graph), `x` already holds the copies' rows and
    `prefix_neighbors` is `neighbors`.
    """

    x: np.ndarray
    neighbors: ad.Neighbors
    segments: ad.Segments
    prefix_neighbors: ad.Neighbors
    copy_rows: np.ndarray | None = None


def pack_graphs(graphs: Sequence[MolecularGraph], copies: int = 1,
                dtype=np.float64) -> GraphBatch:
    """Pack graphs, each `copies` times; graph b's nodes follow graph b-1's.

    Each bond list must be an (E, 2) integer array of its own graph's node
    indices, with no self-bond and no pair listed twice in either
    orientation, as ``featurize`` builds it.  Node features of any real
    dtype (``featurize`` stores uint8 one-hot rows) are stacked into one
    matrix of the compute dtype `dtype`, float64 (training, deterministic
    scoring) or float32 (MC dropout scoring); this is the one place
    features become floats, and the forward runs in their dtype.  The
    copies' neighbour lists and row ranges are those of packing each
    graph `copies` times in a row, built from the graphs' own by offsets.
    """
    if len(graphs) == 0:
        raise ShapeError("cannot pack zero graphs")
    if copies < 1:
        raise ShapeError(f"cannot pack {copies} copies")
    segments = ad.Segments([g.num_nodes for g in graphs])
    if copies > 1 and segments.num_rows == 1:
        # numpy takes a one-row product as a matrix-vector product, which
        # rounds differently from the matrix product of the copies' rows
        return pack_graphs(list(graphs) * copies, dtype=dtype)
    try:
        bonds = np.concatenate([g.bonds for g in graphs])
    except ValueError:  # bond lists of mixed rank or width
        bonds = None
    if bonds is None or bonds.ndim != 2 or bonds.shape[1] != 2 \
            or bonds.dtype.kind not in "iu":
        raise ShapeError("bond lists must be (E, 2) integer arrays")
    owner = np.repeat(np.arange(len(graphs)), [len(g.bonds) for g in graphs])
    if np.any(bonds < 0) or np.any(bonds >= segments.sizes[owner, None]):
        raise ShapeError("bond index outside its graph")
    neighbors = ad.Neighbors(bonds + segments.starts[owner, None],
                             segments.num_rows)
    x = np.concatenate([g.node_features for g in graphs], dtype=dtype)
    if copies == 1:
        return GraphBatch(x=x, neighbors=neighbors, segments=segments,
                          prefix_neighbors=neighbors)
    copy_segments = ad.Segments(np.repeat(segments.sizes, copies))
    ids = copy_segments.ids  # the copy each row belongs to
    copy_rows = np.arange(ids.size) + (segments.starts[ids // copies]
                                       - copy_segments.starts[ids])
    return GraphBatch(x=x, neighbors=neighbors.repeat(copy_rows),
                      segments=copy_segments, prefix_neighbors=neighbors,
                      copy_rows=copy_rows)


# -- layer and readout primitives ------------------------------------


def gcn_layer(h: ad.Tensor, nb: ad.Neighbors, w: ad.Tensor) -> ad.Tensor:
    """Linear, then the sum over each node and its bonded neighbours, then
    ReLU: relu((A + I) h w), one :func:`autodiff.gcn_conv` op that keeps
    only its output on the tape."""
    return ad.gcn_conv(h, w, nb)


def gat_layer(h: ad.Tensor, nb: ad.Neighbors, w: ad.Tensor,
              w_attn: ad.Tensor) -> ad.Tensor:
    """Pairwise tanh attention over the self-looped neighborhood.

    Coefficients are not renormalized; non-neighbors simply contribute
    zero.
    """
    p = ad.matmul(h, w)
    scale = 1.0 / math.sqrt(w.shape[1])
    return ad.relu(ad.neighbor_attention(ad.matmul(p, w_attn), p, nb, scale))


def embedding_block(h: ad.Tensor, layer_out: ad.Tensor, rate: float,
                    training: bool,
                    rng: ad.DropoutRng | None) -> ad.Tensor:
    """Dropout on the layer output, then the residual connection."""
    return ad.dropout(layer_out, rate, training, rng) + h


def sum_pool(h: ad.Tensor, w_read: ad.Tensor,
             seg: ad.Segments) -> ad.Tensor:
    """Pre-sigmoid sum readout per graph: column sums of H W, taken as
    (column sums of H) W so the (N, dg) product is never built."""
    return ad.matmul(ad.segment_sum(h, seg), w_read)


def attn_pool(h: ad.Tensor, w_read: ad.Tensor,
              seg: ad.Segments) -> ad.Tensor:
    """Pre-sigmoid attention readout per graph.

    Node scores are the scaled row sums of H W, that is H (W 1); within
    each graph the softmax weights are multiplied by the node count so
    that uniform attention reduces to the plain sum readout.  The pooled
    vector sum_i a_i (H W)_i is taken as (sum_i a_i H_i) W, the sum
    being one :func:`autodiff.attention_pool` op.
    """
    scale = 1.0 / math.sqrt(w_read.shape[1])
    pooled = ad.attention_pool(h, ad.tensor_sum(w_read, axis=1), seg, scale)
    return ad.matmul(pooled, w_read)


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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, batch: GraphBatch, training: bool = False,
                rng: ad.DropoutRng | None = None) -> ad.Tensor:
        """Positive-class logit of every graph copy in the batch, shape
        (B * copies,), on the tape.  Training-mode dropout draws each
        layer's mask at once, from `rng` as :func:`autodiff.dropout`
        describes.

        The copies of a graph differ only from layer 0's dropout on, so
        the input projection and layer 0's graph layer run on each graph
        once; their rows are then repeated for the copies.

        The forward runs in the dtype of ``batch.x``: each parameter goes
        through :func:`autodiff.cast`, which returns the parameter itself
        where the dtypes already match, so a float64 forward casts
        nothing.
        """
        cfg = self.config
        x = ad.Tensor(batch.x)
        params = {name: ad.cast(p, x.data.dtype)
                  for name, p in self.params.items()}
        h = ad.matmul(x, params["w_in"])
        neighbors = batch.prefix_neighbors
        readouts = []
        pool = sum_pool if cfg.readout == "sum" else attn_pool
        for layer in range(cfg.num_layers):
            if cfg.node_embedding == "gcn":
                out = gcn_layer(h, neighbors,
                                params[f"w_conv_{layer}"])
            else:
                out = gat_layer(h, neighbors,
                                params[f"w_conv_{layer}"],
                                params[f"w_attn_{layer}"])
            if layer == 0 and batch.copy_rows is not None:
                h = ad.repeat_rows(h, batch.copy_rows)
                out = ad.repeat_rows(out, batch.copy_rows)
                neighbors = batch.neighbors
            h = embedding_block(h, out, cfg.dropout_rate, training, rng)
            readouts.append(ad.sigmoid(pool(h, params[f"w_read_{layer}"],
                                            batch.segments)))
        z = ad.concat(readouts, axis=1)
        return ad.matmul(z, params["w_clf"]) + params["b_clf"]


# -- checkpoints -----------------------------------------------------


def save_checkpoint(model: GnnModel, path: str) -> None:
    """JSON checkpoint; float64 values survive the round trip bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "molcalib-checkpoint",
        "config": asdict(model.config),
        "params": {name: t.data.tolist() for name, t in model.params.items()},
    }
    # json.dumps runs the C encoder; json.dump always runs the pure-Python
    # one, at about twice the time for the same bytes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


def load_checkpoint(path: str) -> GnnModel:
    with reading(path, "checkpoint"), open(path, encoding="utf-8") as fh:
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
        if not np.all(np.isfinite(arr)):  # JSON NaN and Infinity load
            raise SchemaError(f"checkpoint parameter {name!r} is not finite")
        model.params[name].data = arr
    return model
