"""Which molcalib functions are traced, and the per-layer metrics from spans.

A layer is a ``src/molcalib`` module.  Span names are ``<layer>.<call>``.
Targets that a later version of the program no longer has are skipped, and
their metrics read zero.
"""

from __future__ import annotations

import importlib

from tracing import Patch, SpanArrays, Tracer

AUTODIFF_OPS = (
    "add", "sub", "mul", "pow_const", "matmul", "transpose", "tensor_sum",
    "concat", "stack_scalars", "slice_rows", "relu", "sigmoid", "tanh",
    "log", "clamp", "softmax", "dropout",
)
KERNELS = (
    "relu_forward", "relu_backward", "sigmoid_forward", "sigmoid_backward",
    "tanh_forward", "tanh_backward", "softmax_rows", "softmax_rows_backward",
    "scale_mask",
)
MODEL_STAGES = ("model.gcn_layer", "model.gat_layer", "model.pool",
                "model.block")

# (span name, module, function)
FUNCTIONS = (
    ("smiles.parse", "smiles", "parse_smiles"),
    ("featurize.featurize", "featurize", "featurize"),
    ("featurize.strip", "featurize", "strip_to_largest_component"),
    ("data.load", "data", "load_dataset"),
    ("data.split", "data", "split_dataset"),
    ("model.gcn_layer", "model", "gcn_layer"),
    ("model.gat_layer", "model", "gat_layer"),
    ("model.pool", "model", "sum_pool"),
    ("model.pool", "model", "attn_pool"),
    ("model.block", "model", "embedding_block"),
    *((f"autodiff.{op}", "autodiff", op) for op in AUTODIFF_OPS),
    ("autodiff.backward", "autodiff", "backward"),
    *((f"kernels.{k}", "kernels", k) for k in KERNELS),
    ("metrics.records", "metrics", "records_from_probs"),
    ("metrics.build_report", "metrics", "build_report"),
    ("runner.train_run", "runner", "train_run"),
    ("runner.evaluate", "runner", "evaluate_model"),
    ("runner.predict", "runner", "predict_probabilities"),
)
# (span name, module, class, method)
METHODS = (
    ("model.forward", "model", "GnnModel", "forward"),
    ("losses.compute", "losses", "LossConfig", "compute"),
    ("optim.step", "optim", "AdamW", "step"),
)

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("smiles.parse_calls", "count"), ("smiles.parse_s", "s"),
    ("smiles.errors", "count"),
    ("featurize.calls", "count"), ("featurize.s", "s"),
    ("featurize.strip_s", "s"), ("featurize.errors", "count"),
    ("data.load_s", "s"), ("data.self_s", "s"), ("data.rows", "count"),
    ("data.skipped", "count"), ("data.split_s", "s"),
    ("model.forward_calls", "count"), ("model.forward_s", "s"),
    ("model.gcn_layer_s", "s"), ("model.gat_layer_s", "s"),
    ("model.pool_s", "s"), ("model.block_s", "s"),
    ("model.head_self_s", "s"),
    *((f"autodiff.op_calls.{op}", "count") for op in AUTODIFF_OPS),
    *((f"autodiff.op_s.{op}", "s") for op in AUTODIFF_OPS),
    ("autodiff.ops_per_step", "count"),
    ("autodiff.backward_calls", "count"), ("autodiff.backward_s", "s"),
    *((f"kernels.calls.{k}", "count") for k in KERNELS),
    *((f"kernels.s.{k}", "s") for k in KERNELS),
    ("losses.compute_s", "s"),
    ("optim.steps", "count"), ("optim.step_s", "s"),
    ("metrics.records_s", "s"), ("metrics.build_report_s", "s"),
    ("runner.predict_s", "s"), ("runner.evaluate_s", "s"),
    ("runner.write_s", "s"), ("runner.artifact_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"), ("trace.spans", "count"),
)


def _module(name: str):
    try:
        return importlib.import_module(f"molcalib.{name}")
    except ImportError:
        return None


def install(tracer: Tracer, patch: Patch) -> None:
    """Wrap every target that exists."""
    for span, module_name, attr in FUNCTIONS:
        module = _module(module_name)
        if module is not None:
            patch.function(module, attr,
                           lambda fn, s=span: tracer.wrap(s, fn))
    for span, module_name, cls_name, attr in METHODS:
        cls = getattr(_module(module_name), cls_name, None)
        patch.method(cls, attr, lambda fn, s=span: tracer.wrap(s, fn))


def metrics(spans: SpanArrays, errors: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers that the spans alone determine."""
    count, total = spans.count, spans.total
    out = {
        "smiles.parse_calls": count("smiles.parse"),
        "smiles.parse_s": total("smiles.parse"),
        "smiles.errors": errors.get("smiles.parse", 0),
        "featurize.calls": count("featurize.featurize"),
        "featurize.s": total("featurize.featurize"),
        "featurize.strip_s": total("featurize.strip"),
        "featurize.errors": (errors.get("featurize.featurize", 0)
                             + errors.get("featurize.strip", 0)),
        "data.load_s": total("data.load"),
        "data.self_s": float(spans.self_time()[spans.mask("data.load")]
                             .sum()),
        "data.split_s": total("data.split"),
        "model.forward_calls": count("model.forward"),
        "model.forward_s": total("model.forward"),
        "model.gcn_layer_s": total("model.gcn_layer"),
        "model.gat_layer_s": total("model.gat_layer"),
        "model.pool_s": total("model.pool"),
        "model.block_s": total("model.block"),
        "model.head_self_s": float(
            spans.self_time(spans.mask(*MODEL_STAGES))
            [spans.mask("model.forward")].sum()),
    }
    for op in AUTODIFF_OPS:
        out[f"autodiff.op_calls.{op}"] = count(f"autodiff.{op}")
        out[f"autodiff.op_s.{op}"] = total(f"autodiff.{op}")
    steps = count("optim.step")
    op_names = [f"autodiff.{op}" for op in AUTODIFF_OPS]
    train_ops = int((spans.mask(*op_names)
                     & ~spans.under("runner.evaluate")).sum())
    out["autodiff.ops_per_step"] = train_ops / steps if steps else 0.0
    out["autodiff.backward_calls"] = count("autodiff.backward")
    out["autodiff.backward_s"] = total("autodiff.backward")
    for k in KERNELS:
        out[f"kernels.calls.{k}"] = count(f"kernels.{k}")
        out[f"kernels.s.{k}"] = total(f"kernels.{k}")
    out["losses.compute_s"] = total("losses.compute")
    out["optim.steps"] = steps
    out["optim.step_s"] = total("optim.step")
    out["metrics.records_s"] = total("metrics.records")
    out["metrics.build_report_s"] = total("metrics.build_report")
    out["runner.predict_s"] = total("runner.predict")
    out["runner.evaluate_s"] = total("runner.evaluate")
    # persisting = the tail of train_run after its evaluation returns:
    # fingerprint, manifest, checkpoint and report CSVs
    evals = spans.mask("runner.evaluate") & (spans.parent >= 0)
    evals &= spans.mask("runner.train_run")[
        spans.parent.clip(min=0)]
    out["runner.write_s"] = float(
        (spans.end[spans.parent[evals]] - spans.end[evals]).sum())
    return out


def self_time_by_layer(spans: SpanArrays) -> dict[str, float]:
    """Self time summed per layer (the span name before the first dot)."""
    own = spans.self_time()
    out: dict[str, float] = {}
    for nid, name in enumerate(spans.names):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + float(
            own[spans.name_id == nid].sum())
    return out
