"""Training, evaluation, ablation, and screening drivers.

Every run is reconstructible from its manifest: the fully resolved
config, the seed, the data accounting, per-epoch mean losses, and the
final evaluation all land in one JSON document whose fingerprint ignores
only wall-clock timing.  Randomness is derived from (seed, epoch)
spawn keys so that shuffling, dropout masks, and MC sampling never
depend on call order elsewhere in the process.

Report CSVs cover each figure family: calibration curve points with the
diagonal reference, entropy and output histograms, per-outcome output
histograms, the screening success curve, scalar metrics, per-epoch
losses, and ranked per-compound predictions.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import autodiff as ad
from .config import (
    ExperimentConfig,
    default_l2_coefficient,
    manifest_fingerprint,
)
from .data import load_dataset, split_dataset
from .errors import EmptyDatasetError, NumericalError
from .featurize import MolecularGraph
from .losses import LossConfig, l2_penalty
from .metrics import ReliabilityReport, build_report
from .model import (NODE_EMBEDDINGS, READOUTS, GnnModel, pack_graphs,
                    save_checkpoint)
from .optim import AdamW

MANIFEST_VERSION = 1


def _build_stamp() -> dict:
    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- CSV emission ----------------------------------------------------


def _write_manifest(manifest: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_dict_rows(path: str, rows: list[dict]) -> None:
    """Write `rows`, dicts with one key order, under those keys."""
    _write_csv(path, list(rows[0]), [list(row.values()) for row in rows])


def _histogram_rows(hist) -> list[list]:
    return [[i, hist.edges[i], hist.edges[i + 1], int(c)]
            for i, c in enumerate(hist.counts)]


def emit_report_csvs(report: ReliabilityReport, graphs,
                     out_dir: str) -> None:
    """Write every figure-family data series, and the ranked compound list
    of `graphs`, the molecules `report` scored in its order."""
    reports = os.path.join(out_dir, "reports")
    summary = report.to_dict()  # as the manifest records it

    _write_csv(os.path.join(reports, "calibration_curve.csv"),
               ["bin_index", "lower", "upper", "midpoint", "count",
                "positive_fraction", "confidence", "defined"],
               [[i, b["lower"], b["upper"], 0.5 * (b["lower"] + b["upper"]),
                 b["count"], b["positive_fraction"], b["confidence"],
                 int(b["defined"])]
                for i, b in enumerate(summary["calibration_bins"])])
    _write_csv(os.path.join(reports, "entropy_histogram.csv"),
               ["bin_index", "lower", "upper", "count"],
               _histogram_rows(report.entropy_hist))
    _write_csv(os.path.join(reports, "output_histogram.csv"),
               ["bin_index", "lower", "upper", "count"],
               _histogram_rows(report.output_hist))
    _write_csv(os.path.join(reports, "outcome_histograms.csv"),
               ["outcome", "bin_index", "lower", "upper", "count"],
               [[outcome] + row for outcome in ("tp", "fp", "tn", "fn")
                for row in _histogram_rows(report.outcome_hists[outcome])])
    _write_csv(os.path.join(reports, "screening_curve.csv"),
               ["k_percent", "screened", "success_rate"],
               [[s["k_percent"], s["screened"], s["success_rate"]]
                for s in summary["screening"]])
    m = report.metrics
    _write_csv(os.path.join(reports, "metrics.csv"),
               ["metric", "value", "defined"],
               [["accuracy", m.accuracy, 1],
                ["precision", m.precision, int(m.precision_defined)],
                ["recall", m.recall, int(m.recall_defined)],
                ["f1", m.f1, int(m.f1_defined)],
                ["auroc", report.auroc, int(report.auroc_defined)],
                ["ece", report.ece, 1],
                ["prevalence", report.prevalence, 1],
                ["tp", m.tp, 1], ["fp", m.fp, 1],
                ["tn", m.tn, 1], ["fn", m.fn, 1]])

    # most probable first; ties keep input order
    rows = []
    order = np.argsort(-report.p_hat, kind="stable")
    for rank, i in enumerate(order, start=1):
        g = graphs[i]
        rows.append([rank, g.source_id or "", g.smiles, report.p_hat[i],
                     int(report.y_pred[i]),
                     "" if g.label is None else g.label])
    _write_csv(os.path.join(reports, "predictions.csv"),
               ["rank", "source_id", "smiles", "p_hat", "y_pred", "y_true"],
               rows)


# -- inference -------------------------------------------------------


def predict_probabilities(model: GnnModel, graphs, mode: str,
                          mc_samples: int, seed: int,
                          batch_size: int) -> np.ndarray:
    """Score graphs under the configured inference mode, in one loop.

    A graph runs as `copies` packed copies (`mc_samples` train-mode passes
    for MC dropout at a nonzero rate, else one deterministic pass) and
    scores the mean of its copies' probabilities, the sigmoid of the
    model's logits.  A forward packs max(1, batch_size // copies) graphs,
    each once, and repeats them for the copies at the first dropout (see
    :meth:`GnnModel.forward`).  Graph i draws its dropout masks from the
    stream (seed, i), so scores do not depend on chunking up to float
    rounding: BLAS may round a product's rows differently at another row
    count, which moves a score by a few ulp at most.  Each forward is one
    :func:`autodiff.checked_forward` pass.

    MC dropout copies are computed in float32 (their masks are the ones a
    float64 pass would draw), and their mean is taken in float64; this
    moves a score by far less than the Monte Carlo error of the mean (see
    :func:`selftest.mc_precision_gap`).  Deterministic scoring runs in
    float64, though training computes in float32: its scores are the
    ones checked against stored references (to 1e-9 in the benchmark's),
    and with no Monte Carlo error to hide under, float32 rounding would
    be their whole error.
    """
    mc = mode == "mc_dropout" and model.config.dropout_rate > 0
    copies = mc_samples if mc else 1
    dtype = np.float32 if mc else np.float64
    per_forward = max(1, batch_size // copies)
    probs = np.empty(len(graphs))
    for start in range(0, len(graphs), per_forward):
        chunk = graphs[start:start + per_forward]
        packed = pack_graphs(chunk, copies, dtype)

        def chunk_forward():
            blocks = [(np.random.default_rng([seed, i]), copies * g.num_nodes)
                      for i, g in enumerate(chunk, start)] if mc else None
            return ad.sigmoid(model.forward(packed, training=mc, rng=blocks))

        with ad.no_grad():
            out = ad.checked_forward(chunk_forward).data
        probs[start:start + len(chunk)] = out.reshape(-1, copies).mean(
            axis=1, dtype=np.float64)
    return probs


def evaluate_model(model: GnnModel, graphs, config: ExperimentConfig,
                   seed: int) -> tuple[ReliabilityReport, np.ndarray]:
    probs = predict_probabilities(model, graphs, config.inference.mode,
                                  config.inference.mc_samples, seed,
                                  config.training.batch_size)
    y_pred = (probs > config.evaluation.threshold).astype(np.int64)
    y_true = [g.label for g in graphs]
    report = build_report(probs, y_pred, y_true,
                          num_bins=config.evaluation.num_bins,
                          k_grid=config.evaluation.k_grid)
    return report, probs


# -- training --------------------------------------------------------


def checked_split(graphs, config: ExperimentConfig, seed: int):
    """The seeded train/test split of `graphs` at the configured ratio;
    refuses a split that leaves either side empty."""
    train, test = split_dataset(graphs, config.training.split_ratio, seed)
    if not train or not test:
        raise EmptyDatasetError(
            f"split_ratio {config.training.split_ratio} on {len(graphs)} "
            f"molecules leaves {len(train)} for training and {len(test)} "
            f"for testing; both need at least one")
    return train, test


@dataclass
class RunResult:
    model: GnnModel
    manifest: dict
    report: ReliabilityReport
    test_graphs: list
    test_probs: np.ndarray


def _epoch_pass(model, train_graphs, loss_cfg: LossConfig, optimizer,
                lr: float, batch_size: int, seed: int,
                epoch: int) -> float:
    """One epoch of AdamW steps; returns the mean per-molecule loss.

    Each minibatch is packed in float32, so its forward and backward
    tape runs in float32 (about 2x faster matmuls and row gathers than
    float64).  The parameters stay float64: the forward casts them, and
    :func:`autodiff.cast` hands their gradients back in float64.  The
    logits are cast up before the loss, so the loss value, the epoch
    mean and AdamW's moments are float64 as well.  Training is
    reproducible bit for bit at a given BLAS thread count, but not equal
    to a float64 pass: each step
    moves the weights by float32 rounding, which training amplifies as
    it amplifies any rounding (see :func:`selftest.train_precision_gap`).
    """
    order = np.random.default_rng([seed, epoch]).permutation(
        len(train_graphs))
    dropout_rng = np.random.default_rng([seed, epoch, 1])
    epoch_sum = 0.0
    for start in range(0, len(order), batch_size):
        batch = [train_graphs[i] for i in order[start:start + batch_size]]
        model.zero_grad()
        packed = pack_graphs(batch, dtype=np.float32)
        targets = np.array([g.label for g in batch], dtype=np.float64)
        rng_state = dropout_rng.bit_generator.state
        blocks = [(dropout_rng, packed.segments.num_rows)]

        def batch_loss():
            dropout_rng.bit_generator.state = rng_state  # replay, same masks
            logits = model.forward(packed, training=True, rng=blocks)
            return loss_cfg.compute(targets, ad.cast(logits, np.float64))

        batch_sum = ad.checked_forward(batch_loss)
        # objective is the per-sample mean; the summed form stays in the
        # loss ops themselves
        objective = (1.0 / len(batch)) * batch_sum
        ad.backward(objective)
        optimizer.step(lr=lr)
        epoch_sum += batch_sum.item()
    return epoch_sum / len(train_graphs)


def train_run(config: ExperimentConfig, seed: int, graphs=None,
              data_report: dict | None = None, out_dir: str | None = None,
              log=None) -> RunResult:
    """One full training run: fit, evaluate, persist manifest + artifacts.

    `graphs` short-circuits dataset loading so callers can reuse one
    ingestion across seeds.  On numerical failure the offending epoch is
    recorded in both the raised error and, when `out_dir` is given, a
    partial manifest.
    """
    t_start = time.perf_counter()
    if graphs is None:
        graphs, data_report = load_dataset(config.dataset)
    train_graphs, test_graphs = checked_split(graphs, config, seed)
    test_classes = {g.label for g in test_graphs}
    if log is not None and len(test_classes) == 1:
        log(f"warning: all {len(test_graphs)} test molecules are class "
            f"{test_classes.pop()}; AUROC will be undefined")

    model = GnnModel(config.model, seed=seed)
    optimizer = AdamW(model.params, config.optimizer,
                      config.loss.l2_coefficient, model.DECAY_EXCLUDE)
    initial_lr = config.optimizer.learning_rate

    manifest = {
        "format_version": MANIFEST_VERSION,
        "seed": seed,
        "config": config.to_dict(),
        "build": _build_stamp(),
        "data": data_report or {},
        "split": {"train_size": len(train_graphs),
                  "test_size": len(test_graphs)},
    }

    epoch_losses = []
    for epoch in range(config.training.epochs):
        lr = config.schedule.lr_at(initial_lr, epoch)
        try:
            mean_loss = _epoch_pass(model, train_graphs, config.loss,
                                    optimizer, lr,
                                    config.training.batch_size, seed, epoch)
        except NumericalError as err:
            manifest["failed_epoch"] = epoch
            manifest["epoch_losses"] = epoch_losses
            if out_dir:
                _write_manifest(manifest, out_dir)
            raise NumericalError(f"epoch {epoch}: {err}") from err
        epoch_losses.append(mean_loss)
        if log is not None and (epoch % 20 == 0
                                or epoch + 1 == config.training.epochs):
            log(f"epoch {epoch:4d}  lr {lr:.2e}  loss {mean_loss:.6f}")

    t_trained = time.perf_counter()
    report, test_probs = evaluate_model(model, test_graphs, config, seed)
    t_done = time.perf_counter()

    manifest["epoch_losses"] = epoch_losses
    manifest["l2_penalty_final"] = l2_penalty(model.params,
                                              config.loss.l2_coefficient,
                                              model.DECAY_EXCLUDE)
    manifest["evaluation"] = report.to_dict()
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    manifest["timing"] = {
        "train_seconds": t_trained - t_start,
        "evaluate_seconds": t_done - t_trained,
        "finished_unix": time.time(),
    }

    if out_dir:
        _write_manifest(manifest, out_dir)
        save_checkpoint(model, os.path.join(out_dir, "checkpoint.json"))
        emit_report_csvs(report, test_graphs, out_dir)
        _write_csv(os.path.join(out_dir, "reports", "epoch_loss.csv"),
                   ["epoch", "mean_loss", "learning_rate"],
                   [[e, loss, config.schedule.lr_at(initial_lr, e)]
                    for e, loss in enumerate(epoch_losses)])

    return RunResult(model=model, manifest=manifest, report=report,
                     test_graphs=test_graphs, test_probs=test_probs)


# -- screening -------------------------------------------------------


def screen_library(model: GnnModel, config: ExperimentConfig,
                   out_dir: str | None = None,
                   log=None) -> dict:
    """Score a labeled compound library and rank it for screening.

    Labels come through the dataset spec (for activity data, the
    pIC50-threshold rule); the outputs are the ranked compound list, the
    success-rate-vs-depth curve, and per-outcome output histograms.
    """
    graphs, data_report = load_dataset(config.dataset)
    seed = config.training.seeds[0]
    report, _ = evaluate_model(model, graphs, config, seed)
    summary = report.to_dict()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        emit_report_csvs(report, graphs, out_dir)
    if log is not None:
        for s in summary["screening"]:
            log(f"top {s['k_percent']:6.2f}%  screened {s['screened']:6d}"
                f"  success rate {s['success_rate']:.4f}")
    return {"data": data_report, "evaluation": summary}


# -- ablation sweeps -------------------------------------------------

ABLATION_AXES = ("architectures", "regularizers", "focal_grid")

ABLATION_DROPOUT = 0.2
ABLATION_SMOOTHING = 0.1
ABLATION_ENTROPY_WEIGHT = 0.1
FOCAL_WEIGHTS = (0.1, 0.25, 0.5, 0.75)
FOCAL_FOCUSINGS = (1.0, 2.0)


def _with_dropout(config: ExperimentConfig, rate: float,
                  mode: str) -> ExperimentConfig:
    model = replace(config.model, dropout_rate=rate)
    loss = replace(config.loss, l2_coefficient=default_l2_coefficient(rate))
    inference = replace(config.inference, mode=mode)
    return replace(config, model=model, loss=loss, inference=inference)


def _with_loss(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    base = _with_dropout(config, 0.0, "deterministic")
    loss = LossConfig(l2_coefficient=base.loss.l2_coefficient, **kwargs)
    return replace(base, loss=loss)


def ablation_variants(config: ExperimentConfig,
                      axis: str) -> list[tuple[str, ExperimentConfig]]:
    """Named config variants for one sweep axis."""
    if axis == "architectures":
        out = []
        for emb in NODE_EMBEDDINGS:
            for readout in READOUTS:
                model = replace(config.model, node_embedding=emb,
                                readout=readout)
                out.append((f"{emb}+{readout}",
                            replace(config, model=model)))
        return out
    if axis == "regularizers":
        return [
            ("baseline", _with_loss(config, kind="bce")),
            ("dropout",
             _with_dropout(config, ABLATION_DROPOUT, "deterministic")),
            ("mc_dropout",
             _with_dropout(config, ABLATION_DROPOUT, "mc_dropout")),
            ("label_smoothing",
             _with_loss(config, kind="label_smoothing",
                        smoothing=ABLATION_SMOOTHING)),
            ("entropy_regularized",
             _with_loss(config, kind="entropy_regularized",
                        entropy_weight=ABLATION_ENTROPY_WEIGHT)),
        ]
    if axis == "focal_grid":
        out = []
        for weight in FOCAL_WEIGHTS:
            for focusing in FOCAL_FOCUSINGS:
                name = f"wfl_a{weight}_g{focusing}"
                out.append((name, _with_loss(config, kind="weighted_focal",
                                             positive_weight=weight,
                                             focusing=focusing)))
        return out
    raise ValueError(
        f"unknown ablation axis {axis!r}, expected one of "
        f"{', '.join(ABLATION_AXES)}")


SUMMARY_FIELDS = ("accuracy", "precision", "recall", "f1", "auroc", "ece")


def _differing_settings(configs: list[ExperimentConfig]) -> list[dict]:
    """For each of `configs`, the settings in which any two of them differ,
    keyed by bare field name in :meth:`ExperimentConfig.to_dict` order
    (field names are unique across its sections)."""
    records = [config.to_dict() for config in configs]
    differing = [(section, key) for section, values in records[0].items()
                 if isinstance(values, dict) for key in values
                 if any(r[section][key] != values[key] for r in records)]
    return [{key: r[section][key] for section, key in differing}
            for r in records]


def run_ablation(config: ExperimentConfig, axis: str,
                 out_dir: str | None = None, log=None) -> dict:
    """Train every variant on every seed and compare their seed means.

    ``raw`` holds one row per (variant, seed).  ``comparison`` holds one
    row per variant, in :func:`ablation_variants` order: the settings
    that tell the axis's variants apart, the seed count, and for each
    `SUMMARY_FIELDS` entry its arithmetic mean over seeds and that mean
    minus the first variant's.  Both are written as CSVs whatever
    direction the numbers point.
    """
    variants = ablation_variants(config, axis)
    settings = _differing_settings([variant for _, variant in variants])
    graphs, data_report = load_dataset(config.dataset)
    raw_rows = []
    comparison = []
    for (name, variant), setting in zip(variants, settings):
        per_seed = []
        for seed in variant.training.seeds:
            result = train_run(variant, seed, graphs=graphs,
                               data_report=data_report)
            evaluation = result.manifest["evaluation"]
            row = {field: float("nan") if evaluation[field] is None
                   else evaluation[field] for field in SUMMARY_FIELDS}
            per_seed.append(row)
            raw_rows.append({"variant": name, "seed": seed, **row})
            if log is not None:
                shown = "  ".join(f"{k} {row[k]:.4f}"
                                  for k in SUMMARY_FIELDS)
                log(f"{name:24s} seed {seed}  {shown}")
        comparison.append({
            "variant": name, **setting, "seeds": len(per_seed),
            **{f"mean_{field}": sum(r[field] for r in per_seed)
               / len(per_seed) for field in SUMMARY_FIELDS}})
    baseline = comparison[0]
    for row in comparison:
        row.update({f"{field}_delta_vs_baseline":
                    row[f"mean_{field}"] - baseline[f"mean_{field}"]
                    for field in SUMMARY_FIELDS})

    if out_dir:
        reports = os.path.join(out_dir, "reports")
        _write_dict_rows(os.path.join(reports, "ablation_raw.csv"), raw_rows)
        _write_dict_rows(os.path.join(reports, f"comparison_{axis}.csv"),
                         comparison)
    return {"axis": axis, "data": data_report, "raw": raw_rows,
            "comparison": comparison}
