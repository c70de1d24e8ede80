"""Release gates, one test per gate, each printing a single verdict line.

The verdict lines bypass pytest's capture so the final log always shows
an explicit ``[ACCEPTANCE] n/8 ...: pass|FAIL|skip`` per gate.  Gates
5-7 need the public benchmark CSVs (bace.csv, BBBP.csv, HIV.csv); they
skip with a message when those files are absent.  Point MOLCALIB_DATA_DIR
at a directory holding them to enable those gates; everything else runs
on synthetic data and pure math.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from molcalib import losses
from molcalib import metrics
from molcalib.config import load_raw, resolve_config
from molcalib.errors import SmilesError
from molcalib.losses import LossConfig
from molcalib.metrics import DEFAULT_K_GRID
from molcalib.model import GnnModel, ModelConfig
from molcalib.runner import run_ablation, train_run
from molcalib.selftest import (
    gradient_mismatches,
    logits_of,
    loss_identity_gaps,
    metric_oracle_mismatches,
    permutation_gap,
    random_graph,
    rate_zero_gaps,
    size_ratio_gap,
)
from molcalib.smiles import parse_smiles

from test_metrics import quantized, random_records, records

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def announce(capsys):
    """Print one line past the capture so it lands in the live log."""

    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    return emit


def verdict(announce, gate, problems, detail):
    status = "pass" if not problems else "FAIL"
    announce(f"[ACCEPTANCE] {gate}: {status} ({detail})")
    assert not problems, f"{gate}: " + "; ".join(problems)


def data_file(name):
    base = os.environ.get("MOLCALIB_DATA_DIR", str(REPO_ROOT / "data"))
    return Path(base) / name


def require_datasets(announce, gate, names):
    paths = {name: data_file(name) for name in names}
    missing = [name for name, path in paths.items() if not path.exists()]
    if missing:
        where = data_file(missing[0]).parent
        msg = (f"{', '.join(missing)} not found under {where}; "
               "set MOLCALIB_DATA_DIR to enable this gate")
        announce(f"[ACCEPTANCE] {gate}: skip ({msg})")
        pytest.skip(msg)
    return paths


# -- gate 1: analytic gradients vs central differences ---------------


GRAD_DIMS = dict(num_layers=2, hidden_dim=4, graph_dim=4, input_dim=5)

GRAD_LOSSES = (
    LossConfig(kind="bce"),
    LossConfig(kind="label_smoothing", smoothing=0.1),
    LossConfig(kind="entropy_regularized", entropy_weight=0.1),
    LossConfig(kind="focal", focusing=2.0),
    LossConfig(kind="weighted_focal", focusing=2.0, positive_weight=0.25),
)


def random_graphs(rng, count, width):
    """`count` graphs of 3 to 6 nodes, each node pair bonded at 0.75."""
    return [random_graph(rng, int(rng.integers(3, 7)), width, p=0.75)
            for _ in range(count)]


def test_gradient_suite_every_layer_and_loss(announce):
    t0 = time.perf_counter()
    problems = []
    graph_rng = np.random.default_rng(11)
    checks = 0

    # architecture sweep under one loss: both embeddings x both readouts
    for embed in ("gcn", "gat"):
        for readout in ("sum", "attn"):
            for seed in (0, 1, 2):
                cfg = ModelConfig(node_embedding=embed, readout=readout,
                                  **GRAD_DIMS)
                graphs = random_graphs(graph_rng, 5, cfg.input_dim)
                targets = (np.arange(5) % 2).astype(np.float64)
                problems += [f"{embed}+{readout} seed {seed} {problem}"
                             for problem in gradient_mismatches(
                                 GnnModel(cfg, seed=seed), graphs, targets,
                                 GRAD_LOSSES[0])]
                checks += 1

    # loss sweep on one architecture
    for loss_cfg in GRAD_LOSSES:
        for seed in (3, 4, 5):
            cfg = ModelConfig(node_embedding="gcn", readout="sum",
                              **GRAD_DIMS)
            graphs = random_graphs(graph_rng, 5, cfg.input_dim)
            targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
            problems += [f"{loss_cfg.kind} seed {seed} {problem}"
                         for problem in gradient_mismatches(
                             GnnModel(cfg, seed=seed), graphs, targets,
                             loss_cfg)]
            checks += 1

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"over time budget: {elapsed:.1f}s >= 60s")
    verdict(announce, "1/8 gradients, every layer and loss", problems,
            f"{checks} sweeps of 5 graphs, rtol 1e-4, {elapsed:.1f}s")


# -- gate 2: loss identities and decomposition residuals -------------


def test_loss_identities_and_residuals(announce):
    rng = np.random.default_rng(21)
    problems = []
    worst = 0.0

    for trial in range(100):
        n = int(rng.integers(3, 41))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        z = logits_of(rng.uniform(1e-6, 1.0 - 1e-6, size=n))
        for name, gap in loss_identity_gaps(y, z):
            worst = max(worst, gap)
            if gap > 1e-12:
                problems.append(f"trial {trial}: {name} gap {gap:.2e}")

    # residuals: constant across predictions, with the known closed forms
    n, alpha, beta = 25, 0.3, 0.2
    y = rng.integers(0, 2, size=n).astype(np.float64)
    ls_vals, erl_vals = [], []
    for _ in range(30):
        z = logits_of(rng.uniform(1e-6, 1.0 - 1e-6, size=n))
        ls_vals.append(losses.ls_kl_residual(y, z, alpha))
        erl_vals.append(losses.erl_kl_residual(y, z, beta))
    if max(ls_vals) - min(ls_vals) > 1e-10:
        problems.append("smoothing residual varies with predictions")
    if max(erl_vals) - min(erl_vals) > 1e-10:
        problems.append("entropy residual varies with predictions")
    if abs(ls_vals[0] - alpha * n * math.log(2.0)) > 1e-10:
        problems.append("smoothing residual misses alpha*n*ln2")
    gap = max(abs(v + beta * n * math.log(2.0)) for v in erl_vals)
    if gap > 1e-10:
        problems.append(f"entropy residual misses -beta*n*ln2 by {gap:.2e}")

    verdict(announce, "2/8 loss identities and residuals", problems,
            f"100 batches, worst identity gap {worst:.1e}")


# -- gate 3: metrics vs brute-force oracles --------------------------


def oracle_confusion(recs):
    pairs = list(zip(recs[1], recs[2]))  # (y_pred, y_true)
    tp = sum(1 for pair in pairs if pair == (1, 1))
    fp = sum(1 for pair in pairs if pair == (1, 0))
    tn = sum(1 for pair in pairs if pair == (0, 0))
    fn = sum(1 for pair in pairs if pair == (0, 1))
    acc = (tp + tn) / len(pairs)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return acc, prec, rec, f1


def pinned_classes(recs, p_positive, p_negative):
    """Append a true positive and a true negative with the given scores."""
    p, y_pred, y_true = recs
    return (np.append(p, [p_positive, p_negative]),
            np.append(y_pred, [1, 0]), np.append(y_true, [1, 0]))


def test_metrics_match_independent_oracles(announce):
    rng = np.random.default_rng(31)
    problems = []
    tol = 1e-12

    for trial in range(1000):
        recs = random_records(rng, int(rng.integers(3, 50)))
        # pin one of each class so ranking metrics stay defined
        recs = pinned_classes(recs, rng.random(), rng.random())
        if trial % 2:
            recs = quantized(recs)  # tied scores, for ranks and stable sorts
        num_bins = int(rng.choice([5, 10, 20]))

        p, y_pred, y_true = recs
        problems += [f"trial {trial}: {what} mismatch" for what in
                     metric_oracle_mismatches(p, y_true, num_bins,
                                              DEFAULT_K_GRID)]
        cm = metrics.classification_metrics(y_pred, y_true)
        acc, prec, rec, f1 = oracle_confusion(recs)
        if (abs(cm.accuracy - acc) > tol or abs(cm.precision - prec) > tol
                or abs(cm.recall - rec) > tol or abs(cm.f1 - f1) > tol):
            problems.append(f"trial {trial}: confusion metrics mismatch")
        if problems:
            break

    # hand-built perfectly calibrated set: per-bin fraction of positives
    # == confidence
    calibrated = records([(tenth / 10.0, 1, int(i < tenth))
                          for tenth in range(5, 11) for i in range(10)])
    cal_ece = metrics.ece(calibrated[0], calibrated[2], 10)
    if not cal_ece < 1e-12:
        problems.append(f"calibrated construction has ece {cal_ece:.2e}")

    # screening the whole library must hand back the prevalence, exactly
    recs = pinned_classes(random_records(rng, 257), 0.9, 0.2)
    full = metrics.screening_curve(recs[0], recs[2], (100.0,))
    prevalence = sum(recs[2].tolist()) / len(recs[2])
    if full.success_rate.tolist() != [prevalence]:
        problems.append("success rate at the full library != prevalence")

    verdict(announce, "3/8 metrics vs brute-force oracles", problems,
            f"1000 record sets, tol {tol:.0e}, calibrated ece {cal_ece:.1e}")


# -- gate 4: model invariances ---------------------------------------


def test_model_invariances(announce):
    problems = []
    rng = np.random.default_rng(41)
    worst_perm = 0.0

    models = [
        GnnModel(ModelConfig(node_embedding="gcn", readout="attn",
                             **GRAD_DIMS), seed=1),
        GnnModel(ModelConfig(node_embedding="gat", readout="sum",
                             **GRAD_DIMS), seed=2),
    ]
    for trial in range(100):
        g = random_graph(rng, int(rng.integers(3, 9)), GRAD_DIMS["input_dim"],
                         p=0.75)
        worst_perm = max(worst_perm, permutation_gap(models[trial % 2], g,
                                                     rng))
    if worst_perm > 1e-12:
        problems.append(f"permutation gap {worst_perm:.2e}")

    # dropout at rate zero must be the identity, so a train-mode forward
    # and MC inference reproduce deterministic scoring bitwise
    g = random_graph(rng, 6, GRAD_DIMS["input_dim"], p=0.75)
    mc_gap, train_gap = rate_zero_gaps(models[0], [g],
                                       np.random.default_rng(7))
    if train_gap != 0.0:
        problems.append("train-mode forward at rate 0 differs")
    if mc_gap != 0.0:
        problems.append("sampled inference at rate 0 differs")

    # complete graphs of identical nodes: the pre-sigmoid attention
    # readout scales with the node count, so 4 nodes vs 3 gives 4/3
    for seed in (0, 1, 2):
        w = np.random.default_rng(seed).standard_normal((6, 5))
        if not size_ratio_gap(np.full(6, 0.37), w) <= 1e-12:
            problems.append(f"attention size ratio off for seed {seed}")

    verdict(announce, "4/8 model invariances", problems,
            f"100 permuted graphs, worst gap {worst_perm:.1e}; "
            "rate-0 sampling exact; size ratio 4/3")


# -- gates 5-7: public benchmark CSVs --------------------------------

CORPUS = {
    "bace.csv": ("mol", 1513, 0.99),
    "BBBP.csv": ("smiles", 2050, 0.99),
    "HIV.csv": ("smiles", 41127, 0.97),
}


def scan_corpus(path, column):
    """Count data rows and how many carry a parseable SMILES."""
    rows = parsed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows += 1
            try:
                parse_smiles(row[column])
                parsed += 1
            except SmilesError:
                pass
    return rows, parsed


def test_public_corpus_parse_rates(announce):
    gate = "5/8 corpus parse rates and row counts"
    paths = require_datasets(announce, gate, CORPUS)
    problems = []
    details = []
    for name, (column, expected_rows, min_rate) in CORPUS.items():
        rows, parsed = scan_corpus(paths[name], column)
        rate = parsed / rows if rows else 0.0
        details.append(f"{name} {100 * rate:.2f}% of {rows}")
        if rows != expected_rows:
            problems.append(f"{name}: {rows} rows, expected {expected_rows}")
        if rate < min_rate:
            problems.append(f"{name}: parse rate {rate:.4f} < {min_rate}")
    verdict(announce, gate, problems, ", ".join(details))


def test_bace_training_smoke(announce, tmp_path):
    gate = "6/8 bace training smoke"
    paths = require_datasets(announce, gate, ["bace.csv"])
    raw = load_raw(str(REPO_ROOT / "configs" / "bace.yaml"))
    raw["dataset"]["path"] = str(paths["bace.csv"])
    config = resolve_config(raw)
    problems = []

    t0 = time.perf_counter()
    result = train_run(config, seed=config.training.seeds[0],
                       out_dir=str(tmp_path / "bace-smoke"))
    elapsed = time.perf_counter() - t0

    acc = result.report.metrics.accuracy
    roc = result.report.auroc
    if acc < 0.70:
        problems.append(f"accuracy {acc:.3f} < 0.70")
    if not result.report.auroc_defined or roc < 0.80:
        problems.append(f"auroc {roc:.3f} < 0.80")
    if elapsed >= 1800.0:
        problems.append(f"runtime {elapsed:.0f}s >= 1800s")
    verdict(announce, gate, problems,
            f"accuracy {acc:.3f}, auroc {roc:.3f}, {elapsed:.0f}s")


def test_directional_findings_report(announce, tmp_path):
    # informational gate: the comparisons must be produced; the direction
    # of the numbers is reported, not asserted
    gate = "7/8 directional findings report"
    paths = require_datasets(announce, gate, ["bace.csv"])
    raw = load_raw(str(REPO_ROOT / "configs" / "bace.yaml"))
    raw["dataset"]["path"] = str(paths["bace.csv"])
    # shortened schedule keeps this informational gate affordable
    raw["training"]["epochs"] = 40
    raw["schedule"]["decay_epochs"] = [20, 35]
    config = resolve_config(raw)
    problems = []

    reg = run_ablation(config, "regularizers",
                       out_dir=str(tmp_path / "regularizers"))
    ece_lines = {row["variant"]: row for row in reg["comparison"]}
    for variant in ("baseline", "mc_dropout"):
        if variant not in ece_lines:
            problems.append(f"comparison table lacks {variant}")
    if not (tmp_path / "regularizers" / "reports"
            / "comparison_regularizers.csv").exists():
        problems.append("regularizer comparison csv missing")

    focal = run_ablation(config, "focal_grid",
                         out_dir=str(tmp_path / "focal"))
    if len(focal["comparison"]) != 8:
        problems.append("focal grid comparison incomplete")
    if not (tmp_path / "focal" / "reports"
            / "comparison_focal_grid.csv").exists():
        problems.append("focal comparison csv missing")

    detail = "tables emitted"
    if not problems:
        delta = ece_lines["mc_dropout"]["ece_delta_vs_baseline"]
        recalls = [row["mean_recall"] for row in focal["comparison"]]
        detail = (f"mc-dropout ece delta {delta:+.4f}, focal recall span "
                  f"{min(recalls):.3f}..{max(recalls):.3f}, 5 seeds")
    verdict(announce, gate, problems, detail)


# -- gate 8: bit-identical reruns ------------------------------------


def test_bit_identical_reruns(announce, toy_raw_config, tmp_path):
    problems = []
    config = resolve_config(toy_raw_config)
    for out in ("first", "second"):
        train_run(config, seed=config.training.seeds[0],
                  out_dir=str(tmp_path / out))

    manifests = []
    for out in ("first", "second"):
        with open(tmp_path / out / "manifest.json", encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    first, second = ({k: v for k, v in m.items() if k != "timing"}
                     for m in manifests)
    if first["fingerprint"] != second["fingerprint"]:
        problems.append("fingerprints differ between reruns")
    if first != second:
        diff = [k for k in first if first.get(k) != second.get(k)]
        problems.append(f"manifest fields differ: {diff}")

    verdict(announce, "8/8 bit-identical reruns", problems,
            f"fingerprint {first['fingerprint'][:12]}... twice")


# -- dry runs for the data-gated code paths --------------------------
#
# Gates 5-7 usually skip on machines without the benchmark CSVs, so the
# plumbing they rely on is exercised here against synthetic stand-ins:
# the corpus scanner, the shipped YAML configs, and the config patching
# those gates perform.


class TestGateHarness:
    def test_corpus_scanner_counts_bad_rows(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("mol,Class\nCCO,1\nnot_a_smiles((,0\nc1ccccc1,1\n")
        rows, parsed = scan_corpus(path, "mol")
        assert (rows, parsed) == (3, 2)

    @pytest.mark.parametrize("name", ["bace", "bbbp", "hiv", "bace_pic50"])
    def test_shipped_configs_resolve(self, name):
        config = resolve_config(load_raw(str(
            REPO_ROOT / "configs" / f"{name}.yaml")))
        assert config.training.epochs > 0
        assert len(config.training.seeds) >= 1

    def test_smoke_gate_patching_trains_on_stand_in(self, tmp_path,
                                                     toy_csv):
        # same load/patch/train wiring as the bace smoke gate, with the
        # dataset swapped for the planted-rule toy and tiny dimensions
        raw = load_raw(str(REPO_ROOT / "configs" / "bace.yaml"))
        raw["dataset"]["path"] = str(toy_csv)
        raw["dataset"]["smiles_column"] = "smiles"
        raw["dataset"]["label_column"] = "label"
        raw["model"].update(num_layers=2, hidden_dim=6, graph_dim=4)
        raw["training"].update(epochs=2, batch_size=8, seeds=[0])
        raw["schedule"]["decay_epochs"] = [1]
        config = resolve_config(raw)
        result = train_run(config, seed=config.training.seeds[0],
                           out_dir=str(tmp_path / "run"))
        assert (tmp_path / "run" / "manifest.json").exists()
        assert result.report.num_records > 0
