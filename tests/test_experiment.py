"""End-to-end runs on the synthetic dataset: training, manifests,
reproducibility, ablation sweeps, screening output, and the CLI surface."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from molcalib import autodiff as ad, cli, runner, selftest
from molcalib.config import (EvaluationSettings, manifest_fingerprint,
                             resolve_config)
from molcalib.data import load_dataset, split_dataset
from molcalib.errors import NumericalError
from molcalib.model import GnnModel, ModelConfig, pack_graphs, save_checkpoint
from molcalib.runner import (
    ablation_variants,
    evaluate_model,
    run_ablation,
    screen_library,
    train_run,
)


def small_config(raw, **training_overrides):
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    raw["training"].update(training_overrides)
    return resolve_config(raw)


class TestTrainRun:
    def test_manifest_structure(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config)
        out = tmp_path / "run"
        result = train_run(config, seed=0, out_dir=str(out))
        man = result.manifest
        assert man["format_version"] == 1
        assert man["seed"] == 0
        assert man["config"]["training"]["epochs"] == 3
        assert man["config"]["loss"]["l2_coefficient"] == pytest.approx(1e-4)
        assert len(man["epoch_losses"]) == 3
        assert man["split"] == {"train_size": 32, "test_size": 8}
        assert man["data"]["ingested"] == 40
        assert 0.0 <= man["evaluation"]["ece"] <= 1.0
        assert "fingerprint" in man
        assert man["timing"]["train_seconds"] > 0

    def test_artifacts_written(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config)
        out = tmp_path / "run"
        train_run(config, seed=0, out_dir=str(out))
        assert (out / "manifest.json").exists()
        assert (out / "checkpoint.json").exists()
        for name in ("calibration_curve", "entropy_histogram",
                     "output_histogram", "outcome_histograms",
                     "screening_curve", "metrics", "epoch_loss",
                     "predictions"):
            assert (out / "reports" / f"{name}.csv").exists(), name

    def test_loss_decreases_on_planted_rule(self, toy_raw_config):
        raw = dict(toy_raw_config, schedule={"decay_epochs": [100]})
        config = small_config(raw, epochs=15)
        result = train_run(config, seed=0)
        losses = result.manifest["epoch_losses"]
        assert losses[-1] < losses[0] * 0.8

    def test_calibration_csv_matches_report(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config)
        out = tmp_path / "run"
        result = train_run(config, seed=0, out_dir=str(out))
        with open(out / "reports" / "calibration_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        bins = result.report.bins
        assert [int(row["count"]) for row in rows] == bins.counts.tolist()
        assert [int(row["defined"]) for row in rows] == \
            bins.defined.astype(int).tolist()
        # written with repr, so the text reads back bit for bit
        assert [float(row["confidence"]) for row in rows] == \
            bins.confidence.tolist()
        mid = 0.5 * (bins.edges[:-1] + bins.edges[1:])
        assert [float(row["midpoint"]) for row in rows] == mid.tolist()

    def test_divergence_reports_epoch(self, toy_raw_config, tmp_path):
        raw = dict(toy_raw_config, optimizer={"learning_rate": 1e200})
        config = small_config(raw, epochs=5)
        out = tmp_path / "boom"
        with pytest.raises(NumericalError, match="epoch"):
            train_run(config, seed=0, out_dir=str(out))
        man = json.loads((out / "manifest.json").read_text())
        assert "failed_epoch" in man


class TestReproducibility:
    def test_same_seed_bit_identical(self, toy_raw_config):
        config = small_config(toy_raw_config)
        a = train_run(config, seed=0).manifest
        b = train_run(config, seed=0).manifest
        assert a["fingerprint"] == b["fingerprint"]
        assert a["epoch_losses"] == b["epoch_losses"]
        assert a["evaluation"] == b["evaluation"]

    def test_different_seed_differs(self, toy_raw_config):
        config = small_config(toy_raw_config)
        a = train_run(config, seed=0).manifest
        b = train_run(config, seed=1).manifest
        assert a["fingerprint"] != b["fingerprint"]

    def test_fingerprint_stable_across_json_roundtrip(self, toy_raw_config,
                                                      tmp_path):
        config = small_config(toy_raw_config)
        out = tmp_path / "run"
        result = train_run(config, seed=0, out_dir=str(out))
        reloaded = json.loads((out / "manifest.json").read_text())
        stored = reloaded.pop("fingerprint")
        reloaded.pop("timing")
        assert stored == result.manifest["fingerprint"]
        assert manifest_fingerprint(reloaded) == stored


    def test_single_class_warning_leaves_the_manifest_alone(
            self, toy_raw_config):
        config = small_config(toy_raw_config, epochs=1)
        graphs, report = load_dataset(config.dataset)
        _, test = split_dataset(graphs, config.training.split_ratio, 0)
        held_out = {id(g) for g in test}
        graphs = [replace(g, label=1) if id(g) in held_out else g
                  for g in graphs]
        lines = []
        logged = train_run(config, seed=0, graphs=graphs,
                           data_report=report, log=lines.append).manifest
        quiet = train_run(config, seed=0, graphs=graphs,
                          data_report=report).manifest
        assert lines[0] == (f"warning: all {len(test)} test molecules are "
                            f"class 1; AUROC will be undefined")
        assert logged["fingerprint"] == quiet["fingerprint"]


def planted_model(config, case, seed=0):
    """A model whose forward overflows just before an op that would map
    the overflow back to a finite value."""
    model = GnnModel(config, seed=seed)
    p = model.params
    if case == "sigmoid":  # the classifier logit overflows to +inf
        p["w_clf"].data = np.full_like(p["w_clf"].data, 1e308)
    else:  # relu: non-negative features times -1e308 weights give -inf
        p["w_in"].data = np.abs(p["w_in"].data)
        p["w_conv_0"].data = np.full_like(p["w_conv_0"].data, -1e308)
    return model


PLANTED = [("gcn", "sigmoid"), ("gat", "sigmoid"), ("gcn", "relu")]


def planted_op(embed, case, dtype):
    """The op that reports a planted model's overflow: a float32 forward
    casts the 1e308 weights to inf, a float64 one overflows in the
    product of the planted layer."""
    if dtype == np.float32:
        return "cast"
    return "gcn_conv" if case == "relu" else "matmul"


def per_op_checks(monkeypatch):
    """Run every checked forward as a plain one, each op checking its
    result."""
    monkeypatch.setattr(ad, "checked_forward", lambda compute: compute())


class TestDeferredChecks:
    """Scoring and training check finiteness once per forward; these pin
    their results and errors to those of per-op checking."""

    @pytest.mark.parametrize("embed, case", PLANTED)
    @pytest.mark.parametrize("mode", ["deterministic", "mc_dropout"])
    def test_planted_overflow_raises_in_scoring(self, toy_raw_config, embed,
                                                case, mode):
        config = small_config(toy_raw_config)
        model = planted_model(replace(config.model, node_embedding=embed,
                                      dropout_rate=0.2), case)
        graphs, _ = load_dataset(config.dataset)
        with pytest.raises(NumericalError) as err:
            runner.predict_probabilities(model, graphs, mode, 5, 0, 8)
        # MC dropout scores in float32, deterministic scoring in float64
        dtype = np.float32 if mode == "mc_dropout" else np.float64
        assert str(err.value) == \
            f"non-finite values produced by {planted_op(embed, case, dtype)}"

    @pytest.mark.parametrize("embed, case", PLANTED)
    def test_planted_overflow_raises_in_training(self, toy_raw_config,
                                                 tmp_path, monkeypatch,
                                                 embed, case):
        model = dict(toy_raw_config["model"], node_embedding=embed,
                     dropout_rate=0.1)
        config = small_config(dict(toy_raw_config, model=model))
        monkeypatch.setattr(runner, "GnnModel",
                            lambda cfg, seed: planted_model(cfg, case, seed))
        with pytest.raises(NumericalError) as err:
            train_run(config, seed=0, out_dir=str(tmp_path))
        op = planted_op(embed, case, np.float32)  # training is float32
        assert str(err.value) == f"epoch 0: non-finite values produced by {op}"
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["failed_epoch"] == 0

    # training casts float64 weights to float32: at this rate a cast
    # weight overflows to inf, and the per-op pass, which numpy's
    # errstate does not cover, warns of the 0 * inf in the next product
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered in dot:RuntimeWarning")
    def test_divergence_fails_where_per_op_checks_fail(self, toy_raw_config,
                                                       tmp_path, monkeypatch):
        raw = dict(toy_raw_config, optimizer={"learning_rate": 1e200})
        config = small_config(raw, epochs=5)
        failures = []
        for side in ("deferred", "per-op"):
            if side == "per-op":
                per_op_checks(monkeypatch)
            with pytest.raises(NumericalError) as err:
                train_run(config, seed=0, out_dir=str(tmp_path / side))
            man = json.loads((tmp_path / side / "manifest.json").read_text())
            failures.append((str(err.value), man["failed_epoch"],
                             man["epoch_losses"]))
        assert failures[0] == failures[1]

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_results_match_per_op_checks(self, toy_raw_config, monkeypatch,
                                         embed, readout):
        model = dict(toy_raw_config["model"], node_embedding=embed,
                     readout=readout, dropout_rate=0.2)
        config = small_config(dict(toy_raw_config, model=model))
        graphs, _ = load_dataset(config.dataset)

        def run():
            scorer = GnnModel(config.model, seed=4)
            scores = [runner.predict_probabilities(scorer, graphs, mode, 5, 7,
                                                   8)
                      for mode in ("deterministic", "mc_dropout")]
            trained = train_run(config, seed=0)
            return scores + [trained.manifest["epoch_losses"],
                             trained.test_probs]

        deferred = run()
        check = ad._check_finite

        def failing_result_check(arr, op):
            if op == "the checked forward":
                raise NumericalError(op)
            check(arr, op)

        # every pass fails its one check, so each chunk and batch is
        # replayed, and must draw the same dropout masks again
        monkeypatch.setattr(ad, "_check_finite", failing_result_check)
        replayed = run()
        monkeypatch.undo()
        per_op_checks(monkeypatch)
        for a, b, c in zip(deferred, replayed, run()):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    def test_forward_checks_only_inputs_of_absorbing_ops(
            self, toy_raw_config, monkeypatch, embed):
        config = small_config(toy_raw_config)
        model = GnnModel(replace(config.model, node_embedding=embed,
                                 num_layers=3), seed=0)
        batch = pack_graphs(load_dataset(config.dataset)[0])
        seen = []
        check = ad._check_finite

        def counting(arr, op):
            seen.append(op)
            check(arr, op)

        monkeypatch.setattr(ad, "_check_finite", counting)
        with ad.no_grad():
            ad.checked_forward(lambda: model.forward(batch))
        # a GCN layer checks its pre-activation, a GAT layer its scores
        # and the input of its relu; the readout checks its scores and
        # the input of its sigmoid
        layer = ["gcn_conv", "attention_pool", "sigmoid"]
        if embed == "gat":
            layer[:1] = ["neighbor_attention", "relu"]
        assert seen == layer * 3 + ["the checked forward"]


class TestInferenceModes:
    def test_mc_dropout_differs_from_deterministic(self, toy_raw_config):
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], dropout_rate=0.3),
                   inference={"mode": "mc_dropout", "mc_samples": 5})
        config = small_config(raw)
        result = train_run(config, seed=0)
        graphs = result.test_graphs
        det = runner.predict_probabilities(result.model, graphs,
                                           "deterministic", 1, 0, len(graphs))
        assert not np.allclose(det, result.test_probs)

    def test_mc_scores_do_not_depend_on_order(self, toy_raw_config):
        # one molecule per forward, or all of them in one forward: each
        # molecule keeps its (seed, index) stream, so only float
        # reassociation in the packed forward moves its score
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], dropout_rate=0.3),
                   inference={"mode": "mc_dropout", "mc_samples": 4})
        result = train_run(small_config(raw), seed=0)
        probs = {}
        for batch_size in (1, 32):
            config = small_config(raw, batch_size=batch_size)
            _, probs[batch_size] = evaluate_model(
                result.model, result.test_graphs, config, seed=0)
        np.testing.assert_allclose(probs[1], probs[32], rtol=0, atol=1e-15)
        assert not np.array_equal(probs[1], runner.predict_probabilities(
            result.model, result.test_graphs, "deterministic", 1, 0,
            len(result.test_graphs)))

    def test_evaluate_thresholds_strictly(self, toy_raw_config,
                                          monkeypatch):
        monkeypatch.setattr(runner, "predict_probabilities",
                            lambda *args: np.array([0.4, 0.5, 0.6]))
        graphs = [SimpleNamespace(label=y) for y in (0, 1, 1)]
        report, _ = evaluate_model(None, graphs,
                                   small_config(toy_raw_config), seed=0)
        m = report.metrics  # 0.5 at threshold 0.5 is a negative call
        assert (m.tp, m.fp, m.tn, m.fn) == (1, 0, 1, 1)


class TestAblation:
    def test_variant_counts(self, toy_raw_config):
        config = small_config(toy_raw_config)
        assert len(ablation_variants(config, "architectures")) == 4
        assert len(ablation_variants(config, "regularizers")) == 5
        assert len(ablation_variants(config, "focal_grid")) == 8
        with pytest.raises(ValueError):
            ablation_variants(config, "widths")

    def test_regularizer_variants_recouple_decay(self, toy_raw_config):
        config = small_config(toy_raw_config)
        variants = dict(ablation_variants(config, "regularizers"))
        assert variants["baseline"].loss.l2_coefficient \
            == pytest.approx(1e-4)
        assert variants["dropout"].model.dropout_rate == 0.2
        assert variants["dropout"].loss.l2_coefficient \
            == pytest.approx(8e-5)
        assert variants["mc_dropout"].inference.mode == "mc_dropout"
        assert variants["label_smoothing"].loss.smoothing == 0.1
        assert variants["entropy_regularized"].loss.entropy_weight == 0.1

    # the settings each axis's variants differ in, in config order
    AXIS_SETTINGS = {
        "architectures": ["node_embedding", "readout"],
        "regularizers": ["dropout_rate", "kind", "smoothing",
                         "entropy_weight", "l2_coefficient", "mode"],
        "focal_grid": ["focusing", "positive_weight"],
    }

    @pytest.mark.parametrize("axis", runner.ABLATION_AXES)
    def test_comparison_table(self, toy_raw_config, tmp_path, axis):
        config = small_config(toy_raw_config, epochs=1, seeds=[0, 1])
        result = run_ablation(config, axis, out_dir=str(tmp_path))
        table, fields = result["comparison"], runner.SUMMARY_FIELDS
        assert [row["variant"] for row in table] \
            == [name for name, _ in ablation_variants(config, axis)]
        assert list(table[0]) == [
            "variant", *self.AXIS_SETTINGS[axis], "seeds",
            *(f"mean_{f}" for f in fields),
            *(f"{f}_delta_vs_baseline" for f in fields)]
        assert len(result["raw"]) == 2 * len(table)
        for row in table:
            raw = [r for r in result["raw"] if r["variant"] == row["variant"]]
            assert row["seeds"] == len(raw) == 2
            for field in ("accuracy", "ece", "recall"):
                mean = sum(r[field] for r in raw) / len(raw)
                assert row[f"mean_{field}"] == pytest.approx(mean, abs=1e-12)
            for field in fields:
                assert row[f"{field}_delta_vs_baseline"] \
                    == row[f"mean_{field}"] - table[0][f"mean_{field}"]
        assert all(table[0][f"{f}_delta_vs_baseline"] == 0.0 for f in fields)
        reports = tmp_path / "reports"
        with open(reports / f"comparison_{axis}.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [list(table[0])] + [
                ["" if v is None else str(v) for v in row.values()]
                for row in table]
        with open(reports / "ablation_raw.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [list(result["raw"][0])] + [
                [str(v) for v in row.values()] for row in result["raw"]]
        assert sorted(os.listdir(reports)) \
            == ["ablation_raw.csv", f"comparison_{axis}.csv"]

    def test_regularizer_comparison_has_baseline_delta(self, toy_raw_config,
                                                       tmp_path):
        config = small_config(toy_raw_config, epochs=1, seeds=[0])
        result = run_ablation(config, "regularizers",
                              out_dir=str(tmp_path))
        table = {r["variant"]: r for r in result["comparison"]}
        assert table["baseline"]["ece_delta_vs_baseline"] == 0.0
        assert (tmp_path / "reports"
                / "comparison_regularizers.csv").exists()

    def test_focal_comparison_lists_grid(self, toy_raw_config):
        config = small_config(toy_raw_config, epochs=1, seeds=[0])
        result = run_ablation(config, "focal_grid")
        weights = {r["positive_weight"] for r in result["comparison"]}
        focusings = {r["focusing"] for r in result["comparison"]}
        assert weights == {0.1, 0.25, 0.5, 0.75}
        assert focusings == {1.0, 2.0}


class TestScreening:
    def test_ranked_predictions_descend(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config)
        result = train_run(config, seed=0)
        out = tmp_path / "screen"
        screen_library(result.model, config, out_dir=str(out))
        with open(out / "reports" / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        probs = [float(r["p_hat"]) for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert [int(r["rank"]) for r in rows] == list(range(1, 41))
        assert rows[0]["smiles"]
        assert all(int(r["y_pred"]) == (float(r["p_hat"]) > 0.5)
                   for r in rows)

    def test_screen_report_covers_k_grid(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config)
        result = train_run(config, seed=0)
        out = tmp_path / "screen"
        summary = screen_library(result.model, config, out_dir=str(out))
        curve = summary["evaluation"]["screening"]
        assert [p["k_percent"] for p in curve] == [1, 2, 5, 10, 20, 50, 100]
        assert curve[-1]["success_rate"] == pytest.approx(0.5)


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        return path

    def test_train_writes_artifacts(self, toy_raw_config, tmp_path, capsys):
        cfg = self.write_config(tmp_path, toy_raw_config)
        out = tmp_path / "runs"
        code = cli.main(["train", "--config", str(cfg),
                         "--out-dir", str(out)])
        assert code == 0
        assert (out / "seed-0" / "manifest.json").exists()
        shown = capsys.readouterr().out
        assert "accuracy" in shown and "seed 0" in shown

    def test_train_seed_override(self, toy_raw_config, tmp_path):
        cfg = self.write_config(tmp_path, toy_raw_config)
        out = tmp_path / "runs"
        code = cli.main(["train", "--config", str(cfg), "--seed", "3",
                         "--out-dir", str(out)])
        assert code == 0
        assert (out / "seed-3").exists()
        assert not (out / "seed-0").exists()

    def test_evaluate_roundtrip(self, toy_raw_config, tmp_path, capsys):
        cfg = self.write_config(tmp_path, toy_raw_config)
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
        capsys.readouterr()
        code = cli.main(["evaluate", "--config", str(cfg),
                         "--checkpoint",
                         str(out / "seed-0" / "checkpoint.json"),
                         "--out-dir", str(tmp_path / "eval")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        assert (tmp_path / "eval" / "reports" / "metrics.csv").exists()

    def test_evaluate_respects_bin_override(self, toy_raw_config, tmp_path,
                                            capsys):
        cfg = self.write_config(tmp_path, toy_raw_config)
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg), "--seed", "0",
                         "--out-dir", str(out)]) == 0
        assert cli.main(["evaluate", "--config", str(cfg),
                         "--checkpoint",
                         str(out / "seed-0" / "checkpoint.json"),
                         "--bins", "5",
                         "--out-dir", str(tmp_path / "eval")]) == 0
        with open(tmp_path / "eval" / "reports"
                  / "calibration_curve.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 5

    @pytest.mark.parametrize("command, out_dir", [
        ("train", "afile/sub"), ("evaluate", "afile"), ("screen", "afile"),
        ("ablate", "afile")])
    def test_out_dir_that_cannot_be_a_directory_is_data_error(
            self, toy_raw_config, tmp_path, capsys, command, out_dir):
        (tmp_path / "afile").write_text("a regular file\n")
        cfg = self.write_config(tmp_path, toy_raw_config)
        checkpoint = ["--checkpoint",
                      str(self.write_checkpoint(tmp_path, lambda p: None))]
        extra = {"train": [], "evaluate": checkpoint, "screen": checkpoint,
                 "ablate": ["--axis", "architectures"]}[command]
        code = cli.main([command, "--config", str(cfg),
                         "--out-dir", str(tmp_path / out_dir), *extra])
        captured = capsys.readouterr()
        assert code == 2  # an escaping OSError would fail the test
        assert captured.err.startswith(
            "data error: cannot create output directory")
        assert captured.out == ""  # refused before any data is loaded

    def write_checkpoint(self, tmp_path, edit):
        path = tmp_path / "checkpoint.json"
        cfg = ModelConfig(num_layers=2, hidden_dim=8, graph_dim=6)
        save_checkpoint(GnnModel(cfg), str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def evaluate(self, config, checkpoint):
        return cli.main(["evaluate", "--config", str(config),
                         "--checkpoint", str(checkpoint)])

    def test_evaluate_loads_legacy_checkpoint(self, toy_raw_config,
                                              tmp_path):
        # older checkpoints keep the MC sample count in the model config
        ck = self.write_checkpoint(
            tmp_path, lambda p: p["config"].update(mc_samples=30))
        cfg = self.write_config(tmp_path, toy_raw_config)
        assert self.evaluate(cfg, ck) == 0

    def test_checkpoint_unknown_config_key_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        ck = self.write_checkpoint(
            tmp_path, lambda p: p["config"].update(depth=3))
        cfg = self.write_config(tmp_path, toy_raw_config)
        assert self.evaluate(cfg, ck) == 2
        assert "checkpoint config is invalid" in capsys.readouterr().err

    def test_checkpoint_non_numeric_parameter_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        ck = self.write_checkpoint(
            tmp_path, lambda p: p["params"].update(b_clf="zero"))
        cfg = self.write_config(tmp_path, toy_raw_config)
        assert self.evaluate(cfg, ck) == 2
        assert "'b_clf' is not numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_checkpoint_non_finite_parameter_is_data_error(
            self, toy_raw_config, tmp_path, capsys, value):
        ck = self.write_checkpoint(
            tmp_path, lambda p: p["params"].update(b_clf=value))
        assert "Infinity" in ck.read_text() or "NaN" in ck.read_text()
        cfg = self.write_config(tmp_path, toy_raw_config)
        assert self.evaluate(cfg, ck) == 2
        assert "'b_clf' is not finite" in capsys.readouterr().err

    def test_scoring_overflow_is_numerical_error(self, toy_raw_config,
                                                 tmp_path, capsys):
        ck = self.write_checkpoint(
            tmp_path, lambda p: p["params"].update(
                w_clf=[1e308] * len(p["params"]["w_clf"])))
        cfg = self.write_config(tmp_path, toy_raw_config)
        assert self.evaluate(cfg, ck) == 3
        assert cli.main(["screen", "--config", str(cfg),
                         "--checkpoint", str(ck)]) == 3
        err = capsys.readouterr().err
        assert err.count("non-finite values produced by matmul") == 2

    def test_float32_overflow_fails_only_in_mc_mode(self, toy_raw_config,
                                                    tmp_path, capsys):
        # 1e39 is a finite float64 beyond float32's range: deterministic
        # scoring runs in float64, MC dropout scoring in float32
        def edit(payload):
            payload["config"]["dropout_rate"] = 0.2
            payload["params"]["w_clf"] = [1e39] * len(
                payload["params"]["w_clf"])

        ck = self.write_checkpoint(tmp_path, edit)
        raw = dict(toy_raw_config, model=dict(toy_raw_config["model"],
                                              dropout_rate=0.2))
        assert self.evaluate(self.write_config(tmp_path, raw), ck) == 0
        cfg = self.write_config(tmp_path, dict(
            raw, inference={"mode": "mc_dropout", "mc_samples": 4}))
        assert self.evaluate(cfg, ck) == 3
        assert "non-finite values produced by cast" in \
            capsys.readouterr().err

    def test_checkpoint_of_wrong_width_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        path = tmp_path / "narrow.json"
        cfg = ModelConfig(num_layers=2, hidden_dim=4, graph_dim=3,
                          input_dim=7)
        save_checkpoint(GnnModel(cfg), str(path))
        config = self.write_config(tmp_path, toy_raw_config)
        for command in ("evaluate", "screen"):
            code = cli.main([command, "--config", str(config),
                             "--checkpoint", str(path)])
            captured = capsys.readouterr()
            assert code == 2  # an escaping exception would fail the test
            assert "input_dim is 7" in captured.err
            assert captured.out == ""  # refused before scoring

    def test_checkpoint_with_other_model_settings_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        # a rate-0 checkpoint under a dropout YAML would make MC dropout
        # return the deterministic score without a word
        ck = self.write_checkpoint(tmp_path, lambda p: None)
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], dropout_rate=0.2,
                              readout="sum"))
        config = self.write_config(tmp_path, raw)
        for command in ("evaluate", "screen"):
            code = cli.main([command, "--config", str(config),
                             "--checkpoint", str(ck)])
            captured = capsys.readouterr()
            assert code == 2
            assert "model.dropout_rate is 0.0 in the checkpoint, 0.2 in " \
                "the config" in captured.err
            assert "model.readout is 'attn' in the checkpoint, 'sum' in " \
                "the config" in captured.err
            assert "num_layers" not in captured.err
            assert captured.out == ""  # refused before scoring

    @pytest.mark.parametrize("ratio", [0.1, 1.0])
    def test_split_leaving_an_empty_side_is_data_error(self, tmp_path,
                                                       capsys, ratio):
        data = tmp_path / "five.csv"
        data.write_text("smiles,label\nCCN,1\nCC,0\nCN,1\nCCO,0\nNCC,1\n")
        raw = {
            "dataset": {"name": "five", "path": str(data),
                        "smiles_column": "smiles",
                        "label_column": "label"},
            "model": {"num_layers": 1, "hidden_dim": 4, "graph_dim": 3},
            "training": {"epochs": 2, "batch_size": 2, "seeds": [0],
                         "split_ratio": ratio},
        }
        code = cli.main(["train", "--config",
                         str(self.write_config(tmp_path, raw))])
        captured = capsys.readouterr()
        assert code == 2  # an escaping exception would fail the test
        assert "split_ratio" in captured.err
        assert "epoch" not in captured.out

    def test_evaluate_split_leaving_no_test_molecules_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        ck = self.write_checkpoint(tmp_path, lambda p: None)
        raw = dict(toy_raw_config,
                   training=dict(toy_raw_config["training"], split_ratio=1.0))
        assert self.evaluate(self.write_config(tmp_path, raw), ck) == 2
        assert capsys.readouterr().err == (
            "data error: split_ratio 1.0 on 40 molecules leaves 40 for "
            "training and 0 for testing; both need at least one\n")

    @pytest.mark.parametrize("seeds, argv", [
        ([-1], ["train"]),
        ([0], ["train", "--seed", "-3"]),
        ([0], ["evaluate", "--seed", "-2", "--checkpoint", "absent.json"]),
    ], ids=["config", "train-flag", "evaluate-flag"])
    def test_negative_seed_is_config_error(self, toy_raw_config, tmp_path,
                                           capsys, seeds, argv):
        # an absent dataset shows that the seed is refused before ingestion
        raw = dict(toy_raw_config,
                   dataset=dict(toy_raw_config["dataset"],
                                path=str(tmp_path / "absent.csv")),
                   training=dict(toy_raw_config["training"], seeds=seeds))
        code = cli.main(argv + ["--config",
                                str(self.write_config(tmp_path, raw))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("config error: seed -")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("section, key, value", [
        ("optimizer", "learning_rate", float("nan")),
        ("optimizer", "learning_rate", float("inf")),
        ("loss", "l2_coefficient", float("nan")),
        ("loss", "l2_coefficient", float("inf")),
        ("optimizer", "eps", float("nan")),
        ("loss", "entropy_weight", float("nan")),
        ("loss", "focusing", float("nan")),
        ("dataset", "pic50_threshold", float("nan")),
    ])
    def test_non_finite_float_is_config_error(self, toy_raw_config, tmp_path,
                                              capsys, section, key, value):
        raw = dict(toy_raw_config)
        raw[section] = dict(raw.get(section, {}), **{key: value})
        cfg = self.write_config(tmp_path, raw)
        assert (".nan" if math.isnan(value) else ".inf") in cfg.read_text()
        assert cli.main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {section}.{key} must be "
                                f"finite, got {value}\n")

    def test_int_beyond_float_range_is_config_error(self, toy_raw_config,
                                                    tmp_path, capsys):
        raw = dict(toy_raw_config, optimizer={"learning_rate": 10 ** 400})
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: optimizer.learning_rate must "
                                "be finite, got an int beyond float range\n")

    def test_foreign_input_width_is_config_error(self, toy_raw_config,
                                                 tmp_path, capsys):
        # the featurizer's rows would not fit the input projection
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], input_dim=10))
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: model.input_dim is 10, but "
                                "the featurizer gives 58 node features\n")

    UNREADABLE_CSVS = {
        "not-utf8": (b"smiles,label\nCCO,1\n\xff\xfeC,0\n",
                     "codec can't decode"),
        "field-over-limit": (b'smiles,label\n"' + b"C" * (129 * 1024)
                             + b'",1\nCCO,0\n',
                             "field larger than field limit"),
    }

    @pytest.mark.parametrize("command", ["train", "parse-check"])
    @pytest.mark.parametrize("case", sorted(UNREADABLE_CSVS))
    def test_unreadable_dataset_is_data_error(self, toy_raw_config,
                                              tmp_path, capsys, command,
                                              case):
        content, message = self.UNREADABLE_CSVS[case]
        data = tmp_path / "mols.csv"
        data.write_bytes(content)
        if command == "train":
            raw = dict(toy_raw_config,
                       dataset=dict(toy_raw_config["dataset"],
                                    path=str(data)))
            argv = ["train", "--config", str(self.write_config(tmp_path,
                                                                raw))]
        else:
            argv = ["parse-check", str(data)]
        code = cli.main(argv)  # an escaping exception would fail the test
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err and "mols.csv" in captured.err

    def test_checkpoint_that_is_a_directory_is_data_error(
            self, toy_raw_config, tmp_path, capsys):
        config = self.write_config(tmp_path, toy_raw_config)
        code = cli.main(["screen", "--config", str(config),
                         "--checkpoint", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read checkpoint" in captured.err
        assert captured.out == ""

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"dataset:\n  name: \xff\xfe\n")
        assert cli.main(["train", "--config", str(path)]) == 1
        assert "codec can't decode" in capsys.readouterr().err

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "[SELFTEST] 14/14 checks passed"

    def test_selftest_reports_failing_and_raising_checks(self, monkeypatch,
                                                         capsys):
        def failing():
            raise AssertionError("gap 1.0e-03")

        def raising():
            raise NumericalError("inf in matmul")

        monkeypatch.setattr(selftest, "CHECKS",
                            [("failing", failing), ("raising", raising)])
        assert cli.main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"[SELFTEST] {'failing':32s} FAIL  AssertionError: gap 1.0e-03",
            f"[SELFTEST] {'raising':32s} FAIL  NumericalError: inf in matmul",
            "[SELFTEST] 0/2 checks passed"]

    def test_parse_check_reports_failures(self, tmp_path, capsys):
        for name in ("mols.csv", "MOLS.CSV"):  # suffix case is ignored
            path = tmp_path / name
            path.write_text("smiles,label\nCCO,1\nC(,0\nCCN,1\n")
            code = cli.main(["parse-check", str(path)])
            assert code == 0
            shown = capsys.readouterr().out
            assert "2/3 parsed" in shown
            assert "row 2" in shown

    def test_parse_check_rejects_non_ascii_digits(self, tmp_path, capsys):
        path = tmp_path / "mols.csv"
        path.write_text("smiles,label\nCCO,1\nC\u00b2,0\nCCN,1\n",
                        encoding="utf-8")
        assert cli.main(["parse-check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "row 2: 'C\u00b2': unexpected character (position 2, "
            "token '\u00b2')",
            "2/3 parsed (66.67%), 1 rejected",
        ]

    def test_parse_check_plain_text(self, tmp_path, capsys):
        path = tmp_path / "mols.smi"
        path.write_text("CCO\nc1ccccc1\n")
        assert cli.main(["parse-check", str(path)]) == 0
        assert "2/2 parsed (100.00%)" in capsys.readouterr().out

    def test_parse_check_runs_the_ingestion_row_path(self, tmp_path,
                                                     capsys):
        path = tmp_path / "mols.csv"
        path.write_text("smiles,label\nCCO,1\n[SnH5],0\n"
                        "[Fe](C)(C)(C)(C)(C)(C)C,1\nCCO.[SnH5],0\n")
        assert cli.main(["parse-check", str(path)]) == 0
        shown = capsys.readouterr().out.splitlines()
        assert shown == [
            "row 2: '[SnH5]': hydrogen count 5 exceeds schema maximum 4",
            "row 3: '[Fe](C)(C)(C)(C)(C)(C)C': degree 7 exceeds schema "
            "maximum 6",
            # salts are stripped, as load_dataset does by default
            "2/4 parsed (50.00%), 2 rejected",
        ]
        spec = resolve_config({"dataset": {
            "name": "mols", "path": str(path), "smiles_column": "smiles",
            "label_column": "label"}}).dataset
        assert load_dataset(spec)[1]["skipped"] == 2

    @pytest.mark.parametrize("name, text", [
        ("excel.csv", "smiles,label\nCCO,1\nc1ccccc1,0\n"),
        ("excel.smi", "CCO\nc1ccccc1\n"),
    ], ids=["csv", "one-per-line"])
    def test_parse_check_ignores_byte_order_mark(self, tmp_path, capsys,
                                                 name, text):
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert cli.main(["parse-check", str(path)]) == 0
        assert capsys.readouterr().out == \
            "2/2 parsed (100.00%), 0 rejected\n"

    def test_single_class_test_split_warns_before_training(self, tmp_path,
                                                           capsys):
        smiles = ["C", "CC", "CCC", "CCCC", "CCO", "CCN", "CO", "CN",
                  "OCO", "NCN"]
        # the seed-0 split decides which rows are held out; give every
        # held-out row label 0 and three training rows label 1
        train_rows, test_rows = split_dataset(list(range(10)), 0.8, 0)
        labels = [1 if i in train_rows[:3] else 0 for i in range(10)]
        data = tmp_path / "ten.csv"
        data.write_text("smiles,label\n" + "".join(
            f"{s},{y}\n" for s, y in zip(smiles, labels)))
        raw = {
            "dataset": {"name": "ten", "path": str(data),
                        "smiles_column": "smiles",
                        "label_column": "label"},
            "model": {"num_layers": 1, "hidden_dim": 4, "graph_dim": 3},
            "training": {"epochs": 2, "batch_size": 4, "seeds": [0],
                         "split_ratio": 0.8},
        }
        code = cli.main(["train", "--config",
                         str(self.write_config(tmp_path, raw))])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        warning = ("warning: all 2 test molecules are class 0; AUROC "
                   "will be undefined")
        first_epoch = next(i for i, line in enumerate(lines)
                           if line.startswith("epoch"))
        assert lines.index(warning) < first_epoch
        assert "auroc undefined" in lines[-1]

    def test_repeated_seed_is_config_error(self, toy_raw_config, tmp_path,
                                           capsys):
        raw = dict(toy_raw_config,
                   training=dict(toy_raw_config["training"], seeds=[0, 0]))
        code = cli.main(["train", "--config",
                         str(self.write_config(tmp_path, raw)),
                         "--out-dir", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err \
            == "config error: seed 0 appears more than once in seeds\n"
        assert captured.out == ""
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag, section, key, value", [
        (["--bins", "5"], "evaluation", "num_bins", 5),
        (["--threshold", "0.25"], "evaluation", "threshold", 0.25),
        (["--mc-samples", "5"], "inference", "mc_samples", 5),
    ], ids=["bins", "threshold", "mc-samples"])
    def test_override_flag_fills_an_empty_section(
            self, toy_raw_config, tmp_path, flag, section, key, value):
        raw = dict(toy_raw_config,
                   training=dict(toy_raw_config["training"], epochs=1))
        raw[section] = None  # the section's name with nothing under it
        out = tmp_path / "runs"
        assert cli.main(["train", "--config",
                         str(self.write_config(tmp_path, raw)),
                         "--out-dir", str(out), *flag]) == 0
        manifest = json.loads((out / "seed-0" / "manifest.json").read_text())
        assert manifest["config"][section][key] == value

    @pytest.mark.parametrize("flag, section", [
        (["--no-strip-salts"], "dataset"),
        (["--bins", "5"], "evaluation"),
        (["--mc-samples", "5"], "inference"),
    ], ids=["strip-salts", "bins", "mc-samples"])
    def test_override_flag_on_a_non_mapping_section_is_config_error(
            self, toy_raw_config, tmp_path, capsys, flag, section):
        raw = dict(toy_raw_config, **{section: [1]})
        code = cli.main(["train", "--config",
                         str(self.write_config(tmp_path, raw)), *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err \
            == f"config error: section '{section}' must be a mapping\n"
        assert captured.out == ""

    def test_bins_above_the_cap_is_config_error(self, toy_raw_config,
                                                tmp_path, capsys):
        # refused from the config file and from --bins alike, before any
        # data is read or any directory made
        above = EvaluationSettings.MAX_NUM_BINS + 1
        for raw, flag in ((toy_raw_config, ["--bins", str(above)]),
                          (dict(toy_raw_config,
                                evaluation={"num_bins": above}), [])):
            code = cli.main(["train", "--config",
                             str(self.write_config(tmp_path, raw)),
                             "--out-dir", str(tmp_path / "runs"), *flag])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == "config error: num_bins must be at " \
                f"most {above - 1}\n"
            assert captured.out == ""
            assert not (tmp_path / "runs").exists()

    def test_exit_code_usage(self, capsys):
        assert cli.main(["train"]) == 1  # --config missing
        assert cli.main(["ablate", "--config", "x.yaml",
                         "--axis", "bogus"]) == 1

    def test_exit_code_config_error(self, toy_raw_config, tmp_path, capsys):
        # a loss parameter its loss function would refuse is refused
        # before training starts
        for section in ({"optimiser": {"learning_rate": 0.1}},
                        {"loss": {"kind": "label_smoothing",
                                  "smoothing": 1.0}}):
            cfg = self.write_config(tmp_path, dict(toy_raw_config, **section))
            assert cli.main(["train", "--config", str(cfg)]) == 1
            assert "epoch" not in capsys.readouterr().out

    def test_exit_code_data_error(self, toy_raw_config, tmp_path):
        raw = {k: (dict(v) if isinstance(v, dict) else v)
               for k, v in toy_raw_config.items()}
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_exit_code_numerical(self, toy_raw_config, tmp_path):
        raw = dict(toy_raw_config, optimizer={"learning_rate": 1e200})
        cfg = self.write_config(tmp_path, raw)
        # the replayed forward raises at its op, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["train", "--config", str(cfg)]) == 3

    def test_module_entry_point(self, toy_raw_config, tmp_path):
        cfg = self.write_config(tmp_path, dict(toy_raw_config))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, path] if path else [src]))
        proc = subprocess.run(
            [sys.executable, "-m", "molcalib", "train",
             "--config", str(cfg), "--seed", "0",
             "--out-dir", str(tmp_path / "runs")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "seed 0" in proc.stdout
        assert (tmp_path / "runs" / "seed-0" / "manifest.json").exists()


class TestSaltStrippingFlag:
    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        data = tmp_path / "salty.csv"
        data.write_text("smiles,label\nCCO.[Na+],1\nCCN,0\n")
        raw = {
            "dataset": {"name": "salty", "path": str(data),
                        "smiles_column": "smiles",
                        "label_column": "label"},
            "model": {"num_layers": 1, "hidden_dim": 4, "graph_dim": 3},
            "training": {"epochs": 1, "batch_size": 2, "seeds": [0],
                         "split_ratio": 0.5},
        }
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        spec = resolve_config(raw).dataset
        graphs, _ = load_dataset(spec)
        assert graphs[0].num_nodes == 3  # stripped by default
        code = cli.main(["train", "--config", str(cfg),
                         "--no-strip-salts"])
        assert code == 0
