"""End-to-end runs on the synthetic dataset: training, manifests,
reproducibility, ablation sweeps, screening output, and the CLI surface."""

import csv
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from molcalib import cli
from molcalib.config import manifest_fingerprint, resolve_config
from molcalib.data import load_dataset
from molcalib.errors import NumericalError
from molcalib.model import GnnModel, ModelConfig, save_checkpoint
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
        for row, b in zip(rows, result.report.bins):
            assert int(row["count"]) == b.count
            assert float(row["confidence"]) == pytest.approx(b.confidence)
            mid = 0.5 * (b.lower + b.upper)
            assert float(row["midpoint"]) == pytest.approx(mid)

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


class TestInferenceModes:
    def test_mc_dropout_differs_from_deterministic(self, toy_raw_config):
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], dropout_rate=0.3),
                   inference={"mode": "mc_dropout", "mc_samples": 5})
        config = small_config(raw)
        result = train_run(config, seed=0)
        graphs = result.test_graphs
        det = np.array([result.model.predict_proba(g) for g in graphs])
        assert not np.allclose(det, result.test_probs)

    def test_mc_scores_do_not_depend_on_order(self, toy_raw_config):
        raw = dict(toy_raw_config,
                   model=dict(toy_raw_config["model"], dropout_rate=0.3),
                   inference={"mode": "mc_dropout", "mc_samples": 4})
        config = small_config(raw)
        result = train_run(config, seed=0)
        report_a, probs_a = evaluate_model(result.model, result.test_graphs,
                                           config, seed=0)
        report_b, probs_b = evaluate_model(result.model, result.test_graphs,
                                           config, seed=0)
        np.testing.assert_array_equal(probs_a, probs_b)
        assert report_a.to_dict() == report_b.to_dict()

    def test_evaluate_thresholds_strictly(self, toy_raw_config):
        scores = iter([0.4, 0.5, 0.6])
        model = SimpleNamespace(predict_proba=lambda graph: next(scores))
        graphs = [SimpleNamespace(label=y) for y in (0, 1, 1)]
        report, _ = evaluate_model(model, graphs,
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

    def test_sweep_summary_is_mean_of_raw(self, toy_raw_config, tmp_path):
        config = small_config(toy_raw_config, epochs=1, seeds=[0, 1])
        result = run_ablation(config, "regularizers",
                              out_dir=str(tmp_path))
        assert len(result["raw"]) == 10
        assert len(result["summary"]) == 5
        for summary in result["summary"]:
            rows = [r for r in result["raw"]
                    if r["variant"] == summary["variant"]]
            for field in ("accuracy", "ece", "recall"):
                mean = sum(r[field] for r in rows) / len(rows)
                assert summary[field] == pytest.approx(mean, abs=1e-12)
        assert (tmp_path / "reports" / "ablation_raw.csv").exists()
        assert (tmp_path / "reports" / "ablation_summary.csv").exists()

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

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "[SELFTEST] 8/8 checks passed"

    def test_parse_check_reports_failures(self, tmp_path, capsys):
        path = tmp_path / "mols.csv"
        path.write_text("smiles,label\nCCO,1\nC(,0\nCCN,1\n")
        code = cli.main(["parse-check", str(path)])
        assert code == 0
        shown = capsys.readouterr().out
        assert "2/3 parsed" in shown
        assert "row 2" in shown

    def test_parse_check_plain_text(self, tmp_path, capsys):
        path = tmp_path / "mols.smi"
        path.write_text("CCO\nc1ccccc1\n")
        assert cli.main(["parse-check", str(path)]) == 0
        assert "2/2 parsed (100.00%)" in capsys.readouterr().out

    def test_exit_code_usage(self, capsys):
        assert cli.main(["train"]) == 1  # --config missing
        assert cli.main(["ablate", "--config", "x.yaml",
                         "--axis", "bogus"]) == 1

    def test_exit_code_config_error(self, toy_raw_config, tmp_path):
        raw = dict(toy_raw_config, optimiser={"learning_rate": 0.1})
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 1

    def test_exit_code_data_error(self, toy_raw_config, tmp_path):
        raw = {k: (dict(v) if isinstance(v, dict) else v)
               for k, v in toy_raw_config.items()}
        raw["dataset"]["path"] = str(tmp_path / "absent.csv")
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_exit_code_numerical(self, toy_raw_config, tmp_path):
        raw = dict(toy_raw_config, optimizer={"learning_rate": 1e200})
        cfg = self.write_config(tmp_path, raw)
        assert cli.main(["train", "--config", str(cfg)]) == 3

    def test_module_entry_point(self, toy_raw_config, tmp_path):
        cfg = self.write_config(tmp_path, dict(toy_raw_config))
        proc = subprocess.run(
            [sys.executable, "-m", "molcalib", "train",
             "--config", str(cfg), "--seed", "0",
             "--out-dir", str(tmp_path / "runs")],
            capture_output=True, text=True, timeout=300)
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
