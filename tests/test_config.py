"""Config resolution: defaults expanded, typos rejected, couplings applied."""

import json
import re
from pathlib import Path

import pytest
import yaml

from molcalib import config as config_mod
from molcalib.config import (
    CONFIG_VERSION,
    DatasetSpec,
    EvaluationSettings,
    load_config,
    manifest_fingerprint,
    resolve_config,
)
from molcalib.errors import ConfigError, IoError

MINIMAL = {
    "dataset": {
        "name": "toy",
        "path": "data/toy.csv",
        "smiles_column": "smiles",
        "label_column": "label",
    }
}

README = Path(__file__).resolve().parents[1] / "README.md"


def rejects(raw, message):
    """`raw` fails resolution with exactly `message`."""
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert str(info.value) == message


class TestResolution:
    def test_minimal_config_gets_all_defaults(self):
        cfg = resolve_config(MINIMAL)
        assert cfg.model.node_embedding == "gcn"
        assert cfg.model.num_layers == 4
        assert cfg.model.hidden_dim == 64
        assert cfg.model.graph_dim == 256
        assert cfg.loss.kind == "bce"
        assert cfg.optimizer.learning_rate == 1e-3
        assert cfg.schedule.decay_factor == 0.1
        assert cfg.schedule.decay_epochs == (80, 160)
        assert cfg.training.epochs == 200
        assert cfg.training.batch_size == 32
        assert cfg.training.split_ratio == 0.8
        assert cfg.training.seeds == (0, 1, 2, 3, 4)
        assert cfg.inference.mode == "deterministic"
        assert cfg.evaluation.num_bins == 10
        assert cfg.evaluation.threshold == 0.5

    def test_annotations_are_read_once_per_class(self, monkeypatch):
        calls = []

        def counting(cls):
            calls.append(cls)
            return get_type_hints(cls)

        get_type_hints = config_mod.get_type_hints
        config_mod._field_hints.cache_clear()
        monkeypatch.setattr(config_mod, "get_type_hints", counting)
        first = resolve_config(MINIMAL)
        sections = len(calls)
        assert sections == len(set(calls)) == 8
        assert resolve_config(MINIMAL) == first
        assert len(calls) == sections

    def test_decay_coefficient_tracks_dropout(self):
        cfg = resolve_config(MINIMAL)
        assert cfg.loss.l2_coefficient == pytest.approx(1e-4)
        raw = dict(MINIMAL, model={"dropout_rate": 0.2})
        cfg = resolve_config(raw)
        assert cfg.loss.l2_coefficient == pytest.approx(1e-4 * 0.8)

    def test_explicit_decay_coefficient_wins(self):
        raw = dict(MINIMAL, model={"dropout_rate": 0.2},
                   loss={"l2_coefficient": 5e-4})
        assert resolve_config(raw).loss.l2_coefficient == pytest.approx(5e-4)

    def test_mc_samples_flow_into_model(self):
        # the inference section is the one place MC scoring reads it from
        raw = dict(MINIMAL, inference={"mode": "mc_dropout",
                                       "mc_samples": 12})
        cfg = resolve_config(raw)
        assert cfg.inference.mc_samples == 12
        assert "mc_samples" not in cfg.to_dict()["model"]
        with pytest.raises(ConfigError):
            resolve_config(dict(MINIMAL, model={"mc_samples": 12}))

    def test_to_dict_records_every_default(self):
        d = resolve_config(MINIMAL).to_dict()
        assert d["config_version"] == CONFIG_VERSION
        assert d["optimizer"]["beta1"] == 0.9
        assert d["optimizer"]["eps"] == 1e-8
        assert d["training"]["seeds"] == [0, 1, 2, 3, 4]
        assert d["loss"]["l2_coefficient"] == pytest.approx(1e-4)
        assert d["evaluation"]["k_grid"][-1] == 100
        assert d["dataset"]["strip_salts"] is True

    def test_readme_defaults_match_dataset_only_config(self):
        # README's Configuration block spells out every default, so it
        # must resolve, and fingerprint, like its dataset section alone
        text = README.read_text(encoding="utf-8")
        block = re.search(r"## Configuration\n.*?```yaml\n(.*?)```", text,
                          re.S).group(1)
        spelled = resolve_config(yaml.safe_load(block)).to_dict()
        dataset = yaml.safe_load(block)["dataset"]
        bare = resolve_config({"dataset": {"name": dataset["name"],
                                           "path": dataset["path"]}})
        assert json.dumps(spelled) == json.dumps(bare.to_dict())
        assert manifest_fingerprint({"config": spelled}) \
            == manifest_fingerprint({"config": bare.to_dict()})

    def test_field_names_unique_across_sections(self):
        # the ablation comparison table keys each setting by its bare name
        names = [key for section in resolve_config(MINIMAL).to_dict().values()
                 if isinstance(section, dict) for key in section]
        assert sorted({n for n in names if names.count(n) > 1}) == []

    def test_dataset_section_required(self):
        with pytest.raises(ConfigError):
            resolve_config({})


class TestValidation:
    def test_unknown_top_level_key(self):
        rejects(dict(MINIMAL, optimiser={"learning_rate": 1e-2}),
                "unknown key(s) in 'config': optimiser")
        rejects(["dataset"], "config root must be a mapping")

    def test_unknown_section_key(self):
        rejects(dict(MINIMAL, model={"hidden_dims": 64, "zeta": 1}),
                "unknown key(s) in 'model': hidden_dims, zeta")
        rejects(dict(MINIMAL, model="gcn"),
                "section 'model' must be a mapping")
        rejects({"dataset": []}, "section 'dataset' must be a mapping")

    def test_wrong_scalar_type(self):
        for epochs in ("many", True, 2.0):
            rejects(dict(MINIMAL, training={"epochs": epochs}),
                    "training.epochs must be a int")
        for rate in (True, "1e-3"):
            rejects(dict(MINIMAL, optimizer={"learning_rate": rate}),
                    "optimizer.learning_rate must be a float")
        rejects(dict(MINIMAL, loss={"kind": "label_smoothing",
                                    "smoothing": None}),
                "loss.smoothing must be a float")
        rejects({"dataset": dict(MINIMAL["dataset"], strip_salts=1)},
                "dataset.strip_salts must be a bool")
        rejects({"dataset": dict(MINIMAL["dataset"], name=3)},
                "dataset.name must be a str")

    def test_bad_version(self):
        rejects(dict(MINIMAL, config_version=2),
                "config_version 2 unsupported, expected 1")

    def test_bad_label_rule(self):
        raw = {"dataset": dict(MINIMAL["dataset"], label_rule="regress")}
        rejects(raw, "unknown label rule 'regress', expected one of "
                     "direct, pic50_threshold")

    def test_decay_epochs_must_increase(self):
        rejects(dict(MINIMAL, schedule={"decay_epochs": [80, 80]}),
                "decay_epochs must be strictly increasing")
        for epochs in ([1, True], [1, "x"]):
            rejects(dict(MINIMAL, schedule={"decay_epochs": epochs}),
                    "schedule.decay_epochs entries must be numbers")
        for epochs in ([], 80):
            rejects(dict(MINIMAL, schedule={"decay_epochs": epochs}),
                    "schedule.decay_epochs must be a non-empty list")

    def test_int_list_entries_checked_like_int_fields(self):
        # a float entry is refused, not truncated; ints still widen in
        # float lists
        rejects(dict(MINIMAL, training={"seeds": [1.7, 3]}),
                "training.seeds entries must be ints")
        rejects(dict(MINIMAL, schedule={"decay_epochs": [3.9]}),
                "schedule.decay_epochs entries must be ints")
        rejects(dict(MINIMAL, training={"seeds": [2.0]}),
                "training.seeds entries must be ints")
        config = resolve_config(dict(MINIMAL, evaluation={"k_grid": [1, 50]}))
        assert config.evaluation.k_grid == (1.0, 50.0)

    def test_repeated_seed_refused(self):
        rejects(dict(MINIMAL, training={"seeds": [3, 0, 3]}),
                "seed 3 appears more than once in seeds")

    def test_int_beyond_float_range_refused(self):
        # an int widens to float only where float can hold it
        for raw in (dict(MINIMAL, optimizer={"learning_rate": 10 ** 400}),
                    dict(MINIMAL, evaluation={"k_grid": [1, -10 ** 309]})):
            with pytest.raises(ConfigError, match="beyond float range"):
                resolve_config(raw)

    def test_num_bins_range(self):
        cap = EvaluationSettings.MAX_NUM_BINS
        assert resolve_config(dict(MINIMAL, evaluation={"num_bins": cap})) \
            .evaluation.num_bins == cap
        rejects(dict(MINIMAL, evaluation={"num_bins": cap + 1}),
                f"num_bins must be at most {cap}")
        rejects(dict(MINIMAL, evaluation={"num_bins": 0}),
                "num_bins must be positive")

    def test_threshold_range(self):
        rejects(dict(MINIMAL, evaluation={"threshold": 1.0}),
                "threshold must lie in (0, 1)")

    def test_k_grid_range(self):
        rejects(dict(MINIMAL, evaluation={"k_grid": [0, 50]}),
                "k_grid percentages must lie in (0, 100]")
        rejects(dict(MINIMAL, evaluation={"k_grid": None}),
                "evaluation.k_grid must be a non-empty list")

    def test_inference_mode_checked(self):
        rejects(dict(MINIMAL, inference={"mode": "ensemble"}),
                "unknown inference mode 'ensemble', expected one of "
                "deterministic, mc_dropout")
        rejects(dict(MINIMAL, inference={"mc_samples": 0}),
                "mc_samples must be positive")

    def test_dataset_spec_requires_fields(self):
        with pytest.raises(ConfigError):
            DatasetSpec(name="", path="x.csv", smiles_column="s",
                        label_column="y")
        rejects({}, "dataset.name must be non-empty")
        rejects({"dataset": {"name": "x"}}, "dataset.path must be non-empty")
        rejects({"dataset": dict(MINIMAL["dataset"], smiles_column="")},
                "dataset.smiles_column must be non-empty")


class TestYamlLoading:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "config_version: 1\n"
            "dataset:\n"
            "  name: toy\n"
            "  path: data/toy.csv\n"
            "  smiles_column: smiles\n"
            "  label_column: label\n"
            "model:\n"
            "  node_embedding: gat\n"
            "  readout: sum\n"
            "  dropout_rate: 0.2\n"
            "training:\n"
            "  epochs: 3\n"
            "  seeds: [7]\n"
        )
        cfg = load_config(str(path))
        assert cfg.model.node_embedding == "gat"
        assert cfg.model.readout == "sum"
        assert cfg.training.epochs == 3
        assert cfg.training.seeds == (7,)
        assert cfg.loss.l2_coefficient == pytest.approx(8e-5)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestFingerprint:
    def test_ignores_timing_only(self):
        base = {"config": {"a": 1}, "losses": [1.0, 2.0],
                "timing": {"seconds": 3.2}}
        same = {"config": {"a": 1}, "losses": [1.0, 2.0],
                "timing": {"seconds": 99.9}}
        other = {"config": {"a": 2}, "losses": [1.0, 2.0],
                 "timing": {"seconds": 3.2}}
        assert manifest_fingerprint(base) == manifest_fingerprint(same)
        assert manifest_fingerprint(base) != manifest_fingerprint(other)

    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert manifest_fingerprint(a) == manifest_fingerprint(b)
