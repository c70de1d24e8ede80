"""Model tests: layer algebra, invariances, MC dropout, checkpoints."""

import math

import numpy as np
import pytest

from molcalib import autodiff as ad
from molcalib.errors import ConfigError, IoError, SchemaError
from molcalib.featurize import featurize, permute_graph, MolecularGraph
from molcalib.model import (
    GnnModel,
    ModelConfig,
    attn_pool,
    gat_layer,
    gcn_layer,
    load_checkpoint,
    save_checkpoint,
    sum_pool,
    threshold_label,
)
from molcalib.smiles import parse_smiles

from test_autodiff import numeric_gradient


def random_graph(rng, n, d0):
    x = rng.standard_normal((n, d0))
    a = (rng.random((n, n)) < 0.4).astype(np.float64)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return MolecularGraph(node_features=x, adjacency=a)


def complete_graph_of_identical_nodes(k, d, value=0.3):
    x = np.full((k, d), value)
    return MolecularGraph(node_features=x, adjacency=np.ones((k, k)))


SMALL = dict(num_layers=2, hidden_dim=5, graph_dim=4, input_dim=6)


class TestLayerAlgebra:
    def test_gcn_two_identical_nodes(self):
        # complete 2-graph with self loops and W = I: each row is relu(2h)
        d = 4
        h_row = np.array([0.5, -1.0, 2.0, 0.1])
        h = ad.Tensor(np.tile(h_row, (2, 1)))
        a = ad.Tensor(np.ones((2, 2)))
        w = ad.Tensor(np.eye(d))
        out = gcn_layer(h, a, w)
        np.testing.assert_allclose(out.data, np.tile(np.maximum(2 * h_row, 0), (2, 1)))

    def test_gat_single_node_formula(self):
        rng = np.random.default_rng(3)
        d = 5
        h = ad.Tensor(rng.standard_normal((1, d)))
        a = ad.Tensor(np.ones((1, 1)))
        w = ad.Tensor(rng.standard_normal((d, d)))
        wa = ad.Tensor(rng.standard_normal((d, d)))
        out = gat_layer(h, a, w, wa)
        hw = h.data @ w.data
        alpha = np.tanh((hw @ wa.data @ hw.T) / math.sqrt(d))
        np.testing.assert_allclose(out.data, np.maximum(alpha * hw, 0.0),
                                   atol=1e-14)

    def test_gat_mask_zeroes_non_neighbors(self):
        rng = np.random.default_rng(4)
        d = 3
        h = ad.Tensor(rng.standard_normal((3, d)))
        a_disc = np.eye(3)  # no edges except self loops
        out_disc = gat_layer(h, ad.Tensor(a_disc),
                             ad.Tensor(np.eye(d)), ad.Tensor(np.eye(d)))
        # with only self loops each row depends only on its own features
        for i in range(3):
            solo = gat_layer(ad.Tensor(h.data[i:i + 1]),
                             ad.Tensor(np.ones((1, 1))),
                             ad.Tensor(np.eye(d)), ad.Tensor(np.eye(d)))
            np.testing.assert_allclose(out_disc.data[i], solo.data[0],
                                       atol=1e-14)

    def test_sum_pool_value(self):
        h = ad.Tensor([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        w = ad.Tensor(np.eye(2))
        np.testing.assert_array_equal(sum_pool(h, w).data, [2.0, 3.0])

    def test_attn_pool_uniform_on_identical_nodes(self):
        # identical rows: softmax is uniform, weights k/k = 1, so the pooled
        # vector is exactly k times one row's projection
        rng = np.random.default_rng(5)
        d, dg = 4, 3
        row = rng.standard_normal(d)
        w = ad.Tensor(rng.standard_normal((d, dg)))
        for k in (3, 4):
            h = ad.Tensor(np.tile(row, (k, 1)))
            pooled = attn_pool(h, w)
            np.testing.assert_allclose(pooled.data, k * (row @ w.data),
                                       rtol=1e-13)

    def test_attn_pool_ratio_three_vs_four(self):
        rng = np.random.default_rng(6)
        d, dg = 6, 5
        row = rng.standard_normal(d)
        w = ad.Tensor(rng.standard_normal((d, dg)))
        p3 = attn_pool(ad.Tensor(np.tile(row, (3, 1))), w).data
        p4 = attn_pool(ad.Tensor(np.tile(row, (4, 1))), w).data
        keep = np.abs(p3) > 1e-9
        np.testing.assert_allclose(p4[keep] / p3[keep], 4.0 / 3.0, atol=1e-12)


class TestModelForward:
    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_output_is_probability(self, embed, readout):
        cfg = ModelConfig(node_embedding=embed, readout=readout, **SMALL)
        model = GnnModel(cfg, seed=1)
        g = random_graph(np.random.default_rng(0), 7, cfg.input_dim)
        p = model.predict_proba(g)
        assert 0.0 < p < 1.0

    def test_same_seed_same_params(self):
        cfg = ModelConfig(**SMALL)
        a, b = GnnModel(cfg, seed=3), GnnModel(cfg, seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data,
                                          b.params[name].data)
        c = GnnModel(cfg, seed=4)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)

    def test_gat_has_attention_params(self):
        cfg = ModelConfig(node_embedding="gat", **SMALL)
        model = GnnModel(cfg)
        assert "w_attn_0" in model.params and "w_attn_1" in model.params
        assert "w_attn_0" not in GnnModel(ModelConfig(**SMALL)).params

    def test_classifier_bias_starts_at_zero(self):
        assert GnnModel(ModelConfig(**SMALL)).params["b_clf"].item() == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(node_embedding="transformer")
        with pytest.raises(ConfigError):
            ModelConfig(readout="mean")
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(num_layers=0)


class TestInvariances:
    SMILES = ["CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1", "CC(C)CC(N)C(=O)O",
              "Clc1ccc(Cl)cc1", "C1CCOC1"]

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_node_order_does_not_matter(self, embed, readout):
        cfg = ModelConfig(node_embedding=embed, readout=readout,
                          num_layers=2, hidden_dim=8, graph_dim=6)
        model = GnnModel(cfg, seed=7)
        rng = np.random.default_rng(8)
        for s in self.SMILES:
            g = featurize(parse_smiles(s))
            p = model.predict_proba(g)
            for _ in range(3):
                gp = permute_graph(g, rng.permutation(g.num_nodes))
                assert abs(model.predict_proba(gp) - p) <= 1e-12


class TestMcDropout:
    def test_zero_rate_is_exactly_deterministic(self):
        cfg = ModelConfig(dropout_rate=0.0, **SMALL)
        model = GnnModel(cfg, seed=2)
        g = random_graph(np.random.default_rng(1), 6, cfg.input_dim)
        det = model.predict_proba(g)
        mean, draws = model.predict_mc_dropout(g, 30)
        assert mean == det
        assert draws.shape == (30,)
        assert np.all(draws == det)

    def test_stochastic_passes_differ(self):
        cfg = ModelConfig(dropout_rate=0.4, **SMALL)
        model = GnnModel(cfg, seed=2)
        g = random_graph(np.random.default_rng(1), 6, cfg.input_dim)
        mean, draws = model.predict_mc_dropout(
            g, samples=16, rng=np.random.default_rng(5))
        assert len(np.unique(draws)) > 1
        assert 0.0 < mean < 1.0
        assert mean == pytest.approx(draws.mean())

    def test_mc_reproducible_from_seed(self):
        cfg = ModelConfig(dropout_rate=0.4, **SMALL)
        model = GnnModel(cfg, seed=2)
        g = random_graph(np.random.default_rng(1), 6, cfg.input_dim)
        _, a = model.predict_mc_dropout(g, samples=8,
                                        rng=np.random.default_rng(9))
        _, b = model.predict_mc_dropout(g, samples=8,
                                        rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_sample_count_override(self):
        cfg = ModelConfig(dropout_rate=0.2, **SMALL)
        model = GnnModel(cfg, seed=2)
        g = random_graph(np.random.default_rng(1), 5, cfg.input_dim)
        _, draws = model.predict_mc_dropout(g, samples=7,
                                            rng=np.random.default_rng(0))
        assert draws.shape == (7,)


class TestThreshold:
    def test_strictly_greater(self):
        assert threshold_label(0.5, 0.5) == 0
        assert threshold_label(0.5000001, 0.5) == 1
        assert threshold_label(0.2, 0.5) == 0
        assert threshold_label(0.9, 0.5) == 1
        assert threshold_label(0.3, 0.25) == 1


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(node_embedding="gat", readout="attn", **SMALL)
        model = GnnModel(cfg, seed=11)
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.config == cfg
        for name in model.params:
            np.testing.assert_array_equal(clone.params[name].data,
                                          model.params[name].data)
        g = random_graph(np.random.default_rng(3), 8, cfg.input_dim)
        assert clone.predict_proba(g) == model.predict_proba(g)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]",
                     '{"format_version": 1, "config": [], "params": {}}',
                     '{"format_version": 1, "config": {"readout": "max"},'
                     ' "params": {}}'):
            path.write_text(text)
            with pytest.raises(SchemaError):
                load_checkpoint(str(path))

    def test_wrong_version(self, tmp_path):
        cfg = ModelConfig(**SMALL)
        model = GnnModel(cfg)
        path = str(tmp_path / "m.json")
        save_checkpoint(model, path)
        import json
        payload = json.load(open(path))
        payload["format_version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(SchemaError):
            load_checkpoint(path)


class TestModelGradients:
    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_full_model_finite_differences(self, embed, readout):
        cfg = ModelConfig(node_embedding=embed, readout=readout, **SMALL)
        model = GnnModel(cfg, seed=13)
        g = random_graph(np.random.default_rng(14), 6, cfg.input_dim)

        def loss_value():
            return ((model.forward(g) - 0.3) ** 2.0).item()

        loss = (model.forward(g) - 0.3) ** 2.0
        ad.backward(loss)
        for name, p in model.params.items():
            fd = numeric_gradient(lambda: loss_value(), p.data)
            np.testing.assert_allclose(
                p.grad, fd, rtol=1e-4, atol=1e-8,
                err_msg=f"{embed}/{readout} gradient mismatch for {name}",
            )
        model.zero_grad()
