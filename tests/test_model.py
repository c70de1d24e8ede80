"""Model tests: layer algebra, invariances, MC dropout, checkpoints."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from molcalib import autodiff as ad, runner
from molcalib.config import resolve_config
from molcalib.data import ingest_smiles
from molcalib.errors import ConfigError, IoError, SchemaError, ShapeError
from molcalib.featurize import featurize, permute_graph, MolecularGraph
from molcalib.losses import LossConfig
from molcalib.model import (
    GnnModel,
    ModelConfig,
    attn_pool,
    gat_layer,
    gcn_layer,
    load_checkpoint,
    pack_graphs,
    save_checkpoint,
    sum_pool,
)
from molcalib.runner import evaluate_model, predict_probabilities
from molcalib.selftest import (
    DRUG_LIKE_SMILES,
    mc_precision_gap,
    numeric_gradient,
    prefix_sharing_gap,
    random_graph,
    readout_oracle_gap,
    size_ratio_gap,
    train_precision_gap,
)
from molcalib.smiles import parse_smiles

from test_autodiff import dense_adjacency

NO_BONDS = np.zeros((0, 2), dtype=np.int32)


def scores(model, graphs):
    """Deterministic probabilities of `graphs`, scored as one batch."""
    return predict_probabilities(model, graphs, "deterministic", 1, 0,
                                 len(graphs))


def complete_graph_of_identical_nodes(k, d, value=0.3):
    x = np.full((k, d), value)
    bonds = np.stack(np.triu_indices(k, k=1), axis=1).astype(np.int32)
    return MolecularGraph(node_features=x, bonds=bonds)


SMALL = dict(num_layers=2, hidden_dim=5, graph_dim=4, input_dim=6)


def one_graph(rows):
    return ad.Segments([rows])


class TestLayerAlgebra:
    def test_gcn_two_identical_nodes(self):
        # complete 2-graph with self loops and W = I: each row is relu(2h)
        d = 4
        h_row = np.array([0.5, -1.0, 2.0, 0.1])
        h = ad.Tensor(np.tile(h_row, (2, 1)))
        w = ad.Tensor(np.eye(d))
        out = gcn_layer(h, ad.Neighbors([[0, 1]], 2), w)
        np.testing.assert_allclose(out.data, np.tile(np.maximum(2 * h_row, 0), (2, 1)))

    def test_gat_single_node_formula(self):
        rng = np.random.default_rng(3)
        d = 5
        h = ad.Tensor(rng.standard_normal((1, d)))
        w = ad.Tensor(rng.standard_normal((d, d)))
        wa = ad.Tensor(rng.standard_normal((d, d)))
        out = gat_layer(h, ad.Neighbors(NO_BONDS, 1), w, wa)
        hw = h.data @ w.data
        alpha = np.tanh((hw @ wa.data @ hw.T) / math.sqrt(d))
        np.testing.assert_allclose(out.data, np.maximum(alpha * hw, 0.0),
                                   atol=1e-14)

    def test_gat_mask_zeroes_non_neighbors(self):
        rng = np.random.default_rng(4)
        d = 3
        h = ad.Tensor(rng.standard_normal((3, d)))
        # no bonds: each node lists only itself
        out_disc = gat_layer(h, ad.Neighbors(NO_BONDS, 3),
                             ad.Tensor(np.eye(d)), ad.Tensor(np.eye(d)))
        # with only self loops each row depends only on its own features
        for i in range(3):
            solo = gat_layer(ad.Tensor(h.data[i:i + 1]),
                             ad.Neighbors(NO_BONDS, 1),
                             ad.Tensor(np.eye(d)), ad.Tensor(np.eye(d)))
            np.testing.assert_allclose(out_disc.data[i], solo.data[0],
                                       atol=1e-14)

    def test_sum_pool_value(self):
        h = ad.Tensor([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        w = ad.Tensor(np.eye(2))
        np.testing.assert_array_equal(sum_pool(h, w, one_graph(3)).data,
                                      [[2.0, 3.0]])

    def test_attn_pool_uniform_on_identical_nodes(self):
        # identical rows: softmax is uniform, weights k/k = 1, so the pooled
        # vector is exactly k times one row's projection
        rng = np.random.default_rng(5)
        d, dg = 4, 3
        row = rng.standard_normal(d)
        w = ad.Tensor(rng.standard_normal((d, dg)))
        for k in (3, 4):
            h = ad.Tensor(np.tile(row, (k, 1)))
            pooled = attn_pool(h, w, one_graph(k))
            np.testing.assert_allclose(pooled.data[0], k * (row @ w.data),
                                       rtol=1e-13)

    def test_attn_pool_matches_per_graph_oracle(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((12, 5)) * 2.0
        assert readout_oracle_gap(h, rng.standard_normal((5, 7)),
                                  [4, 1, 7]) <= 1e-12

    def test_attn_pool_ratio_three_vs_four(self):
        # both graphs in one batch: segments keep their softmaxes apart
        rng = np.random.default_rng(6)
        row = rng.standard_normal(6)
        assert size_ratio_gap(row, rng.standard_normal((6, 5))) <= 1e-12


class TestModelForward:
    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_output_is_probability(self, embed, readout):
        cfg = ModelConfig(node_embedding=embed, readout=readout, **SMALL)
        model = GnnModel(cfg, seed=1)
        g = random_graph(np.random.default_rng(0), 7, cfg.input_dim)
        p = scores(model, [g])
        assert p.shape == (1,) and 0.0 < p[0] < 1.0

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


def one_atom(d0):
    return MolecularGraph(node_features=np.ones((1, d0)), bonds=NO_BONDS)


def mixed_graphs(d0):
    """Graphs of several sizes, among them a single atom and a bond-free
    graph, so segment boundaries and empty neighbour slots both occur."""
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, n, d0) for n in (5, 1, 8, 2, 6)]
    graphs.insert(2, MolecularGraph(node_features=rng.standard_normal((4, d0)),
                                    bonds=NO_BONDS))
    return graphs


class TestBatching:
    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_batch_matches_batches_of_one(self, embed, readout):
        cfg = ModelConfig(node_embedding=embed, readout=readout, **SMALL)
        model = GnnModel(cfg, seed=5)
        graphs = mixed_graphs(cfg.input_dim)
        together = scores(model, graphs)
        alone = np.array([scores(model, [g])[0] for g in graphs])
        np.testing.assert_allclose(together, alone, rtol=0, atol=1e-12)

    def test_batch_of_smiles_matches_batches_of_one(self):
        model = GnnModel(ModelConfig(node_embedding="gat",
                                     **dict(SMALL, input_dim=58)), seed=6)
        graphs = [featurize(parse_smiles(s)) for s in
                  ("CC(=O)Oc1ccccc1C(=O)O", "N", "C1CCOC1", "[Na+]", "CCN")]
        together = scores(model, graphs)
        alone = [scores(model, [g])[0] for g in graphs]
        np.testing.assert_allclose(together, alone, rtol=0, atol=1e-12)

    def test_pack_layout(self):
        graphs = mixed_graphs(3)
        batch = pack_graphs(graphs)
        sizes = [g.num_nodes for g in graphs]
        np.testing.assert_array_equal(batch.segments.sizes, sizes)
        np.testing.assert_array_equal(
            batch.x, np.concatenate([g.node_features for g in graphs]))
        # the neighbour lists rebuild each graph's self-looped bond matrix
        # on its diagonal block, and nothing off it
        n = sum(sizes)
        dense = np.zeros((n + 1, n + 1))
        for i, row in enumerate(batch.neighbors.index):
            dense[i, row] += 1.0
        offset = 0
        for g in graphs:
            block = slice(offset, offset + g.num_nodes)
            np.testing.assert_array_equal(
                dense[block, block], dense_adjacency(g.bonds, g.num_nodes))
            offset += g.num_nodes
        assert dense[:n, :n].sum() == n + sum(2 * len(g.bonds) for g in graphs)

    @pytest.mark.parametrize("copies", [2, 3, 30])
    def test_pack_copies_matches_repeated_pack(self, copies):
        # the copies' lists come from the once-packed ones by offsets; they
        # must equal those of sorting the copies' own bonds
        rng = np.random.default_rng(copies)
        cases = [[random_graph(rng, int(n), 3, p=float(rng.uniform()))
                  for n in rng.integers(1, 9, size=rng.integers(1, 6))]
                 for _ in range(20)]
        cases += [mixed_graphs(3), [one_atom(3)], [one_atom(3)] * 2]
        for graphs in cases:
            batch = pack_graphs(graphs, copies)
            want = pack_graphs([g for g in graphs for _ in range(copies)])
            np.testing.assert_array_equal(batch.neighbors.index,
                                          want.neighbors.index)
            np.testing.assert_array_equal(batch.neighbors.mirror,
                                          want.neighbors.mirror)
            np.testing.assert_array_equal(batch.segments.sizes,
                                          want.segments.sizes)
            rows = (batch.x if batch.copy_rows is None
                    else batch.x[batch.copy_rows])
            np.testing.assert_array_equal(rows, want.x)

    def test_pack_builds_float64_from_uint8_rows(self):
        graphs = [featurize(parse_smiles(s)) for s in
                  ("CC(=O)Oc1ccccc1C(=O)O", "N", "[Na+].[Cl-]", "C1CCOC1")]
        assert all(g.node_features.dtype == np.uint8 for g in graphs)
        x = pack_graphs(graphs).x
        assert x.dtype == np.float64
        want = np.vstack([g.node_features for g in graphs]).astype(np.float64)
        assert x.tobytes() == want.tobytes()

    def test_pack_mixed_uint8_and_float64_graphs(self):
        small = featurize(parse_smiles("CCO"))
        real = MolecularGraph(
            node_features=np.random.default_rng(4).standard_normal((2, 58)),
            bonds=np.array([[0, 1]], dtype=np.int32))
        x = pack_graphs([small, real, small]).x
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x[:3], small.node_features)
        assert x[3:5].tobytes() == real.node_features.tobytes()
        np.testing.assert_array_equal(x[5:], small.node_features)

    def test_pack_rejects_bad_adjacency(self):
        x = np.zeros((3, 3))
        cases = {
            "bond lists must be (E, 2) integer arrays": (
                np.array([[0.0, 1.0]]), np.array([0, 1]),
                np.array([[0, 1, 2]])),
            "bond index outside its graph": (
                np.array([[0, 3]]), np.array([[-1, 0]])),
            "bond list has a self-bond or a repeated pair": (
                np.array([[1, 1]]), np.array([[0, 1], [0, 1]]),
                np.array([[0, 1], [2, 0], [1, 0]])),
        }
        good = MolecularGraph(node_features=x, bonds=np.array([[0, 1]]))
        for message, bad in cases.items():
            for bonds in bad:
                graph = MolecularGraph(node_features=x, bonds=bonds)
                with pytest.raises(ShapeError, match=re.escape(message)):
                    pack_graphs([good, graph])
        with pytest.raises(ShapeError):
            pack_graphs([])


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
            p = scores(model, [g])[0]
            for _ in range(3):
                gp = permute_graph(g, rng.permutation(g.num_nodes))
                assert abs(scores(model, [gp])[0] - p) <= 1e-12


def molecules():
    """Featurized drug-like and small molecules, 1 to 37 atoms."""
    small = ("CCN", "N#CC", "c1ccncc1", "NCc1ccccc1", "CCCl", "OC(=O)C",
             "C1CCCCC1", "CC(C)C")
    return [ingest_smiles(s) for s in DRUG_LIKE_SMILES + small]


def mc_scores(model, graphs, samples, seed=9, batch_size=32):
    return predict_probabilities(model, graphs, "mc_dropout", samples,
                                 seed, batch_size)


def record_packs(monkeypatch, model):
    """List, per forward of `model`, the node counts of its packed graph
    copies and the rows of its input features."""
    packed = []
    forward = model.forward

    def recording(batch, **kwargs):
        packed.append((batch.segments.sizes.tolist(), batch.x.shape[0]))
        return forward(batch, **kwargs)

    monkeypatch.setattr(model, "forward", recording)
    return packed


class TestMcDropout:
    def test_zero_rate_is_exactly_deterministic(self):
        cfg = ModelConfig(dropout_rate=0.0, **SMALL)
        model = GnnModel(cfg, seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, cfg.input_dim) for n in (6, 1, 4)]
        det = predict_probabilities(model, graphs, "deterministic", 30, 9,
                                    32)
        np.testing.assert_array_equal(det, scores(model, graphs))
        for samples in (1, 3, 30):
            np.testing.assert_array_equal(mc_scores(model, graphs, samples),
                                          det)

    def test_stochastic_passes_differ(self):
        cfg = ModelConfig(dropout_rate=0.4, **SMALL)
        model = GnnModel(cfg, seed=2)
        g = random_graph(np.random.default_rng(1), 6, cfg.input_dim)
        # one pass per list entry, all in one forward: each entry draws
        # its masks from its own (seed, index) stream
        passes = mc_scores(model, [g] * 16, samples=1)
        assert len(np.unique(passes)) == 16
        assert np.all((passes > 0.0) & (passes < 1.0))
        assert scores(model, [g])[0] not in passes

    def test_mc_reproducible_from_seed(self):
        cfg = ModelConfig(dropout_rate=0.4, **SMALL)
        model = GnnModel(cfg, seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, cfg.input_dim) for n in (6, 3)]
        a = mc_scores(model, graphs, samples=8, seed=9)
        np.testing.assert_array_equal(a, mc_scores(model, graphs, 8, seed=9))
        assert not np.any(a == mc_scores(model, graphs, 8, seed=10))

    def test_sample_count_override(self, monkeypatch):
        cfg = ModelConfig(dropout_rate=0.2, **SMALL)
        model = GnnModel(cfg, seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, cfg.input_dim) for n in (5, 2, 4)]
        packed = record_packs(monkeypatch, model)
        mc_scores(model, graphs, samples=7)
        # one forward of 7 copies of each molecule, whose input rows hold
        # each molecule once
        assert packed == [([5] * 7 + [2] * 7 + [4] * 7, 11)]

    @pytest.mark.parametrize("mode, samples, forwards", [
        ("mc_dropout", 4, 2),  # 8 molecules of 4 copies each per forward
        ("mc_dropout", 40, 10),  # over batch_size: one molecule per forward
        ("deterministic", 4, 1),
    ])
    def test_forward_packs_up_to_batch_size_copies(self, monkeypatch, mode,
                                                   samples, forwards):
        model = GnnModel(ModelConfig(dropout_rate=0.2, **SMALL), seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, int(n), SMALL["input_dim"])
                  for n in rng.integers(1, 6, size=10)]
        packed = record_packs(monkeypatch, model)
        predict_probabilities(model, graphs, mode, samples, 0, 32)
        copies = samples if mode == "mc_dropout" else 1
        assert len(packed) == forwards
        # each molecule's copies are adjacent, and every molecule is in
        # exactly one forward
        molecules = [sizes[::copies] for sizes, _ in packed]
        for sizes, (copy_sizes, _) in zip(molecules, packed):
            assert np.repeat(sizes, copies).tolist() == copy_sizes
        assert sum(molecules, []) == [g.num_nodes for g in graphs]
        assert max(len(sizes) for sizes, _ in packed) <= max(32, samples)

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_prefix_sharing_is_bitwise(self, embed, readout):
        model = GnnModel(ModelConfig(node_embedding=embed, readout=readout,
                                     dropout_rate=0.2), seed=3)
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng, int(n), 58, p=2.2 / n)
                  for n in rng.integers(2, 40, size=4)]
        for chunk, copies in ((graphs, 2), (graphs[:1], 30),
                              ([one_atom(58)], 30), ([one_atom(58)] * 2, 3)):
            for dtype in (np.float64, np.float32):
                assert prefix_sharing_gap(model, chunk, copies, seed=5,
                                          dtype=dtype) == 0.0, dtype

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_float32_scores_match_float64_within_1e6(self, embed, readout):
        # featurized molecules, as MC scoring sees them, at the default
        # model size
        for rate, seed in ((0.1, 1), (0.5, 2)):
            model = GnnModel(ModelConfig(node_embedding=embed,
                                         readout=readout, dropout_rate=rate),
                             seed=seed)
            assert mc_precision_gap(model, molecules(), 30, seed=7) <= 1e-6

    def test_float32_scores_of_a_trained_model_match_float64(
            self, toy_raw_config):
        raw = dict(toy_raw_config,
                   model={"node_embedding": "gat", "dropout_rate": 0.2},
                   training=dict(toy_raw_config["training"], epochs=10))
        model = runner.train_run(resolve_config(raw), seed=0).model
        assert mc_precision_gap(model, molecules(), 30, seed=7) <= 1e-6

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_float32_shift_is_small_against_the_mc_error(self, embed,
                                                         readout):
        # float32 rounding grows with the activations: with every weight
        # scaled up 3x, scores move by up to 3.3e-5, above 1e-6 but under
        # 0.1% of their Monte Carlo standard error at T=30
        for scale in (1.5, 3.0):
            model = GnnModel(ModelConfig(node_embedding=embed,
                                         readout=readout, dropout_rate=0.5),
                             seed=2)
            for p in model.params.values():
                p.data = p.data * scale
            assert mc_precision_gap(model, molecules(), 30, seed=7,
                                    per_error=True) <= 0.05

    def test_mc_scores_use_float32_copies(self, monkeypatch):
        model = GnnModel(ModelConfig(dropout_rate=0.2, **SMALL), seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, SMALL["input_dim"]) for n in (5, 2)]
        dtypes = []
        forward = model.forward

        def recording(batch, **kwargs):
            dtypes.append(batch.x.dtype)
            return forward(batch, **kwargs)

        monkeypatch.setattr(model, "forward", recording)
        mc = mc_scores(model, graphs, samples=4)
        det = scores(model, graphs)
        assert dtypes == [np.float32, np.float64]
        assert mc.dtype == det.dtype == np.float64

    def test_scores_move_with_chunking_by_float_rounding_only(self):
        # BLAS rounds a product's rows by the row count, so chunking moves
        # scores, by a few ulp at most: of float64 in deterministic
        # scoring, of float32 in MC dropout
        model = GnnModel(ModelConfig(node_embedding="gat", dropout_rate=0.2),
                         seed=3)
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, int(n), 58, p=2.2 / n)
                  for n in rng.integers(1, 40, size=40)]
        for mode, atol in (("deterministic", 1e-14), ("mc_dropout", 1e-6)):
            runs = [predict_probabilities(model, graphs, mode, 30, 7, size)
                    for size in (1, 32, 960)]
            for run in runs[1:]:
                np.testing.assert_allclose(run, runs[0], rtol=0, atol=atol)


class TestComputeDtype:
    """A forward runs in its pack's dtype: every op node, and every
    gradient the backward pass hands on, has the pack's dtype."""

    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    @pytest.mark.parametrize("param_dtype, pack_dtype, training", [
        pytest.param(np.float32, np.float32, False, id="float32-float32"),
        pytest.param(np.float64, np.float64, False, id="float64-float64"),
        # as MC scoring runs: parameters cast
        pytest.param(np.float64, np.float32, False, id="float64-float32"),
        # as training runs: parameters cast, and the logits cast up for a
        # float64 loss
        pytest.param(np.float64, np.float32, True, id="training"),
    ])
    def test_tape_keeps_the_pack_dtype(self, monkeypatch, embed, readout,
                                       param_dtype, pack_dtype, training):
        model = GnnModel(ModelConfig(node_embedding=embed, readout=readout,
                                     dropout_rate=0.2, **SMALL), seed=2)
        for p in model.params.values():
            p.data = p.data.astype(param_dtype)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, SMALL["input_dim"])
                  for n in (5, 1, 3)]
        handed_on = []  # (tensor, gradient's dtype, dtype it is kept in)
        accum = ad._accum

        def recording(t, g):
            accum(t, g)
            if t.requires_grad:
                handed_on.append((t, g.dtype, t.grad.dtype))

        monkeypatch.setattr(ad, "_accum", recording)
        logits = model.forward(pack_graphs(graphs, dtype=pack_dtype),
                               training=True,
                               rng=[(np.random.default_rng(0), 9)])
        if training:
            loss = LossConfig().compute(np.array([1.0, 0.0, 1.0]),
                                        ad.cast(logits, np.float64))
        else:
            loss = ad.logit_loss(logits,
                                 np.array([1, 0, 1], dtype=pack_dtype))
        ad.backward(loss)
        assert loss.data.dtype == (np.float64 if training else pack_dtype)
        forward = [n for n in ad._topo_order(logits) if n._parents]
        assert {n.data.dtype for n in forward} == {np.dtype(pack_dtype)}
        # every gradient is kept in its tensor's dtype: a parameter's in
        # its own, the float32 logits' in float32 under a float64 loss
        assert all(kept == t.data.dtype for t, _, kept in handed_on)
        for name, p in model.params.items():
            assert p.grad.dtype == param_dtype, name
        # and the forward's ops hand on gradients of the pack's dtype;
        # only the loss's cast up hands the logits a float64 one
        inner = {id(n) for n in forward if not (training and n is logits)}
        assert {handed for t, handed, _ in handed_on if id(t) in inner} == {
            np.dtype(pack_dtype)}

    def test_float32_gradients_match_float64(self):
        # the cast passes gradients through: a float32 forward of float64
        # parameters gives float64 gradients close to a float64 forward's
        model = GnnModel(ModelConfig(node_embedding="gat", **SMALL), seed=2)
        rng = np.random.default_rng(1)
        graphs = [random_graph(rng, n, SMALL["input_dim"])
                  for n in (5, 1, 3)]
        grads = {}
        for dtype in (np.float64, np.float32):
            model.zero_grad()
            logits = model.forward(pack_graphs(graphs, dtype=dtype))
            ad.backward(ad.logit_loss(logits,
                                      np.array([1, 0, 1], dtype=dtype)))
            grads[dtype] = {n: p.grad for n, p in model.params.items()}
        for name, g in grads[np.float64].items():
            np.testing.assert_allclose(grads[np.float32][name], g,
                                       rtol=1e-4, atol=1e-5, err_msg=name)
        # as training runs, with the logits cast up for a float64 loss,
        # for each layer, readout and dropout rate at the default size
        graphs = molecules()
        targets = [i % 2 for i in range(len(graphs))]
        for embed in ("gcn", "gat"):
            for readout in ("sum", "attn"):
                for rate, seed in ((0.0, 1), (0.2, 2), (0.5, 3)):
                    model = GnnModel(ModelConfig(node_embedding=embed,
                                                 readout=readout,
                                                 dropout_rate=rate),
                                     seed=seed)
                    gap = train_precision_gap(model, graphs, targets,
                                              seed=seed)
                    assert gap <= 1e-3, (embed, readout, rate, gap)


class TestTrainingPrecision:
    """Training computes in float32 over float64 parameters, gradients,
    optimizer state and loss."""

    def test_float32_gradients_of_a_trained_model_match_float64(
            self, toy_raw_config):
        raw = dict(toy_raw_config,
                   model={"node_embedding": "gcn", "dropout_rate": 0.2},
                   training=dict(toy_raw_config["training"], epochs=10))
        model = runner.train_run(resolve_config(raw), seed=0).model
        graphs = molecules()
        targets = [i % 2 for i in range(len(graphs))]
        assert train_precision_gap(model, graphs, targets) <= 1e-3

    def test_training_packs_float32_over_float64_state(self, monkeypatch,
                                                       toy_raw_config):
        packed = []

        def recording(graphs, copies=1, dtype=np.float64):
            packed.append(np.dtype(dtype))
            return pack_graphs(graphs, copies, dtype)

        optimizers = []

        class RecordingAdamW(runner.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.grad_dtypes = set()
                optimizers.append(self)

            def step(self, lr=None):
                self.grad_dtypes.update(p.grad.dtype
                                        for p in self.params.values())
                super().step(lr)

        losses = []
        compute = LossConfig.compute

        def recording_compute(self, y, z):
            loss = compute(self, y, z)
            losses.append((z.data.dtype, loss.data.dtype))
            return loss

        monkeypatch.setattr(runner, "pack_graphs", recording)
        monkeypatch.setattr(runner, "AdamW", RecordingAdamW)
        monkeypatch.setattr(LossConfig, "compute", recording_compute)
        raw = dict(toy_raw_config, model={"dropout_rate": 0.2},
                   training=dict(toy_raw_config["training"], epochs=2))
        result = runner.train_run(resolve_config(raw), seed=0)
        # every minibatch in float32, then the deterministic test pass
        steps = len(losses)
        assert steps > 0
        assert packed == [np.dtype(np.float32)] * steps \
            + [np.dtype(np.float64)]
        # the logits are cast up, so the loss is float64
        assert set(losses) == {(np.dtype(np.float64), np.dtype(np.float64))}
        (opt,) = optimizers
        assert opt.t == steps
        assert opt.grad_dtypes == {np.dtype(np.float64)}
        for name, p in result.model.params.items():
            assert p.data.dtype == np.float64, name
            assert opt.m[name].dtype == opt.v[name].dtype == np.float64, name
        epoch_losses = result.manifest["epoch_losses"]
        assert len(epoch_losses) == 2
        assert all(type(x) is float for x in epoch_losses)  # a C double


class TestThreshold:
    def test_strictly_greater(self, toy_raw_config, monkeypatch):
        # the labels the metrics and the predictions CSV use: 1 iff the
        # probability strictly exceeds the evaluation threshold
        for threshold, probs, y_pred in (
                (0.5, [0.5, 0.5000001, 0.2, 0.9], [0, 1, 0, 1]),
                (0.25, [0.3, 0.25], [1, 0])):
            monkeypatch.setattr(runner, "predict_probabilities",
                                lambda *args, p=probs: np.array(p))
            raw = dict(toy_raw_config, evaluation={"threshold": threshold})
            report, _ = evaluate_model(
                None, [SimpleNamespace(label=y) for y in y_pred],
                resolve_config(raw), seed=0)
            assert report.y_pred.tolist() == y_pred


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
        assert scores(clone, [g]) == scores(model, [g])

    def test_file_is_json_dumps_of_payload(self, tmp_path):
        import dataclasses
        import json

        model = GnnModel(ModelConfig(**SMALL), seed=12)
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        payload = {
            "format_version": 1,
            "kind": "molcalib-checkpoint",
            "config": dataclasses.asdict(model.config),
            "params": {name: t.data.tolist()
                       for name, t in model.params.items()},
        }
        assert path.read_bytes() == json.dumps(payload).encode("utf-8")
        clone = load_checkpoint(str(path))
        for name, t in model.params.items():
            assert clone.params[name].data.tobytes() == t.data.tobytes()

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
        with open(path) as f:
            payload = json.load(f)
        payload["format_version"] = 99
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(SchemaError):
            load_checkpoint(path)


class TestModelGradients:
    @pytest.mark.parametrize("embed", ["gcn", "gat"])
    @pytest.mark.parametrize("readout", ["sum", "attn"])
    def test_full_model_finite_differences(self, embed, readout):
        # two copies run layer 0 once and repeat its rows, so the gradient
        # also passes the row repeat's backward
        cfg = ModelConfig(node_embedding=embed, readout=readout, **SMALL)
        model = GnnModel(cfg, seed=13)
        graph = random_graph(np.random.default_rng(14), 6, cfg.input_dim)
        for copies in (1, 2):
            batch = pack_graphs([graph], copies)

            def loss():
                gap = ad.sigmoid(model.forward(batch)) + -0.3
                return ad.tensor_sum(gap * gap)

            ad.backward(loss())
            for name, p in model.params.items():
                fd = numeric_gradient(lambda: loss().item(), p.data)
                np.testing.assert_allclose(
                    p.grad, fd, rtol=1e-4, atol=1e-8,
                    err_msg=f"{embed}/{readout} x{copies} gradient mismatch "
                            f"for {name}",
                )
            model.zero_grad()
