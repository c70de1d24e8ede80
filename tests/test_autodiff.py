"""Autodiff engine tests.

Analytic gradients are validated against central finite differences; the
oracle mutates the underlying parameter array in place and re-runs the
forward closure, so it shares no code with the backward rules it checks.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from molcalib import autodiff as ad
from molcalib.errors import NumericalError, ShapeError, TapeError
from molcalib.losses import LossConfig
from molcalib.model import GnnModel, ModelConfig, pack_graphs
from molcalib.selftest import (
    gcn_conv_gap,
    numeric_gradient,
    random_bonds,
    random_graph,
)


def check_grads(build, params, rtol=1e-4, atol=1e-7):
    """build() -> scalar Tensor; params: list of leaf Tensors to check."""
    loss = build()
    ad.backward(loss)
    for p in params:
        fd = numeric_gradient(lambda: build().item(), p.data)
        np.testing.assert_allclose(p.grad, fd, rtol=rtol, atol=atol)
        p.zero_grad()


class TestForwardSemantics:
    def test_matmul_shapes(self):
        a = ad.Tensor(np.arange(6.0).reshape(2, 3))
        b = ad.Tensor(np.arange(12.0).reshape(3, 4))
        assert ad.matmul(a, b).shape == (2, 4)
        v = ad.Tensor(np.ones(3))
        assert ad.matmul(v, b).shape == (4,)
        assert ad.matmul(a, v).shape == (2,)
        w = ad.Tensor(np.array([1.0, 2.0, 3.0]))
        assert ad.matmul(v, w).item() == 6.0

    def test_sum_axes(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ad.tensor_sum(a).item() == 10.0
        np.testing.assert_array_equal(ad.tensor_sum(a, axis=0).data,
                                      [4.0, 6.0])
        np.testing.assert_array_equal(ad.tensor_sum(a, axis=1).data,
                                      [3.0, 7.0])

    def test_concat_1d(self):
        out = ad.concat([ad.Tensor([1.0]), ad.Tensor([2.0, 3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_2d_cols(self):
        a = ad.Tensor(np.ones((2, 2)))
        b = ad.Tensor(np.zeros((2, 3)))
        assert ad.concat([a, b], axis=1).shape == (2, 5)

    def test_broadcast_add_row_bias(self):
        h = ad.Tensor(np.zeros((3, 4)))
        bias = ad.Tensor(np.arange(4.0))
        out = h + bias
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

    def test_scalar_mul(self):
        a = ad.Tensor([1.0, 2.0])
        np.testing.assert_array_equal((2.5 * a).data, [2.5, 5.0])
        np.testing.assert_array_equal((a * -1.0).data, [-1.0, -2.0])


class TestErrors:
    def test_3d_rejected(self):
        with pytest.raises(ShapeError):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            ad.Tensor(np.ones((2, 3))) + ad.Tensor(np.ones((3, 2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_caught(self):
        big = ad.Tensor(np.full((2, 2), 1e308))
        with pytest.raises(NumericalError):
            ad.matmul(big, big)

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor([1.0]), 1.0, True,
                       [(np.random.default_rng(0), 1)])


class TestTapeSemantics:
    def test_backward_needs_scalar(self):
        a = ad.Tensor(np.ones(3), requires_grad=True)
        out = a * 2.0
        with pytest.raises(TapeError):
            ad.backward(out)

    def test_backward_needs_recorded_value(self):
        with pytest.raises(TapeError):
            ad.backward(ad.Tensor(1.0, requires_grad=True))

    def test_leaf_accumulation_doubles(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.tensor_sum(a * a)
        ad.backward(loss)
        first = a.grad.copy()
        ad.backward(loss)
        np.testing.assert_array_equal(a.grad, 2.0 * first)
        a.zero_grad()
        assert a.grad is None

    def test_diamond_reuse(self):
        # f = sum(x*x) + sum(x): d/dx = 2x + 1, x feeding two branches
        x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = ad.tensor_sum(x * x) + ad.tensor_sum(x)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)

    def test_constant_subgraph_not_tracked(self):
        a = ad.Tensor([1.0, 2.0])
        out = ad.tensor_sum(a * 3.0)
        assert not out.requires_grad
        assert out._parents == ()

    def test_mixed_batch_graph(self):
        # two forward passes joined into one loss reach the shared leaf once
        w = ad.Tensor([[1.0], [2.0]], requires_grad=True)
        x1 = ad.Tensor(np.array([[1.0, 0.0]]))
        x2 = ad.Tensor(np.array([[0.0, 1.0]]))
        loss = (ad.tensor_sum(ad.matmul(x1, w))
                + ad.tensor_sum(ad.matmul(x2, w)))
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [[1.0], [1.0]])


def training_step_loss():
    """The loss of one step of the default GCN+attn model on a fixed batch
    of 32 molecule-sized random graphs (about 1100 atoms), the model, and
    the batch."""
    rng = np.random.default_rng(0)
    config = ModelConfig()
    graphs = [random_graph(rng, int(n), config.input_dim, p=2.2 / n)
              for n in rng.integers(20, 50, size=32)]
    batch = pack_graphs(graphs)
    targets = (rng.random(32) < 0.5).astype(np.float64)
    model = GnnModel(config, seed=0)

    def loss():
        return LossConfig().compute(targets,
                                    model.forward(batch, training=True))

    return loss, model, batch


class TestTapeLifetime:
    def test_backward_leaves_only_leaf_gradients(self):
        build, model, _ = training_step_loss()
        loss = build()
        interior = [node for node in ad._topo_order(loss) if node._parents]
        ad.backward(loss)
        assert interior and all(node.grad is None for node in interior)
        assert all(p.grad is not None for p in model.params.values())

    def test_step_peak_stays_near_the_forward_tape(self):
        # in units of one (N, d) float64 activation: the tape holds about
        # 10 (the input features and their projection, and each of the 4
        # layers' GCN output and residual sum), and each interior gradient
        # is freed once passed on, so backward adds a few units to the
        # tape, not a second tape
        build, model, batch = training_step_loss()
        unit = batch.x.shape[0] * model.config.hidden_dim * 8
        build()  # warm up, so that one-time allocations are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = build()
            tape = tracemalloc.get_traced_memory()[0] - base
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tape <= 12 * unit, f"tape {tape / unit:.1f} units"
        assert peak <= 21 * unit, f"peak {peak / unit:.1f} units"


class TestGradientOracle:
    def test_elementwise_chain(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            x = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)

            def build():
                return ad.tensor_sum(ad.sigmoid(x * 2.0) * ad.sigmoid(x)
                                     + x * 0.5)

            check_grads(build, [x])

    def test_matmul_all_shapes(self):
        rng = np.random.default_rng(6)
        a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_grads(lambda: ad.tensor_sum(ad.matmul(a, b)), [a, b])
        v = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        check_grads(lambda: ad.tensor_sum(ad.matmul(v, a)), [v, a])
        w = ad.Tensor(rng.standard_normal(4), requires_grad=True)
        check_grads(lambda: ad.tensor_sum(ad.matmul(a, w)), [a, w])
        u = ad.Tensor(rng.standard_normal(4), requires_grad=True)
        check_grads(lambda: ad.matmul(w, u), [w, u])

    def test_softmax_gradient(self):
        # a softmax over each row of a (3, 5) matrix, as three segments:
        # pooling identity rows leaves 5 times each weight in its column
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.standard_normal(15), requires_grad=True)
        t = ad.Tensor(rng.standard_normal((3, 15)))
        seg = ad.Segments([5, 5, 5])
        eye = ad.Tensor(np.eye(15))
        check_grads(
            lambda: ad.tensor_sum(ad.attention_pool(eye, x, seg, 1.0) * t),
            [x])

    def test_concat_gradient(self):
        rng = np.random.default_rng(9)
        a = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        u = ad.Tensor(rng.standard_normal(2), requires_grad=True)
        v = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        t = ad.Tensor(rng.standard_normal((4, 5)))

        def build_2d():
            c = ad.concat([a, b], axis=1)
            return ad.tensor_sum(c * c * t)

        def build_1d():
            c = ad.concat([u, v])
            return ad.tensor_sum(c * c * c)

        check_grads(build_2d, [a, b])
        check_grads(build_1d, [u, v])

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(10)
        h = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        bias = ad.Tensor(rng.standard_normal(3), requires_grad=True)
        check_grads(lambda: ad.tensor_sum(ad.relu(h + bias)), [h, bias])

    def test_small_mlp_end_to_end(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((6, 4)))
        w1 = ad.Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
        b1 = ad.Tensor(np.zeros(5), requires_grad=True)
        w2 = ad.Tensor(rng.standard_normal((5, 1)) * 0.5, requires_grad=True)

        def build():
            hidden = ad.relu(ad.matmul(x, w1) + b1)
            return ad.tensor_sum(ad.sigmoid(ad.matmul(hidden, w2)))

        check_grads(build, [w1, b1, w2])

    def test_repeat_rows_gradient(self):
        rng = np.random.default_rng(13)
        a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        t = ad.Tensor(rng.standard_normal((7, 4)))
        rows = np.array([0, 1, 2, 0, 1, 2, 2])
        out = ad.repeat_rows(a, rows)
        np.testing.assert_array_equal(out.data, a.data[rows])
        check_grads(lambda: ad.tensor_sum(ad.repeat_rows(a, rows) * t), [a])

    def test_dropout_gradient_with_fixed_mask(self):
        x = ad.Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)

        def build():
            rng = np.random.default_rng(99)  # same mask every call
            d = ad.dropout(x, 0.5, True, [(rng, 3)])
            return ad.tensor_sum(d * d)

        check_grads(build, [x])


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax weights of each row of `x`, read off the attention readout
    of identity rows scored by `x`: row i of the identity pools to column
    i, at the segment size times its weight."""
    rows, cols = x.shape
    seg = ad.Segments([cols] * rows)
    pooled = ad.attention_pool(ad.Tensor(np.eye(x.size)), ad.Tensor(x.ravel()),
                               seg, 1.0).data
    return pooled.sum(axis=0).reshape(x.shape) / cols


class TestElementwiseSemantics:
    """relu, sigmoid and the attention readout's softmax, forward and
    backward; softmax here has one segment per matrix row."""

    def test_relu(self):
        x = ad.Tensor([-2.0, 0.0, 3.5], requires_grad=True)
        out = ad.relu(x)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.5])
        # gradient passes only where the input is strictly positive
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_range_and_midpoint(self):
        s = ad.sigmoid(ad.Tensor([0.0, 30.0, -30.0])).data
        assert s[0] == 0.5
        assert 0.0 < s[2] < s[1] < 1.0

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(3).standard_normal((6, 11)) * 10
        s = row_softmax(x)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_softmax_overflow_guard(self):
        # the row max is subtracted first, so large logits cannot overflow
        s = row_softmax(np.array([[1000.0, 1000.0, 999.0]]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_same_tensor(self):
        x = ad.Tensor(np.ones(5), requires_grad=True)
        rng = np.random.default_rng(0)
        assert ad.dropout(x, 0.0, True, [(rng, 5)]) is x
        assert ad.dropout(x, 0.3, False) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(42)
        x = ad.Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.5, True, [(rng, 100_000)])
        assert abs(out.data.mean() - 1.0) < 0.02
        assert set(np.unique(out.data)) == {0.0, 2.0}

    def test_mask_reproducible_from_seed(self):
        x = ad.Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.4, True, [(np.random.default_rng(7), 8)]).data
        b = ad.dropout(x, 0.4, True, [(np.random.default_rng(7), 8)]).data
        np.testing.assert_array_equal(a, b)

    def test_row_blocks_draw_from_their_own_generators(self):
        x = ad.Tensor(np.ones((9, 4)), requires_grad=True)
        out = ad.dropout(x, 0.4, True, [(np.random.default_rng(1), 2),
                                        (np.random.default_rng(2), 7)])
        top = ad.dropout(ad.Tensor(np.ones((2, 4))), 0.4, True,
                         [(np.random.default_rng(1), 2)]).data
        bottom = ad.dropout(ad.Tensor(np.ones((7, 4))), 0.4, True,
                            [(np.random.default_rng(2), 7)]).data
        np.testing.assert_array_equal(out.data, np.vstack([top, bottom]))
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(x.grad, out.data)

    @pytest.mark.parametrize("shape", [(9, 4), (9,)])
    def test_blocks_give_the_float_mask_values(self, shape):
        # each block's raw words in order, split into low then high 32-bit
        # halves by arithmetic, masked as a 0/1 float64 array would
        x = ad.Tensor(np.random.default_rng(3).standard_normal(shape),
                      requires_grad=True)
        sizes = (2, 0, 7)
        width = int(np.prod(shape[1:]))
        out = ad.dropout(x, 0.3, True, [(np.random.default_rng(i), n)
                                        for i, n in enumerate(sizes)])
        halves = []
        for i, n in enumerate(sizes):
            words = np.random.default_rng(i).bit_generator.random_raw(
                (n * width + 1) // 2)
            pairs = np.stack([words & 0xFFFFFFFF, words >> np.uint64(32)], 1)
            halves.append(pairs.ravel()[:n * width])
        kept = np.concatenate(halves) >= round(0.3 * 2 ** 32)
        mask = kept.reshape(shape).astype(np.float64)
        assert out.data.tobytes() == (x.data * mask * (1.0 / 0.7)).tobytes()
        ad.backward(ad.tensor_sum(out))
        assert x.grad.tobytes() == (mask * (1.0 / 0.7)).tobytes()

    def test_keep_rate(self):
        n = 1_000_000
        out = ad.dropout(ad.Tensor(np.ones((1000, n // 1000))), 0.2, True,
                         [(np.random.default_rng(11), 1000)])
        kept = np.count_nonzero(out.data)
        p = 1.0 - round(0.2 * 2 ** 32) / 2 ** 32
        assert abs(kept - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p))

    def test_float32_and_float64_draw_one_mask(self):
        x = np.random.default_rng(4).standard_normal((13, 5))
        masks = []
        for dtype in (np.float64, np.float32):
            blocks = [(np.random.default_rng(9), 6),
                      (np.random.default_rng(10), 7)]
            out = ad.dropout(ad.Tensor(x.astype(dtype)), 0.3, True, blocks)
            assert out.data.dtype == dtype
            masks.append(out.data != 0.0)
        np.testing.assert_array_equal(masks[0], masks[1])

    @pytest.mark.parametrize("word, kept", [(2 ** 64 - 1, True),
                                            (0xFFFFFFFE_FFFFFFFE, False)])
    def test_rate_near_one_caps_the_threshold(self, word, kept):
        # round((1 - 2**-40) * 2**32) is 2**32, one past the largest half;
        # capped at 2**32 - 1, only an all-ones half keeps its entry
        gen = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=lambda size: np.full(size, word, dtype=np.uint64)))
        rate = 1.0 - 2.0 ** -40
        out = ad.dropout(ad.Tensor(np.ones((3, 3))), rate, True, [(gen, 3)])
        expected = 1.0 / (1.0 - rate) if kept else 0.0
        np.testing.assert_array_equal(out.data, np.full((3, 3), expected))

    def test_scale_mask(self):
        # kept entries scale by 1/(1 - rate), forward and backward alike
        rng = np.random.default_rng(0)
        x = ad.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        out = ad.dropout(x, 0.5, True, [(rng, 4)])
        kept = out.data != 0.0
        np.testing.assert_array_equal(out.data,
                                      np.where(kept, 2.0 * x.data, 0.0))
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(x.grad, np.where(kept, 2.0, 0.0))

    @pytest.mark.parametrize("rows", [(2, 6), (2, 8)])
    def test_row_blocks_must_tile_the_rows(self, rows):
        x = ad.Tensor(np.ones((9, 4)))
        blocks = [(np.random.default_rng(i), n) for i, n in enumerate(rows)]
        with pytest.raises(ShapeError, match="do not tile the rows"):
            ad.dropout(x, 0.4, True, blocks)


def dense_adjacency(bonds, n):
    """The self-looped (n, n) 0/1 matrix a bond list stands for."""
    a = np.eye(n)
    a[bonds[:, 0], bonds[:, 1]] = a[bonds[:, 1], bonds[:, 0]] = 1.0
    return a


def random_neighbors(rng, n):
    bonds = random_bonds(rng, n)
    return dense_adjacency(bonds, n), ad.Neighbors(bonds, n)


class TestPackedGraphOps:
    def test_neighbor_ops_match_dense_adjacency(self):
        rng = np.random.default_rng(0)
        a, nb = random_neighbors(rng, 7)
        x = rng.standard_normal((7, 3))
        q = rng.standard_normal((7, 3))
        np.testing.assert_allclose(nb.sum(x), a @ x, atol=1e-14)
        conv = ad.gcn_conv(ad.Tensor(x), ad.Tensor(np.eye(3)), nb)
        np.testing.assert_allclose(conv.data, np.maximum(a @ x, 0.0),
                                   atol=1e-14)
        gathered = nb.gather(x)
        for i in range(7):
            listed = nb.index[i][nb.index[i] < 7]
            # each row lists itself and its bonded rows, in ascending order
            np.testing.assert_array_equal(listed, np.flatnonzero(a[i]))
            np.testing.assert_array_equal(gathered[i, :listed.size],
                                          x[listed])
            assert np.all(gathered[i, listed.size:] == 0.0)
        alpha = np.tanh(0.7 * (q @ x.T)) * a  # every pair, masked
        out = ad.neighbor_attention(ad.Tensor(q), ad.Tensor(x), nb, 0.7)
        np.testing.assert_allclose(out.data, alpha @ x, atol=1e-14)

    def test_mirror_names_the_reverse_slot(self):
        _, nb = random_neighbors(np.random.default_rng(1), 9)
        for i in range(9):
            for k, j in enumerate(nb.index[i]):
                if j < 9:
                    assert nb.index[j, nb.mirror[i, k]] == i

    def test_neighbor_gathers_keep_float32(self):
        rng = np.random.default_rng(4)
        _, nb = random_neighbors(rng, 8)
        x = rng.standard_normal((8, 3))
        w = rng.standard_normal(nb.index.shape)
        for op, arg in ((nb.sum, x), (nb.gather, x), (nb.transpose, w)):
            got = op(arg.astype(np.float32))
            assert got.dtype == np.float32, op.__name__
            np.testing.assert_allclose(got, op(arg), rtol=1e-6, atol=1e-6)

    def test_neighbor_gradients(self):
        rng = np.random.default_rng(2)
        _, nb = random_neighbors(rng, 6)
        x = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        q = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        p = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def build():
            out = ad.neighbor_attention(q, p, nb, 0.7)
            return ad.tensor_sum(out * out)

        def build_shared():
            # as in a GAT layer: the queries are a product of the values
            h = ad.gcn_conv(x, w, nb)
            out = ad.neighbor_attention(ad.matmul(h, w), h, nb, 0.7)
            return ad.tensor_sum(out * out)

        check_grads(build, [q, p])
        check_grads(build_shared, [x, w])

    def test_gcn_conv_gradients(self):
        # a 5-atom graph and a one-atom graph: most neighbour lists end in
        # pad slots, and the lone atom lists only itself
        rng = np.random.default_rng(5)
        nb = ad.Neighbors(np.array([[0, 1], [1, 2], [2, 3], [1, 4]]), 6)
        assert nb.index[5, 0] == 5 and np.all(nb.index[5, 1:] == 6)
        h = ad.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        t = ad.Tensor(rng.standard_normal((6, 3)))
        check_grads(lambda: ad.tensor_sum(ad.gcn_conv(h, w, nb) * t), [h, w])

    @pytest.mark.parametrize("seed", range(3))
    def test_gcn_conv_matches_the_sum_before_the_product(self, seed):
        rng = np.random.default_rng(seed)
        sizes = (7, 1, 4)
        graphs = [random_graph(rng, n, 3, p=0.5) for n in sizes]
        nb = pack_graphs(graphs).neighbors
        n, d = sum(sizes), 16
        gap = gcn_conv_gap(rng.standard_normal((n, d)),
                           rng.standard_normal((d, d)), nb,
                           rng.standard_normal((n, d)))
        assert gap <= 1e-12

    def test_gcn_conv_keeps_only_its_output(self):
        rng = np.random.default_rng(6)
        _, nb = random_neighbors(rng, 5)
        h = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        out = ad.gcn_conv(h, w, nb)
        assert out._parents == (h, w)
        with pytest.raises(ShapeError):
            ad.gcn_conv(h, ad.Tensor(np.ones((2, 3))), nb)
        with pytest.raises(ShapeError):
            ad.gcn_conv(ad.Tensor(np.ones((4, 3))), w, nb)

    def test_segment_ops_match_per_segment_loops(self):
        rng = np.random.default_rng(3)
        seg = ad.Segments([3, 1, 4])
        x = rng.standard_normal((8, 2))
        v = rng.standard_normal(2)
        sums = ad.segment_sum(ad.Tensor(x), seg).data
        pooled = ad.attention_pool(ad.Tensor(x), ad.Tensor(v), seg, 0.7).data
        for b, (lo, hi) in enumerate([(0, 3), (3, 4), (4, 8)]):
            np.testing.assert_allclose(sums[b], x[lo:hi].sum(axis=0),
                                       atol=1e-14)
            e = np.exp(0.7 * (x[lo:hi] @ v))
            weights = (hi - lo) * e / e.sum()
            np.testing.assert_allclose(pooled[b], weights @ x[lo:hi],
                                       atol=1e-14)

    def test_segment_gradients(self):
        rng = np.random.default_rng(4)
        seg = ad.Segments([2, 3, 1])
        x = ad.Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        v = ad.Tensor(rng.standard_normal(2), requires_grad=True)

        def build():
            s = ad.attention_pool(x, v, seg, 0.7) + ad.segment_sum(x, seg)
            return ad.tensor_sum(s * s)

        check_grads(build, [x, v])

    def test_bad_segments_rejected(self):
        for sizes in ([], [2, 0], [[1, 2]]):
            with pytest.raises(ShapeError):
                ad.Segments(sizes)
        with pytest.raises(ShapeError):
            ad.segment_sum(ad.Tensor(np.ones(4)), ad.Segments([2, 1]))


class TestNoGrad:
    def test_ops_record_no_parents(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            out = ad.relu(ad.matmul(w, w)) + 1.0
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))
        assert ad.matmul(w, w).requires_grad  # recording is back on exit

    def test_recording_restored_after_exception(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NumericalError):
            with ad.no_grad():
                w * np.inf
        out = ad.tensor_sum(w * w)
        assert out.requires_grad and out._parents
        ad.backward(out)
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


def overflowing(sign):
    """A matmul whose every entry overflows to sign * inf."""
    big = ad.Tensor(np.full((2, 2), 1e308))
    return ad.matmul(big, big * sign)


class TestCheckedForward:
    # each op maps a non-finite input to a finite output, so only its
    # input check can see the overflow before it
    ABSORBING = {
        "relu": lambda: ad.relu(overflowing(-1.0)),
        "sigmoid": lambda: ad.sigmoid(overflowing(1.0)),
        "attention_pool": lambda: ad.attention_pool(
            overflowing(-1.0), ad.Tensor([1.0, 1.0]), ad.Segments([2]), 0.5),
        "attention": lambda: ad.neighbor_attention(
            overflowing(1.0), ad.Tensor(np.ones((2, 2))),
            ad.Neighbors(np.zeros((0, 2), dtype=np.intp), 2), 0.5),
    }

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(ABSORBING))
    def test_absorbed_overflow_raises_at_its_op(self, name, monkeypatch):
        build = self.ABSORBING[name]
        with pytest.raises(NumericalError) as checked:
            build()
        with pytest.raises(NumericalError) as deferred:
            ad.checked_forward(build)
        assert str(checked.value) == "non-finite values produced by matmul"
        assert str(deferred.value) == str(checked.value)
        # the attention ops check their scores in every mode
        if name not in ("attention", "attention_pool"):
            # without the input check the deferred pass would miss it
            monkeypatch.setattr(ad, "_check_input", lambda arr, op: None)
            assert np.all(np.isfinite(ad.checked_forward(build).data))

    # finite rows whose scores overflow to -inf: tanh or softmax would
    # turn them into finite weights, and no other op computes the scores
    BIG = np.array([[1e200, 1e200], [0.0, 0.0]])
    OVERFLOWING_SCORES = {
        "neighbor_dot": lambda big: ad.neighbor_attention(
            ad.Tensor(big), ad.Tensor(-big),
            ad.Neighbors(np.zeros((0, 2), dtype=np.intp), 2), 1.0),
        "attention_scores": lambda big: ad.attention_pool(
            ad.Tensor(big), ad.Tensor(-big[0]), ad.Segments([2]), 1.0),
    }

    @pytest.mark.parametrize("op", sorted(OVERFLOWING_SCORES))
    def test_attention_scores_are_checked_in_every_mode(self, op):
        def build():
            return self.OVERFLOWING_SCORES[op](self.BIG)

        with np.errstate(over="ignore"):
            for run in (build, lambda: ad.checked_forward(build)):
                with pytest.raises(NumericalError,
                                   match=f"produced by {op}$"):
                    run()

    def test_non_finite_leaf_keeps_the_per_op_outcome(self):
        # a relu of a -inf constant is finite and raises nowhere: the
        # replay returns the checked result
        x = ad.Tensor([-np.inf, 2.0])
        out = ad.checked_forward(lambda: ad.relu(x) + 1.0)
        np.testing.assert_array_equal(out.data, [1.0, 3.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_checks_are_back_on_after_the_pass(self):
        ad.checked_forward(lambda: ad.Tensor([1.0]) + 1.0)
        with pytest.raises(NumericalError):
            overflowing(1.0)
