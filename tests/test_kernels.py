"""Elementwise kernel semantics of the autodiff ops.

relu, sigmoid, softmax and dropout each have one numpy body inside
``molcalib.autodiff``; these cases pin their values, forward and backward.
Softmax is the segment softmax of the attention readout, here with one
segment per matrix row.
"""

import numpy as np

from molcalib import autodiff as ad


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax weights of each row of `x`, read off the attention readout
    of identity rows scored by `x`: row i of the identity pools to column
    i, at the segment size times its weight."""
    rows, cols = x.shape
    seg = ad.Segments([cols] * rows)
    pooled = ad.attention_pool(ad.Tensor(np.eye(x.size)), ad.Tensor(x.ravel()),
                               seg, 1.0).data
    return pooled.sum(axis=0).reshape(x.shape) / cols


class TestKernelSemantics:
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

    def test_scale_mask(self):
        # kept entries scale by 1/(1 - rate), forward and backward alike
        rng = np.random.default_rng(0)
        x = ad.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        out = ad.dropout(x, 0.5, True, rng)
        kept = out.data != 0.0
        np.testing.assert_array_equal(out.data,
                                      np.where(kept, 2.0 * x.data, 0.0))
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(x.grad, np.where(kept, 2.0, 0.0))
