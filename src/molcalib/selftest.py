"""Built-in sanity suite: quick oracle and invariant checks, no pytest.

Each check recomputes its expectation from first principles (loop-based
metric oracles, finite differences, closed-form constants) so a passing
selftest means the fast paths agree with slow, obviously-correct ones.
Run via ``molcalib selftest``; prints one line per check.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import autodiff as ad
from .featurize import MolecularGraph
from .losses import (
    bce_loss,
    entropy_regularized_loss,
    erl_kl_residual,
    focal_loss,
    label_smoothing_loss,
    ls_kl_residual,
    weighted_focal_loss,
)
from .metrics import auroc, ece, screening_curve
from .model import (
    GnnModel,
    ModelConfig,
    attn_pool,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamW


def _random_graph(rng, nodes=6, width=10):
    x = rng.normal(size=(nodes, width))
    a = (rng.random((nodes, nodes)) < 0.4).astype(np.float64)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return MolecularGraph(node_features=x, adjacency=a, label=1)


def check_gradients_finite_difference():
    """Model+loss gradient matches central differences at rtol 1e-4."""
    rng = np.random.default_rng(1)
    graph = _random_graph(rng, nodes=5, width=8)
    config = ModelConfig(node_embedding="gat", readout="attn", num_layers=2,
                         hidden_dim=6, graph_dim=4, input_dim=8)
    model = GnnModel(config, seed=0)

    def loss_value():
        p = model.forward(graph)
        return bce_loss([1.0], ad.stack_scalars([p])).item()

    model.zero_grad()
    ad.backward(bce_loss([1.0],
                         ad.stack_scalars([model.forward(graph)])))
    for name in ("w_in", "w_conv_0", "w_attn_1", "w_clf"):
        tensor = model.params[name]
        flat = tensor.data.ravel()
        grad = np.zeros_like(tensor.data).ravel() \
            if tensor.grad is None else tensor.grad.ravel()
        idx = np.argmax(np.abs(grad))
        keep = flat[idx]
        step = 1e-6 * max(1.0, abs(keep))
        flat[idx] = keep + step
        up = loss_value()
        flat[idx] = keep - step
        down = loss_value()
        flat[idx] = keep
        fd = (up - down) / (2.0 * step)
        rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-10)
        assert rel < 1e-4, f"{name}: fd {fd:.6e} vs grad {grad[idx]:.6e}"


def check_loss_identities():
    """Degenerate-parameter identities and decomposition constants."""
    rng = np.random.default_rng(2)
    n = 64
    y = (rng.random(n) < 0.5).astype(np.float64)
    p = rng.random(n) * 0.98 + 0.01
    bce = bce_loss(y, ad.Tensor(p)).item()
    pairs = [
        ("focal(0) vs bce", focal_loss(y, ad.Tensor(p), 0.0).item(), bce),
        ("smoothing(0) vs bce",
         label_smoothing_loss(y, ad.Tensor(p), 0.0).item(), bce),
        ("entropy(0) vs bce",
         entropy_regularized_loss(y, ad.Tensor(p), 0.0).item(), bce),
        ("weighted(0.5) vs half focal",
         weighted_focal_loss(y, ad.Tensor(p), 0.5, 2.0).item(),
         0.5 * focal_loss(y, ad.Tensor(p), 2.0).item()),
    ]
    for label, got, want in pairs:
        assert abs(got - want) <= 1e-12, f"{label}: {got} vs {want}"
    r = ls_kl_residual(y, p, 0.1)
    assert abs(r - 0.1 * n * math.log(2.0)) <= 1e-10, f"ls residual {r}"
    r = erl_kl_residual(y, p, 0.1)
    assert abs(r + 0.1 * n * math.log(2.0)) <= 1e-10, f"erl residual {r}"


def check_metric_oracles():
    """Vectorized metrics equal loop-based recomputation at 1e-12."""
    rng = np.random.default_rng(3)
    rows = []  # (p_hat, y_pred, y_true)
    for _ in range(200):
        p = round(float(rng.random()), 1)  # coarse grid forces ties
        rows.append((p, int(p > 0.5), int(rng.random() < 0.4)))
    arrays = [np.array(column) for column in zip(*rows)]

    n = len(rows)
    width = 0.1
    slow_ece = 0.0
    for m in range(10):
        lo, hi = m * width, (m + 1) * width
        members = [r for r in rows
                   if (lo < r[0] <= hi) or (m == 0 and r[0] == 0.0)]
        if members:
            acc = sum(yp == yt for _, yp, yt in members) / len(members)
            conf = sum(p for p, _, _ in members) / len(members)
            slow_ece += len(members) / n * abs(acc - conf)
    assert abs(ece(*arrays, 10) - slow_ece) <= 1e-12

    pos = [p for p, _, yt in rows if yt == 1]
    neg = [p for p, _, yt in rows if yt == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a in pos for b in neg)
    assert abs(auroc(*arrays) - wins / (len(pos) * len(neg))) <= 1e-12

    ranked = sorted(range(n), key=lambda i: -rows[i][0])
    for point in screening_curve(*arrays, (10, 50, 100)):
        taken = math.ceil(n * point.k_percent / 100.0)
        hits = sum(rows[i][2] for i in ranked[:taken])
        assert point.screened == taken
        assert abs(point.success_rate - hits / taken) <= 1e-12


def check_permutation_invariance():
    """Predicted probability ignores node numbering to 1e-12."""
    rng = np.random.default_rng(4)
    graph = _random_graph(rng, nodes=7, width=9)
    config = ModelConfig(node_embedding="gcn", readout="attn", num_layers=2,
                         hidden_dim=6, graph_dim=5, input_dim=9)
    model = GnnModel(config, seed=1)
    base = model.predict_proba(graph)
    for _ in range(3):
        perm = rng.permutation(graph.num_nodes)
        shuffled = MolecularGraph(
            node_features=graph.node_features[perm],
            adjacency=graph.adjacency[np.ix_(perm, perm)], label=1)
        assert abs(model.predict_proba(shuffled) - base) <= 1e-12


def check_attention_size_sensitivity():
    """Attention pooling separates 3 vs 4 identical nodes at ratio 4/3."""
    rng = np.random.default_rng(5)
    row = rng.normal(size=4)
    w = ad.Tensor(rng.normal(size=(4, 3)))
    pools = {}
    for k in (3, 4):
        h = ad.Tensor(np.tile(row, (k, 1)))
        pools[k] = attn_pool(h, w).data
    ratio = pools[4] / pools[3]
    assert np.max(np.abs(ratio - 4.0 / 3.0)) <= 1e-12


def check_mc_dropout_zero_rate():
    """MC inference with rate 0 collapses to deterministic, exactly."""
    rng = np.random.default_rng(6)
    graph = _random_graph(rng, nodes=5, width=8)
    config = ModelConfig(num_layers=2, hidden_dim=6, graph_dim=4,
                         input_dim=8, dropout_rate=0.0)
    model = GnnModel(config, seed=2)
    det = model.predict_proba(graph)
    mean, draws = model.predict_mc_dropout(graph, 13,
                                           np.random.default_rng(0))
    assert mean == det
    assert np.all(draws == det)


def check_checkpoint_roundtrip():
    """Saved parameters reload bit-for-bit."""
    config = ModelConfig(num_layers=2, hidden_dim=5, graph_dim=4,
                         input_dim=7)
    model = GnnModel(config, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.json")
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
    for name, p in model.params.items():
        assert np.array_equal(p.data, clone.params[name].data), name


def check_decay_decoupling():
    """Weight decay leaves Adam's moment estimates untouched."""
    histories = []
    for wd in (0.0, 0.3):
        p = {"w": ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        opt = AdamW(p, lr=0.1, weight_decay=wd,
                    decay_exclude=frozenset())
        for step in range(3):
            p["w"].grad = np.array([0.5, -1.0]) * (step + 1)
            opt.step()
        histories.append((opt.m["w"].copy(), opt.v["w"].copy()))
    assert np.array_equal(histories[0][0], histories[1][0])
    assert np.array_equal(histories[0][1], histories[1][1])


CHECKS = [
    ("finite-difference gradients", check_gradients_finite_difference),
    ("loss identities", check_loss_identities),
    ("metric oracles", check_metric_oracles),
    ("permutation invariance", check_permutation_invariance),
    ("attention size sensitivity", check_attention_size_sensitivity),
    ("mc dropout zero rate", check_mc_dropout_zero_rate),
    ("checkpoint roundtrip", check_checkpoint_roundtrip),
    ("decay decoupling", check_decay_decoupling),
]


def run_selftest(log=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            note = check()
        except AssertionError as err:
            failures += 1
            log(f"[SELFTEST] {name:32s} FAIL  {err}")
        else:
            suffix = f"  ({note})" if note else ""
            log(f"[SELFTEST] {name:32s} ok{suffix}")
    log(f"[SELFTEST] {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
