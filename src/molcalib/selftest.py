"""Built-in sanity suite: quick oracle and invariant checks, no pytest.

Each check recomputes its expectation from first principles (loop-based
metric oracles, finite differences, closed-form constants) so a passing
selftest means the fast paths agree with slow, obviously-correct ones.
Run via ``molcalib selftest``; prints one line per check.

This module is the one home of those oracles and invariant checks.  The
acceptance gates and unit tests call the same functions with their own
models, graphs and random streams; the ``check_*`` functions in
:data:`CHECKS` are the small sweeps ``molcalib selftest`` runs.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import autodiff as ad
from .errors import SmilesError
from .featurize import (
    MolecularGraph,
    permute_graph,
    strip_to_largest_component,
)
from .losses import LossConfig, erl_kl_residual, ls_kl_residual
from .metrics import auroc, bin_predictions, ece, screening_curve
from .model import (
    GnnModel,
    ModelConfig,
    attn_pool,
    load_checkpoint,
    pack_graphs,
    save_checkpoint,
)
from .optim import AdamW, OptimizerSettings
from .runner import predict_probabilities
from .smiles import parse_smiles

# -- random inputs ---------------------------------------------------


def random_bonds(rng, n, p=0.6):
    """Each of the n(n-1)/2 node pairs bonded with probability p, listed
    in shuffled order and orientation."""
    first, second = np.triu_indices(n, k=1)
    keep = rng.random(first.size) < p
    bonds = np.stack([first[keep], second[keep]], axis=1)
    flip = rng.random(len(bonds)) < 0.5
    bonds[flip] = bonds[flip, ::-1]
    return bonds[rng.permutation(len(bonds))].astype(np.int32)


def random_graph(rng, n, width, p=0.6):
    """n nodes of standard-normal features, bonded by :func:`random_bonds`."""
    x = rng.standard_normal((n, width))
    return MolecularGraph(node_features=x, bonds=random_bonds(rng, n, p))


# atoms, bracket atoms, ring labels, branches and dots; repeats weight
# the draw
SOUP_TOKENS = (
    *("C", "C", "C", "C", "c", "N", "O", "S", "Cl", "[NH4+]", "[nH]",
      "[Na+]") * 2,
    "1", "2", "3", "%10", "%11", "(", "(", ")", ".", ".",
)


def token_soup(rng, count, max_tokens=16):
    """``count`` strings of 1 to ``max_tokens`` tokens drawn from
    :data:`SOUP_TOKENS`.  Each string then gets a ')' for every '(' left
    open and a second copy of each ring label it holds an odd number of
    times, so that about a third of them parse."""
    soup = []
    for _ in range(count):
        size = int(rng.integers(1, max_tokens + 1))
        tokens = [SOUP_TOKENS[t] for t in rng.integers(len(SOUP_TOKENS),
                                                       size=size)]
        tokens += [")"] * (tokens.count("(") - tokens.count(")"))
        tokens += [t for t in dict.fromkeys(tokens)
                   if t[-1].isdigit() and tokens.count(t) % 2]
        soup.append("".join(tokens))
    return soup


# -- oracles ---------------------------------------------------------
#
# The metric oracles take records as the arrays (p_hat, y_true) and
# recompute each quantity with per-record loops, sharing no code with
# ``molcalib.metrics``.


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f() with respect to array x,
    perturbing x in place."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        step = eps * max(1.0, abs(keep))
        flat[i] = keep + step
        fp = f()
        flat[i] = keep - step
        fm = f()
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def oracle_bins(p_hat, y_true, num_bins):
    """Brute-force interval membership: bin m is (m/M, (m+1)/M], with 0
    folded into bin 0.  Each bin is (count, positive fraction, mean
    confidence, defined)."""
    width = 1.0 / num_bins
    out = []
    for m in range(num_bins):
        lo, hi = m * width, (m + 1) * width
        members = [(p, yt) for p, yt in zip(p_hat, y_true)
                   if (lo < p <= hi) or (m == 0 and p == 0.0)]
        if members:
            positives = sum(yt for _, yt in members) / len(members)
            conf = sum(p for p, _ in members) / len(members)
            out.append((len(members), positives, conf, True))
        else:
            out.append((0, 0.0, 0.0, False))
    return out


def oracle_ece(p_hat, y_true, num_bins):
    n = len(p_hat)
    return sum((count / n) * abs(positives - conf)
               for count, positives, conf, defined
               in oracle_bins(p_hat, y_true, num_bins)
               if defined)


def oracle_auroc(p_hat, y_true):
    """All positive/negative pairs; ties worth one half."""
    pos = [p for p, yt in zip(p_hat, y_true) if yt == 1]
    neg = [p for p, yt in zip(p_hat, y_true) if yt == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def oracle_attention_readout(h, w_read, sizes):
    """Pre-sigmoid attention readout of each graph on its own: graph b's
    n_b rows H_b score the row sums of H_b W over sqrt(d_g), and the
    pooled vector sums n_b softmax(scores)_i (H_b W)_i over its rows."""
    pooled = []
    start = 0
    for n in sizes:
        hw = h[start:start + n] @ w_read
        start += n
        scores = hw.sum(axis=1) / math.sqrt(w_read.shape[1])
        e = np.exp(scores - scores.max())
        pooled.append(sum(n * e[i] / e.sum() * hw[i] for i in range(n)))
    return np.array(pooled)


def _reachable(bonds, start):
    """Atoms joined to ``start`` by a path over ``bonds``: sweep the bond
    list until no sweep adds an atom."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for b in bonds:
            if (b.a1 in seen) != (b.a2 in seen):
                seen.update((b.a1, b.a2))
                grew = True
    return seen


def bridge_free_atoms(mol):
    """Atoms on a bond whose removal leaves its ends connected (a cycle),
    tried bond by bond."""
    ring = set()
    for k, bond in enumerate(mol.bonds):
        rest = mol.bonds[:k] + mol.bonds[k + 1:]
        if bond.a2 in _reachable(rest, bond.a1):
            ring.update((bond.a1, bond.a2))
    return ring


def component_oracle(mol):
    """Fragments as sorted index lists, ordered by first atom index: each
    atom not yet placed starts the next one, with every atom it reaches."""
    comps = []
    placed = set()
    for k in range(mol.num_atoms):
        if k not in placed:
            comp = sorted(_reachable(mol.bonds, k))
            placed.update(comp)
            comps.append(comp)
    return comps


def oracle_screening(p_hat, y_true, k):
    """(records taken, success rate) at the top k percent."""
    ranked = sorted(range(len(p_hat)), key=lambda i: -p_hat[i])  # stable
    taken = math.ceil(len(p_hat) * k / 100.0)
    hits = sum(y_true[i] for i in ranked[:taken])
    return taken, hits / taken


# -- shared measurements ---------------------------------------------


def gradient_mismatches(model, graphs, targets, loss: LossConfig):
    """Describe each parameter whose gradient of ``loss`` over the packed
    ``graphs`` differs from central differences beyond rtol 1e-4,
    atol 1e-7; every entry of every parameter is compared."""
    batch = pack_graphs(graphs)

    def batch_loss():
        return loss.compute(targets, model.forward(batch))

    ad.backward(batch_loss())
    problems = []
    for name, param in model.params.items():
        fd = numeric_gradient(lambda: batch_loss().item(),
                              np.atleast_1d(param.data))
        got = np.atleast_1d(np.asarray(param.grad))
        if not np.allclose(got, fd, rtol=1e-4, atol=1e-7):
            gap = float(np.max(np.abs(got - fd)))
            problems.append(f"{name} off by {gap:.2e}")
    model.zero_grad()
    return problems


def logits_of(p):
    """The logits log p - log(1 - p) of probabilities ``p``."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


def loss_identity_gaps(y, z):
    """(identity, |got - want|) for each degenerate-parameter identity
    on the batch of targets ``y`` and logits ``z``."""
    z = ad.Tensor(z)

    def loss(kind="bce", **knobs):
        return LossConfig(kind, **knobs).compute(y, z).item()

    bce = loss()
    return [
        ("focal(0) vs bce", abs(loss("focal", focusing=0.0) - bce)),
        ("smoothing(0) vs bce",
         abs(loss("label_smoothing", smoothing=0.0) - bce)),
        ("entropy(0) vs bce",
         abs(loss("entropy_regularized", entropy_weight=0.0) - bce)),
        ("weighted(0.5) vs half focal",
         abs(loss("weighted_focal", focusing=2.0, positive_weight=0.5)
             - 0.5 * loss("focal", focusing=2.0))),
    ]


def metric_oracle_mismatches(p_hat, y_true, num_bins, k_grid):
    """Name each of calibration bins, ECE, AUROC and the screening curve
    at ``k_grid`` that differs from its oracle by more than 1e-12."""
    tol = 1e-12
    wrong = []
    bins = bin_predictions(p_hat, y_true, num_bins)
    for m, (count, positives, conf, defined) in enumerate(
            oracle_bins(p_hat, y_true, num_bins)):
        if (bins.counts[m] != count or bins.defined[m] != defined
                or abs(bins.positive_fraction[m] - positives) > tol
                or abs(bins.confidence[m] - conf) > tol):
            wrong.append("bin")
            break
    if abs(ece(p_hat, y_true, num_bins)
           - oracle_ece(p_hat, y_true, num_bins)) > tol:
        wrong.append("ece")
    if abs(auroc(p_hat, y_true) - oracle_auroc(p_hat, y_true)) > tol:
        wrong.append("auroc")
    curve = screening_curve(p_hat, y_true, k_grid)
    for k, got_taken, got_rate in zip(k_grid, curve.screened,
                                      curve.success_rate):
        taken, rate = oracle_screening(p_hat, y_true, k)
        if got_taken != taken or abs(got_rate - rate) > tol:
            wrong.append("screening")
            break
    return wrong


def ring_fragment_mismatches(smiles):
    """Parse each of ``smiles``; return the (SMILES, molecule) pairs that
    parsed and a description of each parsed molecule, or its largest
    fragment, whose ring atoms or fragments differ from
    :func:`bridge_free_atoms` and :func:`component_oracle`."""
    parsed = []
    wrong = []
    for s in smiles:
        try:
            mol = parse_smiles(s)
        except SmilesError:
            continue
        parsed.append((s, mol))
        for m in (mol, strip_to_largest_component(mol)):
            if m.ring_atoms() != bridge_free_atoms(m):
                wrong.append(f"{s!r}: ring atoms {sorted(m.ring_atoms())}")
            if m.fragments != component_oracle(m):
                wrong.append(f"{s!r}: fragments {m.fragments}")
    return parsed, wrong


def permutation_gap(model, graph, rng, copies=1):
    """Largest change in predicted probability between ``graph`` and
    ``copies`` randomly renumbered copies of it, all in one batch."""
    shuffled = [permute_graph(graph, rng.permutation(graph.num_nodes))
                for _ in range(copies)]
    graphs = [graph] + shuffled
    probs = predict_probabilities(model, graphs, "deterministic", 1, 0,
                                  len(graphs))
    return float(np.max(np.abs(probs - probs[0])))


def size_ratio_gap(row, w_read):
    """max |z4 / z3 - 4/3| for the attention readouts z3, z4 of 3 and 4
    copies of ``row``, packed in one batch; exactly 0 in exact arithmetic
    and nan when the readout is zero."""
    h = ad.Tensor(np.tile(row, (7, 1)))
    z3, z4 = attn_pool(h, ad.Tensor(w_read), ad.Segments([3, 4])).data
    return float(np.max(np.abs(z4 / z3 - 4.0 / 3.0)))


def readout_oracle_gap(h, w_read, sizes):
    """Largest gap of :func:`model.attn_pool` over the graphs of ``sizes``,
    packed in one batch, from :func:`oracle_attention_readout`."""
    got = attn_pool(ad.Tensor(h), ad.Tensor(w_read), ad.Segments(sizes)).data
    return float(np.max(np.abs(got - oracle_attention_readout(h, w_read,
                                                              sizes))))


def rate_zero_gaps(model, graphs, rng, copies=1):
    """Scoring of a model at dropout rate 0: the largest gap of MC
    inference (13 samples) from deterministic scoring, and of a train-mode
    forward of ``copies`` packed copies of ``graphs`` drawing masks from
    ``rng``.  Both are 0.0 when they agree bitwise."""
    det = predict_probabilities(model, graphs, "deterministic", 13, 0, 32)
    mc = predict_probabilities(model, graphs, "mc_dropout", 13, 0, 32)
    batch = pack_graphs(graphs * copies)
    trained = ad.sigmoid(model.forward(
        batch, training=True, rng=[(rng, batch.segments.num_rows)])).data
    return (float(np.max(np.abs(mc - det))),
            float(np.max(np.abs(trained - np.tile(det, copies)))))


def prefix_sharing_gap(model, graphs, copies, seed=0):
    """Largest gap between the train-mode logits of ``graphs`` packed with
    ``copies``, whose layers before the first dropout run once per graph,
    and of the pack that lists each graph ``copies`` times in a row; in
    both, graph i draws its masks from the stream (seed, i).  0.0 when
    they agree bitwise."""
    def logits(batch):
        blocks = [(np.random.default_rng([seed, i]), copies * g.num_nodes)
                  for i, g in enumerate(graphs)]
        return model.forward(batch, training=True, rng=blocks).data

    shared = logits(pack_graphs(graphs, copies))
    repeated = logits(pack_graphs([g for g in graphs for _ in range(copies)]))
    return float(np.max(np.abs(shared - repeated)))


# -- the selftest checks ---------------------------------------------


def check_gradients_finite_difference():
    """Model+loss gradient on a 3-graph GAT batch matches central
    differences in every parameter entry."""
    rng = np.random.default_rng(1)
    config = ModelConfig(node_embedding="gat", readout="attn", num_layers=2,
                         hidden_dim=6, graph_dim=4, input_dim=8)
    graphs = [random_graph(rng, n, 8) for n in (5, 2, 4)]
    problems = gradient_mismatches(GnnModel(config, seed=0), graphs,
                                   [1.0, 0.0, 1.0], LossConfig())
    assert not problems, "; ".join(problems)


def check_loss_identities():
    """Degenerate-parameter identities and decomposition constants."""
    rng = np.random.default_rng(2)
    n = 64
    y = (rng.random(n) < 0.5).astype(np.float64)
    z = logits_of(rng.random(n) * 0.98 + 0.01)
    for label, gap in loss_identity_gaps(y, z):
        assert gap <= 1e-12, f"{label}: gap {gap:.2e}"
    r = ls_kl_residual(y, z, 0.1)
    assert abs(r - 0.1 * n * math.log(2.0)) <= 1e-10, f"ls residual {r}"
    r = erl_kl_residual(y, z, 0.1)
    assert abs(r + 0.1 * n * math.log(2.0)) <= 1e-10, f"erl residual {r}"


def check_metric_oracles():
    """Vectorized metrics equal the loop oracles at 1e-12, on scores
    rounded to a coarse grid so that ties abound."""
    rng = np.random.default_rng(3)
    p = np.round(rng.random(200), 1)
    y_true = (rng.random(200) < 0.4).astype(np.int64)
    wrong = metric_oracle_mismatches(p, y_true, 10, (10, 50, 100))
    assert not wrong, f"{', '.join(wrong)} differ from the oracles"


def check_permutation_invariance():
    """Predicted probability ignores node numbering to 1e-12, also when
    the permuted copies share a batch with the original."""
    rng = np.random.default_rng(4)
    config = ModelConfig(node_embedding="gcn", readout="attn", num_layers=2,
                         hidden_dim=6, graph_dim=5, input_dim=9)
    gap = permutation_gap(GnnModel(config, seed=1), random_graph(rng, 7, 9),
                          rng, copies=3)
    assert gap <= 1e-12, f"permutation gap {gap:.2e}"


def check_attention_size_sensitivity():
    """Attention pooling separates 3 vs 4 identical nodes at ratio 4/3."""
    rng = np.random.default_rng(5)
    gap = size_ratio_gap(rng.normal(size=4), rng.normal(size=(4, 3)))
    assert gap <= 1e-12, f"size ratio off 4/3 by {gap:.2e}"


def check_attention_readout_oracle():
    """The packed attention readout equals the per-graph oracle to 1e-12,
    a one-node graph included."""
    rng = np.random.default_rng(7)
    gap = readout_oracle_gap(rng.standard_normal((9, 6)),
                             rng.standard_normal((6, 4)), [5, 1, 3])
    assert gap <= 1e-12, f"readout off the oracle by {gap:.2e}"


def check_mc_dropout_zero_rate():
    """MC inference with rate 0 is deterministic scoring, bitwise, and a
    packed train-mode forward agrees with it to 1e-12."""
    rng = np.random.default_rng(6)
    graphs = [random_graph(rng, n, 8) for n in (5, 3)]
    config = ModelConfig(num_layers=2, hidden_dim=6, graph_dim=4,
                         input_dim=8, dropout_rate=0.0)
    mc_gap, train_gap = rate_zero_gaps(GnnModel(config, seed=2), graphs,
                                       np.random.default_rng(0), copies=13)
    assert mc_gap == 0.0, f"mc scoring off by {mc_gap:.2e}"
    assert train_gap <= 1e-12, f"train-mode forward off by {train_gap:.2e}"


def check_mc_prefix_sharing():
    """MC copies that share the layers before the first dropout score
    bitwise as explicitly repeated copies, for each layer and readout."""
    rng = np.random.default_rng(8)
    graphs = [random_graph(rng, n, 8) for n in (5, 1, 3)]
    for embed in ("gcn", "gat"):
        for readout in ("sum", "attn"):
            config = ModelConfig(node_embedding=embed, readout=readout,
                                 num_layers=2, hidden_dim=6, graph_dim=4,
                                 input_dim=8, dropout_rate=0.3)
            gap = prefix_sharing_gap(GnnModel(config, seed=4), graphs, 5)
            assert gap == 0.0, f"{embed}/{readout} off by {gap:.2e}"


def check_ring_fragment_oracle():
    """Ring atoms and fragments read from the parse equal the bond-removal
    and reachability oracles, on a token soup and on fragments that
    branches interleave or ring closures join."""
    smiles = ["C(.CC)O", "C1.C1", "C12.C1C2", "C1.C2.C12", "CC1.CC1C2CC2",
              "[NH4+](.Cl)[NH4+]", "c1ccccc1.[Na+]"]
    smiles += token_soup(np.random.default_rng(9), 400)
    parsed, wrong = ring_fragment_mismatches(smiles)
    assert len(parsed) >= 50, f"only {len(parsed)} strings parsed"
    assert not wrong, "; ".join(wrong[:3])


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


def check_decay_decoupling(start=(1.0, -2.0),
                           grads=((0.5, -1.0), (1.0, -2.0), (1.5, -3.0)),
                           lr=0.1):
    """Weight decay leaves Adam's moment estimates untouched: AdamW at
    decay 0 and 0.3 from ``start`` through ``grads`` keeps equal moments."""
    moments = []
    for wd in (0.0, 0.3):
        w = ad.Tensor(np.array(start, dtype=np.float64), requires_grad=True)
        opt = AdamW({"w": w}, OptimizerSettings(learning_rate=lr), wd,
                    frozenset())
        for g in grads:
            w.grad = np.array(g, dtype=np.float64)
            opt.step()
        moments.append((opt.m["w"], opt.v["w"]))
    assert np.array_equal(moments[0][0], moments[1][0]), "first moment"
    assert np.array_equal(moments[0][1], moments[1][1]), "second moment"


CHECKS = [
    ("finite-difference gradients", check_gradients_finite_difference),
    ("loss identities", check_loss_identities),
    ("metric oracles", check_metric_oracles),
    ("permutation invariance", check_permutation_invariance),
    ("attention size sensitivity", check_attention_size_sensitivity),
    ("attention readout oracle", check_attention_readout_oracle),
    ("mc dropout zero rate", check_mc_dropout_zero_rate),
    ("mc prefix sharing", check_mc_prefix_sharing),
    ("ring and fragment oracle", check_ring_fragment_oracle),
    ("checkpoint roundtrip", check_checkpoint_roundtrip),
    ("decay decoupling", check_decay_decoupling),
]


def run_selftest(log=print) -> int:
    """Run every check; returns the number of failures.  A check fails by
    raising any exception, which its line reports by type and message."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as err:
            failures += 1
            log(f"[SELFTEST] {name:32s} FAIL  {type(err).__name__}: {err}")
        else:
            log(f"[SELFTEST] {name:32s} ok")
    log(f"[SELFTEST] {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
