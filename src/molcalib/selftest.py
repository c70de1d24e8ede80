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
import re
import tempfile

import numpy as np

from . import autodiff as ad
from .data import ingest_smiles
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
from .smiles import _implicit_hydrogens, parse_smiles

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


# aspirin, caffeine, ibuprofen, paracetamol, sodium benzoate, nicotine,
# diazepam, imatinib and methane: 1 to 37 heavy atoms after salt
# stripping
DRUG_LIKE_SMILES = (
    "CC(=O)Oc1ccccc1C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "CC(=O)Nc1ccc(O)cc1",
    "[Na+].[O-]C(=O)c1ccccc1",
    "CN1CCCC1c1cccnc1",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc12",
    "Cc1ccc(NC(=O)c2ccc(CN3CCN(C)CC3)cc2)cc1Nc1nccc(-c2cccnc2)n1",
    "C",
)

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


def _reachable(pairs, start):
    """Atoms joined to ``start`` by a path over the bond ``pairs``: sweep
    the list until no sweep adds an atom."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a in seen) != (b in seen):
                seen.update((a, b))
                grew = True
    return seen


def bridge_free_atoms(mol):
    """Per atom, whether it is on a bond whose removal leaves its ends
    connected (a cycle), tried bond by bond."""
    pairs = list(zip(mol.ends[::2], mol.ends[1::2]))
    ring = [False] * mol.num_atoms
    for k, (a, b) in enumerate(pairs):
        if b in _reachable(pairs[:k] + pairs[k + 1:], a):
            ring[a] = ring[b] = True
    return ring


def component_oracle(mol):
    """Fragments as sorted index lists, ordered by first atom index: each
    atom not yet placed starts the next one, with every atom it reaches."""
    pairs = list(zip(mol.ends[::2], mol.ends[1::2]))
    comps = []
    placed = set()
    for k in range(mol.num_atoms):
        if k not in placed:
            comp = sorted(_reachable(pairs, k))
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


# an atom of a SMILES that parsed, with a bracket atom's hydrogen count
_ATOM = re.compile(r"(\[\d*(?:[A-Z][a-z]?|[a-z]{1,2})@*(H\d*)?[^]]*]"
                   r"|Cl|Br|[BCNOPSFIbcnops])")


def parse_mismatches(smiles):
    """Parse each of ``smiles``; return the (SMILES, molecule) pairs that
    parsed and a description of each column of each parsed molecule, or
    of its largest fragment, that differs from its recomputation: ring
    flags by :func:`bridge_free_atoms`, fragments by
    :func:`component_oracle`, bracket flags and counts from the SMILES
    text, degrees and bond order sums (added in bond order, compared bit
    for bit) from the bond list, other hydrogen counts by the valence
    rule."""
    parsed = []
    wrong = []
    for s in smiles:
        try:
            mol = parse_smiles(s)
        except SmilesError:
            continue
        parsed.append((s, mol))
        # per atom: the hydrogen count its brackets give, None if bare
        written = [(int(h[1:] or 1) if h else 0) if atom[0] == "[" else None
                   for atom, h in _ATOM.findall(s)]
        largest = max(component_oracle(mol), key=len)  # earliest on ties
        for m, atoms in ((mol, range(mol.num_atoms)),
                         (strip_to_largest_component(mol), largest)):
            degrees = [0] * m.num_atoms
            sums = [0.0] * m.num_atoms
            for k, order in enumerate(m.orders):
                for end in m.ends[2 * k:2 * k + 2]:
                    degrees[end] += 1
                    sums[end] += order
            want = {
                "in_ring": bridge_free_atoms(m),
                "fragments": component_oracle(m),
                "bracketed": [written[k] is not None for k in atoms],
                "degrees": degrees,
                "order_sums": sums,
                "hydrogens": [
                    _implicit_hydrogens(m.symbols[new], sums[new])
                    if written[k] is None else written[k]
                    for new, k in enumerate(atoms)],
            }
            wrong += [f"{s!r}: {name} {getattr(m, name)}"
                      for name, column in want.items()
                      if getattr(m, name) != column]
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


def _mc_logits(model, batch, graphs, copies, seed):
    """Train-mode logits of `batch`, the packed copies of `graphs`, with
    graph i's masks drawn from the stream (seed, i) as MC scoring draws
    them."""
    blocks = [(np.random.default_rng([seed, i]), copies * g.num_nodes)
              for i, g in enumerate(graphs)]
    with ad.no_grad():
        return model.forward(batch, training=True, rng=blocks)


def prefix_sharing_gap(model, graphs, copies, seed=0, dtype=np.float64):
    """Largest gap between the train-mode logits of ``graphs`` packed with
    ``copies``, whose layers before the first dropout run once per graph,
    and of the pack that lists each graph ``copies`` times in a row, both
    computed in ``dtype``; in both, graph i draws its masks from the
    stream (seed, i).  0.0 when they agree bitwise."""
    shared = pack_graphs(graphs, copies, dtype)
    repeated = pack_graphs([g for g in graphs for _ in range(copies)],
                           dtype=dtype)
    return float(np.max(np.abs(
        _mc_logits(model, shared, graphs, copies, seed).data
        - _mc_logits(model, repeated, graphs, copies, seed).data)))


def mc_precision_gap(model, graphs, copies, seed=0, per_error=False):
    """Largest gap between the MC dropout scores of ``graphs`` computed as
    scoring computes them, from float32 logits, and from a float64 forward
    of the same pack with the same masks; a score is the float64 mean of
    its ``copies`` sigmoids.  Scores are compared, not logits: a logit's
    float32 rounding grows with its size, where the sigmoid flattens.
    With ``per_error`` each gap is divided by the Monte Carlo standard
    error of its float64 score (the copies' standard deviation over
    sqrt(copies)); ``copies`` must then be at least 2."""
    def probs(dtype):
        logits = _mc_logits(model, pack_graphs(graphs, copies, dtype),
                            graphs, copies, seed)
        return ad.sigmoid(logits).data.reshape(-1, copies)

    exact = probs(np.float64)
    gaps = np.abs(probs(np.float32).mean(axis=1, dtype=np.float64)
                  - exact.mean(axis=1))
    if per_error:
        gaps /= exact.std(axis=1, ddof=1) / math.sqrt(copies)
    return float(np.max(gaps))


def train_precision_gap(model, graphs, targets, seed=0):
    """Largest relative gap between the parameter gradients of one
    training batch of ``graphs`` under the BCE loss, computed as training
    computes them, from a float32 pack whose logits are cast to float64
    for the loss, and from a float64 pack; both draw their dropout masks from one stream
    seeded by ``seed``, so the masks agree.  Each parameter's gap is
    taken over the largest magnitude of its float64 gradient.  The
    model's gradients are zeroed afterwards."""
    targets = np.asarray(targets, dtype=np.float64)

    def grads(dtype):
        model.zero_grad()
        batch = pack_graphs(graphs, dtype=dtype)
        logits = model.forward(batch, training=True, rng=[
            (np.random.default_rng(seed), batch.segments.num_rows)])
        ad.backward(LossConfig().compute(targets,
                                         ad.cast(logits, np.float64)))
        return {name: p.grad for name, p in model.params.items()}

    exact, got = grads(np.float64), grads(np.float32)
    model.zero_grad()
    return max(float(np.max(np.abs(got[name] - g)) / np.max(np.abs(g)))
               for name, g in exact.items())


def gcn_conv_gap(h, w, nb, out_grad):
    """Largest relative gap of :func:`autodiff.gcn_conv` from the dense
    layer relu(((A + I) @ h) @ w), with (A + I) built as a matrix from the
    neighbour lists, over the output and the gradients in h and w that
    ``out_grad`` on the output sends back.  Each gap is taken over the
    largest magnitude of its reference, so it is about 1e-16 when the two
    agree up to rounding."""
    ht, wt = ad.Tensor(h, requires_grad=True), ad.Tensor(w, requires_grad=True)
    out = ad.gcn_conv(ht, wt, nb)
    ad.backward(ad.tensor_sum(out * ad.Tensor(out_grad)))
    rows = h.shape[0]
    # unused slots name column `rows`, which is dropped
    adj = np.zeros((rows, rows + 1))
    adj[np.arange(rows)[:, None], nb.index] = 1.0
    adj = adj[:, :rows]
    summed = adj @ h
    pre = summed @ w
    g = out_grad * (pre > 0.0)
    pairs = ((out.data, np.maximum(pre, 0.0)), (wt.grad, summed.T @ g),
             (ht.grad, adj.T @ (g @ w.T)))
    return max(float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
               for got, want in pairs)


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


def check_gcn_conv():
    """The one-op GCN layer matches the dense relu((A + I) h w) and its
    gradients to rtol 1e-12, at the default width, on a batch with a pad
    slot and a one-atom graph."""
    rng = np.random.default_rng(10)
    batch = pack_graphs([random_graph(rng, n, 8, p=0.4) for n in (9, 1, 6)])
    rows, width = batch.x.shape[0], ModelConfig().hidden_dim
    gap = gcn_conv_gap(rng.standard_normal((rows, width)),
                       rng.standard_normal((width, width)) / 8.0,
                       batch.neighbors, rng.standard_normal((rows, width)))
    assert gap <= 1e-12, f"off by {gap:.2e}"


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


def check_mc_precision():
    """MC dropout scores computed in float32 stay within 1e-6 of a float64
    forward with the same masks, for each layer and readout, on featurized
    molecules at the default model size."""
    graphs = [ingest_smiles(s) for s in DRUG_LIKE_SMILES]
    for embed in ("gcn", "gat"):
        for readout in ("sum", "attn"):
            config = ModelConfig(node_embedding=embed, readout=readout,
                                 dropout_rate=0.2)
            gap = mc_precision_gap(GnnModel(config, seed=5), graphs, 30)
            assert gap <= 1e-6, f"{embed}/{readout} off by {gap:.2e}"


def check_train_precision():
    """Parameter gradients of a dropout-training batch computed in float32
    over float64 parameters, as training runs, stay within 1e-3 of a
    float64 pass's relative to each gradient's largest entry, for each
    layer and readout, on featurized molecules at the default model
    size."""
    graphs = [ingest_smiles(s) for s in DRUG_LIKE_SMILES]
    targets = [i % 2 for i in range(len(graphs))]
    for embed in ("gcn", "gat"):
        for readout in ("sum", "attn"):
            config = ModelConfig(node_embedding=embed, readout=readout,
                                 dropout_rate=0.2)
            gap = train_precision_gap(GnnModel(config, seed=5), graphs,
                                      targets)
            assert gap <= 1e-3, f"{embed}/{readout} off by {gap:.2e}"


def check_parse_oracle():
    """Ring atoms, fragments and atom columns read from the parse equal
    the bond-removal, reachability and column oracles, on a token soup
    and on fragments that branches interleave or ring closures join."""
    smiles = ["C(.CC)O", "C1.C1", "C12.C1C2", "C1.C2.C12", "CC1.CC1C2CC2",
              "[NH4+](.Cl)[NH4+]", "c1ccccc1.[Na+]", "C=C1CC(=O)C1#N"]
    smiles += token_soup(np.random.default_rng(9), 400)
    parsed, wrong = parse_mismatches(smiles)
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
    ("gcn conv oracle", check_gcn_conv),
    ("mc dropout zero rate", check_mc_dropout_zero_rate),
    ("mc prefix sharing", check_mc_prefix_sharing),
    ("mc float32 precision", check_mc_precision),
    ("training float32 precision", check_train_precision),
    ("parse oracle", check_parse_oracle),
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
