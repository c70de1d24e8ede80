"""Molecular graph featurization.

Turns a parsed :class:`~molcalib.smiles.Molecule` into numpy arrays: a
node feature matrix ``X`` of shape (N, 58), stored as uint8 one-hot rows
(one byte per entry), and a bond list of shape (E, 2) holding each bond
once as a pair of atom indices, in parse order.  The float matrix the
model reads (float64, or float32 for MC dropout scoring) is built once
per packed batch, by :func:`molcalib.model.pack_graphs`.
Self-loops are not stored: the model's rule is that every node sees
itself plus its bonded neighbours (:class:`molcalib.autodiff.Neighbors`),
with no degree normalization.

Node feature layout, 58 columns total:

====================================  =====
element one-hot (vocabulary + other)    24
degree one-hot (0..6)                    7
implicit hydrogen one-hot (0..4)         5
formal charge one-hot (-2..+2, clip)     5
aromatic flag                            1
ring membership flag                     1
bond-order-sum bucket (1..6)             6
reserved zero padding                    9
====================================  =====

The bond-order-sum bucket is a hybridization proxy: floor of the heavy-atom
bond order sum plus the hydrogen count, clipped to [1, 6].  Attributes with
no guard slot (degree, hydrogen count) raise :class:`FeatureError` when they
fall outside their bins; charge clips, elements fall back to "other".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeatureError
from .smiles import Molecule, VOCABULARY


#: One-hot column of each vocabulary element; symbols outside the vocabulary
#: (only a hand-built ``Molecule`` can carry one) go to ``OTHER_COLUMN``.
ELEMENT_COLUMNS = {symbol: i for i, symbol in enumerate(VOCABULARY)}
OTHER_COLUMN = len(VOCABULARY)
MAX_DEGREE = 6
MAX_HYDROGENS = 4
MAX_ABS_CHARGE = 2
NUM_BUCKETS = 6
#: First column of each block in the layout table above.
DEGREE_OFFSET = OTHER_COLUMN + 1
HYDROGEN_OFFSET = DEGREE_OFFSET + MAX_DEGREE + 1
CHARGE_OFFSET = HYDROGEN_OFFSET + MAX_HYDROGENS + 1
AROMATIC_COLUMN = CHARGE_OFFSET + 2 * MAX_ABS_CHARGE + 1
RING_COLUMN = AROMATIC_COLUMN + 1
BUCKET_OFFSET = RING_COLUMN + 1
#: Node feature width; the columns after the bucket block are zero padding.
NUM_FEATURES = 58


@dataclass
class MolecularGraph:
    """Featurized molecule: node features, bond list, metadata.

    ``node_features`` is an (N, NUM_FEATURES) array; ``featurize`` stores
    it as uint8 one-hot rows, and :func:`molcalib.model.pack_graphs`
    converts a batch of them to its compute dtype in one pass.  ``bonds`` is an
    (E, 2) int32 array with one row per bond, the atom indices of its two
    ends, in parse order.  It holds no self-loops and no bond twice.
    """

    node_features: np.ndarray
    bonds: np.ndarray
    label: int | None = None
    source_id: str | None = None
    smiles: str = ""

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]


def featurize(mol: Molecule, label: int | None = None,
              source_id: str | None = None) -> MolecularGraph:
    """Build node features X and the bond list for one molecule in one
    pass over its atom columns.

    Each atom's one-hot positions are computed as plain ints and the uint8
    X is filled with one flat-index write; the first atom out of the
    degree or hydrogen bins raises.  Degrees, hydrogen counts, bond order
    sums and ring flags are the parser's columns.
    """
    n = mol.num_atoms
    width = NUM_FEATURES
    columns = ELEMENT_COLUMNS
    other = OTHER_COLUMN
    deg_off = DEGREE_OFFSET
    max_degree = MAX_DEGREE
    h_off = HYDROGEN_OFFSET
    max_hydrogens = MAX_HYDROGENS
    c = MAX_ABS_CHARGE
    charge_off = CHARGE_OFFSET + c  # charge 0
    aromatic_col = AROMATIC_COLUMN
    ring_col = RING_COLUMN
    bucket_off = BUCKET_OFFSET - 1  # bucket b (1-based) lands at off + b
    num_buckets = NUM_BUCKETS
    floor = math.floor
    hot: list[int] = []
    base = 0
    for symbol, degree, h, order_sum, charge, arom, ring in zip(
            mol.symbols, mol.degrees, mol.hydrogens, mol.order_sums,
            mol.charges, mol.aromatic, mol.in_ring):
        if degree > max_degree:
            raise FeatureError(f"degree {degree} exceeds schema "
                               f"maximum {max_degree}")
        if h > max_hydrogens:
            raise FeatureError(f"hydrogen count {h} exceeds schema "
                               f"maximum {max_hydrogens}")
        bucket = floor(order_sum + h)
        if bucket < 1:
            bucket = 1
        if bucket > num_buckets:
            bucket = num_buckets
        if charge < -c:
            charge = -c
        if charge > c:
            charge = c
        hot += (base + columns.get(symbol, other),
                base + deg_off + degree,
                base + h_off + h,
                base + charge_off + charge,
                base + bucket_off + bucket)
        if arom:
            hot.append(base + aromatic_col)
        if ring:
            hot.append(base + ring_col)
        base += width
    x = np.zeros((n, width), dtype=np.uint8)
    x.put(hot, 1)

    bonds = np.array(mol.ends, dtype=np.int32).reshape(-1, 2)
    return MolecularGraph(node_features=x, bonds=bonds, label=label,
                          source_id=source_id, smiles=mol.smiles)


def strip_to_largest_component(mol: Molecule) -> Molecule:
    """Keep the largest connected fragment (salt stripping).

    Ties go to the fragment containing the lowest original atom index, which
    is the first one in component order.  Each per-atom list keeps the
    fragment's entries in index order, and its bonds are renumbered in
    bond order.
    """
    comps = mol.fragments
    if len(comps) <= 1:
        return mol
    best = max(comps, key=len)  # max() keeps the earliest on ties
    remap = {old: new for new, old in enumerate(best)}
    kept = [k for k, end in enumerate(mol.ends[::2]) if end in remap]
    ends = [remap[end] for k in kept for end in mol.ends[2 * k:2 * k + 2]]
    orders = [mol.orders[k] for k in kept]
    columns = [[column[k] for k in best] for column in (
        mol.symbols, mol.aromatic, mol.charges, mol.hydrogens, mol.degrees,
        mol.order_sums, mol.in_ring, mol.isotopes, mol.bracketed)]
    return Molecule(*columns, ends, orders, [list(range(len(best)))],
                    mol.smiles)


def permute_graph(graph: MolecularGraph, perm: np.ndarray) -> MolecularGraph:
    """Relabel nodes: new node i is old node perm[i]."""
    perm = np.asarray(perm)
    new_index = np.argsort(perm).astype(np.int32)  # old node -> new node
    return MolecularGraph(
        node_features=graph.node_features[perm],
        bonds=new_index[graph.bonds],
        label=graph.label, source_id=graph.source_id, smiles=graph.smiles,
    )
