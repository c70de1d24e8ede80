"""Molecular graph featurization.

Turns a parsed :class:`~molcalib.smiles.Molecule` into numpy arrays: a
node feature matrix ``X`` of shape (N, 58), stored as uint8 one-hot rows
(one byte per entry), and a bond list of shape (E, 2) holding each bond
once as a pair of atom indices, in parse order.  The float64 matrix the
model reads is built once per packed batch, by
:func:`molcalib.model.pack_graphs`.
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
from .smiles import Bond, Molecule, VOCABULARY


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
    converts a batch of them to float64 in one pass.  ``bonds`` is an
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
    pass over its atoms.

    Each atom's one-hot positions are computed as plain ints and the uint8
    X is filled with one flat-index write; the first atom out of the
    degree or hydrogen bins raises.  Ring membership and bond order sums
    are read from the atoms, where the parser stored them.
    """
    n = mol.num_atoms
    width = NUM_FEATURES
    ends: list[int] = []
    for b in mol.bonds:
        ends += (b.a1, b.a2)

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
    for i, atom in enumerate(mol.atoms):
        degree = atom.degree
        if degree > max_degree:
            raise FeatureError(f"degree {degree} exceeds schema "
                               f"maximum {max_degree}")
        h = atom.implicit_hydrogens
        if h > max_hydrogens:
            raise FeatureError(f"hydrogen count {h} exceeds schema "
                               f"maximum {max_hydrogens}")
        bucket = floor(atom.bond_order_sum + h)
        if bucket < 1:
            bucket = 1
        if bucket > num_buckets:
            bucket = num_buckets
        charge = atom.formal_charge
        if charge < -c:
            charge = -c
        if charge > c:
            charge = c
        base = i * width
        hot += (base + columns.get(atom.symbol, other),
                base + deg_off + degree,
                base + h_off + h,
                base + charge_off + charge,
                base + bucket_off + bucket)
        if atom.aromatic:
            hot.append(base + aromatic_col)
        if atom.in_ring:
            hot.append(base + ring_col)
    x = np.zeros((n, width), dtype=np.uint8)
    x.put(hot, 1)

    bonds = np.array(ends, dtype=np.int32).reshape(-1, 2)
    return MolecularGraph(node_features=x, bonds=bonds, label=label,
                          source_id=source_id, smiles=mol.smiles)


def strip_to_largest_component(mol: Molecule) -> Molecule:
    """Keep the largest connected fragment (salt stripping).

    Ties go to the fragment containing the lowest original atom index, which
    is the first one in component order.  The kept fragment's atoms are the
    parsed ``Atom`` objects themselves, shared with ``mol``: nothing changes
    atoms after the parse, so only the bonds are renumbered.
    """
    comps = mol.fragments
    if len(comps) <= 1:
        return mol
    best = max(comps, key=len)  # max() keeps the earliest on ties
    remap = {old: new for new, old in enumerate(best)}
    atoms = [mol.atoms[old] for old in best]
    bonds = [Bond(a1=remap[b.a1], a2=remap[b.a2], order=b.order)
             for b in mol.bonds if b.a1 in remap]
    return Molecule(atoms=atoms, bonds=bonds, smiles=mol.smiles,
                    fragments=[list(range(len(best)))])


def permute_graph(graph: MolecularGraph, perm: np.ndarray) -> MolecularGraph:
    """Relabel nodes: new node i is old node perm[i]."""
    perm = np.asarray(perm)
    new_index = np.argsort(perm).astype(np.int32)  # old node -> new node
    return MolecularGraph(
        node_features=graph.node_features[perm],
        bonds=new_index[graph.bonds],
        label=graph.label, source_id=graph.source_id, smiles=graph.smiles,
    )
