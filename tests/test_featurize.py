"""Featurizer tests: column layout, a per-atom oracle, bond lists, errors,
stripping, permutation."""

import math

import numpy as np
import pytest

from molcalib.errors import FeatureError
from molcalib.featurize import (
    NUM_FEATURES,
    MolecularGraph,
    featurize,
    permute_graph,
    strip_to_largest_component,
)
from molcalib.selftest import bridge_free_atoms, component_oracle
from molcalib.smiles import VOCABULARY, Atom, Molecule, parse_smiles

from test_autodiff import dense_adjacency


def feat(s):
    return featurize(parse_smiles(s))


def self_looped(graph):
    return dense_adjacency(graph.bonds, graph.num_nodes)


class TestSchema:
    def test_width_is_58(self):
        assert NUM_FEATURES == 58

    def test_methane_single_node(self):
        g = feat("C")
        assert g.node_features.shape == (1, 58)
        assert g.bonds.shape == (0, 2) and g.bonds.dtype == np.int32
        x = g.node_features[0]
        assert x[VOCABULARY.index("C")] == 1.0
        # degree block starts after 24 element slots; degree 0
        assert x[24] == 1.0

    def test_one_hot_groups_sum_to_one(self):
        smiles = [
            "C", "CCO", "c1ccccc1", "CC(=O)O", "[NH4+]", "[O-]S(=O)(=O)[O-]",
            "C1CC1CC", "c1cc[nH]c1", "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "[2H]O",
        ]
        n_el = len(VOCABULARY) + 1
        groups = [(0, n_el), (n_el, n_el + 7), (n_el + 7, n_el + 12),
                  (n_el + 12, n_el + 17), (n_el + 19, n_el + 25)]
        for s in smiles:
            x = feat(s).node_features
            for lo, hi in groups:
                np.testing.assert_array_equal(x[:, lo:hi].sum(axis=1), 1.0)

    def test_padding_is_zero(self):
        x = feat("Cn1cnc2c1c(=O)n(C)c(=O)n2C").node_features
        assert np.all(x[:, -9:] == 0.0)

    def test_charge_slots_and_clipping(self):
        base = len(VOCABULARY) + 1 + 7 + 5
        x = feat("[NH4+]").node_features[0]
        assert x[base + 3] == 1.0  # +1 slot
        x = feat("[O-]").node_features[0]
        assert x[base + 1] == 1.0  # -1 slot
        x = feat("[Fe+4]").node_features[0]
        assert x[base + 4] == 1.0  # clipped to +2

    def test_aromatic_and_ring_flags(self):
        flag = len(VOCABULARY) + 1 + 7 + 5 + 5
        x = feat("c1ccccc1").node_features
        assert np.all(x[:, flag] == 1.0)
        assert np.all(x[:, flag + 1] == 1.0)
        x = feat("C1CC1").node_features
        assert np.all(x[:, flag] == 0.0)
        assert np.all(x[:, flag + 1] == 1.0)
        x = feat("CC").node_features
        assert np.all(x[:, flag:flag + 2] == 0.0)

    def test_bucket_examples(self):
        bkt = len(VOCABULARY) + 1 + 7 + 5 + 5 + 2
        # methane carbon: 0 heavy bonds + 4 H -> bucket 4
        assert feat("C").node_features[0][bkt + 3] == 1.0
        # isolated sodium cation: sum 0 clips up to bucket 1
        assert feat("[Na+]").node_features[0][bkt] == 1.0
        # sulfone sulfur: bond order sum 6 -> bucket 6
        s_row = feat("CS(=O)(=O)C").node_features[1]
        assert s_row[bkt + 5] == 1.0

    def test_other_guard_never_hit_by_parser_vocabulary(self):
        for s in ("C", "[Na+]", "[Si](C)(C)C", "[Se]", "[AsH3]"):
            x = feat(s).node_features
            assert np.all(x[:, len(VOCABULARY)] == 0.0)

    def test_features_stored_as_uint8_one_hot_rows(self):
        for s in ("C", "CCO", "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "[Na+].[Cl-]"):
            x = feat(s).node_features
            assert x.dtype == np.uint8
            assert set(np.unique(x)) <= {0, 1}
            assert x.nbytes == x.shape[0] * 58


def oracle_graph(mol):
    """uint8 node features and float64 adjacency built one atom at a time,
    block by block, straight from the layout table in the featurize module
    docstring (block widths 24/7/5/5/1/1/6/9)."""
    ring = bridge_free_atoms(mol)
    rows = []
    for i, atom in enumerate(mol.atoms):
        incident = [b for b in mol.bonds if i in (b.a1, b.a2)]
        h = atom.implicit_hydrogens
        element = [0] * 24
        if atom.symbol in VOCABULARY:
            element[VOCABULARY.index(atom.symbol)] = 1
        else:
            element[-1] = 1  # "other"
        degree = [0] * 7
        degree[len(incident)] = 1
        hydrogens = [0] * 5
        hydrogens[h] = 1
        charge = [0] * 5
        clipped = atom.formal_charge
        if clipped > 2:
            clipped = 2
        if clipped < -2:
            clipped = -2
        charge[clipped + 2] = 1
        flags = [int(atom.aromatic), int(i in ring)]
        order_sum = 0.0
        for b in incident:
            order_sum += b.order
        bucket = [0] * 6
        bucket[min(max(math.floor(order_sum + h), 1), 6) - 1] = 1
        rows.append(element + degree + hydrogens + charge + flags + bucket
                    + [0] * 9)
    n = mol.num_atoms
    x = np.array(rows, dtype=np.uint8).reshape(n, 58)
    a = np.array([[1.0 if i == j or any({i, j} == {b.a1, b.a2}
                                         for b in mol.bonds) else 0.0
                   for j in range(n)] for i in range(n)],
                 dtype=np.float64).reshape(n, n)
    return x, a


ORACLE_SMILES = [
    # formal charges outside +-2, clipped to the end slots
    "[Fe+4]", "[Sn+3](C)C", "[P-3]", "C[N-4]", "[Ca+2].[O-]C(=O)C",
    # bracket hydrogen counts
    "[NH4+]", "[SiH4]", "[CH2]=C", "[2H]O", "C[SH]", "[AsH3]",
    # aromatic and fused rings
    "c1ccccc1", "c1ccc2ccccc2c1", "c1cc[nH]c1", "c1ccc2[nH]ccc2c1",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C1CC2CCC1C2", "c1ccc2c(c1)CCC2=O",
    # two-digit ring closures
    "C%10CCCCC%10", "c1ccc%12ccccc%12c1", "C%11CC%22CC%11CC%22",
    # salted inputs (stripped below)
    "[Na+].[O-]C(=O)c1ccccc1", "Cl.CCN", "CC(=O)[O-].[NH4+]",
    "O.O.c1ccccc1C(=O)O", "[K+].[K+].[O-]S(=O)(=O)[O-]",
    # a single atom, and molecules with no bonds
    "C", "[Na+]", "C.N.O", "[Na+].[Cl-]",
    # sulfur and phosphorus valences, halogens, triple bonds
    "CS(=O)(=O)C", "OP(=O)(O)O", "N#CC(Br)I", "CC(C)(C)C", "C=C=C",
]


class TestOracle:
    @pytest.mark.parametrize("layout", ["default"])
    def test_graphs_bit_identical_to_oracle(self, layout):
        checked = 0
        for s in ORACLE_SMILES:
            mol = parse_smiles(s)
            for m in (mol, strip_to_largest_component(mol)):
                assert m.fragments == component_oracle(m), s
                g = featurize(m)
                x, a = oracle_graph(m)
                assert g.bonds.dtype == np.int32, s
                assert g.bonds.tolist() == [[b.a1, b.a2] for b in m.bonds], s
                for got, want in ((g.node_features, x), (self_looped(g), a)):
                    assert got.dtype == want.dtype and \
                        got.shape == want.shape, s
                    assert got.tobytes() == want.tobytes(), s
                checked += 1
        assert checked == 2 * len(ORACLE_SMILES)

    def test_oracle_list_covers_the_cases(self):
        charges = [a.formal_charge for s in ORACLE_SMILES
                   for a in parse_smiles(s).atoms]
        assert max(charges) > 2 and min(charges) < -2
        mols = [parse_smiles(s) for s in ORACLE_SMILES]
        assert any(m.num_atoms == 1 for m in mols)
        assert any(m.num_atoms > 1 and not m.bonds for m in mols)
        assert any(len(m.fragments) > 1
                   and strip_to_largest_component(m).num_atoms < m.num_atoms
                   for m in mols)

    def test_element_outside_vocabulary_goes_to_other(self):
        # the parser never yields one; a hand-built Molecule can
        mol = Molecule(atoms=[Atom("Xe")], smiles="[Xe]",
                       fragments=[[0]])
        x = featurize(mol).node_features
        assert x[0, :24].tolist() == [0] * 23 + [1]
        assert x.tobytes() == oracle_graph(mol)[0].tobytes()


class TestAdjacency:
    def test_benzene_row_sums(self):
        a = self_looped(feat("c1ccccc1"))
        np.testing.assert_array_equal(a.sum(axis=1), 3.0)
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_array_equal(np.diag(a), 1.0)

    def test_no_normalization(self):
        a = self_looped(feat("CC(C)(C)C"))
        assert a[1].sum() == 5.0
        assert set(np.unique(a)) == {0.0, 1.0}

    def test_disconnected_fragments_block_diagonal(self):
        a = self_looped(feat("C.N"))
        np.testing.assert_array_equal(a, np.eye(2))


class TestFeatureErrors:
    def message(self, smiles):
        with pytest.raises(FeatureError) as info:
            feat(smiles)
        return str(info.value)

    def test_degree_overflow(self):
        assert self.message("[Fe](C)(C)(C)(C)(C)(C)C") == \
            "degree 7 exceeds schema maximum 6"

    def test_hydrogen_overflow(self):
        assert self.message("[SnH5]") == \
            "hydrogen count 5 exceeds schema maximum 4"

    def test_first_atom_out_of_bins_is_reported(self):
        # one atom over both bins: its degree is checked first
        assert self.message("[SnH5](C)(C)(C)(C)(C)(C)C") == \
            "degree 7 exceeds schema maximum 6"
        assert self.message("[SnH6]C[Fe](C)(C)(C)(C)(C)C") == \
            "hydrogen count 6 exceeds schema maximum 4"



class TestStripping:
    def test_salt_stripped(self):
        mol = parse_smiles("[Na+].[O-]c1ccccc1")
        kept = strip_to_largest_component(mol)
        assert kept.num_atoms == 7
        assert kept.atoms[0].symbol == "O"
        assert kept.atoms[0].formal_charge == -1

    def test_tie_keeps_lowest_first_index(self):
        mol = parse_smiles("C.N")
        kept = strip_to_largest_component(mol)
        assert kept.num_atoms == 1
        assert kept.atoms[0].symbol == "C"

    def test_single_component_untouched(self):
        mol = parse_smiles("CCO")
        assert strip_to_largest_component(mol) is mol

    def test_stripped_graph_features_consistent(self):
        kept = strip_to_largest_component(parse_smiles("Cl.c1ccccc1C(=O)O"))
        g = featurize(kept)
        assert g.num_nodes == 9
        assert g.bonds.shape == (9, 2) and g.bonds.max() == 8

    @pytest.mark.parametrize("salted, alone", [
        ("[Na+].[O-]c1ccccc1", "[O-]c1ccccc1"),
        ("Cl.c1ccccc1C(=O)O", "c1ccccc1C(=O)O"),
    ])
    def test_salted_row_featurizes_as_its_fragment_alone(self, salted, alone):
        got = featurize(strip_to_largest_component(parse_smiles(salted)))
        want = featurize(parse_smiles(alone))
        assert got.node_features.shape == want.node_features.shape
        assert got.node_features.tobytes() == want.node_features.tobytes()
        assert got.bonds.tolist() == want.bonds.tolist()


class TestPermutation:
    def test_permuted_adjacency_consistent(self):
        g = feat("CC(=O)Oc1ccccc1C(=O)O")
        rng = np.random.default_rng(7)
        perm = rng.permutation(g.num_nodes)
        gp = permute_graph(g, perm)
        # bond k joins the same atoms, under their new indices
        assert gp.bonds.dtype == np.int32
        np.testing.assert_array_equal(perm[gp.bonds], g.bonds)
        a, ap = self_looped(g), self_looped(gp)
        for i in range(g.num_nodes):
            for j in range(g.num_nodes):
                assert ap[i, j] == a[perm[i], perm[j]]
            np.testing.assert_array_equal(
                gp.node_features[i], g.node_features[perm[i]]
            )

    def test_permutation_keeps_feature_dtype(self):
        g = feat("CC(=O)Oc1ccccc1C(=O)O")
        perm = np.random.default_rng(8).permutation(g.num_nodes)
        assert permute_graph(g, perm).node_features.dtype == np.uint8
        real = MolecularGraph(node_features=g.node_features.astype(np.float64),
                              bonds=g.bonds)
        assert permute_graph(real, perm).node_features.dtype == np.float64
