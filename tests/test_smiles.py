"""Parser tests: topology, hydrogen counts, errors with positions."""

import numpy as np
import pytest

from molcalib.errors import SmilesSyntaxError, UnsupportedFeatureError
from molcalib.featurize import strip_to_largest_component
from molcalib.selftest import (
    bridge_free_atoms,
    parse_mismatches,
    token_soup,
)
from molcalib.smiles import parse_smiles


def bond_orders(mol):
    return sorted(mol.orders)


def ring_atoms(mol):
    return {k for k, flag in enumerate(mol.in_ring) if flag}


class TestBasicParsing:
    def test_methane(self):
        mol = parse_smiles("C")
        assert mol.num_atoms == 1
        assert mol.ends == [] and mol.orders == []
        assert mol.symbols == ["C"]
        assert mol.degrees == [0]
        assert mol.hydrogens == [4]

    def test_ethanol(self):
        mol = parse_smiles("CCO")
        assert mol.num_atoms == 3
        assert mol.ends == [0, 1, 1, 2]
        assert mol.symbols == ["C", "C", "O"]
        assert mol.hydrogens == [3, 2, 1]

    def test_acetic_acid_branch(self):
        mol = parse_smiles("CC(=O)O")
        assert mol.num_atoms == 4
        assert bond_orders(mol) == [1.0, 1.0, 2.0]
        # carbonyl carbon: three heavy neighbors, no hydrogens left after C=O
        assert mol.degrees[1] == 3
        assert mol.hydrogens[1] == 0

    def test_triple_bond(self):
        mol = parse_smiles("C#N")
        assert bond_orders(mol) == [3.0]
        assert mol.hydrogens == [1, 0]

    def test_two_letter_halogens(self):
        mol = parse_smiles("ClCBr")
        assert mol.symbols == ["Cl", "C", "Br"]
        assert mol.hydrogens[0] == 0

    def test_neopentane_degree(self):
        mol = parse_smiles("CC(C)(C)C")
        assert mol.degrees[1] == 4
        assert mol.hydrogens[1] == 0

    def test_phosphorus_valence_promotion(self):
        assert parse_smiles("CP(C)C").hydrogens[1] == 0
        # four substituents push P to its next valence (5), one slot left
        assert parse_smiles("CP(C)(C)C").hydrogens[1] == 1

    def test_sulfone(self):
        mol = parse_smiles("CS(=O)(=O)C")
        assert mol.hydrogens[1] == 0


class TestAromaticParsing:
    def test_benzene(self):
        mol = parse_smiles("c1ccccc1")
        assert mol.num_atoms == 6
        assert mol.orders == [1.5] * 6
        assert mol.aromatic == [True] * 6
        assert mol.hydrogens == [1] * 6

    def test_toluene_mixed_bond(self):
        mol = parse_smiles("Cc1ccccc1")
        assert mol.ends[:2] == [0, 1] and 0 not in mol.ends[2:]
        assert mol.orders[0] == 1.0
        assert mol.hydrogens[0] == 3

    def test_pyridine_nitrogen(self):
        mol = parse_smiles("c1ccncc1")
        n = mol.symbols.index("N")
        assert mol.aromatic[n]
        assert mol.hydrogens[n] == 0

    def test_pyrrole_bracket_nh(self):
        mol = parse_smiles("c1cc[nH]c1")
        n = mol.symbols.index("N")
        assert mol.bracketed == [k == n for k in range(5)]
        assert mol.hydrogens[n] == 1

    def test_methyl_on_aromatic_nitrogen(self):
        # "Cn" must read as carbon + aromatic nitrogen, not an element symbol
        mol = parse_smiles("Cn1cccc1")
        assert mol.symbols[:2] == ["C", "N"]
        assert mol.aromatic[1]

    def test_caffeine(self):
        mol = parse_smiles("Cn1cnc2c1c(=O)n(C)c(=O)n2C")
        assert mol.num_atoms == 14
        assert mol.symbols.count("N") == 4
        assert mol.symbols.count("O") == 2

    def test_aromatic_sulfur_valence_quirk(self):
        # documented rule: floor(1.5 + 1.5) = 3 pushes S to valence 4
        mol = parse_smiles("c1ccsc1")
        assert mol.hydrogens[mol.symbols.index("S")] == 1

    def test_selenophene_bracket_aromatic(self):
        mol = parse_smiles("c1cc[se]1")
        se = mol.symbols.index("Se")
        assert mol.aromatic[se] and mol.bracketed[se]


class TestBracketAtoms:
    def test_sodium_cation(self):
        mol = parse_smiles("[Na+]")
        assert (mol.symbols, mol.charges, mol.hydrogens) == (["Na"], [1], [0])

    def test_charge_forms(self):
        assert parse_smiles("[Fe++]").charges == [2]
        assert parse_smiles("[Fe+2]").charges == [2]
        assert parse_smiles("[O-]").charges == [-1]
        assert parse_smiles("[N+](C)(C)(C)C").charges == [1, 0, 0, 0, 0]

    def test_hydrogen_counts(self):
        for smiles, h in (("[CH4]", 4), ("[NH4+]", 4), ("[CH]", 1)):
            mol = parse_smiles(smiles)
            assert (mol.bracketed, mol.hydrogens) == ([True], [h])

    def test_isotope(self):
        mol = parse_smiles("[13CH4]")
        assert mol.isotopes == [13] and mol.hydrogens == [4]
        assert parse_smiles("[2H]O").isotopes == [2, None]

    def test_chirality_discarded(self):
        mol = parse_smiles("C[C@@H](N)O")
        assert mol.num_atoms == 4
        assert mol.bracketed[1] and mol.hydrogens[1] == 1

    def test_atom_map_discarded(self):
        assert parse_smiles("[CH3:1]O").num_atoms == 2

    def test_explicit_hydrogen_nodes(self):
        mol = parse_smiles("[H]O[H]")
        assert mol.num_atoms == 3
        assert mol.degrees[1] == 2 and mol.hydrogens[1] == 0

    def test_bracket_atom_zero_implicit(self):
        # bracket atoms never get valence-rule hydrogens
        assert parse_smiles("[CH2]C").hydrogens[0] == 2
        assert parse_smiles("[C]").hydrogens == [0]


class TestRingsAndFragments:
    def test_cyclohexane(self):
        mol = parse_smiles("C1CCCCC1")
        assert len(mol.orders) == 6
        assert mol.in_ring == [True] * 6

    def test_percent_ring_label(self):
        mol = parse_smiles("C%12CCC%12")
        assert len(mol.orders) == 4

    def test_ring_bond_order_on_either_side(self):
        assert bond_orders(parse_smiles("C=1CCCCC=1")) == [1.0] * 5 + [2.0]
        assert bond_orders(parse_smiles("C=1CCCCC1")) == [1.0] * 5 + [2.0]
        # an unmarked closure is aromatic only between two aromatic atoms
        assert bond_orders(parse_smiles("c1ccccC1")) == [1.0] * 2 + [1.5] * 4

    def test_stereo_slashes_read_as_single(self):
        mol = parse_smiles("F/C=C/F")
        assert bond_orders(mol) == [1.0, 1.0, 2.0]

    def test_naphthalene_all_ring(self):
        mol = parse_smiles("c1ccc2ccccc2c1")
        assert mol.in_ring == [True] * 10

    def test_chain_no_ring(self):
        assert parse_smiles("CCCCC").in_ring == [False] * 5

    def test_ring_plus_tail(self):
        mol = parse_smiles("C1CC1CC")
        assert mol.in_ring == [True, True, True, False, False]

    def test_dot_fragments_one_molecule(self):
        mol = parse_smiles("[Na+].[O-]c1ccccc1")
        assert mol.num_atoms == 8
        comps = mol.fragments
        assert len(comps) == 2
        assert comps[0] == [0]
        assert comps[1] == [1, 2, 3, 4, 5, 6, 7]

    def test_ring_label_reuse(self):
        mol = parse_smiles("C1CC1C1CC1")
        assert len(mol.orders) == 7
        assert mol.in_ring == [True] * 6


# smiles -> (ring atoms, fragments, the largest fragment's atom symbols
# and bonds): fragments that a branch interleaves, and ring closures
# across a '.', which join two fragments.
FOREST_CASES = {
    "C(.CC)O": (set(), [[0, 3], [1, 2]], ["C", "O"], [(0, 1)]),
    "C1.C1": (set(), [[0, 1]], ["C", "C"], [(0, 1)]),
    "C12.C1C2": ({0, 1, 2}, [[0, 1, 2]], ["C"] * 3, [(0, 1), (1, 2), (0, 2)]),
    "C1.C2.C12": (set(), [[0, 1, 2]], ["C"] * 3, [(0, 2), (1, 2)]),
    "[NH4+](.Cl)[NH4+]": (set(), [[0, 2], [1]], ["N", "N"], [(0, 1)]),
    "c1ccccc1.[Na+]": (set(range(6)), [list(range(6)), [6]], ["C"] * 6,
                       [(k, k + 1) for k in range(5)] + [(0, 5)]),
}


class TestParseForest:
    @pytest.mark.parametrize("smiles", FOREST_CASES)
    def test_pinned_rings_fragments_and_stripping(self, smiles):
        ring, fragments, symbols, bonds = FOREST_CASES[smiles]
        mol = parse_smiles(smiles)
        assert ring_atoms(mol) == ring
        assert mol.fragments == fragments
        kept = strip_to_largest_component(mol)
        assert kept.symbols == symbols
        assert list(zip(kept.ends[::2], kept.ends[1::2])) == bonds
        assert kept.in_ring == bridge_free_atoms(kept)
        assert kept.fragments == [list(range(len(symbols)))]
        assert parse_mismatches([smiles])[1] == []

    def test_token_soup_matches_the_oracles(self):
        soup = token_soup(np.random.default_rng(17), 20000)
        parsed, wrong = parse_mismatches(soup)
        assert wrong[:5] == []
        assert len(parsed) > 5000
        # the soup reaches what a parse forest can get wrong: fragments a
        # branch interleaves, and closures that join fragments, some of
        # them on a ring
        interleaved = [m for _, m in parsed if any(
            f[-1] - f[0] + 1 != len(f) for f in m.fragments)]
        joined = [m for s, m in parsed
                  if len(m.fragments) <= s.count(".")]
        assert len(interleaved) > 20
        assert len(joined) > 200
        assert sum(any(m.in_ring) for m in joined) > 50

    def test_stripping_keeps_the_parsed_atoms(self):
        mol = parse_smiles("[Na+].[13CH2]1CC1")
        kept = strip_to_largest_component(mol)
        for name in ("symbols", "aromatic", "charges", "hydrogens", "degrees",
                     "order_sums", "in_ring", "isotopes", "bracketed"):
            assert getattr(kept, name) == getattr(mol, name)[1:], name
        assert kept.in_ring == [True] * 3
        assert kept.isotopes == [13, None, None]


class TestErrors:
    def test_unclosed_branch_position(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles("C(")
        assert exc.value.position == 2

    def test_unmatched_close(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles("CC)")
        assert exc.value.position == 3

    def test_unclosed_ring(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles("C1CC")
        assert exc.value.position == 2

    def test_dangling_bond(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("CC=")

    def test_double_bond_symbol(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C==C")

    def test_self_ring_bond(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C11")

    def test_duplicate_ring_bond(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C12CC12")

    def test_ring_symbol_mismatch(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C=1CCCCC-1")

    def test_empty_input(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("")

    def test_unclosed_bracket(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("[CH3")

    def test_empty_bracket(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("[]")

    def test_charge_out_of_range(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("[C+5]")
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("[O-----]")

    def test_wildcard_unsupported(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_smiles("*CC")
        assert exc.value.position == 1

    def test_reaction_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_smiles("C>N")

    def test_out_of_vocabulary_element(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_smiles("[Te]C")
        assert exc.value.token == "Te"

    def test_bare_metal_needs_bracket(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_smiles("KCl")

    def test_leading_branch(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("(C)C")

    def test_bond_before_close(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C(C=)O")

    def test_whitespace_rejected(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C C")

    def test_error_message_carries_token(self):
        with pytest.raises(SmilesSyntaxError) as exc:
            parse_smiles("C&C")
        assert exc.value.token == "&"
        assert "position 2" in str(exc.value)


SYNTAX, UNSUPPORTED = SmilesSyntaxError, UnsupportedFeatureError

# One row per raise site in smiles.py, plus rows that pin which check wins
# when two could fire.  The message text reaches an ingestion report's
# skip_examples, and through it every manifest fingerprint.
RAISE_SITES = [
    # (smiles, class, message, position, token)
    ("", SYNTAX, "empty SMILES", 1, ""),
    ("   ", SYNTAX, "empty SMILES", 1, ""),
    ("C C", SYNTAX, "whitespace inside SMILES", 2, " "),
    ("C\tC", SYNTAX, "whitespace inside SMILES", 2, "\t"),
    ("Cx", SYNTAX, "unknown aromatic atom", 2, "x"),
    ("Cé", SYNTAX, "unknown aromatic atom", 2, "é"),
    ("C==C", SYNTAX, "two bond symbols in a row", 3, "="),
    ("(C)C", SYNTAX, "branch before any atom", 1, "("),
    ("C=(C)C", SYNTAX, "bond before branch open", 3, "("),
    ("CC)", SYNTAX, "unmatched ')'", 3, ")"),
    ("C)=", SYNTAX, "unmatched ')'", 2, ")"),
    ("C(C=)O", SYNTAX, "dangling bond before ')'", 5, ")"),
    ("C=.C", SYNTAX, "bond before fragment dot", 3, "."),
    ("=CC", SYNTAX, "bond before any atom", 1, "="),
    ("#C", SYNTAX, "bond before any atom", 1, "#"),
    ("C.=C", SYNTAX, "bond before any atom", 3, "="),
    (".C", SYNTAX, "fragment dot before any atom", 1, "."),
    ("C(C.)C", SYNTAX, "fragment dot before ')'", 5, ")"),
    ("C(.)C", SYNTAX, "fragment dot before ')'", 4, ")"),
    ("C.", SYNTAX, "fragment dot at end", 2, "."),
    ("C()C", SYNTAX, "empty branch", 3, ")"),
    ("C((C))", SYNTAX, "empty branch", 6, ")"),
    ("*CC", UNSUPPORTED, "wildcard atom", 1, "*"),
    ("C>N", UNSUPPORTED, "reaction SMILES", 2, ">"),
    ("C&C", SYNTAX, "unexpected character", 2, "&"),
    ("Zn", UNSUPPORTED, "element must be bracketed or is outside "
     "vocabulary", 1, "Zn"),
    ("KCl", UNSUPPORTED, "element must be bracketed or is outside "
     "vocabulary", 1, "K"),
    ("Q", SYNTAX, "unknown atom symbol", 1, "Q"),
    ("CÉ", SYNTAX, "unknown atom symbol", 2, "É"),
    ("[C:]", SYNTAX, "atom map without digits", 4, ":"),
    ("[CH3", SYNTAX, "unclosed or malformed bracket atom", 1, ""),
    ("[C;]", SYNTAX, "unclosed or malformed bracket atom", 1, ";"),
    ("[C:1;]", SYNTAX, "unclosed or malformed bracket atom", 1, ";"),
    ("[]", SYNTAX, "bracket atom missing element symbol", 2, "]"),
    ("[13]", SYNTAX, "bracket atom missing element symbol", 4, "]"),
    ("[te]", UNSUPPORTED, "aromatic element outside vocabulary", 2, "t"),
    ("[q]", SYNTAX, "unknown aromatic symbol", 2, "q"),
    ("[ß]", SYNTAX, "unknown aromatic symbol", 2, "ß"),
    ("[Te]", UNSUPPORTED, "element outside vocabulary", 2, "Te"),
    ("[U]", UNSUPPORTED, "element outside vocabulary", 2, "U"),
    ("[Q]", SYNTAX, "unknown element symbol", 2, "Q"),
    ("[C+5]", SYNTAX, "formal charge outside [-4, +4]", 3, "+++++"),
    ("[O-----]", SYNTAX, "formal charge outside [-4, +4]", 3, "-----"),
    ("[C+12]", SYNTAX, "formal charge outside [-4, +4]", 3, "+" * 9),
    ("C11", SYNTAX, "bond endpoints must be distinct", 3, ""),
    ("C12CC12", SYNTAX, "duplicate bond between atom pair", 7, ""),
    ("C1C1", SYNTAX, "duplicate bond between atom pair", 4, ""),
    ("1CC", SYNTAX, "ring closure before any atom", 1, "1"),
    ("=1C", SYNTAX, "ring closure before any atom", 2, "1"),
    ("%12C", SYNTAX, "ring closure before any atom", 1, "%"),
    ("C%1C", SYNTAX, "'%' needs two digits", 2, "%1C"),
    ("C%a1", SYNTAX, "'%' needs two digits", 2, "%a1"),
    ("C%", SYNTAX, "'%' needs two digits", 2, "%"),
    ("C=1CCCCC-1", SYNTAX, "ring bond symbols disagree", 10, "1"),
    ("CC=", SYNTAX, "dangling bond at end", 3, ""),
    ("C(", SYNTAX, "unclosed branch", 2, "("),
    ("C1CC", SYNTAX, "unclosed ring bond", 2, "1"),
]


def _expected_text(message, position, token):
    if token:
        return f"{message} (position {position}, token {token!r})"
    return f"{message} (position {position})"


class TestRaiseSites:
    @pytest.mark.parametrize("smiles, cls, message, position, token",
                             RAISE_SITES,
                             ids=[repr(row[0]) for row in RAISE_SITES])
    def test_class_message_position_and_token(self, smiles, cls, message,
                                              position, token):
        with pytest.raises(cls) as exc:
            parse_smiles(smiles)
        assert type(exc.value) is cls
        assert str(exc.value) == _expected_text(message, position, token)
        assert exc.value.position == position
        assert exc.value.token == token


# Inputs that escaped the parser as a raw ValueError or IndexError: digits
# outside ASCII 0-9 (str.isdigit() accepts "²" and "٣"), and a one-letter
# aromatic bracket symbol at the end of the text.
FORMER_CRASHES = [
    ("C²", SYNTAX, "unexpected character", 2, "²"),
    ("C٣CCC٣", SYNTAX, "unexpected character", 2, "٣"),
    ("C%1²", SYNTAX, "'%' needs two digits", 2, "%1²"),
    ("[²C]", SYNTAX, "bracket atom missing element symbol", 2, "²"),
    ("[CH²]", SYNTAX, "unclosed or malformed bracket atom", 1, "²"),
    ("[C+²]", SYNTAX, "unclosed or malformed bracket atom", 1, "²"),
    ("[CH3:1²]", SYNTAX, "unclosed or malformed bracket atom", 1, "²"),
    ("[C:²]", SYNTAX, "atom map without digits", 4, ":"),
    ("[n", SYNTAX, "unclosed or malformed bracket atom", 1, ""),
    ("CC[c", SYNTAX, "unclosed or malformed bracket atom", 3, ""),
]


class TestFormerCrashes:
    @pytest.mark.parametrize("smiles, cls, message, position, token",
                             FORMER_CRASHES,
                             ids=[repr(row[0]) for row in FORMER_CRASHES])
    def test_raise_smiles_errors(self, smiles, cls, message, position,
                                 token):
        with pytest.raises(cls) as exc:
            parse_smiles(smiles)
        got = exc.value
        assert (type(got), str(got), got.position, got.token) == \
            (cls, _expected_text(message, position, token), position, token)
