"""SMILES parser for a documented subset of the language.

The dialect covers what desk-scale property-prediction corpora actually use:

* organic-subset atoms written bare (``B C N O P S F Cl Br I``) and their
  aromatic lowercase forms (``b c n o p s``);
* bracket atoms ``[...]`` with optional isotope, chirality marker (``@`` or
  ``@@``, parsed and discarded), hydrogen count, formal charge in [-4, +4]
  and an atom-map class (discarded).  Bracket elements outside the vocabulary
  below raise :class:`UnsupportedFeatureError`;
* bonds ``- = # :`` plus the stereo slashes ``/ \\`` which are read as single
  bonds with the stereo annotation discarded; a bond symbol needs an atom
  before it in its fragment;
* branches, ring-closure digits (including ``%nn``) and dot-separated
  fragments, which stay in one :class:`Molecule`.  A branch holds at least
  one atom and an atom follows each dot.

Digits are ASCII ``0-9`` only, in ring labels, isotopes, hydrogen counts,
charges and atom maps; any other digit character (``²``, ``٣``) is a
syntax error.

Anything else (wildcard ``*``, reaction ``>``, out-of-vocabulary elements)
raises :class:`UnsupportedFeatureError`; malformed input raises
:class:`SmilesSyntaxError`.  Both carry a 1-based character position.

Implicit hydrogen counts follow a deterministic valence rule rather than real
aromaticity perception: each aromatic bond contributes 1.5 to an atom's bond
order sum, the sum is floored, and the smallest standard valence at or above
it determines the hydrogen count.  No kekulization is attempted.  This gives
chemically wrong-but-stable answers in a few corners (aromatic sulfur picks
up one hydrogen) and that trade is deliberate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import SmilesError, SmilesSyntaxError, UnsupportedFeatureError

# Elements that may appear without brackets, and their standard valences.
ORGANIC_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Elements accepted only inside brackets.
BRACKET_ONLY: frozenset[str] = frozenset(
    {"Si", "Se", "As", "H", "Na", "K", "Li", "Ca", "Zn", "Fe", "Mg", "Al", "Sn"}
)

#: The full accepted element vocabulary, in the featurizer's column order.
VOCABULARY: tuple[str, ...] = (
    "B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I",
    "Si", "Se", "As", "H", "Na", "K", "Li", "Ca", "Zn", "Fe", "Mg", "Al", "Sn",
)

# Bare (unbracketed) atom letters -> Atom(symbol, aromatic) arguments.  The
# two-letter halogens Cl and Br are read by the parser from their first
# letter.
_BARE_ATOMS: dict[str, tuple[str, bool]] = {
    **{s: (s, False) for s in ORGANIC_VALENCES if len(s) == 1},
    **{s: (s.upper(), True) for s in "bcnops"},
}
_AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

# Only ASCII digits count: str.isdigit() also accepts "²" and "٣".
_DIGITS = frozenset("0123456789")

_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5, "/": 1.0, "\\": 1.0}

# Every real element symbol, used only to tell "known element outside the
# vocabulary" (unsupported) apart from "not an element at all" (syntax error).
_ALL_ELEMENTS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co "
    "Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb "
    "Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re "
    "Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es "
    "Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split()
)


@dataclass
class Atom:
    """One heavy (or explicitly written) atom in the molecular graph."""

    symbol: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_hydrogens: int | None = None
    isotope: int | None = None
    # Filled in after graph assembly.
    degree: int = 0
    implicit_hydrogens: int = 0
    bond_order_sum: float = 0.0  # orders of its bonds, added in bond order
    in_ring: bool = False  # on at least one cycle


@dataclass
class Bond:
    """An edge between two atom indices; order 1.5 marks aromatic bonds."""

    a1: int
    a2: int
    order: float = 1.0

    @property
    def aromatic(self) -> bool:
        return self.order == 1.5


@dataclass
class Molecule:
    """Parsed molecular graph.  Dot-separated fragments share one instance.

    ``fragments`` holds each connected fragment as a sorted list of atom
    indices, ordered by first atom index.  The parser fills it in, together
    with each atom's ``in_ring`` flag.  Nothing changes an atom after the
    parse, so a salt-stripped molecule shares its atoms with the parse.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    smiles: str = ""
    fragments: list[list[int]] = field(default_factory=list)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def ring_atoms(self) -> set[int]:
        """Indices of atoms lying on at least one cycle."""
        return {i for i, atom in enumerate(self.atoms) if atom.in_ring}


def parse_smiles(smiles: str) -> Molecule:
    """Parse one SMILES string into a :class:`Molecule`.

    Raises :class:`SmilesSyntaxError` on malformed input and
    :class:`UnsupportedFeatureError` on constructs outside the dialect; both
    carry ``position`` (1-based) and ``token`` attributes.

    One pass over the characters, with the text, the index and the
    parser state in locals.  Bond order sums and degrees are summed as
    each bond is added.

    The chain and branch bonds form a spanning forest of the graph:
    each atom's tree parent is the atom its bond came from.  Every
    ring closure adds one bond outside that forest, so the ring atoms
    are the tree paths between the ends of the closures.
    """
    text = smiles.strip()
    n = len(text)
    if not n:
        raise SmilesSyntaxError("empty SMILES", 1)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    ring_pairs: set[tuple[int, int]] = set()  # (low, high) atom index
    sums: list[float] = []
    degrees: list[int] = []
    parent: list[int] = []  # tree parent per atom; -1 for a root
    closures: list[tuple[int, int]] = []  # ends of each ring closure
    dotted = False
    branches: list[tuple[int, int]] = []  # (prev atom, '(' position)
    rings: dict[int, tuple[int, str | None, int]] = {}
    prev = -1  # last atom of the current chain; -1 for none
    pending: str | None = None  # bond symbol waiting for its next atom
    pending_pos = 0
    i = 0
    while i < n:
        ch = text[i]
        pos = i = i + 1  # i now indexes the next character
        if ch in _BARE_ATOMS:
            if ch + text[i:i + 1] in ("Cl", "Br"):
                atom = Atom(ch + text[i])
                i += 1
            else:
                atom = Atom(*_BARE_ATOMS[ch])
        elif ch == "(":
            if prev < 0:
                raise SmilesSyntaxError("branch before any atom", pos, ch)
            if pending is not None:
                raise SmilesSyntaxError("bond before branch open", pos, ch)
            branches.append((prev, pos))
            continue
        elif ch == ")":
            if not branches:
                raise SmilesSyntaxError("unmatched ')'", pos, ch)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond before ')'", pos, ch)
            if prev < 0:
                raise SmilesSyntaxError("fragment dot before ')'", pos, ch)
            if prev == branches[-1][0]:
                raise SmilesSyntaxError("empty branch", pos, ch)
            prev = branches.pop()[0]
            continue
        elif ch in _BOND_ORDERS:
            if pending is not None:
                raise SmilesSyntaxError("two bond symbols in a row", pos, ch)
            pending = ch
            pending_pos = pos
            continue
        elif ch in _DIGITS or ch == "%":
            if prev < 0:
                raise SmilesSyntaxError("ring closure before any atom", pos, ch)
            if ch == "%":
                digits = text[i:i + 2]
                if len(digits) != 2 or not _DIGITS.issuperset(digits):
                    raise SmilesSyntaxError("'%' needs two digits", pos,
                                            "%" + digits)
                i += 2
                label = int(digits)
            else:
                label = int(ch)
            symbol = pending
            pending = None
            if label not in rings:
                rings[label] = (prev, symbol, pos)
                continue
            other, other_symbol, _ = rings.pop(label)
            if symbol and other_symbol and symbol != other_symbol:
                raise SmilesSyntaxError("ring bond symbols disagree", pos,
                                        str(label))
            if other == prev:
                raise SmilesSyntaxError("bond endpoints must be distinct", pos)
            key = lo, hi = (other, prev) if other < prev else (prev, other)
            # a chain or branch bond joins an atom to its tree parent,
            # which was read before it
            if parent[hi] == lo or key in ring_pairs:
                raise SmilesSyntaxError("duplicate bond between atom pair", pos)
            ring_pairs.add(key)
            symbol = symbol or other_symbol
            if symbol is not None:
                order = _BOND_ORDERS[symbol]
            elif atoms[other].aromatic and atoms[prev].aromatic:
                order = 1.5
            else:
                order = 1.0
            bonds.append(Bond(other, prev, order))
            closures.append((other, prev))
            sums[other] += order
            sums[prev] += order
            degrees[other] += 1
            degrees[prev] += 1
            continue
        elif ch == "[":
            atom, i = _read_bracket_atom(text, i)
        elif ch == ".":
            if pending is not None:
                raise SmilesSyntaxError("bond before fragment dot", pos, ch)
            if prev < 0:
                raise SmilesSyntaxError("fragment dot before any atom", pos, ch)
            prev = -1
            dotted = True
            continue
        elif ch.isspace():
            raise SmilesSyntaxError("whitespace inside SMILES", pos, ch)
        elif ch.isupper():
            raise _bare_atom_error(text, pos)
        elif ch.islower():
            raise SmilesSyntaxError("unknown aromatic atom", pos, ch)
        elif ch == "*":
            raise UnsupportedFeatureError("wildcard atom", pos, ch)
        elif ch == ">":
            raise UnsupportedFeatureError("reaction SMILES", pos, ch)
        else:
            raise SmilesSyntaxError("unexpected character", pos, ch)

        # an atom was read: append it and bond it to the chain
        k = len(atoms)
        atoms.append(atom)
        parent.append(prev)
        if prev < 0:
            if pending is not None:
                raise SmilesSyntaxError("bond before any atom",
                                        pending_pos, pending)
            sums.append(0.0)
            degrees.append(0)
        else:
            # a new atom cannot close a bond twice, so no check is due
            if pending is not None:
                order = _BOND_ORDERS[pending]
            elif atom.aromatic and atoms[prev].aromatic:
                order = 1.5
            else:
                order = 1.0
            bonds.append(Bond(prev, k, order))
            sums[prev] += order
            degrees[prev] += 1
            sums.append(order)
            degrees.append(1)
        pending = None
        prev = k

    if pending is not None:
        raise SmilesSyntaxError("dangling bond at end", pending_pos)
    if prev < 0:  # only a '.' leaves the chain without an atom
        raise SmilesSyntaxError("fragment dot at end", n, ".")
    if branches:
        raise SmilesSyntaxError("unclosed branch", branches[0][1], "(")
    if rings:
        label, (_, _, pos) = next(iter(rings.items()))
        raise SmilesSyntaxError("unclosed ring bond", pos, str(label))

    table = _IMPLICIT_HYDROGENS
    for atom, order_sum, degree in zip(atoms, sums, degrees):
        atom.degree = degree
        atom.bond_order_sum = order_sum
        if atom.explicit_hydrogens is None:  # bracket atoms carry their own
            h = table.get((atom.symbol, order_sum))
            if h is None:
                h = _implicit_hydrogens(atom.symbol, order_sum)
            atom.implicit_hydrogens = h

    fragments = [list(range(len(atoms)))]
    rank: Sequence[int] = range(len(atoms))  # parents rank below children
    if dotted:
        fragments, closures, joined = _join_fragments(parent, closures)
        if joined:  # re-rooting put some parents after their children
            rank = [_depth(parent, k) for k in range(len(atoms))]
    for a, b in closures:
        # mark the tree path from a to b: move the end of higher rank
        # to its parent until the two ends meet
        atoms[a].in_ring = atoms[b].in_ring = True
        while a != b:
            if rank[a] < rank[b]:
                a, b = b, a
            a = parent[a]
            atoms[a].in_ring = True
    return Molecule(atoms=atoms, bonds=bonds, smiles=smiles,
                    fragments=fragments)


def _join_fragments(parent: list[int], closures: list[tuple[int, int]]
                    ) -> tuple[list[list[int]], list[tuple[int, int]], bool]:
    """Group the atoms of a parse forest into fragments, joining the trees
    that a ring closure links across a '.'.

    Such a closure is one more tree edge, not a ring bond: the later end's
    tree is re-rooted at that end and hung from the earlier end
    (``parent`` is updated in place).  Returns the fragments (sorted index
    lists, by first atom), the closures inside one tree, and whether any
    trees were joined.
    """
    root: list[int] = []
    for k, p in enumerate(parent):
        root.append(k if p < 0 else root[p])
    inside: list[tuple[int, int]] = []
    joined = False
    for a, b in closures:
        ra, rb = root[a], root[b]
        if ra == rb:
            inside.append((a, b))
            continue
        joined = True
        up, k = a, b
        while k >= 0:  # reverse the path from b to its root
            nxt = parent[k]
            parent[k] = up
            up, k = k, nxt
        root = [ra if r == rb else r for r in root]
    groups: dict[int, list[int]] = {}
    for k, r in enumerate(root):
        groups.setdefault(r, []).append(k)
    return list(groups.values()), inside, joined


def _depth(parent: list[int], k: int) -> int:
    """Number of tree edges from atom ``k`` up to its root."""
    d = 0
    while parent[k] >= 0:
        k = parent[k]
        d += 1
    return d


def _digits_end(text: str, i: int) -> int:
    """Index just past the run of ASCII digits starting at ``text[i]``."""
    n = len(text)
    while i < n and text[i] in _DIGITS:
        i += 1
    return i


def _read_bracket_atom(text: str, i: int) -> tuple[Atom, int]:
    """Read the bracket atom whose ``[`` ends just before index ``i``;
    return it with the index just past its ``]``."""
    open_pos = i
    end = _digits_end(text, i)
    isotope = int(text[i:end]) if end > i else None
    i = end
    symbol, aromatic, i = _read_bracket_symbol(text, i)
    while text[i:i + 1] == "@":  # chirality: parsed and discarded
        i += 1
    explicit_h = 0
    if text[i:i + 1] == "H":
        end = _digits_end(text, i + 1)
        explicit_h = int(text[i + 1:end]) if end > i + 1 else 1
        i = end
    charge = 0
    sign_ch = text[i:i + 1]
    if sign_ch in ("+", "-"):
        pos = i + 1  # the sign's 1-based position, and the index after it
        end = _digits_end(text, pos)
        if end > pos:
            magnitude = int(text[pos:end])
        else:
            while text[end:end + 1] == sign_ch:
                end += 1
            magnitude = end - i
        i = end
        if magnitude > 4:
            raise SmilesSyntaxError(
                "formal charge outside [-4, +4]", pos, sign_ch * min(magnitude, 9)
            )
        charge = magnitude if sign_ch == "+" else -magnitude
    if text[i:i + 1] == ":":  # atom-map class, discarded
        end = _digits_end(text, i + 1)
        if end == i + 1:
            raise SmilesSyntaxError("atom map without digits", i + 2, ":")
        i = end
    if text[i:i + 1] != "]":
        raise SmilesSyntaxError(
            "unclosed or malformed bracket atom", open_pos, text[i:i + 1]
        )
    atom = Atom(symbol, aromatic, charge, explicit_h, isotope,
                implicit_hydrogens=explicit_h)
    return atom, i + 1


def _read_bracket_symbol(text: str, i: int) -> tuple[str, bool, int]:
    """Read the element at index ``i`` inside brackets; return its symbol,
    its aromatic flag and the index just past it."""
    pos = i + 1
    ch = text[i:i + 1]
    if not ch.isalpha():
        raise SmilesSyntaxError("bracket atom missing element symbol", pos, ch)
    nxt = text[i + 1:i + 2]
    if ch.islower():
        two = ch + nxt
        if two in _AROMATIC_BRACKET:
            return two.capitalize(), True, i + 2
        if ch in _AROMATIC_BRACKET:
            return ch.upper(), True, i + 1
        if two.capitalize() in _ALL_ELEMENTS or ch.upper() in _ALL_ELEMENTS:
            raise UnsupportedFeatureError(
                "aromatic element outside vocabulary", pos, ch
            )
        raise SmilesSyntaxError("unknown aromatic symbol", pos, ch)
    two = ch + nxt if nxt.islower() else ""
    if two and two in _ALL_ELEMENTS:
        # A bracket holds one atom, so two letters form one element here.
        if two in ORGANIC_VALENCES or two in BRACKET_ONLY:
            return two, False, i + 2
        raise UnsupportedFeatureError("element outside vocabulary", pos, two)
    if ch in ORGANIC_VALENCES or ch in BRACKET_ONLY:
        return ch, False, i + 1
    if ch in _ALL_ELEMENTS:
        raise UnsupportedFeatureError("element outside vocabulary", pos, ch)
    raise SmilesSyntaxError("unknown element symbol", pos, ch)


def _bare_atom_error(text: str, pos: int) -> SmilesError:
    """The error for the upper-case letter at ``pos`` (1-based) that starts
    no organic-subset symbol."""
    first = text[pos - 1]
    nxt = text[pos:pos + 1]
    two = first + nxt if nxt.islower() else ""
    # Outside brackets only organic-subset symbols exist, so "Cn" is a
    # carbon bonded to aromatic nitrogen, never copernicium.
    if two and two in _ALL_ELEMENTS:
        return UnsupportedFeatureError(
            "element must be bracketed or is outside vocabulary", pos, two
        )
    if first in _ALL_ELEMENTS:
        return UnsupportedFeatureError(
            "element must be bracketed or is outside vocabulary", pos, first
        )
    return SmilesSyntaxError("unknown atom symbol", pos, first)


def _implicit_hydrogens(symbol: str, order_sum: float) -> int:
    """Valence-rule hydrogen count of a bare (unbracketed) atom."""
    occupied = math.floor(order_sum)
    for v in ORGANIC_VALENCES[symbol]:
        if v >= occupied:
            return v - occupied
    return 0


#: (symbol, bond order sum) -> implicit hydrogen count, for every bare symbol
#: and every order sum up to 12; the parser computes larger sums directly.
_IMPLICIT_HYDROGENS: dict[tuple[str, float], int] = {
    (s, k / 2): _implicit_hydrogens(s, k / 2)
    for s in ORGANIC_VALENCES for k in range(25)
}
