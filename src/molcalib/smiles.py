"""SMILES parser for a documented subset of the language.

The dialect covers what desk-scale property-prediction corpora actually use:

* organic-subset atoms written bare (``B C N O P S F Cl Br I``) and their
  aromatic lowercase forms (``b c n o p s``);
* bracket atoms ``[...]`` with optional isotope, chirality marker (``@`` or
  ``@@``, parsed and discarded), hydrogen count, formal charge in [-4, +4]
  and an atom-map class (discarded).  Bracket elements outside the vocabulary
  below raise :class:`UnsupportedFeatureError`;
* bonds ``- = # :`` plus the stereo slashes ``/ \\`` which are read as single
  bonds with the stereo annotation discarded;
* branches, ring-closure digits (including ``%nn``) and dot-separated
  fragments, which stay in one :class:`Molecule`.

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
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SmilesSyntaxError, UnsupportedFeatureError

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

#: The full accepted element vocabulary, fixed order (feature schemas index it).
VOCABULARY: tuple[str, ...] = (
    "B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I",
    "Si", "Se", "As", "H", "Na", "K", "Li", "Ca", "Zn", "Fe", "Mg", "Al", "Sn",
)

_AROMATIC_BARE = frozenset("bcnops")
_AROMATIC_BRACKET = frozenset({"b", "c", "n", "o", "p", "s", "se", "as"})

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
    index: int = -1
    # Filled in after graph assembly.
    degree: int = 0
    implicit_hydrogens: int = 0
    bracketed: bool = False


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
    """Parsed molecular graph.  Dot-separated fragments share one instance."""

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    smiles: str = ""

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @cached_property
    def neighbor_lists(self) -> list[list[tuple[int, int]]]:
        """Per atom, its (neighbour, bond index) pairs in bond order.

        Built on first use and kept, so the atoms and bonds must not change
        after that.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for ei, b in enumerate(self.bonds):
            adj[b.a1].append((b.a2, ei))
            adj[b.a2].append((b.a1, ei))
        return adj

    def connected_components(self) -> list[list[int]]:
        """Fragments as sorted index lists, ordered by first atom index."""
        adj = self.neighbor_lists
        seen = [False] * len(self.atoms)
        comps: list[list[int]] = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w, _ in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def ring_atoms(self) -> set[int]:
        """Indices of atoms lying on at least one cycle.

        An edge is a bridge iff removing it disconnects its endpoints; ring
        atoms are exactly the endpoints of non-bridge edges.  Iterative DFS,
        so long chains cannot hit the recursion limit.
        """
        n = len(self.atoms)
        adj = self.neighbor_lists
        disc = [-1] * n
        low = [0] * n
        timer = 0
        bridges = set()
        for root in range(n):
            if disc[root] != -1:
                continue
            stack: list[tuple[int, int, int]] = [(root, -1, 0)]
            while stack:
                v, parent_edge, ptr = stack.pop()
                if ptr == 0:
                    disc[v] = low[v] = timer
                    timer += 1
                advanced = False
                while ptr < len(adj[v]):
                    w, ei = adj[v][ptr]
                    ptr += 1
                    if ei == parent_edge:
                        continue
                    if disc[w] == -1:
                        stack.append((v, parent_edge, ptr))
                        stack.append((w, ei, 0))
                        advanced = True
                        break
                    low[v] = min(low[v], disc[w])
                if not advanced and parent_edge != -1:
                    # v is finished; propagate low to its parent
                    u = self.bonds[parent_edge].a1
                    if u == v:
                        u = self.bonds[parent_edge].a2
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add(parent_edge)
        ring = set()
        for ei, b in enumerate(self.bonds):
            if ei not in bridges:
                ring.add(b.a1)
                ring.add(b.a2)
        return ring


class _Cursor:
    """Character cursor over the input with 1-based position reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.i = 0

    @property
    def pos(self) -> int:
        return self.i + 1

    def eof(self) -> bool:
        return self.i >= len(self.text)

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        return ch

    def read_digits(self) -> str:
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        return self.text[start:self.i]


class SmilesParser:
    """Single-use parser; construct and call :meth:`parse` once."""

    def __init__(self, smiles: str) -> None:
        self._raw = smiles
        self._cur = _Cursor(smiles.strip())
        self._atoms: list[Atom] = []
        self._bonds: list[Bond] = []
        self._bond_set: set[frozenset[int]] = set()
        self._prev: int | None = None
        self._branch_stack: list[tuple[int, int]] = []  # (prev atom, '(' pos)
        self._pending: tuple[str, int] | None = None  # (bond symbol, pos)
        self._open_rings: dict[int, tuple[int, str | None, int]] = {}

    def parse(self) -> Molecule:
        cur = self._cur
        if cur.eof():
            raise SmilesSyntaxError("empty SMILES", 1)
        while not cur.eof():
            pos = cur.pos
            ch = cur.peek()
            if ch.isspace():
                raise SmilesSyntaxError("whitespace inside SMILES", pos, ch)
            if ch == "[":
                self._add_atom(self._read_bracket_atom(), pos)
            elif ch.isupper():
                self._add_atom(self._read_organic_atom(), pos)
            elif ch.islower():
                cur.advance()
                if ch not in _AROMATIC_BARE:
                    raise SmilesSyntaxError("unknown aromatic atom", pos, ch)
                self._add_atom(Atom(symbol=ch.upper(), aromatic=True), pos)
            elif ch.isdigit() or ch == "%":
                self._ring_closure(pos)
            elif ch in _BOND_ORDERS:
                cur.advance()
                if self._pending is not None:
                    raise SmilesSyntaxError("two bond symbols in a row", pos, ch)
                self._pending = (ch, pos)
            elif ch == "(":
                cur.advance()
                if self._prev is None:
                    raise SmilesSyntaxError("branch before any atom", pos, ch)
                if self._pending is not None:
                    raise SmilesSyntaxError("bond before branch open", pos, ch)
                self._branch_stack.append((self._prev, pos))
            elif ch == ")":
                cur.advance()
                if not self._branch_stack:
                    raise SmilesSyntaxError("unmatched ')'", pos, ch)
                if self._pending is not None:
                    raise SmilesSyntaxError("dangling bond before ')'", pos, ch)
                self._prev = self._branch_stack.pop()[0]
            elif ch == ".":
                cur.advance()
                if self._pending is not None:
                    raise SmilesSyntaxError("bond before fragment dot", pos, ch)
                if self._prev is None:
                    raise SmilesSyntaxError("fragment dot before any atom", pos, ch)
                self._prev = None
            elif ch == "*":
                raise UnsupportedFeatureError("wildcard atom", pos, ch)
            elif ch == ">":
                raise UnsupportedFeatureError("reaction SMILES", pos, ch)
            else:
                raise SmilesSyntaxError("unexpected character", pos, ch)
        self._check_closed()
        return self._finish()

    # -- atom readers --------------------------------------------------

    def _read_organic_atom(self) -> Atom:
        cur = self._cur
        pos = cur.pos
        first = cur.advance()
        two = first + cur.peek() if cur.peek().islower() else ""
        if two in ("Cl", "Br"):
            cur.advance()
            return Atom(symbol=two)
        # Outside brackets only organic-subset symbols exist, so "Cn" is a
        # carbon bonded to aromatic nitrogen, never copernicium.
        if first in ORGANIC_VALENCES:
            return Atom(symbol=first)
        if two and two in _ALL_ELEMENTS:
            cur.advance()
            raise UnsupportedFeatureError(
                "element must be bracketed or is outside vocabulary", pos, two
            )
        if first in _ALL_ELEMENTS:
            raise UnsupportedFeatureError(
                "element must be bracketed or is outside vocabulary", pos, first
            )
        raise SmilesSyntaxError("unknown atom symbol", pos, first)

    def _read_bracket_atom(self) -> Atom:
        cur = self._cur
        open_pos = cur.pos
        cur.advance()  # consume '['
        isotope: int | None = None
        digits = cur.read_digits()
        if digits:
            isotope = int(digits)
        sym_pos = cur.pos
        symbol, aromatic = self._read_bracket_symbol(sym_pos)
        # chirality: parsed and discarded
        while cur.peek() == "@":
            cur.advance()
        explicit_h = 0
        if cur.peek() == "H":
            cur.advance()
            digits = cur.read_digits()
            explicit_h = int(digits) if digits else 1
        charge = 0
        if cur.peek() in ("+", "-"):
            charge = self._read_charge()
        if cur.peek() == ":":  # atom-map class, discarded
            cur.advance()
            if not cur.read_digits():
                raise SmilesSyntaxError("atom map without digits", cur.pos, ":")
        if cur.peek() != "]":
            raise SmilesSyntaxError(
                "unclosed or malformed bracket atom", open_pos, cur.peek() or ""
            )
        cur.advance()
        return Atom(
            symbol=symbol,
            aromatic=aromatic,
            formal_charge=charge,
            explicit_hydrogens=explicit_h,
            isotope=isotope,
            bracketed=True,
        )

    def _read_bracket_symbol(self, pos: int) -> tuple[str, bool]:
        cur = self._cur
        ch = cur.peek()
        if not ch.isalpha():
            raise SmilesSyntaxError("bracket atom missing element symbol", pos, ch)
        cur.advance()
        if ch.islower():
            two = ch + cur.peek()
            if two in _AROMATIC_BRACKET:
                cur.advance()
                return two.capitalize(), True
            if ch in _AROMATIC_BRACKET:
                return ch.upper(), True
            if two.capitalize() in _ALL_ELEMENTS or ch.upper() in _ALL_ELEMENTS:
                raise UnsupportedFeatureError(
                    "aromatic element outside vocabulary", pos, ch
                )
            raise SmilesSyntaxError("unknown aromatic symbol", pos, ch)
        two = ch + cur.peek() if cur.peek().islower() else ""
        if two and two in _ALL_ELEMENTS:
            # A bracket holds one atom, so two letters form one element here.
            cur.advance()
            if two in ORGANIC_VALENCES or two in BRACKET_ONLY:
                return two, False
            raise UnsupportedFeatureError("element outside vocabulary", pos, two)
        if ch in ORGANIC_VALENCES or ch in BRACKET_ONLY:
            return ch, False
        if ch in _ALL_ELEMENTS:
            raise UnsupportedFeatureError("element outside vocabulary", pos, ch)
        raise SmilesSyntaxError("unknown element symbol", pos, ch)

    def _read_charge(self) -> int:
        cur = self._cur
        pos = cur.pos
        sign_ch = cur.advance()
        sign = 1 if sign_ch == "+" else -1
        digits = cur.read_digits()
        if digits:
            magnitude = int(digits)
        else:
            magnitude = 1
            while cur.peek() == sign_ch:
                cur.advance()
                magnitude += 1
        if magnitude > 4:
            raise SmilesSyntaxError(
                "formal charge outside [-4, +4]", pos, sign_ch * min(magnitude, 9)
            )
        return sign * magnitude

    # -- graph assembly ------------------------------------------------

    def _add_atom(self, atom: Atom, pos: int) -> None:
        atom.index = len(self._atoms)
        self._atoms.append(atom)
        if self._prev is not None:
            symbol = self._pending[0] if self._pending else None
            self._add_bond(self._prev, atom.index, symbol, pos)
        self._pending = None
        self._prev = atom.index

    def _add_bond(self, a1: int, a2: int, symbol: str | None, pos: int) -> None:
        if a1 == a2:
            raise SmilesSyntaxError("bond endpoints must be distinct", pos)
        key = frozenset((a1, a2))
        if key in self._bond_set:
            raise SmilesSyntaxError("duplicate bond between atom pair", pos)
        self._bond_set.add(key)
        if symbol is None:
            both_aromatic = self._atoms[a1].aromatic and self._atoms[a2].aromatic
            order = 1.5 if both_aromatic else 1.0
        else:
            order = _BOND_ORDERS[symbol]
        self._bonds.append(Bond(a1=a1, a2=a2, order=order))

    def _ring_closure(self, pos: int) -> None:
        cur = self._cur
        if self._prev is None:
            raise SmilesSyntaxError("ring closure before any atom", pos, cur.peek())
        if cur.peek() == "%":
            cur.advance()
            digits = cur.text[cur.i:cur.i + 2]
            if len(digits) != 2 or not digits.isdigit():
                raise SmilesSyntaxError("'%' needs two digits", pos, "%" + digits)
            cur.i += 2
            label = int(digits)
        else:
            label = int(cur.advance())
        symbol = self._pending[0] if self._pending else None
        self._pending = None
        if label in self._open_rings:
            other, other_symbol, _ = self._open_rings.pop(label)
            if symbol and other_symbol and symbol != other_symbol:
                raise SmilesSyntaxError("ring bond symbols disagree", pos, str(label))
            self._add_bond(other, self._prev, symbol or other_symbol, pos)
        else:
            self._open_rings[label] = (self._prev, symbol, pos)

    def _check_closed(self) -> None:
        if self._pending is not None:
            raise SmilesSyntaxError("dangling bond at end", self._pending[1])
        if self._branch_stack:
            raise SmilesSyntaxError("unclosed branch", self._branch_stack[0][1], "(")
        if self._open_rings:
            label, (_, _, pos) = next(iter(self._open_rings.items()))
            raise SmilesSyntaxError("unclosed ring bond", pos, str(label))

    def _finish(self) -> Molecule:
        mol = Molecule(atoms=self._atoms, bonds=self._bonds, smiles=self._raw)
        order_sums = [0.0] * len(self._atoms)
        degrees = [0] * len(self._atoms)
        for b in self._bonds:
            order_sums[b.a1] += b.order
            order_sums[b.a2] += b.order
            degrees[b.a1] += 1
            degrees[b.a2] += 1
        for atom in self._atoms:
            atom.degree = degrees[atom.index]
            atom.implicit_hydrogens = _implicit_hydrogens(
                atom, order_sums[atom.index]
            )
        return mol


def _implicit_hydrogens(atom: Atom, order_sum: float) -> int:
    """Valence-rule hydrogen count; bracket atoms carry explicit counts only."""
    if atom.bracketed:
        return atom.explicit_hydrogens or 0
    valences = ORGANIC_VALENCES.get(atom.symbol)
    if valences is None:
        return 0
    occupied = math.floor(order_sum)
    for v in valences:
        if v >= occupied:
            return v - occupied
    return 0


def parse_smiles(smiles: str) -> Molecule:
    """Parse one SMILES string into a :class:`Molecule`.

    Raises :class:`SmilesSyntaxError` on malformed input and
    :class:`UnsupportedFeatureError` on constructs outside the dialect; both
    carry ``position`` (1-based) and ``token`` attributes.
    """
    return SmilesParser(smiles).parse()
