"""Seeded synthetic SMILES corpora in the molcalib parser's dialect.

Two profiles stand in for the MoleculeNet sets the paper trains on:

* ``BACE_LIKE``: drug-sized molecules (mean about 34 heavy atoms), balanced
  labels, few salts;
* ``HIV_LIKE``: smaller molecules (mean about 25 heavy atoms), about 3.5%
  positives, about 5% salted rows.

Molecules are assembled from aromatic and aliphatic rings, chains, branches,
ring closures (``%nn`` included), stereo bonds, and bracket atoms carrying
charges, isotopes, chirality and explicit hydrogens.  Positives carry a
planted motif more often than negatives, so a model can learn something.

A known number of rows is made unusable on purpose: most fail to parse,
some parse but break the featurizer's degree or hydrogen limits.  Every
other row parses and featurizes.

Only ``random.Random`` with an integer seed drives the choices, so the same
seed gives a byte-identical CSV on any platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Profile:
    name: str
    smiles_column: str
    label_column: str
    mean_atoms: float
    sd_atoms: float
    min_atoms: int
    max_atoms: int
    positive_rate: float
    salted_rate: float
    bad_rate: float
    motif: str


BACE_LIKE = Profile(name="bace-like", smiles_column="mol",
                    label_column="Class", mean_atoms=30.5, sd_atoms=7.0,
                    min_atoms=16, max_atoms=60, positive_rate=0.46,
                    salted_rate=0.02, bad_rate=0.004,
                    motif="C(=N)N")
HIV_LIKE = Profile(name="hiv-like", smiles_column="smiles",
                   label_column="HIV_active", mean_atoms=22.0,
                   sd_atoms=8.0, min_atoms=10, max_atoms=60,
                   positive_rate=0.035, salted_rate=0.05, bad_rate=0.01,
                   motif="c1ccc([N+](=O)[O-])s1")


@dataclass(frozen=True)
class Row:
    smiles: str
    label: int
    planted_bad: bool
    salted: bool


# (text, heavy atoms); every entry is a complete chain unit whose first
# atom bonds to whatever precedes it
_CHAIN_UNITS = (
    ("C", 1), ("CC", 2), ("CCC", 3), ("N", 1), ("O", 1), ("S", 1),
    ("C(=O)N", 3), ("C(=O)O", 3), ("NC(=O)", 3), ("S(=O)(=O)N", 4),
    ("C=C", 2), ("C#C", 2), ("/C=C/C", 3), ("/C=C\\C", 3),
    ("[C@@H](C)", 2), ("[C@H](O)", 2), ("[N+](C)(C)", 3),
    ("[13CH2]", 1), ("[Si](C)(C)", 3), ("C(C)(C)", 3), ("OC", 2),
    ("CN", 2), ("C(F)", 2),
)

_TERMINALS = (
    ("F", 1), ("Cl", 1), ("Br", 1), ("I", 1), ("C#N", 2),
    ("[N+](=O)[O-]", 3), ("[NH3+]", 1), ("[O-]", 1), ("C(F)(F)F", 4),
    ("[13CH3]", 1), ("O", 1), ("N", 1), ("C", 1), ("[2H]", 1),
)

_BRANCHES = (
    ("C", 1), ("O", 1), ("N", 1), ("F", 1), ("Cl", 1), ("OC", 2),
    ("C(=O)O", 3), ("C(F)(F)F", 4), ("CC", 2), ("[O-]", 1),
)

# aromatic rings: atom symbols, and which positions may carry substituents
_AROMATIC_RINGS = (
    (("c", "c", "c", "c", "c", "c"), (1, 2, 3, 4)),
    (("c", "c", "n", "c", "c", "c"), (1, 3, 4)),
    (("c", "c", "c", "s", "c"), (1, 2)),
    (("c", "c", "c", "o", "c"), (1, 2)),
    (("c", "c", "c", "[nH]", "c"), (1, 2)),
    (("c", "n", "c", "c", "n", "c"), (2, 3)),
)

_ALIPHATIC_RINGS = (
    (("C", "C", "C", "C", "C", "C"), (1, 2, 3, 4)),
    (("C", "C", "C", "N", "C", "C"), (1, 3, 4)),
    (("C", "C", "O", "C", "C", "N"), (1, 3)),
    (("C", "C", "C"), (1,)),
    (("C", "C", "C", "C", "C"), (1, 2, 3)),
    (("N", "C", "C", "N", "C", "C"), (1, 2, 4)),
)

_SALTS = (
    "Cl", "[Na+]", "[Cl-]", "Br", "[K+]", "OC(=O)C(F)(F)F",
    "OS(=O)(=O)O", "CS(=O)(=O)O", "CC(=O)O", "OC(=O)/C=C\\C(=O)O",
)

# each turns a valid SMILES into one the ingestion path must skip
_BREAKERS = (
    lambda s: s + "1",                        # unclosed ring bond
    lambda s: s + ")C",                       # unmatched ')'
    lambda s: "(" + s,                        # branch before any atom
    lambda s: s + "C*",                       # wildcard atom
    lambda s: s + "[Pt]",                     # element outside vocabulary
    lambda s: s + "[NH3+",                    # unclosed bracket atom
    lambda s: s + ">CC",                      # reaction SMILES
    lambda s: s + "[N+5]",                    # charge outside [-4, +4]
    lambda s: s + "C(C)(C)(C)(C)(C)C",        # degree 7 fails featurize
    lambda s: s + "[CH5]",                    # five hydrogens fail featurize
)


class _Assembler:
    """Grows one molecule's SMILES while counting its heavy atoms."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.atoms = 0
        # sometimes start at 10 so '%nn' ring closures appear
        self._next_label = 10 if rng.random() < 0.15 else 1

    def _label(self) -> str:
        label = self._next_label
        self._next_label += 1
        return str(label) if label < 10 else f"%{label:02d}"

    def _pick(self, table) -> str:
        text, count = self.rng.choice(table)
        self.atoms += count
        return text

    def branch(self) -> str:
        return "(" + self._pick(_BRANCHES) + ")"

    def ring(self) -> str:
        aromatic = self.rng.random() < 0.65
        atoms, slots = self.rng.choice(_AROMATIC_RINGS if aromatic
                                       else _ALIPHATIC_RINGS)
        label = self._label()
        self.atoms += len(atoms)
        parts = []
        for i, atom in enumerate(atoms):
            text = atom
            if i == 0:
                text += label
            elif i in slots and self.rng.random() < 0.3:
                text += self.branch()
            if i == len(atoms) - 1:
                text += label
            parts.append(text)
        return "".join(parts)

    def unit(self) -> str:
        if self.rng.random() < 0.35:
            return self.ring()
        text = self._pick(_CHAIN_UNITS)
        if text[-1] in "CN" and self.rng.random() < 0.2:
            text += self.branch()
        return text

    def molecule(self, target: int) -> str:
        parts = [self.ring()]
        while self.atoms < target - 1:
            parts.append(self.unit())
        if self.atoms < target or self.rng.random() < 0.5:
            parts.append(self._pick(_TERMINALS))
        return "".join(parts)


def _target_size(rng: random.Random, profile: Profile) -> int:
    size = round(rng.gauss(profile.mean_atoms, profile.sd_atoms))
    return min(max(size, profile.min_atoms), profile.max_atoms)


def generate(profile: Profile, rows: int, seed: int) -> list[Row]:
    """`rows` rows; exactly round(rows * bad_rate) of them planted bad."""
    rng = random.Random(seed)
    bad_rows = set(rng.sample(range(rows), round(rows * profile.bad_rate)))
    out = []
    for index in range(rows):
        label = 1 if rng.random() < profile.positive_rate else 0
        assembler = _Assembler(rng)
        smiles = assembler.molecule(_target_size(rng, profile))
        # the motif marks most positives and a few negatives
        if rng.random() < (0.8 if label else 0.05):
            smiles = profile.motif + smiles
        # break the main fragment before salting, so salt stripping can
        # never drop the planted defect
        planted = index in bad_rows
        if planted:
            smiles = rng.choice(_BREAKERS)(smiles)
        salted = rng.random() < profile.salted_rate
        if salted:
            salt = rng.choice(_SALTS)
            smiles = f"{salt}.{smiles}" if rng.random() < 0.5 \
                else f"{smiles}.{salt}"
        out.append(Row(smiles=smiles, label=label, planted_bad=planted,
                       salted=salted))
    return out


def to_csv(profile: Profile, rows: list[Row]) -> str:
    lines = [f"{profile.smiles_column},{profile.label_column}"]
    lines.extend(f"{r.smiles},{r.label}" for r in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str, profile: Profile, rows: list[Row]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(profile, rows))
