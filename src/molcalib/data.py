"""CSV dataset ingestion and seeded train/test splitting.

Rows whose SMILES fail to parse or featurize are skipped and counted,
never fatal: public molecule collections routinely carry a handful of
exotic entries.  Label problems are fatal (they mean the wrong column,
not a weird molecule).  Direct labels must be 0/1; the pIC50 rule maps a
real-valued activity to 1 when it reaches the threshold (boundary
inclusive) and 0 below it.
"""

from __future__ import annotations

import csv

import numpy as np

from .config import DatasetSpec
from .errors import (
    EmptyDatasetError,
    FeatureError,
    SchemaError,
    SmilesError,
    reading,
)
from .featurize import MolecularGraph, featurize, strip_to_largest_component
from .smiles import parse_smiles

MAX_SKIP_EXAMPLES = 5


def _parse_label(value: str, spec: DatasetSpec, row: int) -> int:
    text = value.strip()
    if spec.label_rule == "pic50_threshold":
        try:
            activity = float(text)
        except ValueError:
            raise SchemaError(
                f"row {row}: activity {text!r} in column "
                f"{spec.label_column!r} is not a number") from None
        if not np.isfinite(activity):
            raise SchemaError(f"row {row}: activity {text!r} is not finite")
        return 1 if activity >= spec.pic50_threshold else 0
    try:
        number = float(text)
    except ValueError:
        raise SchemaError(
            f"row {row}: label {text!r} in column {spec.label_column!r} "
            f"is not binary") from None
    if number not in (0.0, 1.0):
        raise SchemaError(f"row {row}: label {text!r} is not 0 or 1")
    return int(number)


def ingest_smiles(smiles: str, strip_salts: bool = True,
                  label: int | None = None,
                  source_id: str | None = None) -> MolecularGraph:
    """One row's ingestion path: parse, strip salts, featurize.

    Raises :class:`SmilesError` or :class:`FeatureError` for a SMILES the
    dataset loader would skip.
    """
    mol = parse_smiles(smiles)
    if strip_salts:
        mol = strip_to_largest_component(mol)
    return featurize(mol, label=label, source_id=source_id)


def load_dataset(spec: DatasetSpec) -> tuple[list[MolecularGraph], dict]:
    """Read (graph, label) pairs from a CSV file with a header row.

    A UTF-8 byte-order mark before the header is ignored.  Returns the
    graphs plus an ingestion report carrying row accounting:
    total data rows, ingested, skipped (with up to five example reasons),
    and the class balance of what survived.
    """
    graphs: list[MolecularGraph] = []
    skipped = 0
    skip_examples: list[dict] = []
    positives = 0
    rows_total = 0

    with reading(spec.path, "dataset"), \
            open(spec.path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"dataset {spec.path!r} has no header row")
        # a repeated name reads its last column, as a dict of the row would
        column = {name: i for i, name in enumerate(header)}
        missing = [c for c in (spec.smiles_column, spec.label_column)
                   if c not in column]
        if missing:
            raise SchemaError(
                f"dataset {spec.path!r} lacks column(s) "
                f"{', '.join(repr(c) for c in missing)}; header has "
                f"{', '.join(repr(c) for c in header)}")
        smiles_at = column[spec.smiles_column]
        label_at = column[spec.label_column]

        for row in reader:
            if not row:  # a blank line is no row and takes no row number
                continue
            rows_total += 1
            # a short row reads its missing cells as empty
            smiles = row[smiles_at].strip() if smiles_at < len(row) else ""
            label = _parse_label(row[label_at] if label_at < len(row) else "",
                                 spec, rows_total)
            try:
                graph = ingest_smiles(smiles, spec.strip_salts, label,
                                      f"{spec.name}:{rows_total}")
            except (SmilesError, FeatureError) as err:
                skipped += 1
                if len(skip_examples) < MAX_SKIP_EXAMPLES:
                    skip_examples.append({"row": rows_total, "smiles": smiles,
                                          "reason": str(err)})
                continue
            graphs.append(graph)
            positives += label

    if not graphs:
        raise EmptyDatasetError(
            f"dataset {spec.path!r}: no usable rows "
            f"({rows_total} read, {skipped} skipped)")

    report = {
        "dataset": spec.name,
        "path": spec.path,
        "rows_total": rows_total,
        "ingested": len(graphs),
        "skipped": skipped,
        "positives": positives,
        "negatives": len(graphs) - positives,
        "skip_examples": skip_examples,
    }
    return graphs, report


def split_dataset(graphs: list[MolecularGraph], ratio: float,
                  seed: int) -> tuple[list[MolecularGraph],
                                      list[MolecularGraph]]:
    """Seeded shuffle, then prefix split: first ratio-fraction trains."""
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"split ratio {ratio} outside (0, 1]")
    perm = np.random.default_rng(seed).permutation(len(graphs))
    cut = int(len(graphs) * ratio)
    train = [graphs[i] for i in perm[:cut]]
    test = [graphs[i] for i in perm[cut:]]
    return train, test
