"""Dataset ingestion: row accounting, label rules, salt stripping, splits."""

import hashlib

import pytest

from molcalib.config import DatasetSpec
from molcalib.data import ingest_smiles, load_dataset, split_dataset
from molcalib.errors import (
    EmptyDatasetError,
    FeatureError,
    IoError,
    SchemaError,
    SmilesError,
    SmilesSyntaxError,
)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def spec_for(path, **overrides):
    base = dict(name="toy", path=str(path), smiles_column="smiles",
                label_column="label")
    base.update(overrides)
    return DatasetSpec(**base)


class TestLoading:
    def test_basic_ingestion(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"],
                  [["CCO", 1], ["c1ccccc1", 0], ["CC(=O)O", 1]])
        graphs, report = load_dataset(spec_for(path))
        assert len(graphs) == 3
        assert report["rows_total"] == 3
        assert report["ingested"] == 3
        assert report["skipped"] == 0
        assert report["positives"] == 2
        assert report["negatives"] == 1
        assert graphs[0].num_nodes == 3
        assert graphs[0].label == 1
        assert graphs[0].source_id == "toy:1"
        assert graphs[0].smiles == "CCO"

    def test_unparseable_rows_skipped_and_reported(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"],
                  [["CCO", 1], ["C(", 0], ["[Te]CC", 1], ["CCN", 0]])
        graphs, report = load_dataset(spec_for(path))
        assert len(graphs) == 2
        assert report["skipped"] == 2
        assert report["rows_total"] == 4
        assert len(report["skip_examples"]) == 2
        assert report["skip_examples"][0]["row"] == 2

    def test_rows_that_crashed_the_parser_are_skipped(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"],
                  [["CCO", 1], ["C²", 0], ["CC[n", 1], ["C٣CCC٣", 0],
                   ["CCN", 0]])
        graphs, report = load_dataset(spec_for(path))
        assert len(graphs) == 2
        assert report["skipped"] == 3
        assert [e["reason"] for e in report["skip_examples"]] == [
            "unexpected character (position 2, token '²')",
            "unclosed or malformed bracket atom (position 3)",
            "unexpected character (position 2, token '٣')",
        ]

    def test_label_rule_pic50_boundary_is_positive(self, tmp_path):
        path = tmp_path / "act.csv"
        write_csv(path, ["smiles", "pIC50"],
                  [["CCO", 6.9], ["CCN", 7.0], ["CCC", 7.4]])
        graphs, report = load_dataset(
            spec_for(path, label_column="pIC50",
                     label_rule="pic50_threshold"))
        assert [g.label for g in graphs] == [0, 1, 1]
        assert report["positives"] == 2

    def test_direct_label_must_be_binary(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"], [["CCO", 2]])
        with pytest.raises(SchemaError):
            load_dataset(spec_for(path))

    def test_non_numeric_activity_is_schema_error(self, tmp_path):
        path = tmp_path / "act.csv"
        write_csv(path, ["smiles", "pIC50"], [["CCO", "high"]])
        with pytest.raises(SchemaError):
            load_dataset(spec_for(path, label_column="pIC50",
                                  label_rule="pic50_threshold"))

    def test_float_style_binary_labels_accepted(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"], [["CCO", "1.0"], ["CCN", "0.0"]])
        graphs, _ = load_dataset(spec_for(path))
        assert [g.label for g in graphs] == [1, 0]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "y"], [["CCO", 1]])
        with pytest.raises(SchemaError, match="label"):
            load_dataset(spec_for(path))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_dataset(spec_for(tmp_path / "absent.csv"))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text("\ufeffsmiles,label\nCCO,1\nCCN,0\n",
                        encoding="utf-8")
        graphs, report = load_dataset(spec_for(path))
        assert report["ingested"] == 2 and report["skipped"] == 0
        assert [g.smiles for g in graphs] == ["CCO", "CCN"]

    def test_blank_lines_are_no_rows(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("smiles,label\n\nCCO,1\n\n\nC(,0\nCCN,0\n\n")
        graphs, report = load_dataset(spec_for(path))
        assert report["rows_total"] == 3 and report["skipped"] == 1
        assert report["skip_examples"][0]["row"] == 2
        assert [g.source_id for g in graphs] == ["toy:1", "toy:3"]

    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("label,smiles\n1,CCO\n0\n1,CCN\n")
        graphs, report = load_dataset(spec_for(path))
        assert report["rows_total"] == 3 and report["skipped"] == 1
        assert report["skip_examples"][0]["row"] == 2
        assert report["skip_examples"][0]["smiles"] == ""
        assert [g.smiles for g in graphs] == ["CCO", "CCN"]
        path.write_text("smiles,label\nCCO,1\nCCN\n")
        with pytest.raises(SchemaError,
                           match="^row 2: label '' in column 'label' is "
                                 "not binary$"):
            load_dataset(spec_for(path))

    def test_featurize_failures_skipped_and_reported(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"],
                  [["CCO", 1], ["[SnH5]", 0], ["CCN", 0]])
        graphs, report = load_dataset(spec_for(path))
        assert len(graphs) == 2
        assert report["skip_examples"] == [{
            "row": 2, "smiles": "[SnH5]",
            "reason": "hydrogen count 5 exceeds schema maximum 4"}]

    def test_all_rows_bad_is_empty_dataset(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"], [["C(", 1], ["((", 0]])
        with pytest.raises(EmptyDatasetError):
            load_dataset(spec_for(path))


class TestSaltStripping:
    def test_counter_ion_removed_by_default(self, tmp_path):
        path = tmp_path / "salt.csv"
        write_csv(path, ["smiles", "label"], [["CCO.[Na+]", 1]])
        graphs, _ = load_dataset(spec_for(path))
        assert graphs[0].num_nodes == 3  # ethanol only

    def test_stripping_can_be_disabled(self, tmp_path):
        path = tmp_path / "salt.csv"
        write_csv(path, ["smiles", "label"], [["CCO.[Na+]", 1]])
        graphs, _ = load_dataset(spec_for(path, strip_salts=False))
        assert graphs[0].num_nodes == 4


class TestIngestSmiles:
    def test_matches_the_loaded_graph(self, tmp_path):
        path = tmp_path / "salt.csv"
        write_csv(path, ["smiles", "label"], [["CCO.[Na+]", 1]])
        loaded = load_dataset(spec_for(path))[0][0]
        graph = ingest_smiles("CCO.[Na+]", label=1, source_id="toy:1")
        assert graph.node_features.tobytes() == \
            loaded.node_features.tobytes()
        assert graph.bonds.tobytes() == loaded.bonds.tobytes()
        assert (graph.label, graph.source_id) == (1, "toy:1")

    def test_strip_salts_flag(self):
        # the unstripped tin atom is out of the schema's hydrogen bins
        assert ingest_smiles("CCO.[SnH5]").num_nodes == 3
        with pytest.raises(FeatureError):
            ingest_smiles("CCO.[SnH5]", strip_salts=False)

    def test_parse_errors_propagate(self):
        with pytest.raises(SmilesSyntaxError):
            ingest_smiles("C(")


# Every token kind of the dialect: bare, aromatic and bracket atoms (isotope,
# @/@@, H count, + ++ +2 - charges, atom maps), all six bond symbols,
# branches, ring digits and %nn, and dot fragments with salts.
GOLDEN_SMILES = [
    "C", "CCO", "N#CC(Br)I", "ClC(F)(F)F", "OB(O)c1ccccc1", "CP(C)(C)C",
    "CS(=O)(=O)C", "C-C=C#N", "c1:c:c:c:c:c1", "F/C=C/F", "F/C=C\\F",
    "CC(=O)Oc1ccccc1C(=O)O", "c1ccncc1", "o1cccc1", "s1cccc1", "c1ccbcc1",
    "c1ccpcc1", "c1cc[nH]c1", "c1cc[se]c1", "c1cc[as]c1",
    "[13CH4]", "[2H]O[2H]", "N[C@@H](C)C(=O)O", "F[C@H](Cl)Br",
    "[NH4+]", "[CH2]=C", "[Fe++]", "[Fe+2]", "[O-]C", "[S-2]", "[Zn+2]",
    "[CH3:1]O", "[NH2:12]C(=O)C", "[SiH4]", "C[Si](C)(C)Cl",
    "C1CCCCC1", "C=1CCCCC=1", "C1CCCCC=1", "c1ccc2ccccc2c1",
    "C%10CCCCC%10", "c1ccc%12ccccc%12c1", "C1CC1C1CC1", "C1.C1",
    "[Na+].[O-]C(=O)c1ccccc1", "Cl.CCN", "CC(=O)[O-].[NH4+]",
    "O.O.c1ccccc1C(=O)O", "[K+].[K+].[O-]S(=O)(=O)[O-]",
    "CCO.[Na+]", "[Ca+2].[O-]C(=O)C.[O-]C(=O)C", "C.N.O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
]
GOLDEN_DIGEST = (
    "80f2dd803aed22f1342594eab57fe537d8683b7da1edb78894c52f2ce20fe450",
    "eb3bd6822721a9d732957c3445923e450603bc389a93bec07a39fcc5a24d7b0f",
)


def golden_digest(strip_salts):
    h = hashlib.sha256()
    for smiles in GOLDEN_SMILES:
        graph = ingest_smiles(smiles, strip_salts=strip_salts)
        h.update(repr(graph.node_features.shape).encode())
        h.update(graph.node_features.tobytes())
        h.update(repr(graph.bonds.shape).encode())
        h.update(graph.bonds.tobytes())
    return h.hexdigest()


class TestGoldenGraphs:
    def test_graph_bytes_are_pinned(self):
        # digests recorded before the parser became one loop over the
        # text; a change to any graph byte fails here
        assert (golden_digest(True), golden_digest(False)) == GOLDEN_DIGEST


# One malformed or unsupported SMILES per raise site of the parser, in
# source order: parse_smiles, _read_bracket_atom, _read_bracket_symbol,
# _bare_atom_error.  A skipped row's error text goes into the ingestion
# report, and through it into every manifest fingerprint.
GOLDEN_ERRORS = [
    "", "(C)C", "C=(C)C", "CC)", "C(C=)O", "C(C.)C", "C()C", "C==C",
    "1CC", "C%1C", "C=1CCCCC-1", "C11", "C12CC12", "C=.C", ".C", "C C",
    "Cx", "*CC", "C>N", "C&C", "=CC", "CC=", "C.", "C(", "C1CC",
    "[C+5]", "[C:]", "[CH3", "[]", "[te]", "[q]", "[Te]", "[U]", "[Q]",
    "Zn", "KCl", "Q",
]
GOLDEN_ERRORS_DIGEST = (
    "e298615c74e1c3cc053532d070839ecae12f85175e7ed05f6448bbc5260a84b5"
)


def golden_errors_digest():
    h = hashlib.sha256()
    for smiles in GOLDEN_ERRORS:
        with pytest.raises(SmilesError) as info:
            ingest_smiles(smiles)
        err = info.value
        h.update(repr((type(err).__name__, str(err), err.position,
                       err.token)).encode())
    return h.hexdigest()


class TestGoldenErrors:
    def test_error_class_message_position_and_token_are_pinned(self):
        # digest recorded before the parser stored atoms as columns
        assert golden_errors_digest() == GOLDEN_ERRORS_DIGEST


class TestSplit:
    def graphs(self, tmp_path, n=10):
        path = tmp_path / "toy.csv"
        write_csv(path, ["smiles", "label"],
                  [["C" * (i + 1), i % 2] for i in range(n)])
        graphs, _ = load_dataset(spec_for(path))
        return graphs

    def test_ratio_and_determinism(self, tmp_path):
        graphs = self.graphs(tmp_path, 10)
        train, test = split_dataset(graphs, 0.8, seed=3)
        assert len(train) == 8 and len(test) == 2
        train2, test2 = split_dataset(graphs, 0.8, seed=3)
        assert [g.source_id for g in train] == [g.source_id for g in train2]
        assert [g.source_id for g in test] == [g.source_id for g in test2]

    def test_different_seeds_differ(self, tmp_path):
        graphs = self.graphs(tmp_path, 10)
        a, _ = split_dataset(graphs, 0.8, seed=0)
        b, _ = split_dataset(graphs, 0.8, seed=1)
        assert [g.source_id for g in a] != [g.source_id for g in b]

    def test_full_ratio_gives_empty_test(self, tmp_path):
        graphs = self.graphs(tmp_path, 6)
        train, test = split_dataset(graphs, 1.0, seed=0)
        assert len(train) == 6 and test == []

    def test_partition_is_exact(self, tmp_path):
        graphs = self.graphs(tmp_path, 9)
        train, test = split_dataset(graphs, 0.8, seed=5)
        ids = sorted(g.source_id for g in train + test)
        assert ids == sorted(g.source_id for g in graphs)
        assert len(train) == int(9 * 0.8)

    def test_bad_ratio_rejected(self, tmp_path):
        graphs = self.graphs(tmp_path, 4)
        with pytest.raises(ValueError):
            split_dataset(graphs, 0.0, seed=0)
