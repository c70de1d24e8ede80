import statistics

import pytest

import corpus
from molcalib.errors import FeatureError, SmilesError
from molcalib.featurize import featurize, strip_to_largest_component
from molcalib.smiles import parse_smiles

PROFILES = (corpus.BACE_LIKE, corpus.HIV_LIKE)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_same_seed_gives_identical_csv(profile, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    corpus.write_csv(str(first), profile, corpus.generate(profile, 300, 7))
    corpus.write_csv(str(second), profile, corpus.generate(profile, 300, 7))
    assert first.read_bytes() == second.read_bytes()
    other = corpus.to_csv(profile, corpus.generate(profile, 300, 8))
    assert other != first.read_text()


def _ingest(smiles):
    return featurize(strip_to_largest_component(parse_smiles(smiles)))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_exactly_the_planted_rows_fail(profile):
    rows = corpus.generate(profile, 1000, 3)
    planted = [r for r in rows if r.planted_bad]
    assert len(planted) == round(1000 * profile.bad_rate)
    sizes = []
    for row in rows:
        if row.planted_bad:
            with pytest.raises((SmilesError, FeatureError)):
                _ingest(row.smiles)
        else:
            sizes.append(_ingest(row.smiles).num_nodes)
    target = {"bace-like": 34.0, "hiv-like": 25.0}[profile.name]
    assert abs(statistics.mean(sizes) - target) < 2.0
    positives = sum(r.label for r in rows) / len(rows)
    assert abs(positives - profile.positive_rate) < 0.05
    salted = sum(r.salted for r in rows) / len(rows)
    assert abs(salted - profile.salted_rate) < 0.03


def test_dialect_features_appear():
    text = corpus.to_csv(corpus.HIV_LIKE,
                         corpus.generate(corpus.HIV_LIKE, 1000, 0))
    for token in ("c1", "%1", "(", "[nH]", "[N+]", "[O-]", "[13C", "@",
                  "/", "\\", "=", "#", ".", "Cl"):
        assert token in text, token
