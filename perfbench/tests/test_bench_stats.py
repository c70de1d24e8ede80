import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(expected, n) >= stats.MIN_BEYOND


def test_nearest_rank_values():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_summarize_ms_converts_and_picks_tail():
    summary = stats.summarize_ms([i / 1000.0 for i in range(1, 201)])
    assert summary["count"] == 200
    assert summary["p50"] == pytest.approx(100.0)
    assert summary["p90"] == pytest.approx(180.0)
    assert summary["tail_percentile"] == 95.0
    assert summary["tail"] == pytest.approx(190.0)
