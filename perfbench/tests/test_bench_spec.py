import json
from pathlib import Path

import layers
import run


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        ["train-gcn", "screen", "ingest-hiv"]
