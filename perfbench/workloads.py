"""The three benchmark workloads, each a closed loop over public molcalib calls.

Each workload owns its inputs, built from the benchmark seed by
``corpus.py``; the program only ever sees the CSV written from them.

* ``train-gcn``: ``runner.train_run`` on a BACE-like corpus, default model
  (GCN+attn, d=64, dg=256, L=4, batch 32, BCE).  The corpus is ingested in
  set-up, so the loop is autodiff, model, losses and optim.
* ``screen``: a seeded, untrained GAT+attn model with dropout 0.2 scores
  an HIV-like library through ``runner.evaluate_model``: one deterministic
  pass over the library, then MC dropout at T=30 one compound per call.
  Forward passes only: no backward, no optimizer.
* ``ingest-hiv``: ``data.load_dataset`` then ``data.split_dataset`` on an
  HIV-like CSV with salts and planted unusable rows.  No autodiff at all.

Every workload exposes ``setup()``, ``op()``, ``call_seconds`` (the samples
behind ``call_ms_*``), ``mol_per_s()``, ``named_metrics()`` and ``check()``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import replace

import corpus
import stats
from tracing import ReturnTimer

from molcalib import config as config_mod
from molcalib import data, model, optim, runner
from molcalib import featurize as featurize_mod

SPLIT_RATIO = 0.8


def make_config(csv_path: str, profile: corpus.Profile, seed: int,
                epochs: int = 1, model_section: dict | None = None,
                inference: dict | None = None):
    raw = {
        "dataset": {"name": profile.name, "path": csv_path,
                    "smiles_column": profile.smiles_column,
                    "label_column": profile.label_column,
                    "label_rule": "direct", "strip_salts": True},
        "model": model_section or {},
        "training": {"epochs": epochs, "batch_size": 32,
                     "split_ratio": SPLIT_RATIO, "seeds": [seed]},
        "inference": inference or {},
    }
    return config_mod.resolve_config(raw)


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _probabilities_ok(probs) -> bool:
    return all(0.0 <= float(p) <= 1.0 for p in probs)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str, patch) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.load_reports: list[dict] = []
        self.call_seconds: list[float] = []
        self.problems: list[str] = []
        # molecules through the timed calls, the seconds they took, and
        # the rate of each operation
        self.molecules = 0
        self.seconds = 0.0
        self.op_rates: list[float] = []

    def _timed(self, molecules: int, seconds: float) -> None:
        self.molecules += molecules
        self.seconds += seconds
        self.op_rates.append(molecules / seconds)

    def mol_per_s(self) -> float:
        """Median over operations, so one disturbed call moves it little."""
        return statistics.median(self.op_rates)

    def _write_corpus(self, profile, rows: int, filename: str):
        generated = corpus.generate(profile, rows, self.seed)
        path = os.path.join(self.work_dir, filename)
        corpus.write_csv(path, profile, generated)
        self.planted = sum(r.planted_bad for r in generated)
        return generated, path

    def _load(self, spec):
        graphs, report = data.load_dataset(spec)
        self.load_reports.append(report)
        if report["skipped"] != self.planted:
            self.problems.append(
                f"load skipped {report['skipped']} rows, "
                f"planted {self.planted}")
        return graphs, report

    def check(self) -> list[str]:
        return list(self.problems)


class TrainGcn(Workload):
    name = "train-gcn"
    ROWS = 1513
    EPOCHS = 2

    def __init__(self, seed, work_dir, patch):
        super().__init__(seed, work_dir, patch)
        self.steps = ReturnTimer()
        self.call_seconds = self.steps.intervals
        patch.method(optim.AdamW, "step", self.steps.wrap)
        self.fingerprints: list[str] = []
        self.artifact_bytes = 0

    def setup(self):
        _, path = self._write_corpus(corpus.BACE_LIKE, self.ROWS, "bace.csv")
        self.config = make_config(path, corpus.BACE_LIKE, self.seed,
                                  epochs=self.EPOCHS)
        self.graphs, self.data_report = self._load(self.config.dataset)

    def op(self) -> None:
        out_dir = tempfile.mkdtemp(prefix="run-", dir=self.work_dir)
        try:
            self.steps.new_series()
            t0 = time.perf_counter()
            result = runner.train_run(self.config, self.seed,
                                      graphs=self.graphs,
                                      data_report=self.data_report,
                                      out_dir=out_dir)
            elapsed = time.perf_counter() - t0
            self.steps.new_series()
            self.artifact_bytes = _tree_bytes(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        manifest = result.manifest
        self._timed(self.EPOCHS * manifest["split"]["train_size"], elapsed)
        self.fingerprints.append(manifest["fingerprint"])
        losses = manifest["epoch_losses"]
        if not all(math.isfinite(x) for x in losses):
            self.problems.append(f"non-finite epoch loss in {losses}")
        elif not losses[-1] < losses[0]:
            self.problems.append(f"last epoch loss not below first: {losses}")
        if not _probabilities_ok(result.test_probs):
            self.problems.append("test probability outside [0, 1]")

    def named_metrics(self) -> dict:
        steps = stats.summarize_ms(self.call_seconds)
        named = {"train_mol_per_s": (self.mol_per_s(), "mol/s"),
                 "train_step_ms_p50": (steps["p50"], "ms"),
                 "train_step_ms_p90": (steps["p90"], "ms")}
        if steps["tail_percentile"] is not None:
            named[f"train_step_ms_p{steps['tail_percentile']:g}"] = (
                steps["tail"], "ms")
        return named

    def check(self) -> list[str]:
        problems = super().check()
        if len(set(self.fingerprints)) != 1 or len(self.fingerprints) < 2:
            problems.append(
                f"same-seed train_run fingerprints differ or fewer than two "
                f"runs: {sorted(set(self.fingerprints))}")
        return problems


class Screen(Workload):
    name = "screen"
    ROWS = 2000
    MC_COMPOUNDS = 50
    MC_SAMPLES = 30

    def __init__(self, seed, work_dir, patch):
        super().__init__(seed, work_dir, patch)
        self.det_probs: list[tuple] = []
        self.mc_probs: list[tuple] = []

    def setup(self):
        _, path = self._write_corpus(corpus.HIV_LIKE, self.ROWS,
                                     "library.csv")
        self.det_config = make_config(
            path, corpus.HIV_LIKE, self.seed,
            model_section={"node_embedding": "gat", "readout": "attn",
                           "dropout_rate": 0.2},
            inference={"mode": "deterministic",
                       "mc_samples": self.MC_SAMPLES})
        self.mc_config = replace(
            self.det_config,
            inference=replace(self.det_config.inference, mode="mc_dropout"))
        self.graphs, _ = self._load(self.det_config.dataset)
        self.model = model.GnnModel(self.det_config.model, seed=self.seed)
        # MC compounds spread evenly over the library's size ranking, so
        # their size mix, and with it the per-call cost, barely moves with
        # the seed
        ranked = sorted(range(len(self.graphs)),
                        key=lambda i: (self.graphs[i].num_nodes, i))
        self.mc_index = [ranked[(2 * k + 1) * len(ranked)
                                // (2 * self.MC_COMPOUNDS)]
                         for k in range(self.MC_COMPOUNDS)]

    def op(self) -> None:
        t0 = time.perf_counter()
        _, probs = runner.evaluate_model(self.model, self.graphs,
                                         self.det_config, self.seed)
        self._timed(len(self.graphs), time.perf_counter() - t0)
        self.det_probs.append(tuple(probs))
        mc = []
        for i in self.mc_index:
            t0 = time.perf_counter()
            _, p = runner.evaluate_model(self.model, [self.graphs[i]],
                                         self.mc_config, self.seed)
            self.call_seconds.append(time.perf_counter() - t0)
            mc.append(float(p[0]))
        self.mc_probs.append(tuple(mc))

    def named_metrics(self) -> dict:
        return {"det_mol_per_s": (self.mol_per_s(), "mol/s"),
                "mc_mol_per_s": (len(self.call_seconds)
                                 / sum(self.call_seconds), "mol/s")}

    def check(self) -> list[str]:
        problems = super().check()
        for label, runs in (("deterministic", self.det_probs),
                            ("MC dropout", self.mc_probs)):
            if len(set(runs)) != 1:
                problems.append(f"{label} scores differ between passes")
            if not all(_probabilities_ok(r) for r in runs):
                problems.append(f"{label} probability outside [0, 1]")
        if self.det_probs and self.mc_probs and self.mc_probs[0] == tuple(
                self.det_probs[0][i] for i in self.mc_index):
            problems.append("MC dropout scores equal deterministic ones")
        return problems


class IngestHiv(Workload):
    name = "ingest-hiv"
    ROWS = 4000

    def __init__(self, seed, work_dir, patch):
        super().__init__(seed, work_dir, patch)
        self.rows_timer = ReturnTimer()
        self.call_seconds = self.rows_timer.intervals
        patch.function(featurize_mod, "featurize", self.rows_timer.wrap)

    def setup(self):
        generated, path = self._write_corpus(corpus.HIV_LIKE, self.ROWS,
                                             "hiv.csv")
        self.config = make_config(path, corpus.HIV_LIKE, self.seed)
        usable = [r for r in generated if not r.planted_bad]
        self.expected = {"rows_total": self.ROWS, "ingested": len(usable),
                         "skipped": self.planted,
                         "positives": sum(r.label for r in usable)}

    def op(self) -> None:
        self.rows_timer.new_series()
        t0 = time.perf_counter()
        graphs, report = self._load(self.config.dataset)
        train, test = data.split_dataset(graphs, SPLIT_RATIO, self.seed)
        self._timed(report["rows_total"], time.perf_counter() - t0)
        self.rows_timer.new_series()
        got = {k: report[k] for k in self.expected}
        if got != self.expected:
            self.problems.append(f"ingestion report {got}, expected "
                                 f"{self.expected}")
        if len(train) != int(len(graphs) * SPLIT_RATIO) or \
                len(train) + len(test) != len(graphs):
            self.problems.append(
                f"split sizes {len(train)}/{len(test)} of {len(graphs)}")

    def named_metrics(self) -> dict:
        return {"ingest_mol_per_s": (self.mol_per_s(), "mol/s")}


WORKLOADS = {w.name: w for w in (TrainGcn, Screen, IngestHiv)}


def reference_probabilities(work_dir: str) -> dict[str, list[float]]:
    """Seed-0 models' deterministic scores on the first 64 molecules of the
    seed-0 BACE-like corpus (80 rows), for the stored-reference check."""
    path = os.path.join(work_dir, "reference.csv")
    corpus.write_csv(path, corpus.BACE_LIKE,
                     corpus.generate(corpus.BACE_LIKE, 80, 0))
    out = {}
    for embedding in ("gcn", "gat"):
        cfg = make_config(path, corpus.BACE_LIKE, 0,
                          model_section={"node_embedding": embedding,
                                         "readout": "attn"})
        graphs, _ = data.load_dataset(cfg.dataset)
        gnn = model.GnnModel(cfg.model, seed=0)
        _, probs = runner.evaluate_model(gnn, graphs[:64], cfg, 0)
        out[f"{embedding}+attn"] = [float(p) for p in probs]
    return out
