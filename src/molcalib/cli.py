"""Command-line surface: train / evaluate / ablate / screen / parse-check
/ selftest.

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(missing file, bad schema, empty dataset), 3 numerical failure during
training.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import check_seed, load_raw, resolve_config
from .errors import (
    ConfigError,
    DegenerateError,
    EmptyDatasetError,
    FeatureError,
    IoError,
    NumericalError,
    SchemaError,
    SmilesError,
    reading,
)
from .runner import ABLATION_AXES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the published contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="molcalib",
                     description="Graph-network molecular property "
                                 "prediction with reliability reporting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True,
                       help="YAML experiment config")
        p.add_argument("--out-dir", default=None,
                       help="directory for manifests, checkpoints, and "
                            "report CSVs")
        p.add_argument("--strip-salts",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="override salt stripping during ingestion")
        p.add_argument("--bins", type=int, default=None,
                       help="calibration bin count override")
        p.add_argument("--threshold", type=float, default=None,
                       help="decision threshold override")
        p.add_argument("--mc-samples", type=int, default=None,
                       help="MC-dropout sample count override")

    p_train = sub.add_parser("train", help="run the training protocol")
    add_config_flags(p_train)
    p_train.add_argument("--seed", type=int, default=None,
                         help="train only this seed instead of the "
                              "configured list")

    p_eval = sub.add_parser("evaluate",
                            help="score a checkpoint on a test split")
    add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--seed", type=int, default=None,
                        help="seed whose train/test split to evaluate "
                             "(default: first configured seed)")

    p_abl = sub.add_parser("ablate", help="sweep one comparison axis "
                                          "across all seeds")
    add_config_flags(p_abl)
    p_abl.add_argument("--axis", required=True, choices=ABLATION_AXES)

    p_screen = sub.add_parser("screen",
                              help="rank a compound library by predicted "
                                   "probability")
    add_config_flags(p_screen)
    p_screen.add_argument("--checkpoint", required=True)

    p_lint = sub.add_parser("parse-check",
                            help="report which SMILES in a file will ingest")
    p_lint.add_argument("path", help="CSV (with --smiles-column) or one "
                                     "SMILES per line")
    p_lint.add_argument("--smiles-column", default="smiles")
    p_lint.add_argument("--limit", type=int, default=20,
                        help="max failures to print (default 20)")

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _overridden_config(args):
    """The config at ``args.config`` with each given override flag set;
    an empty section takes the flag, and `resolve_config` refuses a
    section that is not a mapping."""
    raw = load_raw(args.config)
    for section, key, value in (("evaluation", "num_bins", args.bins),
                                ("evaluation", "threshold", args.threshold),
                                ("inference", "mc_samples", args.mc_samples),
                                ("dataset", "strip_salts", args.strip_salts)):
        given = raw.get(section)
        if value is not None and (given is None or isinstance(given, dict)):
            raw[section] = {**(given or {}), key: value}
    return resolve_config(raw)


def _make_out_dir(out_dir, *subdirs) -> None:
    """Create `out_dir` (each of its `subdirs`, if any are named) and the
    ``reports`` directory in it before the command loads any data, so
    that a path that cannot be a directory fails at once as a data error,
    not after the work is done.  No `out_dir`, nothing to create."""
    if not out_dir:
        return
    for sub in subdirs or ("",):
        try:
            os.makedirs(os.path.join(out_dir, sub, "reports"), exist_ok=True)
        except OSError as err:
            raise IoError(f"cannot create output directory {out_dir!r}: "
                          f"{err}") from err


def _cmd_train(args) -> int:
    from .runner import train_run

    config = _overridden_config(args)
    seeds = [check_seed(args.seed)] if args.seed is not None else \
        list(config.training.seeds)
    _make_out_dir(args.out_dir, *(f"seed-{seed}" for seed in seeds))
    from .data import load_dataset

    graphs, data_report = load_dataset(config.dataset)
    print(f"dataset {config.dataset.name}: {data_report['ingested']} "
          f"ingested, {data_report['skipped']} skipped "
          f"({data_report['positives']}:{data_report['negatives']} "
          f"positives:negatives)")
    for seed in seeds:
        out = None
        if args.out_dir:
            out = f"{args.out_dir}/seed-{seed}"
        result = train_run(config, seed, graphs=graphs,
                           data_report=data_report, out_dir=out,
                           log=print)
        rep = result.report
        roc = f"{rep.auroc:.4f}" if rep.auroc_defined else "undefined"
        print(f"seed {seed}: accuracy {rep.metrics.accuracy:.4f}  "
              f"auroc {roc}  ece {rep.ece:.4f}"
              + (f"  -> {out}" if out else ""))
    return EXIT_OK


def _load_scoring_checkpoint(path: str, expected):
    """Load a checkpoint that can score featurized molecules and whose
    model settings are `expected`, the config's model section."""
    from dataclasses import asdict

    from .model import load_checkpoint

    model = load_checkpoint(path)
    stored, wanted = asdict(model.config), asdict(expected)
    differing = [f"model.{key} is {stored[key]!r} in the checkpoint, "
                 f"{wanted[key]!r} in the config"
                 for key in stored if stored[key] != wanted[key]]
    if differing:
        raise SchemaError("checkpoint does not match the config: "
                          + "; ".join(differing))
    return model


def _cmd_evaluate(args) -> int:
    from .data import load_dataset
    from .runner import checked_split, emit_report_csvs, evaluate_model

    config = _overridden_config(args)
    seed = check_seed(args.seed) if args.seed is not None \
        else config.training.seeds[0]
    model = _load_scoring_checkpoint(args.checkpoint, config.model)
    _make_out_dir(args.out_dir)
    graphs, _ = load_dataset(config.dataset)
    _, test_graphs = checked_split(graphs, config, seed)
    report, _ = evaluate_model(model, test_graphs, config, seed)
    roc = f"{report.auroc:.4f}" if report.auroc_defined else "undefined"
    print(f"test n={report.num_records}  "
          f"accuracy {report.metrics.accuracy:.4f}  auroc {roc}  "
          f"ece {report.ece:.4f}  f1 {report.metrics.f1:.4f}")
    if args.out_dir:
        emit_report_csvs(report, test_graphs, args.out_dir)
        print(f"reports -> {args.out_dir}/reports")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    from .runner import run_ablation

    config = _overridden_config(args)
    _make_out_dir(args.out_dir)
    result = run_ablation(config, args.axis, out_dir=args.out_dir,
                          log=print)
    print(f"axis {result['axis']}: {len(result['comparison'])} variants x "
          f"{len(config.training.seeds)} seeds")
    for row in result["comparison"]:
        print("  " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in row.items()))
    return EXIT_OK


def _cmd_screen(args) -> int:
    from .runner import screen_library

    config = _overridden_config(args)
    model = _load_scoring_checkpoint(args.checkpoint, config.model)
    _make_out_dir(args.out_dir)
    screen_library(model, config, out_dir=args.out_dir, log=print)
    if args.out_dir:
        print(f"ranked list -> {args.out_dir}/reports/predictions.csv")
    return EXIT_OK


def _iter_smiles(path: str, column: str):
    import csv

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if not path.lower().endswith(".csv"):
            for i, line in enumerate(fh, start=1):
                if line.strip():
                    yield i, line.strip()
            return
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise SchemaError(f"{path!r} has no column {column!r}")
        for i, row in enumerate(reader, start=1):
            yield i, (row[column] or "").strip()


def _cmd_parse_check(args) -> int:
    """Run each SMILES through the dataset loader's row path (parse, strip
    salts, featurize); a row the loader would skip counts as rejected."""
    from .data import ingest_smiles

    total = 0
    failures = 0
    with reading(args.path, "SMILES file"):
        for row, smiles in _iter_smiles(args.path, args.smiles_column):
            total += 1
            try:
                ingest_smiles(smiles)
            except (SmilesError, FeatureError) as err:
                failures += 1
                if failures <= args.limit:
                    print(f"row {row}: {smiles!r}: {err}")
    if total == 0:
        raise EmptyDatasetError(f"{args.path!r} contains no SMILES")
    accepted = total - failures
    print(f"{accepted}/{total} parsed ({100.0 * accepted / total:.2f}%), "
          f"{failures} rejected")
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(log=print) == 0 else EXIT_USAGE


COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "screen": _cmd_screen,
    "parse-check": _cmd_parse_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError, SchemaError, EmptyDatasetError, DegenerateError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
