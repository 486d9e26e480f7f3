"""Command-line entry points: refine, score, evaluate, train.

Exit codes are stable API:
  0 success, 2 input parse/format error, a file that cannot be read or
  written or a run that does not fit in memory, 3 weights mismatch, 4 no
  atom overlap, 5 undefined interface metric, 6 missing file or empty
  evaluation input, 7 training divergence, 8 empty dataset or no
  supervised example.

Commands return nothing or raise; ``main`` alone prints the error, as one
``error:`` line on stderr, and takes its code from the one table
``EXIT_CODES``. Data is written only to the requested files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    EquirefError,
    LossUndefinedError,
    MissingInputError,
    NoInterfaceError,
    NoOverlapError,
    PdbParseError,
    UndefinedMetricError,
    WeightsFormatError,
)
from .featurize import build_knn_graph, read_surface_file
from .metrics import (
    REPORT_SCHEMA_VERSION,
    DecoyScore,
    RankingInput,
    Reference,
    format_mean_std,
    format_triple,
    hit_rate,
    ranking_loss,
    reports_to_csv,
    score_pair,
)
from .model import ModelConfig, forward, load_weights, save_weights
from .structio import parse_pdb_file, write_pdb
from .train import RunConfig, make_training_example, train_loop

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WEIGHTS = 3
EXIT_NO_OVERLAP = 4
EXIT_NO_INTERFACE = 5
EXIT_MISSING_INPUT = 6
EXIT_DIVERGED = 7
EXIT_EMPTY_DATASET = 8

# The exit code of an error is that of the first class in its MRO listed
# here; ``main`` catches exactly the types listed.
EXIT_CODES: dict[type[BaseException], int] = {
    WeightsFormatError: EXIT_WEIGHTS,
    NoOverlapError: EXIT_NO_OVERLAP,
    NoInterfaceError: EXIT_NO_INTERFACE,
    UndefinedMetricError: EXIT_NO_INTERFACE,
    MissingInputError: EXIT_MISSING_INPUT,
    LossUndefinedError: EXIT_EMPTY_DATASET,
    DivergenceError: EXIT_DIVERGED,
    EquirefError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    MemoryError: EXIT_PARSE,
}


def exit_code(error: type[BaseException]) -> int:
    """The exit code ``EXIT_CODES`` gives an error type."""
    return next(EXIT_CODES[cls] for cls in error.__mro__ if cls in EXIT_CODES)


# Config keys that set the ModelConfig field of the same name.
MODEL_KEYS = (
    "granularity", "num_layers", "hidden_dim", "window_size",
    "attention_enabled", "noise_sigma", "psr_loss_weight", "qa_loss_weight",
)
# Ablation flags: each one that is true sets a ModelConfig field to a value.
ABLATIONS = {
    "no_positional_corruption": ("noise_sigma", 0.0),
    "no_surface_proximity": ("include_surface", False),
    "no_relative_geometric_features": ("include_geometric", False),
}


def read_config(path) -> tuple[RunConfig, ModelConfig]:
    """Run and model settings from one JSON config object.

    Unknown keys are rejected so ablation-name typos surface immediately;
    ``k`` sets ``ModelConfig.k_neighbors``. Keys left out take the
    dataclass defaults.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"cannot decode {path} as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    run_keys = {f.name for f in fields(RunConfig)}
    unknown = set(data) - run_keys - set(MODEL_KEYS) - set(ABLATIONS) - {"k"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    model = {key: data[key] for key in MODEL_KEYS if key in data}
    if "k" in data:
        model["k_neighbors"] = data["k"]
    ablated = {}
    for flag, (name, value) in ABLATIONS.items():
        on = data.get(flag, False)
        if not isinstance(on, bool):
            raise ConfigError(f"{flag} must be bool, got {on!r}")
        if on:
            ablated[name] = value
    run = RunConfig(**{key: data[key] for key in run_keys if key in data})
    return run, replace(ModelConfig(**model), **ablated)


def _check_output_dirs(*paths) -> None:
    """Raise unless each given output path lies in an existing directory.

    Commands call it before any work; the files themselves are not touched.
    """
    for path in filter(None, paths):
        parent = Path(path).parent
        if not parent.is_dir():
            raise NotADirectoryError(f"cannot write {path}: {parent} is not a directory")


def cmd_refine(args) -> None:
    _check_output_dirs(args.output, args.report)
    try:
        params, config = load_weights(Path(args.weights).read_bytes())
    except OSError as exc:
        raise WeightsFormatError(f"cannot read weights: {exc}") from None
    except WeightsFormatError as exc:
        exc.args = (f"{args.weights}: {exc}",)
        raise
    structure = parse_pdb_file(args.input)
    surface = None
    if args.surface_file is not None:
        surface = read_surface_file(args.surface_file, structure.num_atoms)

    refined = structure
    for _ in range(args.iterations):
        graph = build_knn_graph(refined, config, surface)
        result = forward(graph, params, config)
        coords = refined.coords.copy()
        coords[graph.node_atom_indices] = result.refined_coords
        refined = refined.with_coords(coords)

    Path(args.output).write_text(write_pdb(refined))

    rows = graph.node_atom_indices[result.ca_node_indices]
    per_residue = [
        {"chain": chain, "residue": number, "predicted_lddt": value}
        for chain, number, value in zip(
            refined.chain[rows].tolist(), refined.resnum[rows].tolist(),
            result.predicted_lddt.tolist(),
        )
    ]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "mean_predicted_lddt": float(result.predicted_lddt.mean()),
        "per_residue": per_residue,
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")


def cmd_score(args) -> None:
    report = score_pair(parse_pdb_file(args.decoy),
                        Reference(parse_pdb_file(args.native)))
    Path(args.report).write_text(report.to_json() + "\n")


@contextmanager
def _naming(target: str, decoy_id: str):
    """Prefix an error with its target and decoy."""
    try:
        yield
    except EquirefError as exc:
        raise type(exc)(f"target {target}, decoy {decoy_id}: {exc}") from None
    except OSError as exc:
        raise PdbParseError(
            f"target {target}, decoy {decoy_id}: cannot read structure: {exc}"
        ) from None


def _score_task(target: str, decoy_id: str, path: str, ref: Reference):
    """Read one decoy and score it against ``ref``; an error names it."""
    with _naming(target, decoy_id):
        return score_pair(parse_pdb_file(path), ref)


def _score_target(task) -> list:
    """Reports of one target's decoys, in the order given.

    The native is read and its ``Reference`` built once; the decoys are
    read one at a time. An unreadable native is named with the target's
    first decoy.
    """
    target, native_path, decoys = task
    with _naming(target, decoys[0][0]):
        ref = Reference(parse_pdb_file(native_path))
    return [_score_task(target, decoy_id, path, ref) for decoy_id, path in decoys]


def worker_count(requested: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for ``tasks`` jobs.

    ``requested`` 0 means one per CPU; the count is at least one and at
    most one per task and one per CPU.
    """
    cpus = cpus or 1
    return max(1, min(requested or cpus, tasks, cpus))


def cmd_evaluate(args) -> None:
    _check_output_dirs(args.summary, args.details)
    try:
        with open(args.scores, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise MissingInputError(f"cannot read scores CSV: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise EquirefError(f"cannot parse scores CSV {args.scores}: {exc}") from None
    if not rows:
        raise MissingInputError("no targets in scores CSV")
    required = {"target", "decoy", "predicted_score"}
    if not required.issubset(rows[0]):
        raise MissingInputError(f"scores CSV must have columns {sorted(required)}")

    natives = Path(args.natives)
    decoys = Path(args.decoys)
    # Per target, in order of first appearance: native path and decoys.
    groups: dict[str, tuple[str, list[tuple[str, str]]]] = {}
    predicted = {}
    row_of = {}
    for number, row in enumerate(rows, start=1):
        target = row["target"]
        decoy_id = row["decoy"]
        try:
            score = float(row["predicted_score"])
        except (TypeError, ValueError):
            score = math.nan
        if not math.isfinite(score):
            raise EquirefError(
                f"scores CSV row {number} ({target}, {decoy_id}): predicted_score "
                f"{row['predicted_score']!r} is not a finite number"
            )
        first = row_of.setdefault((target, decoy_id), number)
        if first != number:
            raise EquirefError(
                f"scores CSV rows {first} and {number} both list "
                f"({target}, {decoy_id})"
            )
        native_path = natives / f"{target}.pdb"
        decoy_path = decoys / f"{decoy_id}.pdb"
        if not os.path.exists(native_path):
            raise MissingInputError(f"missing native file {native_path}")
        if not os.path.exists(decoy_path):
            raise MissingInputError(f"missing decoy file {decoy_path}")
        groups.setdefault(target, (str(native_path), []))[1].append(
            (decoy_id, str(decoy_path))
        )
        predicted[(target, decoy_id)] = score

    tasks = [(target, native, group) for target, (native, group) in groups.items()]
    workers = worker_count(args.workers, len(tasks), os.cpu_count())
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            # imap raises in task order, so the first failing target
            # decides the exit code as with one worker, not the error
            # that happens to arrive first
            reports = list(pool.imap(_score_target, tasks))
    else:
        reports = [_score_target(task) for task in tasks]
    report_of = {
        (target, decoy_id): report
        for (target, _, group), target_reports in zip(tasks, reports)
        for (decoy_id, _), report in zip(group, target_reports)
    }
    # ``predicted`` holds the pairs in scores-CSV row order.
    results = [(t, d, report_of[(t, d)]) for t, d in predicted]

    by_target: dict[str, RankingInput] = {}
    for target, decoy_id, report in results:
        entry = by_target.setdefault(target, RankingInput(target))
        entry.decoys.append(
            DecoyScore(decoy_id, predicted[(target, decoy_id)], report.dockq)
        )
    targets = [by_target[t] for t in sorted(by_target)]
    per_target, summary = hit_rate(targets, top_n=args.top_n)
    losses = [ranking_loss(t) for t in targets]

    lines = [f"top_n\t{args.top_n}"]
    for (target_id, triple), loss in zip(per_target, losses):
        lines.append(f"{target_id}\t{format_triple(triple)}\t{loss:.4f}")
    lines.append(f"Summary\t{format_triple(summary)}\t{format_mean_std(losses)}")
    Path(args.summary).write_text("\n".join(lines) + "\n")
    if args.details:
        Path(args.details).write_text(reports_to_csv(results))


def _collect_pairs(directory: Path) -> list[tuple[str, Path, Path]]:
    pairs = []
    for decoy_path in sorted(directory.glob("*_decoy.pdb")):
        example_id = decoy_path.name[: -len("_decoy.pdb")]
        native_path = directory / f"{example_id}_native.pdb"
        if native_path.exists():
            pairs.append((example_id, decoy_path, native_path))
    return pairs


def cmd_train(args) -> None:
    run, config = read_config(args.config)
    log_path = Path(args.log) if args.log else Path(str(args.out_weights) + ".log")
    _check_output_dirs(args.out_weights, log_path)
    train_pairs = _collect_pairs(Path(args.train_dir))
    val_pairs = _collect_pairs(Path(args.val_dir)) if args.val_dir is not None else []
    for directory, pairs in ((args.train_dir, train_pairs), (args.val_dir, val_pairs)):
        if directory is not None and not pairs:
            raise LossUndefinedError(f"no *_decoy.pdb pairs in {directory}")

    def build(pairs):
        examples = []
        for example_id, decoy_path, native_path in pairs:
            with _naming(example_id, example_id):
                decoy = parse_pdb_file(decoy_path)
                native = parse_pdb_file(native_path)
                examples.append(
                    make_training_example(
                        decoy, native, config, target_id=example_id,
                        decoy_id=example_id,
                    )
                )
        return examples

    def save(result, meta) -> None:
        state = result.optimizer
        extra = {"opt.step": np.array(float(state.step)),
                 **{f"opt.m.{name}": m for name, m in state.m.items()},
                 **{f"opt.v.{name}": v for name, v in state.v.items()}}
        Path(args.out_weights).write_bytes(
            save_weights(result.params, config, extra_arrays=extra, extra_meta=meta)
        )
        header = json.dumps({"config": config.to_dict(), "seed": run.seed})
        log_path.write_text("\n".join([header] + result.log_lines()) + "\n")

    train_examples = build(train_pairs)
    val_examples = build(val_pairs)
    try:
        result = train_loop(train_examples, val_examples, config, **asdict(run))
    except DivergenceError as exc:
        save(exc.result, {"diverged": True})
        raise
    save(result, {"best_epoch": result.best_epoch,
                  "best_val_rmsd": result.best_val_rmsd})


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiref",
        description="Refine and assess protein complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="refine a structure with trained weights")
    p.add_argument("--input", required=True, help="input PDB file")
    p.add_argument("--weights", required=True, help="weights container")
    p.add_argument("--output", required=True, help="refined PDB file")
    p.add_argument("--report", required=True, help="JSON quality report")
    p.add_argument("--iterations", type=_positive_int, default=1,
                   help="re-feed the output this many times (default 1)")
    p.add_argument("--surface-file", default=None,
                   help="per-atom surface proximity override")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("score", help="score a decoy against its native")
    p.add_argument("--decoy", required=True)
    p.add_argument("--native", required=True)
    p.add_argument("--report", required=True, help="JSON quality report")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="rank decoys and compute hit rates")
    p.add_argument("--scores", required=True,
                   help="CSV with target, decoy, predicted_score columns")
    p.add_argument("--natives", required=True, help="directory of <target>.pdb")
    p.add_argument("--decoys", required=True, help="directory of <decoy>.pdb")
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--summary", required=True, help="summary text report")
    p.add_argument("--details", default=None, help="optional per-decoy CSV")
    p.add_argument("--workers", type=_non_negative_int, default=0,
                   help="worker processes (default: cpu count)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train a model on decoy/native pairs")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--train-dir", required=True,
                   help="directory of <id>_decoy.pdb / <id>_native.pdb pairs")
    p.add_argument("--val-dir", default=None)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--log", default=None,
                   help="epoch log path (default: <out-weights>.log)")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    """Run one command; print an error it raises and return its exit code.
    numpy's floating-point warnings are off, as in ``train_loop``."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(type(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
