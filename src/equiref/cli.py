"""Command-line entry points: refine, score, evaluate, train.

Exit codes are stable API:
  0 success, 2 input parse/format error, 3 weights mismatch,
  4 no atom overlap, 5 undefined interface metric, 6 missing file or
  empty evaluation input, 7 training divergence, 8 empty dataset.
Diagnostics go to stderr; data is written only to the requested files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    EmptyStructureError,
    EquirefError,
    FormatOverflowError,
    NoInterfaceError,
    NoOverlapError,
    PdbParseError,
    SurfaceOverrideError,
    UndefinedMetricError,
    WeightsFormatError,
)
from .featurize import read_surface_file
from .metrics import (
    REPORT_SCHEMA_VERSION,
    DecoyScore,
    RankingInput,
    format_mean_std,
    format_triple,
    hit_rate,
    ranking_loss,
    reports_to_csv,
    score_pair,
)
from .model import (
    ModelConfig,
    build_graph,
    check_field_types,
    forward,
    init_params,
    load_weights,
    save_weights,
)
from .structio import parse_pdb_file, write_pdb
from .train import OptimizerState, make_training_example, train_loop

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WEIGHTS = 3
EXIT_NO_OVERLAP = 4
EXIT_NO_INTERFACE = 5
EXIT_MISSING_INPUT = 6
EXIT_DIVERGED = 7
EXIT_EMPTY_DATASET = 8


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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


@dataclass
class RunConfig:
    """Optimizer and schedule settings of a training run."""

    seed: int = 0
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    max_epochs: int = 1000
    patience: int = 50

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @classmethod
    def from_file(cls, path) -> tuple["RunConfig", ModelConfig]:
        """Run and model settings from one JSON config object.

        Unknown keys are rejected so ablation-name typos surface
        immediately; ``k`` sets ``ModelConfig.k_neighbors``. Keys left out
        take the dataclass defaults.
        """
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        run_keys = {f.name for f in fields(cls)}
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
        run = cls(**{key: data[key] for key in run_keys if key in data})
        return run, replace(ModelConfig(**model), **ablated)


def cmd_refine(args) -> int:
    try:
        blob = Path(args.weights).read_bytes()
    except OSError as exc:
        return _fail(EXIT_WEIGHTS, f"cannot read weights: {exc}")
    try:
        params, config = load_weights(blob)
    except WeightsFormatError as exc:
        return _fail(EXIT_WEIGHTS, f"cannot load weights: {exc}")
    try:
        structure = parse_pdb_file(args.input)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read input: {exc}")
    except (PdbParseError, EmptyStructureError) as exc:
        return _fail(EXIT_PARSE, f"cannot parse input: {exc}")

    surface = None
    if args.surface_file is not None:
        try:
            surface = read_surface_file(args.surface_file, structure.num_atoms)
        except OSError as exc:
            return _fail(EXIT_PARSE, f"cannot read surface file: {exc}")
        except SurfaceOverrideError as exc:
            return _fail(EXIT_PARSE, f"bad surface file {args.surface_file}: {exc}")

    refined = structure
    result = None
    try:
        for _ in range(args.iterations):
            graph = build_graph(refined, config, surface)
            result = forward(graph, params, config)
            coords = refined.coords.copy()
            coords[graph.node_atom_indices] = result.refined_coords
            refined = refined.with_coords(coords)
    except ConfigError as exc:
        return _fail(EXIT_WEIGHTS, f"weights do not fit this input: {exc}")

    try:
        Path(args.output).write_text(write_pdb(refined))
    except FormatOverflowError as exc:
        return _fail(EXIT_PARSE, f"cannot write refined structure: {exc}")

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
    return EXIT_OK


def cmd_score(args) -> int:
    try:
        decoy = parse_pdb_file(args.decoy)
        native = parse_pdb_file(args.native)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read structure: {exc}")
    except (PdbParseError, EmptyStructureError) as exc:
        return _fail(EXIT_PARSE, f"cannot parse structure: {exc}")
    try:
        report = score_pair(decoy, native)
    except NoOverlapError as exc:
        return _fail(EXIT_NO_OVERLAP, str(exc))
    except (NoInterfaceError, UndefinedMetricError) as exc:
        return _fail(EXIT_NO_INTERFACE, str(exc))
    Path(args.report).write_text(report.to_json() + "\n")
    return EXIT_OK


def _score_task(task):
    """Score one decoy; an error names its target and decoy."""
    target, decoy_id, decoy_path, native_path = task
    try:
        decoy = parse_pdb_file(decoy_path)
        native = parse_pdb_file(native_path)
        report = score_pair(decoy, native)
    except EquirefError as exc:
        raise type(exc)(f"target {target}, decoy {decoy_id}: {exc}") from None
    except OSError as exc:
        raise PdbParseError(
            f"target {target}, decoy {decoy_id}: cannot read structure: {exc}"
        ) from None
    return target, decoy_id, report


def worker_count(requested: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for ``tasks`` jobs.

    ``requested`` 0 means one per CPU; the count is at least one and at
    most one per task and one per CPU.
    """
    cpus = cpus or 1
    return max(1, min(requested or cpus, tasks, cpus))


def cmd_evaluate(args) -> int:
    try:
        with open(args.scores, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return _fail(EXIT_MISSING_INPUT, f"cannot read scores CSV: {exc}")
    if not rows:
        return _fail(EXIT_MISSING_INPUT, "no targets in scores CSV")
    required = {"target", "decoy", "predicted_score"}
    if not required.issubset(rows[0]):
        return _fail(
            EXIT_MISSING_INPUT,
            f"scores CSV must have columns {sorted(required)}",
        )

    natives = Path(args.natives)
    decoys = Path(args.decoys)
    tasks = []
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
            return _fail(
                EXIT_PARSE,
                f"scores CSV row {number} ({target}, {decoy_id}): predicted_score "
                f"{row['predicted_score']!r} is not a finite number",
            )
        first = row_of.setdefault((target, decoy_id), number)
        if first != number:
            return _fail(
                EXIT_PARSE,
                f"scores CSV rows {first} and {number} both list "
                f"({target}, {decoy_id})",
            )
        native_path = natives / f"{target}.pdb"
        decoy_path = decoys / f"{decoy_id}.pdb"
        if not native_path.exists():
            return _fail(EXIT_MISSING_INPUT, f"missing native file {native_path}")
        if not decoy_path.exists():
            return _fail(EXIT_MISSING_INPUT, f"missing decoy file {decoy_path}")
        tasks.append((target, decoy_id, str(decoy_path), str(native_path)))
        predicted[(target, decoy_id)] = score

    workers = worker_count(args.workers, len(tasks), os.cpu_count())
    try:
        if workers > 1:
            with multiprocessing.Pool(workers) as pool:
                results = pool.map(_score_task, tasks)
        else:
            results = [_score_task(t) for t in tasks]
    except NoOverlapError as exc:
        return _fail(EXIT_NO_OVERLAP, str(exc))
    except (NoInterfaceError, UndefinedMetricError) as exc:
        return _fail(EXIT_NO_INTERFACE, str(exc))

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
        Path(args.details).write_text(
            reports_to_csv([(t, d, r) for t, d, r in results])
        )
    return EXIT_OK


def _collect_pairs(directory: Path) -> list[tuple[str, Path, Path]]:
    pairs = []
    for decoy_path in sorted(directory.glob("*_decoy.pdb")):
        example_id = decoy_path.name[: -len("_decoy.pdb")]
        native_path = directory / f"{example_id}_native.pdb"
        if native_path.exists():
            pairs.append((example_id, decoy_path, native_path))
    return pairs


def cmd_train(args) -> int:
    try:
        run, config = RunConfig.from_file(args.config)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read config: {exc}")
    except (ConfigError, ValueError) as exc:
        return _fail(EXIT_PARSE, f"bad config: {exc}")

    train_pairs = _collect_pairs(Path(args.train_dir))
    val_pairs = _collect_pairs(Path(args.val_dir)) if args.val_dir else []
    if not train_pairs:
        return _fail(EXIT_EMPTY_DATASET, f"no *_decoy.pdb pairs in {args.train_dir}")

    def build(pairs):
        examples = []
        for example_id, decoy_path, native_path in pairs:
            decoy = parse_pdb_file(decoy_path)
            native = parse_pdb_file(native_path)
            examples.append(
                make_training_example(
                    decoy, native, config, target_id=example_id,
                    decoy_id=example_id,
                )
            )
        return examples

    try:
        train_examples = build(train_pairs)
        val_examples = build(val_pairs)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read structure: {exc}")
    except (PdbParseError, EmptyStructureError, NoOverlapError) as exc:
        return _fail(EXIT_PARSE, f"cannot build dataset: {exc}")

    optimizer = OptimizerState(
        learning_rate=run.learning_rate, weight_decay=run.weight_decay
    )
    log_path = Path(args.log) if args.log else Path(str(args.out_weights) + ".log")
    header = json.dumps({"config": config.to_dict(), "seed": run.seed})

    diverged = False
    try:
        result = train_loop(
            train_examples,
            val_examples,
            config,
            seed=run.seed,
            max_epochs=run.max_epochs,
            patience=run.patience,
            optimizer=optimizer,
        )
        params = result.params
        log_lines = result.log_lines()
        meta = {
            "best_epoch": result.best_epoch,
            "best_val_rmsd": result.best_val_rmsd,
        }
    except DivergenceError as exc:
        diverged = True
        params = exc.last_good if exc.last_good is not None else init_params(
            config, run.seed
        )
        log_lines = [record.to_line() for record in (exc.log or [])]
        meta = {"diverged": True}
        print(f"error: {exc}", file=sys.stderr)

    extra = {"opt.step": np.array(float(optimizer.step))}
    for name, value in optimizer.m.items():
        extra[f"opt.m.{name}"] = value
    for name, value in optimizer.v.items():
        extra[f"opt.v.{name}"] = value
    Path(args.out_weights).write_bytes(
        save_weights(params, config, extra_arrays=extra, extra_meta=meta)
    )
    log_path.write_text("\n".join([header] + log_lines) + "\n")
    return EXIT_DIVERGED if diverged else EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    p.add_argument("--workers", type=int, default=0,
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EquirefError as exc:
        return _fail(EXIT_PARSE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
