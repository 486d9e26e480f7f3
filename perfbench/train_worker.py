"""The train-1k workload, run in a fresh process of its own.

Usage: python3 perfbench/train_worker.py DATA_DIR SECONDS TRACE RESULT_JSON

Set-up parses every pair and builds its training example; it runs
``SETUPS`` times and the last set-up's examples are used. One op is one
``train_loop`` call over the 4 training and 2 validation examples for
``EPOCHS`` epochs with patience ``EPOCHS``, so early stopping never
shortens it. One warm-up op, a ``train_loop`` call over the first training
and validation example only, warms the forward, backward and AdamW paths
and is discarded; then ops run back to back until SECONDS have passed.

With TRACE 1 an op is a set-up plus a ``train_loop`` call, so set-up spans
are counted per op; untraced and traced ops alternate after the warm-up and
their wall times give the tracing overhead.

All program calls go through module attributes so that a traced op sees
the wrappers.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from equiref import structio, train  # noqa: E402
from equiref.model import ModelConfig  # noqa: E402
from loop import Loop  # noqa: E402
from tracer import Tracer  # noqa: E402

EPOCHS = 1
SETUPS = 4
TRAIN_SEED = 0


def _pairs(folder: Path) -> list[tuple[str, Path, Path]]:
    pairs = []
    for decoy in sorted(folder.glob("*_decoy.pdb")):
        example_id = decoy.name[: -len("_decoy.pdb")]
        pairs.append((example_id, decoy, folder / f"{example_id}_native.pdb"))
    return pairs


def setup(data: Path, config: ModelConfig) -> tuple[list, list]:
    splits = []
    for split in ("train", "val"):
        examples = []
        for example_id, decoy_path, native_path in _pairs(data / split):
            decoy = structio.parse_pdb_file(decoy_path)
            native = structio.parse_pdb_file(native_path)
            examples.append(train.make_training_example(
                decoy, native, config, target_id=example_id, decoy_id=example_id))
        splits.append(examples)
    return splits[0], splits[1]


def run_op(examples, config, kind) -> dict:
    train_examples, val_examples = examples
    if kind == "warmup":
        train_examples, val_examples = train_examples[:1], val_examples[:1]
    start = time.perf_counter()
    result = train.train_loop(train_examples, val_examples, config, seed=TRAIN_SEED,
                              max_epochs=EPOCHS, patience=EPOCHS)
    wall = time.perf_counter() - start
    supervised = sum(1 for ex in train_examples
                     if ex.matched_nodes.size or ex.lddt_nodes.size)
    error = None
    if len(result.log) != EPOCHS:
        error = f"log has {len(result.log)} lines for {EPOCHS} epochs"
    elif not all(math.isfinite(r.train_loss) and math.isfinite(r.val_rmsd)
                 for r in result.log):
        error = "non-finite loss or validation RMSD"
    return {"wall": wall, "steps": EPOCHS * supervised, "error": error,
            "best_val_rmsd": result.best_val_rmsd}


def guarded(run) -> dict:
    """An op that raises is a failed op; the loop goes on."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - any program error fails the op
        traceback.print_exc()
        return {"wall": 0.0, "steps": 0, "error": repr(exc), "best_val_rmsd": None}


def main() -> int:
    data, seconds, traced, out = (Path(sys.argv[1]), float(sys.argv[2]),
                                  sys.argv[3] == "1", Path(sys.argv[4]))
    config = ModelConfig()
    report: dict = {"setup_s": []}
    tracer = Tracer()

    def timed_setup():
        start = time.perf_counter()
        examples = setup(data, config)
        report["setup_s"].append(time.perf_counter() - start)
        return examples

    loop = Loop(seconds)
    if not traced:
        for _ in range(SETUPS):
            examples = timed_setup()
        loop.run(lambda kind, index: dict(
            guarded(lambda: run_op(examples, config, kind)), kind=kind))
    else:
        def op(kind, index):
            if kind == "traced":
                tracer.op = index
                tracer.install()
            try:
                start = time.perf_counter()
                record = guarded(lambda: run_op(timed_setup(), config, kind))
                record["wall"] = time.perf_counter() - start
            finally:
                if kind == "traced":
                    tracer.uninstall()
            return dict(record, kind=kind)

        loop.run(op, ("untraced", "traced"))
        report["trace"] = {"spans": tracer.spans, "tapes": tracer.tapes}
    report["ops"] = loop.ops
    out.write_text(json.dumps(report))
    return 0

if __name__ == "__main__":
    sys.exit(main())
