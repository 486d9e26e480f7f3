"""Time and peak memory of equiref's stages on one large complex.

Usage: PYTHONPATH=src python3 scripts/scale_probe.py [--size R L H]
                                      [--train-size R L H]

Builds a native (seed ``SEED``) and a "medium" decoy with
``perfbench/gen.py`` for each size: R receptor and L ligand helices of H
residues, about 7.9 heavy atoms per residue. The defaults are ~30k
atoms (``gen.Size(16, 12, 136)``) and ~8k atoms for the training step
(``gen.Size(8, 6, 72)``). Each stage runs in a fresh Python process, one
at a time, so that its peak RSS is its own; the peak includes the
interpreter, numpy and the stage's parsed inputs. Stages, with the default ``ModelConfig``:

    parse            ``structio.parse_pdb_file`` of the decoy
    build_knn_graph  the decoy's graph (saved for the next stage)
    forward          the no_grad ``model.forward`` on that graph
    reference        ``metrics.Reference(native)``: the native's passes
    score_pair       ``metrics.score_pair(decoy, ref)`` with that Reference
                     built before (not timed): the cost of one more decoy
    backward         one ``train.backward`` step at the training size,
                     after ``make_training_example`` (not timed)

Prints one JSON line per stage with its size, atoms, seconds,
``peak_rss_mb`` (10^6 bytes, as perfbench counts) and ``minor_faults``:
the minor page faults the process took during the stage call
(``ru_minflt``), a count of fresh pages touched, e.g. by a heap that
grows and is trimmed back again. Nothing under
``perfbench/`` is written; the inputs live in a temporary directory that
is removed at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from equiref import featurize, metrics, model, structio, train

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

STAGES = ("parse", "build_knn_graph", "forward", "reference", "score_pair")
TRAIN_STAGES = ("backward",)
SEED = 3
GRAPH_FIELDS = tuple(field.name for field in dataclasses.fields(featurize.ComplexGraph))


def write_inputs(directory: Path, size: gen.Size) -> int:
    """Native and decoy PDB files; returns the decoy's atom count."""
    native = gen.make_native(SEED, size)
    decoy = gen.make_decoy(native, "medium", np.random.default_rng(SEED))
    gen.write_pdb(native, directory / "native.pdb")
    gen.write_pdb(decoy, directory / "decoy.pdb")
    return len(decoy.name)


def run_stage(stage: str, directory: Path) -> dict:
    """One stage in this process: seconds and minor page faults of the stage
    call, and peak RSS."""
    config = model.ModelConfig()
    if stage == "parse":
        call, args = structio.parse_pdb_file, (directory / "decoy.pdb",)
    else:  # every other stage holds the parsed decoy, as it did before
        decoy = structio.parse_pdb_file(directory / "decoy.pdb")
    if stage == "build_knn_graph":
        call, args = featurize.build_knn_graph, (decoy, config)
    elif stage == "forward":
        saved = np.load(directory / "graph.npz")
        graph = featurize.ComplexGraph(**{name: saved[name] for name in GRAPH_FIELDS})
        call, args = model.forward, (graph, model.init_params(config, seed=0), config)
    elif stage in ("reference", "score_pair", "backward"):
        native = structio.parse_pdb_file(directory / "native.pdb")
        if stage == "reference":
            call, args = metrics.Reference, (native,)
        elif stage == "score_pair":
            call, args = metrics.score_pair, (decoy, metrics.Reference(native))
        else:
            example = train.make_training_example(decoy, native, config)
            call, args = train.backward, (example, model.init_params(config, seed=0), config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call(*args)
    seconds = time.perf_counter() - start
    minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if stage == "build_knn_graph":
        np.savez(directory / "graph.npz",
                 **{name: getattr(result, name) for name in GRAPH_FIELDS})
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"seconds": round(seconds, 3), "peak_rss_mb": round(peak_mb, 1),
            "minor_faults": minor_faults}


def probe(sizes: list[tuple[str, gen.Size, tuple[str, ...]]]) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, size, stages in sizes:
            directory = Path(tmp) / label
            directory.mkdir()
            atoms = write_inputs(directory, size)
            for stage in stages:
                child = subprocess.run(
                    [sys.executable, __file__, "--stage", stage, str(directory)],
                    check=True, capture_output=True, text=True,
                )
                row = {"stage": stage, "size": list(vars(size).values()),
                       "atoms": atoms, **json.loads(child.stdout)}
                print(json.dumps(row), flush=True)
                rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, nargs=3, default=(16, 12, 136),
                        metavar=("R", "L", "H"))
    parser.add_argument("--train-size", type=int, nargs=3, default=(8, 6, 72),
                        metavar=("R", "L", "H"))
    parser.add_argument("--stage", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stage:
        stage, directory = args.stage
        print(json.dumps(run_stage(stage, Path(directory))))
        return
    probe([("large", gen.Size(*args.size), STAGES),
           ("train", gen.Size(*args.train_size), TRAIN_STAGES)])


if __name__ == "__main__":
    main()
