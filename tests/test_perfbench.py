"""The benchmark tracer's function names still resolve in the package, and
a traced run sees the work under them.

``perfbench/tracer.py`` wraps functions by name, so a rename in the package
would otherwise surface only when a traced benchmark runs, and a call made
through a name it does not wrap would time as zero. The tracer's source is
read and executed here; nothing under ``perfbench/`` is written.
"""

import importlib
from collections import Counter
from pathlib import Path

from equiref import cli
from equiref.autodiff import Tensor
from equiref.structio import write_pdb

from conftest import make_complex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in namespace["TRACED"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"equiref.{module_name}"),
                                name, None))
    ]
    assert missing == []
    assert callable(Tensor.backward)


def test_evaluate_traces_each_metric_once_per_decoy(tmp_path, rng):
    """A traced ``evaluate`` reaches every metric under its public name, once
    per decoy, and parses each decoy and each native once."""
    targets, per_target = 2, 3
    natives, decoys = tmp_path / "natives", tmp_path / "decoys"
    natives.mkdir()
    decoys.mkdir()
    rows = ["target,decoy,predicted_score"]
    for t in range(targets):
        native = make_complex(n_res_a=5, n_res_b=4)
        (natives / f"t{t}.pdb").write_text(write_pdb(native))
        for d in range(per_target):
            coords = native.coords + rng.normal(scale=0.5 * d + 0.1,
                                                size=native.coords.shape)
            (decoys / f"t{t}_d{d}.pdb").write_text(write_pdb(native.with_coords(coords)))
            rows.append(f"t{t},t{t}_d{d},{d}")
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(rows) + "\n")

    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    tracer = namespace["Tracer"]()
    tracer.install()
    try:
        code = cli.main(["evaluate", "--scores", str(scores), "--natives", str(natives),
                         "--decoys", str(decoys), "--summary", str(tmp_path / "s.txt"),
                         "--workers", "1"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    calls = Counter(span[0] for span in tracer.spans)
    decoy_count = targets * per_target
    for name in ("cli._score_task", "metrics.score_pair", "metrics.fnat_fnonnat",
                 "metrics.irmsd", "metrics.lrmsd", "metrics.lddt_ca",
                 "structio.match_atoms"):
        assert calls[name] == decoy_count, name
    assert calls["structio.parse_pdb_file"] == decoy_count + targets
