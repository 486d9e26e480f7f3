"""The benchmark tracer's function names still resolve in the package.

``perfbench/tracer.py`` wraps functions by name, so a rename in the package
would otherwise surface only when a traced benchmark runs. The tracer's
source is read and executed here; nothing under ``perfbench/`` is written.
"""

import importlib
from pathlib import Path

from equiref.autodiff import Tensor

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
