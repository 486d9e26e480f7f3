"""Spans and call counts around the program's public functions.

A traced run wraps each function named in ``TRACED`` at every place it can
be looked up: its defining module and every ``equiref`` module that imported
it by value (``from .featurize import build_knn_graph`` binds the function
object, so patching only the defining module would miss that call site).
``Tensor.backward`` is wrapped on the class.

Each call records a span: name, start, end, parent span and op id. The
spans named in ``MEMORY`` also record the peak traced allocation inside the
call (numpy registers its buffers with ``tracemalloc``). Every
``forward_pass`` result is walked once, in a span of its own that is left
out of the report, to count the ``Tensor`` objects reachable from its
outputs and their array bytes: the autodiff tape that call kept alive.
Spans stay in memory until ``dump``.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# Functions that get a span, by defining module. Span names are
# "<module>.<function>"; ``autodiff.backward`` is ``Tensor.backward``.
TRACED = {
    "structio": ("parse_pdb_file", "write_pdb", "build_residue_frames",
                 "match_atoms", "kabsch_superpose"),
    "featurize": ("build_knn_graph", "knn_edges", "surface_proximity",
                  "edge_features", "corrupt_coordinates"),
    "model": ("load_weights", "forward", "forward_pass"),
    "train": ("make_training_example", "train_loop", "backward",
              "clip_gradients", "adamw_step", "validation_rmsd"),
    "metrics": ("score_pair", "fnat_fnonnat", "irmsd", "lrmsd", "lddt_ca",
                "hit_rate"),
    "cli": ("main", "cmd_refine", "cmd_evaluate", "_score_task"),
}
# Spans that record the peak traced allocation inside the call. tracemalloc
# runs only inside them: tracing every allocation of the Python-heavy
# featurisation and parsing code would inflate their self times several-fold.
MEMORY = ("featurize.knn_edges", "model.forward_pass", "autodiff.backward")
TAPE_WALK = "trace.tape_walk"


class Tracer:
    """Records spans while installed; ``op`` tags every new span."""

    def __init__(self):
        self.op = 0
        self.spans: list[list] = []  # [name, start, end, parent, op, peak_mb]
        self.tapes: list[tuple[int, int, float]] = []  # (op, tensors, MB)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(len(self.spans) - 1)

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, after=None):
        measure = name in MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Spans in MEMORY never nest, so each owns tracemalloc while it runs.
            tracing = measure and not tracemalloc.is_tracing()
            self._enter(name)
            if tracing:
                tracemalloc.start(1)
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.spans[self._stack[-1]][5] = peak / 1e6
                self._exit()
            if after is not None:
                self._enter(TAPE_WALK)
                try:
                    after(result)
                finally:
                    self._exit()
            return result

        return traced

    def _record_tape(self, fp) -> None:
        seen: set[int] = set()
        stack = [fp.coords, fp.embeddings, fp.qa]
        nbytes = 0
        while stack:
            tensor = stack.pop()
            if id(tensor) in seen:
                continue
            seen.add(id(tensor))
            nbytes += tensor.data.nbytes
            stack.extend(getattr(tensor, "_parents", ()))
        self.tapes.append((self.op, len(seen), nbytes / 1e6))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every lookup site of every traced function."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"equiref.{module_name}")
            for name in names:
                fn = getattr(module, name)
                after = self._record_tape if (module_name, name) == ("model", "forward_pass") else None
                wrappers[id(fn)] = (fn, self.wrap(f"{module_name}.{name}", fn, after))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "equiref" or key.startswith("equiref.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        tensor = importlib.import_module("equiref.autodiff").Tensor
        self._patch(tensor, "backward", self.wrap("autodiff.backward", tensor.backward))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "tapes": self.tapes}, fh)


# -- aggregation -------------------------------------------------------------


def per_op(trace: dict) -> dict[int, dict]:
    """Per op id: {name: {"s": self seconds, "calls": n, "peak_mb": max,
    "total_s": inclusive seconds}} plus "tape_nodes"/"tape_mb" maxima."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ops: dict[int, dict] = defaultdict(lambda: defaultdict(
        lambda: {"s": 0.0, "calls": 0, "peak_mb": 0.0, "total_s": 0.0}))
    for i, (name, start, end, _, op, peak_mb) in enumerate(spans):
        if name == TAPE_WALK:
            continue
        entry = ops[op][name]
        entry["s"] += (end - start) - child_time[i]
        entry["total_s"] += end - start
        entry["calls"] += 1
        entry["peak_mb"] = max(entry["peak_mb"], peak_mb)
    out = {}
    for op, names in ops.items():
        tapes = [(n, mb) for o, n, mb in trace["tapes"] if o == op]
        out[op] = dict(names)
        out[op]["tape_nodes"] = max((n for n, _ in tapes), default=0)
        out[op]["tape_mb"] = max((mb for _, mb in tapes), default=0.0)
    return out


def median_over_ops(ops: list[dict], name: str, stat: str) -> float:
    """Median across ops of one statistic; absent spans count as zero."""
    values = [op[name][stat] if name in op else 0 for op in ops]
    return float(statistics.median(values)) if values else 0.0
