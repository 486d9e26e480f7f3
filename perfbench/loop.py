"""The closed loop every workload runs: one client, each op after the last."""

from __future__ import annotations

import time

MIN_OPS = 3  # ops after the warm-up in every run, however long they take


class Loop:
    """Warm-up op, then ops back to back until the time is up.

    A run that is over before ``MIN_OPS`` ops goes on until it has them, so
    that a median never rests on one or two ops; a traced run also completes
    at least one op of every kind.

    ``op(kind, index)`` runs one op and returns its record, a dict with at
    least ``kind`` and ``error`` (None for an op that passed its checks).
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.ops: list[dict] = []

    def run(self, op, kinds=("timed",)) -> None:
        self.ops.append(op("warmup", 0))
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds or i < max(MIN_OPS, len(kinds)):
            self.ops.append(op(kinds[i % len(kinds)], len(self.ops)))
            i += 1

    def of(self, kind: str) -> list[dict]:
        return [op for op in self.ops if op["kind"] == kind and op["error"] is None]
