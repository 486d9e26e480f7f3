"""The scale probe runs end to end at a tiny size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "scripts" / "scale_probe.py"


def test_probe_reports_every_stage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(PROBE), "--size", "1", "1", "6",
         "--train-size", "1", "1", "5"],
        check=True, capture_output=True, text=True, env=env, timeout=300,
    )
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert [row["stage"] for row in rows] == [
        "parse", "build_knn_graph", "forward", "reference", "score_pair", "backward"
    ]
    assert [row["size"] for row in rows] == [[1, 1, 6]] * 5 + [[1, 1, 5]]
    for row in rows:
        assert row["atoms"] > 0
        assert row["seconds"] >= 0
        assert row["peak_rss_mb"] > 0
        assert type(row["minor_faults"]) is int and row["minor_faults"] >= 0
