"""Benchmark of equiref's three user paths: refine, evaluate and train.

Run from the repository root:

  python3 perfbench/run.py --workload refine-2k --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --workload all          # every workload, once each

Each workload is a closed loop with one client: an op starts when the
previous one has finished. Inputs are generated from ``--seed`` by
``gen.py``; the program sees only the generated files. One warm-up op is
run and discarded, then ops run until ``--seconds`` have passed and at
least three have been timed (``loop.py``). Every op's output is checked;
an op fails on a non-zero exit, an exception, or a check outside its
tolerance.

With ``--trace 0`` the result line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from ops run under ``tracer.py``, and no end-to-end number comes from that
run. The last line of standard output is the JSON result; the lines above
it are for a reader and include the per-path metrics (refine_s,
decoys_per_s, train_steps_per_s, error_rate).

BLAS threads times program processes is capped at the CPU count; the cap
is passed to the program through its environment and printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402
from loop import Loop  # noqa: E402

REFERENCE = HERE / "reference"
DEFAULT_SEED = 0        # the seed whose outputs are stored in reference/
REFINE_POOL = 8         # distinct refine inputs per run, used in turn
EVAL_TARGETS, EVAL_DECOYS, EVAL_WORKERS = 4, 16, 2
TRAIN_PAIRS, VAL_PAIRS = 4, 2
IMPORTS_PER_OP = 3      # cold imports for setup_s after each untraced op
WEIGHTS_SEED = 7
GATE_SIGMA = 0.05       # coordinate-gate output weights; zero would not move atoms
COORD_TOL_MA = 1        # refined coordinates: one unit of the PDB field (0.001 A)
LDDT_TOL = 1e-6
DOCKQ_TOL = 2e-6        # the details CSV prints six decimals
RMSD_RTOL = 1e-6
CAPRI = ((0.80, "high"), (0.49, "medium"), (0.23, "acceptable"))

# -- helpers -----------------------------------------------------------------


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def program_env(processes: int) -> tuple[dict, int]:
    threads = max(1, cpu_count() // processes)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def run_process(args: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MB of the child and its children)."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def cold_imports(env: dict) -> list[float]:
    """Times of ``import equiref.cli``, each in a fresh interpreter.

    They are taken between ops rather than in one burst, so that setup_s
    sees the machine over the whole run, as op_s does.
    """
    code = ("import time; t = time.perf_counter(); import equiref.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORTS_PER_OP):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return times


def tail(log: Path) -> str:
    text = log.read_text(errors="replace").strip().splitlines()
    return text[-1] if text else ""


def command(kind: str, work: Path, index: int, cli: list[str]) -> list[str]:
    """The equiref CLI call of one op; traced ops go through the launcher."""
    if kind == "traced":
        return [sys.executable, str(HERE / "trace_launch.py"),
                str(work / f"spans{index}.json"), str(index), "--", *cli]
    return [sys.executable, "-m", "equiref.cli", *cli]


def checked(check, *args):
    """Run an output check; an unreadable output fails the op, not the run."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def unlink(*paths: Path) -> None:
    """Remove an op's output files, so its checks read only what it wrote."""
    for path in paths:
        path.unlink(missing_ok=True)


def capri_class(dockq: float) -> str | None:
    """Class of a DockQ value; None within rounding distance of a cutoff."""
    for cutoff, name in CAPRI:
        if abs(dockq - cutoff) < DOCKQ_TOL:
            return None
        if dockq >= cutoff:
            return name
    return "incorrect"


# -- refine-2k ---------------------------------------------------------------


def write_weights(path: Path) -> None:
    """Fixed-seed weights whose coordinate gates move atoms."""
    from equiref.model import ModelConfig, init_params, save_weights

    config = ModelConfig()
    params = init_params(config, seed=WEIGHTS_SEED)
    rng = np.random.default_rng(WEIGHTS_SEED)
    for name in params:
        if ".coord_mlp.w2" in name or ".coord_mlp.b2" in name:
            params[name] = rng.normal(scale=GATE_SIGMA, size=params[name].shape)
    path.write_bytes(save_weights(params, config))


def check_refine(source: Path, output: Path, report: Path, reference, index) -> str | None:
    keys_in, coords_in = gen.read_pdb(source)
    keys_out, coords_out = gen.read_pdb(output)
    if keys_out != keys_in:
        return "refined atom keys differ from the input"
    if not np.all(np.isfinite(coords_out)):
        return "non-finite refined coordinate"
    moved = np.rint((coords_out - coords_in) * 1000).astype(np.int64)
    if not moved.any():
        return "no atom moved"
    payload = json.loads(report.read_text())
    plddt = [r["predicted_lddt"] for r in payload["per_residue"]]
    if len(plddt) != sum(1 for k in keys_in if k[2] == "CA"):
        return "report does not have one predicted LDDT per residue"
    if not all(0.0 <= v <= 1.0 for v in plddt):
        return "predicted LDDT outside [0, 1]"
    if reference is not None:
        slot = index % REFINE_POOL
        worst = int(np.abs(moved - reference[f"moved{slot}"]).max())
        if worst > COORD_TOL_MA:
            return f"refined coordinates off the reference by {worst / 1000:.3f} A"
        if abs(payload["mean_predicted_lddt"] - reference["mean_plddt"][slot]) > LDDT_TOL:
            return "mean predicted LDDT off the reference"
    return None


def refine_workload(args, work: Path) -> dict:
    inputs = gen.refine_inputs(args.seed, work, REFINE_POOL)
    weights = work / "model.weights"
    write_weights(weights)
    env, threads = program_env(1)
    reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference:
        reference = np.load(REFERENCE / "refine.npz")
    recorded = {}
    imports: list[float] = []

    def op(kind, index):
        source = inputs[index % REFINE_POOL]
        output, report = work / "refined.pdb", work / "report.json"
        unlink(output, report)
        cli = ["refine", "--input", str(source), "--weights", str(weights),
               "--output", str(output), "--report", str(report)]
        log = work / "stderr.txt"
        wall, code, rss = run_process(command(kind, work, index, cli), env, log)
        error = f"exit {code}: {tail(log)}" if code else checked(
            check_refine, source, output, report, reference, index)
        if args.record_reference and error is None and index < REFINE_POOL:
            _, before = gen.read_pdb(source)
            _, after = gen.read_pdb(output)
            recorded[f"moved{index}"] = np.rint((after - before) * 1000).astype(np.int16)
            recorded.setdefault("mean_plddt", []).append(
                json.loads(report.read_text())["mean_predicted_lddt"])
        if not (args.trace or args.record_reference):
            imports.extend(cold_imports(env))
        return {"kind": kind, "wall": wall, "rss_mb": rss, "error": error}

    loop = Loop(args.seconds)
    if args.record_reference:
        for index in range(REFINE_POOL):
            loop.ops.append(op("timed", index))
        np.savez_compressed(REFERENCE / "refine.npz", **recorded)
    elif args.trace:
        loop.run(op, ("untraced", "traced"))
    else:
        loop.run(op)
    timed = loop.of("timed")
    return {
        "loop": loop, "threads": threads, "processes": 1,
        "op_s": [o["wall"] for o in timed],
        "rss_mb": [o["rss_mb"] for o in timed],
        "setup_s": statistics.median(imports) if imports else None,
        "per_path": {"refine_s": ("s", [o["wall"] for o in timed])},
        "traced": cli_traces(loop, work, "untraced"),
    }


# -- evaluate-64 -------------------------------------------------------------


def read_details(details: Path) -> list[dict]:
    with open(details, newline="") as fh:
        return list(csv.DictReader(fh))


def check_evaluate(summary: Path, details: Path, reference, targets: int) -> str | None:
    lines = summary.read_text().splitlines()
    rows_for = [line.split("\t")[0] for line in lines[1:-1]]
    if rows_for != [f"T{t}" for t in range(targets)] or not lines[-1].startswith("Summary\t"):
        return "summary does not have one row per target"
    rows = read_details(details)
    if len(rows) != targets * EVAL_DECOYS:
        return f"details has {len(rows)} rows"
    for row in rows:
        dockq = float(row["dockq"])
        if not 0.0 <= dockq <= 1.0:
            return f"{row['decoy']}: DockQ {dockq} outside [0, 1]"
        expected = capri_class(dockq)
        if expected is not None and row["class"] != expected:
            return f"{row['decoy']}: class {row['class']} for DockQ {dockq}"
        if reference is not None:
            ref_dockq, ref_class = reference[row["decoy"]]
            if abs(dockq - ref_dockq) > DOCKQ_TOL or row["class"] != ref_class:
                return f"{row['decoy']}: DockQ/class off the reference"
    return None


def evaluate_workload(args, work: Path) -> dict:
    intended = gen.evaluate_inputs(args.seed, work, EVAL_TARGETS, EVAL_DECOYS)
    env, threads = program_env(EVAL_WORKERS)
    reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference:
        reference = json.loads((REFERENCE / "evaluate.json").read_text())
    scored_mix: dict[str, int] = {}
    imports: list[float] = []
    # The warm-up op scores the first target only: a quarter of an op's time
    # starts the pool and fills the caches a full op would.
    rows = (work / "scores.csv").read_text().splitlines()
    (work / "warmup.csv").write_text("\n".join(
        row for row in rows if not row.startswith("T") or row.startswith("T0,")) + "\n")

    def op(kind, index):
        summary, details = work / "summary.txt", work / "details.csv"
        unlink(summary, details)
        workers = EVAL_WORKERS if kind in ("warmup", "timed") else 1
        scores, targets = ("warmup.csv", 1) if kind == "warmup" else ("scores.csv", EVAL_TARGETS)
        cli = ["evaluate", "--scores", str(work / scores),
               "--natives", str(work / "natives"), "--decoys", str(work / "decoys"),
               "--summary", str(summary), "--details", str(details),
               "--workers", str(workers)]
        log = work / "stderr.txt"
        wall, code, rss = run_process(command(kind, work, index, cli), env, log)
        error = f"exit {code}: {tail(log)}" if code else checked(
            check_evaluate, summary, details, reference, targets)
        if error is None and kind != "warmup" and not scored_mix:
            for row in read_details(details):
                scored_mix[row["class"]] = scored_mix.get(row["class"], 0) + 1
        if args.record_reference and error is None:
            (REFERENCE / "evaluate.json").write_text(json.dumps(
                {r["decoy"]: [float(r["dockq"]), r["class"]] for r in read_details(details)},
                indent=0) + "\n")
        if not (args.trace or args.record_reference):
            imports.extend(cold_imports(env))
        return {"kind": kind, "wall": wall, "rss_mb": rss, "error": error}

    loop = Loop(args.seconds)
    if args.record_reference:
        loop.ops.append(op("timed", 0))
    elif args.trace:
        # 2-worker wall for parallel efficiency; 1-worker pair for the overhead.
        loop.run(op, ("timed", "untraced", "traced"))
    else:
        loop.run(op)
    timed = loop.of("timed")
    decoys = EVAL_TARGETS * EVAL_DECOYS
    result = {
        "notes": [f"class mix: intended {intended}, scored {scored_mix}"],
        "loop": loop, "threads": threads, "processes": EVAL_WORKERS,
        "op_s": [o["wall"] for o in timed],
        "rss_mb": [o["rss_mb"] for o in timed],
        "setup_s": statistics.median(imports) if imports else None,
        "per_path": {"decoys_per_s": ("1/s", [decoys / o["wall"] for o in timed])},
        "traced": cli_traces(loop, work, "untraced"),
    }
    if args.trace and timed and result["traced"]["ops"]:
        tasks = statistics.median(op["cli._score_task"]["total_s"]
                                  for op in result["traced"]["ops"])
        result["traced"]["parallel_efficiency"] = tasks / (
            EVAL_WORKERS * statistics.median(o["wall"] for o in timed))
    return result


# -- train-1k ----------------------------------------------------------------


def train_workload(args, work: Path) -> dict:
    gen.train_inputs(args.seed, work, TRAIN_PAIRS, VAL_PAIRS)
    env, threads = program_env(1)
    out = work / "train.json"
    log = work / "stderr.txt"
    seconds = 0 if args.record_reference else args.seconds
    _, code, rss = run_process(
        [sys.executable, str(HERE / "train_worker.py"), str(work), str(seconds),
         str(int(args.trace)), str(out)], env, log)
    if code:
        raise RuntimeError(f"train worker exit {code}: {tail(log)}")
    report = json.loads(out.read_text())
    reference = None
    if args.record_reference:
        best = report["ops"][1]["best_val_rmsd"]  # the first full op
        (REFERENCE / "train.json").write_text(json.dumps({"best_val_rmsd": best}) + "\n")
    elif args.seed == DEFAULT_SEED:
        reference = json.loads((REFERENCE / "train.json").read_text())["best_val_rmsd"]
    loop = Loop(args.seconds)
    for op in report["ops"]:
        # The warm-up op trains on one pair only; its result has no reference.
        checked_op = op["error"] is None and op["kind"] != "warmup"
        if checked_op and reference is not None and not math.isclose(
                op["best_val_rmsd"], reference, rel_tol=RMSD_RTOL):
            op["error"] = f"best_val_rmsd {op['best_val_rmsd']} != reference {reference}"
        loop.ops.append(op)
    timed = loop.of("timed")
    result = {
        "loop": loop, "threads": threads, "processes": 1,
        "op_s": [o["wall"] for o in timed],
        "rss_mb": [rss] if timed else [],
        "setup_s": None if args.trace else statistics.median(report["setup_s"]),
        "per_path": {"train_steps_per_s": ("1/s", [o["steps"] / o["wall"] for o in timed])},
        "traced": None,
    }
    if args.trace:
        ops = tracer.per_op(report["trace"])
        result["traced"] = {
            "ops": [ops[i] for i, o in enumerate(loop.ops)
                    if o["kind"] == "traced" and o["error"] is None],
            "trace": report["trace"],
            "overhead": ratio_of_medians(loop, "traced", "untraced"),
        }
    return result


# -- traces ------------------------------------------------------------------


def ratio_of_medians(loop: Loop, kind: str, base: str) -> float:
    a, b = loop.of(kind), loop.of(base)
    if not a or not b:
        return 0.0
    return statistics.median(o["wall"] for o in a) / statistics.median(o["wall"] for o in b)


def cli_traces(loop: Loop, work: Path, base: str) -> dict | None:
    traced = [(i, o) for i, o in enumerate(loop.ops) if o["kind"] == "traced"]
    if not traced:
        return None
    merged = {"spans": [], "tapes": []}
    ops = []
    for index, o in traced:
        path = work / f"spans{index}.json"
        if o["error"] is not None or not path.exists():
            continue
        trace = json.loads(path.read_text())
        ops.append(tracer.per_op(trace)[index])
        offset = len(merged["spans"])
        for span in trace["spans"]:
            if span[3] >= 0:
                span[3] += offset
            merged["spans"].append(span)
        merged["tapes"] += trace["tapes"]
    return {"ops": ops, "trace": merged, "overhead": ratio_of_medians(loop, "traced", base)}


def layer_metrics(names: list[dict], traced: dict | None) -> dict:
    ops = traced["ops"] if traced else []
    derived = {
        "autodiff.tape_nodes": statistics.median(op["tape_nodes"] for op in ops) if ops else 0,
        "autodiff.tape_mb": statistics.median(op["tape_mb"] for op in ops) if ops else 0.0,
        "trace.overhead": traced["overhead"] if traced else 0.0,
        "cli.evaluate.parallel_efficiency": (traced or {}).get("parallel_efficiency", 0.0),
    }
    backward = tracer.median_over_ops(ops, "train.backward", "calls")
    derived["train.step_ratio"] = (
        tracer.median_over_ops(ops, "train.adamw_step", "calls") / backward if backward else 0.0)
    scored = tracer.median_over_ops(ops, "cli._score_task", "calls")
    derived["cli.evaluate.parses_per_decoy"] = (
        tracer.median_over_ops(ops, "structio.parse_pdb_file", "calls") / scored
        if scored else 0.0)
    metrics = {}
    for entry in names:
        name = entry["name"]
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = tracer.median_over_ops(ops, span, stat)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


# -- main --------------------------------------------------------------------

WORKLOADS = {
    "refine-2k": refine_workload,
    "evaluate-64": evaluate_workload,
    "train-1k": train_workload,
}


def run_workload(name: str, args, spec: dict) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[name](args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    loop = result["loop"]
    if args.record_reference:
        print(f"recorded the {name} reference in {REFERENCE}")
        return {}
    attempted = len(loop.ops)
    failed = sum(1 for op in loop.ops if op["error"] is not None)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"workload {name}: {why}")
    print(f"seed {args.seed}; closed loop, one client; {args.seconds:g} s measured; "
          f"blas_threads={result['threads']} x processes={result['processes']} "
          f"(cpus {cpu_count()})")
    for op in loop.ops:
        if op["error"] is not None:
            print(f"failed {op['kind']} op: {op['error']}")
    print(f"metric error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    for note in result.get("notes", ()):
        print(note)
    for path_metric, (unit, values) in result["per_path"].items():
        if values:
            print(f"metric {path_metric} {statistics.median(values):.4f} {unit} "
                  f"(median of {len(values)} ops)")
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], result["traced"])
        if result["traced"]:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            with open(out / f"trace-{name}-seed{args.seed}.json", "w") as fh:
                json.dump(result["traced"]["trace"], fh)
    else:
        values = {"op_s": result["op_s"], "peak_rss_mb": result["rss_mb"],
                  "setup_s": [result["setup_s"]]}
        metrics = {}
        for entry in spec["end_to_end"]:
            series = values[entry["name"]]
            if not series:
                raise RuntimeError(f"no successful op to measure {entry['name']}")
            metrics[entry["name"]] = {"value": statistics.median(series),
                                      "unit": entry["unit"]}
    for metric, data in metrics.items():
        print(f"metric {metric} {data['value']:.6g} {data['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store seed {DEFAULT_SEED} outputs as the reference; "
                             "only when the program's outputs change on purpose")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equiref" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are stored for seed {DEFAULT_SEED} only")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
