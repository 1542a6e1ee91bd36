"""Seeded end-to-end benchmark of the midecay CLI: analyze -> fit -> schedule/grid.

Run from the repository root:

    python3 bench/run.py --workload text-byte --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --record-goldens

The inputs of a workload are generated from the seed in this process
(``generate.py``). Each pass of the workload's CLI commands then runs through
``midecay.cli.main`` in a fresh worker interpreter (``worker.py``), one pass
after another and no two at once, until ``--seconds`` have passed; a few
import-only workers add set-up samples. With ``--trace 0`` the end-to-end
metrics are reported. With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics come from the spans of the traced passes
(``spans.py``). Every pass is checked (``check.py``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the share of CLI
commands that raised, exited with an unexpected code or wrote output that
failed the gate. A record of the run, with every sample, the environment, the
input sizes and, for a traced run, the spans of one pass, goes to ``--out``
for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

DEFAULT_SEED = 0
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
LAYERS = 12
SWEEP = range(4, 13)

# workload -> (analyze --mode, --max-lag); fit-batch runs no analyze and is
# left out of BENCHMARK.json (see rationale.json, "left_out")
WORKLOADS = {
    "text-byte": ("byte", 1000),
    "idx-pixel": ("pixel", 783),
    "text-word": ("word", 300),
    "fit-batch": (None, None),
}
END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def plan_pass(workload: str, inputs: list[Path], out: Path) -> tuple[list, list]:
    """argv of every CLI command of one pass, and the curves they produce.

    Each item names one curve: its files and the index of each of its
    commands in the argv list. Paths are relative to the repository root,
    where the worker runs.
    """
    commands: list[list[str]] = []
    items = []
    mode, max_lag = WORKLOADS[workload]
    for src in inputs:
        stem = out / src.stem
        files = {
            "csv": f"{stem}.csv" if mode else str(src),
            "fit": f"{stem}.fit.json",
            "schedule": f"{stem}.schedule.json",
            "grid": f"{stem}.grid.json",
        }
        argv = {
            "fit": ["fit", "--curve", files["csv"], "--out", files["fit"]],
            "schedule": ["schedule", "--fit", files["fit"], "--layers", str(LAYERS),
                         "--out", files["schedule"]],
            "grid": ["grid", "--fit", files["fit"], "--layers", f"{SWEEP[0]}..{SWEEP[-1]}",
                     "--out", files["grid"]],
        }
        if mode:
            argv = {"analyze": ["analyze", "--input", str(src), "--mode", mode, "--max-lag",
                                str(max_lag), "--out", files["csv"]], **argv}
        index = {}
        for command, args in argv.items():
            index[command] = len(commands)
            commands.append(args)
        items.append({"name": src.name, "files": files, "index": index})
    return commands, items


@contextlib.contextmanager
def workspace(name: str):
    """A working directory under the repository root, removed afterwards."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def spawn_worker(work: Path, tag: str, commands: list, trace: bool) -> dict:
    """Run one worker to completion; its result, or {"error": ...}."""
    plan = work / f"{tag}.plan.json"
    result = work / f"{tag}.result.json"
    plan.write_text(json.dumps(commands), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(WORKER), repr(time.perf_counter()), str(plan), str(result),
         str(int(trace))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(result.read_text(encoding="utf-8"))


def generate_inputs(workload: str, seed: int, work: Path) -> list[Path]:
    import generate

    return [p.relative_to(ROOT) for p in generate.write_inputs(workload, seed, work / "inputs")]


def evaluate(workload: str, inputs, passes: list[dict], items_per_pass: list, golden):
    """Charge every check problem to a command; (failed, attempted, problems).

    golden maps curve name to its recorded observation, or is None.
    """
    import check

    sequences = check.decode_input(workload, ROOT / inputs[0]) if WORKLOADS[workload][0] else None
    oracle: dict[str, list[str]] = {}  # curve CSV sha256 -> recount problems
    first: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for n, (result, items) in enumerate(zip(passes, items_per_pass)):
        for item in items:
            attempted += len(item["index"])
            if "error" in result:
                failed += len(item["index"])
                problems.append(f"pass {n} {item['name']}: {result['error']}")
                continue
            records = {c: result["commands"][i] for c, i in item["index"].items()}
            obs = check.observe(item["files"], records)
            csv = Path(item["files"]["csv"])
            if not csv.is_file():
                found = {c: ["no curve CSV"] for c in records}
            else:
                found = check.command_problems(obs, records, check.read_curve(csv), LAYERS, SWEEP)
            if sequences is not None and csv.is_file():
                sha = obs["csv_sha256"]
                if sha not in oracle:
                    oracle[sha] = check.oracle_problems(sequences, csv)
                found["analyze"] += oracle[sha]
            reference = first.setdefault(item["name"], obs)
            for ref, what in ((reference, "pass 0"), ((golden or {}).get(item["name"]), "golden")):
                if ref is not None:
                    for c, p in check.diff_problems(obs, ref, what).items():
                        found[c] += p
            for c, p in found.items():
                if p:
                    failed += 1
                    problems.extend(f"pass {n} {item['name']} {c}: {x}" for x in p)
    if golden is not None and set(golden) != set(first):
        failed += 1
        attempted += 1
        problems.append("curves differ from the goldens' curves")
    return failed, attempted, problems


def environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def sizes(workload: str, inputs, items: list) -> dict:
    """The bases every ratio of a record refers to."""
    import check
    import numpy as np

    curves = [check.read_curve(it["files"]["csv"]) for it in items
              if Path(it["files"]["csv"]).is_file()]
    counted = WORKLOADS[workload][0] is not None
    sequences = check.decode_input(workload, ROOT / inputs[0]) if counted else []
    return {
        "input_bytes": sum((ROOT / p).stat().st_size for p in inputs),
        "symbols": sum(int(s.size) for s in sequences),
        "alphabet": int(np.unique(np.concatenate(sequences)).size) if counted else 0,
        "lags": sum(len(c[0]) for c in curves),
        "pairs": sum(sum(c[2]) for c in curves) if counted else 0,
        "curves": len(items),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    import check
    import spans

    with workspace(f"{workload}-seed{seed}") as work:
        t = time.perf_counter()
        inputs = generate_inputs(workload, seed, work)
        generate_s = time.perf_counter() - t
        input_sha = check.sha256_files([ROOT / p for p in inputs])
        goldens = check.load_goldens() if check.GOLDENS.is_file() else None
        drift = golden = None
        if seed == DEFAULT_SEED and goldens:
            recorded = goldens["inputs"].get(workload)
            if recorded == input_sha:
                golden = goldens["outputs"][workload]
            else:
                drift = f"generated inputs sha256 {input_sha} != recorded {recorded}"
                print(f"warning: generator drift on {workload}: {drift}; "
                      "golden outputs not compared", file=sys.stderr)

        setup = []
        for i in range(SETUP_PROBES):
            probe = spawn_worker(work, f"probe{i}", [], False)
            if "error" in probe:
                raise RuntimeError(probe["error"])
            setup.append(probe["setup_s"])

        passes, items_per_pass, traced = [], [], []
        start = time.perf_counter()
        while len(passes) < 1 + trace or time.perf_counter() - start < seconds:
            n = len(passes)
            (work / f"pass{n}").mkdir()
            commands, items = plan_pass(workload, inputs, (work / f"pass{n}").relative_to(ROOT))
            traced.append(trace and n % 2 == 1)
            passes.append(spawn_worker(work, f"pass{n}", commands, traced[-1]))
            items_per_pass.append(items)

        failed, attempted, problems = evaluate(workload, inputs, passes, items_per_pass, golden)
        done = [(p, tr) for p, tr in zip(passes, traced) if "error" not in p]
        plain = [p for p, tr in done if not tr]
        if not plain or (trace and len(plain) == len(done)):
            raise RuntimeError("no pass completed: " + "; ".join(problems[:3]))
        samples = {
            "pipeline_s": [p["pipeline_s"] for p in plain],
            "setup_s": setup + [p["setup_s"] for p, _ in done],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
        traced_passes = [p for p, tr in done if tr]
        if trace:
            layer = spans.median_metrics([spans.layer_metrics(p["spans"]) for p in traced_passes])
            traced_s = statistics.median(p["pipeline_s"] for p in traced_passes)
            layer["trace.overhead_frac"] = traced_s / metrics["pipeline_s"] - 1.0
            units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
            metrics = layer
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "environment": environment(),
            "sizes": sizes(workload, inputs, items_per_pass[0]),
            "generate_s": generate_s,
            "input_sha256": input_sha,
            "drift": drift,
            "passes": len(passes),
            "samples": samples,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:50],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        if traced_passes:
            record["spans"] = traced_passes[-1]["spans"]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    report(record)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload run."""
    from compare import quartiles

    w = record["workload"]
    print(f"[{w}] seed {record['seed']}: {record['passes']} passes, "
          f"fail_frac {record['failed'] / record['attempted']:.4g} "
          f"({record['failed']}/{record['attempted']} commands), "
          f"correct {record['correct']}" + (" (generator drift)" if record["drift"] else ""))
    for p in record["problems"][:10]:
        print(f"[{w}]   problem: {p}")
    for name, m in record["metrics"].items():
        line = f"[{w}]   {name} = {m['value']:.6g} {m['unit']}"
        if name in record["samples"] and not record["trace"]:
            values = record["samples"][name]
            q1, q3 = quartiles(values)
            line += f" (median of {len(values)}, quartiles {q1:.6g}..{q3:.6g})"
        print(line)
    print(f"[{w}]   sizes: " + ", ".join(f"{k} {v}" for k, v in record["sizes"].items()))
    print(f"[{w}]   environment: "
          + ", ".join(f"{k} {v}" for k, v in record["environment"].items()))


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def record_goldens() -> int:
    """Rewrite the goldens from one untraced pass of each workload on the default seed.

    Refuses when a pass fails the seed-independent checks.
    """
    import check
    import numpy

    inputs_sha, outputs = {}, {}
    for workload in WORKLOADS:
        with workspace(f"goldens-{workload}") as work:
            inputs = generate_inputs(workload, DEFAULT_SEED, work)
            (work / "out").mkdir()
            commands, items = plan_pass(workload, inputs, (work / "out").relative_to(ROOT))
            result = spawn_worker(work, "pass", commands, False)
            failed, _, problems = evaluate(workload, inputs, [result], [items], None)
            if failed:
                print("\n".join(problems[:20]), file=sys.stderr)
                return 1
            inputs_sha[workload] = check.sha256_files([ROOT / p for p in inputs])
            outputs[workload] = {
                it["name"]: check.observe(
                    it["files"], {c: result["commands"][i] for c, i in it["index"].items()}
                )
                for it in items
            }
    check.write_goldens(DEFAULT_SEED, numpy.__version__, inputs_sha, outputs)
    print(f"wrote {check.GOLDENS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_results",
                        help="directory for the run records compare.py reads")
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite the goldens from the default seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "midecay" / "cli.py").is_file():
        print(f"error: no midecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        parser.error("--workload, a positive --seconds and a non-negative --seed are required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.out) for w in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # no BLAS thread pools in this process or in the workers it starts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
