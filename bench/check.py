"""Correctness gate of the benchmark.

Three kinds of check, none of which imports midecay:

* On every seed, an independent recount: the inputs are decoded here and MI
  at lag 1 and at the largest kept lag is recomputed with ``np.unique`` over
  pairs that never cross a sequence boundary; it must match the curve CSV to
  ``MI_TOLERANCE`` and the pair counts exactly. The max dilation is checked
  against the noise crossing recomputed from the CSV, and the schedule and
  grid against the rules the grid is built by.
* On every seed, each pass must give the same outputs as the first pass.
* On the default seed, every output field must equal the golden recorded in
  ``goldens.json``, unless the generated inputs themselves drifted.

Each problem is charged to the CLI command whose output shows it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

MI_TOLERANCE = 1e-12
GOLDENS = Path(__file__).resolve().parent / "goldens.jsonl"

# output field -> the command that produces it
FIELD_COMMAND = {
    "csv_sha256": "analyze",
    "decay_class": "fit",
    "period": "fit",
    "threshold": "fit",
    "max_lag": "fit",
    "schedule_dilations": "schedule",
    "max_dilation": "grid",
    "max_dilation_is_lower_bound": "grid",
    "grid_dilations": "grid",
}


def sha256_files(paths) -> str:
    """Digest over the names and bytes of the files, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def read_curve(path) -> tuple[list[int], list[float], list[int]]:
    """(lags, mi, pairs) of a `lag,mi_nats,pair_count` CSV."""
    lines = Path(path).read_text(encoding="utf-8").split()
    rows = [line.split(",") for line in lines[1:]]
    return [int(r[0]) for r in rows], [float(r[1]) for r in rows], [int(r[2]) for r in rows]


def decode_input(workload: str, path) -> list[np.ndarray]:
    """The symbol sequences of a generated input, decoded without midecay."""
    data = Path(path).read_bytes()
    if workload == "text-byte":
        return [np.frombuffer(data, dtype=np.uint8)]
    if workload == "text-word":
        _, ids = np.unique(np.array(data.split()), return_inverse=True)
        return [ids.ravel()]
    if workload == "idx-pixel":
        _, count, rows, cols = struct.unpack(">IIII", data[:16])
        images = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows * cols)
        return list(images)
    raise ValueError(f"no symbol sequences for workload {workload!r}")


def oracle_mi(sequences, d: int) -> tuple[float, int]:
    """Plug-in MI in nats and pair count at lag d, pooled over sequences.

    Pairs are taken within each sequence only; cells are counted with
    ``np.unique`` on the codes x*K + y.
    """
    xs = np.concatenate([s[:-d] for s in sequences if s.size > d]).astype(np.int64)
    ys = np.concatenate([s[d:] for s in sequences if s.size > d]).astype(np.int64)
    k = int(max(xs.max(), ys.max())) + 1
    cells, counts = np.unique(xs * k + ys, return_counts=True)
    n = int(counts.sum())
    px = np.bincount(xs, minlength=k).astype(np.float64)
    py = np.bincount(ys, minlength=k).astype(np.float64)
    c = counts.astype(np.float64)
    mi = float(np.sum(c * np.log(c * n / (px[cells // k] * py[cells % k])))) / n
    return max(0.0, mi), n


def oracle_problems(sequences, csv_path) -> list[str]:
    """Recount lag 1 and the largest kept lag and compare with the curve CSV."""
    lags, mi, pairs = read_curve(csv_path)
    problems = []
    for i in sorted({0, len(lags) - 1}):
        want_mi, want_pairs = oracle_mi(sequences, lags[i])
        if pairs[i] != want_pairs:
            problems.append(f"lag {lags[i]}: {pairs[i]} pairs, recount {want_pairs}")
        if not abs(mi[i] - want_mi) <= MI_TOLERANCE:
            problems.append(f"lag {lags[i]}: MI {mi[i]!r}, recount {want_mi!r}")
    return problems


def noise_crossing(lags, mi, threshold) -> int | None:
    """Smallest lag from which MI stays below threshold to the last lag."""
    i = len(lags)
    while i > 0 and mi[i - 1] < threshold:
        i -= 1
    return None if i == len(lags) else lags[i]


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def observe(outputs: dict, records: dict) -> dict:
    """Output fields of one curve's commands.

    outputs maps "csv", "fit", "schedule", "grid" to file paths; records maps
    each command run to its worker record.
    """
    obs = {"exit": {c: r["exit"] for c, r in records.items()}}
    if "analyze" in records:
        csv = Path(outputs["csv"])
        obs["csv_sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.is_file() else None
    fit = _load_json(outputs["fit"]) or {}
    obs["decay_class"] = fit.get("decay_class")
    obs["period"] = (fit.get("periodicity") or {}).get("period")
    obs["threshold"] = fit.get("threshold")
    obs["max_lag"] = fit.get("max_lag")
    schedule = _load_json(outputs["schedule"])
    obs["schedule_dilations"] = schedule["dilations"] if schedule else None
    grid = _load_json(outputs["grid"]) or {}
    obs["max_dilation"] = grid.get("max_dilation")
    obs["max_dilation_is_lower_bound"] = grid.get("max_dilation_is_lower_bound")
    obs["grid_dilations"] = [s["dilations"] for s in grid.get("schedules", [])] or None
    return obs


def _increasing_from_one(d) -> bool:
    return bool(d) and d[0] == 1 and all(b > a for a, b in zip(d, d[1:]))


def _capped(n: int, d_max: int) -> list[int]:
    powers = [2**i for i in range(n)]
    return powers if powers[-1] <= d_max else [p for p in powers if p < d_max] + [d_max]


def command_problems(obs: dict, records: dict, curve, layers: int, sweep) -> dict[str, list[str]]:
    """Problems per command from exit codes and the rules the outputs obey."""
    out: dict[str, list[str]] = {c: [] for c in records}
    for command, r in records.items():
        if r["exception"]:
            out[command].append(f"raised {r['exception']}")
        elif r["exit"] != 0 and not (
            command == "schedule"
            and r["exit"] == 2
            and obs["decay_class"] not in (None, "Exponential")
            and r["stderr"].startswith("midecay: error: ")
            and r["stderr"].count("\n") == 1
        ):
            out[command].append(f"exit {r['exit']}: {r['stderr'].strip()[:200]}")
    if any(out.values()):
        return out

    lags, mi, _ = curve
    if obs["max_lag"] != lags[-1]:
        out["fit"].append(f"max_lag {obs['max_lag']} != last curve lag {lags[-1]}")
    exponential = obs["decay_class"] == "Exponential"
    if obs["decay_class"] == "PowerLawPeriodic":
        want = (obs["period"], False)
    else:
        crossing = noise_crossing(lags, mi, obs["threshold"])
        want = (lags[-1], True) if crossing is None else (crossing, False)
    md = obs["max_dilation"]
    if (md, obs["max_dilation_is_lower_bound"]) != want:
        out["grid"].append(f"max dilation {md}, lower bound "
                           f"{obs['max_dilation_is_lower_bound']}, expected {want}")
    grid = obs["grid_dilations"] or []
    if not all(_increasing_from_one(d) for d in grid) or len({tuple(d) for d in grid}) != len(grid):
        out["grid"].append("grid schedules not unique, increasing and starting at 1")
    family = [_capped(n, md) if exponential else [2**i for i in range(n)] for n in sweep]
    if any(f not in grid for f in family):
        out["grid"].append("grid lacks a standard schedule of the layer sweep")
    sd = obs["schedule_dilations"]
    if records["schedule"]["exit"] == 0 and not (
        sd and _increasing_from_one(sd) and len(sd) <= layers and sd[-1] <= md
    ):
        out["schedule"].append(f"schedule {sd} does not fit {layers} layers and max {md}")
    return out


def diff_problems(obs: dict, reference: dict, what: str) -> dict[str, list[str]]:
    """Field-by-field differences from a reference observation, per command."""
    out: dict[str, list[str]] = {}
    for command, code in reference["exit"].items():
        if obs["exit"].get(command) != code:
            out.setdefault(command, []).append(
                f"exit {obs['exit'].get(command)} != {what} {code}"
            )
    for field, command in FIELD_COMMAND.items():
        if field in reference and obs.get(field) != reference[field]:
            out.setdefault(command, []).append(f"{field} differs from {what}")
    return out


def load_goldens() -> dict:
    """{"seed", "numpy", "inputs": {workload: sha256}, "outputs": {workload: {curve: obs}}}.

    The file holds a header line, then one line per curve, so that its diffs
    name the curves that changed.
    """
    with open(GOLDENS, encoding="utf-8") as f:
        goldens = json.loads(f.readline())
        goldens["outputs"] = {}
        for line in f:
            row = json.loads(line)
            goldens["outputs"].setdefault(row["workload"], {})[row["curve"]] = row["observed"]
    return goldens


def write_goldens(seed: int, numpy_version: str, inputs: dict, outputs: dict) -> None:
    lines = [json.dumps({"seed": seed, "numpy": numpy_version, "inputs": inputs}, sort_keys=True)]
    for workload, curves in outputs.items():
        for curve, observed in curves.items():
            lines.append(json.dumps(
                {"workload": workload, "curve": curve, "observed": observed}, sort_keys=True
            ))
    GOLDENS.write_text("\n".join(lines) + "\n", encoding="utf-8")
