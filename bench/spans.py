"""Spans around calls into each midecay layer, recorded from outside the package.

``Tracer.install`` rebinds public functions of ``midecay.corpus``,
``midecay.estimator``, ``midecay.fit`` and ``midecay.schedule`` to timing
wrappers. The CLI looks these functions up on their modules at call time, so
the library spans nest under the ``cli.<command>`` span that ``Tracer.cli``
opens around ``midecay.cli.main``. Only a traced worker process installs the
wrappers. A span is a dict with ``id``, ``parent``, ``req`` (the CLI call it
belongs to), ``name``, ``start`` and ``end`` (perf_counter seconds) and
layer-specific counts.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# (module, function) pairs wrapped by Tracer.install; span name is
# "<module>.<function>"
WRAPPED = {
    "corpus": ("load_text", "load_idx_images"),
    "estimator": ("default_lag_grid", "decay_curve", "curve_to_csv", "curve_from_csv"),
    "fit": ("classify", "write_fit_json", "read_fit_json"),
    "schedule": (
        "max_dilation",
        "standard_dilations",
        "capped_standard_dilations",
        "intercept_dilations",
        "build_grid",
        "write_grid_json",
    ),
}

DECAY_CLASSES = ("PowerLaw", "BrokenPowerLaw", "PowerLawPeriodic", "Exponential")


def peak_rss_mb() -> float:
    """High-water resident set size of this process image, in MB.

    Not ``ru_maxrss``: a child started by vfork and exec inherits its
    parent's high-water mark there, which would hide the worker's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError("no VmHWM in /proc/self/status")


def _annotate(name: str, span: dict, args: tuple, result) -> None:
    """Counts recorded at the layer boundary, outside the span's interval."""
    if name in ("corpus.load_text", "corpus.load_idx_images"):
        span["symbols"] = int(result.n_symbols)
        span["ids_bytes"] = int(sum(s.nbytes for s in result.sequences))
    elif name == "estimator.decay_curve":
        skipped = result.meta.get("skipped_lags", [])
        span["lags"] = int(result.lags.size) + len(skipped)
        span["lags_skipped"] = len(skipped)
        span["pairs"] = int(result.pairs.sum()) + sum(s["pair_count"] for s in skipped)
    elif name == "fit.classify":
        span["decay_class"] = result.decay_class.value
    elif name in ("fit.write_fit_json", "schedule.write_grid_json"):
        span["bytes"] = os.path.getsize(args[1])
    elif name == "schedule.intercept_dilations":
        span["result_id"] = id(result)
    elif name == "schedule.build_grid":
        span["schedules"] = len(result.schedules)


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._req = -1
        self._originals: list = []

    def _open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": len(self.spans), "parent": parent, "req": self._req, "name": name}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, fname: str, name: str):
        fn = getattr(module, fname)
        self._originals.append((module, fname, fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss_before = peak_rss_mb() if name == "estimator.decay_curve" else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if rss_before is not None:
                span["rss_growth_mb"] = peak_rss_mb() - rss_before
            _annotate(name, span, args, result)
            if name == "schedule.build_grid":
                self._count_fitted(span, result)
            return result

        setattr(module, fname, wrapper)

    def _count_fitted(self, span: dict, spec) -> None:
        # build_grid swallows ScheduleError and drops duplicates: a tried
        # intercept schedule is emitted only if that very object is in the grid
        emitted = {id(s) for s in spec.schedules}
        tried = [
            s
            for s in self.spans[span["id"] + 1 :]
            if s["parent"] == span["id"] and s["name"] == "schedule.intercept_dilations"
        ]
        span["fitted_tried"] = len(tried)
        span["fitted_emitted"] = sum(1 for s in tried if s.get("result_id") in emitted)

    def install(self) -> None:
        import importlib

        for module_name, functions in WRAPPED.items():
            module = importlib.import_module(f"midecay.{module_name}")
            for fname in functions:
                self._wrap(module, fname, f"{module_name}.{fname}")

    def uninstall(self) -> None:
        """Restore the functions install() replaced."""
        while self._originals:
            module, fname, fn = self._originals.pop()
            setattr(module, fname, fn)

    def cli(self, main, argv: list[str]) -> int:
        """Call midecay.cli.main(argv) inside a cli.<command> span."""
        self._req += 1
        span = self._open(f"cli.{argv[0]}")
        try:
            code = main(argv)
        finally:
            self._close(span)
        span["exit"] = code
        return code


def self_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in named(*names))

    loads = ("corpus.load_text", "corpus.load_idx_images")
    pairs = total("pairs", "estimator.decay_curve")
    curve_s = busy("estimator.decay_curve")
    tried = total("fitted_tried", "schedule.build_grid")
    cli_spans = [s for s in spans if s["name"].startswith("cli.")]
    own = self_time(spans)
    m = {
        "corpus.load_s": busy(*loads),
        "corpus.symbols": total("symbols", *loads),
        "corpus.ids_mb": total("ids_bytes", *loads) / 1e6,
        "estimator.decay_curve_s": curve_s,
        "estimator.pairs": pairs,
        "estimator.lags": total("lags", "estimator.decay_curve"),
        "estimator.lags_skipped": total("lags_skipped", "estimator.decay_curve"),
        "estimator.ns_per_pair": curve_s * 1e9 / pairs if pairs else 0.0,
        "estimator.rss_growth_mb": max(
            [s.get("rss_growth_mb", 0.0) for s in named("estimator.decay_curve")],
            default=0.0,
        ),
        "estimator.write_csv_s": busy("estimator.curve_to_csv"),
        "estimator.read_csv_s": busy("estimator.curve_from_csv"),
        "fit.classify_s": busy("fit.classify"),
        "fit.write_json_s": busy("fit.write_fit_json"),
        "fit.read_json_s": busy("fit.read_fit_json"),
        "fit.json_bytes": total("bytes", "fit.write_fit_json"),
    }
    classes = [s.get("decay_class") for s in named("fit.classify")]
    for c in DECAY_CLASSES:
        m[f"fit.class.{c}"] = classes.count(c)
    m.update(
        {
            "schedule.build_grid_s": busy("schedule.build_grid"),
            "schedule.intercept_s": busy("schedule.intercept_dilations"),
            "schedule.write_json_s": busy("schedule.write_grid_json"),
            "schedule.json_bytes": total("bytes", "schedule.write_grid_json"),
            "schedule.schedules": total("schedules", "schedule.build_grid")
            + sum(1 for s in named("cli.schedule") if s.get("exit") == 0),
            "schedule.fitted_yield": (
                total("fitted_emitted", "schedule.build_grid") / tried if tried else 0.0
            ),
        }
    )
    for command in ("analyze", "fit", "schedule", "grid"):
        m[f"cli.{command}_s"] = busy(f"cli.{command}")
    m["cli.self_s"] = sum(own[s["id"]] for s in cli_spans)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
