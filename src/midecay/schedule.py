"""Dilation schedules and grid-search specs derived from a classified decay fit.

The curve-fitted construction places layer levels equidistant in log MI
between the fitted MI at lag 1 and at the target max dilation, then reads the
lag at which the fitted (piecewise) power law attains each level. A steeper
segment therefore receives denser dilations.
"""

import math
from dataclasses import dataclass

from .fit import ClassifiedFit, DecayClass
from .jsonio import from_dict, read_json, to_dict, write_json

GRID_FORMAT_VERSION = 1

ORIGIN_STANDARD = "standard"
ORIGIN_CURVE_FITTED = "curve_fitted"

# a 64th doubling layer would reach 2**63, beyond every lag a curve or fit holds
MAX_STANDARD_LAYERS = 63

# the dense-then-standard hybrid has a unit-step layer for every lag up to its
# break, so its size grows with the break (at 10^6, 1.2 s and a 15.9 MB grid
# JSON); past this many unit steps build_grid leaves it out
MAX_UNIT_STEPS = 4096


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class DilationSchedule:
    dilations: tuple[int, ...]
    origin: str
    rationale: str = ""

    def __post_init__(self):
        dil = tuple(int(v) for v in self.dilations)
        if dil != tuple(self.dilations):
            raise ValueError("dilations must be whole numbers")
        if not dil:
            raise ValueError("schedule must contain at least one dilation")
        if dil[0] != 1:
            raise ValueError("first dilation must be 1")
        if any(b <= a for a, b in zip(dil, dil[1:])):
            raise ValueError("dilations must be strictly increasing")
        if self.origin not in (ORIGIN_STANDARD, ORIGIN_CURVE_FITTED):
            raise ValueError(f"unknown origin {self.origin!r}")
        object.__setattr__(self, "dilations", dil)


@dataclass(frozen=True)
class MaxDilation:
    value: int
    is_lower_bound: bool = False


@dataclass
class GridSearchSpec:
    schedules: list[DilationSchedule]
    evidence: ClassifiedFit

    @property
    def max_dilation(self) -> MaxDilation:
        return max_dilation(self.evidence)

    @property
    def dataset_meta(self) -> str:
        return str((self.evidence.curve_meta or {}).get("source_meta", ""))

    def __post_init__(self):
        if not self.schedules:
            raise ValueError("grid must contain at least one schedule")
        seen = set()
        for s in self.schedules:
            if s.dilations in seen:
                raise ValueError(f"duplicate schedule {s.dilations}")
            seen.add(s.dilations)


def max_dilation(fit: ClassifiedFit) -> MaxDilation:
    """Target for the largest dilation: the peak period for periodic decay,
    else the lag where MI drops below the noise threshold for good; when the
    curve never crossed, the largest sampled lag is returned as a lower bound.
    """
    if fit.decay_class is DecayClass.POWER_LAW_PERIODIC:
        return MaxDilation(fit.periodicity.period, is_lower_bound=False)
    if fit.noise_crossing_d is not None:
        return MaxDilation(int(fit.noise_crossing_d), is_lower_bound=False)
    return MaxDilation(int(fit.max_lag), is_lower_bound=True)


def standard_dilations(n_layers: int) -> DilationSchedule:
    """The usual doubling progression 1, 2, 4, ..., 2^(n_layers-1)."""
    if n_layers < 1:
        raise ScheduleError("n_layers must be >= 1")
    if n_layers > MAX_STANDARD_LAYERS:
        raise ScheduleError(f"n_layers must be <= {MAX_STANDARD_LAYERS}, got {n_layers}")
    return DilationSchedule(
        dilations=tuple(2**i for i in range(n_layers)),
        origin=ORIGIN_STANDARD,
        rationale=f"standard doubling progression, {n_layers} layers",
    )


def capped_standard_dilations(n_layers: int, d_max: int) -> DilationSchedule:
    """Doubling progression whose last dilation is clamped to d_max.

    Powers of two >= d_max are dropped and d_max terminates the schedule, so
    the layer count may come out below n_layers.
    """
    if n_layers < 1:
        raise ScheduleError("n_layers must be >= 1")
    if d_max < 1:
        raise ScheduleError("d_max must be >= 1")
    # only powers up to d_max, which has bit_length() of them
    powers = [2**i for i in range(min(n_layers, int(d_max).bit_length()))]
    if len(powers) == n_layers:
        return standard_dilations(n_layers)
    kept = [p for p in powers if p < d_max]
    return DilationSchedule(
        dilations=tuple(kept + [d_max]),
        origin=ORIGIN_STANDARD,
        rationale=f"standard progression capped at max dilation {d_max}",
    )


def _solve(segments: list[tuple[float, float, float, float]], level: float) -> float:
    """Lag at which contiguous, decreasing (d_lo, d_hi, slope, log_intercept)
    power-law segments attain the given log-MI level: on the first segment
    whose bottom the level reaches, else the last, clamped to its lags.

    A level in the gap at a joint lies above the next segment's top, so it
    clamps to the joint. The clamp acts on the log-lag, which a near-zero
    slope sends past exp's range, and returns the bound, not exp(log(bound)).
    """
    d_lo, d_hi, slope, intercept = next(
        (s for s in segments if level >= s[3] + s[2] * math.log(s[1])), segments[-1]
    )
    x = (level - intercept) / slope
    return d_lo if x <= math.log(d_lo) else d_hi if x >= math.log(d_hi) else math.exp(x)


def _integerize(targets: list[float], d_max: int) -> list[int]:
    """Round nondecreasing targets to strictly increasing ints in [1, d_max].

    Duplicates after rounding are bumped to the next unused larger integer; a
    backward pass keeps everything at or below d_max (feasible because the
    layer count never exceeds d_max).
    """
    out = []
    prev = 0
    for t in targets:
        out.append(prev := max(int(round(t)), prev + 1))
    out[-1] = d_max
    for i in range(len(out) - 2, -1, -1):
        out[i] = min(out[i], out[i + 1] - 1)
    return out


def intercept_dilations(fit: ClassifiedFit, n_layers: int, d_max: int) -> DilationSchedule:
    """Curve-fitted schedule: n_layers log-MI levels from the fitted MI at
    lag 1 down to the fitted MI at d_max, each solved for its lag on the
    fitted (piecewise) power law.

    On a single power law the construction reduces to a geometric progression
    from 1 to d_max regardless of the slope value.
    """
    if n_layers < 2:
        raise ScheduleError("intercept schedules need n_layers >= 2")
    if n_layers > d_max:  # also refuses every d_max below 2
        raise ScheduleError(
            f"cannot fit {n_layers} strictly increasing dilations into [1, {d_max}]"
        )
    if fit.broken is not None:
        b = float(fit.broken.break_d)
        left, right = fit.broken.left, fit.broken.right
        if left.slope >= 0 or right.slope >= 0:
            raise ScheduleError("broken fit has a non-decaying segment")
        # a break beyond the target leaves only the left segment
        segments = [(1.0, min(b, float(d_max)), left.slope, left.log_intercept)]
        if d_max > b:
            segments.append((b, float(d_max), right.slope, right.log_intercept))
    elif fit.power is not None:
        if fit.power.slope >= 0:
            raise ScheduleError("power-law fit is non-decaying (slope >= 0)")
        segments = [(1.0, float(d_max), fit.power.slope, fit.power.log_intercept)]
    else:
        raise ScheduleError(f"{fit.decay_class.value} fit carries no power-law model to invert")
    d_lo, _, slope, intercept = segments[0]
    top = intercept + slope * math.log(d_lo)
    _, d_hi, slope, intercept = segments[-1]
    bottom = intercept + slope * math.log(d_hi)
    if not -math.inf < bottom < top:
        raise ScheduleError("fitted model does not decay between 1 and d_max")
    step = (bottom - top) / (n_layers - 1)
    targets = [_solve(segments, top + k * step) for k in range(n_layers)]
    dilations = _integerize(targets, d_max)
    return DilationSchedule(
        dilations=tuple(dilations),
        origin=ORIGIN_CURVE_FITTED,
        rationale=(
            f"{n_layers} log-MI levels solved on the fitted "
            f"{'broken ' if fit.broken else ''}power law, max dilation {d_max}"
        ),
    )


def _hybrid_dense_then_standard(break_d: int, d_max: int) -> DilationSchedule:
    dil = list(range(1, min(break_d, d_max) + 1))
    v = dil[-1] * 2
    while v < d_max:
        dil.append(v)
        v *= 2
    if dil[-1] < d_max:
        dil.append(d_max)
    return DilationSchedule(
        dilations=tuple(dil),
        origin=ORIGIN_CURVE_FITTED,
        rationale=f"unit steps up to the break at {break_d}, then doubling to {d_max}",
    )


def _hybrid_standard_then_sparse(break_d: int, d_max: int) -> DilationSchedule:
    head = [2**i for i in range(int(break_d).bit_length())]  # the powers up to the break
    h = head[-1]
    if d_max <= h:
        return DilationSchedule(
            dilations=capped_standard_dilations(len(head), d_max).dilations,
            origin=ORIGIN_CURVE_FITTED,
            rationale=f"standard head capped at {d_max}",
        )
    steps = max(1, math.ceil(math.log2(d_max / h) / 2))
    ratio = (d_max / h) ** (1.0 / steps)
    targets = [float(v) for v in head] + [h * ratio**j for j in range(1, steps + 1)]
    dil = _integerize(targets, d_max)
    return DilationSchedule(
        dilations=tuple(dil),
        origin=ORIGIN_CURVE_FITTED,
        rationale=(
            f"standard steps to the break at {break_d}, then sparse "
            f"geometric steps to {d_max}"
        ),
    )


def schedule_for(fit: ClassifiedFit, n_layers: int) -> DilationSchedule:
    """The one schedule for a fit and a layer count: the schedule command
    writes it, and build_grid offers it wherever it exists.

    Exponential decay gets the standard progression capped at the max
    dilation, a single layer gets [1], and every other fit the curve-fitted
    intercept schedule. A flat periodic curve has no decay to invert; its
    period then caps a standard progression instead.
    """
    d_max = max_dilation(fit).value
    if fit.decay_class is DecayClass.EXPONENTIAL:
        return capped_standard_dilations(n_layers, d_max)
    if n_layers == 1:
        return standard_dilations(1)
    try:
        return intercept_dilations(fit, n_layers, d_max)
    except ScheduleError:
        if fit.decay_class is not DecayClass.POWER_LAW_PERIODIC or n_layers > d_max:
            raise
        return capped_standard_dilations(n_layers, d_max)


def build_grid(fit: ClassifiedFit, layer_sweep) -> GridSearchSpec:
    """Candidate schedule family for a grid search over the layer counts in
    layer_sweep.

    A grid holds three parts, in order: the standard schedule of every layer
    count (non-exponential fits only), schedule_for's schedule of every layer
    count for which it exists, and the two hybrid patterns for broken fits,
    the unit-step one only up to MAX_UNIT_STEPS steps. Duplicates are
    dropped, keeping first occurrence.
    """
    layer_sweep = tuple(layer_sweep)
    if min(layer_sweep, default=0) < 1:
        raise ScheduleError("layer_sweep must be nonempty, every n_layers >= 1")
    schedules: list[DilationSchedule] = []
    if fit.decay_class is not DecayClass.EXPONENTIAL:
        schedules.extend(standard_dilations(n) for n in layer_sweep)
    for n in layer_sweep:
        try:
            schedules.append(schedule_for(fit, n))
        except ScheduleError:
            continue  # no schedule at this layer count: the standards remain
    if fit.broken is not None:
        b, d_max = fit.broken.break_d, max_dilation(fit).value
        if min(b, d_max) <= MAX_UNIT_STEPS:
            schedules.append(_hybrid_dense_then_standard(b, d_max))
        schedules.append(_hybrid_standard_then_sparse(b, d_max))
    unique: dict[tuple[int, ...], DilationSchedule] = {}
    for s in schedules:
        unique.setdefault(s.dilations, s)
    return GridSearchSpec(schedules=list(unique.values()), evidence=fit)


def fit_summary(fit: ClassifiedFit) -> dict:
    """The decay class and max dilation of a fit, as the top-level keys of
    the schedule and grid JSON."""
    md = max_dilation(fit)
    return {
        "decay_class": fit.decay_class.value,
        "max_dilation": md.value,
        "max_dilation_is_lower_bound": md.is_lower_bound,
    }


def grid_to_dict(spec: GridSearchSpec) -> dict:
    """The spec's fields plus its dataset_meta and the fit_summary of its evidence."""
    return {**to_dict(spec), "format_version": GRID_FORMAT_VERSION,
            "dataset_meta": spec.dataset_meta, **fit_summary(spec.evidence)}


def grid_from_dict(d: dict) -> GridSearchSpec:
    """A spec from its fields; dataset_meta and the fit_summary keys, derived
    from evidence, are ignored."""
    version = d.get("format_version") if isinstance(d, dict) else None
    if version != GRID_FORMAT_VERSION:
        raise ScheduleError(f"unsupported grid format_version {version!r}")
    return from_dict(GridSearchSpec, d)


def write_grid_json(spec: GridSearchSpec, path) -> None:
    write_json(grid_to_dict(spec), path)


def read_grid_json(path) -> GridSearchSpec:
    return read_json(path, grid_from_dict, ScheduleError)
