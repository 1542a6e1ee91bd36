"""Decay-law fitting and classification of MI decay curves.

Four classes are distinguished: a single power law, a broken power law (two
log-log segments joined at an inflection lag), a power law with periodic MI
peaks, and an exponential decay. All fits are ordinary least squares in log
space; points with MI == 0 are excluded and the exclusion count is reported
on the fit.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .estimator import DecayCurve
from .jsonio import from_dict, read_json, to_dict, write_json

DEFAULT_NOISE_THRESHOLD = 1e-5

# fixed classifier thresholds; only the noise threshold is set per call
PERIOD_PROMINENCE = 0.20
EXP_R2_MARGIN = 0.05
BREAK_IMPROVEMENT_MIN = 0.15
SSE_TIE_EPS = 1e-12
_ROUNDOFF = 2.0**-53  # float64 unit roundoff, for the break screen's error bound
_ONSET_REL_DROP = 0.2  # smoothed MI within 20% of its peak has not begun to decay


class FitError(ValueError):
    pass


class DecayClass(str, Enum):
    POWER_LAW = "PowerLaw"
    BROKEN_POWER_LAW = "BrokenPowerLaw"
    POWER_LAW_PERIODIC = "PowerLawPeriodic"
    EXPONENTIAL = "Exponential"


@dataclass(frozen=True)
class PowerLawFit:
    """ln MI = log_intercept + slope * ln d over d_range."""

    slope: float
    log_intercept: float
    r2: float
    d_range: tuple[int, int]
    n_points: int
    n_excluded: int = 0

    def log_mi_at(self, d: float) -> float:
        return self.log_intercept + self.slope * math.log(d)


@dataclass(frozen=True)
class ExponentialFit:
    """ln MI = log_intercept - rate * d over d_range.

    decaying is False when the fitted rate is not positive; such fits must not
    be used as evidence of exponential decay.
    """

    rate: float
    log_intercept: float
    r2: float
    d_range: tuple[int, int]
    n_points: int
    n_excluded: int = 0
    decaying: bool = True


@dataclass(frozen=True)
class BrokenPowerLawFit:
    """Two power-law segments joined at break_d; improvement is the relative
    SSE reduction against the best single power law on the same points."""

    break_d: int
    left: PowerLawFit
    right: PowerLawFit
    improvement: float


@dataclass(frozen=True)
class PeriodicitySignature:
    period: int
    peak_lags: tuple[int, ...]
    prominence: float

    def __post_init__(self):
        peaks = tuple(int(d) for d in self.peak_lags)
        if int(self.period) != self.period or peaks != tuple(self.peak_lags):
            raise ValueError("period and peak lags must be whole numbers")
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "peak_lags", peaks)
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if any(b <= a for a, b in zip(peaks, peaks[1:])):
            raise ValueError("peak lags must be strictly increasing")


@dataclass(frozen=True)
class ClassifiedFit:
    decay_class: DecayClass
    max_lag: int
    threshold: float = DEFAULT_NOISE_THRESHOLD
    power: PowerLawFit | None = None
    broken: BrokenPowerLawFit | None = None
    expo: ExponentialFit | None = None
    periodicity: PeriodicitySignature | None = None
    noise_crossing_d: int | None = None
    crossing_low_confidence: bool = False
    curve_meta: dict | None = None

    def __post_init__(self):
        needed = {
            DecayClass.POWER_LAW: ("power",),
            DecayClass.BROKEN_POWER_LAW: ("broken",),
            DecayClass.POWER_LAW_PERIODIC: ("power", "periodicity"),
            DecayClass.EXPONENTIAL: ("expo",),
        }[self.decay_class]
        for name in ("power", "broken", "expo", "periodicity"):
            have = getattr(self, name) is not None
            if name in needed and not have:
                raise ValueError(f"{self.decay_class.value} fit requires {name}")
            if name not in needed and have:
                raise ValueError(f"{self.decay_class.value} fit must not carry {name}")
        # the crossing, the break and the period are sampled lags of the curve
        lags = (self.noise_crossing_d, self.broken and self.broken.break_d,
                self.periodicity and self.periodicity.period)
        if not 1 <= self.max_lag < 2**63 or any(
            d is not None and not 1 <= d <= self.max_lag for d in lags
        ):
            raise ValueError("fit lags must lie in [1, max_lag], max_lag below 2**63")


def _usable(curve: DecayCurve, d_range: tuple[int, int] | None):
    """Lags and MI of points with MI > 0 inside d_range; also #excluded."""
    lo, hi = d_range if d_range is not None else (int(curve.lags[0]), int(curve.lags[-1]))
    if lo < 1 or hi <= lo:
        raise FitError(f"invalid fit range ({lo}, {hi})")
    in_range = (curve.lags >= lo) & (curve.lags <= hi)
    keep = in_range & (curve.mi > 0)
    n_excluded = int(in_range.sum() - keep.sum())
    return curve.lags[keep].astype(np.float64), curve.mi[keep], n_excluded


def _ols(x: np.ndarray, y: np.ndarray):
    """Least squares y = intercept + slope*x; returns (slope, intercept, r2, sse)."""
    mx = x.mean()
    my = y.mean()
    sxx = float(((x - mx) ** 2).sum())
    if sxx == 0.0:
        raise FitError("degenerate fit: all x values identical")
    slope = float(((x - mx) * (y - my)).sum()) / sxx
    intercept = my - slope * mx
    resid = y - (intercept + slope * x)
    sse = float((resid**2).sum())
    syy = float(((y - my) ** 2).sum())
    r2 = 1.0 if syy <= 0.0 else max(0.0, min(1.0, 1.0 - sse / syy))
    return slope, float(intercept), r2, sse


def _line_fit(curve: DecayCurve, d_range, log_x: bool, name: str):
    """OLS of ln MI on ln d (log_x) or d over in-range points with MI > 0:
    (slope, intercept, r2, fitted d range, n_points, n_excluded)."""
    d, mi, n_excluded = _usable(curve, d_range)
    if d.size < 3:
        raise FitError(f"{name} fit needs >= 3 usable points, got {d.size}")
    slope, intercept, r2, _ = _ols(np.log(d) if log_x else d, np.log(mi))
    return slope, intercept, r2, (int(d[0]), int(d[-1])), int(d.size), n_excluded


def fit_power_law(curve: DecayCurve, d_range: tuple[int, int] | None = None) -> PowerLawFit:
    """OLS of ln MI on ln d over in-range points with MI > 0."""
    return PowerLawFit(*_line_fit(curve, d_range, True, "power-law"))


def fit_exponential(curve: DecayCurve, d_range: tuple[int, int] | None = None) -> ExponentialFit:
    """OLS of ln MI on d; rate is the negated slope, flagged when not decaying."""
    slope, *rest = _line_fit(curve, d_range, False, "exponential")
    return ExponentialFit(-slope, *rest, decaying=-slope > 0.0)


def _prefix_sse(x: np.ndarray, y: np.ndarray, scale: tuple[float, float, float]):
    """Line-fit SSE of every prefix x[:m], y[:m] of screen data, from running
    sums, and a bound on its distance from the SSE that _ols returns for the
    same points of the curve (inf where the sums cannot bound it).

    The screen data are ln d centred and the residuals of ln MI from one line
    (see _break_screen); scale holds bounds of |ln d|, of |ln MI| and of the
    rounding of those residuals per point in units of roundoff. The bound
    sums first-order float64 error terms, doubled to cover the higher-order
    ones. With g = (m + 8) * unit roundoff, a running sum of m rounded terms
    is within g times the sum of their absolute values, so the moments cxx,
    cxy, cyy lie within 8g times sum x^2, sqrt(sum x^2 * sum y^2), sum y^2 of
    their exact values, and cxy^2 / cxx within the interval those give. _ols's SSE
    and the SSE of the rounded residuals lie within (1 + g)(2 sqrt(t) D +
    D^2) + g t of the exact t, where D bounds the norm of the residuals'
    rounding and of their change by _ols's rounded slope and intercept.
    """
    xmax, ymax, rounding = scale
    m = np.arange(1, x.size + 1, dtype=np.float64)
    g = (m + 8) * _ROUNDOFF
    sx, sy = np.cumsum(x), np.cumsum(y)
    qxx, qyy = np.cumsum(x * x), np.cumsum(y * y)
    cxy = np.cumsum(x * y) - sx * sy / m
    cxx = qxx - sx * sx / m
    cyy = qyy - sy * sy / m
    exx, eyy, exy = 8 * g * qxx, 8 * g * qyy, 8 * g * np.sqrt(qxx * qyy)
    del sx, sy, qxx, qyy
    with np.errstate(divide="ignore", invalid="ignore"):
        low = cxx - exx  # not positive for fewer than 3 points, or points too close
        p = cxy * cxy / cxx
        cxy = np.abs(cxy)
        p_hi = (cxy + exy) ** 2 / low
        err = eyy + np.maximum(p_hi - p, p - np.maximum(cxy - exy, 0) ** 2 / (cxx + exx))
        err += 4 * _ROUNDOFF * (cyy + p_hi)
        sse = cyy - p
        t = np.maximum(sse + err, 0)
        slope = (cxy + exy) / low  # bounds the segment's |slope| in ln MI
        line = ymax + slope * xmax
        d_slope = 4 * g * np.sqrt((cyy + eyy) / low) + m * g * g * xmax * line / low
        dev = np.sqrt(m) * (3 * g * line + _ROUNDOFF * rounding + 2 * d_slope * xmax)
        err += (1 + g) * (2 * np.sqrt(t) * dev + dev * dev) + g * t
    err *= 2
    bad = ~(low > 0)
    err[bad], sse[bad] = np.inf, 0.0
    return sse, err


def _break_screen(x: np.ndarray, y: np.ndarray, slope: float, intercept: float):
    """Screened left-plus-right SSE of every break index 2 .. x.size - 3, and
    a bound on its distance from the sum of the two SSEs _ols returns.

    Centring x and taking y's residuals from the line y = intercept + slope*x
    (any line) leave every segment's SSE as it is, and keep the running sums
    of the screen small, so their rounding is too.
    """
    xc = x - x.mean()
    yr = y - (intercept + slope * x)
    xmax, ymax = float(np.abs(x).max()), float(np.abs(y).max())
    # each residual rounds by at most 3 roundoffs of |y| + |intercept| + |slope x|
    scale = xmax, ymax, 3 * (ymax + abs(intercept) + abs(slope) * xmax)
    left, left_err = _prefix_sse(xc, yr, scale)
    right, right_err = _prefix_sse(xc[::-1], yr[::-1], scale)
    # break index i leaves i + 1 points on the left and x.size - i on the right
    inner = slice(2, x.size - 2)
    return left[inner] + right[inner][::-1], left_err[inner] + right_err[inner][::-1]


def fit_broken_power_law(
    curve: DecayCurve, d_range: tuple[int, int] | None = None
) -> BrokenPowerLawFit:
    """Single-break search minimizing summed log-log SSE.

    Every usable lag with >= 3 usable points on each side (the break lag is
    shared by both segments) is a candidate; ties within SSE_TIE_EPS resolve
    to the smallest break lag. The SSE of every candidate is screened at
    once from running sums; the candidates that can lie within SSE_TIE_EPS
    of the least, by the screen's error bound, are refit with _ols, and the
    rule is applied to those exact fits, so the result is that of refitting
    every candidate.
    """
    d, mi, n_excluded = _usable(curve, d_range)
    if d.size < 7:
        raise FitError(f"broken power-law fit needs >= 7 usable points, got {d.size}")
    x = np.log(d)
    y = np.log(mi)
    slope, intercept, _, sse_single = _ols(x, y)
    screen, err = _break_screen(x, y, slope, intercept)
    near = np.flatnonzero(screen - err <= np.min(screen + err) + SSE_TIE_EPS) + 2
    # break index i leaves i + 1 points on the left and d.size - i on the right
    fits = {int(i): (_ols(x[: i + 1], y[: i + 1]), _ols(x[i:], y[i:])) for i in near}
    sse = {i: fl[3] + fr[3] for i, (fl, fr) in fits.items()}
    best_sse = min(sse.values())
    i = next(i for i, s in sse.items() if s <= best_sse + SSE_TIE_EPS)
    break_d, sse_broken = int(d[i]), sse[i]
    # an (almost) exact single line cannot be materially improved; avoid
    # manufacturing improvement out of float residue
    if sse_single <= 1e-20:
        improvement = 0.0
    else:
        improvement = max(0.0, 1.0 - sse_broken / sse_single)

    (ls, li, lr2, _), (rs, ri, rr2, _) = fits[i]
    left = PowerLawFit(ls, li, lr2, (int(d[0]), break_d), i + 1, n_excluded)
    right = PowerLawFit(rs, ri, rr2, (break_d, int(d[-1])), int(d.size) - i, 0)
    return BrokenPowerLawFit(break_d=break_d, left=left, right=right, improvement=improvement)


def _dense_prefix(curve: DecayCurve) -> int:
    """Number of leading curve points at consecutive integer lags 1, 2, 3, ..."""
    off = np.flatnonzero(curve.lags != np.arange(1, curve.lags.size + 1))
    return int(off[0]) if off.size else int(curve.lags.size)


def detect_periodicity(curve: DecayCurve) -> PeriodicitySignature | None:
    """Find regularly spaced MI peaks on the dense integer-lag prefix.

    Peaks are sought on the residual of ln MI from the power law fitted over
    the prefix: a peak exceeds both neighbors by at least
    ln(1 + PERIOD_PROMINENCE), and MI 0 (ln MI = -inf) is never one. Two
    adjacent lags cannot each exceed the other, so peaks are at least 2
    apart. Returns None unless >= 2 peaks exist with spacing constant within
    +/-1.
    """
    n = _dense_prefix(curve)
    if n < 8:
        return None
    try:
        base = fit_power_law(curve, (1, n))
    except FitError:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 = -inf; -inf - -inf is NaN
        resid = np.log(curve.mi[:n]) - [base.log_mi_at(d) for d in range(1, n + 1)]
        rise = resid[1:-1] - np.maximum(resid[:-2], resid[2:])  # rise[i] is lag i + 2
    peaks = (np.flatnonzero(rise >= math.log1p(PERIOD_PROMINENCE)) + 2).tolist()
    if len(peaks) < 2:
        return None
    diffs = np.diff(peaks)
    period = int(np.bincount(diffs).argmax())
    if np.any(np.abs(diffs - period) > 1):
        return None
    return PeriodicitySignature(period, tuple(peaks), PERIOD_PROMINENCE)


def noise_crossing(curve: DecayCurve, threshold: float = DEFAULT_NOISE_THRESHOLD) -> int | None:
    """Smallest sampled lag from which MI stays below threshold to the end."""
    i = curve.lags.size
    while i > 0 and curve.mi[i - 1] < threshold:
        i -= 1
    if i == curve.lags.size:
        return None
    return int(curve.lags[i])


def crossing_low_confidence(
    curve: DecayCurve, threshold: float = DEFAULT_NOISE_THRESHOLD
) -> bool:
    """True when the plug-in bias floor swamps the threshold where it matters.

    The floor (Kx-1)(Ky-1)/(2N) is taken from curve meta when the curve was
    produced by this package's estimator; curves loaded bare report False.
    """
    floors = curve.meta.get("bias_floor_nats") if curve.meta else None
    if not floors or len(floors) != curve.lags.size:
        return False
    d = noise_crossing(curve, threshold)
    tail = curve.lags >= (curve.lags[-1] if d is None else d)  # no crossing: the last lag
    return bool(np.any(np.asarray(floors)[tail] > threshold))


def _moving_median(values: np.ndarray) -> np.ndarray:
    """Median of each window values[i-2 : i+3], clipped to the array: the
    same floats as np.median, which imports numpy.ma on first use.

    Each window, padded with NaN to 5 values, is sorted (NaN sorts last) and
    yields (a + b) / 2 of its two middle values, which are one value when
    its size is odd.
    """
    n = values.size
    padded = np.concatenate([[np.nan] * 2, values, [np.nan] * 2])
    windows = np.sort(np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1)
    i = np.arange(n)
    size = np.minimum(i + 3, n) - np.maximum(i - 2, 0)
    return (windows[i, (size - 1) // 2] + windows[i, size // 2]) / 2


def detect_decay_onset(curve: DecayCurve) -> int:
    """Last lag at which the 5-point moving median of MI is still within 20%
    of its peak; beyond it the smoothed curve only decays.

    Restores fit applicability for curves that are flat before decaying; for
    curves decaying from the start this is the first lag (give or take noise).
    """
    m = _moving_median(curve.mi)
    peak = float(m.max())
    if peak <= 0.0:
        return int(curve.lags[0])
    keep = np.nonzero(m >= (1.0 - _ONSET_REL_DROP) * peak)[0]
    return int(curve.lags[keep[-1]])


def classify(curve: DecayCurve, threshold: float = DEFAULT_NOISE_THRESHOLD) -> ClassifiedFit:
    """Assign a decay class to a curve.

    Decision order: periodic peaks first; then exponential when its r2 beats
    the single power law by EXP_R2_MARGIN over the decaying range; then a
    broken power law when the break reduces SSE by BREAK_IMPROVEMENT_MIN with
    both segments decaying and the curve flattening past the break; otherwise
    a single power law. A significant break that steepens instead of
    flattening is log-log convexity, i.e. evidence of exponential-type decay,
    and routes to Exponential when the exponential fit is at least as good as
    the power law.
    """
    usable_lags = curve.lags[curve.mi > 0]
    if usable_lags.size < 7:
        raise FitError(f"classification needs >= 7 usable points, got {usable_lags.size}")
    common = {
        "max_lag": curve.max_lag,
        "threshold": threshold,
        "noise_crossing_d": noise_crossing(curve, threshold),
        "crossing_low_confidence": crossing_low_confidence(curve, threshold),
        "curve_meta": dict(curve.meta) if curve.meta else None,
    }

    sig = detect_periodicity(curve)
    if sig is not None:
        power = fit_power_law(curve)
        return ClassifiedFit(
            DecayClass.POWER_LAW_PERIODIC, power=power, periodicity=sig, **common
        )

    d_hi = int(usable_lags[-1])
    onset = detect_decay_onset(curve)
    if int(np.count_nonzero(usable_lags >= onset)) < 7:
        onset = int(usable_lags[0])
    d_range = (onset, d_hi)

    power = fit_power_law(curve, d_range)
    expo = fit_exponential(curve, d_range)
    if expo.decaying and expo.r2 - power.r2 >= EXP_R2_MARGIN:
        return ClassifiedFit(DecayClass.EXPONENTIAL, expo=expo, **common)

    try:
        broken = fit_broken_power_law(curve, d_range)
    except FitError:
        broken = None
    if (
        broken is not None
        and broken.improvement >= BREAK_IMPROVEMENT_MIN
        and broken.left.slope < 0
        and broken.right.slope < 0
    ):
        if abs(broken.left.slope) > abs(broken.right.slope):
            return ClassifiedFit(DecayClass.BROKEN_POWER_LAW, broken=broken, **common)
        if expo.decaying and expo.r2 >= power.r2:
            return ClassifiedFit(DecayClass.EXPONENTIAL, expo=expo, **common)

    return ClassifiedFit(DecayClass.POWER_LAW, power=power, **common)


def write_fit_json(fit: ClassifiedFit, path) -> None:
    write_json(to_dict(fit), path)


def read_fit_json(path) -> ClassifiedFit:
    return read_json(path, functools.partial(from_dict, ClassifiedFit), FitError)
