"""Plug-in mutual information between symbols at lag d, pooled over sequences.

MI is always reported in nats. Pairs never cross sequence boundaries, so for
multi-sequence corpora (e.g. image sets) the counts pool within-sequence
dependencies only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .jsonio import atomic_open

# above this many joint cells a dense K*K accumulator is wasteful; reduce with unique
DENSE_JOINT_LIMIT = 2**24

# pair codes formed per chunk of rows or, for rows longer than this, of
# columns (elements), bounding the int64 working set
_CHUNK = 1 << 22

BIAS_CORRECTIONS = ("none", "miller_madow")


class EstimationError(ValueError):
    pass


class EmptyLagError(EstimationError):
    """No symbol pairs exist at the requested lag."""


@dataclass(frozen=True)
class EstimatorConfig:
    bias_correction: str = "none"
    min_pair_count: int = 1000

    def __post_init__(self):
        if self.bias_correction not in BIAS_CORRECTIONS:
            raise ValueError(f"bias_correction must be one of {BIAS_CORRECTIONS}")
        if self.min_pair_count < 1:
            raise ValueError("min_pair_count must be >= 1")


@dataclass(frozen=True)
class LagGrid:
    lags: tuple[int, ...]

    def __post_init__(self):
        lags = tuple(int(d) for d in self.lags)
        if not lags:
            raise ValueError("lag grid must be nonempty")
        if lags[0] < 1:
            raise ValueError("lags must be >= 1")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError("lags must be strictly increasing")
        object.__setattr__(self, "lags", lags)


@dataclass(frozen=True)
class PairCounts:
    """Empirical joint counts of (symbol at t, symbol at t+lag).

    Cell i is the pair (xs[i], ys[i]) seen counts[i] times; cells are sorted
    by (x, y) and only nonzero cells are stored.
    """

    xs: np.ndarray
    ys: np.ndarray
    counts: np.ndarray
    total_pairs: int
    lag: int


@dataclass
class DecayCurve:
    """Sampled lag -> (MI nats, pair count) curve, lags strictly increasing."""

    lags: np.ndarray
    mi: np.ndarray
    pairs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lags", "mi", "pairs"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=np.float64))):
                raise ValueError(f"curve {name} must be finite")
        self.lags = np.asarray(self.lags, dtype=np.int64)
        self.mi = np.asarray(self.mi, dtype=np.float64)
        self.pairs = np.asarray(self.pairs, dtype=np.int64)
        if not (self.lags.shape == self.mi.shape == self.pairs.shape):
            raise ValueError("lags/mi/pairs must have equal shapes")
        if self.lags.size == 0:
            raise ValueError("curve must contain at least one point")
        if np.any(np.diff(self.lags) <= 0):
            raise ValueError("curve lags must be strictly increasing")
        if np.any(self.mi < 0):
            raise ValueError("curve MI values must be >= 0")

    def points(self) -> list[tuple[int, float, int]]:
        return [
            (int(d), float(m), int(c))
            for d, m, c in zip(self.lags, self.mi, self.pairs)
        ]

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1])


def default_lag_grid(max_lag: int, dense_limit: int = 64, per_decade: int = 32) -> LagGrid:
    """Dense integer lags up to dense_limit, then log-spaced lags to max_lag."""
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    lags = set(range(1, min(dense_limit, max_lag) + 1))
    if max_lag > dense_limit:
        span = math.log10(max_lag / dense_limit)
        steps = max(1, math.ceil(span * per_decade))
        tail = np.logspace(math.log10(dense_limit), math.log10(max_lag), steps + 1)
        lags.update(int(round(v)) for v in tail)
        lags.add(max_lag)
    return LagGrid(tuple(sorted(lags)))


def _length_groups(corpus: Corpus) -> list[np.ndarray]:
    """The sequences as one (n, L) matrix per distinct length L.

    A text is one 1 x N view, an image set one n x L stack, a ragged corpus
    several groups; pairs at lag d come from rows[:, :L-d] and rows[:, d:].
    """
    by_length: dict[int, list[np.ndarray]] = {}
    for s in corpus.sequences:
        by_length.setdefault(s.shape[0], []).append(s)
    return [g[0][None] if len(g) == 1 else np.stack(g) for g in by_length.values()]


def _lag_cells(groups: list[np.ndarray], k: int, d: int):
    """Joint cell arrays (xs, ys, counts) at lag d, sorted by (x, y).

    Pair codes x*K + y are formed in chunks of at most _CHUNK elements (whole
    rows, or column spans of a longer row) and reduced with bincount while
    K*K <= DENSE_JOINT_LIMIT, else with unique.
    Both yield cells in code order, which fixes the MI summation order.
    """
    dense = k * k <= DENSE_JOINT_LIMIT
    flat = np.zeros(k * k if dense else 0, dtype=np.int64)
    codes, counts = [], []
    for rows in groups:
        cols = rows.shape[1] - d
        if cols <= 0:
            continue
        step, width = max(1, _CHUNK // cols), min(cols, _CHUNK)
        for i, j in itertools.product(range(0, rows.shape[0], step), range(0, cols, width)):
            chunk = rows[i : i + step, j : j + width + d]
            code = chunk[:, : chunk.shape[1] - d].astype(np.int64)
            code *= k
            code += chunk[:, d:]
            if dense:
                flat += np.bincount(code.ravel(), minlength=k * k)
            else:
                u, c = np.unique(code, return_counts=True)
                codes.append(u)
                counts.append(c)
    if dense:
        code = np.flatnonzero(flat)
        cs = flat[code]
    elif len(codes) == 1:
        code, cs = codes[0], counts[0]
    else:  # merge the chunks' cells; flat is empty here and stands in for no chunks
        code, inverse = np.unique(np.concatenate([flat, *codes]), return_inverse=True)
        cs = np.bincount(inverse, weights=np.concatenate([flat, *counts])).astype(np.int64)
    return code // k, code % k, cs


def count_pairs(corpus: Corpus, d: int) -> PairCounts:
    """Count (sequence[t], sequence[t+d]) pairs over all sequences."""
    if d < 1:
        raise ValueError("lag d must be >= 1")
    xs, ys, cs = _lag_cells(_length_groups(corpus), corpus.alphabet_size, d)
    if cs.size == 0:
        raise EmptyLagError(f"no pairs at lag {d} (all sequences too short)")
    return PairCounts(xs=xs, ys=ys, counts=cs, total_pairs=int(cs.sum()), lag=d)


def _mi_and_floor(xs, ys, cs, total: int, bias_correction: str) -> tuple[float, float]:
    """Plug-in MI in nats plus the independence bias floor (Kx-1)(Ky-1)/(2N).

    With miller_madow, each of H_X, H_Y, H_XY receives the (support-1)/(2N)
    correction; the net effect on MI is (Kx + Ky - Kxy - 1)/(2N).
    """
    c = cs.astype(np.float64)
    n = float(total)
    bx = np.bincount(xs, weights=c)
    by = np.bincount(ys, weights=c)
    mi = float(np.sum(c * (np.log(c * n) - np.log(bx[xs] * by[ys])))) / n
    kx = int(np.count_nonzero(bx))
    ky = int(np.count_nonzero(by))
    kxy = int(cs.size)
    floor = (kx - 1) * (ky - 1) / (2.0 * n)
    if bias_correction == "miller_madow":
        mi += (kx + ky - kxy - 1) / (2.0 * n)
    return max(0.0, mi), floor


def mi_from_counts(counts: PairCounts, config: EstimatorConfig | None = None) -> float:
    """Mutual information (nats) of the empirical joint against its marginals."""
    config = config or EstimatorConfig()
    if counts.total_pairs < 1:
        raise EmptyLagError(f"no pairs at lag {counts.lag}")
    mi, _ = _mi_and_floor(
        counts.xs, counts.ys, counts.counts, counts.total_pairs, config.bias_correction
    )
    return mi


def decay_curve(corpus: Corpus, grid: LagGrid, config: EstimatorConfig | None = None) -> DecayCurve:
    """MI at every grid lag with at least config.min_pair_count pairs.

    Lags with fewer pairs are omitted and reported in meta["skipped_lags"];
    per-lag computations are independent, so evaluation order cannot change
    the result.
    """
    config = config or EstimatorConfig()
    groups = _length_groups(corpus)
    kept: list[tuple[int, float, int, float]] = []
    skipped: list[dict] = []
    for d in grid.lags:
        xs, ys, cs = _lag_cells(groups, corpus.alphabet_size, d)
        total = int(cs.sum())
        if total < config.min_pair_count:
            skipped.append({"lag": int(d), "pair_count": total})
            continue
        mi, floor = _mi_and_floor(xs, ys, cs, total, config.bias_correction)
        kept.append((int(d), mi, total, floor))
    if not kept:
        if skipped and all(s["pair_count"] == 0 for s in skipped):
            raise EmptyLagError("every requested lag has zero pairs")
        raise EstimationError(
            f"no lag reached min_pair_count={config.min_pair_count}"
        )
    lags, mi, pairs, floors = zip(*kept)
    meta = {
        "estimator": "plug-in",
        "units": "nats",
        "bias_correction": config.bias_correction,
        "min_pair_count": config.min_pair_count,
        "alphabet_size": corpus.alphabet_size,
        "mode": corpus.mode,
        "source_meta": corpus.source_meta,
        "n_sequences": len(corpus.sequences),
        "skipped_lags": skipped,
        "bias_floor_nats": [f for f in floors],
    }
    return DecayCurve(lags=np.array(lags), mi=np.array(mi), pairs=np.array(pairs), meta=meta)


def curve_to_csv(curve: DecayCurve, path) -> None:
    """Write `lag,mi_nats,pair_count` rows, MI at full float precision."""
    with atomic_open(path, encoding="utf-8", newline="") as f:
        f.write("lag,mi_nats,pair_count\n")
        for d, m, c in curve.points():
            f.write(f"{d},{m:.17g},{c}\n")


def curve_from_csv(path) -> DecayCurve:
    lags: list[int] = []
    mi: list[float] = []
    pairs: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "lag,mi_nats,pair_count":
            raise EstimationError(f"{path}: unexpected curve CSV header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise EstimationError(f"{path}:{lineno}: expected 3 columns")
            try:
                lags.append(int(parts[0]))
                mi.append(float(parts[1]))
                pairs.append(int(parts[2]))
            except ValueError as exc:
                raise EstimationError(f"{path}:{lineno}: {exc}") from exc
    if not lags:
        raise EstimationError(f"{path}: no curve points")
    try:
        return DecayCurve(lags=np.array(lags), mi=np.array(mi), pairs=np.array(pairs))
    except ValueError as exc:
        raise EstimationError(f"{path}: invalid curve: {exc}") from exc
