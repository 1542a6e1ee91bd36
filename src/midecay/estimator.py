"""Plug-in mutual information between symbols at lag d, pooled over sequences.

MI is always reported in nats. Pairs never cross sequence boundaries, so for
multi-sequence corpora (e.g. image sets) the counts pool within-sequence
dependencies only.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .jsonio import atomic_open

# above this many joint cells reduce with unique instead of a dense K'*K' table
# (K' counts the symbols that occur):
# on 1M uniform pairs per lag bincount took 30 ms at K=1024 against unique's
# 88 ms, but 114 ms against 86 ms at K=2048; the limit also caps each worker's
# dense state (table plus bincount's output) at 16 MB
DENSE_JOINT_LIMIT = 2**20

# pair codes formed per chunk of rows or, for rows longer than this, of
# columns (elements). For bincount a code buffer of at most 1 MB per worker
# (uint32 codes; 512 KB of uint16 up to K' = 256), which stays in cache;
# unique sorts its chunk anyway and then merges the chunks' cells, which made
# a sparse lag of a 1M-token text 2.5x slower at the small size
_CHUNK = 1 << 18
_SPARSE_CHUNK = 1 << 22

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
        for name, low in (("lags", 1), ("pairs", 0)):  # checked before the int64 cast wraps
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if np.any((values < low) | (values >= 2.0**63)):
                raise ValueError(f"curve {name} must lie in [{low}, 2**63)")
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


def default_lag_grid(max_lag: int) -> LagGrid:
    """Unit lags up to 64, then 32 log-spaced lags per decade to max_lag."""
    dense_limit, per_decade = 64, 32
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


def _chunks(rows: np.ndarray, d: int, size: int):
    """Blocks of rows that hold at most size pairs at lag d (at d = 0, symbols).

    A block is whole rows, or a column span of one row longer than size, and
    carries the d columns beyond its last pair.
    """
    cols = rows.shape[1] - d
    step, width = max(1, size // cols), min(cols, size)
    for i, j in itertools.product(range(0, rows.shape[0], step), range(0, cols, width)):
        yield rows[i : i + step, j : j + width + d]


def _ranked_groups(corpus: Corpus) -> tuple[list[np.ndarray], np.ndarray]:
    """The sequences as one (n, L) matrix of symbol ranks per distinct length L,
    and the ascending ids of the symbols that occur: rank r is symbols[r].

    A text is one 1 x N view, an image set one n x L stack, a ragged corpus
    several groups; pairs at lag d come from rows[:, :L-d] and rows[:, d:].
    Ranks are stored in the narrowest dtype that holds them. When every symbol
    of the alphabet occurs in that dtype already, the groups are the ids
    themselves; else each group is relabelled chunk by chunk, a stack in place
    when its dtype is the ranks', so no second copy of the corpus is kept.
    """
    by_length: dict[int, list[np.ndarray]] = {}
    for s in corpus.sequences:
        by_length.setdefault(s.shape[0], []).append(s)
    groups = [g[0][None] if len(g) == 1 else np.stack(g) for g in by_length.values()]
    # marked through the index itself: bincount's intp copy of a chunk would
    # stay in the process's resident set after it is freed
    seen = np.zeros(corpus.alphabet_size, dtype=bool)
    for rows in groups:
        for chunk in _chunks(rows, 0, _CHUNK):
            seen[chunk] = True
    symbols = np.flatnonzero(seen)
    dtype = np.min_scalar_type(symbols.size - 1)
    if symbols.size == corpus.alphabet_size and all(rows.dtype == dtype for rows in groups):
        return groups, symbols
    lut = np.zeros(symbols[-1] + 1, dtype=dtype)
    lut[symbols] = np.arange(symbols.size)
    for n, rows in enumerate(groups):
        own = rows.flags.owndata and rows.dtype == dtype
        ranks = rows if own else np.empty(rows.shape, dtype=dtype)
        for chunk, out in zip(_chunks(rows, 0, _CHUNK), _chunks(ranks, 0, _CHUNK)):
            out[...] = lut[chunk]
        groups[n] = ranks
    return groups, symbols


def _lag_cells(groups: list[np.ndarray], k: int, d: int):
    """Joint cell arrays (xs, ys, counts) at lag d, sorted by (x, y).

    Groups hold ranks below k. Pair codes x*k + y are formed in one reused
    buffer of the narrowest dtype that holds k*k - 1 (uint16 up to k = 256,
    uint32 up to 65,536, then int64), in chunks of at most _CHUNK elements (whole rows, or
    column spans of a longer row), and reduced with bincount while
    k*k <= DENSE_JOINT_LIMIT, else with unique over chunks of _SPARSE_CHUNK.
    Both yield cells in code order, which fixes the MI summation order.
    """
    dense = k * k <= DENSE_JOINT_LIMIT
    size = _CHUNK if dense else _SPARSE_CHUNK
    # not uint64: merged with int64 it would turn to float64, and older
    # NumPy's bincount rejects it
    dtype = np.min_scalar_type(k * k - 1) if k <= 1 << 16 else np.int64
    flat = np.zeros(k * k if dense else 0, dtype=np.int64)
    codes, counts = [], []
    for rows in groups:
        cols = rows.shape[1] - d
        if cols <= 0:
            continue
        buf = np.empty(min(size, rows.shape[0] * cols), dtype=dtype)
        for chunk in _chunks(rows, d, size):
            x, y = chunk[:, : chunk.shape[1] - d], chunk[:, d:]
            code = buf[: x.size].reshape(x.shape)
            # the dtype keeps x*k from wrapping in the ranks' own, narrower dtype
            np.multiply(x, k, out=code, dtype=dtype)
            code += y
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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def _lag_point(groups: list[np.ndarray], k: int, config: EstimatorConfig, d: int):
    """(d, pairs, MI nats, bias floor) at lag d; MI and floor are None below
    config.min_pair_count pairs.

    The floor is the independence bias (Kx-1)(Ky-1)/(2N). With miller_madow,
    each of H_X, H_Y, H_XY receives the (support-1)/(2N) correction; the net
    effect on MI is (Kx + Ky - Kxy - 1)/(2N).
    """
    xs, ys, cs = _lag_cells(groups, k, d)
    total, kxy = int(cs.sum()), int(cs.size)
    if total < config.min_pair_count:
        return d, total, None, None
    n = float(total)
    c = cs.astype(np.float64)
    # free each cell array once used: held to the return, they left glibc to
    # trim and refault the heap top on every lag
    del cs
    bx = np.bincount(xs, weights=c)
    by = np.bincount(ys, weights=c)
    q = bx[xs]
    del xs
    q *= by[ys]
    del ys
    mi = float(np.sum(c * (np.log(c * n) - np.log(q)))) / n
    kx = int(np.count_nonzero(bx))
    ky = int(np.count_nonzero(by))
    floor = (kx - 1) * (ky - 1) / (2.0 * n)
    if config.bias_correction == "miller_madow":
        mi += (kx + ky - kxy - 1) / (2.0 * n)
    return d, total, max(0.0, mi), floor


def decay_curve(corpus: Corpus, grid: LagGrid, config: EstimatorConfig | None = None) -> DecayCurve:
    """MI at every grid lag with at least config.min_pair_count pairs.

    Lags with fewer pairs are omitted and reported in meta["skipped_lags"];
    per-lag computations are independent, so evaluation order cannot change
    the result, and the lags of a large corpus run on several threads.
    """
    config = config or EstimatorConfig()
    groups, symbols = _ranked_groups(corpus)
    point = functools.partial(_lag_point, groups, symbols.size, config)
    workers = min(_cpu_count(), -(-corpus.n_symbols // _CHUNK))
    if workers < 2:
        points = list(map(point, grid.lags))
    else:
        from concurrent.futures import ThreadPoolExecutor

        # map cancels the pending lags when one raises
        with ThreadPoolExecutor(workers) as pool:
            points = list(pool.map(point, grid.lags))
    kept = [p for p in points if p[2] is not None]
    skipped = [{"lag": d, "pair_count": total} for d, total, mi, _ in points if mi is None]
    if not kept:
        if skipped and all(s["pair_count"] == 0 for s in skipped):
            raise EmptyLagError("every requested lag has zero pairs")
        raise EstimationError(
            f"no lag reached min_pair_count={config.min_pair_count}"
        )
    lags, pairs, mi, floors = zip(*kept)
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
        "bias_floor_nats": list(floors),
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
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise EstimationError(f"{path} is not valid UTF-8: {exc}") from exc
    header = lines[0].strip()
    if header != "lag,mi_nats,pair_count":
        raise EstimationError(f"{path}: unexpected curve CSV header {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
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
    except (ValueError, OverflowError) as exc:  # overflow: an integer beyond int64
        raise EstimationError(f"{path}: invalid curve: {exc}") from exc
