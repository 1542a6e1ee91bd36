"""Plug-in mutual information between symbols at lag d, pooled over sequences.

MI is always reported in nats. Pairs never cross sequence boundaries, so for
multi-sequence corpora (e.g. image sets) the counts pool within-sequence
dependencies only.
"""

import contextlib
import functools
import itertools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, _byte_values
from .jsonio import atomic_open, from_dict, read_json, to_dict, write_json

# above this many joint cells reduce with unique instead of a dense K'*K' table
# (K' counts the symbols that occur):
# on 1M uniform pairs per lag bincount took 30 ms at K=1024 against unique's
# 88 ms, but 114 ms against 86 ms at K=2048; the limit also caps each worker's
# dense state (table plus bincount's output) at 16 MB, which only a one-lag
# batch reaches
DENSE_JOINT_LIMIT = 2**20

# cells of the table one bincount pass counts into, fixed by the uint16
# codes: a batch of m lags codes (m+1)-tuples of ranks, so m is the largest
# with K'^(m+1) cells here, and the table (512 KB of int64) stays in L2.
# decay_curve time over that of one pass per lag, 1M-symbol text, 103 lags,
# 2 threads on a 2-core Xeon, median (range) of 3 runs: K' 2 (m 15) 0.29
# (0.28-0.35), 4 (7) 0.34 (0.33-0.40), 16 (3) 0.58 (0.54-0.72), 27 (2) 0.60
# (0.60-0.75), 32 (2) 0.63 (0.58-0.75), 60 (1, one lag per pass) 1.03
# (0.89-1.26); the 1,500-image bench set (K' 32) on 1 thread 0.59
_BATCH_CELLS = np.iinfo(np.uint16).max + 1

# symbols per chunk of the rank scan, and the most codes of a dense buffer:
# chunks of whole rows, or column spans of longer rows, fill one buffer per
# worker with the codes of one bincount call, _CHUNK / 4 to _CHUNK of them
# (_tuple_counts), which stays in cache
_CHUNK = 1 << 18

# a pair costs about 35 ns on the unique path against 2.5 ns on the dense one,
# so the workers take 16 times fewer symbols each there
_SPARSE_COST = 16

# a gathered position costs about _GATHER_COST symbols of a one-lag dense pass
# and m batched lags about sqrt(m) one-lag passes: 1,500 random 784-symbol rows
# on one thread broke even at 13% non-mode symbols for K' 2 (m 15), 20% for 4
# (7), 35-38% for 16 and 32 (3, 2), over 40% for 64 and 256 (1). A gathered
# pass counts _GATHER_LAGS lags per block: 20k bench images, 1.05 s at 2, 0.9 at 8
_GATHER_COST = 2.5
_GATHER_LAGS = 8
_GATHER_SAMPLE = 97  # the stride of the sample that finds the mode

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
        if any(d != v for d, v in zip(self.lags, lags)):
            raise ValueError("lags must be whole numbers")
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
            if np.any(values != np.trunc(values)):
                raise ValueError(f"curve {name} must be whole numbers")
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
    """The indices (row slice, column slice) of blocks of rows that hold at
    most size pairs at lag d (at d = 0, symbols).

    A block is whole rows, or a column span of one row longer than size, and
    carries the d columns beyond its last pair.
    """
    cols = rows.shape[1] - d
    step, width = max(1, size // cols), min(cols, size)
    for i, j in itertools.product(range(0, rows.shape[0], step), range(0, cols, width)):
        yield slice(i, i + step), slice(j, j + width + d)


def _ranked_groups(corpus: Corpus) -> tuple[list[np.ndarray], np.ndarray]:
    """The corpus's (n, L) groups as symbol ranks, and the ascending ids of
    the symbols that occur: rank r is symbols[r]. Pairs at lag d come from
    rows[:, :L-d] and rows[:, d:]. When every symbol occurs the ranks are the
    ids, the corpus's own groups; else each group is relabelled chunk by
    chunk into a new array in the narrowest dtype that holds the ranks.
    uint8 groups are scanned, until every symbol is seen, and relabelled
    through a 256-entry byte table.
    """
    groups = list(corpus.sequences)
    chunks = (rows[ix] for rows in groups for ix in _chunks(rows, 0, _CHUNK))
    byte = groups[0].dtype == np.uint8  # the corpus stores every group in one dtype
    seen = np.zeros(corpus.alphabet_size, dtype=bool)
    if byte:
        found = _byte_values((chunk.tobytes() for chunk in chunks), corpus.alphabet_size)
        seen[np.frombuffer(found, dtype=np.uint8)] = True
    else:
        # marked through the index itself: bincount's intp copy of a chunk
        # would stay in the process's resident set after it is freed
        for chunk in chunks:
            seen[chunk] = True
    symbols = np.flatnonzero(seen)
    if symbols.size == corpus.alphabet_size:
        return groups, symbols
    lut = np.zeros(256 if byte else symbols[-1] + 1, dtype=np.min_scalar_type(symbols.size - 1))
    lut[symbols] = np.arange(symbols.size)
    for n, rows in enumerate(groups):
        out = groups[n] = np.empty(rows.shape, dtype=lut.dtype)
        for ix in _chunks(rows, 0, _CHUNK):
            chunk = rows[ix]
            if byte:
                out[ix] = np.frombuffer(chunk.tobytes().translate(lut),
                                        dtype=np.uint8).reshape(chunk.shape)
            else:
                out[ix] = lut[chunk]
    return groups, symbols


def _codes(groups: list[np.ndarray], k: int, lags: tuple[int, ...], size: int, dtype):
    """Base-k codes of the tuples (x_t, x_{t+d_1}, ..., x_{t+d_m}) that lie
    within a row, in blocks of at most size codes.

    Chunks of whole rows, or column spans of a longer row, fill one reused
    buffer of the given dtype, so each block is overwritten by the next.
    """
    last = lags[-1]
    buf = np.empty(min(size, sum(r.shape[0] * max(0, r.shape[1] - last) for r in groups)), dtype)
    used = 0
    for rows in groups:
        if rows.shape[1] <= last:
            continue
        for ix in _chunks(rows, last, size):
            chunk = rows[ix]
            width = chunk.shape[1] - last
            if used + chunk.shape[0] * width > buf.size:
                yield buf[:used]
                used = 0
            code = buf[used : used + chunk.shape[0] * width].reshape(chunk.shape[0], width)
            # the dtype keeps x*k from wrapping in the ranks' own, narrower dtype
            np.multiply(chunk[:, :width], k, out=code, dtype=dtype)
            code += chunk[:, lags[0] : lags[0] + width]
            for d in lags[1:]:
                code *= k
                code += chunk[:, d : d + width]
            used += code.size
    if used:
        yield buf[:used]


def _tuple_counts(groups: list[np.ndarray], k: int, lags: tuple[int, ...]) -> np.ndarray:
    """Counts of the tuples of lags d_1 < ... < d_m, as a flat int64 table
    indexed by their code, one bincount call per block of step codes of the
    narrowest dtype that holds k^(m+1) - 1.

    bincount copies its input to intp and returns a table-sized array, so a
    block holds 8 codes per cell, from _CHUNK / 4 (a 512 KB copy, not 2 MB)
    to _CHUNK (2^15 cells on, where more outputs would cost more than that).
    """
    cells = k ** (len(lags) + 1)
    flat = np.zeros(cells, dtype=np.int64)
    step = min(_CHUNK, max(_CHUNK >> 2, 8 * cells))
    for block in _codes(groups, k, lags, step, np.min_scalar_type(cells - 1)):
        flat += np.bincount(block, minlength=cells)
    return flat


def _pair_tables(groups: list[np.ndarray], k: int, lags: tuple[int, ...]) -> list[np.ndarray]:
    """Flat k*k pair count tables, indexed by x*k + y, of each lag d_1 < ... < d_m.

    One pass counts the (m+1)-tuples; lag d_i's table is their marginal, plus
    the pairs whose x lies in the last d_m - d_i columns of a row (a whole row
    shorter than d_m), which no tuple covers and which are counted directly.
    """
    m, last = len(lags), lags[-1]
    joint = _tuple_counts(groups, k, lags)
    if m == 1:
        return [joint]
    tails = [rows[:, max(0, rows.shape[1] - last) :] for rows in groups]
    tables = []
    for i, d in enumerate(lags):
        # einsum: .sum(axis=(1, 3)) took 4-5x as long for the last lags of a batch
        table = np.einsum("apbc->ab", joint.reshape(k, k**i, k, -1)).ravel()
        if d < last:
            table += _tuple_counts(tails, k, (d,))
        tables.append(table)
    return tables


def _gathered(groups: list[np.ndarray], k: int, a: int, lags: tuple[int, ...]) -> tuple[list, dict]:
    """The groups indexed around rank a: blocks (flat, pos, vals, stop), the
    rows of a block as one flat view from its first column to their ends,
    the positions pos into it of the ranks vals != a, column by column, and
    stop[i], how many start a pair at lag lags[i] (lie in columns below
    L - lags[i]); and ends, C_d for each lag d: C_d[y] counts rank y != a in
    columns d and on. The blocks are those _chunks yields at _CHUNK symbols:
    a row longer than that is one block per span, whose pairs reach past it."""
    blocks, counts = [], np.zeros((len(lags) + 1) * k, np.int64)
    starts = np.arange(0, counts.size, k, dtype=np.min_scalar_type(counts.size - 1))
    grid = np.array(lags)
    for rows in groups:
        length = rows.shape[1]
        for lines, cols in _chunks(rows, 0, _CHUNK):
            block, flat = rows[lines, cols], rows[lines, cols.start :].reshape(-1)
            col, pos = np.divmod(np.flatnonzero(np.not_equal(block.T, a, order="C")),
                                 block.shape[0])
            pos *= length - cols.start
            pos += col
            pos = pos.astype(np.min_scalar_type(flat.size - 1))
            vals = np.take(flat, pos)
            # one search gives where each lag's pairs stop and the heads, the
            # ranks in columns below each lag d_i: row i + 1 of counts takes
            # those from the head of lag i to that of lag i + 1
            cuts = np.searchsorted(col, np.concatenate([length - grid, grid]) - cols.start)
            stop = cuts[: grid.size].astype(np.min_scalar_type(vals.size))
            blocks.append((flat, pos, vals, stop))
            code = np.repeat(starts, np.diff(cuts[grid.size :], prepend=0, append=vals.size))
            code += vals
            counts += np.bincount(code, minlength=counts.size)
    ends = counts.reshape(-1, k)[:0:-1].cumsum(axis=0)[::-1]  # one len(lags) x k table
    return blocks, dict(zip(lags, ends))


def _gathered_tables(groups: list[np.ndarray], index: tuple[list, dict], k: int, a: int,
                     lags: tuple[int, ...]) -> list[np.ndarray]:
    """Flat k*k pair count tables of each lag from the _gathered index of
    the groups around rank a: rows x != a from the pairs of each block's
    first stop[i] positions, i the lag's column, every lag while the block
    is in cache; row a from C_d, T[a, y] = C_d[y] minus the other rows'
    T[x, y], and T[a, a] the rest of the n (L - d) pairs."""
    blocks, ends = index
    dtype = np.min_scalar_type(k * k - 1)
    tables = [np.zeros(k * k, np.int64) for _ in lags]
    at = np.searchsorted(list(ends), lags)  # each lag's column of stop
    for flat, pos, vals, stop in blocks:
        for d, j, table in zip(lags, stop[at].tolist(), tables):
            if j:  # else no pair at lag d starts in the block
                code = np.multiply(vals[:j], k, dtype=dtype)
                code += np.take(flat[d:], pos[:j])
                table += np.bincount(code, minlength=k * k)
    for d, table in zip(lags, tables):
        square = table.reshape(k, k)
        square[a] = ends[d] - square.sum(axis=0)
        # T[a, a] holds minus its column's other cells, which the sum counts too
        square[a, a] += sum(rows[:, d:].size for rows in groups) - table.sum()
    return tables


def _unique_cells(groups: list[np.ndarray], k: int, d: int) -> list[np.ndarray]:
    """The cells [xs, ys, counts] of lag d, sorted by (x, y): every pair code
    x*k + y of the lag in one buffer (empty when it has no pairs), sorted in
    place and run-length coded."""
    # not uint64: NumPy types uint64 with intp as float64, so ys += code
    # below would raise
    dtype = np.min_scalar_type(k * k - 1) if k <= 1 << 16 else np.int64
    code = next(_codes(groups, k, (d,), sys.maxsize, dtype), np.empty(0, dtype))
    code.sort()
    last = np.empty(code.size, dtype=bool)  # the last code of each run
    np.not_equal(code[1:], code[:-1], out=last[:-1])
    last[-1:] = True  # slices here: an empty buffer has no last code
    ends = np.flatnonzero(last)
    del last
    count = np.empty_like(ends)
    count[:1] = ends[:1] + 1
    np.subtract(ends[1:], ends[:-1], out=count[1:])
    code = code[ends]
    # a scalar divisor in the code's own dtype takes NumPy's fast integer
    # division; intp ranks: _mi_point's bincounts and gathers would each
    # convert narrower ones
    xs = (code // k).astype(np.intp, copy=False)
    ys = xs * -k
    ys += code
    return [xs, ys, count]


def _counter(groups: list[np.ndarray], k: int, lags: tuple[int, ...]):
    """How the groups of ranks below k are counted at the grid's lags, chosen
    here alone: (count, m, cost). count maps a batch of at most m of the lags
    to each lag's joint cells [xs, ys, counts], sorted by (x, y) with intp
    ranks, which fixes the MI summation order; cost, in symbols of a one-lag
    dense pass, sizes the process pool.

    Past DENSE_JOINT_LIMIT joint cells each lag's codes are sorted, one lag
    per batch. Else a batch's lags are counted together into dense tables,
    from the rows, m the most with k^(m+1) <= _BATCH_CELLS (k = 1 as 2), or,
    when few symbols differ from the sampled mode a, from the positions of
    the others; a table's cells are the nonzero ones of its k x k view.
    """
    cost = sum(rows.size for rows in groups)
    if k * k > DENSE_JOINT_LIMIT:
        def count(batch):
            return [_unique_cells(groups, k, d) for d in batch]
        return count, 1, cost * _SPARSE_COST
    m = 1
    while max(k, 2) ** (m + 2) <= _BATCH_CELLS:
        m += 1
    tables = functools.partial(_pair_tables, groups, k)
    sample = sum(np.bincount(rows.flat[::_GATHER_SAMPLE], minlength=k) for rows in groups)
    # Python ints, so a corpus of one symbol compares 0 * cost without a
    # numpy warning
    a, total = int(sample.argmax()), int(sample.sum())
    if (total - int(sample[a])) * _GATHER_COST * math.sqrt(m) < total:
        index = _gathered(groups, k, a, lags=lags)
        tables = functools.partial(_gathered_tables, groups, index, k, a)
        cost = int(sum(block[1].size for block in index[0]) * _GATHER_COST)
        m = max(1, min(_GATHER_LAGS, _BATCH_CELLS // (k * k)))

    def count(batch):
        squares = [table.reshape(k, k) for table in tables(batch)]
        return [[*cell, square[cell]] for square in squares for cell in [np.nonzero(square)]]

    return count, m, cost


def _pooled(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items] in this process and workers - 1 forked
    children (threads wait on the GIL bincount holds for part of each call),
    none beside a live thread (a fork there can deadlock), which take tokens,
    each the first index of per items, from one pipe that holds all (at most
    1,024); a failed item drains it, and the lowest failed item's error is
    raised once every child is reaped."""
    workers = min(workers, len(items)) if threading.active_count() == 1 else 1
    per = max(1, -(-len(items) // 1024))
    caller = os.getpid()
    tokens, w = os.pipe()
    os.write(w, np.arange(0, len(items), per, dtype="<u4").tobytes())
    os.close(w)

    def work(token):  # a pipe read takes a whole token, and only once
        done = []
        while token and caller in (os.getpid(), os.getppid()):  # an orphaned child stops
            start = int.from_bytes(token, "little")
            for i in range(start, min(start + per, len(items))):
                try:
                    done.append((i, True, fn(items[i])))
                except Exception as exc:
                    os.read(tokens, 4096)  # drains the pipe: it holds at most 4 KB
                    return done + [(i, False, exc)]
            token = os.read(tokens, 4)
        return done

    first, children = os.read(tokens, 4), {}  # the caller's own token; pid: its read end
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(r)  # with the caller gone, a write fails, not blocks
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(work(os.read(tokens, 4))))
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = open(r, "rb")
        done = work(first)  # then each child's pairs, or none from one that died
        done += [p for f in children.values() if (data := f.read()) for p in pickle.loads(data)]
    finally:
        os.close(tokens)
        for pid, f in children.items():  # a child read to the end only has to exit
            f.close()
            os.kill(pid, 9)  # SIGKILL, which also stops it if the caller is leaving
            os.waitpid(pid, 0)
    done.sort()
    failed = next((result for _, ok, result in done if not ok), None)
    if failed:
        raise failed
    if len(done) < len(items):
        raise ChildProcessError("a counting process ended without its results")
    return [result for _, _, result in done]


def _mi_point(config: EstimatorConfig, d: int, cells: list):
    """(d, pairs, MI nats, bias floor) from the cells [xs, ys, counts] of lag
    d; MI and floor are None below config.min_pair_count pairs. The int64
    counts are overwritten.

    The floor is the independence bias (Kx-1)(Ky-1)/(2N). With miller_madow,
    each of H_X, H_Y, H_XY receives the (support-1)/(2N) correction; the net
    effect on MI is (Kx + Ky - Kxy - 1)/(2N).
    """
    # empty the list and free each cell array once used: held to the
    # return, they left glibc to trim and refault the heap top on every lag
    xs, ys, cs = cells
    cells.clear()
    total, kxy = int(cs.sum()), int(cs.size)
    if total < config.min_pair_count:
        return d, total, None, None
    n = float(total)
    # the counts turn to float64 in their own buffer, and the terms
    # c * (ln(c n) - ln q) replace them slice by slice: three cell arrays live
    c = cs.view(np.float64)
    c[...] = cs  # in place: NumPy casts exactly aliased 1-D arrays with no copy
    bx = np.bincount(xs, weights=c)
    by = np.bincount(ys, weights=c)
    step = max(1, _CHUNK >> 2)
    for i in range(0, c.size, step):
        part = c[i : i + step]
        q = bx[xs[i : i + step]]
        t = by[ys[i : i + step]]
        q *= t
        np.log(q, out=q)
        np.multiply(part, n, out=t)
        np.log(t, out=t)
        t -= q
        part *= t
    mi = float(c.sum()) / n
    kx = int(np.count_nonzero(bx))
    ky = int(np.count_nonzero(by))
    floor = (kx - 1) * (ky - 1) / (2.0 * n)
    if config.bias_correction == "miller_madow":
        mi += (kx + ky - kxy - 1) / (2.0 * n)
    return d, total, max(0.0, mi), floor


def decay_curve(corpus: Corpus, grid: LagGrid, config: EstimatorConfig | None = None) -> DecayCurve:
    """MI at every grid lag with at least config.min_pair_count pairs.

    Lags with fewer pairs are omitted and reported in meta["skipped_lags"].
    Consecutive lags are counted in batches whose size follows from the
    number of occurring symbols; each lag's counts are exact whatever its
    batch, so batching and evaluation order cannot change the result, and
    the batches of a large corpus run in several processes. How they are
    counted is chosen once, by _counter.
    """
    config = config or EstimatorConfig()
    groups, symbols = _ranked_groups(corpus)
    count, m, cost = _counter(groups, symbols.size, grid.lags)

    def batch(lags):
        return [_mi_point(config, d, cells) for d, cells in zip(lags, count(lags))]

    batches = [grid.lags[i : i + m] for i in range(0, len(grid.lags), m)]
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1  # forks there only
    workers = min(cpus, -(-cost // _CHUNK))  # a process per _CHUNK of cost
    points = [p for ps in _pooled(batch, batches, workers) for p in ps]
    kept = [p for p in points if p[2] is not None]
    skipped = [{"lag": d, "pair_count": total} for d, total, mi, _ in points if mi is None]
    if not kept:
        if all(s["pair_count"] == 0 for s in skipped):
            raise EmptyLagError("every requested lag has zero pairs")
        raise EstimationError(
            f"no lag reached min_pair_count={config.min_pair_count}"
        )
    lags, pairs, mi, floors = zip(*kept)
    meta = {
        "estimator": "plug-in",
        "units": "nats",
        **to_dict(config),
        "alphabet_size": corpus.alphabet_size,
        "mode": corpus.mode,
        "source_meta": corpus.source_meta,
        "n_sequences": corpus.n_sequences,
        "skipped_lags": skipped,
        "bias_floor_nats": list(floors),
    }
    return DecayCurve(lags=np.array(lags), mi=np.array(mi), pairs=np.array(pairs), meta=meta)


@dataclass(frozen=True)
class _SidecarReads:
    """The sidecar fields that fit reads; the rest is carried as is."""

    bias_floor_nats: list[float] | None = None


def _sidecar(doc) -> dict:
    from_dict(_SidecarReads, doc)
    return doc


def curve_to_csv(curve: DecayCurve, path) -> None:
    """Write `lag,mi_nats,pair_count` rows, MI at full float precision, and
    curve.meta, when it is not empty, to the `<path>.meta.json` sidecar."""
    sidecar = f"{path}.meta.json"
    with contextlib.suppress(FileNotFoundError):  # no sidecar outlives its curve
        os.unlink(sidecar)
    with atomic_open(path, encoding="utf-8", newline="") as f:
        f.write("lag,mi_nats,pair_count\n")
        for d, m, c in curve.points():
            f.write(f"{d},{m:.17g},{c}\n")
    if curve.meta:
        write_json(curve.meta, sidecar)


def curve_from_csv(path) -> DecayCurve:
    """The curve curve_to_csv wrote to path, its meta read from the sidecar."""
    rows: list[tuple[int, float, int]] = []
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
            rows.append((int(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise EstimationError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise EstimationError(f"{path}: no curve points")
    lags, mi, pairs = zip(*rows)
    try:
        curve = DecayCurve(lags=np.array(lags), mi=np.array(mi), pairs=np.array(pairs))
    except (ValueError, OverflowError) as exc:  # overflow: an integer beyond int64
        raise EstimationError(f"{path}: invalid curve: {exc}") from exc
    with contextlib.suppress(FileNotFoundError):  # without a sidecar meta stays empty
        curve.meta = read_json(f"{path}.meta.json", _sidecar, EstimationError)
    return curve
