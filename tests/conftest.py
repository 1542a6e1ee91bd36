"""Shared test helpers: independent oracles, synthetic corpora and curves."""

import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from midecay import Corpus, EstimatorConfig, LagGrid, decay_curve, estimator
from midecay.estimator import DecayCurve

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# independent oracles (pure python, no shared code with the implementation)

def naive_pair_counts(seqs, d):
    """Brute-force count of the pairs (s[t], s[t + d]) of every sequence, or
    of every row of an (n, L) stack, over Python ints."""
    joint = Counter()
    for entry in seqs:
        rows = np.asarray(entry).tolist()  # ints, converted once per symbol
        for s in rows if np.ndim(entry) == 2 else [rows]:
            joint.update(zip(s, s[d:]))
    return dict(joint)


def plan_cells(groups, k, lags):
    """The joint cells [xs, ys, counts] of each lag, counted by the
    estimator's counting plan, _counter, in batches of the size it gives."""
    count, m, _ = estimator._counter(groups, k, lags)
    return [cells for i in range(0, len(lags), m) for cells in count(lags[i : i + m])]


def joint_dict(corpus, d):
    """The estimator's joint cells at lag d as a {(x, y): count} dict of
    symbol ids, for the oracles; counted by its counting plan."""
    groups, symbols = estimator._ranked_groups(corpus)
    (xs, ys, cs), = plan_cells(groups, symbols.size, (d,))
    ids = symbols.tolist()
    return {(ids[x], ids[y]): c for x, y, c in zip(xs.tolist(), ys.tolist(), cs.tolist())}


def lag_mi(corpus, d, bias_correction="none"):
    """The estimator's MI at lag d, read from a one-lag decay curve."""
    config = EstimatorConfig(bias_correction=bias_correction, min_pair_count=1)
    return float(decay_curve(corpus, LagGrid((d,)), config).mi[0])


def naive_mi(joint):
    """Plug-in MI in nats from a joint count dict."""
    n = sum(joint.values())
    px, py = {}, {}
    for (x, y), c in joint.items():
        px[x] = px.get(x, 0) + c
        py[y] = py.get(y, 0) + c
    total = 0.0
    for (x, y), c in joint.items():
        p = c / n
        total += p * math.log(p / ((px[x] / n) * (py[y] / n)))
    return total


def naive_mi_miller_madow(joint):
    """Miller-Madow corrected MI: each entropy corrected by (support-1)/(2N)."""
    n = sum(joint.values())
    px, py = {}, {}
    for (x, y), c in joint.items():
        px[x] = px.get(x, 0) + c
        py[y] = py.get(y, 0) + c

    def ent(counts):
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    hx = ent(px) + (len(px) - 1) / (2 * n)
    hy = ent(py) + (len(py) - 1) / (2 * n)
    hxy = ent({k: c for k, c in joint.items()}) + (len(joint) - 1) / (2 * n)
    return max(0.0, hx + hy - hxy)


def markov_mi(k, stay, d):
    """Exact MI in nats at lag d of the symmetric K-state chain of
    markov_chain: sum over i, j of pi_i P^d_ij ln(P^d_ij / pi_j), with the
    uniform stationary pi."""
    p = np.full((k, k), (1 - stay) / (k - 1))
    np.fill_diagonal(p, stay)
    pd = np.linalg.matrix_power(p, d)
    return float(sum(pd[i, j] / k * math.log(pd[i, j] * k) for i in range(k) for j in range(k)))


def tree_mi(k, stays, n_trees, d):
    """Exact MI in nats at lag d of the text of tree_forest (Lin & Tegmark
    2017). Two leaves whose lowest common ancestor is h levels up, h the bit
    length of t XOR (t + d) within one tree, have the joint pi_x M_h[x, y]
    of the symmetric kernel with eigenvalue prod(lambda_l^2) over the h
    levels below it, lambda_l = stay_l - (1 - stay_l)/(K-1); a pair from two
    trees is independent (eigenvalue 0). The lag-d table is their mixture,
    the symmetric kernel of the mean eigenvalue."""
    stays = np.asarray(stays, dtype=float)
    lam = stays - (1 - stays) / (k - 1)
    eigen = np.cumprod(lam[::-1] ** 2)  # eigen[h - 1]: the h levels above the leaves
    t = np.arange(max(0, 2 ** stays.size - d))  # the pairs within one tree
    heights = np.frexp(t ^ (t + d))[1]  # the bit lengths
    mean = n_trees * float(eigen[heights - 1].sum()) / (n_trees * 2 ** stays.size - d)
    return kernel_mi(k, mean)


def interleaved_copy_mi(k, p, q, d):
    """Exact MI in nats at lag d of interleaved_copy: d = m p pairs two
    symbols of one chain m copy steps apart, the symmetric kernel with
    eigenvalue q^m; every other lag pairs two independent chains."""
    return kernel_mi(k, q ** (d // p)) if d % p == 0 else 0.0


def column_markov_mi(k, stay, d, side=28):
    """Exact MI in nats of column_markov_stack's pooled lag-d table, the
    mean of the joints of its side^2 - d positions t. Position (r, j) has the
    marginal mu_j P^r. A pair m = d / side rows apart in one column has the
    joint diag(marginal) P^m; any other pair is the product of its two
    marginals."""
    p = np.full((k, k), (1 - stay) / (k - 1))
    np.fill_diagonal(p, stay)
    mu = np.full((side, k), 0.3 / (k - 1))
    mu[np.arange(side), np.arange(side) % k] = 0.7
    marg = np.stack([mu @ np.linalg.matrix_power(p, r) for r in range(side)]).reshape(-1, k)
    a, b = marg[: marg.shape[0] - d], marg[d:]
    if d % side:
        joint = a.T @ b
    else:
        joint = np.diag(a.sum(axis=0)) @ np.linalg.matrix_power(p, d // side)
    joint /= a.shape[0]
    indep = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    return float(np.sum(joint * np.log(joint / indep)))


def kernel_mi(k, eigen):
    """MI in nats of the symmetric K-state kernel with the given eigenvalue
    under the uniform marginal: P(same) = (1 + (K-1) eigen)/K, each other
    state (1 - eigen)/K."""
    same, other = (1 + (k - 1) * eigen) / k, (1 - eigen) / k
    return same * math.log(k * same) + (k - 1) * other * math.log(k * other)


def naive_ols(x, y):
    """Closed-form least squares, independent of the implementation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((xi - mx) ** 2 for xi in x)
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = my - slope * mx
    sse = sum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    return slope, intercept, sse


# ---------------------------------------------------------------------------
# corpus and curve builders

def corpus_from_lists(seqs, alphabet_size, mode="byte"):
    return Corpus(
        sequences=tuple(np.asarray(s, dtype=np.int64) for s in seqs),
        alphabet_size=alphabet_size,
        mode=mode,
    )


def pattern_corpus(pattern_ids, alphabet_size, n_symbols=40000):
    """Deterministic tiling of a fixed pattern."""
    reps = n_symbols // len(pattern_ids) + 1
    arr = np.tile(np.asarray(pattern_ids, dtype=np.int64), reps)[:n_symbols]
    return corpus_from_lists([arr], alphabet_size)


def markov_chain(k, stay, n_symbols, seed=0):
    """A seeded symmetric K-state Markov chain: each step stays with
    probability stay, else jumps to one of the other K-1 states uniformly.
    Built as a cumulative sum of jumps mod K, from a uniform first state."""
    rng = np.random.default_rng(seed)
    jumps = np.where(rng.random(n_symbols) < stay, 0, rng.integers(1, k, n_symbols))
    jumps[0] = rng.integers(k)
    return corpus_from_lists([np.cumsum(jumps) % k], k)


def interleaved_copy(k, p, q, n, seed=0):
    """A seeded period-p source of n symbols: each copies the symbol p
    positions back with probability q, else is drawn uniformly from K
    symbols, as the first p are. Its p residue classes are independent
    chains, so a symbol is the draw of the last fresh position of its class
    at or before it: a running maximum down each column of the positions
    laid out p to a row."""
    rng = np.random.default_rng(seed)
    rows = -(-n // p)
    pos = np.arange(rows * p)
    fresh = (pos < p) | (rng.random(pos.size) >= q)
    source = np.maximum.accumulate(np.where(fresh, pos, 0).reshape(rows, p), axis=0)
    return corpus_from_lists([rng.integers(0, k, pos.size)[source.ravel()[:n]]], k)


def tree_forest(k, stays, n_trees, seed=0):
    """A seeded forest of n_trees binary trees of depth len(stays), its
    leaves in order as one text (Lin & Tegmark 2017): each root is uniform
    over K symbols, and a child at depth l + 1 keeps its parent's symbol
    with probability stays[l], else jumps to one of the other K-1 uniformly.
    Built in one np.repeat step per level."""
    rng = np.random.default_rng(seed)
    level = rng.integers(0, k, n_trees)
    for stay in stays:
        level = np.repeat(level, 2)
        level += np.where(rng.random(level.size) < stay, 0, rng.integers(1, k, level.size))
        level %= k
    return corpus_from_lists([level], k)


def column_markov_stack(k, stay, n, seed=0, side=28):
    """A seeded (n, side^2) uint8 stack of side x side images whose columns
    are independent chains down the rows, with markov_chain's symmetric
    K-state kernel. Row 0 of column j draws from mu_j: 0.7 on symbol j mod
    K, the rest spread evenly over the others. One (n, side) draw per row
    step."""
    rng = np.random.default_rng(seed)
    images = np.empty((n, side, side), dtype=np.uint8)
    home = np.arange(side) % k
    images[:, 0] = np.where(rng.random((n, side)) < 0.7, home,
                            (home + rng.integers(1, k, (n, side))) % k)
    for r in range(1, side):
        jumps = np.where(rng.random((n, side)) < stay, 0, rng.integers(1, k, (n, side)))
        images[:, r] = (images[:, r - 1] + jumps) % k
    return images.reshape(n, side * side)


def make_curve(lags, mi, pairs=None, meta=None):
    lags = np.asarray(lags)
    mi = np.maximum(np.asarray(mi, dtype=float), 0.0)
    if pairs is None:
        pairs = np.full(lags.size, 10**6)
    return DecayCurve(lags=lags, mi=mi, pairs=pairs, meta=meta or {})


def _smooth_axis(a, axis):
    p = np.swapaxes(a, 0, axis)
    padded = np.concatenate([p[:1], p, p[-1:]], axis=0)
    out = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    return np.swapaxes(out, 0, axis)


def synth_images(n_images, seed=0, side=28, levels=32):
    """Spatially correlated random images, shape (n_images, side*side), uint8.

    Correlation length ~1.5 px: row-major flattening yields MI peaks at
    multiples of `side`, like digit images do.
    """
    rng = np.random.default_rng(seed)
    field = _smooth_axis(_smooth_axis(rng.normal(size=(n_images, side, side)), 1), 2)
    lo, hi = field.min(), field.max()
    q = np.clip(((field - lo) / (hi - lo) * (levels - 1)).round(), 0, levels - 1)
    return (q * (256 // levels)).astype(np.uint8).reshape(n_images, side * side)


def image_corpus(n_images, seed=0, side=28):
    """The images as one (n_images, side*side) stack, as load_idx_images gives."""
    return Corpus(sequences=(synth_images(n_images, seed=seed, side=side),),
                  alphabet_size=256, mode="pixel")


# ---------------------------------------------------------------------------
# optional real datasets for the data-gated acceptance criteria

def dataset_path(env_var, *default_names):
    """Resolve a dataset file from an env var or the repo data/ directory."""
    candidates = []
    if os.environ.get(env_var):
        candidates.append(Path(os.environ[env_var]))
    for name in default_names:
        candidates.append(REPO_ROOT / "data" / name)
    for p in candidates:
        if p.is_file():
            return p
    return None


def require_dataset(env_var, *default_names):
    p = dataset_path(env_var, *default_names)
    if p is None:
        pytest.skip(
            f"dataset not present: set {env_var} or place one of "
            f"{default_names} under {REPO_ROOT / 'data'}"
        )
    return p
