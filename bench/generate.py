"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
bytes. The text and pixel inputs have long-range mutual information made by a
copy-from-the-past process (Lin & Tegmark 2017, "Critical Behavior in Physics
and Probabilistic Formal Languages"): each symbol is, with probability
``p_copy``, a copy of the symbol ``L`` positions back, where ``L`` has a
power-law tail. Shared ancestry, and so MI, then falls off as a power of the
distance. The fit-batch curves are drawn directly from the four decay laws the
classifier separates, plus noise-only curves.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

TEXT_BYTE_SYMBOLS = 1_000_000
TEXT_BYTE_ALPHABET = 60
PIXEL_IMAGES = 1_500
PIXEL_SIDE = 28
WORD_TOKENS = 10_000
WORD_VOCABULARY = 36_000
FIT_CURVES_PER_LAW = 25
FIT_NOISE_CURVES = 20
FIT_MAX_LAG = 1000

_PRINTABLE = (
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;"
)


def _zipf_probabilities(k: int, exponent: float, offset: float) -> np.ndarray:
    w = 1.0 / (np.arange(k) + offset) ** exponent
    return w / w.sum()


def copy_process(rng, n: int, fresh: np.ndarray, p_copy: float, tail: float) -> np.ndarray:
    """Positions that copy an earlier position, resolved to their fresh ancestor.

    ``fresh`` holds the symbol drawn for each position; a copying position
    takes the symbol of position ``t - L`` with P(L >= l) = l**-tail. The
    ancestor chains are resolved by pointer doubling, so no Python loop runs
    over positions.
    """
    idx = np.arange(n, dtype=np.int64)
    lag = np.floor(rng.random(n) ** (-1.0 / tail)).astype(np.int64)
    copies = (rng.random(n) < p_copy) & (lag <= idx)
    src = np.where(copies, idx - lag, idx)
    while True:
        nxt = src[src]
        if np.array_equal(nxt, src):
            break
        src = nxt
    return fresh[src]


def text_byte(seed: int) -> bytes:
    """1 MB of text over a 60-symbol alphabet with power-law MI."""
    rng = np.random.default_rng([seed, 1])
    k = TEXT_BYTE_ALPHABET
    fresh = rng.choice(k, size=TEXT_BYTE_SYMBOLS, p=_zipf_probabilities(k, 1.0, 2.0))
    ids = copy_process(rng, TEXT_BYTE_SYMBOLS, fresh, p_copy=0.6, tail=0.8)
    table = np.frombuffer(_PRINTABLE[:k], dtype=np.uint8)
    return table[ids].tobytes()


def _blur(a: np.ndarray, axis: int) -> np.ndarray:
    p = np.swapaxes(a, 0, axis)
    padded = np.concatenate([p[:1], p, p[-1:]], axis=0)
    out = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
    return np.swapaxes(out, 0, axis)


def idx_pixel(seed: int) -> bytes:
    """An IDX file of 1,500 spatially correlated 28x28 images.

    A blurred Gaussian field under a centred envelope is cut at zero, so most
    border pixels are background as in digit images; row-major flattening
    then gives MI peaks at multiples of the row length. Pixels take 32 grey
    levels, which keeps the plug-in bias floor at this corpus size below the
    height of those peaks.
    """
    rng = np.random.default_rng([seed, 2])
    n, side = PIXEL_IMAGES, PIXEL_SIDE
    field = rng.normal(size=(n, side, side))
    for _ in range(2):
        field = _blur(_blur(field, 1), 2)
    r = np.arange(side) - (side - 1) / 2.0
    envelope = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2 * (side / 5.0) ** 2))
    field = field * envelope + 0.05 * envelope - 0.06
    levels = np.clip(np.rint(field * (31 / np.quantile(field, 0.995))), 0, 31)
    pixels = (levels * 8).astype(np.uint8)
    header = struct.pack(">IIII", 0x00000803, n, side, side)
    return header + pixels.reshape(n, side * side).tobytes()


def _word(i: int) -> str:
    letters = "etaoinshrdlucmfwypvbgkqjxz"
    out = []
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out.append(letters[r])
    return "".join(out)


def text_word(seed: int) -> bytes:
    """10k tokens from a 36k-word Zipf vocabulary with power-law MI.

    The observed vocabulary stays above 4,096 words, past the estimator's
    dense joint-table limit.
    """
    rng = np.random.default_rng([seed, 3])
    vocab = WORD_VOCABULARY
    fresh = rng.choice(vocab, size=WORD_TOKENS, p=_zipf_probabilities(vocab, 0.7, 1.0))
    ids = copy_process(rng, WORD_TOKENS, fresh, p_copy=0.3, tail=0.8)
    words = [_word(int(i)) for i in ids]
    lines = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)]
    return ("\n".join(lines) + "\n").encode("ascii")


def fit_lags(max_lag: int = FIT_MAX_LAG) -> list[int]:
    """Unit lags to 64, then 32 log-spaced lags per decade, as the CLI samples."""
    lags = set(range(1, 65))
    steps = max(1, math.ceil(math.log10(max_lag / 64) * 32))
    tail = np.logspace(math.log10(64), math.log10(max_lag), steps + 1)
    lags.update(int(round(v)) for v in tail)
    lags.add(max_lag)
    return sorted(lags)


def _law_curve(rng, law: str, d: np.ndarray) -> np.ndarray:
    amp = 10 ** rng.uniform(-1.5, -0.3)
    if law == "power":
        mi = amp * d ** -rng.uniform(0.4, 1.6)
    elif law == "broken":
        brk = float(rng.integers(20, 200))
        steep, flat = rng.uniform(1.2, 2.0), rng.uniform(0.2, 0.6)
        mi = np.where(d <= brk, amp * d**-steep, amp * brk**-steep * (d / brk) ** -flat)
    elif law == "periodic":
        period = int(rng.integers(5, 21))
        mi = amp * d ** -rng.uniform(0.3, 1.0)
        mi = mi * np.where(d % period == 0, rng.uniform(2.0, 4.0), 1.0)
    elif law == "exponential":
        mi = amp * np.exp(-d * rng.uniform(0.005, 0.05))
    else:
        mi = np.full(d.shape, 10 ** rng.uniform(-6.0, -4.0))
    return mi


LAWS = ("power", "broken", "periodic", "exponential")


def fit_curves(seed: int) -> list[tuple[str, str]]:
    """Curve CSVs: (name, text) pairs, FIT_CURVES_PER_LAW per decay law plus
    FIT_NOISE_CURVES noise-only curves, each with multiplicative noise and a
    small positive floor.
    """
    rng = np.random.default_rng([seed, 4])
    d = np.asarray(fit_lags(), dtype=np.float64)
    pairs = 1_000_000 - d.astype(np.int64)
    plan = [law for law in LAWS for _ in range(FIT_CURVES_PER_LAW)]
    plan += ["noise"] * FIT_NOISE_CURVES
    out = []
    for i, law in enumerate(plan):
        mi = _law_curve(rng, law, d)
        mi = mi * np.exp(rng.normal(0.0, rng.uniform(0.01, 0.06), d.size)) + 1e-9
        rows = [f"{int(a)},{m:.17g},{int(c)}" for a, m, c in zip(d, mi, pairs)]
        text = "lag,mi_nats,pair_count\n" + "\n".join(rows) + "\n"
        out.append((f"curve{i:03d}-{law}.csv", text))
    return out


def write_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Generate the workload's inputs into directory; return the file paths."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "fit-batch":
        files = fit_curves(seed)
        paths = []
        for name, text in files:
            p = directory / name
            p.write_text(text, encoding="ascii")
            paths.append(p)
        return paths
    maker, name = {
        "text-byte": (text_byte, "text-byte.txt"),
        "idx-pixel": (idx_pixel, "images.idx"),
        "text-word": (text_word, "text-word.txt"),
    }[workload]
    p = directory / name
    p.write_bytes(maker(seed))
    return [p]
