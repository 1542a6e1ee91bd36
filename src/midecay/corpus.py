"""Corpus ingestion: text and IDX image files become integer symbol sequences."""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .jsonio import atomic_open

IDX_IMAGE_MAGIC = 0x00000803

MODES = ("byte", "char", "word", "pixel")

# word tokenization splits on ASCII whitespace only, no case folding
_ASCII_WS = re.compile(r"[ \t\n\r\f\v]+")


class CorpusError(ValueError):
    """Input cannot be turned into a valid corpus."""


@dataclass(frozen=True)
class PermutationSpec:
    """A fixed position permutation, reproducible from (seed, length).

    The permutation is numpy's Fisher-Yates shuffle seeded via
    ``default_rng(seed)``; golden tests pin the generator choice.
    """

    seed: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("permutation length must be >= 1")
        if self.seed < 0:
            raise ValueError("permutation seed must be non-negative")

    def permutation(self) -> np.ndarray:
        """Position map p: output position i takes input position p[i]."""
        return np.random.default_rng(self.seed).permutation(self.length)

    def inverse_permutation(self) -> np.ndarray:
        return np.argsort(self.permutation())


@dataclass(frozen=True)
class Corpus:
    """One or more symbol sequences over a shared alphabet of size alphabet_size.

    Symbols are integer ids in [0, alphabet_size). For text modes the ids are
    first-occurrence ranks and ``alphabet`` maps id -> original unit; for pixel
    mode the ids are the raw byte values and ``alphabet`` is None.
    """

    sequences: tuple[np.ndarray, ...]
    alphabet_size: int
    mode: str
    source_meta: str = ""
    alphabet: tuple | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if self.mode in ("byte", "pixel") and self.alphabet_size > 256:
            raise ValueError("byte/pixel alphabets cannot exceed 256 symbols")
        seqs = tuple(np.asarray(s) for s in self.sequences)
        if not seqs:
            raise ValueError("corpus must contain at least one sequence")
        if any(s.ndim != 1 or s.shape[0] < 1 for s in seqs):
            raise ValueError("every sequence must be a nonempty 1-D array")
        dtypes = {s.dtype for s in seqs}
        if not all(np.issubdtype(t, np.integer) for t in dtypes):
            raise ValueError("sequences must hold integer symbol ids")
        # only a dtype that can hold an invalid id is scanned: uint8 with K = 256 is not
        scan = {t for t in dtypes if np.iinfo(t).min < 0 or np.iinfo(t).max >= self.alphabet_size}
        for s in seqs:
            if s.dtype in scan and (int(s.min()) < 0 or int(s.max()) >= self.alphabet_size):
                raise ValueError("symbol id outside [0, alphabet_size)")
        object.__setattr__(self, "sequences", seqs)
        if self.alphabet is not None:
            object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def max_length(self) -> int:
        return max(s.shape[0] for s in self.sequences)

    @property
    def n_symbols(self) -> int:
        return sum(s.shape[0] for s in self.sequences)


def _first_occurrence_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode integer values by first-occurrence rank.

    Returns (ids, units) where units[r] is the original value with rank r and
    ids has the smallest unsigned dtype that holds every rank. Ids are looked
    up in a table indexed by value, which byte and code point values keep small.
    """
    distinct, first_idx = np.unique(values, return_index=True)
    units = distinct[np.argsort(first_idx, kind="stable")]
    lut = np.empty(int(distinct[-1]) + 1, dtype=np.min_scalar_type(distinct.size - 1))
    lut[units] = np.arange(distinct.size)
    return lut[values], units


def load_text(path, mode: str) -> Corpus:
    """Load a text file as a single symbol sequence.

    mode=byte treats the raw bytes as units, mode=char the UTF-8 decoded
    characters, mode=word the ASCII-whitespace-separated tokens. Ids are
    assigned in first-occurrence order and stored in the smallest unsigned
    dtype that holds them.
    """
    if mode not in ("byte", "char", "word"):
        raise ValueError(f"load_text mode must be byte/char/word, got {mode!r}")
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise CorpusError(f"empty input file: {path}")

    if mode == "byte":
        raw = np.frombuffer(data, dtype=np.uint8)
        ids, units = _first_occurrence_ranks(raw)
        alphabet = tuple(int(u) for u in units)
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc
        if mode == "char":
            codepoints = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            ids, units = _first_occurrence_ranks(codepoints)
            alphabet = tuple(chr(int(u)) for u in units)
        else:
            words = [w for w in _ASCII_WS.split(text) if w]
            if not words:
                raise CorpusError(f"no words in input file: {path}")
            table: dict[str, int] = {}
            ids = np.fromiter(
                (table.setdefault(w, len(table)) for w in words),
                dtype=np.int64,
                count=len(words),
            )
            alphabet = tuple(table)

    return Corpus(
        sequences=(ids.astype(np.min_scalar_type(len(alphabet) - 1), copy=False),),
        alphabet_size=len(alphabet),
        mode=mode,
        source_meta=f"{path};mode={mode}",
        alphabet=alphabet,
    )


def read_idx_images(path) -> tuple[np.ndarray, int, int]:
    """Parse an IDX image file; returns (images, rows, cols).

    images has shape (count, rows*cols), one row-major flattened image per row.

    Layout (all header fields big-endian u32):
        magic 0x00000803 | count | rows | cols | count*rows*cols pixel bytes
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 16:
        raise CorpusError(f"{path}: truncated IDX header ({len(data)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise CorpusError(f"{path}: bad IDX image magic 0x{magic:08x}")
    expected = count * rows * cols
    payload = len(data) - 16
    if payload != expected:
        raise CorpusError(
            f"{path}: payload is {payload} bytes, header declares {expected}"
        )
    if count < 1 or rows * cols < 1:
        raise CorpusError(f"{path}: degenerate dimensions {count}x{rows}x{cols}")
    images = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    return images, rows, cols


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 2 or images.shape[1] != rows * cols:
        raise ValueError("images must have shape (count, rows*cols)")
    with atomic_open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, images.shape[0], rows, cols))
        f.write(images.tobytes())


def load_idx_images(path) -> Corpus:
    """Load an IDX image file; one sequence per image, raw bytes as symbol ids."""
    images, rows, cols = read_idx_images(path)
    return Corpus(
        sequences=tuple(images[i] for i in range(images.shape[0])),
        alphabet_size=256,
        mode="pixel",
        source_meta=f"{path};mode=pixel;images={images.shape[0]};rows={rows};cols={cols}",
    )


def permute(corpus: Corpus, spec: PermutationSpec, inverse: bool = False) -> Corpus:
    """Apply the same fixed position permutation to every sequence.

    With inverse=True the inverse permutation is applied, so permuting with a
    spec and then again with inverse=True restores the original corpus.
    """
    for s in corpus.sequences:
        if s.shape[0] != spec.length:
            raise CorpusError(
                f"sequence length {s.shape[0]} != permutation length {spec.length}"
            )
    p = spec.inverse_permutation() if inverse else spec.permutation()
    sequences = tuple(np.ascontiguousarray(s[p]) for s in corpus.sequences)
    note = f";permuted(seed={spec.seed}, inverse={inverse})"
    return Corpus(
        sequences=sequences,
        alphabet_size=corpus.alphabet_size,
        mode=corpus.mode,
        source_meta=corpus.source_meta + note,
        alphabet=corpus.alphabet,
    )
