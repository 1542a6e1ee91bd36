"""Corpus ingestion: text and IDX image files become integer symbol sequences."""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .jsonio import atomic_open

IDX_IMAGE_MAGIC = 0x00000803

MODES = ("byte", "char", "word", "pixel")

# units per block of the first-occurrence scan, and bytes per block that char
# mode decodes (extended to the next character boundary): np.unique sorts with
# int64 index arrays, which over a whole text took about 17 bytes per byte of
# text, and a whole text's UTF-32 copy took 4 bytes per character
_RANK_BLOCK = 1 << 16
# bytes per block of the word tokenizer, which holds one bytes object per
# token of the block only; a block is extended to the next whitespace byte
_WORD_BLOCK = 1 << 16
# in a bytes pattern \s is the six ASCII whitespace bytes bytes.split() splits on
_WHITESPACE = re.compile(rb"\s")


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

    Each entry passed is one 1-D sequence or an (n, L) stack, one per row, of
    ids in [0, alphabet_size): first-occurrence ranks for text modes, which
    ``alphabet`` maps to units; raw bytes in pixel mode, no alphabet. They are
    stored as one (n, L) group per row length, in first-seen order and in the
    alphabet's narrowest unsigned dtype, uncopied if alone and in that dtype.
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
        if any(s.ndim not in (1, 2) or s.size == 0 for s in seqs):
            raise ValueError("every sequence must be a nonempty 1-D array or (n, L) stack")
        dtypes = {s.dtype for s in seqs}
        if not all(np.issubdtype(t, np.integer) for t in dtypes):
            raise ValueError("sequences must hold integer symbol ids")
        # only a dtype that can hold an invalid id is scanned: uint8 with K = 256 is not
        scan = {t for t in dtypes if np.iinfo(t).min < 0 or np.iinfo(t).max >= self.alphabet_size}
        by_length: dict[int, list[np.ndarray]] = {}
        for s in seqs:
            if s.dtype in scan and (int(s.min()) < 0 or int(s.max()) >= self.alphabet_size):
                raise ValueError("symbol id outside [0, alphabet_size)")
            by_length.setdefault(s.shape[-1], []).append(np.atleast_2d(s))
        # the ids were range-checked, so the narrowing cast cannot wrap
        dtype = np.min_scalar_type(self.alphabet_size - 1)
        object.__setattr__(self, "sequences", tuple(
            g[0].astype(dtype, copy=False) if len(g) == 1
            else np.concatenate(g, dtype=dtype, casting="unsafe") for g in by_length.values()))
        if self.alphabet is not None:
            object.__setattr__(self, "alphabet", tuple(self.alphabet))

    @property
    def max_length(self) -> int:
        return max(rows.shape[1] for rows in self.sequences)

    @property
    def n_symbols(self) -> int:
        return sum(rows.size for rows in self.sequences)

    @property
    def n_sequences(self) -> int:
        return sum(rows.shape[0] for rows in self.sequences)


def _first_occurrence_ranks(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Encode integer values by first-occurrence rank.

    blocks() yields the values as consecutive nonempty blocks; it is called
    twice, to find the units and to look the ids up. Returns (ids, units)
    where units[r] is the original value with rank r and ids has the smallest
    unsigned dtype that holds every rank. Ids are looked up in a table indexed
    by value, which byte and code point values keep small.
    """
    seen = np.zeros(0, dtype=bool)
    found = []
    n = 0
    for values in blocks():
        n += values.size
        top = int(values.max()) + 1
        if top > seen.size:
            seen = np.concatenate([seen, np.zeros(top - seen.size, dtype=bool)])
        distinct, first = np.unique(values, return_index=True)
        new = ~seen[distinct]
        seen[distinct] = True
        found.append(distinct[new][np.argsort(first[new])])
    units = np.concatenate(found)
    lut = np.empty(seen.size, dtype=np.min_scalar_type(units.size - 1))
    lut[units] = np.arange(units.size)
    ids = np.empty(n, dtype=lut.dtype)
    pos = 0
    for values in blocks():
        ids[pos : pos + values.size] = lut[values]
        pos += values.size
    return ids, units


def _char_blocks(data: bytes):
    """The code points of UTF-8 data, as uint32 blocks of about _RANK_BLOCK
    bytes that each end on a character boundary, so no copy of the whole
    text is decoded."""
    pos = 0
    while pos < len(data):
        end = min(pos + _RANK_BLOCK, len(data))
        while end < len(data) and data[end] & 0xC0 == 0x80:  # a continuation byte
            end += 1
        try:
            chars = data[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            data.decode("utf-8")  # raises the error at its position in the file
            raise
        yield np.frombuffer(chars.encode("utf-32-le"), dtype=np.uint32)
        pos = end


def _word_ids(data: bytes) -> tuple[np.ndarray, tuple[str, ...]]:
    """First-occurrence ranks of the whitespace-separated tokens of UTF-8
    data, as uint32, and the distinct tokens decoded in rank order."""
    table: dict[bytes, int] = {}
    blocks = []
    pos = 0
    while pos < len(data):
        m = _WHITESPACE.search(data, pos + _WORD_BLOCK)
        end = m.start() if m else len(data)
        words = data[pos:end].split()
        blocks.append(np.fromiter((table.setdefault(w, len(table)) for w in words),
                                  dtype=np.uint32, count=len(words)))
        pos = end
    ids, units = np.concatenate(blocks), list(table)
    del blocks, table  # free the block ids and the dict before decoding
    # every non-whitespace byte lies in a token, so decoding the distinct
    # tokens validates the file without a decoded copy of all of it
    try:
        return ids, tuple(u.decode("utf-8") for u in units)
    except UnicodeDecodeError:
        data.decode("utf-8")  # raises the error at its position in the file
        raise


def load_text(path, mode: str) -> Corpus:
    """Load a text file as a single symbol sequence.

    mode=byte treats the raw bytes as units, mode=char the UTF-8 decoded
    characters, mode=word the ASCII-whitespace-separated tokens. Ids are
    assigned in first-occurrence order.
    """
    if mode not in ("byte", "char", "word"):
        raise ValueError(f"load_text mode must be byte/char/word, got {mode!r}")
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise CorpusError(f"empty input file: {path}")

    if mode == "byte":
        raw = np.frombuffer(data, dtype=np.uint8)
        ids, units = _first_occurrence_ranks(
            lambda: (raw[i : i + _RANK_BLOCK] for i in range(0, raw.size, _RANK_BLOCK)))
        alphabet = tuple(int(u) for u in units)
    else:
        try:
            if mode == "char":
                ids, units = _first_occurrence_ranks(lambda: _char_blocks(data))
                alphabet = tuple(chr(int(u)) for u in units)
            else:
                # no multibyte UTF-8 sequence contains an ASCII whitespace byte;
                # no case folding
                ids, alphabet = _word_ids(data)
                if not alphabet:
                    raise CorpusError(f"no words in input file: {path}")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc

    return Corpus(
        sequences=(ids,),
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
    images = np.asarray(images)
    if images.dtype != np.uint8 and not (np.issubdtype(images.dtype, np.integer) and (
            images.size == 0 or 0 <= images.min() <= images.max() <= 255)):
        raise ValueError("pixel values must be integers in [0, 255]")
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 2 or images.shape[1] != rows * cols:
        raise ValueError("images must have shape (count, rows*cols)")
    with atomic_open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, images.shape[0], rows, cols))
        f.write(images.tobytes())


def load_idx_images(path) -> Corpus:
    """Load an IDX image file as one (images, pixels) stack, a view of its bytes as ids."""
    images, rows, cols = read_idx_images(path)
    meta = f"{path};mode=pixel;images={images.shape[0]};rows={rows};cols={cols}"
    return Corpus(sequences=(images,), alphabet_size=256, mode="pixel", source_meta=meta)


def permute(corpus: Corpus, spec: PermutationSpec, inverse: bool = False) -> Corpus:
    """Apply the same fixed position permutation to every sequence, one np.take per group.

    With inverse=True the inverse permutation is applied, so permuting with a
    spec and then again with inverse=True restores the original corpus.
    """
    for rows in corpus.sequences:
        if rows.shape[1] != spec.length:
            raise CorpusError(f"sequence length {rows.shape[1]} != permutation length {spec.length}")
    p = spec.inverse_permutation() if inverse else spec.permutation()
    sequences = tuple(np.take(rows, p, axis=1) for rows in corpus.sequences)
    note = f";permuted(seed={spec.seed}, inverse={inverse})"
    return Corpus(
        sequences=sequences,
        alphabet_size=corpus.alphabet_size,
        mode=corpus.mode,
        source_meta=corpus.source_meta + note,
        alphabet=corpus.alphabet,
    )
