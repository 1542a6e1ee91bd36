"""Corpus ingestion: text and IDX image files become integer symbol sequences."""

import re
import struct
from dataclasses import dataclass, replace

import numpy as np

from .jsonio import atomic_open

IDX_IMAGE_MAGIC = 0x00000803

MODES = ("byte", "char", "word", "pixel")

# bytes per block of text loading, exact in byte mode and extended to the next
# character or token boundary in char and word mode: one block's decoded
# text, code points and tokens are held at a time, never the whole text's
_BLOCK = 1 << 16
# bytes per np.unique call of the byte scan: the values a piece holds are
# deleted from the rest of its block before the next piece is sorted, so a
# block's first piece usually finds all of them
_BYTE_PIECE = 1 << 12
# a byte that starts a UTF-8 character: any byte but a continuation byte
_CHAR_START = re.compile(rb"[^\x80-\xbf]")
# in a bytes pattern \s is the six ASCII whitespace bytes bytes.split() splits on
_WHITESPACE = re.compile(rb"\s")


class CorpusError(ValueError):
    """Input cannot be turned into a valid corpus."""


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
            if len(self.alphabet) != self.alphabet_size:
                raise ValueError("alphabet must name exactly alphabet_size units")

    @property
    def max_length(self) -> int:
        return max(rows.shape[1] for rows in self.sequences)

    @property
    def n_symbols(self) -> int:
        return sum(rows.size for rows in self.sequences)

    @property
    def n_sequences(self) -> int:
        return sum(rows.shape[0] for rows in self.sequences)


def _byte_values(blocks, stop: int = 256) -> bytes:
    """The distinct values of the byte strings blocks yields, in first-occurrence
    order, until stop of them are found.

    bytes.translate deletes the values found so far from each block, and only
    what is left, usually nothing, is sorted, a piece at a time.
    """
    found = b""
    for block in blocks:
        rest = block.translate(None, found) if found else block
        while rest and len(found) < stop:
            values, first = np.unique(np.frombuffer(rest[:_BYTE_PIECE], np.uint8),
                                      return_index=True)
            new = values[np.argsort(first)].tobytes()
            found += new
            rest = rest[_BYTE_PIECE:].translate(None, new)
        if len(found) >= stop:
            break
    return found


def _blocks(data: bytes, boundary: re.Pattern):
    """Consecutive slices of data of about _BLOCK bytes, each extended to the
    next byte where boundary matches."""
    pos = 0
    while pos < len(data):
        m = boundary.search(data, pos + _BLOCK)
        end = m.start() if m else len(data)
        yield data[pos:end]
        pos = end


def _char_ids(data: bytes) -> tuple[np.ndarray, tuple[str, ...]]:
    """First-occurrence ranks of the characters of UTF-8 data, in the
    narrowest unsigned dtype, and the distinct characters in rank order.

    Each block is decoded twice, so no decoded copy of the whole text is
    held: once to count its characters and find its new ones, marked in a
    table indexed by code point, and once to look its ids up, into one array
    of the counted length, in a table of ranks indexed the same way.
    """
    units: dict[str, None] = {}
    seen = np.zeros(0, dtype=bool)
    n = 0
    for block in _blocks(data, _CHAR_START):
        points = np.frombuffer(block.decode("utf-8").encode("utf-32-le"), dtype=np.uint32)
        n += points.size
        if points.max() >= seen.size:
            seen = np.concatenate([seen, np.zeros(points.max() + 1 - seen.size, dtype=bool)])
        new = points[~seen[points]]  # the block's first occurrences, with repeats
        seen[new] = True
        units.update(dict.fromkeys(new.tobytes().decode("utf-32-le")))
    alphabet = tuple(units)
    lut = np.zeros(seen.size, dtype=np.min_scalar_type(len(alphabet) - 1))
    lut[[ord(u) for u in alphabet]] = np.arange(len(alphabet))
    ids = np.empty(n, lut.dtype)
    n = 0
    for block in _blocks(data, _CHAR_START):
        points = np.frombuffer(block.decode("utf-8").encode("utf-32-le"), dtype=np.uint32)
        # every point indexes lut, so "clip" clips nothing; "raise" would buffer
        np.take(lut, points, out=ids[n : n + points.size], mode="clip")
        n += points.size
    return ids, alphabet


def _word_ids(data: bytes) -> tuple[np.ndarray, tuple[str, ...]]:
    """First-occurrence ranks of the whitespace-separated tokens of UTF-8
    data, as uint32, and the distinct tokens decoded in rank order."""
    table: dict[bytes, int] = {}
    blocks = []
    for block in _blocks(data, _WHITESPACE):
        words = block.split()
        blocks.append(np.fromiter((table.setdefault(w, len(table)) for w in words),
                                  dtype=np.uint32, count=len(words)))
    ids, units = np.concatenate(blocks), list(table)
    del blocks, table  # free the block ids and the dict before decoding
    # every non-whitespace byte lies in a token, so decoding the distinct
    # tokens validates the file without a decoded copy of all of it
    return ids, tuple(u.decode("utf-8") for u in units)


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

    if mode == "byte" or mode == "char" and data.isascii():  # an ASCII byte is a character
        values = _byte_values(data[i : i + _BLOCK] for i in range(0, len(data), _BLOCK))
        ranks = np.zeros(256, dtype=np.uint8)
        ranks[list(values)] = np.arange(len(values))
        ids = np.frombuffer(data.translate(ranks), dtype=np.uint8)
        alphabet = tuple(values) if mode == "byte" else tuple(map(chr, values))
    else:
        try:
            # word mode: no multibyte UTF-8 sequence contains an ASCII
            # whitespace byte; no case folding
            ids, alphabet = (_char_ids if mode == "char" else _word_ids)(data)
        except UnicodeDecodeError as exc:
            # a block's or a token's error gives its offset in that block or
            # token: decoding the whole file gives its position in the file
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc
        if not alphabet:  # word mode only: a file of whitespace
            raise CorpusError(f"no words in input file: {path}")

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
    _check_idx_dimensions(path, count, rows, cols)
    images = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    return images, rows, cols


def _check_idx_dimensions(path, count: int, rows: int, cols: int) -> None:
    if count < 1 or rows * cols < 1:
        raise CorpusError(f"{path}: degenerate dimensions {count}x{rows}x{cols}")


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    images = np.asarray(images)
    if images.dtype != np.uint8 and not (np.issubdtype(images.dtype, np.integer) and (
            images.size == 0 or 0 <= images.min() <= images.max() <= 255)):
        raise ValueError("pixel values must be integers in [0, 255]")
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 2 or images.shape[1] != rows * cols:
        raise ValueError("images must have shape (count, rows*cols)")
    _check_idx_dimensions(path, images.shape[0], rows, cols)
    with atomic_open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, images.shape[0], rows, cols))
        f.write(images.tobytes())


def load_idx_images(path) -> Corpus:
    """Load an IDX image file as one (images, pixels) stack, a view of its bytes as ids."""
    images, rows, cols = read_idx_images(path)
    meta = f"{path};mode=pixel;images={images.shape[0]};rows={rows};cols={cols}"
    return Corpus(sequences=(images,), alphabet_size=256, mode="pixel", source_meta=meta)


def permute(corpus: Corpus, seed: int, inverse: bool = False) -> Corpus:
    """Apply one fixed permutation of the row positions to every row, in one np.take.

    The permutation is numpy's Fisher-Yates shuffle of the row length L,
    ``default_rng(seed).permutation(L)``: output position i takes input
    position p[i]. With inverse=True its inverse, the argsort of p, is
    applied, so permuting with a seed and then again with inverse=True
    restores the original corpus. A corpus of more than one row length raises
    CorpusError: no single position permutation fits it.
    """
    if len(corpus.sequences) > 1:
        lengths = ", ".join(str(rows.shape[1]) for rows in corpus.sequences)
        raise CorpusError(f"rows of lengths {lengths}: a position permutation needs one length")
    (rows,) = corpus.sequences
    p = np.random.default_rng(seed).permutation(rows.shape[1])
    return replace(corpus, sequences=(np.take(rows, np.argsort(p) if inverse else p, axis=1),),
                   source_meta=f"{corpus.source_meta};permuted(seed={seed}, inverse={inverse})")
