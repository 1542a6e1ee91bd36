"""Corpus loading, tokenization, IDX parsing, and permutation behavior."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midecay import corpus as corpus_module
from midecay import (
    Corpus,
    CorpusError,
    load_idx_images,
    load_text,
    permute,
    read_idx_images,
    write_idx_images,
)


# the six characters word mode splits on
ASCII_WS = " \t\n\r\f\v"


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return p


class TestLoadText:
    def test_byte_mode_first_occurrence_ids(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"abab")
        c = load_text(p, "byte")
        assert len(c.sequences) == 1  # one 1 x N group
        assert c.sequences[0].tolist() == [[0, 1, 0, 1]]
        assert c.alphabet_size == 2
        assert c.alphabet == (ord("a"), ord("b"))

    def test_unknown_mode_refused(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"ab")
        with pytest.raises(ValueError, match="byte/char/word"):
            load_text(p, "pixel")

    def test_single_symbol_alphabet(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"aa")
        c = load_text(p, "byte")
        assert c.sequences[0].tolist() == [[0, 0]]
        assert c.alphabet_size == 1

    def test_byte_decoding_reverses_encoding(self, tmp_path):
        data = b"the quick brown fox jumps over the lazy dog"
        p = write_bytes(tmp_path, "t.txt", data)
        c = load_text(p, "byte")
        (row,) = c.sequences[0]
        decoded = bytes(c.alphabet[i] for i in row)
        assert decoded == data

    def test_char_mode_utf8(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", "héhé!".encode("utf-8"))
        c = load_text(p, "char")
        assert c.alphabet == ("h", "é", "!")
        assert c.sequences[0].tolist() == [[0, 1, 0, 1, 2]]

    def test_char_mode_rejects_invalid_utf8(self, tmp_path):
        p = write_bytes(tmp_path, "t.bin", b"ok\xff\xfe")
        with pytest.raises(CorpusError, match="UTF-8"):
            load_text(p, "char")

    def test_char_mode_error_gives_the_position_in_the_file(self, tmp_path):
        # the 7-byte block ends on the truncated character
        p = write_bytes(tmp_path, "t.bin", b"abcdefghi\xe3b")
        with mock.patch.object(corpus_module, "_BLOCK", 7), \
                pytest.raises(CorpusError, match="position 9: invalid continuation byte"):
            load_text(p, "char")

    def test_word_mode_error_gives_the_position_in_the_file(self, tmp_path):
        # the tokens hold the bad bytes; the message names their file offset
        p = write_bytes(tmp_path, "t.bin", b"ab \xe3x cd\xff")
        with pytest.raises(CorpusError, match="position 3: invalid continuation byte"):
            load_text(p, "word")

    def test_word_mode_ascii_whitespace_no_casefold(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"The cat\tthe cat\nThe")
        c = load_text(p, "word")
        assert c.alphabet == ("The", "cat", "the")
        assert c.sequences[0].tolist() == [[0, 1, 2, 1, 0]]

    def test_empty_file_rejected(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"")
        for mode in ("byte", "char", "word"):
            with pytest.raises(CorpusError):
                load_text(p, mode)

    def test_whitespace_only_rejected_in_word_mode(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"  \n\t ")
        with pytest.raises(CorpusError, match="no words"):
            load_text(p, "word")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_text(tmp_path / "absent.txt", "byte")

    def test_loading_twice_is_identical(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"mississippi river")
        a = load_text(p, "byte")
        b = load_text(p, "byte")
        assert a.alphabet == b.alphabet
        assert np.array_equal(a.sequences[0], b.sequences[0])

    @pytest.mark.parametrize(
        "data, mode, dtype",
        [
            (b"abcab", "byte", np.uint8),
            ("h\u00e9h\u00e9!".encode("utf-8"), "char", np.uint8),
            (b"the cat the dog", "word", np.uint8),
            (" ".join(f"w{i}" for i in range(300)).encode(), "word", np.uint16),
        ],
    )
    def test_ids_stored_in_smallest_unsigned_dtype(self, tmp_path, data, mode, dtype):
        c = load_text(write_bytes(tmp_path, "t.txt", data), mode)
        assert c.sequences[0].dtype == dtype

    @settings(max_examples=200, deadline=None)
    # 300 distinct code points up to the last one take uint16 ids from a 1.1M-entry table
    @example(data="".join(chr(0x10FFFF - 7 * i) for i in range(300)).encode("utf-8"))
    # separators other than the six ASCII ones stay inside a word
    @example(data=" a\x1cb\x1d\tc\x1e\x1f\x85d\xa0e\u3000f\n\r\x0b\x0c a".encode("utf-8"))
    # no lone surrogates (category Cs) in the text branch: UTF-8 cannot encode
    # them, and arbitrary bytes come from the binary branch
    @given(data=st.binary(min_size=1, max_size=300) | st.text(
        st.sampled_from(ASCII_WS + "\x1c\x1d\x1e\x1f\x85\xa0\u3000")
        | st.characters(exclude_categories=("Cs",)),
        min_size=1, max_size=100).map(lambda t: t.encode("utf-8")))
    def test_ids_are_first_occurrence_ranks(self, tmp_path_factory, data):
        # 3-byte blocks (extended to a character or token boundary in char
        # and word mode) and 3-byte pieces of the byte scan make most inputs
        # cross block boundaries
        p = write_bytes(tmp_path_factory.mktemp("ranks"), "t.txt", data)
        units = {"byte": list(data)}
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            units["char"] = list(text)
            spaced = "".join(" " if u in ASCII_WS else u for u in text)
            units["word"] = [w for w in spaced.split(" ") if w]
        with mock.patch.multiple(corpus_module, _BLOCK=3, _BYTE_PIECE=3):
            for mode, seq in units.items():
                if not seq:
                    with pytest.raises(CorpusError, match="no words"):
                        load_text(p, mode)
                    continue
                c = load_text(p, mode)
                table = {}
                expected = [table.setdefault(u, len(table)) for u in seq]
                assert c.sequences[0].tolist() == [expected]
                assert c.sequences[0].dtype == np.min_scalar_type(len(table) - 1)
                assert c.alphabet == tuple(table)

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=300).map(lambda b: bytes(v & 0x7F for v in b) or b"a"))
    def test_ascii_char_mode_takes_the_byte_table(self, tmp_path_factory, data):
        # an all-ASCII text loads in char mode through byte mode's table,
        # with the ids, dtype and alphabet that the code point tables give
        p = write_bytes(tmp_path_factory.mktemp("ascii"), "t.txt", data)
        with mock.patch.multiple(corpus_module, _BLOCK=3, _BYTE_PIECE=3):
            ids, alphabet = corpus_module._char_ids(data)
            with mock.patch.object(corpus_module, "_char_ids", side_effect=AssertionError):
                c = load_text(p, "char")
        assert c.sequences[0].dtype == ids.dtype
        assert c.sequences[0].tolist() == [ids.tolist()]
        assert c.alphabet == alphabet

    def test_byte_mode_holds_the_file_and_its_ids_only(self, tmp_path):
        # a 1 MB text of 61 byte values, one of them first seen in the last
        # block, so every block is scanned: the file and its translated ids
        # take 2 MB, and a block's temporaries 64 KB each
        data = np.random.default_rng(0).integers(32, 92, 1 << 20).astype(np.uint8)
        data[-10] = 200
        p = write_bytes(tmp_path, "t.txt", data.tobytes())
        tracemalloc.start()
        try:
            c = load_text(p, "byte")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_symbols == data.size and c.alphabet_size == 61
        assert c.alphabet[-1] == 200
        assert peak < 2.5 * data.size

    def test_char_mode_holds_no_copy_of_the_whole_text(self, tmp_path):
        # 500k characters of 1 to 4 bytes: the file (640 KB) and the uint8 ids
        # take 1.1 MB, and one block of 64 KB decoded, its UTF-32 copy and its
        # code points' lookups up to 0.6 MB; the whole text decoded takes
        # 2 MB, and its UTF-32 copy 2 MB more
        rng = np.random.default_rng(0)
        chars = rng.choice(list("abcdefghij klmnopqrstuvwxyz\u00e9\u00df\u4e2d\u6587\U0001f600"),
                           500_000)
        p = write_bytes(tmp_path, "t.txt", "".join(chars).encode("utf-8"))
        del chars
        tracemalloc.start()
        try:
            c = load_text(p, "char")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_symbols == 500_000 and c.alphabet_size == 32
        assert peak < 3e6

    @pytest.mark.parametrize("last", ["z", "\u00e9"], ids=["ascii", "non-ascii"])
    def test_char_mode_holds_the_ids_once(self, tmp_path, last):
        # 2M characters, ASCII but the last one or not: the file and the
        # uint8 ids take 2 MB each, and a block's temporaries under 1 MB; ids
        # gathered per block and then joined would hold them twice, 2 MB more
        rng = np.random.default_rng(0)
        data = rng.choice(np.frombuffer(b"abcdefghij klmnopqrstuvwxyz", np.uint8), 1_999_999)
        p = write_bytes(tmp_path, "t.txt", data.tobytes() + last.encode("utf-8"))
        del data
        tracemalloc.start()
        try:
            c = load_text(p, "char")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_symbols == 2_000_000 and c.sequences[0].dtype == np.uint8
        assert peak < 2 * 2_000_000 + 1e6

    def test_word_mode_holds_no_object_per_token(self, tmp_path):
        # the file and uint32 ids of 200k tokens take about 2.3 MB; one bytes
        # object per token alone would take 7.4 MB
        rng = np.random.default_rng(0)
        words = [f"w{v}" for v in rng.integers(0, 2000, 200_000)]
        p = write_bytes(tmp_path, "t.txt", " ".join(words).encode())
        del words
        tracemalloc.start()
        try:
            c = load_text(p, "word")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_symbols == 200_000 and c.alphabet_size == 2000
        assert peak < 5e6

    def test_word_mode_holds_no_decoded_copy_of_the_text(self, tmp_path):
        # 250k tokens, a third of them with a 4-byte character: the 2.2 MB
        # file, its uint32 ids and their block copies take about 4.9 MB; the
        # whole text decoded to validate it took 12.9 MB
        rng = np.random.default_rng(0)
        words = [f"w{i}\U0001f600" if i % 3 == 0 else f"mot{i}" for i in range(3000)]
        data = " ".join(words[t] for t in rng.integers(0, 3000, 250_000)).encode()
        p = write_bytes(tmp_path, "t.txt", data)
        tracemalloc.start()
        try:
            c = load_text(p, "word")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_symbols == 250_000 and c.alphabet_size == 3000
        assert peak < 3 * len(data)

    def test_small_dtype_leaves_decay_curve_unchanged(self, tmp_path):
        from midecay import EstimatorConfig, decay_curve, default_lag_grid

        rng = np.random.default_rng(3)
        words = [f"w{v}" for v in rng.zipf(1.5, 6000)]
        p = write_bytes(tmp_path, "t.txt", " ".join(words).encode())
        c = load_text(p, "word")
        wide = Corpus((c.sequences[0].astype(np.int64),), c.alphabet_size, "word")
        grid, config = default_lag_grid(100), EstimatorConfig(min_pair_count=1)
        a, b = decay_curve(c, grid, config), decay_curve(wide, grid, config)
        assert c.sequences[0].dtype == np.uint16
        assert a.lags.tolist() == b.lags.tolist()
        assert a.mi.tolist() == b.mi.tolist()
        assert a.pairs.tolist() == b.pairs.tolist()


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 6, dtype=np.uint8).reshape(2, 6)
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images, 2, 3)
        back, rows, cols = read_idx_images(p)
        assert (rows, cols) == (2, 3)
        assert np.array_equal(back, images)

    @pytest.mark.parametrize("shape", [(784,), (3, 783), (2, 28, 28)])
    def test_write_refuses_images_of_another_shape(self, tmp_path, shape):
        p = tmp_path / "imgs.idx"
        with pytest.raises(ValueError, match="shape"):
            write_idx_images(p, np.zeros(shape, dtype=np.uint8), 28, 28)
        assert not p.exists()

    def test_load_as_corpus(self, tmp_path):
        images = np.zeros((3, 784), dtype=np.uint8)
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images, 28, 28)
        c = load_idx_images(p)
        (stack,) = c.sequences  # one (n, L) stack, not one array per image
        assert stack.shape == (3, 784) and stack.dtype == np.uint8
        assert (c.n_sequences, c.max_length, c.n_symbols) == (3, 784, 3 * 784)
        assert c.alphabet_size == 256
        assert c.mode == "pixel"

    def test_load_keeps_every_pixel_value(self, tmp_path):
        # uint8 pixels with K = 256 skip the id range scan; the ids are the bytes
        images = np.arange(3 * 256, dtype=np.uint8).reshape(3, 256)[:, ::-1]
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images, 16, 16)
        c = load_idx_images(p)
        (stack,) = c.sequences
        assert stack.dtype == np.uint8 and c.n_sequences == 3
        assert np.array_equal(stack, images)

    def test_minimal_single_pixel_file(self, tmp_path):
        p = tmp_path / "one.idx"
        write_idx_images(p, np.zeros((1, 1), dtype=np.uint8), 1, 1)
        c = load_idx_images(p)
        (stack,) = c.sequences
        assert stack.dtype == np.uint8 and c.n_sequences == 1
        assert stack.tolist() == [[0]]

    def test_row_major_flattening(self, tmp_path):
        # single nonzero pixel at row r, col c must land at index 28*r + c
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 5, 11] = 200
        p = tmp_path / "imgs.idx"
        write_idx_images(p, img.reshape(1, 784), 28, 28)
        c = load_idx_images(p)
        (stack,) = c.sequences
        assert stack.shape == (1, 784) and stack.dtype == np.uint8 and c.n_sequences == 1
        assert np.flatnonzero(stack[0]).tolist() == [28 * 5 + 11]

    def test_loaded_stack_is_a_read_only_view_of_the_file_bytes(self, tmp_path):
        p = tmp_path / "imgs.idx"
        write_idx_images(p, np.arange(12, dtype=np.uint8).reshape(3, 4), 2, 2)
        (stack,) = load_idx_images(p).sequences
        assert not stack.flags.writeable
        base = stack
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes) and base[16:] == bytes(range(12))

    @pytest.mark.parametrize("images", [
        np.array([[0, 300]]),  # would be written as 44
        np.array([[-1, 0]]),  # as 255
        np.array([[0.0, 1.7]]),  # as 1
        np.array([[True, False]]),
    ])
    def test_write_rejects_values_that_are_not_pixels(self, tmp_path, images):
        p = tmp_path / "imgs.idx"
        with pytest.raises(ValueError, match="pixel values"):
            write_idx_images(p, images, 1, 2)
        assert not p.exists()

    @pytest.mark.parametrize("images, rows, cols", [
        (np.zeros((0, 4), np.uint8), 2, 2),  # no image
        (np.zeros((3, 0), np.uint8), 0, 5),  # empty images
    ])
    def test_write_rejects_sets_that_read_refuses(self, tmp_path, images, rows, cols):
        p = tmp_path / "imgs.idx"
        with pytest.raises(ValueError, match="degenerate dimensions"):
            write_idx_images(p, images, rows, cols)
        assert list(tmp_path.iterdir()) == []

    def test_write_accepts_wide_ids_in_range(self, tmp_path):
        p = tmp_path / "imgs.idx"
        write_idx_images(p, np.array([[0, 255], [7, 9]], dtype=np.int64), 1, 2)
        assert read_idx_images(p)[0].tolist() == [[0, 255], [7, 9]]

    def test_bad_magic(self, tmp_path):
        payload = (0x00000801).to_bytes(4, "big") + (1).to_bytes(4, "big") * 3 + b"\x00"
        p = tmp_path / "bad.idx"
        p.write_bytes(payload)
        with pytest.raises(CorpusError, match="magic"):
            read_idx_images(p)

    def test_truncated_payload(self, tmp_path):
        header = (0x00000803).to_bytes(4, "big") + b"".join(
            n.to_bytes(4, "big") for n in (2, 2, 2)
        )
        p = tmp_path / "trunc.idx"
        p.write_bytes(header + b"\x00" * 5)  # header declares 8 bytes
        with pytest.raises(CorpusError, match="payload"):
            read_idx_images(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(b"\x00\x00\x08")
        with pytest.raises(CorpusError, match="header"):
            read_idx_images(p)


class TestCorpusInvariants:
    def test_symbol_id_range_enforced(self):
        with pytest.raises(ValueError, match="alphabet_size"):
            Corpus(sequences=(np.array([0, 3]),), alphabet_size=2, mode="byte")

    # every dtype that can hold an id outside [0, K) is scanned, whatever K is
    @pytest.mark.parametrize("dtype, ids, k", [
        (np.int16, [0, 256], 256),
        (np.int16, [-1, 3], 256),
        (np.int64, [0, 256], 256),
        (np.int64, [-5, 0], 10),
        (np.int8, [-1, 0], 256),
        (np.uint8, [0, 250], 200),
        (np.uint16, [256, 0], 256),
    ])
    def test_out_of_range_id_rejected_in_any_dtype(self, dtype, ids, k):
        seqs = (np.zeros(4, dtype=np.uint8), np.array(ids, dtype=dtype))
        with pytest.raises(ValueError, match="alphabet_size"):
            Corpus(sequences=seqs, alphabet_size=k, mode="word")

    @pytest.mark.parametrize("alphabet", [("a", "b"), ("a", "b", "c", "d")])
    def test_alphabet_of_another_size_rejected(self, alphabet):
        with pytest.raises(ValueError, match="alphabet_size"):
            Corpus((np.array([0, 1, 2]),), 3, "char", alphabet=alphabet)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            Corpus(sequences=(np.array([], dtype=int),), alphabet_size=1, mode="byte")

    @pytest.mark.parametrize("sequences, k, mode, message", [
        ((np.array([0, 1]),), 2, "pixels", "unknown mode"),
        ((np.array([0, 0]),), 0, "byte", "alphabet_size must be >= 1"),
        ((), 2, "byte", "at least one sequence"),
        ((np.array([0.0, 1.0]),), 2, "byte", "integer symbol ids"),
    ])
    def test_invalid_corpus_refused(self, sequences, k, mode, message):
        with pytest.raises(ValueError, match=message):
            Corpus(sequences, k, mode)

    def test_narrow_text_and_stack_stored_uncopied(self):
        text = np.arange(10, dtype=np.uint8) % 3
        stack = np.arange(20, dtype=np.uint8).reshape(4, 5) % 5
        (row,) = Corpus((text,), 3, "byte").sequences
        assert row.shape == (1, 10) and np.shares_memory(row, text)
        (rows,) = Corpus((stack,), 5, "pixel").sequences
        assert rows is stack

    @pytest.mark.parametrize("k, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16),
                                          (70_000, np.uint32)])
    def test_ids_stored_in_the_alphabets_narrowest_dtype(self, k, dtype):
        ids = np.array([0, 1, 1, 0], dtype=np.int64)
        (group,) = Corpus((ids,), k, "word").sequences
        assert group.dtype == dtype and group.tolist() == [[0, 1, 1, 0]]

    def test_equal_length_entries_form_one_group_in_first_seen_order(self):
        a, b, c = np.arange(5) % 2, np.ones(7, np.int16), np.zeros(5, np.uint64)
        d, e = np.zeros((2, 7), np.uint8), np.ones(3, np.int8)
        corpus = Corpus((a, b, c, d, e), 2, "byte")
        assert [g.shape for g in corpus.sequences] == [(2, 5), (3, 7), (1, 3)]
        assert all(g.dtype == np.uint8 for g in corpus.sequences)
        assert corpus.sequences[0].tolist() == [a.tolist(), c.tolist()]
        assert corpus.sequences[1].tolist() == [b.tolist(), *d.tolist()]
        assert (corpus.n_sequences, corpus.max_length, corpus.n_symbols) == (6, 7, 34)

    def test_stack_entries_counted_by_row(self):
        # an entry is one 1-D sequence or an (n, L) stack of n rows
        c = Corpus(sequences=(np.zeros((3, 5), np.uint8), np.arange(7) % 2), alphabet_size=2,
                   mode="pixel")
        assert (c.n_sequences, c.max_length, c.n_symbols) == (4, 7, 22)

    @pytest.mark.parametrize("entry", [np.zeros((0, 4), np.uint8), np.zeros((2, 0), np.uint8),
                                       np.zeros((2, 2, 2), np.uint8)])
    def test_empty_or_deeper_stack_rejected(self, entry):
        with pytest.raises(ValueError, match="stack"):
            Corpus(sequences=(entry,), alphabet_size=1, mode="pixel")

    def test_stack_id_range_enforced(self):
        stack = np.zeros((3, 4), np.int16)
        stack[2, 3] = 9
        with pytest.raises(ValueError, match="alphabet_size"):
            Corpus(sequences=(stack,), alphabet_size=9, mode="pixel")

    def test_byte_alphabet_cap(self):
        with pytest.raises(ValueError, match="256"):
            Corpus(sequences=(np.array([0]),), alphabet_size=300, mode="byte")

    def test_word_alphabet_may_exceed_256(self):
        c = Corpus(sequences=(np.array([0, 299]),), alphabet_size=300, mode="word")
        assert c.alphabet_size == 300


def position_map(seed, length, inverse=False):
    """The position map permute applies to rows of a length: output
    position i takes input position p[i], read off a permuted 0..length-1."""
    row = Corpus(sequences=(np.arange(length),), alphabet_size=length, mode="word")
    return permute(row, seed, inverse).sequences[0][0]


class TestPermutation:
    def test_golden_permutations(self):
        # pins the generator choice (numpy default_rng Fisher-Yates)
        assert position_map(0, 8).tolist() == [2, 4, 3, 6, 5, 0, 1, 7]
        assert position_map(7, 8).tolist() == [0, 6, 7, 2, 4, 5, 1, 3]
        assert position_map(12345, 784)[:8].tolist() == [
            495, 585, 639, 27, 231, 200, 636, 13,
        ]

    def test_permutation_is_bijection(self):
        p = position_map(99, 784)
        assert sorted(p.tolist()) == list(range(784))

    def test_same_seed_same_output(self):
        c = Corpus(sequences=(np.arange(16) % 4,), alphabet_size=4, mode="byte")
        a = permute(c, 5)
        b = permute(c, 5)
        assert np.array_equal(a.sequences[0], b.sequences[0])

    def test_round_trip_inverse(self):
        c = Corpus(
            sequences=(np.arange(32) % 7, (np.arange(32) * 3) % 7),
            alphabet_size=7,
            mode="byte",
        )
        back = permute(permute(c, 17), 17, inverse=True)
        for orig, restored in zip(c.sequences, back.sequences):
            assert np.array_equal(orig, restored)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(3)
        c = Corpus(sequences=(rng.integers(0, 9, 50),), alphabet_size=9, mode="byte")
        p = permute(c, 8)
        assert p.sequences[0].shape == c.sequences[0].shape == (1, 50)
        assert sorted(p.sequences[0][0].tolist()) == sorted(c.sequences[0][0].tolist())

    def test_length_mismatch(self):
        # no single position permutation fits rows of two lengths
        c = Corpus(sequences=(np.array([0, 1, 0]), np.array([1, 0, 1, 1])),
                   alphabet_size=2, mode="byte")
        with pytest.raises(CorpusError, match="lengths 3, 4"):
            permute(c, 0)

    def test_negative_seed_refused(self):
        c = Corpus(sequences=(np.array([0, 1, 0]),), alphabet_size=2, mode="byte")
        with pytest.raises(ValueError):
            permute(c, -1)

    def test_stack_permuted_as_its_rows(self):
        # one gather per group: a stack's rows are permuted like 1-D rows, and
        # the length permuted is that of a row, not the row count
        stack = np.random.default_rng(4).integers(0, 5, (4, 9)).astype(np.uint8)
        (out,) = permute(Corpus((stack,), 5, "pixel"), 6).sequences
        rows = [permute(Corpus((row,), 5, "pixel"), 6).sequences[0] for row in stack]
        assert out.shape == (4, 9) and out.dtype == np.uint8 and out.flags.c_contiguous
        assert all(row.shape == (1, 9) for row in rows)
        assert np.array_equal(out, np.concatenate(rows))
        back = permute(Corpus((out,), 5, "pixel"), 6, inverse=True)
        assert np.array_equal(back.sequences[0], stack)
        with pytest.raises(CorpusError, match="lengths 9, 4"):
            permute(Corpus((stack, stack[:, :4]), 5, "pixel"), 6)

    def test_seed_recorded_in_meta(self):
        c = Corpus(sequences=(np.array([0, 1]),), alphabet_size=2, mode="byte")
        p = permute(c, 42)
        assert "seed=42" in p.source_meta

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 128))
    def test_round_trip_property(self, seed, length):
        p = position_map(seed, length)
        q = position_map(seed, length, inverse=True)
        ident = np.arange(length)
        assert np.array_equal(p[q], ident)
        assert np.array_equal(q[p], ident)
