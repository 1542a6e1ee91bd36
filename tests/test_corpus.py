"""Corpus loading, tokenization, IDX parsing, and permutation behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midecay import (
    Corpus,
    CorpusError,
    PermutationSpec,
    load_idx_images,
    load_text,
    permute,
    read_idx_images,
    write_idx_images,
)


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return p


class TestLoadText:
    def test_byte_mode_first_occurrence_ids(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"abab")
        c = load_text(p, "byte")
        assert len(c.sequences) == 1
        assert c.sequences[0].tolist() == [0, 1, 0, 1]
        assert c.alphabet_size == 2
        assert c.alphabet == (ord("a"), ord("b"))

    def test_single_symbol_alphabet(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"aa")
        c = load_text(p, "byte")
        assert c.sequences[0].tolist() == [0, 0]
        assert c.alphabet_size == 1

    def test_byte_decoding_reverses_encoding(self, tmp_path):
        data = b"the quick brown fox jumps over the lazy dog"
        p = write_bytes(tmp_path, "t.txt", data)
        c = load_text(p, "byte")
        decoded = bytes(c.alphabet[i] for i in c.sequences[0])
        assert decoded == data

    def test_char_mode_utf8(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", "héhé!".encode("utf-8"))
        c = load_text(p, "char")
        assert c.alphabet == ("h", "é", "!")
        assert c.sequences[0].tolist() == [0, 1, 0, 1, 2]

    def test_char_mode_rejects_invalid_utf8(self, tmp_path):
        p = write_bytes(tmp_path, "t.bin", b"ok\xff\xfe")
        with pytest.raises(CorpusError, match="UTF-8"):
            load_text(p, "char")

    def test_word_mode_ascii_whitespace_no_casefold(self, tmp_path):
        p = write_bytes(tmp_path, "t.txt", b"The cat\tthe cat\nThe")
        c = load_text(p, "word")
        assert c.alphabet == ("The", "cat", "the")
        assert c.sequences[0].tolist() == [0, 1, 2, 1, 0]

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
    @given(data=st.binary(min_size=1, max_size=300) | st.text(min_size=1, max_size=100).map(
        lambda t: t.encode("utf-8")))
    def test_ids_are_first_occurrence_ranks(self, tmp_path_factory, data):
        p = write_bytes(tmp_path_factory.mktemp("ranks"), "t.txt", data)
        units = [list(data)]
        try:
            units.append(list(data.decode("utf-8")))
        except UnicodeDecodeError:
            pass
        for mode, seq in zip(("byte", "char"), units):
            c = load_text(p, mode)
            table = {}
            expected = [table.setdefault(u, len(table)) for u in seq]
            assert c.sequences[0].tolist() == expected
            assert c.sequences[0].dtype == np.min_scalar_type(len(table) - 1)
            assert c.alphabet == tuple(table)

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

    def test_load_as_corpus(self, tmp_path):
        images = np.zeros((3, 784), dtype=np.uint8)
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images, 28, 28)
        c = load_idx_images(p)
        assert len(c.sequences) == 3
        assert all(s.shape[0] == 784 for s in c.sequences)
        assert c.alphabet_size == 256
        assert c.mode == "pixel"

    def test_load_keeps_every_pixel_value(self, tmp_path):
        # uint8 pixels with K = 256 skip the id range scan; the ids are the bytes
        images = np.arange(3 * 256, dtype=np.uint8).reshape(3, 256)[:, ::-1]
        p = tmp_path / "imgs.idx"
        write_idx_images(p, images, 16, 16)
        c = load_idx_images(p)
        assert [s.dtype for s in c.sequences] == [np.uint8] * 3
        assert np.array_equal(np.stack(c.sequences), images)

    def test_minimal_single_pixel_file(self, tmp_path):
        p = tmp_path / "one.idx"
        write_idx_images(p, np.zeros((1, 1), dtype=np.uint8), 1, 1)
        c = load_idx_images(p)
        assert len(c.sequences) == 1
        assert c.sequences[0].tolist() == [0]

    def test_row_major_flattening(self, tmp_path):
        # single nonzero pixel at row r, col c must land at index 28*r + c
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 5, 11] = 200
        p = tmp_path / "imgs.idx"
        write_idx_images(p, img.reshape(1, 784), 28, 28)
        c = load_idx_images(p)
        assert int(np.nonzero(c.sequences[0])[0][0]) == 28 * 5 + 11

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

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            Corpus(sequences=(np.array([], dtype=int),), alphabet_size=1, mode="byte")

    def test_byte_alphabet_cap(self):
        with pytest.raises(ValueError, match="256"):
            Corpus(sequences=(np.array([0]),), alphabet_size=300, mode="byte")

    def test_word_alphabet_may_exceed_256(self):
        c = Corpus(sequences=(np.array([0, 299]),), alphabet_size=300, mode="word")
        assert c.alphabet_size == 300


class TestPermutation:
    def test_golden_permutations(self):
        # pins the generator choice (numpy default_rng Fisher-Yates)
        assert PermutationSpec(0, 8).permutation().tolist() == [2, 4, 3, 6, 5, 0, 1, 7]
        assert PermutationSpec(7, 8).permutation().tolist() == [0, 6, 7, 2, 4, 5, 1, 3]
        assert PermutationSpec(12345, 784).permutation()[:8].tolist() == [
            495, 585, 639, 27, 231, 200, 636, 13,
        ]

    def test_permutation_is_bijection(self):
        p = PermutationSpec(99, 784).permutation()
        assert sorted(p.tolist()) == list(range(784))

    def test_same_seed_same_output(self):
        c = Corpus(sequences=(np.arange(16) % 4,), alphabet_size=4, mode="byte")
        spec = PermutationSpec(5, 16)
        a = permute(c, spec)
        b = permute(c, spec)
        assert np.array_equal(a.sequences[0], b.sequences[0])

    def test_round_trip_inverse(self):
        c = Corpus(
            sequences=(np.arange(32) % 7, (np.arange(32) * 3) % 7),
            alphabet_size=7,
            mode="byte",
        )
        spec = PermutationSpec(17, 32)
        back = permute(permute(c, spec), spec, inverse=True)
        for orig, restored in zip(c.sequences, back.sequences):
            assert np.array_equal(orig, restored)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(3)
        c = Corpus(sequences=(rng.integers(0, 9, 50),), alphabet_size=9, mode="byte")
        p = permute(c, PermutationSpec(8, 50))
        assert sorted(p.sequences[0].tolist()) == sorted(c.sequences[0].tolist())

    def test_length_mismatch(self):
        c = Corpus(sequences=(np.array([0, 1, 0]),), alphabet_size=2, mode="byte")
        with pytest.raises(CorpusError, match="length"):
            permute(c, PermutationSpec(0, 4))

    def test_seed_recorded_in_meta(self):
        c = Corpus(sequences=(np.array([0, 1]),), alphabet_size=2, mode="byte")
        p = permute(c, PermutationSpec(42, 2))
        assert "seed=42" in p.source_meta

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 128))
    def test_round_trip_property(self, seed, length):
        spec = PermutationSpec(seed, length)
        p = spec.permutation()
        q = spec.inverse_permutation()
        ident = np.arange(length)
        assert np.array_equal(p[q], ident)
        assert np.array_equal(q[p], ident)
