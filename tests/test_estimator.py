"""Pair counting, plug-in MI, decay curves, lag grids, CSV round trips."""

import contextlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midecay import (
    Corpus,
    DecayCurve,
    EmptyLagError,
    EstimationError,
    EstimatorConfig,
    LagGrid,
    curve_from_csv,
    curve_to_csv,
    decay_curve,
    default_lag_grid,
    permute,
)
from midecay import estimator
from tests.conftest import (
    corpus_from_lists,
    joint_dict,
    lag_mi,
    markov_chain,
    markov_mi,
    naive_mi,
    naive_mi_miller_madow,
    naive_pair_counts,
    pattern_corpus,
    plan_cells,
    tree_forest,
    tree_mi,
)

def assert_same_csv(tmp_path, curve, other):
    """The two curves' CSV files are byte-identical."""
    curve_to_csv(curve, tmp_path / "curve.csv")
    curve_to_csv(other, tmp_path / "other.csv")
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "other.csv").read_bytes()


# value computed with the hand-enumerated oracle over the 7 lag-1 pairs of
# a,b,a,a,b,b,a,b before the implementation existed
MI_ABAABBAB = 0.08878194993480426


@st.composite
def small_corpora(draw):
    k = draw(st.integers(1, 5))
    n_seq = draw(st.integers(1, 3))
    seqs = [
        draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=64))
        for _ in range(n_seq)
    ]
    if n_seq > 1 and draw(st.booleans()):  # equal lengths form one stacked group
        seqs = [s[: min(len(s) for s in seqs)] for s in seqs]
    max_len = max(len(s) for s in seqs)
    d = draw(st.integers(1, max_len - 1))
    return seqs, k, d


ONE_PAIR = EstimatorConfig(min_pair_count=1)


class PoolSpy:
    """Stands in for estimator._pooled while patch() is active: records each
    call's worker count and the children forked (through a spy on os.fork as
    estimator sees it); every process, the caller or a child, appends its pid
    and tracemalloc peak to a log after each batch it counts."""

    def __init__(self, tmp_path):
        self.real, self.fork = estimator._pooled, os.fork
        self.workers, self.children = [], []
        self.log = tmp_path / f"pool-{id(self)}.log"

    def __call__(self, fn, items, workers):
        self.workers.append(workers)

        def traced(item):
            result = fn(item)
            peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
            with open(self.log, "a") as f:
                f.write(f"{os.getpid()} {peak}\n")
            return result

        return self.real(traced, items, workers)

    def forked(self):
        pid = self.fork()
        if pid:
            self.children.append(pid)
        return pid

    @contextlib.contextmanager
    def patch(self):
        with mock.patch.object(estimator, "_pooled", self), \
                mock.patch.object(estimator.os, "fork", self.forked):
            yield

    def counted(self) -> list[tuple[int, int]]:
        """(pid, tracemalloc peak) after each batch, from every process."""
        lines = self.log.read_text().splitlines() if self.log.exists() else []
        return [tuple(int(v) for v in line.split()) for line in lines]

    def peaks(self) -> dict[int, int]:
        """Each process's highest logged tracemalloc peak."""
        peaks = {}
        for pid, peak in self.counted():
            peaks[pid] = max(peak, peaks.get(pid, 0))
        return peaks

    def assert_ran(self, workers):
        """One curve on workers processes: the caller, which counted a batch,
        and workers - 1 forked children, each reaped."""
        assert self.workers == [workers]
        assert len(self.children) == workers - 1
        pids = {pid for pid, _ in self.counted()}
        assert os.getpid() in pids and pids <= {os.getpid(), *self.children}
        assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_serial_csv(tmp_path, curve, c, grid, config=None):
    """curve's CSV is byte-identical to that of the curve counted on one CPU."""
    with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0}):
        serial = decay_curve(c, grid, config)
    curve_to_csv(serial, tmp_path / "serial.csv")
    curve_to_csv(curve, tmp_path / "curve.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "curve.csv").read_bytes()
    assert curve.meta == serial.meta


class TestCountPairs:
    def test_alternation_counts(self):
        c = corpus_from_lists([[0, 1, 0, 1]], 2)
        assert joint_dict(c, 1) == {(0, 1): 2, (1, 0): 1}
        assert decay_curve(c, LagGrid((1,)), ONE_PAIR).pairs.tolist() == [3]

    def test_no_cross_boundary_pairs(self):
        c = corpus_from_lists([[0, 1], [1, 0]], 2)
        assert joint_dict(c, 1) == {(0, 1): 1, (1, 0): 1}
        assert decay_curve(c, LagGrid((1,)), ONE_PAIR).pairs.tolist() == [2]

    def test_lag_too_large_for_every_sequence(self):
        c = corpus_from_lists([[0, 1], [1, 0]], 2)
        assert joint_dict(c, 5) == {}
        with pytest.raises(EmptyLagError):
            decay_curve(c, LagGrid((5,)), ONE_PAIR)

    def test_lag_too_large_on_equal_length_stack(self):
        # equal-length corpora are counted as one stacked length group
        c = corpus_from_lists([[0, 1, 0]] * 4, 2)
        assert joint_dict(c, 3) == {}
        with pytest.raises(EmptyLagError):
            decay_curve(c, LagGrid((3,)), ONE_PAIR)

    def test_equal_length_entries_of_mixed_dtypes(self):
        # uint64 and int64 entries of one length are stored as one uint8
        # group, not promoted to float64 ids that cannot index
        seqs = (np.array([0, 1, 1, 0], np.uint64), np.array([1, 0, 0, 1], np.int64))
        c = Corpus(seqs, 2, "byte")
        assert joint_dict(c, 1) == naive_pair_counts(seqs, 1)
        assert decay_curve(c, LagGrid((1,)), ONE_PAIR).pairs.tolist() == [6]

    def test_lag_covered_by_longest_sequence_only(self):
        c = corpus_from_lists([[0, 1], [0, 0, 0, 1]], 2)
        assert joint_dict(c, 3) == {(0, 1): 1}

    def test_invalid_lag(self):
        c = corpus_from_lists([[0, 1]], 2)
        with pytest.raises(ValueError):
            decay_curve(c, LagGrid((0,)), ONE_PAIR)

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_total_pairs_matches_length_formula(self, case):
        seqs, k, d = case
        c = corpus_from_lists(seqs, k)
        expected = sum(max(0, len(s) - d) for s in seqs)
        if expected == 0:
            with pytest.raises(EmptyLagError):
                decay_curve(c, LagGrid((d,)), ONE_PAIR)
            return
        assert decay_curve(c, LagGrid((d,)), ONE_PAIR).pairs.tolist() == [expected]
        assert sum(joint_dict(c, d).values()) == expected

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_counts_match_naive_enumeration(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        c = corpus_from_lists(seqs, k)
        assert joint_dict(c, d) == joint
        if not joint:
            with pytest.raises(EmptyLagError):
                decay_curve(c, LagGrid((d,)), ONE_PAIR)


class TestMi:
    def test_alternation_is_ln2(self):
        # odd length makes the two pair types exactly balanced
        n = 100001
        seq = np.arange(n) % 2
        c = corpus_from_lists([seq], 2)
        assert abs(lag_mi(c, 1) - math.log(2)) < 1e-12

    def test_constant_sequence_zero_mi(self):
        c = corpus_from_lists([[0] * 500], 1)
        for d in (1, 7, 100):
            assert lag_mi(c, d) == 0.0

    def test_hand_enumerated_eight_symbol_value(self):
        c = corpus_from_lists([[0, 1, 0, 0, 1, 1, 0, 1]], 2)
        assert abs(lag_mi(c, 1) - MI_ABAABBAB) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(small_corpora())
    def test_oracle_equivalence(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        assert abs(lag_mi(c, d) - max(0.0, naive_mi(joint))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_miller_madow_matches_oracle(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        mi = lag_mi(c, d, bias_correction="miller_madow")
        assert abs(mi - naive_mi_miller_madow(joint)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_nonnegativity_and_upper_bound(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        mi = lag_mi(c, d)
        kx = len({x for x, _ in joint})
        ky = len({y for _, y in joint})
        assert mi >= 0.0
        assert mi <= math.log(min(kx, ky)) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(small_corpora(), st.randoms())
    def test_relabeling_invariance(self, case, rand):
        seqs, k, d = case
        if not naive_pair_counts(seqs, d):
            return
        perm = list(range(k))
        rand.shuffle(perm)
        relabeled = [[perm[v] for v in s] for s in seqs]
        a = lag_mi(corpus_from_lists(seqs, k), d)
        b = lag_mi(corpus_from_lists(relabeled, k), d)
        assert abs(a - b) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(small_corpora())
    def test_reversal_invariance(self, case):
        seqs, k, d = case
        if not naive_pair_counts(seqs, d):
            return
        reversed_seqs = [list(reversed(s)) for s in seqs]
        a = lag_mi(corpus_from_lists(seqs, k), d)
        b = lag_mi(corpus_from_lists(reversed_seqs, k), d)
        assert abs(a - b) < 1e-12

    def test_iid_uniform_mi_is_small_plug_in_bias(self):
        rng = np.random.default_rng(2024)
        c = corpus_from_lists([rng.integers(0, 4, 100000)], 4)
        mi = lag_mi(c, 1)
        floor = (4 - 1) ** 2 / (2 * (100000 - 1))
        assert 0.0 < mi < 0.01
        assert mi < 20 * floor  # same order as the theoretical plug-in bias


class TestDecayCurve:
    def test_deterministic_cycle_flat_at_ln3(self):
        c = pattern_corpus([0, 1, 2], 3, n_symbols=30001)
        grid = LagGrid((1, 2, 3, 6, 9))
        curve = decay_curve(c, grid, EstimatorConfig())
        # every lag of a pure cycle is a bijective map: MI == ln 3 throughout
        # (up to the partial trailing pattern at this sequence length)
        for value in curve.mi:
            assert abs(value - math.log(3)) < 1e-8

    def test_min_pair_count_drops_and_reports(self):
        c = corpus_from_lists([np.arange(1500) % 4], 4)
        grid = LagGrid((1, 600, 1400))
        curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1000))
        assert curve.lags.tolist() == [1]
        skipped = {s["lag"]: s["pair_count"] for s in curve.meta["skipped_lags"]}
        assert skipped == {600: 900, 1400: 100}

    def test_all_lags_empty_is_error(self):
        c = corpus_from_lists([[0, 1, 0]], 2)
        with pytest.raises(EmptyLagError):
            decay_curve(c, LagGrid((5, 9)), EstimatorConfig(min_pair_count=1))

    def test_all_lags_below_threshold_is_error(self):
        c = corpus_from_lists([[0, 1, 0, 1, 1]], 2)
        with pytest.raises(EstimationError):
            decay_curve(c, LagGrid((1, 2)), EstimatorConfig(min_pair_count=1000))

    def test_matches_per_lag_composition_bit_exact(self):
        rng = np.random.default_rng(9)
        c = corpus_from_lists([rng.integers(0, 5, 3000)], 5)
        grid = default_lag_grid(100)
        curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
        for d, mi in zip(curve.lags, curve.mi):
            assert mi == lag_mi(c, int(d))

    def test_evaluation_order_cannot_matter(self):
        # per-lag values are pure functions of (corpus, lag); computing the
        # grid in shuffled order and re-sorting is bit-identical
        rng = np.random.default_rng(10)
        c = corpus_from_lists([rng.integers(0, 3, 2000)], 3)
        grid = default_lag_grid(64)
        curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
        shuffled = list(grid.lags)
        rng.shuffle(shuffled)
        values = {d: lag_mi(c, d) for d in shuffled}
        assert [values[int(d)] for d in curve.lags] == curve.mi.tolist()

    def test_multi_sequence_pooling_matches_naive(self):
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 4, rng.integers(5, 40)).tolist() for _ in range(10)]
        c = corpus_from_lists(seqs, 4)
        for d in (1, 3, 17):
            expected = max(0.0, naive_mi(naive_pair_counts(seqs, d)))
            assert abs(lag_mi(c, d) - expected) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_corpora(), st.sampled_from([1, 5, estimator._CHUNK]))
    def test_bincount_and_unique_reductions_agree(self, case, chunk):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        runs = []
        # K'*K' <= limit reduces with bincount, one below it with unique, where
        # K' counts the symbols that occur
        occurring = len({v for s in seqs for v in s})
        for limit in (occurring**2, occurring**2 - 1):
            with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", limit), \
                    mock.patch.object(estimator, "_CHUNK", chunk), \
                    mock.patch.object(estimator, "_SPARSE_CHUNK", chunk):
                groups, symbols = estimator._ranked_groups(c)
                (cells,) = plan_cells(groups, symbols.size, (d,))
                assert joint_dict(c, d) == joint
                curve = decay_curve(c, LagGrid((d,)), ONE_PAIR)
            runs.append((cells, curve.mi.tolist()))
        (dense, dense_mi), (sparse, sparse_mi) = runs
        for a, b in zip(dense, sparse):  # xs, ys, counts, in (x, y) order
            assert a.tolist() == b.tolist()
        assert dense[2].dtype == sparse[2].dtype == np.int64
        assert dense_mi == sparse_mi
        assert abs(dense_mi[0] - max(0.0, naive_mi(joint))) < 1e-12

    @pytest.mark.parametrize("reduction", ["bincount", "unique"])
    @pytest.mark.parametrize("occurring", [16, 17, 256, 257])
    def test_code_dtype_boundaries_match_oracle(self, occurring, reduction):
        # K' = 16 -> 17 and 256 -> 257 switch the pair codes from uint8 to
        # uint16 to uint32; the ids are spread over a wider declared alphabet
        rng = np.random.default_rng(occurring)
        ranks = [np.concatenate([rng.permutation(occurring), rng.integers(0, occurring, n)])
                 for n in (3000, 3000, 1000)]
        seqs = [(3 * r + 1).tolist() for r in ranks]
        c = corpus_from_lists(seqs, 3 * occurring + 2, mode="word")
        groups, symbols = estimator._ranked_groups(c)
        assert symbols.tolist() == list(range(1, 3 * occurring + 1, 3))
        assert {g.dtype for g in groups} == {np.min_scalar_type(occurring - 1)}
        limit = occurring**2 - (reduction == "unique")
        grid = LagGrid((1, 5, 999))
        with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", limit):
            curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
            for d, mi in zip(grid.lags, curve.mi):
                joint = naive_pair_counts(seqs, d)
                assert joint_dict(c, d) == joint
                assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12

    @pytest.mark.parametrize("shape", ["text", "stack", "stack-array", "ragged"])
    @pytest.mark.parametrize("k, m", [(1, 15), (2, 15), (4, 7), (16, 3), (40, 2), (41, 1)])
    def test_lag_batches_match_oracle(self, tmp_path, k, m, shape):
        # one pass counts m lags as (m+1)-tuples, and each lag's pairs beyond
        # the batch's last lag directly; 64-code chunks split the 3,000-symbol
        # text into column spans and the 40 x 30 stack into pairs of rows, and
        # for m > 1 the ragged rows of 2 and m symbols end inside the first
        # batch (d_1 < L <= d_m); each point is also bit-exact with a one-lag
        # curve's. "stack-array" is the stack as one (40, 30) entry.
        lengths = {"text": [3000], "stack": [30] * 40, "stack-array": [30] * 40,
                   "ragged": [2, m, m + 1, 40, 40, 130, 700]}[shape]
        ids = np.random.default_rng(k).integers(0, k, sum(lengths))
        ids[:k] = np.arange(k)  # every symbol occurs
        seqs = np.split(ids, np.cumsum(lengths)[:-1])
        if shape == "stack-array":
            seqs = [ids.reshape(40, 30)]
        c = corpus_from_lists(seqs, k)
        lags = tuple(range(1, 3 * m + 2)) + (3 * m + 5, 3 * m + 9, 100, 650)
        config = EstimatorConfig(min_pair_count=1)
        with mock.patch.object(estimator, "_CHUNK", 64):
            groups, symbols = estimator._ranked_groups(c)
            assert symbols.size == k
            curve = decay_curve(c, LagGrid(lags), config)
            # the plan of the contiguous source, which a one-symbol corpus
            # would otherwise not take
            with mock.patch.object(estimator, "_GATHER_COST", math.inf):
                count, batch_size, _ = estimator._counter(groups, k, lags)
            assert batch_size == m
            for i in range(0, len(lags), m):
                batch = lags[i : i + m]
                for d, (xs, ys, cs) in zip(batch, count(batch)):
                    assert dict(zip(zip(xs.tolist(), ys.tolist()), cs.tolist())) == \
                        naive_pair_counts(seqs, d)
        kept = [d for d in lags if naive_pair_counts(seqs, d)]
        assert curve.lags.tolist() == kept
        for d, mi, pairs in curve.points():
            joint = naive_pair_counts(seqs, d)
            assert pairs == sum(joint.values())
            assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12
            assert mi == lag_mi(c, d)
        if shape == "stack-array":  # the same CSV bytes as the stack's 40 rows
            rows = decay_curve(corpus_from_lists(seqs[0], k), LagGrid(lags), config)
            assert_same_csv(tmp_path, curve, rows)

    def test_batch_size_follows_from_occurring_symbols(self):
        def plan(k):  # the counting plan of a text where k symbols occur evenly
            c = corpus_from_lists([np.arange(100 * k) % k], k, mode="word")
            groups, symbols = estimator._ranked_groups(c)
            return estimator._counter(groups, symbols.size, (1,))

        assert [plan(k)[1] for k in (3, 6, 7, 256, 257, 1024, 1025)] == [9, 5, 4, 1, 1, 1, 1]
        with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", 15):
            count, m, _ = plan(4)
        assert m == 1  # the sorted-code plan counts one lag per batch
        unique = mock.Mock(wraps=estimator._unique_cells)
        with mock.patch.object(estimator, "_unique_cells", unique):
            count((1,))
        assert unique.call_count == 1

    def test_pixel_corpus_counts_its_occurring_values(self, tmp_path):
        values = np.array([0, 8, 248, 255], dtype=np.uint8)
        picks = np.random.default_rng(19).integers(0, 4, (40, 64))
        pixels = Corpus(sequences=tuple(values[picks]), alphabet_size=256, mode="pixel")
        by_hand = Corpus(sequences=tuple(picks), alphabet_size=4, mode="pixel")
        seqs = [values[row].tolist() for row in picks]
        joint = joint_dict(pixels, 3)
        assert joint == naive_pair_counts(seqs, 3)
        assert {v for pair in joint for v in pair} == {0, 8, 248, 255}
        grid, config = default_lag_grid(63), EstimatorConfig(min_pair_count=1)
        curve = decay_curve(pixels, grid, config)
        assert curve.meta["alphabet_size"] == 256
        curve_to_csv(curve, tmp_path / "pixels.csv")
        curve_to_csv(decay_curve(by_hand, grid, config), tmp_path / "by_hand.csv")
        assert (tmp_path / "pixels.csv").read_bytes() == (tmp_path / "by_hand.csv").read_bytes()

    def test_ids_counted_as_they_are_when_every_symbol_occurs(self):
        seq = np.arange(60_000, dtype=np.uint8) % 60
        c = Corpus(sequences=(seq,), alphabet_size=60, mode="byte")
        groups, symbols = estimator._ranked_groups(c)
        assert symbols.tolist() == list(range(60))
        assert len(groups) == 1 and np.shares_memory(groups[0], seq)

    def test_all_levels_stack_counted_uncopied(self, tmp_path):
        # a uint8 stack where all 256 levels occur is its own group, as it is;
        # read-only, like load_idx_images's view of the file's bytes, it is
        # counted as its rows are
        stack = np.random.default_rng(22).integers(0, 256, (50, 784)).astype(np.uint8)
        stack[0, :256] = np.arange(256)
        stack.flags.writeable = False
        c = Corpus(sequences=(stack,), alphabet_size=256, mode="pixel")
        groups, symbols = estimator._ranked_groups(c)
        assert symbols.size == 256
        assert len(groups) == 1 and np.shares_memory(groups[0], stack)
        grid = default_lag_grid(100)
        rows = Corpus(sequences=tuple(stack), alphabet_size=256, mode="pixel")
        assert_same_csv(tmp_path, decay_curve(c, grid), decay_curve(rows, grid))

    @staticmethod
    def _ranking_peak(c):
        """_ranked_groups(c) and the tracemalloc peak of the call."""
        with mock.patch.object(estimator, "_CHUNK", 10_000):
            tracemalloc.start()
            try:
                ranked = estimator._ranked_groups(c)
                return ranked, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_image_stack_ranked_into_a_new_array(self):
        # 2,000 images of 784 pixels take 1.57 MB as uint8, 12.5 MB as int64.
        # The corpus stores rows of one length as one uint8 group; with 32
        # levels ranking writes one rank array, never the corpus's group
        rng = np.random.default_rng(20)
        images = (rng.integers(0, 32, (2000, 784)) * 8).astype(np.uint8)
        for sequences in (tuple(images), (images,), tuple(images.astype(np.int64))):
            c = Corpus(sequences=sequences, alphabet_size=256, mode="pixel")
            (stored,) = c.sequences
            (groups, symbols), peak = self._ranking_peak(c)
            assert peak < images.nbytes + 500_000
            assert symbols.tolist() == list(range(0, 256, 8))
            assert groups[0].dtype == np.uint8 and groups[0].tolist() == (images // 8).tolist()
            assert not np.shares_memory(groups[0], stored)
            assert np.array_equal(stored, images)

    def test_all_levels_rows_ranked_without_a_copy(self):
        # a tuple of int64 rows where every level occurs: the corpus's uint8
        # group is counted as it is, so ranking allocates no group-sized array
        rng = np.random.default_rng(21)
        images = rng.integers(0, 256, (2000, 784))
        images[0, :256] = np.arange(256)
        c = Corpus(sequences=tuple(images), alphabet_size=256, mode="pixel")
        (groups, symbols), peak = self._ranking_peak(c)
        assert symbols.size == 256 and peak < 500_000
        assert len(groups) == 1 and groups[0] is c.sequences[0]
        assert groups[0].dtype == np.uint8 and np.array_equal(groups[0], images)

    def test_caller_stacks_never_written(self):
        # 32 levels spaced by 8 (K' < K) in owned, writable uint8 stacks, the
        # ranks' own dtype: the corpus stores the caller's stack and permute's
        # output uncopied, the count relabels them into arrays of its own, and
        # they stay bit-for-bit unchanged
        rng = np.random.default_rng(23)
        stack = (rng.integers(0, 32, (300, 784)) * 8).astype(np.uint8)
        permuted = permute(Corpus((stack,), 256, "pixel"), 2)
        assert Corpus((stack,), 256, "pixel").sequences[0] is stack
        for c in (Corpus((stack,), 256, "pixel"), permuted):
            (entry,) = c.sequences
            assert entry.flags.owndata and entry.flags.writeable
            before = entry.copy()
            for source in SOURCES.values():
                with mock.patch.object(estimator, "_GATHER_COST", source):
                    decay_curve(c, default_lag_grid(100))
            assert np.array_equal(entry, before)

    @pytest.mark.parametrize("every_level", [True, False])
    def test_uint8_groups_ranked_across_length_groups(self, every_level):
        # three read-only uint8 groups, K = 256, scanned in 500-symbol chunks:
        # each group holds every level but one from its first chunk on, and
        # that one occurs only at the end of the last group. The scan stops at
        # K symbols found over all groups, so a count restarted per group
        # (255 + 255, or 127 * 3 over even levels) would stop before it
        levels = np.arange(256) if every_level else np.arange(0, 256, 2)
        late, others = levels[5], np.delete(levels, 5)
        rng = np.random.default_rng(24)
        entries = []
        for shape in ((30, 40), (20, 70), (10, 300)):
            ids = rng.choice(others, shape).astype(np.uint8)
            ids.flat[: others.size] = others
            entries.append(ids)
        entries[-1][-1, -1] = late
        before = [e.copy() for e in entries]
        for e in entries:
            e.flags.writeable = False
        c = Corpus(sequences=tuple(entries), alphabet_size=256, mode="pixel")
        with mock.patch.object(estimator, "_CHUNK", 500):
            groups, symbols = estimator._ranked_groups(c)
        assert symbols.tolist() == levels.tolist()
        assert len(groups) == 3
        for rows, entry, stored in zip(groups, before, c.sequences):
            assert np.array_equal(rows, np.searchsorted(symbols, entry))
            assert (rows is stored) == every_level
        assert all(np.array_equal(e, b) for e, b in zip(c.sequences, before))

    @pytest.mark.parametrize("every_level", [True, False])
    def test_strided_uint8_entry_ranked_without_a_group_copy(self, every_level):
        # every other column of 2,000 x 1,568 pixels: the corpus stores the
        # strided view, and the scan (which alone runs when every level
        # occurs) and the relabel copy one chunk at a time
        rng = np.random.default_rng(25)
        levels = 256 if every_level else 32
        images = (rng.integers(0, levels, (2000, 1568)) * (256 // levels)).astype(np.uint8)
        images[0, : 2 * levels : 2] = np.arange(0, 256, 256 // levels)
        strided = images[:, ::2]
        c = Corpus(sequences=(strided,), alphabet_size=256, mode="pixel")
        assert np.shares_memory(c.sequences[0], images)
        assert not c.sequences[0].flags.c_contiguous
        (groups, symbols), peak = self._ranking_peak(c)
        assert symbols.size == levels
        assert np.array_equal(groups[0], strided // (256 // levels))
        ranks = 0 if every_level else strided.size  # the new rank array
        assert peak < ranks + 500_000

    def test_wide_alphabet_codes_match_oracle(self):
        # K' = 65,537 ranks take uint32 and their pair codes no longer fit in
        # it; small sparse chunks make every lag merge several chunks' cells
        rng = np.random.default_rng(21)
        occurring = 65_537
        ranks = [np.concatenate([rng.permutation(occurring), rng.integers(0, occurring, 5000)]),
                 rng.integers(0, occurring, 3000)]
        seqs = [(2 * r + 1).tolist() for r in ranks]
        c = corpus_from_lists(seqs, 2 * occurring + 2, mode="word")
        grid = LagGrid((1, 2, 2999))
        with mock.patch.object(estimator, "_SPARSE_CHUNK", 20_000):
            groups, symbols = estimator._ranked_groups(c)
            assert symbols.size == occurring and {g.dtype for g in groups} == {np.dtype(np.uint32)}
            curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
            for d, mi in zip(grid.lags, curve.mi):
                joint = naive_pair_counts(seqs, d)
                assert joint_dict(c, d) == joint
                # naive_mi's running sum drifts by 1e-11 over 70k cells, so the
                # oracle here sums exactly rounded terms with fsum
                n, px, py = sum(joint.values()), Counter(), Counter()
                for (x, y), k in joint.items():
                    px[x] += k
                    py[y] += k
                exact = math.fsum(k * math.log(k * n / (px[x] * py[y]))
                                  for (x, y), k in joint.items()) / n
                assert mi == lag_mi(c, d)
                assert abs(mi - max(0.0, exact)) < 1e-12

    def test_sparse_counting_path_matches_naive(self):
        # more than 1,024 symbols occur, so K'^2 passes DENSE_JOINT_LIMIT and
        # the np.unique reduction runs
        rng = np.random.default_rng(12)
        k = 5000
        seqs = [np.concatenate([rng.permutation(k), rng.integers(0, k, 400)]).tolist()]
        assert len(set(seqs[0])) ** 2 > estimator.DENSE_JOINT_LIMIT
        c = corpus_from_lists(seqs, k, mode="word")
        assert joint_dict(c, 2) == naive_pair_counts(seqs, 2)
        expected = naive_mi(naive_pair_counts(seqs, 2))
        assert abs(lag_mi(c, 2) - expected) < 1e-12

    @pytest.mark.parametrize("k", [40, 1500])
    def test_cell_ranks_are_intp_on_both_reductions(self, k):
        # 40 symbols count into dense tables, 1,500 (K'^2 past
        # DENSE_JOINT_LIMIT) with unique over uint32 codes
        ids = np.random.default_rng(k).permutation(np.resize(np.arange(k), 3 * k))
        groups, symbols = estimator._ranked_groups(corpus_from_lists([ids], k, mode="word"))
        for xs, ys, _ in plan_cells(groups, symbols.size, (1, 2)):
            assert xs.dtype == ys.dtype == np.intp

    def test_row_longer_than_chunk_matches_naive(self):
        # one text longer than _CHUNK is counted in column spans
        rng = np.random.default_rng(15)
        seqs = [rng.integers(0, 6, 30_000).tolist()]
        c = corpus_from_lists(seqs, 6)
        with mock.patch.object(estimator, "_CHUNK", 1_000):
            for d in (1, 7, 999, 1_000, 1_001, 29_999):
                assert joint_dict(c, d) == naive_pair_counts(seqs, d)

    def test_row_longer_than_chunk_bounds_memory(self):
        # the int64 pair codes of a 1M-symbol text would take 8 MB at once
        seq = np.random.default_rng(16).integers(0, 60, 1_000_000).astype(np.uint8)
        c = Corpus(sequences=(seq,), alphabet_size=60, mode="byte")
        with mock.patch.object(estimator, "_CHUNK", 10_000):
            tracemalloc.start()
            try:
                decay_curve(c, LagGrid((3,)), ONE_PAIR)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("limit", [estimator.DENSE_JOINT_LIMIT, 0], ids=["bincount", "unique"])
    def test_thread_pool_matches_serial_and_oracle(self, tmp_path, limit):
        # 500-symbol chunks and 8 reported CPUs: more processes than cores
        rng = np.random.default_rng(17)
        seqs = [rng.integers(0, 7, n).tolist() for n in (4000, 2500, 300, 300, 300)]
        c = corpus_from_lists(seqs, 7)
        grid, config = default_lag_grid(400), EstimatorConfig(min_pair_count=1)
        spy = PoolSpy(tmp_path)
        with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", limit):
            serial = decay_curve(c, grid, config)
            with mock.patch.object(estimator, "_CHUNK", 500), \
                    mock.patch.object(estimator, "_SPARSE_CHUNK", 500), \
                    mock.patch.object(estimator.os, "sched_getaffinity",
                                      return_value=set(range(8))), \
                    spy.patch():
                pooled = decay_curve(c, grid, config)
        spy.assert_ran(8)  # every child has been reaped
        assert pooled.lags.tolist() == serial.lags.tolist()
        assert pooled.mi.tolist() == serial.mi.tolist()
        assert pooled.pairs.tolist() == serial.pairs.tolist()
        assert pooled.meta == serial.meta
        curve_to_csv(serial, tmp_path / "serial.csv")
        curve_to_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
        for d, mi, pairs in pooled.points():
            joint = naive_pair_counts(seqs, d)
            assert pairs == sum(joint.values())
            assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12

    def test_small_corpus_counts_in_calling_thread(self, tmp_path):
        c = corpus_from_lists([np.arange(5000) % 4], 4)
        spy = PoolSpy(tmp_path)
        with spy.patch():
            decay_curve(c, default_lag_grid(100), EstimatorConfig(min_pair_count=1))
        spy.assert_ran(1)

    # the unique path (K'^2 past DENSE_JOINT_LIMIT) takes a process per
    # _CHUNK / _SPARSE_COST = 16,384 symbols, so a 10k-token text stays serial
    @pytest.mark.parametrize("n, pooled", [(10_000, False), (16_384, False),
                                           (16_385, True), (40_000, True)])
    def test_sparse_pool_threshold(self, tmp_path, n, pooled):
        c = corpus_from_lists([np.random.default_rng(n).integers(0, 5000, n)], 5000, mode="word")
        grid, config = LagGrid((1, 2, 3, 5, 8, 13, 100)), EstimatorConfig(min_pair_count=1)
        assert estimator._ranked_groups(c)[1].size ** 2 > estimator.DENSE_JOINT_LIMIT
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0}):
            serial = decay_curve(c, grid, config)
        spy = PoolSpy(tmp_path)
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch():
            curve = decay_curve(c, grid, config)
        spy.assert_ran(2 if pooled else 1)
        curve_to_csv(serial, tmp_path / "serial.csv")
        curve_to_csv(curve, tmp_path / "curve.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "curve.csv").read_bytes()
        assert curve.meta == serial.meta

    def test_dense_counting_copies_table_sized_slices(self, tmp_path):
        # a 1M-symbol text with K' = 60 in two processes: each bincount call
        # copies at most 64k codes to intp (512 KB), not a 256k-code block
        # (2 MB), so the peak is about 2.5 MB; 2^18-code calls peak at 5.6 MB.
        # The bound holds in the caller and in the child, which logs its own
        seq = np.random.default_rng(1).integers(0, 60, 1_000_000).astype(np.uint8)
        c = Corpus(sequences=(seq,), alphabet_size=60, mode="byte")
        spy, grid = PoolSpy(tmp_path), default_lag_grid(1000)
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch():
            tracemalloc.start()
            try:
                curve = decay_curve(c, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        spy.assert_ran(2)
        peaks = spy.peaks()
        assert peaks.keys() == {os.getpid(), *spy.children}
        assert max(peak, *peaks.values()) < 3_500_000
        assert_serial_csv(tmp_path, curve, c, grid)

    def test_consumer_error_cancels_pending_lags(self, tmp_path):
        # an error at one lag reaches the caller and cancels the batches not
        # yet started; K' = 4 counts 7 lags per batch. Each process logs the
        # lags it was asked for
        c = corpus_from_lists([np.arange(5000) % 4], 4)
        grid = LagGrid(tuple(range(1, 61)))
        calls = tmp_path / "calls.log"
        real = estimator._counter

        def slow_counter(groups, k, lags):
            count, m, cost = real(groups, k, lags)

            def slow_count(lags):
                with open(calls, "a") as f:
                    f.write("".join(f"{d}\n" for d in lags))
                time.sleep(0.01)
                if 3 in lags:
                    raise MemoryError
                return count(lags)

            return slow_count, m, cost

        spy = PoolSpy(tmp_path)
        with mock.patch.object(estimator, "_CHUNK", 1000), \
                mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(estimator, "_counter", slow_counter), \
                spy.patch():
            with pytest.raises(MemoryError):
                decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
        assert len(spy.children) == 1  # the batches ran in two processes
        assert len(calls.read_text().split()) < len(grid.lags) // 2
        assert_no_child_left()  # reaped before the error is raised

    def test_pool_keeps_order_and_raises_the_first_error_after_joining(self, tmp_path):
        # 3 processes on 40 items: the results come back in item order; once
        # item 5 raises, no process takes a new item, and the error reaches
        # the caller after the slow item 0 has finished. Items 5 and 6 fail
        # together in two children, and 5's error is raised. Every process
        # logs the items it takes and finishes
        def square(i):
            time.sleep(0.002)
            return i * i

        assert estimator._pooled(square, list(range(40)), 3) == [i * i for i in range(40)]
        assert estimator._pooled(square, [], 3) == []
        taken, finished = tmp_path / "taken.log", tmp_path / "finished.log"

        def fail(i):
            with open(taken, "a") as f:
                f.write(f"{i}\n")
            if i in (5, 6):
                time.sleep(0.02)
                raise KeyError(i)
            time.sleep(0.05 if i == 0 else 0.002)
            with open(finished, "a") as f:
                f.write(f"{i}\n")

        with pytest.raises(KeyError) as raised:
            estimator._pooled(fail, list(range(40)), 3)
        assert raised.value.args == (5,)  # the lowest failed item's error
        assert "0" in finished.read_text().split() and len(taken.read_text().split()) <= 8
        assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyError, MemoryError])
    def test_child_error_reaches_caller_as_its_type(self, error):
        parent = os.getpid()

        def fail_in_child(i):
            time.sleep(0.005)
            if os.getpid() != parent:
                raise error(i)
            return i

        with pytest.raises(error):
            estimator._pooled(fail_in_child, list(range(20)), 3)
        assert_no_child_left()

    def test_child_that_dies_is_an_error(self):
        # a child that ends without sending its results (as one killed by
        # the kernel would) loses the items it took: an error, not a short list
        parent = os.getpid()

        def dies(i):
            time.sleep(0.005)
            if os.getpid() != parent and i > 5:
                os._exit(1)
            return i

        with pytest.raises(ChildProcessError):
            estimator._pooled(dies, list(range(20)), 2)
        assert_no_child_left()

    def test_no_child_left_after_success_error_or_interrupt(self):
        # a KeyboardInterrupt in the caller kills the children, which would
        # otherwise count their 0.2 s items for about 4 s more
        parent = os.getpid()
        assert estimator._pooled(lambda i: i, list(range(100)), 2) == list(range(100))
        assert_no_child_left()
        with pytest.raises(ZeroDivisionError):
            estimator._pooled(lambda i: 1 // (i - 50), list(range(100)), 2)
        assert_no_child_left()

        def interrupted(i):
            if os.getpid() == parent and i > 0:
                raise KeyboardInterrupt
            time.sleep(0.2)
            return i

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            estimator._pooled(interrupted, list(range(60)), 3)
        assert time.perf_counter() - start < 2
        assert_no_child_left()

    def test_second_live_thread_forks_nothing(self, tmp_path):
        # beside another live thread a fork can deadlock (and warns on 3.12),
        # so the caller counts every batch, to the same bytes
        c = corpus_from_lists([skewed(np.random.default_rng(37), 300_000, 60, 7, 0.865)], 60)
        grid, spy, stop = default_lag_grid(100), PoolSpy(tmp_path), threading.Event()
        other = threading.Thread(target=stop.wait, args=(60,))
        other.start()
        try:
            with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                    spy.patch():
                curve = decay_curve(c, grid)
        finally:
            stop.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert spy.workers == [2] and spy.children == []
        assert {pid for pid, _ in spy.counted()} == {os.getpid()}
        assert_serial_csv(tmp_path, curve, c, grid)

    def test_pooled_curve_raises_no_deprecation_warning(self, tmp_path):
        # Python 3.12 warns when a process that has other threads forks;
        # numpy's BLAS threads stop in their own fork handler
        c = corpus_from_lists([skewed(np.random.default_rng(38), 300_000, 60, 7, 0.865)], 60)
        grid, spy = default_lag_grid(100), PoolSpy(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                    spy.patch():
                curve = decay_curve(c, grid)
        spy.assert_ran(2)
        assert_serial_csv(tmp_path, curve, c, grid)

    def test_pooled_curve_imports_no_executor(self):
        # a fresh interpreter on 2 reported CPUs counts a 300k-symbol byte
        # text with one forked child, and imports neither multiprocessing nor
        # concurrent.futures nor the logging it pulls in
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: (forks.append(1), fork())[1]\n"
            "from midecay import Corpus, decay_curve, default_lag_grid\n"
            "seq = np.random.default_rng(0).integers(0, 60, 300_000).astype(np.uint8)\n"
            "decay_curve(Corpus(sequences=(seq,), alphabet_size=60, mode='byte'),"
            " default_lag_grid(100))\n"
            "print(len(forks), [m for m in ('multiprocessing', 'concurrent.futures', 'logging')"
            " if m in sys.modules])\n"
        )
        src = os.path.dirname(os.path.dirname(estimator.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.split("\n")[0] == "1 []"

    @pytest.mark.skipif(sys.platform != "linux", reason="counting processes fork on Linux only")
    def test_child_stops_when_its_caller_is_terminated(self):
        # a fresh interpreter on 2 reported CPUs counts 3,000 lags of a 1M-symbol
        # byte text (seconds of work per process) with one forked child and gets
        # SIGTERM, which it does not catch; its orphaned child stops after its batch
        code = (
            "import os\n"
            "import numpy as np\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork = os.fork\n"
            "def forked():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = forked\n"
            "from midecay import Corpus, LagGrid, decay_curve\n"
            "seq = np.random.default_rng(0).integers(0, 60, 1_000_000).astype(np.uint8)\n"
            "decay_curve(Corpus(sequences=(seq,), alphabet_size=60, mode='byte'),"
            " LagGrid(tuple(range(1, 3001))))\n"
        )

        def alive(pid):  # a zombie has exited, whether or not it was reaped
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rpartition(")")[2].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        src = os.path.dirname(os.path.dirname(estimator.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
        try:
            child = int(caller.stdout.readline())
            time.sleep(0.2)
            caller.terminate()
            caller.wait(timeout=60)
            deadline = time.monotonic() + 1
            while alive(child) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not alive(child)
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
            if alive(child):
                os.kill(child, 9)

    # dense: 64 lags of 65,536 cells (1.5 MB each) would take 96 MB held at
    # once; sparse: 32 lags of about 300k cells (16 bytes each, 4.8 MB) 154 MB,
    # so its bound is about 8 lags' cells; batched: K' = 4 counts 7 lags per
    # pass into a 512 KB table, and each of 2 workers holds about 3.7 MB (its
    # table, bincount's output and intp copy of a chunk, the code buffer), so
    # the bound is that plus 5 batch tables, half of the 10 batches' tables.
    # Each bound holds in the caller and in the child, which logs its own
    @pytest.mark.parametrize("k, n, dtype, lags, bound", [
        (256, 1_000_000, np.uint8, 64, 32_000_000),
        (20_000, 300_000, np.uint16, 32, 40_000_000),
        (4, 1_000_000, np.uint8, 64, 10_000_000),
    ], ids=["dense", "sparse", "batched"])
    def test_thread_pool_does_not_hold_every_lag(self, tmp_path, k, n, dtype, lags, bound):
        seq = np.random.default_rng(18).integers(0, k, n).astype(dtype)
        c = Corpus(sequences=(seq,), alphabet_size=k, mode="word")
        grid, spy = LagGrid(tuple(range(1, lags + 1))), PoolSpy(tmp_path)
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch():
            tracemalloc.start()
            try:
                curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert curve.lags.size == lags
        spy.assert_ran(2)
        peaks = spy.peaks()
        assert peaks.keys() == {os.getpid(), *spy.children}
        assert max(peak, *peaks.values()) < bound

    def test_bias_floor_reported(self):
        rng = np.random.default_rng(13)
        c = corpus_from_lists([rng.integers(0, 4, 5000)], 4)
        curve = decay_curve(c, LagGrid((1, 2)), EstimatorConfig(min_pair_count=1))
        floors = curve.meta["bias_floor_nats"]
        assert len(floors) == 2
        assert abs(floors[0] - 9 / (2 * 4999)) < 1e-12


class TestKnownSource:
    def test_markov_chain_curve_follows_its_exact_mi(self):
        # at lags 1-17, where exact MI is 0.01 nats or more, the plug-in error
        # is 3.6% at seed 0 and at most 9.6% over seeds 0-19; further out,
        # autocorrelated noise grows past 10%. The verdict is not checked: on
        # default_lag_grid(1000) this chain classifies as BrokenPowerLaw with
        # no noise crossing, though its exact MI decays exponentially and
        # falls below 1e-5 at lag 42.
        curve = decay_curve(markov_chain(4, 0.9, 10**6, seed=0), LagGrid(tuple(range(1, 61))),
                            EstimatorConfig(min_pair_count=1))
        exact = np.array([markov_mi(4, 0.9, int(d)) for d in curve.lags])
        strong = exact >= 0.01
        assert curve.lags[strong].tolist() == list(range(1, 18))
        assert np.all(np.abs(curve.mi[strong] - exact[strong]) <= 0.1 * exact[strong])

    def test_tree_mi_is_the_mixture_of_its_leaf_pairs(self):
        # every leaf pair's joint from the product of the level kernels along
        # its path through the lowest common ancestor, uniform across trees,
        # averaged over the pairs: a small forest whose stay varies by level
        k, stays, n_trees = 3, (0.6, 0.95, 0.7, 0.85), 3
        kernels = []
        for stay in stays:
            p = np.full((k, k), (1 - stay) / (k - 1))
            np.fill_diagonal(p, stay)
            kernels.append(p)
        leaves = n_trees * 2 ** len(stays)
        for d in (1, 2, 3, 5, 8, 15, 16, 17, 40):
            joint = np.zeros((k, k))
            for t in range(leaves - d):
                up = np.eye(k)
                for level in range(len(stays) - 1, -1, -1):  # from the leaves up to the root
                    up = up @ kernels[level]
                    if (t >> (len(stays) - level)) == ((t + d) >> (len(stays) - level)):
                        break
                same_tree = (t >> len(stays)) == ((t + d) >> len(stays))
                joint += up @ up.T / k if same_tree else np.full((k, k), 1 / k**2)
            joint /= leaves - d
            exact = float(np.sum(joint * np.log(joint * k * k)))
            assert abs(tree_mi(k, stays, n_trees, d) - exact) < 1e-12

    def test_tree_forest_curve_follows_its_exact_mi(self):
        # 64 trees of depth 14, stay 0.9, K = 4 (about 1M symbols; exact MI
        # 0.448 nats at lag 1, 0.016 at 64): at lags 1-64 the plug-in error
        # was at most 1.9-6.7% per seed over seeds 0-9 (the few samples of
        # the top levels move whole stretches of the curve together), and
        # the mean over the seeds within 0.9% of the exact MI at every lag.
        # The verdict is not checked here.
        stays, grid = (0.9,) * 14, LagGrid(tuple(range(1, 65)))
        exact = np.array([tree_mi(4, stays, 64, d) for d in grid.lags])
        errors = []
        for seed in range(10):
            curve = decay_curve(tree_forest(4, stays, 64, seed), grid, ONE_PAIR)
            assert curve.lags.tolist() == list(grid.lags)
            errors.append(curve.mi / exact - 1)
        assert np.all(np.abs(errors) <= 0.1)
        assert np.all(np.abs(np.mean(errors, axis=0)) <= 0.025)

    @pytest.mark.parametrize("quarter", [1, 2, 3])
    def test_wrapped_text_at_its_shift_counts_the_circular_pairs(self, quarter):
        # x + x[:s] at lag s pairs x_t with x_{(t+s) mod N}: its N pairs are
        # the circular pairs of x at shift s, counted here with np.unique
        (x,) = markov_chain(4, 0.9, 200_000).sequences[0]
        n = x.size
        s = quarter * n // 4
        curve = decay_curve(corpus_from_lists([np.concatenate([x, x[:s]])], 4), LagGrid((s,)),
                            ONE_PAIR)
        codes, counts = np.unique(x.astype(np.int64) * 4 + np.roll(x, -s), return_counts=True)
        circular = {(code // 4, code % 4): c for code, c in zip(codes.tolist(), counts.tolist())}
        assert curve.pairs.tolist() == [n]
        assert abs(curve.mi[0] - naive_mi(circular)) < 1e-12


class TestChunks:
    # a stack of rows shorter than size, a lone row, and rows longer than size
    @pytest.mark.parametrize("shape", [(10, 9), (1, 12), (3, 50)],
                             ids=["stack", "lone-row", "long-rows"])
    @pytest.mark.parametrize("d", [0, 1, 7])
    def test_blocks_are_indices_that_cover_every_pair_once(self, shape, d):
        size, (n, length) = 16, shape
        rows = np.arange(n * length).reshape(shape)
        covered = np.zeros((n, length - d), dtype=np.int64)
        for ix in estimator._chunks(rows, d, size):
            assert isinstance(ix, tuple) and len(ix) == 2
            assert all(isinstance(part, slice) for part in ix)
            (lines, cols), block = ix, rows[ix]
            # all but the last d columns start a pair, which lies in the
            # block; a block without its d carried columns would leave
            # pairs uncovered
            own = block.shape[1] - d
            assert own > 0 and cols.start + own <= length - d
            assert block[:, :own].size <= size
            covered[lines, cols.start : cols.start + own] += 1
        assert np.all(covered == 1)


def skewed(rng, n, k, background, share):
    """n ids below k, each the background id with probability 1 - share."""
    ids = rng.integers(0, k, n)
    ids[rng.random(n) >= share] = background
    return ids


# lags below, at and past the lengths of the groups of TestGatheredSource
EDGE_LAGS = (1, 2, 3, 4, 27, 28, 29, 60, 299, 783)

# _GATHER_COST values that force each dense source: 0 gathers every corpus,
# inf (0 * inf is nan) gathers none
SOURCES = {"gathered": 0.0, "contiguous": math.inf}


class TestGatheredSource:
    """Corpora mostly of one symbol, counted from the positions of the others."""

    def both_sources(self, c, grid, tmp_path, config=ONE_PAIR):
        """The curve from each dense source; the two CSVs must be byte-identical."""
        curves = {}
        for name, cost in SOURCES.items():
            spy = mock.Mock(wraps=estimator._gathered)
            with mock.patch.object(estimator, "_GATHER_COST", cost), \
                    mock.patch.object(estimator, "_gathered", spy):
                curves[name] = decay_curve(c, grid, config)
            assert spy.called == (name == "gathered")
            curve_to_csv(curves[name], tmp_path / f"{name}.csv")
        csv = tmp_path / "gathered.csv"
        assert csv.read_bytes() == (tmp_path / "contiguous.csv").read_bytes()
        assert curves["gathered"].meta == curves["contiguous"].meta
        return curves["gathered"]

    # the stack's rows split into blocks of 2 rows at 64-symbol chunks, the
    # image rows and the text into column spans; the ragged rows of 2 and 5
    # symbols end before most lags; "columns" holds a stack of 100 rows beside
    # one of 3; "images-array" and "stack-array" hold those rows as one (n, L)
    # entry. Every lag from 1 to 783, in batches of one lag or of
    # _GATHER_LAGS, reaches and passes the length of each group shorter than
    # 784 (the images and the text have none, and their 783 lags take 1-3 s)
    @pytest.mark.parametrize("shape, chunk, lags, per", [
        *(pytest.param(shape, chunk, EDGE_LAGS, estimator._GATHER_LAGS, id=f"{shape}-{chunk}")
          for chunk in (estimator._CHUNK, 64)
          for shape in ("images", "images-array", "stack", "stack-array", "text", "ragged",
                        "constant", "columns")),
        *(pytest.param(shape, estimator._CHUNK, range(1, 784), per, id=f"{shape}-every-lag-{per}")
          for per in (1, estimator._GATHER_LAGS)
          for shape in ("stack", "stack-array", "ragged", "constant", "columns")),
    ])
    def test_matches_oracle_and_contiguous_source(self, tmp_path, shape, chunk, lags, per):
        rng = np.random.default_rng(30)
        lengths = {"images": [784] * 40, "stack": [30] * 60, "text": [6000],
                   "ragged": [2, 5, 40, 40, 40, 130, 700], "constant": [300, 300, 50],
                   "columns": [30] * 100 + [40] * 3}[shape.removesuffix("-array")]
        k = 1 if shape == "constant" else 9
        ids = skewed(rng, sum(lengths), k, background=k // 2, share=0.15)
        seqs = np.split(ids, np.cumsum(lengths)[:-1])
        c = rows = corpus_from_lists(seqs, k)
        if shape.endswith("-array"):
            seqs = [ids.reshape(len(lengths), -1)]
            c = corpus_from_lists(seqs, k)
        grid = LagGrid(lags)
        with mock.patch.object(estimator, "_CHUNK", chunk), \
                mock.patch.object(estimator, "_GATHER_LAGS", per):
            curve = self.both_sources(c, grid, tmp_path)
            if c is not rows:  # the same CSV bytes as the row layout
                assert_same_csv(tmp_path, curve, decay_curve(rows, grid, ONE_PAIR))
            groups, symbols = estimator._ranked_groups(c)
            gathered = mock.Mock(wraps=estimator._gathered)
            with mock.patch.object(estimator, "_GATHER_COST", 0.0), \
                    mock.patch.object(estimator, "_gathered", gathered):
                cells = plan_cells(groups, symbols.size, grid.lags)
        assert gathered.call_args.args[1:] == (symbols.size, k // 2)
        joints = [naive_pair_counts(seqs, d) for d in grid.lags]
        for joint, (xs, ys, cs) in zip(joints, cells):
            assert dict(zip(zip(xs.tolist(), ys.tolist()), cs.tolist())) == joint
        assert curve.lags.tolist() == [d for d, joint in zip(grid.lags, joints) if joint]
        kept = [joint for joint in joints if joint]
        for (_, mi, pairs), joint in zip(curve.points(), kept):
            assert pairs == sum(joint.values())
            assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12

    @pytest.mark.parametrize("shape", [[50] * 30, [1000], [3, 40, 40, 90]])
    def test_any_background_symbol_gives_the_same_tables(self, shape):
        # the fill of row a is exact whichever rank a is, the mode or not:
        # the plan gathers around the mode of its sample, which is made rank
        # a by writing a at the sampled positions (2 stays the corpus's mode)
        ids = skewed(np.random.default_rng(31), sum(shape), 6, background=2, share=0.3)
        lags = (1, 2, 7, 50, 999)
        with mock.patch.object(estimator, "_CHUNK", 128):
            for a in range(6):
                groups, symbols = estimator._ranked_groups(
                    corpus_from_lists(np.split(ids, np.cumsum(shape)[:-1]), 6))
                for rows in groups:
                    rows.flat[:: estimator._GATHER_SAMPLE] = a
                expected = estimator._pair_tables(groups, 6, lags)
                gathered = mock.Mock(wraps=estimator._gathered)
                with mock.patch.object(estimator, "_GATHER_COST", 0.0), \
                        mock.patch.object(estimator, "_gathered", gathered):
                    cells = plan_cells(groups, 6, lags)
                assert gathered.call_args.args[1:] == (6, a)
                tables = [np.zeros(36, np.int64) for _ in lags]
                for table, (xs, ys, cs) in zip(tables, cells):
                    table[xs * 6 + ys] = cs
                assert [t.tolist() for t in tables] == [t.tolist() for t in expected]

    def test_strided_long_row_is_indexed_through_views(self):
        # every 2nd byte of a buffer as one (1, N) row of 6 spans of _CHUNK,
        # which the corpus keeps and ranking returns as it is (all 16 symbols
        # occur): each span's flat view reads the row from the span's first
        # column, so no span copies it, and the curve is the oracle's
        n, index, real = 6_000, [], estimator._gathered
        ids = skewed(np.random.default_rng(37), n, 16, background=5, share=0.15)
        buffer = np.zeros(2 * n, dtype=np.uint8)
        row = buffer[::2].reshape(1, n)
        row[0] = ids
        c = Corpus(sequences=(row,), alphabet_size=16, mode="byte")
        grid = LagGrid((1, 2, 7, 999, 1000, 1001, 2500, 5999))

        def gather(*args, **kwargs):
            index.append(real(*args, **kwargs))
            return index[-1]

        with mock.patch.object(estimator, "_CHUNK", 1_000), \
                mock.patch.object(estimator, "_GATHER_COST", 0.0), \
                mock.patch.object(estimator, "_gathered", gather):
            curve = decay_curve(c, grid, ONE_PAIR)
        (blocks, _), = index
        assert len(blocks) == 6
        assert all(np.shares_memory(flat, buffer) for flat, *_ in blocks)
        joints = [naive_pair_counts([ids], d) for d in grid.lags]
        assert curve.lags.tolist() == list(grid.lags)
        for (_, mi, pairs), joint in zip(curve.points(), joints):
            assert pairs == sum(joint.values())
            assert abs(mi - naive_mi(joint)) < 1e-12

    def test_gathered_index_is_compact(self):
        # 32-bit positions and one byte of rank per gathered symbol, and per
        # block one small count per lag, where that lag's pairs stop, not one
        # per column; C_d, the count of each rank in columns d and on, is one
        # len(grid) x K' table, counted without a table of each column's
        # ranks (L x K')
        images = skewed(np.random.default_rng(32), 2000 * 784, 32, 0, 0.15).reshape(2000, 784)
        groups, symbols = estimator._ranked_groups(
            Corpus(sequences=tuple(images.astype(np.uint8)), alphabet_size=256, mode="pixel"))
        grid, index, real, sizes = default_lag_grid(783), [], estimator._gathered, []

        def gather(*args, **kwargs):  # the blocks and C_d the plan builds
            index.append(real(*args, **kwargs))
            return index[0]

        def sized(make):  # records the size of each array make returns
            def made(*args, **kwargs):
                sizes.append((out := make(*args, **kwargs)).size)
                return out
            return made

        with mock.patch.object(estimator, "_gathered", gather), \
                mock.patch.object(np, "zeros", sized(np.zeros)), \
                mock.patch.object(np, "bincount", sized(np.bincount)):
            estimator._counter(groups, symbols.size, grid.lags)
        (blocks, ends), = index
        gathered = np.count_nonzero(images)
        assert {len(b) for b in blocks} == {4}
        assert {(b[1].dtype.name, b[2].dtype.name) for b in blocks} == {("uint32", "uint8")}
        assert {b[3].shape for b in blocks} == {(len(grid.lags),)}
        assert sum(b[1].size for b in blocks) == gathered
        stored = sum(b[1].nbytes + b[2].nbytes + b[3].nbytes for b in blocks)
        assert stored < 5.1 * gathered
        # each block holds the next _CHUNK // 784 whole images (their ranks
        # are their ids), and stop[i] counts its gathered symbols in the
        # columns that start a pair at lag d, the grid's lag i
        step = estimator._CHUNK // 784
        assert len(blocks) == -(-2000 // step)
        for i, (flat, _, _, stop) in enumerate(blocks):
            rows = images[i * step : (i + 1) * step]
            assert np.array_equal(flat.reshape(rows.shape), rows)
            for d in (1, 64, 783):
                assert stop[grid.lags.index(d)] == np.count_nonzero(rows[:, : 784 - d])
        table = ends[1].base
        assert list(ends) == list(grid.lags) and all(e.base is table for e in ends.values())
        assert table.shape == (len(grid.lags), 32)
        for d in (1, 64, 783):  # rank 0 is the background, which is not counted
            assert ends[d].tolist() == [0, *np.bincount(images[:, d:].ravel())[1:].tolist()]
        assert 0 < max(sizes) < 784 * 32

    def test_thread_pool_matches_serial_and_oracle(self, tmp_path):
        # the children share the index built before the fork; 500-symbol
        # blocks and spans, 8 reported CPUs and about 1,520 gathered symbols
        # (cost 3,800) give 8 processes, more than the cores
        rng = np.random.default_rng(35)
        seqs = [skewed(rng, n, 7, 3, 0.12) for n in (8000, 5000, 600, 600, 600)]
        c = corpus_from_lists(seqs, 7)
        grid = default_lag_grid(700)
        serial = self.both_sources(c, grid, tmp_path)
        spy = PoolSpy(tmp_path)
        gathered = mock.Mock(wraps=estimator._gathered)
        with mock.patch.object(estimator, "_CHUNK", 500), \
                mock.patch.object(estimator.os, "sched_getaffinity",
                                  return_value=set(range(8))), \
                spy.patch(), \
                mock.patch.object(estimator, "_gathered", gathered):
            pooled = decay_curve(c, grid, ONE_PAIR)
        assert gathered.called
        spy.assert_ran(8)
        curve_to_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "gathered.csv").read_bytes()
        for d, mi, pairs in serial.points():
            assert abs(mi - max(0.0, naive_mi(naive_pair_counts(seqs, d)))) < 1e-12

    # 400 images hold 313k symbols, which the contiguous rule would share
    # between 2 processes, but only about 46k gathered positions; 1,200
    # images hold about 137k, 2.5 times which passes the 256k symbols of one
    @pytest.mark.parametrize("n, pooled", [(400, False), (1200, True)])
    def test_pixel_corpus_is_gathered_and_pooled_by_its_positions(self, tmp_path, n, pooled):
        images = (skewed(np.random.default_rng(n), n * 784, 32, 0, 0.15) * 8).astype(np.uint8)
        c = Corpus(sequences=tuple(images.reshape(n, 784)), alphabet_size=256, mode="pixel")
        grid = default_lag_grid(783)
        spy = PoolSpy(tmp_path)
        gathered = mock.Mock(wraps=estimator._gathered)
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch(), \
                mock.patch.object(estimator, "_gathered", gathered):
            curve = decay_curve(c, grid)
        assert gathered.call_count == 1
        spy.assert_ran(2 if pooled else 1)
        with mock.patch.object(estimator, "_GATHER_COST", math.inf):
            curve_to_csv(decay_curve(c, grid), tmp_path / "contiguous.csv")
        curve_to_csv(curve, tmp_path / "gathered.csv")
        csv = tmp_path / "gathered.csv"
        assert csv.read_bytes() == (tmp_path / "contiguous.csv").read_bytes()

    @pytest.mark.parametrize("corpus", ["bytes", "words"])
    def test_text_corpora_keep_their_paths(self, tmp_path, corpus):
        # a byte text whose top byte is 13.5% of it, as in the bench text,
        # stays contiguous; a word text (K'^2 past DENSE_JOINT_LIMIT) stays
        # on the unique path
        rng = np.random.default_rng(33)
        if corpus == "bytes":
            c = corpus_from_lists([skewed(rng, 300_000, 60, 7, 0.865)], 60)
        else:
            c = corpus_from_lists([rng.integers(0, 5000, 40_000)], 5000, mode="word")
        spy, grid = PoolSpy(tmp_path), LagGrid((1, 2, 3, 5, 8))
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch(), \
                mock.patch.object(estimator, "_gathered") as gathered:
            curve = decay_curve(c, grid)
        gathered.assert_not_called()
        spy.assert_ran(2)
        assert_serial_csv(tmp_path, curve, c, grid)


class TestCountingPlan:
    # a byte text (contiguous batches), an image stack (gathered) and a word
    # text (sorted codes), each in 2 processes, so the batches run in the pool
    @pytest.mark.parametrize("corpus, gathers", [("bytes", 0), ("images", 1), ("words", 0)])
    def test_plan_built_once_per_curve(self, tmp_path, corpus, gathers):
        rng = np.random.default_rng(36)
        if corpus == "bytes":
            c = corpus_from_lists([skewed(rng, 300_000, 60, 7, 0.865)], 60)
        elif corpus == "images":
            images = (skewed(rng, 1200 * 784, 32, 0, 0.15) * 8).astype(np.uint8)
            c = Corpus(sequences=tuple(images.reshape(1200, 784)), alphabet_size=256, mode="pixel")
        else:
            c = corpus_from_lists([rng.integers(0, 5000, 40_000)], 5000, mode="word")
        counter = mock.Mock(wraps=estimator._counter)
        gathered = mock.Mock(wraps=estimator._gathered)
        spy, grid = PoolSpy(tmp_path), default_lag_grid(300)
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                spy.patch(), \
                mock.patch.object(estimator, "_counter", counter), \
                mock.patch.object(estimator, "_gathered", gathered):
            curve = decay_curve(c, grid)
        assert counter.call_count == 1
        assert gathered.call_count == gathers
        spy.assert_ran(2)
        assert curve.lags.size == len(grid.lags)
        assert_serial_csv(tmp_path, curve, c, grid)


class TestMiPoint:
    def test_three_cell_arrays_live(self):
        # 1M cells of 8 bytes each: the counts turn to float64 in their own
        # buffer and each slice's terms replace them, so the peak is the
        # three cell arrays and a slice's temporaries, not a fourth array
        n = 1_000_000
        rng = np.random.default_rng(34)
        tracemalloc.start()
        try:
            xs = np.repeat(np.arange(1000), 1000).astype(np.intp)
            ys = np.tile(np.arange(1000), 1000).astype(np.intp)
            cs = rng.integers(1, 50, n).astype(np.int64)
            c = cs.astype(np.float64)  # the MI as the plain formula gives it
            q = np.bincount(xs, weights=c)[xs] * np.bincount(ys, weights=c)[ys]
            total = c.sum()
            expected = float((c * (np.log(c * total) - np.log(q))).sum()) / total
            del c, q
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            d, pairs, mi, _ = estimator._mi_point(ONE_PAIR, 1, [xs, ys, cs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs == total and mi == expected
        assert peak - live < 2_000_000


class TestLagGrid:
    def test_dense_only(self):
        assert default_lag_grid(10).lags == tuple(range(1, 11))

    def test_dense_boundary(self):
        assert default_lag_grid(64).lags == tuple(range(1, 65))

    def test_log_tail_properties(self):
        grid = default_lag_grid(1000).lags
        assert grid[-1] == 1000
        assert set(range(1, 65)).issubset(grid)
        max_ratio = 10 ** (1 / 32) * 1.02
        tail = [d for d in grid if d >= 64]
        for a, b in zip(tail, tail[1:]):
            assert b / a <= max_ratio

    def test_always_contains_max_lag(self):
        for max_lag in (65, 100, 783, 5000):
            assert default_lag_grid(max_lag).lags[-1] == max_lag

    def test_validation(self):
        with pytest.raises(ValueError):
            LagGrid(())
        with pytest.raises(ValueError):
            LagGrid((0, 1))
        with pytest.raises(ValueError):
            LagGrid((1, 1))
        with pytest.raises(ValueError):
            default_lag_grid(0)
        # a lag that is not a whole number is refused, not truncated
        for lags in ((1.5, 2.9, 7.99), (1, 2.5), (np.float64(3.25),)):
            with pytest.raises(ValueError, match="whole numbers"):
                LagGrid(lags)
        assert LagGrid((1.0, np.float64(3.0), np.int64(7))).lags == (1, 3, 7)

    @pytest.mark.parametrize("lags, pairs, name", [
        ([1.5, 2.7, 3.2], [1000, 999, 998], "lags"),
        ([1, 2, 3], [1000.9, 999.5, 998], "pairs"),
    ])
    def test_curve_refuses_fractional_lags_and_pair_counts(self, lags, pairs, name):
        with pytest.raises(ValueError, match=f"curve {name} must be whole numbers"):
            DecayCurve(lags=lags, mi=[0.3, 0.2, 0.1], pairs=pairs)
        curve = DecayCurve(lags=[1.0, 2.0, 3.0], mi=[0.3, 0.2, 0.1], pairs=[1000.0, 999, 998])
        assert curve.lags.tolist() == [1, 2, 3] and curve.pairs.tolist() == [1000, 999, 998]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(bias_correction="jackknife"), "bias_correction must be one of"),
        (dict(min_pair_count=0), "min_pair_count must be >= 1"),
    ])
    def test_invalid_config_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("lags, mi, pairs, message", [
        ([1, 2, 3], [0.3, 0.2], [10, 9, 8], "equal shapes"),
        ([], [], [], "at least one point"),
    ])
    def test_curve_of_unequal_or_no_points_refused(self, lags, mi, pairs, message):
        with pytest.raises(ValueError, match=message):
            DecayCurve(lags=lags, mi=mi, pairs=pairs)


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        c = corpus_from_lists([rng.integers(0, 4, 3000)], 4)
        curve = decay_curve(c, default_lag_grid(50), EstimatorConfig(min_pair_count=1))
        path = tmp_path / "curve.csv"
        curve_to_csv(curve, path)
        back = curve_from_csv(path)
        assert back.lags.tolist() == curve.lags.tolist()
        assert back.mi.tolist() == curve.mi.tolist()  # 17 sig digits round-trip
        assert back.pairs.tolist() == curve.pairs.tolist()

    def test_meta_round_trips_through_the_sidecar(self, tmp_path):
        c = corpus_from_lists([np.random.default_rng(3).integers(0, 4, 3000)], 4)
        # 3,000 symbols give lag d 3,000 - d pairs: lags 11 to 50 are skipped
        curve = decay_curve(c, default_lag_grid(50), EstimatorConfig(min_pair_count=2990))
        assert len(curve.meta["skipped_lags"]) == 40 and len(curve.meta["bias_floor_nats"]) == 10
        path = tmp_path / "curve.csv"
        curve_to_csv(curve, path)
        assert (tmp_path / "curve.csv.meta.json").exists()
        assert curve_from_csv(path).meta == curve.meta

    def test_empty_meta_removes_a_stale_sidecar_and_writes_none(self, tmp_path):
        path, sidecar = tmp_path / "curve.csv", tmp_path / "curve.csv.meta.json"
        sidecar.write_text('{"bias_floor_nats": [0.5, 0.5]}')
        curve_to_csv(DecayCurve(lags=[1, 2], mi=[0.5, 0.25], pairs=[10, 9]), path)
        assert not sidecar.exists()
        assert curve_from_csv(path).meta == {}

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi,pairs\n1,0.5,10\n")
        with pytest.raises(EstimationError, match="header"):
            curve_from_csv(p)

    def test_header_only_has_no_curve_points(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("lag,mi_nats,pair_count\n")
        with pytest.raises(EstimationError, match="no curve points"):
            curve_from_csv(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi_nats,pair_count\n1,0.5\n")
        with pytest.raises(EstimationError):
            curve_from_csv(p)

    def test_negative_mi_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi_nats,pair_count\n1,-0.5,10\n")
        with pytest.raises(EstimationError, match="invalid curve"):
            curve_from_csv(p)

    # a value beyond int64 wrapped to a negative int64 in the cast, with a warning
    @pytest.mark.parametrize("row", ["0,0.5,10", "-3,0.5,10", "2,0.5,-1", f"{2**63},0.5,10",
                                     f"2,0.5,{10**19}", f"2,0.5,{10**30}"])
    def test_lag_or_pair_count_out_of_range_rejected(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"lag,mi_nats,pair_count\n{row}\n")
        with pytest.raises(EstimationError, match="invalid curve"):
            curve_from_csv(p)

    def test_non_ascending_lags_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi_nats,pair_count\n2,0.5,10\n1,0.4,10\n")
        with pytest.raises(EstimationError, match="invalid curve"):
            curve_from_csv(p)
