"""Pair counting, plug-in MI, decay curves, lag grids, CSV round trips."""

import concurrent.futures
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midecay import (
    Corpus,
    EmptyLagError,
    EstimationError,
    EstimatorConfig,
    LagGrid,
    count_pairs,
    curve_from_csv,
    curve_to_csv,
    decay_curve,
    default_lag_grid,
    mi_from_counts,
)
from midecay import estimator
from tests.conftest import (
    corpus_from_lists,
    joint_dict,
    naive_mi,
    naive_mi_miller_madow,
    naive_pair_counts,
    pattern_corpus,
)

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


class TestCountPairs:
    def test_alternation_counts(self):
        c = corpus_from_lists([[0, 1, 0, 1]], 2)
        pc = count_pairs(c, 1)
        assert joint_dict(pc) == {(0, 1): 2, (1, 0): 1}
        assert pc.total_pairs == 3

    def test_no_cross_boundary_pairs(self):
        c = corpus_from_lists([[0, 1], [1, 0]], 2)
        pc = count_pairs(c, 1)
        assert joint_dict(pc) == {(0, 1): 1, (1, 0): 1}
        assert pc.total_pairs == 2

    def test_lag_too_large_for_every_sequence(self):
        c = corpus_from_lists([[0, 1], [1, 0]], 2)
        with pytest.raises(EmptyLagError):
            count_pairs(c, 5)

    def test_lag_too_large_on_equal_length_stack(self):
        # equal-length corpora are counted as one stacked length group
        c = corpus_from_lists([[0, 1, 0]] * 4, 2)
        with pytest.raises(EmptyLagError):
            count_pairs(c, 3)

    def test_lag_covered_by_longest_sequence_only(self):
        c = corpus_from_lists([[0, 1], [0, 0, 0, 1]], 2)
        pc = count_pairs(c, 3)
        assert joint_dict(pc) == {(0, 1): 1}

    def test_invalid_lag(self):
        c = corpus_from_lists([[0, 1]], 2)
        with pytest.raises(ValueError):
            count_pairs(c, 0)

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_total_pairs_matches_length_formula(self, case):
        seqs, k, d = case
        c = corpus_from_lists(seqs, k)
        expected = sum(max(0, len(s) - d) for s in seqs)
        if expected == 0:
            with pytest.raises(EmptyLagError):
                count_pairs(c, d)
            return
        pc = count_pairs(c, d)
        assert pc.total_pairs == expected
        assert sum(pc.counts.tolist()) == pc.total_pairs

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_counts_match_naive_enumeration(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        c = corpus_from_lists(seqs, k)
        if not joint:
            with pytest.raises(EmptyLagError):
                count_pairs(c, d)
            return
        assert joint_dict(count_pairs(c, d)) == joint


class TestMi:
    def test_alternation_is_ln2(self):
        # odd length makes the two pair types exactly balanced
        n = 100001
        seq = np.arange(n) % 2
        c = corpus_from_lists([seq], 2)
        assert abs(mi_from_counts(count_pairs(c, 1)) - math.log(2)) < 1e-12

    def test_constant_sequence_zero_mi(self):
        c = corpus_from_lists([[0] * 500], 1)
        for d in (1, 7, 100):
            assert mi_from_counts(count_pairs(c, d)) == 0.0

    def test_hand_enumerated_eight_symbol_value(self):
        c = corpus_from_lists([[0, 1, 0, 0, 1, 1, 0, 1]], 2)
        mi = mi_from_counts(count_pairs(c, 1))
        assert abs(mi - MI_ABAABBAB) < 1e-12

    def test_zero_pairs_error(self):
        from midecay.estimator import PairCounts

        with pytest.raises(EmptyLagError):
            empty = np.zeros(0, dtype=np.int64)
            mi_from_counts(PairCounts(empty, empty, empty, total_pairs=0, lag=3))

    @settings(max_examples=300, deadline=None)
    @given(small_corpora())
    def test_oracle_equivalence(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        mi = mi_from_counts(count_pairs(c, d))
        assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_miller_madow_matches_oracle(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        mi = mi_from_counts(
            count_pairs(c, d), EstimatorConfig(bias_correction="miller_madow")
        )
        assert abs(mi - naive_mi_miller_madow(joint)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_corpora())
    def test_nonnegativity_and_upper_bound(self, case):
        seqs, k, d = case
        joint = naive_pair_counts(seqs, d)
        if not joint:
            return
        c = corpus_from_lists(seqs, k)
        mi = mi_from_counts(count_pairs(c, d))
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
        a = mi_from_counts(count_pairs(corpus_from_lists(seqs, k), d))
        b = mi_from_counts(count_pairs(corpus_from_lists(relabeled, k), d))
        assert abs(a - b) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(small_corpora())
    def test_reversal_invariance(self, case):
        seqs, k, d = case
        if not naive_pair_counts(seqs, d):
            return
        reversed_seqs = [list(reversed(s)) for s in seqs]
        a = mi_from_counts(count_pairs(corpus_from_lists(seqs, k), d))
        b = mi_from_counts(count_pairs(corpus_from_lists(reversed_seqs, k), d))
        assert abs(a - b) < 1e-12

    def test_iid_uniform_mi_is_small_plug_in_bias(self):
        rng = np.random.default_rng(2024)
        c = corpus_from_lists([rng.integers(0, 4, 100000)], 4)
        mi = mi_from_counts(count_pairs(c, 1))
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
            assert mi == mi_from_counts(count_pairs(c, int(d)))

    def test_evaluation_order_cannot_matter(self):
        # per-lag values are pure functions of (corpus, lag); computing the
        # grid in shuffled order and re-sorting is bit-identical
        rng = np.random.default_rng(10)
        c = corpus_from_lists([rng.integers(0, 3, 2000)], 3)
        grid = default_lag_grid(64)
        curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
        shuffled = list(grid.lags)
        rng.shuffle(shuffled)
        values = {d: mi_from_counts(count_pairs(c, d)) for d in shuffled}
        assert [values[int(d)] for d in curve.lags] == curve.mi.tolist()

    def test_multi_sequence_pooling_matches_naive(self):
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 4, rng.integers(5, 40)).tolist() for _ in range(10)]
        c = corpus_from_lists(seqs, 4)
        for d in (1, 3, 17):
            expected = max(0.0, naive_mi(naive_pair_counts(seqs, d)))
            assert abs(mi_from_counts(count_pairs(c, d)) - expected) < 1e-12

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
                pc = count_pairs(c, d)
                curve = decay_curve(c, LagGrid((d,)), EstimatorConfig(min_pair_count=1))
            runs.append((pc, mi_from_counts(pc), curve.mi.tolist()))
        (dense, dense_mi, dense_curve), (sparse, sparse_mi, sparse_curve) = runs
        for name in ("xs", "ys", "counts"):
            a, b = getattr(dense, name), getattr(sparse, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert dense_mi == sparse_mi and dense_curve == sparse_curve == [dense_mi]
        assert joint_dict(dense) == joint
        assert abs(dense_mi - max(0.0, naive_mi(joint))) < 1e-12

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
                pc = count_pairs(c, d)
                assert pc.xs.dtype == pc.ys.dtype == np.int64
                assert joint_dict(pc) == joint
                assert abs(mi_from_counts(pc) - max(0.0, naive_mi(joint))) < 1e-12
                assert abs(mi - max(0.0, naive_mi(joint))) < 1e-12

    def test_pixel_corpus_counts_its_occurring_values(self, tmp_path):
        values = np.array([0, 8, 248, 255], dtype=np.uint8)
        picks = np.random.default_rng(19).integers(0, 4, (40, 64))
        pixels = Corpus(sequences=tuple(values[picks]), alphabet_size=256, mode="pixel")
        by_hand = Corpus(sequences=tuple(picks), alphabet_size=4, mode="pixel")
        seqs = [values[row].tolist() for row in picks]
        pc = count_pairs(pixels, 3)
        assert joint_dict(pc) == naive_pair_counts(seqs, 3)
        assert set(pc.xs.tolist()) | set(pc.ys.tolist()) == {0, 8, 248, 255}
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

    def test_image_stack_relabelled_in_place(self):
        # 2,000 images of 784 pixels take 1.57 MB; a second copy would take as much
        rng = np.random.default_rng(20)
        images = (rng.integers(0, 32, (2000, 784)) * 8).astype(np.uint8)
        c = Corpus(sequences=tuple(images), alphabet_size=256, mode="pixel")
        with mock.patch.object(estimator, "_CHUNK", 10_000):
            tracemalloc.start()
            try:
                groups, symbols = estimator._ranked_groups(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < images.nbytes + 500_000
        assert symbols.tolist() == list(range(0, 256, 8))
        assert groups[0].dtype == np.uint8 and groups[0].tolist() == (images // 8).tolist()

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
                pc = count_pairs(c, d)
                assert pc.xs.dtype == pc.ys.dtype == np.int64
                assert joint_dict(pc) == joint
                # naive_mi's running sum drifts by 1e-11 over 70k cells, so the
                # oracle here sums exactly rounded terms with fsum
                n, px, py = sum(joint.values()), Counter(), Counter()
                for (x, y), k in joint.items():
                    px[x] += k
                    py[y] += k
                exact = math.fsum(k * math.log(k * n / (px[x] * py[y]))
                                  for (x, y), k in joint.items()) / n
                assert mi == mi_from_counts(pc)
                assert abs(mi - max(0.0, exact)) < 1e-12

    def test_sparse_counting_path_matches_naive(self):
        # more than 1,024 symbols occur, so K'^2 passes DENSE_JOINT_LIMIT and
        # the np.unique reduction runs
        rng = np.random.default_rng(12)
        k = 5000
        seqs = [np.concatenate([rng.permutation(k), rng.integers(0, k, 400)]).tolist()]
        assert len(set(seqs[0])) ** 2 > estimator.DENSE_JOINT_LIMIT
        c = corpus_from_lists(seqs, k, mode="word")
        pc = count_pairs(c, 2)
        assert joint_dict(pc) == naive_pair_counts(seqs, 2)
        expected = naive_mi(naive_pair_counts(seqs, 2))
        assert abs(mi_from_counts(pc) - expected) < 1e-12

    def test_row_longer_than_chunk_matches_naive(self):
        # one text longer than _CHUNK is counted in column spans
        rng = np.random.default_rng(15)
        seqs = [rng.integers(0, 6, 30_000).tolist()]
        c = corpus_from_lists(seqs, 6)
        with mock.patch.object(estimator, "_CHUNK", 1_000):
            for d in (1, 7, 999, 1_000, 1_001, 29_999):
                assert joint_dict(count_pairs(c, d)) == naive_pair_counts(seqs, d)

    def test_row_longer_than_chunk_bounds_memory(self):
        # the int64 pair codes of a 1M-symbol text would take 8 MB at once
        seq = np.random.default_rng(16).integers(0, 60, 1_000_000).astype(np.uint8)
        c = Corpus(sequences=(seq,), alphabet_size=60, mode="byte")
        with mock.patch.object(estimator, "_CHUNK", 10_000):
            tracemalloc.start()
            try:
                count_pairs(c, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("limit", [estimator.DENSE_JOINT_LIMIT, 0], ids=["bincount", "unique"])
    def test_thread_pool_matches_serial_and_oracle(self, tmp_path, limit):
        # 500-symbol chunks and 8 reported CPUs: more workers than cores
        rng = np.random.default_rng(17)
        seqs = [rng.integers(0, 7, n).tolist() for n in (4000, 2500, 300, 300, 300)]
        c = corpus_from_lists(seqs, 7)
        grid, config = default_lag_grid(400), EstimatorConfig(min_pair_count=1)
        spy = mock.Mock(wraps=concurrent.futures.ThreadPoolExecutor)
        result = {}
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", limit):
            serial = decay_curve(c, grid, config)
            sys.setswitchinterval(1e-5)
            try:
                with mock.patch.object(estimator, "_CHUNK", 500), \
                        mock.patch.object(estimator, "_SPARSE_CHUNK", 500), \
                        mock.patch.object(estimator.os, "sched_getaffinity",
                                          return_value=set(range(8))), \
                        mock.patch.object(concurrent.futures, "ThreadPoolExecutor", spy):
                    run = threading.Thread(
                        target=lambda: result.update(curve=decay_curve(c, grid, config)))
                    run.start()
                    run.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not run.is_alive() and "curve" in result
        assert spy.call_args == mock.call(8)
        assert threading.active_count() == threads  # the pool is shut down
        pooled = result["curve"]
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

    def test_small_corpus_counts_in_calling_thread(self):
        c = corpus_from_lists([np.arange(5000) % 4], 4)
        with mock.patch.object(concurrent.futures, "ThreadPoolExecutor") as pool:
            decay_curve(c, default_lag_grid(100), EstimatorConfig(min_pair_count=1))
        pool.assert_not_called()

    def test_consumer_error_cancels_pending_lags(self):
        c = corpus_from_lists([np.arange(5000) % 4], 4)
        grid = LagGrid(tuple(range(1, 61)))
        calls = []
        real = estimator._lag_cells

        def slow_cells(groups, k, d):
            calls.append(d)
            time.sleep(0.01)
            return real(groups, k, d)

        with mock.patch.object(estimator, "_CHUNK", 1000), \
                mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(estimator, "_lag_cells", slow_cells), \
                mock.patch.object(estimator, "_mi_and_floor", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
        assert len(calls) < len(grid.lags) // 2

    def test_thread_pool_does_not_hold_every_lag(self):
        # 64 lags of 65,536 cells (1.5 MB each) would take 96 MB held at once
        seq = np.random.default_rng(18).integers(0, 256, 1_000_000).astype(np.uint8)
        c = Corpus(sequences=(seq,), alphabet_size=256, mode="byte")
        grid = LagGrid(tuple(range(1, 65)))
        with mock.patch.object(estimator.os, "sched_getaffinity", return_value={0, 1}):
            tracemalloc.start()
            try:
                curve = decay_curve(c, grid, EstimatorConfig(min_pair_count=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert curve.lags.size == 64
        assert peak < 32_000_000

    def test_bias_floor_reported(self):
        rng = np.random.default_rng(13)
        c = corpus_from_lists([rng.integers(0, 4, 5000)], 4)
        curve = decay_curve(c, LagGrid((1, 2)), EstimatorConfig(min_pair_count=1))
        floors = curve.meta["bias_floor_nats"]
        assert len(floors) == 2
        assert abs(floors[0] - 9 / (2 * 4999)) < 1e-12


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

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi,pairs\n1,0.5,10\n")
        with pytest.raises(EstimationError, match="header"):
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
