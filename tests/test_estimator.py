"""Pair counting, plug-in MI, decay curves, lag grids, CSV round trips."""

import math
import tracemalloc
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
        # K*K <= limit reduces with bincount, one below it with unique
        for limit in (k * k, k * k - 1):
            with mock.patch.object(estimator, "DENSE_JOINT_LIMIT", limit), \
                    mock.patch.object(estimator, "_CHUNK", chunk):
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

    def test_sparse_counting_path_matches_naive(self):
        # alphabet large enough to force the np.unique reduction
        rng = np.random.default_rng(12)
        k = 5000
        seqs = [rng.integers(0, k, 400).tolist()]
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

    def test_non_ascending_lags_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("lag,mi_nats,pair_count\n2,0.5,10\n1,0.4,10\n")
        with pytest.raises(EstimationError, match="invalid curve"):
            curve_from_csv(p)
