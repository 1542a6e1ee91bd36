"""Decay-law fits, periodicity detection, noise crossing, classification."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midecay import fit as fit_module
from midecay import (
    EstimatorConfig,
    FitError,
    classify,
    decay_curve,
    default_lag_grid,
    detect_decay_onset,
    detect_periodicity,
    fit_broken_power_law,
    fit_exponential,
    fit_power_law,
    noise_crossing,
)
from midecay.fit import (
    SSE_TIE_EPS,
    BrokenPowerLawFit,
    ClassifiedFit,
    DecayClass,
    PeriodicitySignature,
    PowerLawFit,
    _moving_median,
    _ols,
    _usable,
    crossing_low_confidence,
    read_fit_json,
    write_fit_json,
)
from midecay.jsonio import from_dict, to_dict
from tests.conftest import make_curve, naive_ols, pattern_corpus

GRID_1000 = np.array(default_lag_grid(1000).lags, dtype=float)


def power_curve(a=0.5, slope=-1.2, d_max=100, noise=None, seed=0, lags=None):
    d = np.arange(1, d_max + 1, dtype=float) if lags is None else np.asarray(lags, float)
    mi = a * d**slope
    if noise:
        mi = mi * np.exp(np.random.default_rng(seed).normal(0, noise, d.size))
    return make_curve(d.astype(int), mi)


def broken_curve(a=0.6, s1=-1.5, s2=-0.5, break_d=12, d_max=300, noise=None, seed=0):
    d = GRID_1000[GRID_1000 <= d_max]
    logmi = np.where(
        d <= break_d,
        math.log(a) + s1 * np.log(d),
        math.log(a) + (s1 - s2) * math.log(break_d) + s2 * np.log(d),
    )
    if noise:
        logmi = logmi + np.random.default_rng(seed).normal(0, noise, d.size)
    return make_curve(d.astype(int), np.exp(logmi))


def exponential_curve(a=0.3, rate=0.1, d_max=100, noise=None, seed=0):
    d = np.arange(1, d_max + 1, dtype=float)
    mi = a * np.exp(-rate * d)
    if noise:
        mi = mi * np.exp(np.random.default_rng(seed).normal(0, noise, d.size))
    return make_curve(d.astype(int), mi)


class TestPowerLawFit:
    def test_exact_recovery(self):
        fit = fit_power_law(power_curve(a=0.5, slope=-1.2, d_max=100))
        assert abs(fit.slope + 1.2) < 1e-9
        assert abs(fit.log_intercept - math.log(0.5)) < 1e-9
        assert fit.r2 > 1 - 1e-9

    def test_two_points_rejected(self):
        curve = make_curve([1, 2], [0.5, 0.25])
        with pytest.raises(FitError, match="3 usable"):
            fit_power_law(curve)

    def test_zero_mi_points_excluded_and_reported(self):
        curve = make_curve([1, 2, 3, 4, 5], [0.5, 0.0, 0.1, 0.05, 0.0])
        fit = fit_power_law(curve)
        assert fit.n_points == 3
        assert fit.n_excluded == 2

    def test_all_zero_rejected(self):
        curve = make_curve([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(FitError):
            fit_power_law(curve)

    def test_noisy_recovery_within_band(self):
        curve = power_curve(a=1.0, slope=-1.0, d_max=256, noise=0.1, seed=42)
        fit = fit_power_law(curve)
        assert abs(fit.slope + 1.0) < 0.05

    def test_range_restriction(self):
        curve = broken_curve()
        left = fit_power_law(curve, (1, 12))
        assert abs(left.slope + 1.5) < 1e-6

    def test_local_optimality_of_least_squares(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = np.arange(1, 40)
            mi = np.exp(rng.normal(-2, 1, d.size))
            curve = make_curve(d, mi)
            fit = fit_power_law(curve)
            x, y = np.log(d.astype(float)), np.log(mi)
            best = float(((y - fit.log_intercept - fit.slope * x) ** 2).sum())
            for fs in (0.99, 1.01):
                for fi in (0.99, 1.01):
                    sse = float(
                        ((y - fit.log_intercept * fi - fit.slope * fs * x) ** 2).sum()
                    )
                    assert sse >= best - 1e-12


class TestExponentialFit:
    def test_exact_recovery(self):
        fit = fit_exponential(exponential_curve(a=0.3, rate=0.1, d_max=100))
        assert abs(fit.rate - 0.1) < 1e-9
        assert abs(fit.log_intercept - math.log(0.3)) < 1e-9
        assert fit.r2 > 1 - 1e-9
        assert fit.decaying

    def test_constant_curve_flagged_non_decaying(self):
        curve = make_curve([1, 2, 3, 4, 5], [0.2] * 5)
        fit = fit_exponential(curve)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert not fit.decaying

    def test_noisy_rate_within_five_percent(self):
        curve = exponential_curve(a=0.3, rate=0.1, d_max=100, noise=0.05, seed=11)
        fit = fit_exponential(curve)
        assert abs(fit.rate - 0.1) / 0.1 < 0.05


class TestBrokenPowerLawFit:
    def test_exact_two_segment_recovery(self):
        fit = fit_broken_power_law(broken_curve(break_d=12))
        assert 8 <= fit.break_d <= 16
        assert abs(fit.left.slope + 1.5) < 0.05
        assert abs(fit.right.slope + 0.5) < 0.05
        assert fit.improvement > 0.5

    def test_noisy_break_recovery(self):
        fit = fit_broken_power_law(broken_curve(break_d=12, noise=0.05, seed=7))
        assert 8 <= fit.break_d <= 16

    def test_single_power_law_gets_no_material_improvement(self):
        fit = fit_broken_power_law(power_curve(slope=-1.0, d_max=50))
        assert fit.improvement < 0.05

    def test_needs_seven_points(self):
        curve = make_curve([1, 2, 3, 4, 5, 6], 0.5 * np.arange(1, 7.0) ** -1)
        with pytest.raises(FitError, match="7"):
            fit_broken_power_law(curve)

    def test_break_matches_independent_exhaustive_search(self):
        # independent re-implementation of the exhaustive candidate scan
        for seed in range(5):
            curve = broken_curve(
                s1=-1.8, s2=-0.6, break_d=15, d_max=400, noise=0.05, seed=seed
            )
            fit = fit_broken_power_law(curve)
            d = curve.lags[curve.mi > 0].astype(float)
            y = np.log(curve.mi[curve.mi > 0])
            x = np.log(d)
            best = None
            for i in range(len(d)):
                if i + 1 < 3 or len(d) - i < 3:
                    continue
                _, _, sse_l = naive_ols(x[: i + 1].tolist(), y[: i + 1].tolist())
                _, _, sse_r = naive_ols(x[i:].tolist(), y[i:].tolist())
                sse = sse_l + sse_r
                if best is None or sse < best[1] - 1e-12:
                    best = (int(d[i]), sse)
            assert fit.break_d == best[0]

    def test_d_ranges_meet_at_break(self):
        fit = fit_broken_power_law(broken_curve(break_d=12))
        assert fit.left.d_range[1] == fit.break_d
        assert fit.right.d_range[0] == fit.break_d

    @pytest.mark.parametrize("lags, zero_lag, break_d, n_left", [
        # the first and last admissible breaks: three usable points on one side
        (range(1, 9), 2, 4, 3),
        (range(1, 8), None, 5, 5),
    ])
    def test_break_at_the_edge_of_the_candidate_range(self, lags, zero_lag, break_d, n_left):
        d = np.array(lags, dtype=float)
        mi = np.where(d <= break_d, d**-2.0, break_d**-1.7 * d**-0.3)
        mi[d == zero_lag] = 0.0
        fit = fit_broken_power_law(make_curve(d.astype(int), mi))
        n = int(np.count_nonzero(mi))
        assert n == 7 and fit.break_d == break_d
        assert (fit.left.n_points, fit.right.n_points) == (n_left, n + 1 - n_left)
        assert fit.left.n_excluded == (zero_lag is not None) and fit.right.n_excluded == 0
        assert abs(fit.left.slope + 2.0) < 1e-9 and abs(fit.right.slope + 0.3) < 1e-9


def exhaustive_break(curve, d_range=None):
    """The break search that refits every candidate with _ols: the oracle
    that the screened search must match float for float."""
    d, mi, n_excluded = _usable(curve, d_range)
    x = np.log(d)
    y = np.log(mi)
    sse_single = _ols(x, y)[3]
    sse = {
        i: _ols(x[: i + 1], y[: i + 1])[3] + _ols(x[i:], y[i:])[3]
        for i in range(2, d.size - 2)
    }
    best_sse = min(sse.values())
    i = next(i for i, s in sse.items() if s <= best_sse + SSE_TIE_EPS)
    break_d, sse_broken = int(d[i]), sse[i]
    if sse_single <= 1e-20:
        improvement = 0.0
    else:
        improvement = max(0.0, 1.0 - sse_broken / sse_single)
    ls, li, lr2, _ = _ols(x[: i + 1], y[: i + 1])
    rs, ri, rr2, _ = _ols(x[i:], y[i:])
    left = PowerLawFit(ls, li, lr2, (int(d[0]), break_d), i + 1, n_excluded)
    right = PowerLawFit(rs, ri, rr2, (break_d, int(d[-1])), int(d.size) - i, 0)
    return BrokenPowerLawFit(break_d, left, right, improvement), sse


def assert_same_break(curve, d_range=None):
    """fit_broken_power_law equals the oracle exactly; returns the oracle's
    SSE of every break index."""
    expected, sse = exhaustive_break(curve, d_range)
    fit = fit_broken_power_law(curve, d_range)
    assert fit.break_d == expected.break_d
    assert fit.left == expected.left and fit.right == expected.right
    assert fit.improvement == expected.improvement
    return sse


class TestBreakScreen:
    @pytest.mark.parametrize("seed", range(6))
    def test_noisy_broken_curves(self, seed):
        for noise in (0.01, 0.05, 0.3):
            assert_same_break(broken_curve(s1=-1.8, s2=-0.6, break_d=15, d_max=400,
                                           noise=noise, seed=seed))
            assert_same_break(broken_curve(noise=noise, seed=seed), (3, 200))

    @pytest.mark.parametrize("lags", [range(1, 101), GRID_1000, range(7, 14)])
    def test_exact_power_laws_tie_at_every_break(self, lags):
        for slope in (-0.3, -1.2, -2.5):
            assert_same_break(power_curve(slope=slope, lags=lags))

    def test_near_ties_around_the_tie_epsilon(self):
        # noise of 1e-7 to 1e-6 on a power law spreads every break's SSE over
        # a few SSE_TIE_EPS, so the tie rule picks breaks other than the least
        not_least = 0
        for seed in range(30):
            for noise in (1e-7, 3e-7, 1e-6):
                sse = assert_same_break(power_curve(noise=noise, seed=seed, d_max=60))
                best = min(sse.values())
                chosen = next(i for i, s in sse.items() if s <= best + SSE_TIE_EPS)
                not_least += sse[chosen] != best
        assert not_least >= 10

    def test_zero_mi_points(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            curve = broken_curve(noise=0.05, seed=seed)
            mi = np.where(rng.random(curve.mi.size) < 0.2, 0.0, curve.mi)
            assert_same_break(make_curve(curve.lags, mi))

    def test_seven_point_minimum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lags = np.sort(rng.choice(np.arange(1, 60), 7, replace=False))
            assert_same_break(make_curve(lags, np.exp(rng.normal(-3, 1, 7))))

    def test_random_short_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(7, 120))
            lags = np.unique(rng.integers(1, 3000, 2 * n))[:n]
            noise = rng.normal(0, rng.choice([0, 1e-3, 0.1]), lags.size)
            logmi = rng.uniform(-2, 0) * np.log(lags) + noise
            assert_same_break(make_curve(lags, np.exp(logmi)))

    def test_lags_with_one_log_raise_as_the_oracle_does(self):
        # ln d of the last five lags is one float: every break that leaves
        # three of them on the right is refit, and _ols raises for it
        lags = np.array([*range(1, 9), *(10**17 + k for k in range(5))])
        curve = make_curve(lags, lags.astype(float) ** -1.0 * np.linspace(1, 2, lags.size))
        for search in (exhaustive_break, fit_broken_power_law):
            with pytest.raises(FitError, match="all x values identical"):
                search(curve)

    def test_long_curve_refits_a_handful_in_linear_memory(self):
        # 200k unit lags: refitting every break takes about 400k _ols calls,
        # and an n x n table of the candidates 40 GB
        n = 200_000
        lags = np.arange(1, n + 1)
        x = np.log(lags.astype(float))
        logmi = np.where(x <= math.log(500), -1.5 * x, -math.log(500) - 0.5 * x)
        logmi += np.random.default_rng(1).normal(0, 0.05, n)
        curve = make_curve(lags, np.exp(logmi))
        with mock.patch.object(fit_module, "_ols", wraps=_ols) as spy:
            fit = fit_broken_power_law(curve)
        assert spy.call_count <= 11 and 400 <= fit.break_d <= 600
        tracemalloc.start()
        try:
            fit_broken_power_law(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 8 * n  # 50 float64 arrays of the curve's length


class TestPeriodicity:
    def test_monotone_power_law_has_none(self):
        assert detect_periodicity(power_curve(d_max=100)) is None

    def test_prefix_without_a_power_law_fit_has_none(self):
        # ten unit lags, only two of them with MI > 0: the prefix fit fails
        mi = np.zeros(10)
        mi[[2, 6]] = 0.5, 0.1
        assert detect_periodicity(make_curve(np.arange(1, 11), mi)) is None

    @pytest.mark.parametrize("period, peaks", [(2.7, (3, 6)), (3, (3.5, 6.1)),
                                               (2.7, (3.5, 6.1)), (np.float64(4.5), (5, 9))])
    def test_signature_refuses_fractional_lags(self, period, peaks):
        with pytest.raises(ValueError, match="whole numbers"):
            PeriodicitySignature(period, peaks, 0.2)

    def test_signature_takes_whole_floats_as_ints(self):
        sig = PeriodicitySignature(3.0, (np.float64(3.0), np.int64(6)), 0.2)
        assert sig == PeriodicitySignature(3, (3, 6), 0.2)
        assert type(sig.period) is int and {type(d) for d in sig.peak_lags} == {int}

    def test_deterministic_period_7(self):
        corpus = pattern_corpus([0] * 6 + [1], 2)
        curve = decay_curve(corpus, default_lag_grid(64), EstimatorConfig())
        sig = detect_periodicity(curve)
        assert sig is not None
        assert sig.period == 7
        assert sig.peak_lags == tuple(range(7, 64, 7))

    def test_period_peaks_attain_marginal_entropy(self):
        corpus = pattern_corpus([0] * 6 + [1], 2, n_symbols=70000)
        curve = decay_curve(corpus, default_lag_grid(30), EstimatorConfig())
        h = -(6 / 7) * math.log(6 / 7) - (1 / 7) * math.log(1 / 7)
        for lag in (7, 14, 21, 28):
            assert abs(curve.mi[lag - 1] - h) < 1e-3
            assert curve.mi[lag - 1] > curve.mi[lag - 2]

    def test_short_prefix_returns_none(self):
        curve = make_curve([1, 2, 3, 4, 5, 6, 7], 0.5 * np.arange(1, 8.0) ** -1)
        assert detect_periodicity(curve) is None

    def test_irregular_spacing_rejected(self):
        d = np.arange(1, 40)
        mi = 0.5 * d.astype(float) ** -1.0
        mi[9] *= 8.0  # lags 10 and 27: spacing 17 vs nothing repeating
        mi[26] *= 8.0
        mi[32] *= 8.0  # third peak at 33: spacings 17 and 6 are inconsistent
        assert detect_periodicity(make_curve(d, mi)) is None

    def test_synthetic_bumped_curve(self):
        d = np.arange(1, 65)
        rng = np.random.default_rng(5)
        mi = 0.4 * d.astype(float) ** -0.8 * np.exp(rng.normal(0, 0.03, d.size))
        for lag in (14, 28, 42, 56):
            mi[lag - 1] *= 2.5
        sig = detect_periodicity(make_curve(d, mi))
        assert sig is not None
        assert sig.period == 14

    @staticmethod
    def loop_prefix(curve):
        n = 0
        for i, d in enumerate(curve.lags):
            if int(d) != i + 1:
                break
            n = i + 1
        return n

    def loop_periodicity(self, curve):
        """detect_periodicity as a per-lag loop, the reference for the array form."""
        n = self.loop_prefix(curve)
        if n < 8:
            return None
        try:
            base = fit_module.fit_power_law(curve, (1, n))
        except FitError:
            return None
        baseline = np.exp([base.log_mi_at(float(d)) for d in curve.lags[:n]])
        ratio = np.where(baseline > 0, curve.mi[:n] / baseline, 0.0)
        peaks = [int(curve.lags[i]) for i in range(1, n - 1)
                 if ratio[i] >= (1.0 + fit_module.PERIOD_PROMINENCE)
                 * max(ratio[i - 1], ratio[i + 1]) and ratio[i] > 0]
        if len(peaks) < 2:
            return None
        diffs = np.diff(peaks)
        period = int(np.bincount(diffs).argmax())
        if period < 2 or np.any(np.abs(diffs - period) > 1):
            return None
        return fit_module.PeriodicitySignature(period, tuple(peaks), fit_module.PERIOD_PROMINENCE)

    def test_matches_per_lag_loop(self):
        # power laws with bumps every `period` lags, noise, zero points, rounded
        # ties and gaps that end the dense prefix; results must be equal, as
        # the float operations are the same
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(400):
            n = int(rng.integers(3, 300))
            d = np.arange(1, n + 1)
            if rng.random() < 0.3:
                cut = int(rng.integers(1, n))
                d[cut:] += int(rng.integers(1, 5))
            bump = 1 + rng.choice([0.0, 0.3, 1.0]) * (d % int(rng.integers(2, 30)) == 0)
            mi = d ** -rng.uniform(0.1, 2) * bump * np.exp(rng.normal(0, rng.choice([0, 0.3]), n))
            mi[rng.random(n) < rng.choice([0, 0.1])] = 0.0
            if rng.random() < 0.1:
                mi = np.round(mi, 2)
            curve = make_curve(d, mi)
            assert fit_module._dense_prefix(curve) == self.loop_prefix(curve)
            sig = detect_periodicity(curve)
            assert sig == self.loop_periodicity(curve)
            found += sig is not None
        assert found > 50


class TestNoiseCrossing:
    def test_inverse_square_analytic(self):
        curve = make_curve(GRID_1000.astype(int), GRID_1000**-2.0)
        expected = min(d for d in GRID_1000 if d**-2.0 < 1e-5)
        assert noise_crossing(curve) == int(expected)
        assert expected > 10**2.5

    def test_never_below_returns_none(self):
        assert noise_crossing(power_curve(a=1.0, slope=-0.5, d_max=100)) is None

    def test_requires_staying_below(self):
        curve = make_curve([1, 2, 3, 4, 5], [1e-3, 1e-6, 1e-3, 1e-6, 1e-7])
        assert noise_crossing(curve) == 4

    def test_all_below_returns_first_lag(self):
        curve = make_curve([3, 5, 8], [1e-7, 1e-8, 1e-9])
        assert noise_crossing(curve) == 3

    def test_low_confidence_flag_from_bias_floor(self):
        lags = [1, 2, 3, 4, 5, 6, 7, 8]
        mi = [1e-3, 1e-4, 2e-5, 9e-6, 8e-6, 5e-6, 3e-6, 2e-6]
        floors_low = [1e-7] * 8
        floors_high = [1e-7] * 4 + [1e-3] * 4
        curve = make_curve(lags, mi, meta={"bias_floor_nats": floors_low})
        assert not crossing_low_confidence(curve)
        curve = make_curve(lags, mi, meta={"bias_floor_nats": floors_high})
        assert crossing_low_confidence(curve)

    def test_low_confidence_without_meta_is_false(self):
        assert not crossing_low_confidence(power_curve(d_max=20))


class TestDecayOnset:
    def test_moving_median_equals_numpy_median(self):
        # windows of 1 to 5 values, many with tied values
        rng = np.random.default_rng(0)
        for _ in range(2000):
            values = rng.integers(0, 4, int(rng.integers(1, 10))) * rng.choice([1e-3, 1 / 3, 7.0])
            expected = [np.median(values[max(0, i - 2) : i + 3]) for i in range(values.size)]
            assert _moving_median(values).tolist() == expected

    def test_monotone_curve_starts_near_first_lag(self):
        # the smoothing window may absorb the first shoulder point or two
        assert detect_decay_onset(power_curve(slope=-1.0, d_max=100)) <= 3
        assert detect_decay_onset(power_curve(slope=-1.5, d_max=100)) <= 2

    def test_curve_without_mi_starts_at_its_first_lag(self):
        assert detect_decay_onset(make_curve([3, 5, 9, 12], [0.0] * 4)) == 3

    def test_flat_prefix_detected(self):
        lags = GRID_1000[GRID_1000 <= 783]
        mi = np.where(lags < 300, 1e-3, 1e-3 * np.exp(-0.01 * (lags - 300)))
        onset = detect_decay_onset(make_curve(lags.astype(int), mi))
        assert 250 <= onset <= 360


class TestClassify:
    def test_power_law(self):
        fit = classify(power_curve(a=0.8, slope=-0.9, d_max=300))
        assert fit.decay_class is DecayClass.POWER_LAW
        assert fit.power is not None and fit.broken is None

    def test_broken_power_law(self):
        fit = classify(broken_curve(break_d=12, noise=0.03, seed=3))
        assert fit.decay_class is DecayClass.BROKEN_POWER_LAW
        assert 8 <= fit.broken.break_d <= 16

    def test_exponential(self):
        fit = classify(exponential_curve(a=0.3, rate=0.1, d_max=100, noise=0.02, seed=4))
        assert fit.decay_class is DecayClass.EXPONENTIAL
        assert abs(fit.expo.rate - 0.1) / 0.1 < 0.05

    def test_periodic(self):
        corpus = pattern_corpus([0, 0, 1], 2)
        curve = decay_curve(corpus, default_lag_grid(64), EstimatorConfig())
        fit = classify(curve)
        assert fit.decay_class is DecayClass.POWER_LAW_PERIODIC
        assert fit.periodicity.period == 3
        assert fit.power is not None

    def test_flat_then_exponential_lands_exponential_with_onset_range(self):
        rng = np.random.default_rng(5)
        lags = GRID_1000[GRID_1000 <= 783]
        lam = math.log(1e-3 / 0.5e-5) / 480
        mi = np.where(lags < 300, 1e-3, 1e-3 * np.exp(-lam * (lags - 300)))
        mi = mi * np.exp(rng.normal(0, 0.05, lags.size))
        fit = classify(make_curve(lags.astype(int), mi))
        assert fit.decay_class is DecayClass.EXPONENTIAL
        assert 250 <= fit.expo.d_range[0] <= 360
        assert fit.noise_crossing_d is not None

    def test_too_few_points(self):
        with pytest.raises(FitError):
            classify(make_curve([1, 2, 3, 4, 5], 0.5 * np.arange(1, 6.0) ** -1))

    def test_broken_fit_failure_falls_back_to_the_power_law(self):
        # lags 2**62 .. 2**62 + 3 are one float64 value: every break that
        # leaves them a segment of their own cannot be fitted, so the
        # classifier keeps the single power law
        lags = list(range(1, 8)) + [2**62 + k for k in range(4)]
        curve = make_curve(lags, [2.0 * float(d) ** -0.5 for d in lags])
        fit = classify(curve)
        assert fit.decay_class is DecayClass.POWER_LAW
        assert fit.power.d_range[1] == 2**62 and fit.power.r2 == 1.0  # their float64 value
        with pytest.raises(FitError, match="all x values identical"):
            fit_broken_power_law(curve, (fit.power.d_range[0], lags[-1]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exponential_fits_wherever_the_power_law_does(self, data):
        # both fit the same usable points, and distinct ln d means distinct
        # d, so classify calls fit_exponential with no fallback; lags near
        # 2**62 are a float64 ulp (1024) or less apart
        lags = sorted(data.draw(st.lists(
            st.integers(1, 40) | st.integers(2**62 - 4096, 2**62 + 4096),
            min_size=1, max_size=12, unique=True)))
        mi = data.draw(st.lists(st.just(0.0) | st.floats(1e-300, 1e3),
                                min_size=len(lags), max_size=len(lags)))
        d_range = data.draw(st.none() | st.tuples(st.sampled_from(lags), st.sampled_from(lags)))
        curve = make_curve(lags, mi)
        try:
            power = fit_power_law(curve, d_range)
        except FitError:
            return
        expo = fit_exponential(curve, d_range)
        assert (expo.d_range, expo.n_points) == (power.d_range, power.n_points)

    def test_crossing_attached(self):
        fit = classify(power_curve(a=1.0, slope=-2.0, d_max=1000, lags=GRID_1000))
        expected = min(d for d in GRID_1000 if d**-2.0 < 1e-5)
        assert fit.noise_crossing_d == int(expected)

    def test_scaling_invariance(self):
        cases = [
            power_curve(a=0.8, slope=-0.9, d_max=300, noise=0.04, seed=1),
            broken_curve(break_d=15, noise=0.04, seed=2),
            exponential_curve(rate=0.15, d_max=90, noise=0.04, seed=3),
        ]
        corpus = pattern_corpus([0, 0, 0, 1], 2)
        cases.append(decay_curve(corpus, default_lag_grid(64), EstimatorConfig()))
        for curve in cases:
            base = classify(curve)
            for scale in (1e-3, 7.0, 1e4):
                scaled = classify(make_curve(curve.lags, curve.mi * scale))
                assert scaled.decay_class is base.decay_class
                if base.broken is not None:
                    assert scaled.broken.break_d == base.broken.break_d
                if base.periodicity is not None:
                    assert scaled.periodicity.period == base.periodicity.period


class TestClassifiedFitType:
    POWER = PowerLawFit(-1.0, 0.0, 0.99, (1, 100), 100)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(), "PowerLaw fit requires power"),
        (dict(power=POWER, periodicity=PeriodicitySignature(4, (4, 8), 0.2)),
         "PowerLaw fit must not carry periodicity"),
    ])
    def test_models_must_match_the_class(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ClassifiedFit(DecayClass.POWER_LAW, max_lag=100, **kwargs)


class TestFitJson:
    def test_round_trip_all_classes(self, tmp_path):
        curves = {
            "power": power_curve(d_max=200),
            "broken": broken_curve(noise=0.03, seed=9),
            "expo": exponential_curve(noise=0.02, seed=9),
        }
        corpus = pattern_corpus([0, 0, 1], 2)
        curves["periodic"] = decay_curve(corpus, default_lag_grid(64), EstimatorConfig())
        for name, curve in curves.items():
            fit = classify(curve)
            path = tmp_path / f"{name}.json"
            write_fit_json(fit, path)
            back = read_fit_json(path)
            assert back == fit

    def test_dict_round_trip(self):
        fit = classify(broken_curve(noise=0.03, seed=10))
        assert from_dict(ClassifiedFit, to_dict(fit)) == fit

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(FitError):
            read_fit_json(p)

    def test_wrong_document_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"decay_class": "NoSuchLaw"}')
        with pytest.raises(FitError):
            read_fit_json(p)
