"""Acceptance suite: one test per release criterion, tolerances pinned here.

Criteria 3, 4 and 5 exercise real datasets (MNIST IDX images, character-level
PTB). They run fully when the files are present (see conftest.require_dataset
for discovery) and skip otherwise; structural twin tests covering the same
code paths on synthetic data always run.
"""

import math
import time

import numpy as np
import pytest

from midecay import (
    Corpus,
    EstimatorConfig,
    build_grid,
    classify,
    decay_curve,
    default_lag_grid,
    detect_periodicity,
    fit_broken_power_law,
    fit_exponential,
    fit_power_law,
    intercept_dilations,
    load_idx_images,
    load_text,
    noise_crossing,
    permute,
)
from midecay.fit import (
    BrokenPowerLawFit,
    ClassifiedFit,
    DecayClass,
    ExponentialFit,
    PeriodicitySignature,
    PowerLawFit,
    crossing_low_confidence,
)
from tests.conftest import (
    corpus_from_lists,
    image_corpus,
    joint_dict,
    lag_mi,
    make_curve,
    naive_mi,
    naive_pair_counts,
    pattern_corpus,
    require_dataset,
)

GRID_1000 = default_lag_grid(1000)
LAGS_1000 = np.array(GRID_1000.lags, dtype=float)


def report(n, name):
    print(f"CRITERION {n} ({name}): PASS")


# ---------------------------------------------------------------------------
# synthetic curve generators shared by criteria 8 and 9

def gen_power(rng, sigma=0.05):
    a = rng.uniform(0.1, 1.0)
    s = rng.uniform(-1.5, -0.4)
    return make_curve(LAGS_1000.astype(int), a * LAGS_1000**s
                      * np.exp(rng.normal(0, sigma, LAGS_1000.size)))


def gen_broken(rng, sigma=0.05):
    a = rng.uniform(0.2, 1.0)
    s1 = rng.uniform(-2.0, -1.2)
    s2 = rng.uniform(-0.8, -0.3)
    b = int(rng.integers(8, 31))
    logmi = np.where(
        LAGS_1000 <= b,
        math.log(a) + s1 * np.log(LAGS_1000),
        math.log(a) + (s1 - s2) * math.log(b) + s2 * np.log(LAGS_1000),
    )
    return make_curve(LAGS_1000.astype(int),
                      np.exp(logmi + rng.normal(0, sigma, LAGS_1000.size)))


def gen_periodic(rng, sigma=0.05):
    a = rng.uniform(0.1, 1.0)
    s = rng.uniform(-1.2, -0.4)
    p = int(rng.choice([7, 14, 28]))
    mi = a * LAGS_1000**s * np.exp(rng.normal(0, sigma, LAGS_1000.size))
    bump = rng.uniform(2.0, 3.0)
    for i, lag in enumerate(GRID_1000.lags):
        if lag % p == 0 and lag <= 64:
            mi[i] *= bump
    return make_curve(LAGS_1000.astype(int), mi), p


def gen_exponential(rng, sigma=0.05):
    a = rng.uniform(0.1, 1.0)
    lam = rng.uniform(0.05, 0.3)
    return make_curve(LAGS_1000.astype(int), a * np.exp(-lam * LAGS_1000)
                      * np.exp(rng.normal(0, sigma, LAGS_1000.size)))


def ptb_like_broken_fit(break_d=12, s1=-1.2, s2=-0.6, mi1=0.55):
    """Frozen stand-in with the documented break near 12, continuous segments."""
    a1 = math.log(mi1)
    a2 = a1 + (s1 - s2) * math.log(break_d)
    return ClassifiedFit(
        decay_class=DecayClass.BROKEN_POWER_LAW,
        max_lag=1000,
        broken=BrokenPowerLawFit(
            break_d,
            PowerLawFit(s1, a1, 0.99, (1, break_d), 12),
            PowerLawFit(s2, a2, 0.99, (break_d, 240), 30),
            0.8,
        ),
        noise_crossing_d=240,
    )


class TestCriterion1OracleEquivalence:
    def test_streaming_mi_matches_brute_force(self):
        start = time.monotonic()
        rng = np.random.default_rng(123456)
        n_checked = 0
        while n_checked < 10_000:
            k = int(rng.integers(1, 6))
            n_seq = int(rng.integers(1, 3))
            seqs = [
                rng.integers(0, k, int(rng.integers(2, 65))).tolist()
                for _ in range(n_seq)
            ]
            max_len = max(len(s) for s in seqs)
            d = int(rng.integers(1, max_len))
            joint = naive_pair_counts(seqs, d)
            if not joint:
                continue
            corpus = corpus_from_lists(seqs, k)
            assert joint_dict(corpus, d) == joint
            assert abs(lag_mi(corpus, d) - max(0.0, naive_mi(joint))) <= 1e-12
            n_checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
        report(1, f"oracle equivalence, {n_checked} corpora in {elapsed:.1f}s")


class TestCriterion2AnalyticMi:
    def test_alternation_ln2(self):
        seq = np.arange(100001) % 2  # odd length: pair types exactly balanced
        corpus = corpus_from_lists([seq], 2)
        mi = lag_mi(corpus, 1)
        assert abs(mi - math.log(2)) < 1e-9

    @pytest.mark.parametrize("period", [3, 7, 28])
    def test_deterministic_period_detected_exactly(self, period):
        corpus = pattern_corpus([0] * (period - 1) + [1], 2, n_symbols=60000)
        curve = decay_curve(corpus, default_lag_grid(64), EstimatorConfig())
        sig = detect_periodicity(curve)
        assert sig is not None
        assert sig.period == period
        report(2, f"analytic MI and exact period {period}")


class TestCriterion3MnistPeriodicity:
    def test_structural_twin_spatially_correlated_images(self):
        corpus = image_corpus(2000, seed=0)
        curve = decay_curve(corpus, default_lag_grid(600), EstimatorConfig())
        sig = detect_periodicity(curve)
        assert sig is not None and sig.period == 28
        mi1 = float(curve.mi[0])
        for seed in (1, 2, 3):
            permuted = permute(corpus, seed)
            assert lag_mi(permuted, 1) < mi1
        report(3, "structural twin: period 28 and permutation lowers MI(1)")

    def test_real_mnist(self):
        path = require_dataset("MIDECAY_MNIST_IDX", "train-images-idx3-ubyte")
        start = time.monotonic()
        corpus = load_idx_images(path)
        curve = decay_curve(corpus, default_lag_grid(783), EstimatorConfig())
        sig = detect_periodicity(curve)
        assert sig is not None and sig.period == 28
        mi1 = float(curve.mi[0])
        for seed in (1, 2, 3):
            permuted = permute(corpus, seed)
            assert lag_mi(permuted, 1) < mi1
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"full-file analysis took {elapsed:.0f}s"
        report(3, f"real MNIST period 28 in {elapsed:.0f}s")


class TestCriterion4PermutedMnistSpan:
    CONFIG = EstimatorConfig(bias_correction="miller_madow", min_pair_count=1)

    def test_structural_twin_low_confidence_flag(self):
        # at twin scale the plug-in bias floor dwarfs the 1e-5 threshold, so
        # the crossing must carry the low-confidence flag
        corpus = permute(image_corpus(2000, seed=0), 1)
        curve = decay_curve(corpus, default_lag_grid(783), self.CONFIG)
        assert any(f > 1e-5 for f in curve.meta["bias_floor_nats"])
        assert crossing_low_confidence(curve, 1e-5)
        report(4, "structural twin: bias floor above threshold raises the flag")

    def test_real_permuted_mnist(self):
        path = require_dataset("MIDECAY_MNIST_IDX", "train-images-idx3-ubyte")
        corpus = permute(load_idx_images(path), 1)
        curve = decay_curve(corpus, default_lag_grid(783), self.CONFIG)
        crossing = noise_crossing(curve, 1e-5)
        if crossing_low_confidence(curve, 1e-5):
            report(4, "real permuted MNIST: low-confidence flag emitted")
            return
        assert crossing is not None and 600 <= crossing <= 783
        report(4, f"real permuted MNIST crossing {crossing} in [600, 783]")


class TestCriterion5PtbBrokenPowerLaw:
    def test_structural_twin_broken_curve(self):
        rng = np.random.default_rng(55)
        fit = classify(gen_broken(rng))
        assert fit.decay_class is DecayClass.BROKEN_POWER_LAW
        report(5, "structural twin: broken decay classified as BrokenPowerLaw")

    def test_real_ptb_character_level(self):
        path = require_dataset(
            "MIDECAY_PTB_CHAR", "ptb.train.txt", "ptb.char.train.txt", "train.txt"
        )
        start = time.monotonic()
        corpus = load_text(path, "char")
        # the published character-level training set: ~5.1M symbols over ~50
        # distinct characters
        assert 4_000_000 <= corpus.n_symbols <= 6_500_000
        assert 40 <= corpus.alphabet_size <= 75
        curve = decay_curve(corpus, default_lag_grid(1000), EstimatorConfig())
        fit = classify(curve)
        assert fit.decay_class is DecayClass.BROKEN_POWER_LAW
        assert 8 <= fit.broken.break_d <= 20
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"PTB analysis took {elapsed:.0f}s"
        report(5, f"PTB break at {fit.broken.break_d} in [8, 20], {elapsed:.0f}s")


class TestCriterion6ScheduleShape:
    @staticmethod
    def _assert_shape(schedule, break_d):
        dil = schedule.dilations
        assert len(dil) == 12
        below = [d for d in dil if d <= break_d]
        assert len(below) >= 6, f"only {len(below)} dilations at or below {break_d}"
        gaps_above = [
            b - a for a, b in zip(dil, dil[1:]) if b > break_d
        ]
        assert all(g2 > g1 for g1, g2 in zip(gaps_above, gaps_above[1:])), (
            f"gaps above the break must strictly grow, got {gaps_above}"
        )

    def test_frozen_broken_fit_twin(self):
        fit = ptb_like_broken_fit()
        schedule = intercept_dilations(fit, 12, 240)
        self._assert_shape(schedule, fit.broken.break_d)
        report(6, f"12-layer schedule {schedule.dilations} is dense-then-sparse")

    def test_real_ptb_schedule(self):
        path = require_dataset(
            "MIDECAY_PTB_CHAR", "ptb.train.txt", "ptb.char.train.txt", "train.txt"
        )
        corpus = load_text(path, "char")
        curve = decay_curve(corpus, default_lag_grid(1000), EstimatorConfig())
        fit = classify(curve)
        assert fit.decay_class is DecayClass.BROKEN_POWER_LAW
        schedule = intercept_dilations(fit, 12, 240)
        self._assert_shape(schedule, fit.broken.break_d)
        report(6, f"PTB 12-layer schedule {schedule.dilations}")


class TestCriterion7GeometricRecovery:
    def test_exact_standard_progression(self):
        fit = ClassifiedFit(
            decay_class=DecayClass.POWER_LAW,
            max_lag=1000,
            power=PowerLawFit(-1.0, math.log(0.5), 1.0, (1, 1000), 60),
            noise_crossing_d=256,
        )
        schedule = intercept_dilations(fit, 9, 256)
        assert schedule.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        report(7, "geometric recovery 1..256 exact")


class TestCriterion8SyntheticConfusion:
    def test_ninety_five_of_hundred_per_class(self):
        start = time.monotonic()
        outcomes = {}
        for name, gen in [
            ("PowerLaw", gen_power),
            ("BrokenPowerLaw", gen_broken),
            ("PowerLawPeriodic", None),
            ("Exponential", gen_exponential),
        ]:
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                curve = gen_periodic(rng)[0] if gen is None else gen(rng)
                if classify(curve).decay_class.value == name:
                    hits += 1
            outcomes[name] = hits
            assert hits >= 95, f"{name}: only {hits}/100 classified correctly"
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"confusion sweep took {elapsed:.1f}s"
        report(8, f"confusion {outcomes} in {elapsed:.1f}s")


class TestCriterion9FitRecovery:
    def test_power_slope_within_band(self):
        rng = np.random.default_rng(42)
        lags = LAGS_1000[LAGS_1000 <= 256]
        curve = make_curve(lags.astype(int),
                           lags**-1.0 * np.exp(rng.normal(0, 0.1, lags.size)))
        fit = fit_power_law(curve)
        assert abs(fit.slope + 1.0) < 0.05

    def test_broken_break_within_band(self):
        rng = np.random.default_rng(7)
        lags = LAGS_1000[LAGS_1000 <= 300]
        logmi = np.where(lags <= 12, math.log(0.6) - 1.5 * np.log(lags),
                         math.log(0.6) - math.log(12) - 0.5 * np.log(lags))
        curve = make_curve(lags.astype(int),
                           np.exp(logmi + rng.normal(0, 0.05, lags.size)))
        fit = fit_broken_power_law(curve)
        assert 8 <= fit.break_d <= 16

    def test_exponential_rate_within_band(self):
        rng = np.random.default_rng(11)
        lags = np.arange(1, 101, dtype=float)
        curve = make_curve(lags.astype(int),
                           0.3 * np.exp(-lags / 10.0)
                           * np.exp(rng.normal(0, 0.05, lags.size)))
        fit = fit_exponential(curve)
        assert abs(fit.rate - 0.1) / 0.1 < 0.05
        report(9, "fit recovery: slope, break, and rate within stated bands")


class TestCriterion10GridReproduction:
    def test_unpermuted_mnist_standard_family(self):
        fit = ClassifiedFit(
            decay_class=DecayClass.POWER_LAW_PERIODIC,
            max_lag=783,
            power=PowerLawFit(-0.8, math.log(0.3), 0.9, (1, 783), 90),
            periodicity=PeriodicitySignature(28, (28, 56), 0.2),
        )
        spec = build_grid(fit, range(4, 10))
        standards = {s.dilations for s in spec.schedules if s.origin == "standard"}
        assert standards == {
            tuple(2**i for i in range(n)) for n in range(4, 10)
        }
        assert spec.max_dilation.value == 28

    def test_permuted_mnist_terminal_schedule(self):
        fit = ClassifiedFit(
            decay_class=DecayClass.EXPONENTIAL,
            max_lag=783,
            expo=ExponentialFit(0.01, math.log(1e-3), 0.99, (300, 783), 20),
            noise_crossing_d=780,
        )
        spec = build_grid(fit, range(7, 12))
        rows = [s.dilations for s in spec.schedules]
        assert (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 780) in rows
        assert spec.max_dilation.value == 780
        report(10, "grid reproduces the standard family and the 512,780 terminal row")
