"""Dilation schedule construction and grid-search spec assembly."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midecay import (
    ScheduleError,
    build_grid,
    capped_standard_dilations,
    intercept_dilations,
    max_dilation,
    schedule,
    schedule_for,
    standard_dilations,
)
from midecay.fit import (
    BrokenPowerLawFit,
    ClassifiedFit,
    DecayClass,
    ExponentialFit,
    PeriodicitySignature,
    PowerLawFit,
)
from midecay.schedule import (
    MAX_UNIT_STEPS,
    DilationSchedule,
    GridSearchSpec,
    _hybrid_dense_then_standard,
    _hybrid_standard_then_sparse,
    grid_from_dict,
    grid_to_dict,
    read_grid_json,
    write_grid_json,
)


def power_fit(slope=-1.0, mi1=0.5, max_lag=1000, crossing=None):
    return ClassifiedFit(
        decay_class=DecayClass.POWER_LAW,
        max_lag=max_lag,
        power=PowerLawFit(slope, math.log(mi1), 0.999, (1, max_lag), 60),
        noise_crossing_d=crossing,
    )


def broken_fit(mi1=0.55, break_d=12, s1=-1.2, s2=-0.6, max_lag=1000, crossing=240):
    a1 = math.log(mi1)
    a2 = a1 + (s1 - s2) * math.log(break_d)  # continuous at the break
    return ClassifiedFit(
        decay_class=DecayClass.BROKEN_POWER_LAW,
        max_lag=max_lag,
        broken=BrokenPowerLawFit(
            break_d,
            PowerLawFit(s1, a1, 0.99, (1, break_d), 12),
            PowerLawFit(s2, a2, 0.99, (break_d, max_lag), 30),
            0.8,
        ),
        noise_crossing_d=crossing,
    )


def _three_exit_solve(segments, level):
    """The reference solver: a clamp on the lag of the segment the level
    reaches, the joint lag for a level in a joint's gap, and d_hi below every
    bottom, each an exit of its own."""
    for i, (d_lo, d_hi, slope, intercept) in enumerate(segments):
        bottom = intercept + slope * math.log(d_hi)
        if level >= bottom:
            return min(max(math.exp((level - intercept) / slope), d_lo), d_hi)
        if i + 1 < len(segments):
            nxt = segments[i + 1]
            if level > nxt[3] + nxt[2] * math.log(nxt[0]):
                return d_hi
    return segments[-1][1]


def _reference_dilations(fit, n_layers, d_max):
    """intercept_dilations driven by the reference solver; None for a
    ScheduleError."""
    with mock.patch.object(schedule, "_solve", _three_exit_solve):
        try:
            return intercept_dilations(fit, n_layers, d_max).dilations
        except ScheduleError:
            return None


# magnitudes from 1e-320 (subnormal) to 1e300, about uniform in the exponent
_MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1, 9.99), st.integers(-320, 299))
_SIGNED = st.builds(lambda m, neg: -m if neg else m, _MAGNITUDES, st.booleans())
# mostly decaying slopes; a rising one must raise ScheduleError
_SLOPES = st.one_of(st.builds(lambda m: -m, _MAGNITUDES), _SIGNED)


def _segment(slope, log_intercept):
    return PowerLawFit(slope, log_intercept, 0.9, (1, 2), 3)


_EXTREME_FITS = st.one_of(
    st.builds(
        lambda s, a: ClassifiedFit(DecayClass.POWER_LAW, max_lag=2**62, power=_segment(s, a)),
        _SLOPES, _SIGNED,
    ),
    st.builds(
        lambda b, s1, a1, s2, a2: ClassifiedFit(
            DecayClass.BROKEN_POWER_LAW, max_lag=2**62,
            broken=BrokenPowerLawFit(b, _segment(s1, a1), _segment(s2, a2), 0.5),
        ),
        st.integers(2, 2**40), _SLOPES, _SIGNED, _SLOPES, _SIGNED,
    ),
)


def periodic_fit(period=28, max_lag=783):
    return ClassifiedFit(
        decay_class=DecayClass.POWER_LAW_PERIODIC,
        max_lag=max_lag,
        power=PowerLawFit(-0.8, math.log(0.3), 0.9, (1, max_lag), 90),
        periodicity=PeriodicitySignature(period, (period, 2 * period), 0.2),
        noise_crossing_d=None,
    )


def exponential_fit(crossing=780, max_lag=783):
    return ClassifiedFit(
        decay_class=DecayClass.EXPONENTIAL,
        max_lag=max_lag,
        expo=ExponentialFit(0.01, math.log(1e-3), 0.99, (300, max_lag), 20),
        noise_crossing_d=crossing,
    )


def flat_periodic_fit():
    """A periodic fit whose power law does not decay: period 28, slope 0.05."""
    return ClassifiedFit(
        decay_class=DecayClass.POWER_LAW_PERIODIC,
        max_lag=783,
        power=PowerLawFit(0.05, math.log(0.3), 0.1, (1, 783), 90),
        periodicity=PeriodicitySignature(28, (28, 56), 0.2),
    )


class TestMaxDilation:
    def test_periodic_uses_period(self):
        md = max_dilation(periodic_fit(period=28))
        assert md.value == 28 and not md.is_lower_bound

    def test_crossing_used_when_present(self):
        md = max_dilation(exponential_fit(crossing=780))
        assert md.value == 780 and not md.is_lower_bound

    def test_fallback_to_max_lag_flagged(self):
        md = max_dilation(power_fit(crossing=None, max_lag=500))
        assert md.value == 500 and md.is_lower_bound


class TestStandardDilations:
    def test_examples(self):
        assert standard_dilations(4).dilations == (1, 2, 4, 8)
        assert standard_dilations(9).dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert standard_dilations(1).dilations == (1,)
        assert standard_dilations(63).dilations[-1] == 2**62

    def test_invalid(self):
        with pytest.raises(ScheduleError):
            standard_dilations(0)
        # a 64th layer would reach 2**63
        with pytest.raises(ScheduleError, match="<= 63"):
            standard_dilations(64)

    @pytest.mark.parametrize("n_layers, d_max, message", [
        (0, 8, "n_layers must be >= 1"),
        (3, 0, "d_max must be >= 1"),
    ])
    def test_capped_variant_invalid(self, n_layers, d_max, message):
        with pytest.raises(ScheduleError, match=message):
            capped_standard_dilations(n_layers, d_max)

    def test_capped_variant(self):
        assert capped_standard_dilations(11, 780).dilations == (
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 780,
        )
        assert capped_standard_dilations(9, 256).dilations == standard_dilations(9).dilations
        assert capped_standard_dilations(3, 3).dilations == (1, 2, 3)
        assert capped_standard_dilations(5, 1).dilations == (1,)
        # a layer count past the cap builds only the powers below it
        assert capped_standard_dilations(5000, 780).dilations[-2:] == (512, 780)
        assert capped_standard_dilations(64, 2**62).dilations == standard_dilations(63).dilations
        assert capped_standard_dilations(64, 2**63 - 1).dilations[-2:] == (2**62, 2**63 - 1)


class TestInterceptDilations:
    def test_geometric_recovery_256(self):
        s = intercept_dilations(power_fit(slope=-1.0), 9, 256)
        assert s.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert s.origin == "curve_fitted"

    def test_geometric_recovery_27(self):
        assert intercept_dilations(power_fit(slope=-1.0), 4, 27).dilations == (1, 3, 9, 27)

    def test_slope_does_not_move_intercepts(self):
        for slope in (-0.25, -0.7, -1.9, -3.0):
            s = intercept_dilations(power_fit(slope=slope), 9, 256)
            assert s.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def test_geometric_recovery_general_radix(self):
        for r in (2, 3, 4):
            for n in (3, 4, 6):
                s = intercept_dilations(power_fit(slope=-0.9), n, r ** (n - 1))
                assert s.dilations == tuple(r**i for i in range(n))

    def test_count_preserved_even_with_duplicate_rounding(self):
        for n, d_max in [(2, 2), (5, 5), (7, 10), (12, 13), (10, 1000)]:
            s = intercept_dilations(power_fit(slope=-1.1), n, d_max)
            assert len(s.dilations) == n
            assert s.dilations[0] == 1
            assert s.dilations[-1] == d_max
            assert all(b > a for a, b in zip(s.dilations, s.dilations[1:]))

    def test_too_many_layers_rejected(self):
        with pytest.raises(ScheduleError, match="strictly increasing"):
            intercept_dilations(power_fit(), 300, 240)

    def test_single_layer_rejected(self):
        with pytest.raises(ScheduleError, match="n_layers"):
            intercept_dilations(power_fit(), 1, 100)

    def test_non_decaying_rejected(self):
        flat = ClassifiedFit(
            decay_class=DecayClass.POWER_LAW,
            max_lag=100,
            power=PowerLawFit(0.2, 0.0, 0.5, (1, 100), 30),
        )
        with pytest.raises(ScheduleError, match="non-decaying"):
            intercept_dilations(flat, 4, 64)

    def test_exponential_fit_has_no_model_to_invert(self):
        with pytest.raises(ScheduleError, match="power-law model"):
            intercept_dilations(exponential_fit(), 4, 64)

    def test_broken_fit_denser_below_break(self):
        bf = broken_fit(break_d=12, s1=-1.2, s2=-0.6)
        s = intercept_dilations(bf, 12, 240)
        below = [d for d in s.dilations if d <= 12]
        above = [d for d in s.dilations if d > 12]
        assert len(below) >= 6
        density_below = len(below) / math.log(12)
        density_above = len(above) / (math.log(240) - math.log(12))
        assert density_below > density_above

    def test_density_law_across_slope_pairs(self):
        for s1, s2 in [(-1.5, -0.5), (-1.0, -0.75), (-2.0, -0.3)]:
            bf = broken_fit(break_d=15, s1=s1, s2=s2)
            s = intercept_dilations(bf, 12, 300)
            below = [d for d in s.dilations if d <= 15]
            above = [d for d in s.dilations if d > 15]
            assert len(below) / math.log(15) > len(above) / (
                math.log(300) - math.log(15)
            )

    def test_break_beyond_d_max_uses_left_segment(self):
        bf = broken_fit(break_d=100)
        s = intercept_dilations(bf, 4, 27)
        assert s.dilations == (1, 3, 9, 27)

    def test_deterministic(self):
        bf = broken_fit()
        assert intercept_dilations(bf, 12, 240) == intercept_dilations(bf, 12, 240)

    # the last level rounds below a right segment flat at float resolution:
    # its log-lag, about 3e283, overflows exp unless clamped first
    @example(
        fit=ClassifiedFit(
            DecayClass.BROKEN_POWER_LAW, max_lag=1000,
            broken=BrokenPowerLawFit(2, _segment(-1.0, 1.0), _segment(-1e-300, 0.1), 0.5),
        ),
        n_layers=2, d_max=3,
    )
    # a level rounds onto the bottom of a slope-dominated fit, past log(d_max):
    # exp(log(d_max)) misses d_max by about 10^4, so a clamp returns d_max itself
    @example(
        fit=ClassifiedFit(
            DecayClass.POWER_LAW, max_lag=2**62,
            power=_segment(-1.0073636732307517e215, -1.8559715991276505e232),
        ),
        n_layers=6, d_max=3097439329673956157,
    )
    @settings(max_examples=500, deadline=None)
    @given(fit=_EXTREME_FITS, n_layers=st.integers(2, 40), d_max=st.integers(2, 2**62))
    def test_extreme_fits_match_the_reference_solver(self, fit, n_layers, d_max):
        try:
            got = intercept_dilations(fit, n_layers, d_max).dilations
        except ScheduleError:
            got = None
        assert got == _reference_dilations(fit, n_layers, d_max)
        if got is not None:
            assert len(got) == n_layers and got[0] == 1 and got[-1] == d_max
            assert all(b > a for a, b in zip(got, got[1:]))


class TestDilationScheduleType:
    def test_first_must_be_one(self):
        with pytest.raises(ValueError, match="first dilation"):
            DilationSchedule((2, 4), "standard")

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DilationSchedule((1, 4, 4), "standard")

    def test_nonempty(self):
        with pytest.raises(ValueError):
            DilationSchedule((), "standard")

    def test_unknown_origin(self):
        with pytest.raises(ValueError, match="unknown origin"):
            DilationSchedule((1, 2), "guessed")

    @pytest.mark.parametrize("dilations", [(1, 2.5, 4.9), (1.0, 2.0, 3.5), (np.float64(1), 2.25)])
    def test_fractional_dilations_refused(self, dilations):
        with pytest.raises(ValueError, match="whole numbers"):
            DilationSchedule(dilations, "standard")

    def test_whole_float_dilations_taken_as_ints(self):
        s = DilationSchedule((1.0, np.float64(2.0), np.int64(4)), "standard")
        assert s.dilations == (1, 2, 4) and {type(v) for v in s.dilations} == {int}


class TestGridSearchSpecType:
    def test_empty_grid_refused(self):
        with pytest.raises(ValueError, match="at least one schedule"):
            GridSearchSpec([], power_fit())

    def test_duplicate_schedule_refused(self):
        s = standard_dilations(3)
        with pytest.raises(ValueError, match=r"duplicate schedule \(1, 2, 4\)"):
            GridSearchSpec([s, DilationSchedule(s.dilations, "curve_fitted")], power_fit())


class TestScheduleFor:
    def test_exponential_gets_capped_standard(self):
        s = schedule_for(exponential_fit(crossing=780), 12)
        assert s.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 780)
        assert s.origin == "standard"

    def test_single_layer(self):
        for fit in (power_fit(crossing=100), broken_fit(), periodic_fit()):
            assert schedule_for(fit, 1).dilations == (1,)

    def test_power_law_gets_intercept_schedule(self):
        assert schedule_for(power_fit(crossing=256), 9) == intercept_dilations(
            power_fit(crossing=256), 9, 256
        )

    def test_flat_periodic_falls_back_to_capped_standard(self):
        flat = flat_periodic_fit()
        assert schedule_for(flat, 6).dilations == (1, 2, 4, 8, 16, 28)
        with pytest.raises(ScheduleError):
            schedule_for(flat, 29)  # more layers than the period allows

    def test_flat_power_law_has_no_fallback(self):
        flat = ClassifiedFit(
            decay_class=DecayClass.POWER_LAW,
            max_lag=100,
            power=PowerLawFit(0.2, 0.0, 0.5, (1, 100), 30),
        )
        with pytest.raises(ScheduleError, match="non-decaying"):
            schedule_for(flat, 4)

    def test_grid_uses_it_for_exponential_fits(self):
        fit = exponential_fit(crossing=300)
        spec = build_grid(fit, range(2, 12))
        expected = {schedule_for(fit, n).dilations for n in range(2, 12)}
        assert {s.dilations for s in spec.schedules} == expected

    @pytest.mark.parametrize(
        "fit",
        [power_fit(crossing=100), broken_fit(), periodic_fit(), exponential_fit(crossing=300),
         flat_periodic_fit()],
        ids=["power", "broken", "periodic", "exponential", "periodic_flat"],
    )
    def test_grid_offers_it_at_every_layer_count(self, fit):
        sweep = range(1, 40)
        spec = build_grid(fit, sweep)
        dilations = [s.dilations for s in spec.schedules]
        offered = 0
        for n in sweep:
            try:
                expected = schedule_for(fit, n).dilations
            except ScheduleError:
                continue
            assert expected in dilations, n
            offered += 1
        assert offered
        if fit.decay_class is not DecayClass.EXPONENTIAL:
            standards = [standard_dilations(n).dilations for n in sweep]
            assert dilations[: len(standards)] == standards
        if fit.broken is not None:
            b, md = fit.broken.break_d, max_dilation(fit).value
            assert dilations[-2:] == [_hybrid_dense_then_standard(b, md).dilations,
                                      _hybrid_standard_then_sparse(b, md).dilations]


class TestBuildGrid:
    def test_periodic_fit_standard_family(self):
        spec = build_grid(periodic_fit(period=28), range(4, 10))
        standards = {s.dilations for s in spec.schedules if s.origin == "standard"}
        assert standards == {
            (1, 2, 4, 8),
            (1, 2, 4, 8, 16),
            (1, 2, 4, 8, 16, 32),
            (1, 2, 4, 8, 16, 32, 64),
            (1, 2, 4, 8, 16, 32, 64, 128),
            (1, 2, 4, 8, 16, 32, 64, 128, 256),
        }
        fitted = [s for s in spec.schedules if s.origin == "curve_fitted"]
        assert fitted, "periodic fits also get curve-fitted schedules"
        assert all(s.dilations[-1] <= 28 for s in fitted)
        assert spec.max_dilation.value == 28

    def test_exponential_fit_capped_family(self):
        spec = build_grid(exponential_fit(crossing=780), range(7, 12))
        rows = {s.dilations for s in spec.schedules}
        assert rows == {
            (1, 2, 4, 8, 16, 32, 64),
            (1, 2, 4, 8, 16, 32, 64, 128),
            (1, 2, 4, 8, 16, 32, 64, 128, 256),
            (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 780),
        }

    def test_broken_adds_hybrids(self):
        spec = build_grid(broken_fit(), [7, 8, 12])
        rationales = " | ".join(s.rationale for s in spec.schedules)
        assert "unit steps up to the break" in rationales
        assert "sparse" in rationales
        for s in spec.schedules:
            if s.origin == "curve_fitted":
                assert s.dilations[-1] <= spec.max_dilation.value

    def test_unit_step_hybrid_is_bounded(self):
        # one unit step per lag up to the break: kept up to MAX_UNIT_STEPS
        # steps, left out past it, and a target below a far break bounds it too
        def hybrid(break_d, crossing=None):
            fit = broken_fit(break_d=break_d, max_lag=10**12, crossing=crossing)
            found = [s.dilations for s in build_grid(fit, [4, 5]).schedules
                     if s.rationale.startswith("unit steps")]
            assert len(found) <= 1
            return found[0] if found else None

        assert hybrid(MAX_UNIT_STEPS)[:MAX_UNIT_STEPS] == tuple(range(1, MAX_UNIT_STEPS + 1))
        assert hybrid(MAX_UNIT_STEPS + 1) is None
        assert hybrid(10**12) is None
        assert hybrid(10**12, crossing=240) == tuple(range(1, 241))
        assert MAX_UNIT_STEPS > 201  # the longest hybrid of the bench goldens

    def test_single_layer_sweep_degenerate(self):
        spec = build_grid(power_fit(crossing=100), [1])
        assert [s.dilations for s in spec.schedules] == [(1,)]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ScheduleError, match="layer_sweep"):
            build_grid(power_fit(crossing=100), [])

    def test_sweep_entries_validated(self):
        for fit in (power_fit(crossing=100), exponential_fit()):
            with pytest.raises(ScheduleError, match="n_layers"):
                build_grid(fit, [3, 0])

    def test_no_duplicate_schedules(self):
        spec = build_grid(power_fit(crossing=64), range(1, 10))
        dilations = [s.dilations for s in spec.schedules]
        assert len(dilations) == len(set(dilations))

    def test_determinism(self):
        a = build_grid(broken_fit(), range(4, 10))
        b = build_grid(broken_fit(), range(4, 10))
        assert [s.dilations for s in a.schedules] == [s.dilations for s in b.schedules]

    def test_invariants_on_every_schedule(self):
        for fit in (periodic_fit(), broken_fit(), exponential_fit(), power_fit(crossing=500)):
            spec = build_grid(fit, range(2, 12))
            for s in spec.schedules:
                assert s.dilations[0] == 1
                assert all(b > a for a, b in zip(s.dilations, s.dilations[1:]))
                if s.origin == "curve_fitted":
                    assert s.dilations[-1] <= spec.max_dilation.value


class TestGridJson:
    def test_round_trip(self, tmp_path):
        spec = build_grid(broken_fit(), [4, 8, 12])
        path = tmp_path / "grid.json"
        write_grid_json(spec, path)
        back = read_grid_json(path)
        assert [s.dilations for s in back.schedules] == [
            s.dilations for s in spec.schedules
        ]
        assert back.evidence == spec.evidence
        assert back.max_dilation == spec.max_dilation

    def test_format_version_present(self):
        spec = build_grid(power_fit(crossing=64), [4])
        d = grid_to_dict(spec)
        assert d["format_version"] == 1
        assert d["decay_class"] == "PowerLaw"
        assert d["max_dilation"] == 64
        assert all({"dilations", "origin", "rationale"} <= set(s) for s in d["schedules"])

    def test_unknown_version_rejected(self):
        spec = build_grid(power_fit(crossing=64), [4])
        d = grid_to_dict(spec)
        d["format_version"] = 99
        with pytest.raises(ScheduleError, match="format_version"):
            grid_from_dict(d)
