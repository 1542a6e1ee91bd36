"""The correctness gate's independent recount and rules."""

import check
import numpy as np
import pytest
from midecay import Corpus, EstimatorConfig, LagGrid, curve_to_csv, decay_curve


def _corpus(seqs, k):
    return Corpus(sequences=tuple(np.asarray(s) for s in seqs), alphabet_size=k, mode="byte")


@pytest.mark.parametrize(
    "lengths",
    [(50, 7, 31, 3), (40, 40, 40)],  # ragged, and equal lengths (matrix path)
)
def test_oracle_matches_decay_curve_on_tiny_multisequence_corpus(lengths):
    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, 5, n) for n in lengths]
    lags = LagGrid((1, 2, 5, 6, 9))
    curve = decay_curve(_corpus(seqs, 5), lags, EstimatorConfig(min_pair_count=1))
    for d, mi, pairs in curve.points():
        want_mi, want_pairs = check.oracle_mi(seqs, d)
        assert pairs == want_pairs
        assert abs(mi - want_mi) <= check.MI_TOLERANCE


def test_oracle_never_pairs_across_boundaries():
    # concatenated, "0 1 | 1 0" would add the pair (1, 1) at lag 1
    mi, pairs = check.oracle_mi([np.array([0, 1]), np.array([1, 0])], 1)
    assert pairs == 2
    assert mi == pytest.approx(np.log(2))


def test_oracle_problems_flags_a_changed_curve(tmp_path):
    rng = np.random.default_rng(4)
    seqs = [rng.integers(0, 4, 300), rng.integers(0, 4, 200)]
    curve = decay_curve(_corpus(seqs, 4), LagGrid((1, 2, 3)), EstimatorConfig(min_pair_count=1))
    path = tmp_path / "curve.csv"
    curve_to_csv(curve, path)
    assert check.oracle_problems(seqs, path) == []
    text = path.read_text().splitlines()
    lag, mi, pairs = text[-1].split(",")
    text[-1] = f"{lag},{float(mi) + 1e-9!r},{pairs}"
    path.write_text("\n".join(text) + "\n")
    assert len(check.oracle_problems(seqs, path)) == 1


def test_noise_crossing_is_where_mi_stays_below_threshold():
    lags = [1, 2, 3, 4, 5]
    assert check.noise_crossing(lags, [5, 0.5, 2, 0.5, 0.1], 1) == 4
    assert check.noise_crossing(lags, [5, 4, 3, 2, 1], 1) is None
    assert check.noise_crossing(lags, [0.1] * 5, 1) == 1


def test_diff_problems_charges_the_command_that_wrote_the_field():
    golden = {"exit": {"fit": 0, "schedule": 2}, "decay_class": "PowerLaw",
              "grid_dilations": [[1, 2]], "schedule_dilations": None}
    obs = dict(golden, exit={"fit": 0, "schedule": 0}, grid_dilations=[[1, 3]])
    found = check.diff_problems(obs, golden, "golden")
    assert set(found) == {"schedule", "grid"}
