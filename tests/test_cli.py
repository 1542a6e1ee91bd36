"""End-to-end command-line behavior: pipelines, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from midecay import corpus, estimator, write_idx_images
from midecay.cli import build_parser, main
from tests.conftest import REPO_ROOT, synth_images

PINNED = Path(__file__).resolve().parent / "pinned"


def write_pattern_file(tmp_path, pattern=b"aab", reps=12000, name="seq.txt"):
    p = tmp_path / name
    p.write_bytes(pattern * reps)
    return p


def write_idx(tmp_path, n_images=400, seed=0, name="imgs.idx"):
    p = tmp_path / name
    write_idx_images(p, synth_images(n_images, seed=seed), 28, 28)
    return p


class TestAnalyze:
    def test_byte_file_curve_starts_at_lag_one(self, tmp_path):
        src = write_pattern_file(tmp_path)
        out = tmp_path / "curve.csv"
        code = main([
            "analyze", "--input", str(src), "--mode", "byte",
            "--max-lag", "64", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lag,mi_nats,pair_count"
        assert lines[1].startswith("1,")

    def test_constant_file_all_zero_mi(self, tmp_path):
        src = tmp_path / "const.bin"
        src.write_bytes(b"\x07" * 5000)
        out = tmp_path / "curve.csv"
        assert main([
            "analyze", "--input", str(src), "--mode", "byte",
            "--max-lag", "32", "--out", str(out),
        ]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_pixel_mode_idx(self, tmp_path):
        src = write_idx(tmp_path)
        out = tmp_path / "curve.csv"
        assert main([
            "analyze", "--input", str(src), "--mode", "pixel",
            "--max-lag", "200", "--min-pairs", "1", "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_sidecar_written(self, tmp_path):
        src = write_pattern_file(tmp_path)
        out = tmp_path / "curve.csv"
        main([
            "analyze", "--input", str(src), "--mode", "byte",
            "--max-lag", "64", "--out", str(out),
        ])
        meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
        assert meta["command"] == "analyze"
        assert meta["mode"] == "byte"
        assert meta["max_lag"] == 64
        assert meta["bias_correction"] == "none"
        assert "bias_floor_nats" in meta

    def test_byte_identical_reruns(self, tmp_path):
        src = write_pattern_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main([
                "analyze", "--input", str(src), "--mode", "byte",
                "--max-lag", "64", "--out", str(out),
            ])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main([
            "analyze", "--input", str(tmp_path / "nope.txt"), "--mode", "byte",
            "--max-lag", "8", "--out", str(tmp_path / "c.csv"),
        ]) == 2

    def test_max_lag_beyond_sequence_is_data_error(self, tmp_path):
        src = tmp_path / "short.txt"
        src.write_bytes(b"abcabc")
        assert main([
            "analyze", "--input", str(src), "--mode", "byte",
            "--max-lag", "10", "--out", str(tmp_path / "c.csv"),
        ]) == 2

    def test_bad_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x", "--mode", "nonsense",
                  "--max-lag", "8", "--out", "y"])
        assert exc.value.code == 1

    def test_nonpositive_max_lag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", "x", "--mode", "byte",
                  "--max-lag", "0", "--out", "y"])
        assert exc.value.code == 1

    def test_nonpositive_threshold_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--curve", "x", "--out", "y", "--threshold", "0"])
        assert exc.value.code == 1

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["permute", "--input", "x", "--seed", "-3", "--out", "y"])
        assert exc.value.code == 1


class TestFitCommand:
    def test_periodic_pipeline(self, tmp_path):
        src = write_pattern_file(tmp_path)
        curve = tmp_path / "curve.csv"
        fitj = tmp_path / "fit.json"
        main(["analyze", "--input", str(src), "--mode", "byte",
              "--max-lag", "64", "--out", str(curve)])
        assert main(["fit", "--curve", str(curve), "--out", str(fitj)]) == 0
        doc = json.loads(fitj.read_text())
        assert doc["decay_class"] == "PowerLawPeriodic"
        assert doc["periodicity"]["period"] == 3
        assert doc["curve_meta"]["mode"] == "byte"

    def test_synthetic_exponential_round_trip(self, tmp_path):
        curve = tmp_path / "expo.csv"
        rows = [f"{d},{0.3 * np.exp(-d / 10.0):.17g},100000" for d in range(1, 101)]
        curve.write_text("lag,mi_nats,pair_count\n" + "\n".join(rows) + "\n")
        fitj = tmp_path / "fit.json"
        assert main(["fit", "--curve", str(curve), "--out", str(fitj)]) == 0
        assert json.loads(fitj.read_text())["decay_class"] == "Exponential"

    def test_rerun_fit_json_byte_identical(self, tmp_path):
        src = write_pattern_file(tmp_path)
        curve = tmp_path / "c.csv"
        main(["analyze", "--input", str(src), "--mode", "byte",
              "--max-lag", "64", "--out", str(curve)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--curve", str(curve), "--out", str(a)])
        main(["fit", "--curve", str(curve), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_curve_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lag,mi_nats,pair_count\n1,notanumber,3\n")
        assert main(["fit", "--curve", str(bad), "--out", str(tmp_path / "f.json")]) == 2

    def test_too_few_points_is_data_error(self, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text(
            "lag,mi_nats,pair_count\n" +
            "".join(f"{d},{0.5 / d},100\n" for d in range(1, 6))
        )
        assert main(["fit", "--curve", str(small), "--out", str(tmp_path / "f.json")]) == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_mi_is_data_error(self, tmp_path, capsys, value):
        rows = [f"{d},{0.5 / d},1000" for d in range(1, 40)]
        rows[20] = f"21,{value},1000"
        bad = tmp_path / "bad.csv"
        bad.write_text("lag,mi_nats,pair_count\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--curve", str(bad), "--out", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("midecay: error:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "f.json").exists()


class TestScheduleCommand:
    @pytest.fixture()
    def power_fit_json(self, tmp_path):
        # synthetic exact power-law curve with crossing at 256
        curve = tmp_path / "curve.csv"
        lags = np.unique(np.round(np.logspace(0, np.log10(400), 60)).astype(int))
        rows = [f"{d},{(2.0 * d ** -2.2):.17g},100000" for d in lags]
        curve.write_text("lag,mi_nats,pair_count\n" + "\n".join(rows) + "\n")
        fitj = tmp_path / "fit.json"
        assert main(["fit", "--curve", str(curve), "--out", str(fitj)]) == 0
        return fitj

    def test_schedule_from_power_fit(self, tmp_path, power_fit_json):
        out = tmp_path / "sched.json"
        assert main(["schedule", "--fit", str(power_fit_json),
                     "--layers", "9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dilations"][0] == 1
        assert doc["dilations"][-1] == doc["max_dilation"]
        assert len(doc["dilations"]) == 9
        assert doc["origin"] == "curve_fitted"

    def test_layers_exceeding_max_dilation_is_error(self, tmp_path, power_fit_json):
        assert main(["schedule", "--fit", str(power_fit_json),
                     "--layers", "50000", "--out", str(tmp_path / "s.json")]) == 2

    def test_exponential_fit_caps_any_layer_count(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["schedule", "--fit", str(PINNED / "exponential.fit.json"),
                     "--layers", "5000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dilations"][-1] == doc["max_dilation"]
        assert doc["dilations"][:-1] == [2**i for i in range(len(doc["dilations"]) - 1)]

    def test_single_layer(self, tmp_path, power_fit_json):
        out = tmp_path / "sched.json"
        assert main(["schedule", "--fit", str(power_fit_json),
                     "--layers", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dilations"] == [1]

    def test_periodic_fit_caps_at_period(self, tmp_path):
        src = write_pattern_file(tmp_path, pattern=b"aaaaaab", reps=6000)
        curve, fitj, out = (tmp_path / n for n in ("c.csv", "f.json", "s.json"))
        main(["analyze", "--input", str(src), "--mode", "byte",
              "--max-lag", "64", "--out", str(curve)])
        main(["fit", "--curve", str(curve), "--out", str(fitj)])
        assert json.loads(fitj.read_text())["periodicity"]["period"] == 7
        assert main(["schedule", "--fit", str(fitj),
                     "--layers", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["max_dilation"] == 7
        assert doc["dilations"][-1] <= 7


class TestGridCommand:
    def test_grid_from_fit(self, tmp_path):
        src = write_pattern_file(tmp_path)
        curve, fitj, gridj = (tmp_path / n for n in ("c.csv", "f.json", "g.json"))
        main(["analyze", "--input", str(src), "--mode", "byte",
              "--max-lag", "64", "--out", str(curve)])
        main(["fit", "--curve", str(curve), "--out", str(fitj)])
        assert main(["grid", "--fit", str(fitj), "--layers", "1..3",
                     "--out", str(gridj)]) == 0
        doc = json.loads(gridj.read_text())
        assert doc["format_version"] == 1
        assert doc["decay_class"] == "PowerLawPeriodic"
        assert [1, 2] in [s["dilations"] for s in doc["schedules"]]

    def test_bad_layer_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--fit", "x", "--layers", "a..b", "--out", "y"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("layers", ["64", "1..64", "63..100"])
    def test_more_than_63_layers_is_usage_error(self, capsys, layers):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--fit", "x", "--layers", layers, "--out", "y"])
        assert exc.value.code == 1
        assert "layer counts must be <= 63" in capsys.readouterr().err

    def test_63_layers_accepted(self, tmp_path):
        gridj = tmp_path / "g.json"
        assert main(["grid", "--fit", str(PINNED / "power.fit.json"), "--layers", "61..63",
                     "--out", str(gridj)]) == 0
        dilations = [s["dilations"] for s in json.loads(gridj.read_text())["schedules"]]
        assert [2**i for i in range(63)] in dilations

    def test_far_break_grid_is_quick(self, tmp_path):
        # a break at lag 10^12 would take a unit-step hybrid of 10^12 layers
        doc = json.loads((PINNED / "broken.fit.json").read_text())
        doc.update(max_lag=10**12, noise_crossing_d=None)
        doc["broken"]["break_d"] = 10**12
        fitj, gridj = tmp_path / "f.json", tmp_path / "g.json"
        fitj.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["grid", "--fit", str(fitj), "--layers", "4..6", "--out", str(gridj)]) == 0
        assert time.perf_counter() - start < 1.0
        rationales = [s["rationale"] for s in json.loads(gridj.read_text())["schedules"]]
        assert not any(r.startswith("unit steps") for r in rationales)
        assert any(r.startswith("standard steps") for r in rationales)

    def test_missing_fit_is_data_error(self, tmp_path):
        assert main(["grid", "--fit", str(tmp_path / "no.json"),
                     "--layers", "2..4", "--out", str(tmp_path / "g.json")]) == 2


class TestPermuteCommand:
    def test_round_trip_through_inverse(self, tmp_path):
        src = write_idx(tmp_path, n_images=20)
        fwd = tmp_path / "fwd.idx"
        back = tmp_path / "back.idx"
        assert main(["permute", "--input", str(src), "--seed", "9",
                     "--out", str(fwd)]) == 0
        assert main(["permute", "--input", str(fwd), "--seed", "9",
                     "--inverse", "--out", str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()
        assert fwd.read_bytes() != src.read_bytes()

    def test_same_seed_byte_identical(self, tmp_path):
        src = write_idx(tmp_path, n_images=10)
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        main(["permute", "--input", str(src), "--seed", "3", "--out", str(a)])
        main(["permute", "--input", str(src), "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        src = write_idx(tmp_path, n_images=10)
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        main(["permute", "--input", str(src), "--seed", "1", "--out", str(a)])
        main(["permute", "--input", str(src), "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_idx_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 16)
        assert main(["permute", "--input", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "o.idx")]) == 2


class TestPipeline:
    def test_analyze_fit_compose_for_any_accepted_corpus(self, tmp_path):
        # several corpus shapes: fit must succeed whenever analyze succeeds
        # and the curve has >= 7 usable lags
        rng = np.random.default_rng(0)
        sources = {
            "markov.bin": bytes(rng.choice([97, 98, 99], p=[0.6, 0.3, 0.1], size=20000).tolist()),
            "period.bin": b"aabacc" * 3000,
        }
        for name, data in sources.items():
            src = tmp_path / name
            src.write_bytes(data)
            curve = tmp_path / f"{name}.csv"
            fitj = tmp_path / f"{name}.json"
            assert main(["analyze", "--input", str(src), "--mode", "byte",
                         "--max-lag", "64", "--out", str(curve)]) == 0
            assert main(["fit", "--curve", str(curve), "--out", str(fitj)]) == 0

    @pytest.mark.parametrize("command", ["analyze", "fit", "schedule", "grid", "permute"])
    def test_missing_output_directory_names_the_requested_path(self, tmp_path, capsys, command):
        # the output is written to a temporary file beside it first; the
        # message names the path asked for, not that file
        src = write_pattern_file(tmp_path)
        curve, fitj = tmp_path / "curve.csv", tmp_path / "fit.json"
        lags = np.unique(np.round(np.logspace(0, np.log10(400), 60)).astype(int))
        rows = [f"{d},{(2.0 * d ** -2.2):.17g},100000" for d in lags]
        curve.write_text("lag,mi_nats,pair_count\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--curve", str(curve), "--out", str(fitj)]) == 0
        args = {
            "analyze": ["--input", str(src), "--mode", "byte", "--max-lag", "8"],
            "fit": ["--curve", str(curve)],
            "schedule": ["--fit", str(fitj), "--layers", "9"],
            "grid": ["--fit", str(fitj), "--layers", "2..4"],
            "permute": ["--input", str(write_idx(tmp_path, n_images=20)), "--seed", "1"],
        }[command]
        out = tmp_path / "missing" / "out"
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 2
        message = f"midecay: error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert capsys.readouterr().err == message

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_parser_takes_its_choices_from_the_library(self):
        analyze = build_parser()._subparsers._group_actions[0].choices["analyze"]
        options = {a.dest: a for a in analyze._actions}
        assert tuple(options["mode"].choices) == corpus.MODES
        assert options["min_pairs"].default == estimator.EstimatorConfig().min_pair_count
        assert [c.replace("-", "_") for c in options["bias_correction"].choices] == \
            list(estimator.BIAS_CORRECTIONS)

    def test_pipeline_never_imports_numpy_ma(self, tmp_path):
        # numpy.ma takes 13 ms to import in a fresh process; np.median and
        # some other numpy calls import it on first use
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 50, 20000)
        for t in np.flatnonzero(rng.random(ids.size) < 0.8)[1:]:
            ids[t] = ids[t - 1]  # a word repeats its predecessor: MI decays with lag
        src = tmp_path / "words.txt"
        src.write_text(" ".join(f"w{v}" for v in ids))
        script = f"""
import sys
from midecay.cli import main
d = {str(tmp_path)!r}
for argv in (
    ["analyze", "--input", d + "/words.txt", "--mode", "word", "--max-lag", "100",
     "--out", d + "/c.csv"],
    ["fit", "--curve", d + "/c.csv", "--out", d + "/f.json"],
    ["schedule", "--fit", d + "/f.json", "--layers", "6", "--out", d + "/s.json"],
    ["grid", "--fit", d + "/f.json", "--layers", "4..8", "--out", d + "/g.json"],
):
    assert main(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self, tmp_path):
        src = write_pattern_file(tmp_path)
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "midecay.cli", "analyze", "--input", str(src),
             "--mode", "byte", "--max-lag", "32", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
