"""The dataclass-driven JSON codec, atomic output writes and malformed inputs."""

import copy
import dataclasses
import json
import math
import struct
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midecay import corpus, curve_to_csv, write_idx_images
from midecay.cli import main
from midecay.estimator import DecayCurve
from midecay.fit import (
    ClassifiedFit,
    DecayClass,
    FitError,
    PeriodicitySignature,
    PowerLawFit,
    read_fit_json,
    write_fit_json,
)
from midecay.jsonio import from_dict, to_dict, write_json
from midecay.schedule import (
    ScheduleError,
    build_grid,
    grid_from_dict,
    grid_to_dict,
    read_grid_json,
)
from tests.test_schedule import broken_fit, exponential_fit, periodic_fit, power_fit

PINNED = Path(__file__).resolve().parent / "pinned"

# one fit per decay class, plus a flat periodic fit that takes the capped fallback
CASES = {
    "power": dataclasses.replace(
        power_fit(slope=-0.9, crossing=None),
        threshold=2e-5,
        curve_meta={
            "mode": "byte",
            "bias_floor_nats": [1e-6, 2.5e-7],
            "skipped_lags": [],
            "source_meta": "x.txt;mode=byte",
        },
    ),
    "broken": broken_fit(),
    "periodic": periodic_fit(),
    "periodic_flat": ClassifiedFit(
        decay_class=DecayClass.POWER_LAW_PERIODIC,
        max_lag=783,
        power=PowerLawFit(0.05, math.log(0.3), 0.1, (1, 783), 90, 3),
        periodicity=PeriodicitySignature(28, (28, 56, 84), 0.2),
    ),
    "exponential": dataclasses.replace(exponential_fit(), crossing_low_confidence=True),
}


def replaced(doc, path, value):
    """A copy of a JSON document with the node at path (keys and indices) set to value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("midecay: error:")
    assert err.count("\n") == 1 and "Traceback" not in err


class TestPinnedBytes:
    # expected text recorded from the hand-written fit/grid codec this one replaced
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fit_schedule_grid_bytes(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fit_json(CASES[name], f"{name}.fit.json")
        assert main(["schedule", "--fit", f"{name}.fit.json", "--layers", "12",
                     "--out", f"{name}.schedule.json"]) == 0
        assert main(["grid", "--fit", f"{name}.fit.json", "--layers", "4..6",
                     "--out", f"{name}.grid.json"]) == 0
        for kind in ("fit", "schedule", "grid"):
            file = f"{name}.{kind}.json"
            assert Path(file).read_bytes() == (PINNED / file).read_bytes(), file

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_round_trip(self, name, tmp_path):
        write_fit_json(CASES[name], tmp_path / "f.json")
        assert read_fit_json(tmp_path / "f.json") == CASES[name]
        spec = build_grid(CASES[name], range(4, 7))
        assert grid_to_dict(grid_from_dict(grid_to_dict(spec))) == grid_to_dict(spec)


class TestCodec:
    def test_enums_by_value_tuples_as_lists(self):
        d = to_dict(CASES["periodic"])
        assert d["decay_class"] == "PowerLawPeriodic"
        assert d["periodicity"]["peak_lags"] == [28, 56]
        assert d["power"]["d_range"] == [1, 783]

    def test_absent_key_takes_default(self):
        d = to_dict(CASES["broken"])
        del d["threshold"], d["broken"]["left"]["n_excluded"]
        back = from_dict(ClassifiedFit, d)
        assert back.threshold == 1e-5 and back.broken.left.n_excluded == 0

    def test_absent_key_without_default_rejected(self):
        d = to_dict(CASES["broken"])
        del d["broken"]["break_d"]
        with pytest.raises(TypeError, match=r"broken: missing key 'break_d'"):
            from_dict(ClassifiedFit, d)

    @pytest.mark.parametrize("path, value", [
        (("max_lag",), "x"),
        (("max_lag",), True),
        (("max_lag",), 1.5),
        (("threshold",), "1e-5"),
        (("crossing_low_confidence",), 0),
        (("broken", "left", "slope"), "steep"),
        (("broken", "left", "d_range"), [1, 2, 3]),
        (("broken", "left", "d_range"), [1, None]),
        (("broken",), []),
        (("curve_meta",), [1]),
        (("decay_class",), 7),
    ])
    def test_wrong_type_rejected(self, path, value):
        d = replaced(to_dict(CASES["broken"]), path, value)
        with pytest.raises(TypeError, match=".".join(path)):
            from_dict(ClassifiedFit, d)

    def test_int_accepted_as_float(self):
        d = to_dict(CASES["broken"])
        d["broken"]["improvement"] = 1
        assert from_dict(ClassifiedFit, d).broken.improvement == 1

    def test_non_object_document_rejected(self):
        for doc in ([], "x", 3, None):
            with pytest.raises(TypeError, match="expected an object"):
                from_dict(ClassifiedFit, doc)


class TestAtomicWrites:
    def test_nan_payload_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": 1}, path)
        with pytest.raises(ValueError):
            write_json({"a": float("nan")}, path)
        assert path.read_text() == '{\n  "a": 1\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_csv_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "curve.csv"
        path.write_text("previous\n")
        curve = DecayCurve(lags=[1, 2], mi=[0.5, 0.25], pairs=[10, 9])

        def broken_points():
            yield (1, 0.5, 10)
            raise OSError("disk full")

        monkeypatch.setattr(curve, "points", broken_points)
        with pytest.raises(OSError, match="disk full"):
            curve_to_csv(curve, path)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_failed_idx_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "imgs.idx"
        path.write_bytes(b"previous")

        def full(*args):
            raise OSError("disk full")

        monkeypatch.setattr(corpus, "struct", types.SimpleNamespace(pack=full))
        with pytest.raises(OSError, match="disk full"):
            write_idx_images(path, np.zeros((2, 4), dtype=np.uint8), 2, 2)
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["imgs.idx"]


class TestThreshold:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_threshold_is_usage_error(self, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--curve", "c.csv", "--threshold", value,
                  "--out", str(tmp_path / "f.json")])
        assert exc.value.code == 1

    def test_non_finite_fit_never_written(self, tmp_path):
        path = tmp_path / "f.json"
        with pytest.raises(ValueError):
            write_fit_json(dataclasses.replace(CASES["power"], threshold=math.inf), path)
        assert not path.exists()


MALFORMED_FITS = {
    "max_lag_string": lambda d: {**d, "max_lag": "x"},
    "list": lambda d: [d],
    "power_slope_string": lambda d: {**d, "power": {"slope": "steep"}},
    "nan": lambda d: {**d, "threshold": float("nan")},
    "huge_float": lambda d: {**d, "threshold": 1e400},
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED_FITS))
    @pytest.mark.parametrize("command", ["schedule", "grid"])
    def test_malformed_fit_is_data_error(self, name, command, tmp_path, capsys):
        doc = MALFORMED_FITS[name](to_dict(CASES["power"]))
        fitj = tmp_path / "f.json"
        # 1e400 is written as text: json.dumps cannot produce it
        fitj.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        out = tmp_path / "out.json"
        assert main([command, "--fit", str(fitj), "--layers", "4", "--out", str(out)]) == 2
        one_error_line(capsys)
        assert not out.exists()

    # escapes the fuzz test below found: lags outside [1, max_lag] or beyond
    # float range, and a slope whose fitted MI underflows to -inf
    @pytest.mark.parametrize("name, path, value", [
        ("broken", ("broken", "break_d"), 0),
        ("broken", ("noise_crossing_d",), -3),
        ("broken", ("noise_crossing_d",), 10**400),
        ("periodic", ("periodicity", "period"), 10**400),
        ("power", ("max_lag",), 10**30),
        ("power", ("power", "slope"), -1e308),
    ], ids=["break-0", "crossing-negative", "crossing-huge", "period-huge", "max-lag-huge",
            "slope-huge"])
    def test_out_of_range_fit_is_data_error(self, name, path, value, tmp_path, capsys):
        fitj = tmp_path / "f.json"
        fitj.write_text(json.dumps(replaced(to_dict(CASES[name]), path, value)))
        out = tmp_path / "out.json"
        assert main(["schedule", "--fit", str(fitj), "--layers", "12", "--out", str(out)]) == 2
        one_error_line(capsys)
        assert main(["grid", "--fit", str(fitj), "--layers", "1..12", "--out", str(out)]) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_fit_is_data_error(self, tmp_path, capsys):
        fitj = tmp_path / "f.json"
        fitj.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out.json"
        assert main(["schedule", "--fit", str(fitj), "--layers", "4", "--out", str(out)]) == 2
        one_error_line(capsys)

    def test_malformed_fit_rejected_by_reader(self, tmp_path):
        fitj = tmp_path / "f.json"
        fitj.write_text('{"decay_class": "PowerLaw", "max_lag": "x"}')
        with pytest.raises(FitError, match="max_lag"):
            read_fit_json(fitj)

    def test_non_utf8_curve_is_data_error(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_bytes(b"lag,mi_nats,pair_count\n1,0.5\xff,10\n")
        out = tmp_path / "f.json"
        assert main(["fit", "--curve", str(curve), "--out", str(out)]) == 2
        one_error_line(capsys)
        assert not out.exists()

    # the rest: a bias_floor_nats of the wrong type, which fit reads
    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]", '{"a": NaN}', "\xff", *(
        json.dumps({"bias_floor_nats": v}) for v in (["a"] * 40, "a" * 40, [[0.1]] * 40,
                                                     [True] * 40, 7))])
    def test_malformed_sidecar_is_data_error(self, sidecar, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("lag,mi_nats,pair_count\n" + "".join(
            f"{d},{0.5 * d ** -1.2:.17g},1000\n" for d in range(1, 41)))
        Path(f"{curve}.meta.json").write_text(sidecar, encoding="latin-1")
        out = tmp_path / "f.json"
        assert main(["fit", "--curve", str(curve), "--out", str(out)]) == 2
        one_error_line(capsys)
        assert not out.exists()


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


_VALID = [to_dict(fit) for _, fit in sorted(CASES.items())]
_POSITIONS = [(i, p) for i, doc in enumerate(_VALID) for p in _paths(doc)]

_numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
# most leaves of a fit are numbers, so half of the draws are bare numbers
json_values = _numbers | st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


class TestFuzzFitDocuments:
    @settings(max_examples=500, deadline=None)
    @given(
        position=st.sampled_from(_POSITIONS), value=json_values, layers=st.integers(1, 14)
    )
    def test_schedule_and_grid_never_raise(self, tmp_path_factory, position, value, layers):
        i, path = position
        work = tmp_path_factory.mktemp("fuzz")
        fitj = work / "f.json"
        fitj.write_text(json.dumps(replaced(_VALID[i], path, value)))
        out = str(work / "out.json")
        for command, sweep in (("schedule", str(layers)), ("grid", f"1..{layers}")):
            assert main([command, "--fit", str(fitj), "--layers", sweep, "--out", out]) in (0, 2)


@st.composite
def curve_csv_bytes(draw):
    """Arbitrary bytes, or a curve CSV (a decay law sampled at rising lags)
    with arbitrary bytes spliced in, so that some inputs reach the classifier."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    # a lag or pair count beyond int64 (10**30) must be rejected too
    top = draw(st.sampled_from([10**4, 10**30]))
    lags = sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=60)))
    scale, slope = draw(st.floats(1e-9, 10)), draw(st.floats(-3, 0.5))
    rows = b"".join(f"{d},{scale * d ** slope:.17g},{draw(st.integers(0, top))}\n".encode()
                    for d in lags)
    text = b"lag,mi_nats,pair_count\n" + rows
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.binary(max_size=8)) + text[at + draw(st.integers(0, 8)):]


class TestFuzzCurveCsv:
    # a RuntimeWarning flagged a lag or pair count wrapped by the int64 cast
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=500, deadline=None)
    @given(data=curve_csv_bytes())
    def test_fit_never_raises(self, tmp_path_factory, data):
        curve = tmp_path_factory.mktemp("fuzz") / "c.csv"
        curve.write_bytes(data)
        assert main(["fit", "--curve", str(curve), "--out", f"{curve}.fit.json"]) in (0, 2)


_GRIDS = [json.loads(p.read_text()) for p in sorted(PINNED.glob("*.grid.json"))]
_GRID_POSITIONS = [(i, p) for i, doc in enumerate(_GRIDS) for p in _paths(doc)]


class TestFuzzGridDocuments:
    @settings(max_examples=500, deadline=None)
    @given(position=st.sampled_from(_GRID_POSITIONS), value=json_values)
    def test_reader_raises_only_schedule_error(self, tmp_path_factory, position, value):
        i, path = position
        grid = tmp_path_factory.mktemp("fuzz") / "g.json"
        grid.write_text(json.dumps(replaced(_GRIDS[i], path, value)))
        try:
            read_grid_json(grid)
        except ScheduleError:
            pass


@st.composite
def idx_bytes(draw):
    """Arbitrary bytes, or an IDX image file with a mangled header: any magic or
    dimension a u32 holds, or small dimensions with a payload of their size;
    sometimes with arbitrary bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    magic = draw(st.just(corpus.IDX_IMAGE_MAGIC) | st.integers(0, 2**32 - 1))
    count, rows, cols = (draw(st.integers(0, 6) | st.integers(0, 2**32 - 1)) for _ in range(3))
    size = count * rows * cols
    payload = draw(st.binary(min_size=size, max_size=size) if size <= 216 else st.binary())
    data = struct.pack(">IIII", magic, count, rows, cols) + payload
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=8)) + data[at + draw(st.integers(0, 8)):]
    return data


class TestFuzzIdx:
    @settings(max_examples=300, deadline=None)
    @given(data=idx_bytes(), max_lag=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           inverse=st.booleans())
    def test_analyze_and_permute_never_raise(self, tmp_path_factory, data, max_lag, seed,
                                             inverse):
        idx = tmp_path_factory.mktemp("fuzz") / "in.idx"
        idx.write_bytes(data)
        analyze = ["analyze", "--input", str(idx), "--mode", "pixel", "--max-lag",
                   str(max_lag), "--min-pairs", "1", "--out", f"{idx}.csv"]
        assert main(analyze) in (0, 2)
        permute = ["permute", "--input", str(idx), "--seed", str(seed), "--out", f"{idx}.out"]
        assert main(permute + ["--inverse"] * inverse) in (0, 2)
