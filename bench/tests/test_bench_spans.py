"""Self-time and per-layer arithmetic on hand-built span trees."""

import pytest
import spans


def span(id, parent, name, start, end, **counts):
    return {"id": id, "parent": parent, "req": 0, "name": name, "start": start,
            "end": end, **counts}


def test_self_time_subtracts_the_children_interval_once():
    tree = [
        span(0, None, "cli.grid", 0.0, 10.0),
        span(1, 0, "fit.read_fit_json", 1.0, 2.0),
        span(2, 0, "schedule.build_grid", 3.0, 7.0),
        span(3, 2, "schedule.intercept_dilations", 4.0, 5.0),
        span(4, 2, "schedule.intercept_dilations", 5.0, 6.5),
        span(5, 0, "schedule.write_grid_json", 9.0, 12.0),  # runs past its parent
    ]
    own = spans.self_time(tree)
    assert own[0] == pytest.approx(10.0 - 1.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(4.0 - 2.5)
    assert own[3] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_of_one_pass():
    tree = [
        span(0, None, "cli.analyze", 0.0, 5.0, exit=0),
        span(1, 0, "corpus.load_text", 0.5, 1.0, symbols=100, ids_bytes=800),
        span(2, 0, "estimator.decay_curve", 1.0, 4.0, pairs=1000, lags=5,
             lags_skipped=1, rss_growth_mb=2.0),
        span(3, None, "cli.grid", 6.0, 8.0, exit=0),
        span(4, 3, "schedule.build_grid", 6.5, 7.5, schedules=4, fitted_tried=3,
             fitted_emitted=2),
        span(5, 4, "schedule.intercept_dilations", 6.6, 6.8),
        span(6, None, "cli.schedule", 9.0, 9.5, exit=2),
    ]
    m = spans.layer_metrics(tree)
    assert m["corpus.load_s"] == pytest.approx(0.5)
    assert m["corpus.ids_mb"] == pytest.approx(800 / 1e6)
    assert m["estimator.ns_per_pair"] == pytest.approx(3.0 * 1e9 / 1000)
    assert m["estimator.lags_skipped"] == 1
    assert m["schedule.fitted_yield"] == pytest.approx(2 / 3)
    assert m["schedule.schedules"] == 4  # the failed schedule command emits none
    assert m["schedule.intercept_s"] == pytest.approx(0.2)
    assert m["cli.analyze_s"] == pytest.approx(5.0)
    # 5 - 0.5 - 3 for analyze, 2 - 1 for grid, 0.5 for schedule
    assert m["cli.self_s"] == pytest.approx(1.5 + 1.0 + 0.5)


def test_tracer_nests_library_spans_under_the_cli_span(tmp_path):
    import midecay.cli
    import midecay.estimator

    tracer = spans.Tracer()
    original = midecay.estimator.curve_from_csv
    tracer.install()
    try:
        curve = tmp_path / "c.csv"
        curve.write_text("lag,mi_nats,pair_count\n" + "".join(
            f"{d},{1.0 / d:.17g},1000\n" for d in range(1, 20)))
        assert tracer.cli(midecay.cli.main, ["fit", "--curve", str(curve),
                                             "--out", str(tmp_path / "f.json")]) == 0
    finally:
        tracer.uninstall()
    assert midecay.estimator.curve_from_csv is original
    names = {s["name"]: s for s in tracer.spans}
    root = names["cli.fit"]
    assert root["parent"] is None
    for child in ("estimator.curve_from_csv", "fit.classify", "fit.write_fit_json"):
        assert names[child]["parent"] == root["id"]
        assert root["start"] <= names[child]["start"] <= names[child]["end"] <= root["end"]
    assert names["fit.write_fit_json"]["bytes"] > 0


def test_every_per_layer_metric_is_measured_and_explained():
    import json
    from pathlib import Path

    bench = Path(spans.__file__).parent
    declared = [m["name"] for m in json.loads((bench.parent / "BENCHMARK.json").read_text())["per_layer"]]
    explained = list(json.loads((bench / "rationale.json").read_text())["per_layer"])
    measured = [*spans.layer_metrics([]), "trace.overhead_frac"]
    assert declared == measured == explained
