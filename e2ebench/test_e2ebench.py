"""The benchmark's own checks: attribution adds up, every metric is named.

Run with ``python3 -m pytest e2ebench`` from the repository root.  The
traced-run tests shrink every workload to a few seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import campaign  # noqa: E402
import ingest  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _span(name, ts, dur, pid=1):
    return {"name": name, "cat": "layer", "ts": ts, "dur": dur, "pid": pid,
            "args": {}}


def test_self_time_excludes_children_and_layers_sum_to_wall():
    spans = [
        _span("cli.import", 0.0, 0.5),
        _span("server.ingest", 1.0, 2.0),
        _span("backends.spill_write", 1.2, 0.3),
        _span("backends.spill_write", 2.0, 0.4),
        _span("streaming.analyze", 3.5, 1.0),
        _span("backends.spill_read", 3.5, 0.25),
        _span("simulation.materialize", 0.0, 9.0, pid=2),   # a worker
    ]
    got, rest = layers.attribute(spans, 5.0, pids=[1])
    assert got["server.ingest_s"] == pytest.approx(1.3)
    assert got["backends.spill_write_s"] == pytest.approx(0.7)
    assert got["streaming.analyze_s"] == pytest.approx(0.75)
    assert "simulation.materialize_s" not in got
    assert sum(got.values()) + rest == pytest.approx(5.0)
    assert rest == pytest.approx(1.5)
    assert layers.durations(spans, "simulation.materialize") == 9.0


def test_a_span_without_a_metric_cannot_fall_out_of_the_sum():
    with pytest.raises(KeyError):
        layers.attribute([_span("mystery", 0.0, 1.0)], 1.0, pids=[1])


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(layers.SPAN_METRICS.values()) <= set(layers.PER_LAYER)


@pytest.fixture
def small(monkeypatch):
    """Every workload at a few seconds' size."""
    monkeypatch.setitem(campaign.ARCHIVE, "scale", 0.25)
    monkeypatch.setitem(campaign.ARCHIVE, "duration", 0.01)
    monkeypatch.setitem(campaign.STREAM, "scale", 0.5)
    monkeypatch.setitem(campaign.STREAM, "duration", 0.01)
    monkeypatch.setattr(campaign, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(ingest, "LADDER", (200.0, 400.0))
    monkeypatch.setattr(ingest, "RUNG_UPLOADS", 100)
    monkeypatch.setattr(ingest, "SATURATION_UPLOADS", 200)
    monkeypatch.setattr(ingest, "SATURATION_REPEATS", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_account_for_the_wall(small, workload):
    out = run.measure(workload, seed=3, seconds=0.0, trace=True)
    result = out["result"]
    assert result["correct"], out["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == layers.PER_LAYER
    assert all(math.isfinite(m["value"]) for m in metrics.values())

    attribution = out["attribution"]
    critical = attribution["layers"]
    assert critical, "no layer on the critical path"
    for name, seconds in critical.items():
        assert metrics[name]["value"] == pytest.approx(seconds)
    rest = metrics["unattributed_s"]["value"]
    assert rest == attribution["unattributed_s"]
    assert sum(critical.values()) + rest \
        == pytest.approx(attribution["wall_s"])
    assert metrics["unattributed_share"]["value"] \
        == pytest.approx(rest / attribution["wall_s"])
    assert out["spans"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(small, workload):
    result = run.measure(workload, seed=3, seconds=0.0, trace=False)
    assert result["result"]["correct"], result["notes"]
    metrics = result["result"]["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == layers.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
