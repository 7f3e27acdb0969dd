"""Metric tables and the span arithmetic that attributes wall time.

A span is a :class:`repro.trace.TraceRecorder` dict (``name``, ``ts``,
``dur``, ``pid``).  Spans of one process nest properly — they come from
``with`` blocks — so a span's *self time* is its duration minus the
durations of the spans directly inside it, and the self times of one
process's spans add up to the time its top-level spans cover.  A layer's
``*_s`` metric is the self time of its span, summed over the processes
on the workload's critical path; ``unattributed_s`` is the traced wall
minus the sum of those layers, so the two always add up to the wall.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: What every untraced run reports, name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Span name -> the per-layer time metric its self time feeds.
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "simulation.plan": "simulation.plan_s",
    "simulation.materialize": "simulation.materialize_s",
    "firmware.collect": "firmware.collect_s",
    "engine.pool": "engine.pool_s",
    "engine.parent_wait": "engine.parent_wait_s",
    "engine.result_load": "engine.result_load_s",
    "batches.decode": "batches.decode_s",
    "server.ingest": "server.ingest_s",
    "storage.freeze": "storage.freeze_s",
    "backends.spill_write": "backends.spill_write_s",
    "backends.spill_read": "backends.spill_read_s",
    "export.write": "export.write_s",
    "export.read": "export.read_s",
    "streaming.analyze": "streaming.analyze_s",
    "paperkit.analyze": "paperkit.analyze_s",
    "paperkit.render": "paperkit.render_s",
}

#: What every traced run reports, name -> unit.  A layer a workload
#: does not exercise reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.run_s": "s",
    "cli.figures_s": "s",
    "simulation.plan_s": "s",
    "simulation.materialize_s": "s",
    "simulation.homes_per_s": "1/s",
    "firmware.collect_s": "s",
    "firmware.records_out": "count",
    "engine.pool_s": "s",
    "engine.parent_wait_s": "s",
    "engine.result_load_s": "s",
    "engine.worker_busy_share": "share",
    "engine.result_mb": "MB",
    "server.ingest_s": "s",
    "server.ingest_us_per_upload": "us",
    "server.uploads": "count",
    "server.rejected": "count",
    "storage.freeze_s": "s",
    "backends.spill_write_s": "s",
    "backends.spill_read_s": "s",
    "backends.spill_mb": "MB",
    "backends.spill_runs": "count",
    "export.write_s": "s",
    "export.write_mb_per_s": "MB/s",
    "export.read_s": "s",
    "export.read_mb_per_s": "MB/s",
    "export.archive_mb": "MB",
    "batches.encode_us": "us",
    "batches.decode_s": "s",
    "batches.decode_us": "us",
    "batches.frame_bytes": "bytes",
    "netserve.records_per_s": "1/s",
    "netserve.service_us_per_upload": "us",
    "netserve.residual_us_per_upload": "us",
    "netserve.ack_p50_ms": "ms",
    "netserve.ack_p99_ms": "ms",
    "netserve.max_ok_uploads_per_s": "1/s",
    "netserve.sheds": "count",
    "netserve.retries": "count",
    "netserve.stored_share": "share",
    "loadgen.send_lag_p99_ms": "ms",
    "loadgen.backlog_end": "count",
    "streaming.analyze_s": "s",
    "streaming.records_per_s": "1/s",
    "paperkit.analyze_s": "s",
    "paperkit.render_s": "s",
    "unattributed_s": "s",
    "unattributed_share": "share",
    "trace_overhead_share": "share",
    "fail_ratio": "share",
}


def _timed(spans: Iterable[dict], pids: Optional[Iterable[int]]) -> List[dict]:
    keep = None if pids is None else set(pids)
    return [s for s in spans if s.get("dur") is not None
            and (keep is None or s["pid"] in keep)]


def self_times(spans: Iterable[dict],
               pids: Optional[Iterable[int]] = None) -> Dict[str, float]:
    """Summed self time per span name over the spans of *pids* (all
    processes when None)."""
    totals: Dict[str, float] = {}
    by_pid: Dict[int, List[dict]] = {}
    for record in _timed(spans, pids):
        by_pid.setdefault(record["pid"], []).append(record)
    for records in by_pid.values():
        # Outer spans first at equal start, so a child never precedes
        # the parent that contains it.
        records.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack: List[Tuple[float, str]] = []       # (end, name)
        for record in records:
            start, dur = record["ts"], record["dur"]
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack:
                parent = stack[-1][1]
                totals[parent] = totals.get(parent, 0.0) - dur
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + dur
            stack.append((start + dur, name))
    return totals


def durations(spans: Iterable[dict], name: str,
              pids: Optional[Iterable[int]] = None) -> float:
    """Summed duration of every *name* span (children included)."""
    return sum(s["dur"] for s in _timed(spans, pids) if s["name"] == name)


def attribute(spans: Iterable[dict], wall: float,
              pids: Iterable[int]) -> Tuple[Dict[str, float], float]:
    """Layer self times on the critical path and the unattributed rest.

    Returns ``({metric: seconds}, unattributed_s)``; by construction the
    seconds plus the unattributed rest equal *wall*.  A span name with
    no metric in :data:`SPAN_METRICS` is an error, so a new span cannot
    silently fall out of the sum.
    """
    layers: Dict[str, float] = {}
    for name, seconds in self_times(spans, pids).items():
        if name not in SPAN_METRICS:
            raise KeyError(f"span {name!r} has no per-layer metric")
        metric = SPAN_METRICS[name]
        layers[metric] = layers.get(metric, 0.0) + seconds
    return layers, wall - sum(layers.values())
