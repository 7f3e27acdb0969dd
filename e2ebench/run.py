"""End-to-end benchmark of the reproduction's user-facing commands.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``e2ebench/README.md`` for why each exists):

* ``campaign-archive`` — ``repro run --out DIR`` then ``repro figures
  --archive DIR``;
* ``campaign-stream`` — ``repro figures --stream --store spill
  --workers 2``;
* ``ingest-socket`` — ``repro serve`` in its own process, driven by this
  one as a pipelined open loop over two connections.

``--trace 0`` repeats the workload for ``--seconds`` with tracing off and
reports the end-to-end metrics; ``--trace 1`` runs it once untraced and
once as a traced replica and reports the per-layer metrics, writing the
spans as a Chrome trace (``repro trace report`` opens it) under
``.e2ebench/traces/``.  Every run checks the program's outputs.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
STATE = CHECKOUT / ".e2ebench"

#: Hard budget for one run, all processes included.
RUN_BUDGET_S = 170.0

WORKLOADS = ("campaign-archive", "campaign-stream", "ingest-socket")


def _sizes(workload: str) -> Dict[str, object]:
    import campaign
    import ingest
    if workload == "campaign-archive":
        return dict(campaign.ARCHIVE)
    if workload == "campaign-stream":
        return dict(campaign.STREAM)
    return {"ladder_uploads_per_s": list(ingest.LADDER),
            "rung_uploads": ingest.RUNG_UPLOADS,
            "saturation_uploads": ingest.SATURATION_UPLOADS,
            "saturation_rungs_per_pass": ingest.SATURATION_REPEATS,
            "connections": ingest.CONNECTIONS,
            "latency_limit_ms": ingest.LATENCY_LIMIT_MS,
            "duration": ingest.DURATION}


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace,
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "sizes": _sizes(workload)}


def run_campaign(workload: str, seed: int, seconds: float, trace: bool,
                 env, workdir: Path, deadline, tally) -> Tuple[dict, list,
                                                              dict]:
    import campaign
    setup = campaign.setup_times(env, workdir, deadline, tally,
                                 0 if trace else campaign.SETUP_SAMPLES)
    reference = campaign.reference_report(workload, seed)
    if trace:
        return campaign.traced(workload, seed, env, workdir, deadline,
                               tally, reference)
    return campaign.untraced(workload, seed, seconds, env, workdir,
                             deadline, tally, reference, setup), [], {}


def run_ingest(seed: int, seconds: float, trace: bool, env, workdir: Path,
               deadline, tally) -> Tuple[dict, list, dict]:
    import campaign
    import ingest
    import layers
    from repro.trace import TraceRecorder
    frames, records, encode_s = ingest.build_frames(seed,
                                                    ingest.total_uploads())
    passes = []
    start = time.perf_counter()
    while campaign.fits(start, len(passes), 0.0 if trace else seconds,
                        deadline):
        result = ingest.run_pass(seed, frames, not passes, env, workdir,
                                 f"serve-{len(passes)}", deadline)
        tally.attempted += result.attempted
        tally.failed += result.failed
        tally.notes += result.notes
        passes.append(result)
    sat = [rung for p in passes for rung in p.saturation]
    if not trace:
        return {
            "setup_s": median(p.setup_s for p in passes),
            "wall_s": median(r.wall_s for r in sat),
            "peak_rss_mb": max(p.maxrss_mb for p in passes),
        }, [], {}

    # Traced: the daemon's in-process work for one saturation rung's
    # uploads, replayed untraced and then with a span around each call,
    # set against that rung's median wall.
    (one,) = passes
    imports = campaign.setup_times(env, workdir, deadline, tally, 1)
    sat_frames = frames[-ingest.SATURATION_UPLOADS:]
    plain_s = ingest.replay(seed, sat_frames)
    recorder = TraceRecorder("e2ebench")
    traced_s = ingest.replay(seed, sat_frames, recorder)
    spans = recorder.spans
    wall = median(r.wall_s for r in one.saturation)
    n = len(sat_frames)
    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    attributed, rest = layers.attribute(spans, wall, [os.getpid()])
    metrics.update(attributed)
    ladder = one.ladder
    middle = ladder[len(ladder) // 2]
    service_us = wall / n * 1e6
    rungs = one.rungs
    metrics.update({
        "cli.import_s": imports[0] if imports else 0.0,
        "server.ingest_us_per_upload": metrics["server.ingest_s"] / n * 1e6,
        "server.uploads": n,
        "batches.encode_us": median(encode_s) * 1e6,
        "batches.decode_us": metrics["batches.decode_s"] / n * 1e6,
        "batches.frame_bytes": median(len(f) for f in frames),
        "netserve.records_per_s": sum(records[-n:]) / wall,
        "netserve.service_us_per_upload": service_us,
        "netserve.residual_us_per_upload": rest / n * 1e6,
        "netserve.ack_p50_ms": ingest.percentile(middle.latency_ms, 50),
        "netserve.ack_p99_ms": ingest.percentile(middle.latency_ms, 99),
        "netserve.max_ok_uploads_per_s": ingest.max_ok_rate(ladder),
        "netserve.sheds": one.sheds,
        "netserve.retries": one.retries,
        "netserve.stored_share": sum(r.stored for r in rungs)
        / sum(r.uploads for r in rungs),
        "loadgen.send_lag_p99_ms": max(ingest.percentile(r.send_lag_ms, 99)
                                       for r in ladder),
        "loadgen.backlog_end": max(r.backlog_end for r in ladder),
        "unattributed_s": rest,
        "unattributed_share": rest / wall,
        "trace_overhead_share": traced_s / plain_s - 1.0,
    })
    return metrics, spans, {"wall_s": wall, "layers": attributed,
                            "unattributed_s": rest}


def write_trace(workload: str, seed: int, spans: list) -> None:
    from repro.trace import write_chrome_trace
    write_chrome_trace(STATE / "traces" / f"{workload}-s{seed}.json", spans,
                       f"e2ebench-{workload}-s{seed}")


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one workload; returns the result object plus, for a traced
    run, the attribution (``wall_s``, critical-path ``layers``,
    ``unattributed_s``) and the spans."""
    import campaign
    import layers
    from procs import Deadline, program_env
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    tally = campaign.Tally()
    deadline = Deadline(RUN_BUDGET_S)
    try:
        env = program_env(CHECKOUT, workdir)
        # Fill the bytecode cache (users' installs have one) before
        # anything is timed.
        campaign.setup_times(env, workdir, deadline, tally, 1)
        if workload == "ingest-socket":
            values, spans, attribution = run_ingest(
                seed, seconds, trace, env, workdir, deadline, tally)
        else:
            values, spans, attribution = run_campaign(
                workload, seed, seconds, trace, env, workdir, deadline,
                tally)
        if trace:
            values["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.PER_LAYER if trace else layers.END_TO_END
    return {
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "notes": tally.notes,
        "attribution": attribution,
        "spans": spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    trace = bool(args.trace)
    print(json.dumps({"provenance": provenance(args.workload, args.seed,
                                               trace)}), flush=True)
    run = measure(args.workload, args.seed, args.seconds, trace)
    for note in run["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    if trace:
        write_trace(args.workload, args.seed, run["spans"])
        print(json.dumps({"attribution": run["attribution"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
