"""The batch workloads: ``campaign-archive`` and ``campaign-stream``.

Both run the real CLI as program processes, with tracing off, and check
every ``repro figures`` report byte for byte against a reference the
benchmark computes in process at set-up.  The traced variants run the
same commands once untraced, then :mod:`replica` with a span around
every layer call.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

import layers
from procs import Deadline, Proc, python_cmd, run

#: 252 homes, ~1.3M records, a ~34 MB CSV archive; serial, memory store.
ARCHIVE = {"scale": 2.0, "duration": 0.02}
#: 1,008 homes, ~5.2M records; two workers, spill store, never
#: materialized.
STREAM = {"scale": 8.0, "duration": 0.02, "workers": 2}
#: Fresh-interpreter imports timed per run for ``setup_s``.
SETUP_SAMPLES = 5

HERE = Path(__file__).resolve().parent


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)
        return ok

    def proc(self, proc: Proc, what: str) -> bool:
        why = "timed out" if proc.timed_out else f"exit {proc.returncode}"
        tail = proc.stderr().strip().splitlines()[-1:] if not proc.ok else []
        return self.check(proc.ok, f"{what}: {why} {tail}")


def _cli(*args: str) -> List[str]:
    return python_cmd("-m", "repro", *args)


def _flags(seed: int, size: Dict[str, float]) -> List[str]:
    return ["--seed", str(seed), "--scale", str(size["scale"]),
            "--duration", str(size["duration"])]


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def setup_times(env, workdir: Path, deadline: Deadline, tally: Tally,
                samples: int) -> List[float]:
    """Walls of *samples* fresh-interpreter ``import repro.cli``."""
    walls = []
    for i in range(samples):
        proc = run(python_cmd("-c", "import repro.cli"), env, workdir,
                   f"import-{i}", deadline)
        if tally.proc(proc, "import repro.cli"):
            walls.append(proc.wall)
    return walls


def reference_report(workload: str, seed: int) -> str:
    """What ``repro figures`` must print for this seed, computed in
    process: the exact path for the archive, the serial memory-store
    streaming path for the stream."""
    from repro.core.paperkit import render_report, reproduce_all
    from repro.core.pipeline import StudyConfig, run_study, run_study_streaming
    if workload == "campaign-archive":
        config = StudyConfig(seed=seed, router_scale=ARCHIVE["scale"],
                             duration_scale=ARCHIVE["duration"])
        return render_report(reproduce_all(run_study(config).data)) + "\n"
    config = StudyConfig(seed=seed, router_scale=STREAM["scale"],
                         duration_scale=STREAM["duration"])
    return render_report(
        reproduce_all(run_study_streaming(config).figures)) + "\n"


def _figures_ok(tally: Tally, proc: Proc, reference: str, what: str) -> bool:
    if not tally.proc(proc, what):
        return False
    return tally.check(proc.stdout() == reference,
                       f"{what}: report differs from the reference")


def archive_once(seed: int, env, workdir: Path, deadline: Deadline,
                 tally: Tally, reference: str, tag: str) -> Dict[str, float]:
    """``repro run`` then ``repro figures --archive``; their walls."""
    out = workdir / f"archive-{tag}"
    try:
        made = run(_cli("run", *_flags(seed, ARCHIVE), "--out", str(out)),
                   env, workdir, f"run-{tag}", deadline)
        if tally.proc(made, "repro run"):
            tally.check(made.stdout().strip()
                        == f"wrote full archive to {out}",
                        f"repro run: unexpected output {made.stdout()!r}")
        archive_mb = _dir_bytes(out) / 1e6 if out.exists() else 0.0
        fig = run(_cli("figures", "--archive", str(out)), env, workdir,
                  f"figures-{tag}", deadline)
        _figures_ok(tally, fig, reference, "repro figures --archive")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"run_s": made.wall, "figures_s": fig.wall,
            "wall_s": made.wall + fig.wall, "archive_mb": archive_mb,
            "rss_mb": max(made.maxrss_mb, fig.maxrss_mb)}


def stream_once(seed: int, env, workdir: Path, deadline: Deadline,
                tally: Tally, reference: str, tag: str) -> Dict[str, float]:
    """``repro figures --stream --store spill --workers 2``; its wall."""
    fig = run(_cli("figures", *_flags(seed, STREAM), "--stream",
                   "--store", "spill", "--workers", str(STREAM["workers"])),
              env, workdir, f"stream-{tag}", deadline)
    _figures_ok(tally, fig, reference, "repro figures --stream")
    return {"figures_s": fig.wall, "wall_s": fig.wall,
            "rss_mb": fig.maxrss_mb}


ONCE = {"campaign-archive": archive_once, "campaign-stream": stream_once}


def _replica(mode: str, args: List[str], env, workdir: Path,
             deadline: Deadline, tally: Tally):
    spans_path = workdir / f"spans-{mode}.json"
    proc = run(python_cmd(str(HERE / "replica.py"), mode,
                          "--spans", str(spans_path), *args),
               env, workdir, f"replica-{mode}", deadline)
    tally.proc(proc, f"replica {mode}")
    payload = json.loads(spans_path.read_text()) if proc.ok else \
        {"spans": [], "counts": {}}
    return proc, payload


def traced(workload: str, seed: int, env, workdir: Path, deadline: Deadline,
           tally: Tally, reference: str):
    """One untraced pass, then the replica; returns (per-layer metrics,
    all spans, attribution)."""
    untraced = ONCE[workload](seed, env, workdir, deadline, tally,
                              reference, "untraced")
    procs, spans, counts = [], [], {}
    if workload == "campaign-archive":
        out = workdir / "archive-traced"
        try:
            made, payload = _replica(
                "run", _flags(seed, ARCHIVE) + ["--out", str(out)],
                env, workdir, deadline, tally)
            procs.append(made)
            spans += payload["spans"]
            counts.update(payload["counts"])
            fig, payload = _replica("figures", ["--archive", str(out)],
                                    env, workdir, deadline, tally)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    else:
        fig, payload = _replica(
            "stream", _flags(seed, STREAM)
            + ["--workers", str(STREAM["workers"])],
            env, workdir, deadline, tally)
    procs.append(fig)
    spans += payload["spans"]
    for name, value in payload["counts"].items():
        counts.setdefault(name, value)
    if fig.ok:
        tally.check(fig.stdout() == reference,
                    f"replica {workload}: report differs from the reference")

    wall = sum(p.wall for p in procs)
    pids = [p.popen.pid for p in procs]
    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    attributed, rest = layers.attribute(spans, wall, pids)
    metrics.update(attributed)
    # Worker-side layers run beside the critical path: report their busy
    # time, whichever process ran them.
    for name in ("simulation.materialize", "firmware.collect"):
        metrics[layers.SPAN_METRICS[name]] = layers.durations(spans, name)
    materialize_s = metrics["simulation.materialize_s"]
    ingest_all = layers.durations(spans, "server.ingest", pids)
    uploads = counts.get("uploads", 0)
    archive_mb = counts.get("archive_bytes", 0) / 1e6
    metrics.update({
        "cli.run_s": untraced.get("run_s", 0.0),
        "cli.figures_s": untraced["figures_s"],
        "simulation.homes_per_s": counts.get("homes", 0) / materialize_s
        if materialize_s else 0.0,
        "firmware.records_out": counts.get("records_out", 0),
        "engine.result_mb": counts.get("result_bytes", 0) / 1e6,
        "server.ingest_us_per_upload": ingest_all / uploads * 1e6
        if uploads else 0.0,
        "server.uploads": uploads,
        "server.rejected": counts.get("rejected", 0),
        "backends.spill_mb": counts.get("spill_bytes", 0) / 1e6,
        "backends.spill_runs": counts.get("spill_runs", 0),
        "export.archive_mb": archive_mb,
        "unattributed_s": rest,
        "unattributed_share": rest / wall,
        "trace_overhead_share": wall / untraced["wall_s"] - 1.0,
    })
    if metrics["export.write_s"]:
        metrics["export.write_mb_per_s"] = archive_mb / metrics["export.write_s"]
    if metrics["export.read_s"]:
        metrics["export.read_mb_per_s"] = archive_mb / metrics["export.read_s"]
    pool = layers.durations(spans, "engine.pool", pids)
    if pool:
        busy = sum(layers.durations(spans, name)
                   for name in ("simulation.materialize", "firmware.collect"))
        metrics["engine.worker_busy_share"] = \
            busy / (STREAM["workers"] * pool)
    analyze = layers.durations(spans, "streaming.analyze", pids)
    if analyze:
        metrics["streaming.records_per_s"] = \
            counts.get("records_streamed", 0) / analyze
    return metrics, spans, {"wall_s": wall, "layers": attributed,
                            "unattributed_s": rest}


def fits(start: float, done: int, seconds: float, deadline: Deadline) -> bool:
    """Whether one more round, as long as the mean round so far, ends
    within *seconds* of *start* (the first round always runs)."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return deadline.left() > 0 and elapsed * (done + 1) / done <= seconds


def untraced(workload: str, seed: int, seconds: float, env, workdir: Path,
             deadline: Deadline, tally: Tally, reference: str,
             setup: List[float]) -> Dict[str, float]:
    """Repeat the workload's commands while another round fits in
    *seconds* (at least once)."""
    samples = []
    start = time.perf_counter()
    while fits(start, len(samples), seconds, deadline):
        samples.append(ONCE[workload](seed, env, workdir, deadline, tally,
                                      reference, str(len(samples))))
    return {
        "setup_s": median(setup),
        "wall_s": median(s["wall_s"] for s in samples),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
    }
