"""Traced replicas of the measured commands, one layer call at a time.

Run as a program process by the traced run (``--trace 1``)::

    python3 e2ebench/replica.py run     --spans F --seed N --scale X --duration D --out DIR
    python3 e2ebench/replica.py figures --spans F --archive DIR
    python3 e2ebench/replica.py stream  --spans F --seed N --scale X --duration D --workers W

Each mode does what ``repro run``, ``repro figures --archive`` and
``repro figures --stream --store spill --workers W`` do, but calls the
layers' public functions itself and wraps every call in a span recorded
in a private :class:`repro.trace.TraceRecorder` (the global tracer stays
off, so the program's own spans never mix in).  The figures modes print
the same report the CLI prints, so the benchmark checks it against the
same reference.  At exit the spans and the layer counters are written to
``--spans`` as JSON.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

_T0 = time.time()

#: Records pulled per timed read off the spill store (one span each).
READ_CHUNK = 4096


class Spans:
    """The private recorder plus the layer counters of one process."""

    def __init__(self) -> None:
        from repro.trace import TraceRecorder
        self.recorder = TraceRecorder("e2ebench")
        self.counts: dict = {}

    @contextmanager
    def span(self, name: str, **args):
        t0 = time.time()
        try:
            yield
        finally:
            self.recorder.add(name, t0, time.time(), cat="layer", **args)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str, start: float) -> None:
        Path(path).write_text(json.dumps({
            "start": start, "end": time.time(),
            "spans": self.recorder.spans, "counts": self.counts}))


def _config(args):
    from repro.core.pipeline import StudyConfig
    # The CLI's defaults for the flags the benchmark does not pass.
    return StudyConfig(seed=args.seed, router_scale=args.scale,
                       duration_scale=args.duration, workers=args.workers)


@functools.lru_cache(maxsize=1)
def _statics():
    """Per-process (domain universe, anonymization policy), as the
    engine builds them once per worker."""
    from repro.firmware.anonymize import AnonymizationPolicy
    from repro.simulation.domains import default_universe
    universe = default_universe()
    whitelist = frozenset(d.name for d in universe if d.whitelisted)
    return universe, AnonymizationPolicy(whitelist=whitelist)


def _plan(spans: Spans, config):
    from repro.simulation.deployment import build_deployment_plan
    with spans.span("simulation.plan"):
        plan = build_deployment_plan(config.deployment_config())
        _statics()
    return plan


def _shard(spans: Spans, plan, index: int, n_shards: int, seed: int):
    from repro.firmware.shard_collect import collect_shard
    from repro.simulation.deployment import materialize_shard
    from repro.simulation.seeding import SeedHierarchy
    universe, policy = _statics()
    with spans.span("simulation.materialize", shard=index):
        cohort = materialize_shard(plan, index, n_shards,
                                   domain_universe=universe)
    with spans.span("firmware.collect", shard=index):
        uploads = collect_shard(cohort, plan, SeedHierarchy(seed), policy)
    spans.count("homes", len(cohort))
    spans.count("records_out", sum(u.record_count for u in uploads))
    return uploads


def _shard_in_worker(plan, index: int, n_shards: int, seed: int):
    """Pool task: one shard's uploads, pickled here so the parent can
    time loading them, plus the worker's spans."""
    spans = Spans()
    uploads = _shard(spans, plan, index, n_shards, seed)
    return pickle.dumps(uploads, pickle.HIGHEST_PROTOCOL), spans


def _server(store, plan, config):
    from repro.collection.path import CollectionPath
    from repro.collection.server import CollectionServer
    from repro.simulation.seeding import SeedHierarchy
    path = CollectionPath(
        SeedHierarchy(config.seed).generator("collection-path"),
        plan.windows.span, config.path)
    return CollectionServer(store, path)


def _ingest(spans: Spans, server, uploads) -> None:
    for upload in uploads:
        with spans.span("server.ingest"):
            stored = server.ingest(upload)
        spans.count("uploads", 1)
        spans.count("rejected", 0 if stored else 1)


def _timed_chunks(spans: Spans, iterator):
    """Yield *iterator*'s items, timing each pull of READ_CHUNK items."""
    iterator = iter(iterator)
    while True:
        with spans.span("backends.spill_read"):
            block = list(itertools.islice(iterator, READ_CHUNK))
        if not block:
            return
        yield from block


def _timed_backend(spans: Spans, inner):
    """A StoreBackend proxy timing every write and read of *inner*."""
    from repro.collection.backends import StoreBackend

    class TimedBackend(StoreBackend):
        def append(self, dataset, records):
            with spans.span("backends.spill_write"):
                inner.append(dataset, records)

        def put_heartbeats(self, log):
            with spans.span("backends.spill_write"):
                inner.put_heartbeats(log)

        def put_throughput(self, series):
            with spans.span("backends.spill_write"):
                inner.put_throughput(series)

        def finalize(self):
            with spans.span("backends.spill_read"):
                return inner.finalize()

        def iter_dataset(self, dataset):
            with spans.span("backends.spill_write"):
                inner.flush()
            return _timed_chunks(spans, inner.iter_dataset(dataset))

        def iter_heartbeats(self):
            return _timed_chunks(spans, inner.iter_heartbeats())

        def iter_throughput(self):
            return _timed_chunks(spans, inner.iter_throughput())

    return TimedBackend()


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def mode_run(spans: Spans, args) -> None:
    """``repro run --out DIR`` on the serial engine and memory store."""
    from repro.collection.engine import shard_count
    from repro.collection.export import export_study
    config = _config(args)
    plan = _plan(spans, config)
    store = config.make_store(plan.windows)
    server = _server(store, plan, config)
    n_shards = shard_count(len(plan))
    for index in range(n_shards):
        _ingest(spans, server, _shard(spans, plan, index, n_shards,
                                      config.seed))
    with spans.span("storage.freeze"):
        data = store.to_study_data()
    with spans.span("export.write"):
        export_study(data, args.out, include_pii_datasets=True)
    spans.count("archive_bytes", _dir_bytes(Path(args.out)))


def mode_figures(spans: Spans, args) -> None:
    """``repro figures --archive DIR``."""
    from repro.collection.export import load_study
    from repro.core.paperkit import render_report, reproduce_all
    with spans.span("export.read"):
        data = load_study(args.archive)
    spans.count("archive_bytes", _dir_bytes(Path(args.archive)))
    with spans.span("paperkit.analyze"):
        report = reproduce_all(data)
    with spans.span("paperkit.render"):
        print(render_report(report))


def mode_stream(spans: Spans, args) -> None:
    """``repro figures --stream --store spill --workers W``: shards on a
    pool consumed in shard order with a 2×workers submission window,
    as the engine runs them, ingested into a timed spill store."""
    from repro.collection.backends import SpillBackend
    from repro.collection.engine import shard_count
    from repro.collection.storage import RecordStore
    from repro.core.paperkit import render_report, reproduce_all
    from repro.core.streaming import StoreSource, stream_figures
    config = _config(args)
    plan = _plan(spans, config)
    spill = SpillBackend(max_buffered_records=config.spill_buffer_records)
    store = RecordStore(plan.windows, backend=_timed_backend(spans, spill))
    server = _server(store, plan, config)
    n_shards = shard_count(len(plan))
    # The engine's pool uses the platform's default start method, so the
    # replica's does too: worker start-up then costs what it costs there.
    with spans.span("engine.pool"), \
            ProcessPoolExecutor(max_workers=args.workers) as pool:
        pending: deque = deque()
        next_shard = 0

        def top_up() -> None:
            nonlocal next_shard
            while next_shard < n_shards and len(pending) < 2 * args.workers:
                pending.append(pool.submit(_shard_in_worker, plan,
                                           next_shard, n_shards,
                                           config.seed))
                next_shard += 1

        top_up()
        while pending:
            with spans.span("engine.parent_wait"):
                blob, worker = pending.popleft().result()
            spans.recorder.merge(worker.recorder.drain())
            for name, value in worker.counts.items():
                spans.count(name, value)
            spans.count("result_bytes", len(blob))
            with spans.span("engine.result_load"):
                uploads = pickle.loads(blob)
            _ingest(spans, server, uploads)
            top_up()
    spans.count("spill_bytes", _dir_bytes(spill.root))
    spans.count("spill_runs", len(list((spill.root / "runs").iterdir())))
    with spans.span("streaming.analyze"):
        figures = stream_figures(StoreSource(store))
    spans.count("records_streamed", figures.records_streamed)
    with spans.span("paperkit.analyze"):
        report = reproduce_all(figures)
    with spans.span("paperkit.render"):
        print(render_report(report))


MODES = {"run": mode_run, "figures": mode_figures, "stream": mode_stream}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--spans", required=True)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=0.1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--archive")
    args = parser.parse_args()
    t0 = time.time()
    import repro.cli  # noqa: F401  (the import every command pays)
    spans = Spans()
    spans.recorder.add("cli.import", t0, time.time(), cat="layer")
    MODES[args.mode](spans, args)
    spans.dump(args.spans, _T0)


if __name__ == "__main__":
    main()
