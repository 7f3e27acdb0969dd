"""The ``ingest-socket`` workload: ``repro serve`` driven as an open loop.

The daemon runs in its own process.  This process plays a fleet of
independent routers: it sends pre-built upload frames over two
connections at the moment each is due, never waiting for an ACK before
the next send, and reads ACKs on its own.  Latency runs from each
upload's due time to its ACK, so a stall in the daemon is charged to
every upload queued behind it.

One daemon lifetime (a *pass*) offers a few rungs far above the daemon's
capacity; a run's first pass offers a fixed ladder of rates below
capacity before them.  Each rung starts once the previous one is fully
ACKed; upload seqs run on across rungs, and the daemon exits after the
last one (``--expect``).  Much of the saturated drain time varies with
the daemon process as a whole, so a run measures it over many short
passes rather than a few long ones.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from procs import Deadline, Proc, python_cmd

#: Offered rates below capacity, uploads/s; ``RUNG_UPLOADS`` each.
LADDER = (500.0, 1000.0, 2000.0)
RUNG_UPLOADS = 1000
#: The above-capacity rungs: everything due at once, at this rate.
SATURATION_RATE = 50_000.0
SATURATION_UPLOADS = 4000
SATURATION_REPEATS = 2
#: The latency limit a rung's p99 must meet, ms.
LATENCY_LIMIT_MS = 25.0
#: A rung whose sends ran later than this at p99 measures the
#: generator, not the daemon, and counts neither way.
SEND_LAG_LIMIT_MS = 5.0
CONNECTIONS = 2
#: Collection-window scale shared by daemon and uploads (a mismatch
#: gets every upload rejected).
DURATION = 0.02
#: How long a shed upload may keep being resent before it counts failed.
GIVE_UP_S = 10.0


def total_uploads() -> int:
    return RUNG_UPLOADS * len(LADDER) \
        + SATURATION_UPLOADS * SATURATION_REPEATS


def build_frames(seed: int, count: int) -> Tuple[List[bytes], List[int],
                                                 List[float]]:
    """The fleet's upload frames for *seed*, with per-frame record counts
    and encode times (s)."""
    from repro.collection.batches import encode_frame
    from repro.collection.loadgen import LoadConfig, synthetic_upload
    from repro.simulation.timebase import StudyWindows
    span = StudyWindows().scaled(DURATION).span
    config = LoadConfig(clients=count, connections=CONNECTIONS, seed=seed)
    frames, records, encode_s = [], [], []
    for seq in range(count):
        upload = synthetic_upload(seq, span, config)
        t0 = time.perf_counter()
        frames.append(encode_frame(("upload", seq, upload)))
        encode_s.append(time.perf_counter() - t0)
        records.append(upload.record_count)
    return frames, records, encode_s


@dataclass
class Rung:
    rate: float
    first: int
    count: int
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)

    @property
    def seqs(self) -> range:
        return range(self.first, self.first + self.count)


@dataclass
class RungResult:
    rate: float
    uploads: int
    latency_ms: List[float]          # inf for an upload never stored
    send_lag_ms: List[float]
    backlog_end: int
    wall_s: float                    # first due -> last ACK
    stored: int

    @property
    def valid(self) -> bool:
        return percentile(self.send_lag_ms, 99) <= SEND_LAG_LIMIT_MS

    @property
    def meets_limit(self) -> bool:
        backlog_allowed = self.rate * LATENCY_LIMIT_MS / 1000.0
        return (percentile(self.latency_ms, 99) <= LATENCY_LIMIT_MS
                and self.backlog_end <= backlog_allowed)

    @property
    def achieved_rate(self) -> float:
        return self.stored / self.wall_s


@dataclass
class PassResult:
    rungs: List[RungResult]
    setup_s: float
    maxrss_mb: float
    attempted: int
    failed: int
    sheds: int
    retries: int
    daemon_ok: bool
    notes: List[str]

    @property
    def saturation(self) -> List[RungResult]:
        return self.rungs[-SATURATION_REPEATS:]

    @property
    def ladder(self) -> List[RungResult]:
        return self.rungs[:-SATURATION_REPEATS]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (inf-safe: a failed upload stays inf)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def max_ok_rate(rungs: List[RungResult]) -> float:
    """Achieved rate of the highest valid rung that meets the limit."""
    ok = [r for r in rungs if r.valid and r.meets_limit]
    return max(ok, key=lambda r: r.rate).achieved_rate if ok else 0.0


class _Fleet:
    """The open-loop sender/ACK reader over ``CONNECTIONS`` sockets."""

    def __init__(self, frames: List[bytes]) -> None:
        self.frames = frames
        self.acked: Dict[int, float] = {}
        self.status: Dict[int, str] = {}
        self.failed: Dict[int, str] = {}
        self.first_shed: Dict[int, float] = {}
        self.sheds = 0
        self.retries = 0
        self.writers: List[asyncio.StreamWriter] = []
        self.readers: List[asyncio.Task] = []
        self.resends: List[asyncio.Task] = []
        #: The current rung's seqs still waiting for an ACK or a failure.
        self.outstanding: set = set()
        self._settled = asyncio.Event()

    async def connect(self, host: str, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            self.writers.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader)))

    def _send(self, seq: int) -> None:
        self.writers[seq % CONNECTIONS].write(self.frames[seq])

    async def _read(self, reader: asyncio.StreamReader) -> None:
        from repro.collection.batches import FRAME_HEADER, decode_payload
        loop = asyncio.get_running_loop()
        while True:
            try:
                header = await reader.readexactly(FRAME_HEADER.size)
                (length,) = FRAME_HEADER.unpack(header)
                message = decode_payload(await reader.readexactly(length))
            except (asyncio.IncompleteReadError, ConnectionError):
                self._settled.set()  # nothing more will arrive here
                return
            now = loop.time()
            kind, seq = message[0], message[1]
            if kind == "ack":
                self.acked[seq] = now
                self.status[seq] = message[2]
            elif kind == "retry":
                self.sheds += 1
                first = self.first_shed.setdefault(seq, now)
                if now - first > GIVE_UP_S:
                    self.failed[seq] = "shed until given up"
                else:
                    self.retries += 1
                    self.resends.append(asyncio.create_task(
                        self._resend(seq, float(message[2]))))
            else:
                self.failed[seq] = f"{kind}: {message[2:]}"
            if seq in self.acked or seq in self.failed:
                self.outstanding.discard(seq)
                if not self.outstanding:
                    self._settled.set()

    async def _resend(self, seq: int, after: float) -> None:
        await asyncio.sleep(after)
        self._send(seq)

    async def offer(self, rung: Rung, deadline: Deadline) -> None:
        """Send *rung* on schedule, then wait until every upload of it
        is ACKed or failed (or the deadline passes)."""
        loop = asyncio.get_running_loop()
        self.outstanding = set(rung.seqs)
        self._settled.clear()
        start = loop.time() + 0.005
        rung.due = [start + i / rung.rate for i in range(rung.count)]
        for seq, due in zip(rung.seqs, rung.due):
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self._send(seq)
            rung.sent.append(loop.time())
        if not all(task.done() for task in self.readers):
            try:
                await asyncio.wait_for(self._settled.wait(), deadline.left())
            except asyncio.TimeoutError:
                pass
        for seq in rung.seqs:
            if seq not in self.acked and seq not in self.failed:
                self.failed[seq] = "no response"

    async def close(self) -> None:
        for task in self.resends:
            task.cancel()
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, *self.resends,
                             return_exceptions=True)

    def result(self, rung: Rung) -> RungResult:
        latency, stored_at = [], []
        for seq, due in zip(rung.seqs, rung.due):
            if seq in self.acked and self.status.get(seq) == "stored" \
                    and seq not in self.failed:
                latency.append((self.acked[seq] - due) * 1000.0)
                stored_at.append(self.acked[seq])
            else:
                latency.append(float("inf"))
        last_due = rung.due[-1]
        backlog = sum(1 for seq in rung.seqs
                      if self.acked.get(seq, float("inf")) > last_due)
        wall = (max(stored_at) if stored_at else last_due) - rung.due[0]
        return RungResult(
            rate=rung.rate, uploads=rung.count, latency_ms=latency,
            send_lag_ms=[(s - d) * 1000.0
                         for s, d in zip(rung.sent, rung.due)],
            backlog_end=backlog, wall_s=wall, stored=len(stored_at))


def _rungs(ladder: bool) -> List[Rung]:
    rungs, first = [], 0
    for rate in LADDER if ladder else ():
        rungs.append(Rung(rate, first, RUNG_UPLOADS))
        first += RUNG_UPLOADS
    for _ in range(SATURATION_REPEATS):
        rungs.append(Rung(SATURATION_RATE, first, SATURATION_UPLOADS))
        first += SATURATION_UPLOADS
    return rungs


def spawn_daemon(seed: int, expect: int, env, workdir, tag: str,
                 deadline: Deadline) -> Tuple[Proc, Optional[Tuple[str, int]],
                                              float]:
    """Start ``repro serve``; returns (proc, (host, port) or None,
    spawn-to-listening seconds)."""
    proc = Proc(python_cmd("-m", "repro", "serve", "--port", "0",
                           "--expect", str(expect), "--seed", str(seed),
                           "--duration", str(DURATION)),
                env, workdir, tag, pipe_stdout=True)
    line = proc.readline(deadline)
    ready = time.perf_counter() - proc.start
    if not line.startswith("listening on "):
        return proc, None, ready
    host, _, port = line[len("listening on "):].strip().rpartition(":")
    return proc, (host, int(port)), ready


def daemon_ingested(proc: Proc) -> Optional[int]:
    for line in proc.stderr().splitlines():
        if line.startswith("ingested "):
            return int(line.split()[1])
    return None


def run_pass(seed: int, frames: List[bytes], ladder: bool, env, workdir,
             tag: str, deadline: Deadline) -> PassResult:
    """One daemon lifetime: the ladder if asked, then the saturation
    rungs, over the first of *frames*."""
    rungs = _rungs(ladder)
    n = sum(rung.count for rung in rungs)
    notes: List[str] = []
    proc, address, setup_s = spawn_daemon(seed, n, env, workdir, tag,
                                          deadline)
    fleet = _Fleet(frames)
    try:
        if address is None:
            notes.append(f"{tag}: daemon never listened")
        else:
            async def drive() -> None:
                await fleet.connect(*address)
                try:
                    for rung in rungs:
                        await fleet.offer(rung, deadline)
                finally:
                    await fleet.close()
            asyncio.run(drive())
    finally:
        stored = sum(1 for status in fleet.status.values()
                     if status == "stored")
        if address is None or stored < n:
            proc.kill()  # it would wait for --expect uploads forever
        daemon_ok = proc.wait(deadline)
    results = [fleet.result(r) if r.due else
               RungResult(r.rate, r.count, [float("inf")] * r.count,
                          [0.0], r.count, float("inf"), 0)
               for r in rungs]
    unstored = n - sum(r.stored for r in results)
    ingested = daemon_ingested(proc)
    if not daemon_ok:
        notes.append(f"{tag}: daemon exit {proc.returncode}"
                     f"{' (timeout)' if proc.timed_out else ''}")
    if ingested != n:
        notes.append(f"{tag}: daemon reports {ingested} ingested, "
                     f"{n} sent")
    if unstored:
        bad = [(seq, fleet.failed.get(seq) or fleet.status.get(seq))
               for seq in range(n) if seq in fleet.failed
               or fleet.status.get(seq) != "stored"]
        notes.append(f"{tag}: {unstored} uploads not ACKed stored once; "
                     f"e.g. {bad[:3]}")
    failed = unstored + (0 if daemon_ok and ingested == n else 1)
    return PassResult(rungs=results, setup_s=setup_s,
                      maxrss_mb=proc.maxrss_mb, attempted=n + 1,
                      failed=failed, sheds=fleet.sheds,
                      retries=fleet.retries, daemon_ok=daemon_ok,
                      notes=notes)


def replay(seed: int, frames: List[bytes], recorder=None) -> float:
    """Do the daemon's in-process work for *frames* — decode, then
    ``CollectionServer.ingest`` into a fresh store wired as ``repro
    serve`` wires it — and return the loop's wall seconds.  With a
    *recorder*, every call is a span in it."""
    from repro.collection.batches import FRAME_HEADER, decode_payload
    from repro.collection.path import CollectionPath, PathConfig
    from repro.collection.server import CollectionServer
    from repro.collection.storage import RecordStore
    from repro.simulation.seeding import SeedHierarchy
    from repro.simulation.timebase import StudyWindows
    windows = StudyWindows().scaled(DURATION)
    server = CollectionServer(RecordStore(windows), CollectionPath(
        SeedHierarchy(seed).generator("collection-path"), windows.span,
        PathConfig()))
    payloads = [frame[FRAME_HEADER.size:] for frame in frames]
    clock = time.time
    t0 = clock()
    if recorder is None:
        for payload in payloads:
            server.ingest(decode_payload(payload)[2])
    else:
        for payload in payloads:
            a = clock()
            message = decode_payload(payload)
            b = clock()
            server.ingest(message[2])
            c = clock()
            recorder.add("batches.decode", a, b, cat="layer")
            recorder.add("server.ingest", b, c, cat="layer")
    return clock() - t0
