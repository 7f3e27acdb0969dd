"""CSV/JSON round-trip of a collected study, as the paper's public release.

One CSV per data set plus a JSON manifest, loaded back ``study_digest``-
identical: numbers keep their shortest exact form and int/float kind, and
zero-heartbeat routers come back with empty logs.  One column table drives
a chunked columnar writer, byte-identical to ``csv.writer``, and a chunked
reader that finds columns by header name, as ``csv.DictReader`` did.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.datasets import HeartbeatLog, StudyData, ThroughputSeries
from repro.core.records import (
    CapacityMeasurement, DeviceCountSample, DeviceRosterEntry, DnsRecord,
    FlowRecord, Medium, RouterInfo, Spectrum, UptimeReport, WifiScanSample)
from repro.simulation.timebase import StudyWindows

logger = logging.getLogger(__name__)

#: Rows formatted per write, and characters of lines tokenized per read.
_ROWS, _CHUNK = 1 << 14, 1 << 20


def _num(value) -> str:
    """Shortest exact cell for a number (``repr`` round-trips a double),
    keeping its int/float kind so a round-trip compares equal."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _parse_num(text: str):
    """Inverse of :func:`_num`: int when the cell is integral, else float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _nums(values):
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return map(repr, values.tolist())  # one repr per double, no _num
    return map(_num, values)


def _cell(value) -> str:
    """``csv.writer``'s text for a field: ``str``, None empty."""
    return "" if value is None else str(value)


def _quote(text: str) -> str:
    """``csv.writer``'s minimal quoting of one cell."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text(fn=_cell):
    """Column writer: quoted text cells, made once per distinct value."""
    def write(values):
        cells = {value: _quote(fn(value)) for value in set(values)}
        return map(cells.__getitem__, values)
    return write


_each = partial(partial, map)  # _each(f)(column) is map(f, column)
#: Column kind → (writer: values → cells, reader: cells → values).
_KINDS = {
    "str": (_text(), lambda cells: cells),
    "int": (_each(_cell), _each(int)),
    "int?": (_each(_cell), _each(lambda c: int(c) if c else None)),
    # Archives from before the channel column read it as 0.
    "channel": (_each(_cell), _each(lambda c: int(c or 0))),
    "float": (_each(_cell), _each(float)),
    "num": (_nums, _each(float)),
    "exact": (_nums, _each(_parse_num)),
    "bool": (_text(lambda v: str(int(v))), _each(lambda c: bool(int(c)))),
    "series": (_each(lambda v: " ".join(map(repr, np.asarray(
        v, dtype=float).tolist()))),
        _each(lambda c: np.fromiter(map(float, c.split()), float))),
    "medium": (_text(attrgetter("value")), _each(Medium)),
    "spectrum": (_text(attrgetter("value")), _each(Spectrum)),
    "spectrum?": (_text(lambda v: "" if v is None else v.value),
                  _each(lambda c: Spectrum(c) if c else None)),
}

#: StudyData attribute → (file, record class, "column:kind ..." in file
#: order, kind ``str`` when omitted).  Columns are the record's fields,
#: so rows rebuild as ``cls(*fields)`` and ``__post_init__`` still runs.
_TABLES = {name: (file, cls, tuple(
    (column, *_KINDS[kind or "str"])
    for column, _, kind in (token.partition(":") for token in spec.split())
)) for name, file, cls, spec in (
    ("routers", "routers.csv", RouterInfo, "router_id country_code "
     "developed:bool tz_offset_hours:float gdp_ppp_per_capita:float"),
    ("heartbeats", "heartbeats.csv", None, "router_id timestamp:num"),
    ("heartbeat_delivery", "heartbeat_delivery.csv", None,
     "router_id sent:int delivered:int"),
    ("uptime_reports", "uptime.csv", UptimeReport,
     "router_id timestamp:num uptime_seconds:num"),
    ("capacity", "capacity.csv", CapacityMeasurement,
     "router_id timestamp:num downstream_mbps:num upstream_mbps:num"),
    ("device_counts", "devices.csv", DeviceCountSample,
     "router_id timestamp:num wired:int wireless_2_4:int wireless_5:int"),
    ("roster", "roster.csv", DeviceRosterEntry,
     "router_id device_mac medium:medium spectrum:spectrum? "
     "first_seen:num last_seen:num always_connected:bool"),
    ("wifi_scans", "wifi.csv", WifiScanSample,
     "router_id timestamp:num spectrum:spectrum neighbor_aps:int "
     "associated_clients:int channel:channel"),
    ("flows", "flows.csv", FlowRecord,
     "router_id timestamp:num device_mac domain remote_ip:int port:int "
     "application bytes_up:num bytes_down:num duration_seconds:num"),
    ("throughput", "throughput.csv", ThroughputSeries, "router_id "
     "start:exact interval_seconds:exact up_bps:series down_bps:series"),
    ("dns", "dns.csv", DnsRecord, "router_id timestamp:num device_mac "
     "domain record_type address:int?"),
)}
_TRAFFIC = ("flows", "throughput", "dns")  # withheld from public releases


def _row_chunks(rows, row):
    """Columns of each bounded slice of *rows*; ``row`` gives one tuple."""
    for lo in range(0, len(rows), _ROWS):
        yield list(zip(*map(row, rows[lo:lo + _ROWS])))


def _log_chunks(logs):
    """Heartbeat columns, whole logs at a time, ≥ ``_ROWS`` rows a chunk."""
    ids, times = [], []
    for log in logs:
        ids += [log.router_id] * len(log)
        times.append(log.timestamps)
        if len(ids) >= _ROWS:
            yield ids, np.concatenate(times)
            ids, times = [], []
    if ids:
        yield ids, np.concatenate(times)


def _write_table(path: Path, columns, chunks) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(name for name, _, _ in columns) + "\r\n")
        for values in chunks:
            cells = [write(column)
                     for (_, write, _), column in zip(columns, values)]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def export_study(data: StudyData, directory: Union[str, Path],
                 include_pii_datasets: bool = True) -> Path:
    """Write *data* as a CSV/JSON archive under *directory*.

    ``include_pii_datasets=False`` withholds the Traffic data set (flows,
    throughput, DNS), as the paper's public release did.  Data-set files
    this export does not write are removed from *directory*, so a reused
    one never ships stale or withheld data."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    windows = {name: list(getattr(data.windows, name)) for name in (
        "heartbeats", "uptime", "capacity", "devices", "wifi", "traffic")}
    (root / "manifest.json").write_text(json.dumps(
        {"windows": windows, "includes_traffic": include_pii_datasets},
        indent=2), encoding="utf-8")

    for name, (filename, cls, columns) in _TABLES.items():
        rows, path = getattr(data, name), root / filename
        if name == "heartbeat_delivery":
            rows = [(rid, *tally) for rid, tally in rows.items()]
        if (name in _TRAFFIC and not include_pii_datasets) or (
                name == "heartbeat_delivery" and not rows):
            path.unlink(missing_ok=True)
            continue
        rows = list(rows.values()) if isinstance(rows, dict) else rows
        _write_table(path, columns, _log_chunks(rows) if name == "heartbeats"
                     else _row_chunks(rows, attrgetter(
                         *(c for c, _, _ in columns)) if cls else tuple))
    logger.info("exported %s archive to %s",
                "full" if include_pii_datasets else "public", root)
    return root


def _read_columns(path: Path, columns):
    """Yield *path* in ~1 MB chunks, one cell list per wanted column;
    like ``csv.DictReader``, ignore extra columns and blank lines and
    read a short row's missing cells as ``None``."""
    with path.open(newline="", encoding="utf-8") as handle:
        header = next(csv.reader([handle.readline()]), [])
        where = {name: i for i, name in enumerate(header)}
        picks = [where.get(name) for name, _, _ in columns]
        for (name, _, _), i in zip(columns, picks):
            # An empty file, header lost too, reads as no rows.
            if header and i is None and name != "channel":
                raise KeyError(f"{path.name} has no column {name!r}")
        step, quoted = len(header) + 1, False
        # Whole lines, ~_CHUNK characters at a time.
        while not quoted and (text := handle.read(_CHUNK)
                              + handle.readline()):
            if not (quoted := '"' in text):
                text = text.replace("\r\n", "\n").replace("\r", "\n")
                text += "" if text.endswith("\n") else "\n"
                # One split for the whole chunk, a "\n" cell closing each
                # row: it is rectangular iff every step-th cell is "\n".
                cells = text.replace("\n", ",\n,").split(",")
                cells.pop()
                rows = text.count("\n")
                if len(cells) == rows * step and \
                        cells[step - 1::step].count("\n") == rows:
                    yield [[None] * rows if i is None else cells[i::step]
                           for i in picks]
                    continue
            # csv tokenizes a ragged chunk, or the rest of the file once
            # quoted cells (commas, quotes, newlines) may span chunks.
            reader = csv.reader(chain(io.StringIO(text, newline=""),
                                      handle if quoted else ()))
            while batch := list(islice(reader, _ROWS)):
                if batch := [row for row in batch if row]:
                    yield [[row[i] if i is not None and i < len(row)
                            else None for row in batch] for i in picks]


def _load(root: Path, name: str):
    """Every record of one data set (tuples when it has no class)."""
    filename, cls, columns = _TABLES[name]
    order = range(len(columns)) if cls is None else [[c for c, _, _ in (
        columns)].index(field.name) for field in dataclasses.fields(cls)]
    records = []
    for cells in _read_columns(root / filename, columns):
        values = [columns[i][2](cells[i]) for i in order]
        records.extend(map(cls, *values) if cls else zip(*values))
    return records


def _load_heartbeats(root: Path, routers) -> Dict[str, HeartbeatLog]:
    # Seeded from routers.csv: a router whose heartbeats were all lost
    # comes back with an *empty* log, as availability counts it.
    parts = {rid: [] for rid in routers}
    for ids, stamps in _read_columns(root / "heartbeats.csv",
                                     _TABLES["heartbeats"][2]):
        times = np.fromiter(map(float, stamps), float, len(stamps))
        keys = np.array(ids, dtype=object)
        cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(ids)]):
            parts.setdefault(ids[lo], []).append(times[lo:hi])
    return {rid: HeartbeatLog(rid, np.concatenate(t) if t else np.empty(0))
            for rid, t in parts.items()}


def load_study(directory: Union[str, Path]) -> StudyData:
    """Load a study archive written by :func:`export_study`."""
    root = Path(directory)
    manifest = json.loads((root / "manifest.json").read_text("utf-8"))
    routers = {info.router_id: info for info in _load(root, "routers")}
    data = StudyData(
        routers=routers,
        windows=StudyWindows(**{name: tuple(values) for name, values
                                in manifest["windows"].items()}),
        heartbeats=_load_heartbeats(root, routers),
        **{name: _load(root, name) for name in (
            "uptime_reports", "capacity", "device_counts", "roster",
            "wifi_scans")})
    if (root / "heartbeat_delivery.csv").exists():
        data.heartbeat_delivery = {rid: (sent, got) for rid, sent, got
                                   in _load(root, "heartbeat_delivery")}
    if manifest.get("includes_traffic") and (root / "flows.csv").exists():
        data.flows = _load(root, "flows")
        data.throughput = {series.router_id: series
                           for series in _load(root, "throughput")}
        data.dns = _load(root, "dns")
    return data
