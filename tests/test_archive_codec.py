"""The columnar archive codec against the ``csv`` module it replaced.

The writer must give ``csv.writer``'s bytes for any cell; the chunked
reader must load whatever the ``csv.DictReader`` loader loaded — line
endings, blank lines, quoted cells, reordered or extra columns, legacy
files — and fail on a non-numeric cell the same way.  The reference
loader below is that earlier ``DictReader`` implementation, kept here
as the oracle.
"""

import csv
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import study_digest
from repro.collection import export
from repro.collection.export import export_study, load_study
from repro.core.datasets import HeartbeatLog, StudyData, ThroughputSeries
from repro.core.records import (
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    Medium,
    RouterInfo,
    Spectrum,
    UptimeReport,
    WifiScanSample,
)
from repro.simulation.timebase import StudyWindows


def reference_load(directory) -> StudyData:
    """``load_study`` as it was: ``csv.DictReader`` row dicts."""
    root = Path(directory)

    def rows(name):
        with (root / name).open(newline="", encoding="utf-8") as handle:
            yield from csv.DictReader(handle)

    def num(text):
        try:
            return int(text)
        except ValueError:
            return float(text)

    manifest = json.loads((root / "manifest.json").read_text())
    routers = {
        r["router_id"]: RouterInfo(
            r["router_id"], r["country_code"], bool(int(r["developed"])),
            float(r["tz_offset_hours"]), float(r["gdp_ppp_per_capita"]))
        for r in rows("routers.csv")}
    heartbeats = {rid: [] for rid in routers}
    for r in rows("heartbeats.csv"):
        heartbeats.setdefault(r["router_id"], []).append(
            float(r["timestamp"]))
    delivery = {}
    if (root / "heartbeat_delivery.csv").exists():
        delivery = {r["router_id"]: (int(r["sent"]), int(r["delivered"]))
                    for r in rows("heartbeat_delivery.csv")}
    data = StudyData(
        routers=routers,
        windows=StudyWindows(**{k: tuple(v) for k, v
                                in manifest["windows"].items()}),
        heartbeats={rid: HeartbeatLog(rid, np.asarray(t, dtype=float))
                    for rid, t in heartbeats.items()},
        uptime_reports=[
            UptimeReport(r["router_id"], float(r["timestamp"]),
                         float(r["uptime_seconds"]))
            for r in rows("uptime.csv")],
        capacity=[
            CapacityMeasurement(r["router_id"], float(r["timestamp"]),
                                float(r["downstream_mbps"]),
                                float(r["upstream_mbps"]))
            for r in rows("capacity.csv")],
        device_counts=[
            DeviceCountSample(r["router_id"], float(r["timestamp"]),
                              int(r["wired"]), int(r["wireless_2_4"]),
                              int(r["wireless_5"]))
            for r in rows("devices.csv")],
        roster=[
            DeviceRosterEntry(r["router_id"], r["device_mac"],
                              Medium(r["medium"]),
                              Spectrum(r["spectrum"]) if r["spectrum"]
                              else None,
                              float(r["first_seen"]), float(r["last_seen"]),
                              bool(int(r["always_connected"])))
            for r in rows("roster.csv")],
        wifi_scans=[
            WifiScanSample(r["router_id"], float(r["timestamp"]),
                           Spectrum(r["spectrum"]), int(r["neighbor_aps"]),
                           int(r["associated_clients"]),
                           int(r.get("channel", 0) or 0))
            for r in rows("wifi.csv")],
        heartbeat_delivery=delivery)
    if manifest.get("includes_traffic") and (root / "flows.csv").exists():
        data.flows = [
            FlowRecord(r["router_id"], float(r["timestamp"]),
                       r["device_mac"], r["domain"], int(r["remote_ip"]),
                       int(r["port"]), r["application"],
                       float(r["bytes_up"]), float(r["bytes_down"]),
                       float(r["duration_seconds"]))
            for r in rows("flows.csv")]
        data.throughput = {}
        for r in rows("throughput.csv"):
            data.throughput[r["router_id"]] = ThroughputSeries(
                r["router_id"], num(r["start"]),
                np.asarray([float(v) for v in r["up_bps"].split()]),
                np.asarray([float(v) for v in r["down_bps"].split()]),
                num(r["interval_seconds"]))
        data.dns = [
            DnsRecord(r["router_id"], float(r["timestamp"]),
                      r["device_mac"], r["domain"], r["record_type"],
                      int(r["address"]) if r["address"] else None)
            for r in rows("dns.csv")]
    return data


T0 = 1_364_774_400.0


def tiny_study() -> StudyData:
    """Every data set with a few rows, one router with no heartbeats."""
    routers = {rid: RouterInfo(rid, cc, dev, tz, gdp) for rid, cc, dev, tz, gdp
               in (("US001", "US", True, -5.0, 5.3e4),
                   ("IN001", "IN", False, 5.5, 5.2e3),
                   ("BR001", "BR", False, -3, 1.7e4))}
    return StudyData(
        routers=routers,
        windows=StudyWindows().scaled(0.01),
        heartbeats={"US001": HeartbeatLog("US001", T0 + np.arange(5) * 60.1),
                    "IN001": HeartbeatLog("IN001", [T0 + 0.1 + 0.2, T0 + 9]),
                    "BR001": HeartbeatLog("BR001", [])},
        heartbeat_delivery={"US001": (6, 5), "IN001": (2, 2),
                            "BR001": (3, 0)},
        uptime_reports=[UptimeReport("US001", T0 + 1, 5),
                        UptimeReport("IN001", T0 + 2.5, 1.0 / 3.0)],
        capacity=[CapacityMeasurement("US001", T0, 20.5, 2),
                  CapacityMeasurement("IN001", T0 + 7, 0.1, 0.2)],
        device_counts=[DeviceCountSample("US001", T0, 2, 3, 1),
                       DeviceCountSample("IN001", T0 + 3600, 0, 1, 0)],
        roster=[DeviceRosterEntry("US001", "3c:07:54:aa:bb:cc",
                                  Medium.WIRELESS, Spectrum.GHZ_2_4, T0,
                                  T0 + 86400, False),
                DeviceRosterEntry("US001", "b0:a7:37:aa:bb:cc", Medium.WIRED,
                                  None, T0, T0 + 1e5, True)],
        wifi_scans=[WifiScanSample("US001", T0, Spectrum.GHZ_5, 1, 2, 36),
                    WifiScanSample("IN001", T0 + 600, Spectrum.GHZ_2_4, 7,
                                   0, 11)],
        flows=[FlowRecord("US001", T0 + 5, "3c:07:54:aa:bb:cc", "google.com",
                          0xF0000001, 443, "https", 100.0, 5000, 12.5),
               FlowRecord("IN001", T0 + 6, "3c:07:54:aa:bb:dd",
                          "(obfuscated)", 7, 80, "http", 1.5, 2.0, 0.0)],
        throughput={"US001": ThroughputSeries("US001", int(T0),
                                              [100.0, 0.1], [1e6, 2e6], 60),
                    "IN001": ThroughputSeries("IN001", T0 + 0.5, [], [],
                                              60.5)},
        dns=[DnsRecord("US001", T0 + 4, "3c:07:54:aa:bb:cc", "google.com",
                       "A", 0xF0000001),
             DnsRecord("US001", T0 + 6, "3c:07:54:aa:bb:cc", "google.com",
                       "CNAME", None)])


def assert_same_study(a: StudyData, b: StudyData) -> None:
    assert study_digest(a) == study_digest(b)
    assert a.routers == b.routers
    assert list(a.heartbeats) == list(b.heartbeats)
    assert a.heartbeat_delivery == b.heartbeat_delivery
    for name in ("uptime_reports", "capacity", "device_counts", "roster",
                 "wifi_scans", "flows", "dns"):
        assert getattr(a, name) == getattr(b, name), name
    assert list(a.throughput) == list(b.throughput)
    for rid, series in a.throughput.items():
        other = b.throughput[rid]
        assert type(series.start) is type(other.start)
        assert type(series.interval_seconds) is type(other.interval_seconds)


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    """The tiny study's archive: manifest text and each CSV as rows."""
    root = export_study(tiny_study(), tmp_path_factory.mktemp("base"))
    files = {}
    for path in sorted(root.glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as handle:
            files[path.name] = list(csv.reader(handle))
    return (root / "manifest.json").read_text(), files


def write_archive(root: Path, manifest: str, files, newlines) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(manifest)
    for name, rows in files.items():
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        text = []
        for row, end in zip(rows, newlines[name]):
            if row is None:  # a blank line
                text.append(end)
                continue
            buffer.seek(0)
            buffer.truncate()
            writer.writerow(row)
            text.append(buffer.getvalue()[:-2] + end)  # drop its "\r\n"
        (root / name).write_bytes("".join(text).encode("utf-8"))


#: Cell text, weighted towards what csv must quote.
cell_text = st.text(st.sampled_from(',"\r\n') | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1, max_size=6)
SMALL_CHUNKS = st.sampled_from([1, 7, 64, 1 << 20])


@st.composite
def edited_archive(draw, base):
    """The base archive with per-file layout edits, legacy wifi columns
    and free text (commas, quotes, newlines) in a string column."""
    manifest, files = base
    edited, newlines = {}, {}
    for name, rows in files.items():
        header, body = rows[0], [list(row) for row in rows[1:]]
        if name == "wifi.csv" and draw(st.booleans()):
            # Legacy archive: scans predate the channel column.
            at = header.index("channel")
            header = header[:at] + header[at + 1:]
            body = [row[:at] + row[at + 1:] for row in body]
        if name in ("flows.csv", "dns.csv", "roster.csv") and body:
            # Quoted text: commas, quotes, newlines in a string column.
            at = header.index("device_mac")
            for row in body:
                row[at] = draw(cell_text)
        extra = draw(st.integers(0, 2))
        header = header + [f"extra{i}" for i in range(extra)]
        body = [row + [draw(cell_text) for _ in range(extra)]
                for row in body]
        order = draw(st.permutations(range(len(header))))
        lines = [[header[i] for i in order]]
        for row in body:
            if draw(st.booleans()) and draw(st.booleans()):
                lines.append(None)
            lines.append([row[i] for i in order])
        edited[name] = lines
        ends = st.sampled_from(["\n", "\r\n"])
        newlines[name] = draw(st.lists(ends, min_size=len(lines) - 1,
                                       max_size=len(lines) - 1))
        # The last line may also stop without a line break.
        newlines[name].append(draw(ends | st.just("")))
    return manifest, edited, newlines


class TestReaderAgreesWithDictReader:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data(), chunk=SMALL_CHUNKS)
    def test_layout_edits(self, base_rows, tmp_path_factory, data, chunk):
        manifest, files, newlines = data.draw(edited_archive(base_rows))
        root = tmp_path_factory.mktemp("edited")
        write_archive(root, manifest, files, newlines)
        expected = reference_load(root)
        with mock.patch.object(export, "_CHUNK", chunk), \
                mock.patch.object(export, "_ROWS", 3):
            assert_same_study(load_study(root), expected)

    def test_unedited_archive(self, tmp_path):
        study = tiny_study()
        root = export_study(study, tmp_path / "a")
        assert_same_study(load_study(root), reference_load(root))
        assert_same_study(load_study(root), study)

    def test_legacy_wifi_reads_channel_zero(self, tmp_path):
        root = export_study(tiny_study(), tmp_path / "a")
        path = root / "wifi.csv"
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(row[:-1] for row in rows)
        assert [s.channel for s in load_study(root).wifi_scans] == [0, 0]

    def test_empty_file_reads_no_rows(self, tmp_path):
        # All heartbeats lost, header included: data loss, not corruption.
        root = export_study(tiny_study(), tmp_path / "a")
        (root / "heartbeats.csv").write_bytes(b"")
        loaded = load_study(root)
        assert_same_study(loaded, reference_load(root))
        assert all(len(log) == 0 for log in loaded.heartbeats.values())

    def test_series_past_csv_field_limit(self, tmp_path):
        # csv.reader refuses cells over 128 KiB; a 14-day per-minute
        # throughput series is about that long.
        study = tiny_study()
        up = np.random.default_rng(7).random(20_000) * 1e6
        study.throughput["US001"] = ThroughputSeries(
            "US001", 0, up, np.zeros_like(up), 60)
        assert len(" ".join(map(repr, up.tolist()))) > csv.field_size_limit()
        back = load_study(export_study(study, tmp_path / "a"))
        assert np.array_equal(back.throughput["US001"].up_bps, up)

    NUMERIC = [("capacity.csv", "downstream_mbps"),
               ("heartbeats.csv", "timestamp"), ("devices.csv", "wired"),
               ("roster.csv", "always_connected"), ("routers.csv",
                                                   "developed"),
               ("throughput.csv", "start"), ("throughput.csv", "up_bps"),
               ("flows.csv", "port"), ("heartbeat_delivery.csv", "sent"),
               ("wifi.csv", "neighbor_aps")]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(NUMERIC),
           bad=st.sampled_from(["x", "1.2.3", "0x1f", "--1", "1e", "nan?"]),
           chunk=SMALL_CHUNKS)
    def test_non_numeric_cell_raises_value_error(self, base_rows,
                                                 tmp_path_factory, target,
                                                 bad, chunk):
        manifest, files = base_rows
        name, column = target
        rows = [list(row) for row in files[name]]
        rows[1][rows[0].index(column)] = bad
        root = tmp_path_factory.mktemp("bad")
        write_archive(root, manifest, {**files, name: rows},
                      {n: ["\r\n"] * len(r)
                       for n, r in {**files, name: rows}.items()})
        with pytest.raises(ValueError):
            reference_load(root)
        with mock.patch.object(export, "_CHUNK", chunk), \
                pytest.raises(ValueError):
            load_study(root)


numbers = st.one_of(st.integers(-10**20, 10**20), st.booleans(),
                    st.floats(), st.floats().map(np.float64),
                    st.integers(-99, 99).map(np.int64), st.none())


class TestWriterMatchesCsvWriter:
    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(cell_text | st.just(""), numbers, numbers),
                         max_size=20),
           chunk=st.sampled_from([1, 2, 1 << 14]))
    def test_cells_match(self, tmp_path_factory, rows, chunk):
        columns = [(name, *export._KINDS[kind])
                   for name, kind in (("a", "str"), ("b", "int"),
                                      ("c", "float"))]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([("a", "b", "c"), *rows])
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        with mock.patch.object(export, "_ROWS", chunk):
            export._write_table(path, columns,
                                export._row_chunks(rows, tuple))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @given(stamps=st.lists(st.floats(allow_nan=False), max_size=30),
           ints=st.lists(st.integers(-10**6, 10**6), max_size=5))
    def test_numbers_match_num(self, stamps, ints):
        mixed = [*stamps, *ints, *map(np.float64, stamps),
                 *map(np.int64, ints)]
        assert list(export._nums(mixed)) == list(map(export._num, mixed))
        assert list(export._nums(np.asarray(stamps, dtype=float))) == \
            [export._num(v) for v in stamps]

    def test_write_chunking_is_invisible(self, tmp_path):
        study = tiny_study()
        one = export_study(study, tmp_path / "default")
        with mock.patch.object(export, "_ROWS", 1):
            two = export_study(study, tmp_path / "rows1")
        for path in one.iterdir():
            assert path.read_bytes() == (two / path.name).read_bytes()
