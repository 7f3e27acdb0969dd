"""Archive round-trip exactness: export → load must be digest-identical.

The paper's public release was the archive; if round-tripping it loses
routers (zero-heartbeat homes) or precision (fixed-point truncation),
every analysis over the archive silently diverges from the campaign.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import study_digest
from repro.collection.engine import run_campaign
from repro.collection.export import export_study, load_study
from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.core.records import RouterInfo
from repro.simulation.deployment import DeploymentConfig, build_deployment_plan
from repro.simulation.timebase import StudyWindows

SMALL = DeploymentConfig(
    seed=11, windows=StudyWindows().scaled(0.02), router_scale=0.05,
    traffic_consents=2, low_activity_consents=0,
    countries=("US", "IN", "BR"))


def small_campaign():
    """A seeded campaign with one router's heartbeats all forced lost."""
    plan = build_deployment_plan(SMALL)
    data = run_campaign(plan)
    # Force a zero-delivered-heartbeat router — the regression this file
    # pins is load_study dropping such routers from the archive.
    victim = plan.router_ids[0]
    sent = data.heartbeat_delivery.get(victim, (len(data.heartbeats[victim]),
                                                0))[0]
    data.heartbeats[victim] = HeartbeatLog(victim,
                                           np.array([], dtype=float))
    data.heartbeat_delivery[victim] = (sent, 0)
    return data, victim


@pytest.fixture(scope="module")
def campaign():
    return small_campaign()


class TestDigestRoundTrip:
    def test_full_archive_digest_identical(self, campaign, tmp_path):
        data, victim = campaign
        load = load_study(export_study(data, tmp_path / "full"))
        assert victim in load.heartbeats
        assert len(load.heartbeats[victim]) == 0
        assert study_digest(load) == study_digest(data)

    def test_public_archive_digest_identical(self, campaign, tmp_path):
        data, _ = campaign
        load = load_study(export_study(data, tmp_path / "public",
                                       include_pii_datasets=False))
        withheld = dataclasses.replace(data, flows=[], throughput={},
                                       dns=[])
        assert study_digest(load) == study_digest(withheld)

    def test_double_round_trip_stable(self, campaign, tmp_path):
        data, _ = campaign
        once = load_study(export_study(data, tmp_path / "one"))
        twice = load_study(export_study(once, tmp_path / "two"))
        assert study_digest(twice) == study_digest(once)


class TestNumericExactness:
    def test_awkward_floats_survive(self, campaign, tmp_path):
        data, _ = campaign
        rid = next(rid for rid, log in data.heartbeats.items() if len(log))
        # Values whose shortest repr needs all 17 significant digits —
        # the cases a fixed .3f/.1f truncation destroyed.
        awkward = np.array([0.1 + 0.2, 1.0 / 3.0, 1e9 + 1e-6])
        data = dataclasses.replace(
            data, heartbeats={**data.heartbeats,
                              rid: HeartbeatLog(rid, awkward)})
        load = load_study(export_study(data, tmp_path / "awkward"))
        assert np.array_equal(load.heartbeats[rid].timestamps, awkward)
        assert study_digest(load) == study_digest(data)

    @pytest.mark.parametrize("interval", [60, 60.5])
    def test_interval_kind_preserved(self, campaign, tmp_path, interval):
        data, _ = campaign
        assert data.throughput  # fixture includes traffic homes
        rid, series = next(iter(data.throughput.items()))
        data = dataclasses.replace(
            data, throughput={
                **data.throughput,
                rid: dataclasses.replace(series,
                                         interval_seconds=interval)})
        load = load_study(export_study(data, tmp_path / f"i{interval}"))
        back = load.throughput[rid]
        assert back.interval_seconds == interval
        assert type(back.interval_seconds) is type(interval)
        assert type(back.start) is type(series.start)

    def test_throughput_values_exact(self, campaign, tmp_path):
        data, _ = campaign
        load = load_study(export_study(data, tmp_path / "tp"))
        for rid, series in data.throughput.items():
            back = load.throughput[rid]
            assert np.array_equal(back.up_bps, series.up_bps)
            assert np.array_equal(back.down_bps, series.down_bps)
            assert back.start == series.start


class TestSyntheticSeries:
    def test_manual_series_round_trip(self, tmp_path, campaign):
        # A hand-built series with an integer start and interval: the
        # kinds must survive export → load untouched.
        data, _ = campaign
        rid = next(iter(data.throughput))
        series = ThroughputSeries(
            router_id=rid, start=86400,
            up_bps=np.array([0.1, 2.0 / 7.0]),
            down_bps=np.array([1e7, 3.3]),
            interval_seconds=60)
        data = dataclasses.replace(data,
                                   throughput={**data.throughput,
                                               rid: series})
        back = load_study(export_study(data, tmp_path / "manual"))
        loaded = back.throughput[rid]
        assert loaded.start == 86400 and type(loaded.start) is int
        assert loaded.interval_seconds == 60
        assert type(loaded.interval_seconds) is int
        assert np.array_equal(loaded.up_bps, series.up_bps)
        assert np.array_equal(loaded.down_bps, series.down_bps)


#: Awkward cells: a router id and a domain that csv.writer quotes (a
#: comma, a quote) with a non-ASCII letter, ints in float fields, and
#: floats whose shortest repr needs 17 significant digits.
EDGE_ID = 'BR,"9"ü'
EDGE_DOMAIN = 'dé,"x".example'


def edge_study(data):
    """*data* with one record of each awkward kind swapped in."""
    awkward = np.array([0.1 + 0.2, 1.0 / 3.0, 1e9 + 1e-6])
    up, cap = data.uptime_reports[0], data.capacity[0]
    flow, dns = data.flows[0], data.dns[0]
    return dataclasses.replace(
        data,
        routers={**data.routers,
                 EDGE_ID: RouterInfo(EDGE_ID, "BR", False, -3.0, 1.7e4)},
        heartbeats={**data.heartbeats, EDGE_ID: HeartbeatLog(EDGE_ID,
                                                             awkward)},
        heartbeat_delivery={**data.heartbeat_delivery, EDGE_ID: (5, 3)},
        uptime_reports=[dataclasses.replace(up, timestamp=0.1 + 0.2,
                                            uptime_seconds=5)]
        + data.uptime_reports[1:],
        capacity=[dataclasses.replace(cap, downstream_mbps=3,
                                      upstream_mbps=1.0 / 3.0)]
        + data.capacity[1:],
        flows=[dataclasses.replace(flow, router_id=EDGE_ID,
                                   domain=EDGE_DOMAIN, bytes_up=7)]
        + data.flows[1:],
        dns=[dataclasses.replace(dns, router_id=EDGE_ID,
                                 domain=EDGE_DOMAIN)] + data.dns[1:])


def archive_digests(root):
    """sha256 of every file in an archive directory, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir())}


#: Archive bytes as the csv.writer-based exporter wrote them before the
#: columnar codec replaced it: the codec must not move a single byte.
FULL = {
    "capacity.csv":
        "5c0e2cc7dace5a30015858cfed825c3a783036913d2c1d9bc8d251f43c5f3e09",
    "devices.csv":
        "3bb524cb1c56fbb870d5bb8354cb5984195167c237336dfdee79a3765991b6d1",
    "dns.csv":
        "2ffa3a4fd7d1dc6f27fc3749cc511e29c0e295625e5577e470c05bdc92d3e079",
    "flows.csv":
        "f8079a017a302eb53f96e9348db362f0e739c085e763301c548922900afd6a65",
    "heartbeat_delivery.csv":
        "e41dcb20a49cd12a6ba90a7d1857bbe252e0c7d666c22b8c54aac4615e881b5e",
    "heartbeats.csv":
        "50a0e29316564a4c80628ea1e16f92dd68c59f5890495208c2747508676c68c9",
    "manifest.json":
        "998f96899309f9e9e3072592d88af5e7b7db4cca60b30bdb781deaf7a92ac638",
    "roster.csv":
        "f2f1c93664114c67bc7924548349307920babca105688f40e542606fce18a019",
    "routers.csv":
        "3a63ad8394a54002617d10664e662cfb71b0f91c5fcc169fe6a0ab4f3a533bb5",
    "throughput.csv":
        "5fe3fd5b1dd5d56a1c2e93a8cea2acdcd213703dea1fb55cc19711cb9bb22603",
    "uptime.csv":
        "ef168542642a632c0bb807a2861a365ec9f0921c6fe15b3f973f7a206ebed357",
    "wifi.csv":
        "a42ca4045cecc990296b958ca76ce5d5f9ee88008c5aaad45cbef080db61d7c1",
}
#: The public release: no Traffic files, and the manifest says so.
PUBLIC = {name: digest for name, digest in FULL.items()
          if name not in ("flows.csv", "throughput.csv", "dns.csv")}
PUBLIC["manifest.json"] = (
    "92a94c7fa567e73ace66aa05dbc3d5688ececa7387852b94262425ace17d24f1")
#: :func:`edge_study` changes exactly these files.
EDGE = {**FULL,
        "capacity.csv":
            "d3cf9933f2e813411a332cff9bf3f1dbc4efce9d478f426f251d423ea526986c",
        "dns.csv":
            "8b41fc207106ecf9f8f8e9caeb47333a1f71df1870b6f769f7cad05a4980db38",
        "flows.csv":
            "2058eb15d5abf9ee2f57b36724b82bf0e395d2954267b50b19fa97aeb1adbb55",
        "heartbeat_delivery.csv":
            "2b52cc7a4a058de6809b1b0a9fda15ae61b6ccb3f7057e0adf137f2520826486",
        "heartbeats.csv":
            "65549586baa3c8a0f40dd7a16ee9909a5cc663905c43c23828be900e0e944d28",
        "routers.csv":
            "c66fbd640c1e0560994fbf6750c75c4616b15e91b36a92d72af0fc8290b75a7c",
        "uptime.csv":
            "648dceedbbdb6369db10fde67915148b4d97413bb892b264a70ddfa3c56df2c8"}
PINNED = {"full": FULL, "public": PUBLIC, "edge": EDGE}


class TestByteIdentity:
    @pytest.mark.parametrize("case", ["full", "public", "edge"])
    def test_archive_bytes_pinned(self, campaign, tmp_path, case):
        data, _ = campaign
        if case == "edge":
            data = edge_study(data)
        root = export_study(data, tmp_path / case,
                            include_pii_datasets=case != "public")
        assert archive_digests(root) == PINNED[case]

    def test_edge_cells_round_trip(self, campaign, tmp_path):
        data = edge_study(campaign[0])
        load = load_study(export_study(data, tmp_path / "edge"))
        assert study_digest(load) == study_digest(data)
        assert load.routers[EDGE_ID] == data.routers[EDGE_ID]
        assert load.flows[0].domain == EDGE_DOMAIN
        assert load.dns[0].router_id == EDGE_ID
        assert load.heartbeat_delivery[EDGE_ID] == (5, 3)
        # The int written into a float field reads back as that float.
        assert load.uptime_reports[0].uptime_seconds == 5.0


class TestStaleFiles:
    """Re-exporting into a used directory must not ship leftovers."""

    def test_public_over_full_drops_traffic(self, campaign, tmp_path):
        data, _ = campaign
        root = export_study(data, tmp_path / "out")
        (root / "notes.txt").write_text("keep me")
        export_study(data, root, include_pii_datasets=False)
        for name in ("flows.csv", "throughput.csv", "dns.csv"):
            assert not (root / name).exists()
        # Exactly a fresh public archive, plus the file export never owned.
        assert archive_digests(root) == {
            **PUBLIC, "notes.txt": hashlib.sha256(b"keep me").hexdigest()}

    def test_empty_delivery_drops_old_tally(self, campaign, tmp_path):
        data, _ = campaign
        assert data.heartbeat_delivery
        root = export_study(data, tmp_path / "out")
        export_study(dataclasses.replace(data, heartbeat_delivery={}), root)
        assert not (root / "heartbeat_delivery.csv").exists()
        assert load_study(root).heartbeat_delivery == {}
