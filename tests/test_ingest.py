"""Tests for the prepare/apply split of trip ingest.

The contract under test: the pure ``prepare_trip`` half followed by the
single-writer ``apply_prepared`` half equals ``receive_trip``, and
``receive_trips`` equals per-upload ingest, duplicates included.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import BackendServer, PreparedTrip
from repro.phone import record_participant_trips
from repro.sim.bus import simulate_bus_trip
from repro.util.units import parse_hhmm


@pytest.fixture(scope="module")
def batch(small_city, traffic, sampler, config):
    """Uploads from two bus routes: a real multi-trip ingest batch."""
    rider_ids = itertools.count()
    uploads = []
    for k, route_id in enumerate(("179-0", "199-0")):
        route = small_city.route_network.route(route_id)
        trace = simulate_bus_trip(
            route, parse_hhmm("08:10") + 120.0 * k, traffic, rider_ids,
            rng=np.random.default_rng(21 + k),
        )
        uploads.extend(record_participant_trips(
            trace, small_city.registry, sampler, config,
            rng=np.random.default_rng(31 + k),
        ))
    assert len(uploads) >= 4
    return uploads


def make_server(small_city, database, config, registry=None):
    return BackendServer(
        small_city.network, small_city.route_network, database, config,
        registry=registry,
    )


def report_key(report):
    """Everything a TripReport asserts about a trip, hashable-ish."""
    return (
        report.trip_key,
        report.accepted_samples,
        report.discarded_samples,
        [len(c) for c in report.clusters],
        report.mapped.station_sequence() if report.mapped else None,
        report.estimates,
    )


def map_state(server, at_s=parse_hhmm("12:00")):
    snapshot = server.traffic_map.published_snapshot(at_s)
    return {
        seg: dataclasses.astuple(reading)
        for seg, reading in snapshot.readings.items()
    }


class TestPrepareApplySplit:
    def test_prepare_then_apply_equals_receive(
        self, small_city, database, config, batch
    ):
        serial = make_server(small_city, database, config)
        split = make_server(small_city, database, config)
        for upload in batch:
            expected = serial.receive_trip(upload)
            got = split.apply_prepared(split.prepare_upload(upload))
            assert report_key(got) == report_key(expected)
        assert split.stats.as_dict() == serial.stats.as_dict()
        assert map_state(split) == map_state(serial)

    def test_skipped_stub_shape(self, batch):
        upload = batch[0]
        stub = PreparedTrip.skipped(upload)
        assert stub.trip_key == upload.trip_key
        assert stub.samples_total == len(upload.samples)
        assert stub.accepted == 0 and stub.discarded == 0
        assert stub.clusters == [] and stub.mapped is None

    def test_apply_detects_duplicate(self, small_city, database, config, batch):
        server = make_server(small_city, database, config)
        upload = batch[0]
        server.receive_trip(upload)
        report = server.apply_prepared(server.prepare_upload(upload))
        assert report.mapped is None
        assert server.stats.trips_duplicate == 1
        assert server.stats.samples_duplicate == len(upload.samples)


class TestIngestMany:
    def test_batch_equals_per_upload_with_duplicates(
        self, small_city, database, config, batch
    ):
        doped = list(batch) + [batch[0], batch[-1]]
        one_by_one = make_server(small_city, database, config)
        batched = make_server(small_city, database, config)
        ordered = sorted(doped, key=lambda u: u.start_s)
        expected = [one_by_one.receive_trip(u) for u in ordered]
        got = batched.receive_trips(doped)
        assert [report_key(r) for r in got] == [
            report_key(r) for r in expected
        ]
        assert batched.stats.trips_duplicate == 2
        assert batched.stats.as_dict() == one_by_one.stats.as_dict()
        assert map_state(batched) == map_state(one_by_one)
