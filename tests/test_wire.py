"""Tests for wire formats and persistence."""

import io
import json

import pytest

from repro.core.fingerprint import FingerprintDatabase
from repro.core.traffic_map import TrafficMapEstimator
from repro.phone.cellular import CellularSample
from repro.phone.trip_recorder import TripUpload
from repro.wire import (
    CAMPAIGN_HORIZON_S,
    database_from_dict,
    database_to_dict,
    dump_trips,
    load_database,
    load_trips,
    save_database,
    snapshot_to_geojson,
    trip_from_dict,
    trip_to_dict,
)


def make_upload(key="t1"):
    return TripUpload(
        trip_key=key,
        samples=(
            CellularSample(time_s=100.0, tower_ids=(5, 3, 9), rss_dbm=(-60.0, -70.0, -80.0)),
            CellularSample(time_s=130.0, tower_ids=(5, 9)),
        ),
    )


class TestTripCodec:
    def test_round_trip(self):
        upload = make_upload()
        decoded = trip_from_dict(trip_to_dict(upload))
        assert decoded.trip_key == upload.trip_key
        assert [s.time_s for s in decoded.samples] == [100.0, 130.0]
        assert decoded.samples[0].tower_ids == (5, 3, 9)

    def test_rss_never_leaves_the_phone(self):
        payload = trip_to_dict(make_upload())
        assert "rss" not in json.dumps(payload)

    def test_rejects_wrong_version(self):
        payload = trip_to_dict(make_upload())
        payload["v"] = 99
        with pytest.raises(ValueError):
            trip_from_dict(payload)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            trip_from_dict({"v": 1, "trip": "x"})

    def test_rejects_malformed_sample(self):
        payload = trip_to_dict(make_upload())
        payload["samples"][0] = {"t": "not a float", "cells": "nope"}
        with pytest.raises(ValueError):
            trip_from_dict(payload)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            trip_from_dict([1, 2, 3])

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_time(self, time_s):
        payload = trip_to_dict(make_upload())
        payload["samples"][1]["t"] = time_s
        with pytest.raises(ValueError, match="non-finite"):
            trip_from_dict(payload)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_time_from_json(self, text):
        line = json.dumps(trip_to_dict(make_upload())).replace("130.0", text)
        with pytest.raises(ValueError):
            load_trips(io.StringIO(line))

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_cell_id(self, flag):
        payload = json.loads(json.dumps(trip_to_dict(make_upload())).replace(
            "[5, 9]", f"[5, {json.dumps(flag)}]"
        ))
        assert payload["samples"][1]["cells"] == [5, flag]
        with pytest.raises(ValueError):
            trip_from_dict(payload)

    @pytest.mark.parametrize(
        "bad", [3.7, 3.0, "12", None, [5], 2 ** 63, -(2 ** 63) - 1, 2 ** 70]
    )
    def test_rejects_cell_id_that_is_not_an_int64(self, bad):
        """``int()`` would take 3.7 as 3 and "12" as 12; the matcher
        holds ids as int64, so 2**70 is no id either."""
        payload = trip_to_dict(make_upload())
        payload["samples"][1]["cells"] = [5, bad]
        with pytest.raises(ValueError):
            trip_from_dict(payload)

    def test_accepts_cell_ids_at_the_int64_edges(self):
        payload = trip_to_dict(make_upload())
        payload["samples"][1]["cells"] = [-(2 ** 63), 2 ** 63 - 1]
        upload = trip_from_dict(payload)
        assert upload.samples[1].tower_ids == (-(2 ** 63), 2 ** 63 - 1)

    @pytest.mark.parametrize(
        "bad",
        [-1e18, True, False, "12", None, [1.0], CAMPAIGN_HORIZON_S * 2,
         10 ** 400, -(10 ** 400)],
    )
    def test_rejects_bad_sample_time(self, bad):
        """Only a JSON number inside the campaign horizon is a time:
        ``true`` is not 1 s, ``"12"`` is not 12 s, -1e18 is not a time."""
        payload = trip_to_dict(make_upload())
        payload["samples"][0]["t"] = bad
        with pytest.raises(ValueError):
            trip_from_dict(payload)

    def test_rejects_each_bad_time_of_a_hostile_upload(self):
        for bad in (-1e18, True, "12"):
            payload = {"v": 1, "trip": "x", "samples": [
                {"t": 5.0, "cells": [5]}, {"t": bad, "cells": [5, 9]},
            ]}
            with pytest.raises(ValueError):
                trip_from_dict(payload)

    def test_accepts_int_times_and_the_horizon_edges(self):
        payload = trip_to_dict(make_upload())
        payload["samples"][0]["t"] = 0
        payload["samples"][1]["t"] = CAMPAIGN_HORIZON_S
        upload = trip_from_dict(payload)
        assert [s.time_s for s in upload.samples] == [0.0, CAMPAIGN_HORIZON_S]

    def test_jsonl_round_trip(self):
        uploads = [make_upload("a"), make_upload("b")]
        buffer = io.StringIO()
        dump_trips(uploads, buffer)
        buffer.seek(0)
        loaded = load_trips(buffer)
        assert [u.trip_key for u in loaded] == ["a", "b"]

    def test_jsonl_skips_blank_lines(self):
        buffer = io.StringIO()
        dump_trips([make_upload()], buffer)
        buffer.write("\n\n")
        buffer.seek(0)
        assert len(load_trips(buffer)) == 1

    def test_jsonl_reports_bad_line(self):
        buffer = io.StringIO("this is not json\n")
        with pytest.raises(ValueError, match="line 1"):
            load_trips(buffer)


class TestSampleTimeInvariant:
    @pytest.mark.parametrize(
        "time_s", [float("nan"), float("inf"), float("-inf")]
    )
    def test_sample_rejects_non_finite_time(self, time_s):
        with pytest.raises(ValueError):
            CellularSample(time_s=time_s, tower_ids=(5,))

    def test_upload_built_in_code_cannot_carry_nan(self):
        """NaN compares false both ways, so the time-order check alone
        let it through; the sample constructor now stops it."""
        with pytest.raises(ValueError):
            TripUpload(trip_key="t", samples=(
                CellularSample(time_s=10.0, tower_ids=(5,)),
                CellularSample(time_s=float("nan"), tower_ids=(5,)),
            ))


class TestDatabaseCodec:
    def test_round_trip(self):
        db = FingerprintDatabase()
        db.set_fingerprint(7, (10, 11, 12))
        db.set_fingerprint(8, (20, 21))
        decoded = database_from_dict(database_to_dict(db))
        assert decoded.as_dict() == db.as_dict()

    def test_file_round_trip(self, tmp_path):
        db = FingerprintDatabase()
        db.set_fingerprint(7, (10, 11, 12))
        path = str(tmp_path / "db.json")
        save_database(db, path)
        assert load_database(path).fingerprint(7) == (10, 11, 12)

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError):
            database_from_dict({"v": 2, "stops": {}})

    def test_rejects_malformed_entry(self):
        with pytest.raises(ValueError):
            database_from_dict({"v": 1, "stops": {"seven": ["x"]}})

    @pytest.mark.parametrize("bad", [3.7, "12", 2 ** 70])
    def test_rejects_cell_id_that_is_not_an_int64(self, bad):
        payload = {"v": 1, "stops": {"7": [10, bad]}}
        with pytest.raises(ValueError):
            database_from_dict(payload)

    def test_rejects_missing_stops(self):
        with pytest.raises(ValueError):
            database_from_dict({"v": 1})


class TestSnapshotGeojson:
    def test_feature_collection(self, small_city):
        estimator = TrafficMapEstimator(small_city.network)
        segs = small_city.network.segment_ids[:3]
        for seg in segs:
            estimator.update(seg, 35.0, t=100.0)
        snapshot = estimator.snapshot(at_s=160.0)
        geojson = snapshot_to_geojson(snapshot, small_city.network)
        assert geojson["type"] == "FeatureCollection"
        assert len(geojson["features"]) == 3
        feature = geojson["features"][0]
        assert feature["geometry"]["type"] == "LineString"
        lon, lat = feature["geometry"]["coordinates"][0]
        assert 103.0 < lon < 104.5       # around the Jurong anchor
        assert 1.0 < lat < 2.0
        assert feature["properties"]["speed_kmh"] == pytest.approx(35.0)
        assert feature["properties"]["level"] == 3

    def test_serialisable(self, small_city):
        estimator = TrafficMapEstimator(small_city.network)
        estimator.update(small_city.network.segment_ids[0], 35.0, t=100.0)
        geojson = snapshot_to_geojson(estimator.snapshot(160.0), small_city.network)
        json.dumps(geojson)     # must not raise
