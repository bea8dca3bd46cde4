"""Wire formats and persistence: JSON codecs for the system's artifacts.

A deployment needs stable interchange formats: phones upload trips over
HTTP, the fingerprint database is shipped to new server instances, and
the live traffic map is served to consumers.  This module defines the
JSON forms of all three, with strict decoding (unknown versions and
malformed payloads are rejected, never guessed at).

Formats are versioned with a ``"v"`` field so they can evolve.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, List

from repro.city.gtfs import planar_to_wgs84
from repro.core.fingerprint import FingerprintDatabase
from repro.core.traffic_map import TrafficSnapshot
from repro.phone.cellular import CellularSample
from repro.phone.trip_recorder import TripUpload

_TRIP_VERSION = 1
_DB_VERSION = 1
_SNAPSHOT_VERSION = 1

#: Latest plausible sample time: seconds since midnight of a campaign's
#: first day, with a year of campaign days.  Sample times outside
#: ``[0, CAMPAIGN_HORIZON_S]`` are rejected at decode.
CAMPAIGN_HORIZON_S = 366 * 86_400.0


# -- trip uploads (phone → server) -------------------------------------------


def trip_to_dict(upload: TripUpload) -> Dict[str, Any]:
    """Encode a trip upload as a JSON-ready dict.

    Deliberately minimal — trip key, timestamps, ordered cell ids — the
    anonymity-preserving payload of §III-B.  RSS values are *not*
    uploaded; the backend only uses rank order.
    """
    return {
        "v": _TRIP_VERSION,
        "trip": upload.trip_key,
        "samples": [
            {"t": sample.time_s, "cells": list(sample.tower_ids)}
            for sample in upload.samples
        ],
    }


def trip_from_dict(payload: Dict[str, Any]) -> TripUpload:
    """Decode a trip upload; raises ``ValueError`` on malformed payloads."""
    if not isinstance(payload, dict):
        raise ValueError("trip payload must be an object")
    if payload.get("v") != _TRIP_VERSION:
        raise ValueError(f"unsupported trip payload version {payload.get('v')!r}")
    if "trip" not in payload or "samples" not in payload:
        raise ValueError("trip payload missing 'trip' or 'samples'")
    samples = []
    for entry in payload["samples"]:
        # The sample constructor holds the cell-id rule (an int, not a
        # bool, inside int64), so decoded and in-code uploads share it.
        try:
            samples.append(CellularSample(
                time_s=_sample_time(entry["t"]), tower_ids=entry["cells"]
            ))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sample entry {entry!r}") from exc
        except ValueError as exc:
            raise ValueError(f"{exc} in sample entry {entry!r}") from exc
    return TripUpload(trip_key=str(payload["trip"]), samples=tuple(samples))


def _sample_time(value: Any) -> float:
    # JSON ``true`` decodes to a bool, and ``float("12")`` would accept a
    # string: only a real JSON number is a time.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"sample time must be a number, not {value!r}")
    # Range-check ints before ``float()``, which overflows on huge ones.
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite sample time {value!r}")
    if not 0 <= value <= CAMPAIGN_HORIZON_S:
        raise ValueError(
            f"sample time {value!r} outside [0, {CAMPAIGN_HORIZON_S:g}] s"
        )
    return float(value)


def dump_trips(uploads: List[TripUpload], stream: IO[str]) -> None:
    """Write uploads as JSON Lines (one trip per line)."""
    for upload in uploads:
        stream.write(
            json.dumps(trip_to_dict(upload), separators=(",", ":"), allow_nan=False)
        )
        stream.write("\n")


def load_trips(stream: IO[str]) -> List[TripUpload]:
    """Read uploads from JSON Lines."""
    uploads = []
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: invalid JSON") from exc
        uploads.append(trip_from_dict(payload))
    return uploads


# -- fingerprint database ------------------------------------------------------


def database_to_dict(database: FingerprintDatabase) -> Dict[str, Any]:
    """Encode the fingerprint database."""
    return {
        "v": _DB_VERSION,
        "stops": {
            str(station_id): list(database.fingerprint(station_id))
            for station_id in database.station_ids
        },
    }


def database_from_dict(payload: Dict[str, Any]) -> FingerprintDatabase:
    """Decode a fingerprint database; strict about structure."""
    if not isinstance(payload, dict) or payload.get("v") != _DB_VERSION:
        raise ValueError("unsupported database payload")
    stops = payload.get("stops")
    if not isinstance(stops, dict):
        raise ValueError("database payload missing 'stops' object")
    database = FingerprintDatabase()
    for station_key, towers in stops.items():
        # set_fingerprint applies the cell-id rule.
        try:
            database.set_fingerprint(int(station_key), towers)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed database entry {station_key!r}") from exc
    return database


def save_database(database: FingerprintDatabase, path: str) -> None:
    """Persist the database as JSON."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(database_to_dict(database), out, indent=1, sort_keys=True)


def load_database(path: str) -> FingerprintDatabase:
    """Load a database persisted by :func:`save_database`."""
    with open(path, encoding="utf-8") as handle:
        return database_from_dict(json.load(handle))


# -- traffic snapshots (server → consumers) -------------------------------------


def snapshot_to_geojson(
    snapshot: TrafficSnapshot, network
) -> Dict[str, Any]:
    """Encode a traffic snapshot as GeoJSON (WGS84 LineString features).

    The shape consumer maps expect: one feature per covered directed
    segment with speed, display level and data age.
    """
    features = []
    for segment_id, reading in sorted(snapshot.readings.items()):
        segment = network.segment(segment_id)
        start = planar_to_wgs84(segment.start)
        end = planar_to_wgs84(segment.end)
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    # GeoJSON order: (lon, lat).
                    "coordinates": [[start[1], start[0]], [end[1], end[0]]],
                },
                "properties": {
                    "segment": list(segment_id),
                    "speed_kmh": round(reading.speed_kmh, 2),
                    "sigma_kmh": round(reading.sigma_kmh, 2),
                    "level": int(reading.level),
                    "age_s": round(reading.age_s, 1),
                },
            }
        )
    return {
        "type": "FeatureCollection",
        "v": _SNAPSHOT_VERSION,
        "at_s": snapshot.at_s,
        "coverage": round(snapshot.coverage, 4),
        "features": features,
    }
