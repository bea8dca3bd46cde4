"""The paper's contribution: the backend traffic-monitoring pipeline.

Names are resolved lazily (PEP 562): ``import repro.core.matching``
loads the matcher and its few dependencies, not the server, the store
and the rest of the pipeline.  ``from repro.core import X`` and
``repro.core.X`` work as before, importing X's module on first use.
"""

from importlib import import_module
from typing import Dict

#: Public name → the submodule defining it.
_EXPORTS: Dict[str, str] = {
    "CandidateStop": "clustering",
    "MatchedSample": "clustering",
    "SampleCluster": "clustering",
    "cluster_trip_samples": "clustering",
    "link_affinity": "clustering",
    "ArrivalPrediction": "arrival",
    "ArrivalPredictor": "arrival",
    "expected_dwell_s": "arrival",
    "infer_route": "arrival",
    "BootstrapStats": "bootstrap",
    "DatabaseBootstrapper": "bootstrap",
    "FingerprintDatabase": "fingerprint",
    "StoredFingerprint": "fingerprint",
    "BayesianSpeedFuser": "fusion",
    "FusedSpeed": "fusion",
    "PreparedTrip": "ingest",
    "prepare_trip": "ingest",
    "MatchIndex": "match_index",
    "canonical_key": "match_index",
    "MatchResult": "matching",
    "SampleMatcher": "matching",
    "batch_smith_waterman": "matching",
    "common_id_count": "matching",
    "RegionEstimate": "region",
    "infer_region_speeds": "region",
    "segment_adjacency": "region",
    "BackendServer": "server",
    "ServerStats": "server",
    "TripReport": "server",
    "SegmentReading": "traffic_map",
    "SpeedLevel": "traffic_map",
    "TrafficMapEstimator": "traffic_map",
    "TrafficSnapshot": "traffic_map",
    "speed_level": "traffic_map",
    "SpeedEstimate": "traffic_model",
    "TrafficModel": "traffic_model",
    "fit_b": "traffic_model",
    "MappedStop": "trip_mapping",
    "MappedTrip": "trip_mapping",
    "RouteConstraint": "trip_mapping",
    "map_trip": "trip_mapping",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the defining submodule on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
