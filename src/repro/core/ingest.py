"""The pure half of trip ingest: match → cluster → map, per upload.

The server pipeline splits at the first write to server state:

* :func:`prepare_trip` — the **pure** per-trip half
  (match → cluster → map).  It reads only the fingerprint database, the
  route network and the configs, and returns a :class:`PreparedTrip`.
* :meth:`~repro.core.server.BackendServer.apply_prepared` — the
  mutating half: dedup ledger, stats, traffic map, freshness, sliding
  windows, and the write-ahead journal of the durable store.

Ingest is serial: one process runs one matcher.  The split exists for
the durable store: the raw upload is journaled before anything mutates,
and recovery replays journaled uploads through the same
:func:`prepare_trip`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.clustering import (
    MatchedSample,
    SampleCluster,
    cluster_trip_samples,
)
from repro.core.matching import MatchResult, SampleMatcher
from repro.core.trip_mapping import MappedTrip, RouteConstraint, map_trip
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.phone.trip_recorder import TripUpload

__all__ = ["PreparedTrip", "prepare_trip"]


@dataclass(frozen=True)
class PreparedTrip:
    """Everything the pure stages learned about one upload."""

    trip_key: str
    samples_total: int
    end_s: Optional[float]          # last sample time; None for empty trips
    accepted: int
    discarded: int
    clusters: List[SampleCluster]
    mapped: Optional[MappedTrip]
    #: Per-sample match verdicts in upload order; only populated when
    #: :func:`prepare_trip` runs with ``keep_matches=True`` (golden-trace
    #: recording) — the hot path never pays for carrying them.
    matches: Optional[Tuple[MatchResult, ...]] = None

    @classmethod
    def skipped(cls, upload: TripUpload) -> "PreparedTrip":
        """A stub for an upload the pure stages never ran on.

        Used for duplicates: the apply stage only needs the key and
        sample count to account for them, and a duplicate never reaches
        the matcher.
        """
        return cls(
            trip_key=upload.trip_key,
            samples_total=len(upload.samples),
            end_s=upload.samples[-1].time_s if upload.samples else None,
            accepted=0,
            discarded=0,
            clusters=[],
            mapped=None,
        )


def prepare_trip(
    upload: TripUpload,
    *,
    matcher: SampleMatcher,
    clustering_config,
    constraint: RouteConstraint,
    registry: Optional[MetricsRegistry] = None,
    tracer=NULL_TRACER,
    keep_matches: bool = False,
) -> PreparedTrip:
    """Run the pure per-trip pipeline half: match → cluster → map.

    Live ingest and WAL replay both run exactly this.  ``keep_matches=True`` additionally records the
    per-sample match verdicts on the result — a pure observation hook
    for the golden-trace recorder; it changes no pipeline decision.
    """
    registry = registry if registry is not None else NULL_REGISTRY
    matched: List[MatchedSample] = []
    discarded = 0
    with tracer.span("matching"):
        results = matcher.match_many([s.tower_ids for s in upload.samples])
        for sample, result in zip(upload.samples, results):
            if result.accepted:
                matched.append(MatchedSample(sample=sample, match=result))
            else:
                discarded += 1
    with tracer.span("clustering"):
        clusters = cluster_trip_samples(
            matched, clustering_config, registry=registry
        )
    with tracer.span("trip_mapping"):
        mapped = (
            map_trip(clusters, constraint, registry=registry)
            if clusters
            else None
        )
    return PreparedTrip(
        trip_key=upload.trip_key,
        samples_total=len(upload.samples),
        end_s=upload.samples[-1].time_s if upload.samples else None,
        accepted=len(matched),
        discarded=discarded,
        clusters=clusters,
        mapped=mapped,
        matches=tuple(results) if keep_matches else None,
    )
