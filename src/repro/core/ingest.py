"""Batched, sharded, parallel trip ingest: scaling §III across cores.

The server pipeline is embarrassingly parallel per trip: matching,
clustering and route-constrained mapping read only the (static)
fingerprint database and route network, and every trip is independent
until the final traffic-map update.  This module splits the pipeline
accordingly:

* :func:`prepare_trip` — the **pure** per-trip half
  (match → cluster → map).  It touches no server state, so any number
  of processes can run it concurrently.
* :class:`PreparedTrip` — the pickle-safe result a worker sends back.
* :class:`IngestEngine` — a ``multiprocessing`` pool that shards an
  upload batch, broadcasts the fingerprint database and route
  constraint **once per worker** (pool initializer, not per task), and
  returns the prepared trips **in upload order**.

The mutating half — dedup ledger, stats, traffic map, freshness,
sliding windows — stays single-writer on the server
(:meth:`~repro.core.server.BackendServer.apply_prepared`), which merges
prepared results in deterministic upload order.  Because the serial
path runs *the same* :func:`prepare_trip` followed by the same apply
stage, a sharded run is bit-identical to a serial one at any worker
count.

Telemetry: each worker records matcher/clustering/mapping metrics into
a private registry; after every shard the snapshot is folded back into
the parent registry (:meth:`~repro.obs.metrics.MetricsRegistry.merge_dict`),
so a parallel run exports the same counter totals as a serial one.  The
engine additionally exports ``ingest_*`` counters and per-stage
histograms on the parent side.

IPC cost attribution: the coordinator serializes each shard itself
(``shard_serialize`` span with a ``bytes`` attribute), captures a
dispatch timestamp, and ships the blob; the worker times the decode
(``shard_deserialize``), reports the dispatch→receipt gap
(``pool_queue_wait`` — ``time.perf_counter`` is CLOCK_MONOTONIC on
Linux, so coordinator and worker clocks agree), and wraps every trip in
a keyed ``prepare_trip`` span.  The coordinator also records the
one-time ``fingerprint_broadcast`` (pool-initializer payload size) and
``worker_init`` costs, the per-shard ``pool_result_wait`` (idle,
blocked on a worker) and ``result_merge`` (fold results + telemetry).
Worker span records travel back inside the shard outcome and stitch
under the coordinator's open span via a propagated
:class:`~repro.obs.tracing.TraceContext` — every worker-scaling cost
has a named number.  With :data:`NULL_TRACER` (the default) all of it
degrades to no-ops.

Those spans are why the engine runs one of two explicit IPC modes
(``config.ingest.shared_store``):

* ``shm`` (default) — the fingerprint DB + inverted candidate index
  ride as flat int arrays in one ``multiprocessing.shared_memory``
  segment (:mod:`repro.core.shared_store`) that workers attach
  read-only; the route network and the coordinator's hottest verdict
  memos ride in the same segment's aux blob; the pool initargs shrink
  to a metadata descriptor.  Shards cross the pipe through the
  columnar codec (rss stripped on the wire, original sample objects
  swapped back in during ``result_merge``, so end state stays
  bit-identical), and shard batching coarsens to one shard per worker
  — dispatch overhead amortizes instead of multiplying.
* ``legacy`` — the PR-7 pickled broadcast + pickled shards, kept as
  the A/B baseline the IPC benchmarks diff against.

Both modes run the same :func:`prepare_trip`, so both are bit-identical
to serial ingest at any worker count; only the bytes-on-the-wire and
wall clock differ.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.city.routes import RouteNetwork
from repro.config import SystemConfig
from repro.core.clustering import (
    MatchedSample,
    SampleCluster,
    cluster_trip_samples,
)
from repro.core.matching import MatchResult, SampleMatcher
from repro.core.shared_store import (
    SHARD_MAGIC,
    SharedFingerprintStore,
    decode_shard,
    encode_shard,
)
from repro.core.trip_mapping import MappedTrip, RouteConstraint, map_trip
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.phone.trip_recorder import TripUpload

__all__ = ["PreparedTrip", "IngestEngine", "prepare_trip"]

#: Worker-exported gauge families that are point-in-time levels of
#: *worker-local* state (cache fill, run-to-date prune ratio).  Folding
#: them into the coordinator registry would clobber the coordinator's
#: own level with whichever shard merged last — they stay worker-side.
WORKER_GAUGE_QUARANTINE: Tuple[str, ...] = ("match_",)

#: The pure per-trip stages, in pipeline order (span / histogram names).
PREPARE_STAGES: Tuple[str, ...] = ("matching", "clustering", "trip_mapping")


@dataclass(frozen=True)
class PreparedTrip:
    """Everything the pure stages learned about one upload (picklable)."""

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

        Used for duplicates filtered out before dispatch: the apply
        stage only needs the key and sample count to account for them,
        exactly as the serial path drops duplicates before matching.
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

    This is the exact code path both the serial server and every pool
    worker execute, which is what makes parallel results bit-identical
    to serial ones.  ``keep_matches=True`` additionally records the
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


@dataclass
class _ShardOutcome:
    """One shard's results plus the worker-side telemetry to merge back."""

    prepared: List[PreparedTrip]
    metrics: Dict
    #: The worker tracer's exported state: stage aggregates always, plus
    #: retained span records / exemplars when the coordinator propagated
    #: a sampling policy (see :meth:`Tracer.export_trace_state`).
    trace: Dict[str, Any]
    #: Columnar-shard runs only: per trip, per cluster, the positions of
    #: each clustered sample in the original upload — the recipe the
    #: coordinator uses to swap the riders' original sample objects
    #: (rss and all) back into the results during ``result_merge``.
    sample_indexes: Optional[List[List[List[int]]]] = None


class _WorkerState:
    """Per-process state built once by the pool initializer.

    The matcher's inverted candidate index is built here, once per
    worker (not per shard) — or, in shared-store mode, simply *attached*
    from the coordinator's shared-memory arrays — and its verdict memo
    is per-worker private: caches never cross process boundaries, and
    the memo survives shard boundaries so repeat sequences hit across a
    whole run.  Both knobs travel inside the pickled
    ``matching_config``, so a full-scan or cache-disabled configuration
    on the parent reproduces identically in every worker.
    """

    def __init__(
        self,
        fingerprints: Optional[Dict[int, Tuple[int, ...]]],
        matching_config,
        clustering_config,
        route_network: RouteNetwork,
        trip_mapping_config,
        *,
        store: Optional[SharedFingerprintStore] = None,
        warm_entries: Sequence = (),
    ):
        self.registry = MetricsRegistry()
        self.store = store
        self.matcher = SampleMatcher(
            fingerprints, matching_config, registry=self.registry,
            store=store,
        )
        if warm_entries:
            # Coordinator's hottest verdicts: adopted silently, so the
            # memo starts hot without skewing hit/miss accounting.
            self.matcher.cache.preload(warm_entries)
        self.clustering_config = clustering_config
        self.constraint = RouteConstraint(route_network, trip_mapping_config)


_WORKER_STATE: Optional[_WorkerState] = None
#: ``(start, duration)`` of this worker's initializer, shipped back once
#: with its first shard so the coordinator can account pool-warmup cost.
_WORKER_INIT: Optional[Tuple[float, float]] = None


def _init_worker(mode: str, *payload) -> None:
    """Pool initializer: broadcast the read-only state once per worker.

    ``legacy`` receives everything pickled through the pool pipe;
    ``shm`` receives a tiny segment descriptor plus the small configs,
    attaches the fingerprint arrays zero-copy, and unpickles the route
    network and memo warm set out of the segment's aux blob.
    """
    global _WORKER_STATE, _WORKER_INIT
    started = time.perf_counter()
    if mode == "shm":
        meta, matching_config, clustering_config, trip_mapping_config = payload
        store = SharedFingerprintStore.attach(meta)
        route_network, warm_entries = pickle.loads(store.aux_bytes)
        _WORKER_STATE = _WorkerState(
            None, matching_config, clustering_config, route_network,
            trip_mapping_config, store=store, warm_entries=warm_entries,
        )
    else:
        _WORKER_STATE = _WorkerState(*payload)
    _WORKER_INIT = (started, time.perf_counter() - started)


def _prepare_shard(
    blob: bytes, context=None, dispatched_at: Optional[float] = None
) -> _ShardOutcome:
    """Task body: run the pure stages over one pickled shard of uploads."""
    global _WORKER_INIT
    received_at = time.perf_counter()
    state = _WORKER_STATE
    if state is None:
        raise RuntimeError("ingest worker used before initialisation")
    worker = multiprocessing.current_process().name
    tracer = Tracer(
        context.policy if context is not None else None,
        context=context,
        worker=worker,
    )
    if _WORKER_INIT is not None:
        init_start, init_dur = _WORKER_INIT
        _WORKER_INIT = None
        tracer.record_span(
            "worker_init", start_s=init_start, duration_s=init_dur,
        )
    if dispatched_at is not None:
        # perf_counter is CLOCK_MONOTONIC on Linux, so the coordinator's
        # dispatch timestamp is comparable with our receipt time: the gap
        # is pool pickling + pipe transfer + queue wait for a free worker.
        tracer.record_span(
            "pool_queue_wait",
            start_s=dispatched_at,
            duration_s=received_at - dispatched_at,
        )
    columnar = blob.startswith(SHARD_MAGIC)
    with tracer.span("shard_deserialize", bytes=len(blob)):
        if columnar:
            shard, keep_matches = decode_shard(blob)
        else:
            shard, keep_matches = pickle.loads(blob)
    # The worker registry is reset per shard and its snapshot shipped
    # back, so the parent can merge shard deltas without double counting.
    state.registry.reset()
    prepared = []
    for upload in shard:
        with tracer.span("prepare_trip", key=upload.trip_key):
            prepared.append(
                prepare_trip(
                    upload,
                    matcher=state.matcher,
                    clustering_config=state.clustering_config,
                    constraint=state.constraint,
                    registry=state.registry,
                    tracer=tracer,
                    keep_matches=keep_matches,
                )
            )
    sample_indexes = None
    if columnar:
        # Columnar shards decode to rss-less sample objects; record each
        # clustered sample's position in its upload so the coordinator
        # can restore the originals.  Clustering wraps (never copies)
        # the decoded sample objects, so identity lookup is exact.
        sample_indexes = []
        for upload, trip in zip(shard, prepared):
            positions = {id(s): k for k, s in enumerate(upload.samples)}
            sample_indexes.append(
                [
                    [positions[id(member.sample)] for member in cluster.samples]
                    for cluster in trip.clusters
                ]
            )
    return _ShardOutcome(
        prepared=prepared,
        metrics=state.registry.as_dict(),
        trace=tracer.export_trace_state(),
        sample_indexes=sample_indexes,
    )


def _kill_pool(pool: multiprocessing.pool.Pool) -> None:
    """Stop ``pool`` the way ``Pool.terminate()`` does, minus its lock wait.

    ``terminate()`` first takes the task queue's read lock, which an idle
    worker holds while it blocks for the next task.  A worker killed in
    that state (a crash, the OOM killer) never releases it, and the wait
    never ends.  Here the respawn loop is stopped, then every worker is
    killed and reaped directly; the pool's task and result threads drain
    on the sentinel the respawn loop leaves behind.  The attributes used
    are CPython's ``multiprocessing.pool`` internals (3.8 and later).
    """
    from multiprocessing.pool import TERMINATE  # loaded with the pool

    pool._state = TERMINATE
    pool._terminate.cancel()  # the exit-time finalizer is terminate()
    for thread in (pool._worker_handler, pool._task_handler, pool._result_handler):
        thread._state = TERMINATE
    pool._change_notifier.put(None)
    pool._worker_handler.join()
    for proc in pool._pool:
        proc.kill()
    for proc in pool._pool:
        proc.join()


class IngestEngine:
    """A sharded ``multiprocessing`` fan-out for the pure pipeline half.

    Use as a context manager (the pool is started lazily on first
    :meth:`prepare` and torn down on exit)::

        with IngestEngine.for_server(server, workers=4) as engine:
            reports = server.ingest_many(uploads, engine=engine)

    Determinism guarantee: shards are formed from the input sequence in
    order, dispatched with ``apply_async`` and gathered in submission
    order, and shard results are concatenated in that order — so
    ``prepare(batch)`` returns exactly ``[prepare_trip(u) for u in
    batch]`` regardless of worker count or scheduling.  (Shards round
    trip through an explicit pickle so the serialize cost is a named,
    measured span; pickling preserves every value bit-exactly, and the
    pool would have pickled the same objects anyway.)
    """

    def __init__(
        self,
        fingerprints: Dict[int, Tuple[int, ...]],
        route_network: RouteNetwork,
        config: Optional[SystemConfig] = None,
        *,
        workers: int,
        shard_size: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        shared_store: Optional[bool] = None,
        warm_source=None,
    ):
        if workers < 1:
            raise ValueError("ingest engine needs at least one worker")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be positive")
        config = config or SystemConfig()
        self.workers = workers
        self.shard_size = shard_size
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.mode = (
            "shm"
            if (
                config.ingest.shared_store
                if shared_store is None
                else shared_store
            )
            else "legacy"
        )
        self._memo_warm = config.ingest.memo_warm
        #: Called at pool start; returns the coordinator's hottest memo
        #: entries so workers begin with a warm verdict cache.
        self._warm_source = warm_source
        self._payload = (
            dict(fingerprints),
            config.matching,
            config.clustering,
            route_network,
            config.trip_mapping,
        )
        self._store: Optional[SharedFingerprintStore] = None
        self._pool: Optional[multiprocessing.pool.Pool] = None
        reg = self.registry
        self._c_batches = reg.counter(
            "ingest_batches_total", help="upload batches fanned out"
        )
        self._c_shards = reg.counter(
            "ingest_shards_total", help="shards dispatched to ingest workers"
        )
        self._c_trips = reg.counter(
            "ingest_trips_total", help="trips prepared by the ingest engine"
        )
        reg.gauge(
            "ingest_workers", help="worker processes of the ingest engine"
        ).set(workers)
        self._h_shard_trips = reg.histogram(
            "ingest_shard_trips",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            help="trips per dispatched shard",
        )
        self._h_batch_seconds = reg.histogram(
            "ingest_batch_seconds",
            help="wall seconds per prepared batch (fan-out + merge)",
        )
        self._fam_stage_seconds = reg.labeled_histogram(
            "ingest_stage_seconds", ("stage",),
            help="per-shard worker seconds spent in each traced stage",
        )

    @classmethod
    def for_server(cls, server, workers: int, **kwargs) -> "IngestEngine":
        """An engine broadcasting ``server``'s database and constraints.

        Worker metrics merge into the server's registry, so parallel
        runs export the same matcher/clustering/mapping totals as
        serial ones.
        """
        kwargs.setdefault("tracer", server.tracer)
        warm = server.config.ingest.memo_warm
        kwargs.setdefault(
            "warm_source",
            (lambda: server.matcher.cache.hottest(warm)) if warm else None,
        )
        return cls(
            server.database.as_dict(),
            server.route_network,
            server.config,
            workers=workers,
            registry=server.registry,
            **kwargs,
        )

    # -- lifecycle -----------------------------------------------------------

    def _initargs(self) -> Tuple:
        """The per-worker broadcast: mode-tagged pool initargs.

        In ``shm`` mode this is where the shared store is created: the
        fingerprint arrays land in the segment, the route network and
        the coordinator's hottest memo entries ride its aux blob, and
        only a metadata descriptor plus the small configs cross the
        pool pipe.  Falls back to ``legacy`` if the host cannot provide
        shared memory.
        """
        fingerprints, matching, clustering, route_network, mapping = (
            self._payload
        )
        if self.mode == "shm":
            warm = self._warm_source() if self._warm_source else []
            if self._memo_warm:
                warm = list(warm)[: self._memo_warm]
            try:
                self._store = SharedFingerprintStore.create(
                    fingerprints,
                    aux=pickle.dumps(
                        (route_network, warm), pickle.HIGHEST_PROTOCOL
                    ),
                )
            except OSError:
                self.mode = "legacy"
            else:
                return (
                    "shm", self._store.meta, matching, clustering, mapping,
                )
        return ("legacy",) + self._payload

    def start(self) -> "IngestEngine":
        """Spawn the worker pool (idempotent)."""
        if self._pool is None:
            initargs = self._initargs()
            if self.tracer.enabled:
                # Measure what the pool is about to broadcast to every
                # worker.  Legacy mode ships the whole fingerprint DB +
                # route network per worker; shm mode ships a descriptor
                # and parks the bulk in the shared segment (reported
                # separately as shm_bytes — paid once, not per worker).
                t0 = time.perf_counter()
                payload_bytes = len(
                    pickle.dumps(initargs[1:], pickle.HIGHEST_PROTOCOL)
                )
                self.tracer.record_span(
                    "fingerprint_broadcast",
                    start_s=t0,
                    duration_s=time.perf_counter() - t0,
                    bytes=payload_bytes,
                    workers=self.workers,
                    mode=self.mode,
                    shm_bytes=(
                        self._store._segment.size if self._store else 0
                    ),
                )
            self._pool = multiprocessing.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=initargs,
            )
        return self

    def close(self) -> None:
        """Tear the worker pool down and destroy the shared segment.

        Runs the unlink even when the pool refuses to die cleanly (a
        crashed worker, an interrupted batch): the segment's lifetime
        is bound to the engine, never to the worker processes — they
        attach untracked and simply unmap on exit.
        """
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                _kill_pool(pool)
        finally:
            if self._store is not None:
                self._store.unlink()
                self._store = None

    def __enter__(self) -> "IngestEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- fan-out -------------------------------------------------------------

    def _shards(self, uploads: Sequence[TripUpload]) -> List[List[TripUpload]]:
        """Cut the batch into ordered shards.

        Legacy mode keeps ~4 shards per worker (fine-grained balancing
        compensates for its per-shard pickle tax).  Shared-store mode
        coarsens to one shard per worker: the per-shard costs —
        serialize, queue hop, result wait, merge — are then paid
        ``workers`` times per batch instead of ``4 × workers``, and the
        columnar codec compresses better over bigger shards.
        """
        size = self.shard_size
        if size is None:
            per_worker = 1 if self.mode == "shm" else 4
            size = max(1, -(-len(uploads) // (self.workers * per_worker)))
        return [
            list(uploads[i: i + size]) for i in range(0, len(uploads), size)
        ]

    def _encode_shard(self, shard, keep_matches: bool) -> bytes:
        if self.mode == "shm":
            return encode_shard(shard, keep_matches)
        return pickle.dumps((shard, keep_matches), pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _rehydrate(shard, outcome: _ShardOutcome) -> None:
        """Swap the riders' original sample objects back into the results.

        Columnar shards travel without the per-sample rss vectors (the
        pure stages never read them), so the decoded-on-the-worker
        sample objects inside each cluster are rss-less copies.  Every
        cluster slot is rewritten in place with the original
        :class:`CellularSample` at the recorded upload position — after
        this, results are indistinguishable object-for-object from a
        serial run's.
        """
        if outcome.sample_indexes is None:
            return
        for upload, trip, index_lists in zip(
            shard, outcome.prepared, outcome.sample_indexes
        ):
            for cluster, positions in zip(trip.clusters, index_lists):
                cluster.samples[:] = [
                    MatchedSample(
                        sample=upload.samples[position], match=member.match
                    )
                    for position, member in zip(positions, cluster.samples)
                ]

    def prepare(
        self, uploads: Sequence[TripUpload], *, keep_matches: bool = False
    ) -> List[PreparedTrip]:
        """Fan the pure stages out over the pool; results in input order."""
        if not uploads:
            return []
        self.start()
        tracer = self.tracer
        started = time.perf_counter()
        shards = self._shards(uploads)
        handles = []
        for index, shard in enumerate(shards):
            t0 = time.perf_counter()
            blob = self._encode_shard(shard, keep_matches)
            tracer.record_span(
                "shard_serialize",
                start_s=t0,
                duration_s=time.perf_counter() - t0,
                bytes=len(blob),
                shard=index,
                trips=len(shard),
            )
            handles.append(
                self._pool.apply_async(
                    _prepare_shard,
                    (blob, tracer.ipc_context(), time.perf_counter()),
                )
            )
        prepared: List[PreparedTrip] = []
        for index, (shard, handle) in enumerate(zip(shards, handles)):
            w0 = time.perf_counter()
            outcome = handle.get()
            tracer.record_span(
                "pool_result_wait",
                start_s=w0,
                duration_s=time.perf_counter() - w0,
                shard=index,
            )
            with tracer.span("result_merge", shard=index):
                self._rehydrate(shard, outcome)
                prepared.extend(outcome.prepared)
                self.registry.merge_dict(
                    outcome.metrics,
                    skip_gauge_prefixes=WORKER_GAUGE_QUARANTINE,
                )
                self._c_shards.inc()
                self._h_shard_trips.observe(len(shard))
                for stage, timing in outcome.trace["stages"].items():
                    self._fam_stage_seconds.labels(stage).observe(
                        timing.get("total_s", 0.0)
                    )
            tracer.absorb(outcome.trace)
        self._c_batches.inc()
        self._c_trips.inc(len(uploads))
        self._h_batch_seconds.observe(time.perf_counter() - started)
        return prepared
