"""Tests for Smith-Waterman matching (§III-C1, Table I)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import MatchingConfig
from repro.core import matching
from repro.core.fingerprint import FingerprintDatabase
from repro.core.matching import (
    SampleMatcher,
    batch_smith_waterman,
    common_id_count,
)
from repro.obs.metrics import MetricsRegistry
from repro.testkit import oracle_smith_waterman as smith_waterman


class TestSmithWaterman:
    def test_paper_table_i_instance(self):
        """Table I: 3 matches + 1 gap + 1 mismatch → 2.4."""
        score = smith_waterman([1, 2, 3, 4, 5], [1, 7, 3, 5])
        assert score == pytest.approx(2.4)

    def test_identical_sequences_score_length(self):
        assert smith_waterman([4, 8, 15], [4, 8, 15]) == pytest.approx(3.0)

    def test_disjoint_sequences_score_zero(self):
        assert smith_waterman([1, 2, 3], [4, 5, 6]) == 0.0

    def test_empty_scores_zero(self):
        assert smith_waterman([], [1, 2]) == 0.0
        assert smith_waterman([1, 2], []) == 0.0

    def test_symmetric(self):
        a, b = [1, 2, 3, 4], [2, 1, 4, 3]
        assert smith_waterman(a, b) == pytest.approx(smith_waterman(b, a))

    def test_score_bounded_by_shorter_length(self):
        assert smith_waterman([1, 2], [1, 2, 3, 4, 5, 6, 7]) <= 2.0

    def test_local_alignment_ignores_prefix_garbage(self):
        # The shared suffix aligns cleanly regardless of a junk prefix.
        score = smith_waterman([99, 98, 1, 2, 3], [1, 2, 3])
        assert score == pytest.approx(3.0)

    def test_one_rank_swap_costs_about_1_3(self):
        clean = smith_waterman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        swapped = smith_waterman([1, 3, 2, 4, 5], [1, 2, 3, 4, 5])
        assert clean - swapped == pytest.approx(1.3, abs=0.31)

    def test_penalty_config_respected(self):
        harsh = MatchingConfig(mismatch_penalty=0.9, gap_penalty=0.9)
        score = smith_waterman([1, 2, 3, 4, 5], [1, 7, 3, 5], harsh)
        assert score < smith_waterman([1, 2, 3, 4, 5], [1, 7, 3, 5])


class TestBatchSmithWaterman:
    def test_matches_scalar_implementation(self, rng):
        uploads, dbs = [], []
        for _ in range(40):
            uploads.append(list(rng.choice(20, size=rng.integers(1, 8), replace=False)))
            dbs.append(list(rng.choice(20, size=rng.integers(1, 8), replace=False)))
        batch = batch_smith_waterman(uploads, dbs)
        for upload, db, score in zip(uploads, dbs, batch):
            assert score == pytest.approx(smith_waterman(upload, db))

    def test_negative_ids_match_scalar(self, rng):
        """Regression: padding sentinels must live outside the alphabet.

        The old implementation padded with the constants −1/−2, so an
        upstream decoder emitting negative tower ids (e.g. unknown-cell
        markers) could collide with the padding and score phantom
        matches.  Ids are now replaced by their ranks before padding, so
        batch == scalar even over negative alphabets.
        """
        alphabet = np.arange(-10, 10)
        uploads, dbs = [], []
        for _ in range(40):
            uploads.append(list(rng.choice(alphabet, size=rng.integers(1, 8),
                                           replace=False)))
            dbs.append(list(rng.choice(alphabet, size=rng.integers(1, 8),
                                       replace=False)))
        batch = batch_smith_waterman(uploads, dbs)
        for upload, db, score in zip(uploads, dbs, batch):
            assert score == pytest.approx(smith_waterman(upload, db))

    def test_sentinel_collision_case(self):
        """The exact collision: an id equal to the old −1 query pad
        aligned against padding used to score a spurious match."""
        uploads = [[-1, -2], [-1]]
        dbs = [[-2, -1], [7]]
        scores = batch_smith_waterman(uploads, dbs)
        assert scores[0] == pytest.approx(smith_waterman([-1, -2], [-2, -1]))
        assert scores[1] == pytest.approx(0.0)

    def test_int64_edge_ids_match_scalar(self):
        """Ids at both ends of int64 leave no room below them for
        sentinels; ranking the ids first makes them ordinary."""
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        uploads = [[lo, 5, hi], [lo + 1, lo], [hi]]
        dbs = [[5, hi, lo], [lo, lo + 2], [hi - 1, hi]]
        scores = batch_smith_waterman(uploads, dbs)
        assert scores.tolist() == [
            smith_waterman(u, d) for u, d in zip(uploads, dbs)
        ]

    @pytest.mark.parametrize("bad", [2 ** 63, -(2 ** 63) - 1, 2 ** 70])
    def test_ids_outside_int64_raise_value_error(self, bad):
        with pytest.raises(ValueError, match="int64"):
            batch_smith_waterman([[bad, 1]], [[1]])
        with pytest.raises(ValueError, match="int64"):
            batch_smith_waterman([[1]], [[1, bad]])

    def test_empty_batch(self):
        assert batch_smith_waterman([], []).shape == (0,)

    def test_empty_sequences_in_batch(self):
        scores = batch_smith_waterman([[], [1, 2]], [[1], []])
        assert scores == pytest.approx([0.0, 0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            batch_smith_waterman([[1]], [])


class TestSampleMatcher:
    @pytest.fixture()
    def matcher(self):
        fingerprints = {
            1: (10, 11, 12, 13, 14),
            2: (20, 21, 22, 23, 24),
            3: (10, 11, 12, 15, 16),    # overlaps stop 1
        }
        return SampleMatcher(fingerprints)

    def test_exact_match(self, matcher):
        result = matcher.match((20, 21, 22, 23, 24))
        assert result.station_id == 2
        assert result.score == pytest.approx(5.0)

    def test_below_threshold_rejected(self, matcher):
        result = matcher.match((20, 99, 98, 97))
        assert not result.accepted
        assert result.station_id is None

    def test_tie_broken_by_common_ids(self, matcher):
        # (10,11,12) aligns equally with stops 1 and 3; extend with an id
        # unique to stop 3's tail to tip the common-id count.
        result = matcher.match((10, 11, 12, 15))
        assert result.station_id == 3

    def test_match_many_equals_match(self, matcher, rng):
        samples = [
            tuple(rng.choice([10, 11, 12, 13, 14, 20, 21, 15, 16, 99],
                             size=5, replace=False))
            for _ in range(30)
        ]
        singles = [matcher.match(s) for s in samples]
        batch = matcher.match_many(samples)
        assert [m.station_id for m in batch] == [m.station_id for m in singles]
        assert [m.score for m in batch] == pytest.approx([m.score for m in singles])

    def test_match_many_empty(self, matcher):
        assert matcher.match_many([]) == []

    def test_scores_exposes_all_stops(self, matcher):
        scores = matcher.scores((10, 11, 12))
        assert set(scores) == {1, 2, 3}

    def test_pickle_round_trip_matches(self, matcher):
        """A pickled matcher (e.g. inside a copied server) matches
        identically."""
        import pickle

        clone = pickle.loads(pickle.dumps(matcher))
        for sample in [(20, 21, 22, 23, 24), (10, 11, 12, 15), (99, 98)]:
            assert clone.match(sample) == matcher.match(sample)

    def test_requires_fingerprints(self):
        with pytest.raises(ValueError):
            SampleMatcher({})

    def test_database_of_empty_fingerprints_rejects_every_sample(self):
        results = SampleMatcher({1: (), 2: ()}).match_many([(1, 2), ()])
        assert [r.accepted for r in results] == [False, False]

    def test_ids_outside_int64_are_unknown_cells(self, matcher):
        """A hostile id cannot overflow the int64 sentinels: it is an
        unknown cell, like any id outside the database."""
        for huge in (2 ** 70, -2 ** 63, -2 ** 70):
            got = matcher.match((huge, 20, 21, 22, 23, 24))
            assert got == matcher.match((99, 20, 21, 22, 23, 24))
            assert matcher.candidate_stations((huge, 20)) == {2}

    def test_database_ids_at_the_int64_edges_equal_the_oracle(self):
        """Padding cannot leave int64 whatever the database holds: ids
        at both ends of int64 (and next to them) build a matcher whose
        verdicts equal the spec-literal oracle's."""
        from repro.testkit import OracleMatcher
        from repro.wire import database_from_dict

        lo, hi = -(2 ** 63), 2 ** 63 - 1
        fingerprints = {
            1: (lo, 5),
            2: (hi, lo + 1, 7, 5),
            3: (hi - 1, 7, hi, lo),
            4: (lo + 2, 9),
        }
        payload = {"v": 1, "stops": {
            str(sid): list(towers) for sid, towers in fingerprints.items()
        }}
        database = database_from_dict(payload)
        assert database.as_dict() == fingerprints
        matcher = SampleMatcher(database.as_dict())
        oracle = OracleMatcher(fingerprints)
        probes = [
            (lo, 5), (hi, lo + 1, 7, 5), (hi - 1, 7, hi, lo), (lo + 2, 9),
            (5, lo), (7, hi), (lo, hi, 5, 7), (lo + 1, lo + 2), (hi,),
            (2 ** 70, lo, 5), (), (-1, -2, -3, lo, 5),
        ]
        assert matcher.match_many(probes) == [oracle.match(p) for p in probes]
        assert matcher.match((lo, 5)).station_id == 1
        assert SampleMatcher({1: (lo, 5)}).match((lo, 5)).score == 2.0

    def test_rejects_repeated_fingerprint_ids(self):
        """The common-id bound needs distinct fingerprint ids, as
        FingerprintDatabase already guarantees."""
        with pytest.raises(ValueError):
            SampleMatcher({1: (10, 11, 10)})
        matcher = SampleMatcher({1: (10, 11)})
        with pytest.raises(ValueError):
            matcher.rebuild({1: (10, 11), 2: (12, 12)})

    def test_common_id_count(self):
        assert common_id_count([1, 2, 3], [2, 3, 4]) == 2


class TestFingerprintIdsOutsideInt64:
    @pytest.mark.parametrize("bad", [2 ** 63, -(2 ** 63) - 1, 2 ** 70])
    def test_database_raises_value_error(self, bad):
        db = FingerprintDatabase()
        with pytest.raises(ValueError, match="int64"):
            db.set_fingerprint(1, (5, bad))
        with pytest.raises(ValueError, match="int64"):
            db.set_from_samples(1, [(5, bad), (bad, 5)])
        db.set_fingerprint(1, (5, 6))
        with pytest.raises(ValueError, match="int64"):
            db.update_online(1, (5, 6, bad))
        assert db.fingerprint(1) == (5, 6)


class TestEndToEndDiscrimination:
    def test_survey_database_identifies_stops(self, small_city, scanner, database, config):
        """Per-sample matching accuracy on the small city stays high."""
        matcher = SampleMatcher(database.as_dict(), config.matching)
        rng = np.random.default_rng(77)
        total = correct = 0
        for station in small_city.registry.stations:
            for rep in range(3):
                platform = station.stops[rep % 2]
                obs = scanner.scan(platform.position, rng)
                result = matcher.match(obs.tower_ids)
                total += 1
                if result.station_id == station.station_id:
                    correct += 1
        assert correct / total > 0.9


def _decode(codes):
    """The (query, fingerprint) rows of each pattern code: fingerprint
    ids 0..6, query row i holds the id its digit names or an id (100 + i)
    the fingerprint lacks."""
    digits = (codes[:, None] >> (3 * np.arange(6, -1, -1))) & 7
    query = np.where(digits > 0, digits - 1, 100 + np.arange(7))
    ref = np.broadcast_to(np.arange(7), query.shape)
    return digits, query, np.ascontiguousarray(ref)


class TestPatternTable:
    @pytest.mark.parametrize("config", [
        MatchingConfig(),
        MatchingConfig(mismatch_penalty=0.2, gap_penalty=0.45),
        MatchingConfig(match_score=1.37, mismatch_penalty=0.73,
                       gap_penalty=0.11),
    ], ids=["default", "gap-ne-mismatch", "match-ne-1"])
    def test_every_pattern_scores_bit_equal_to_the_kernel(self, config):
        table = matching._build_pattern_table(
            config.match_score, config.mismatch_penalty, config.gap_penalty
        )
        codes = table.codes.astype(np.int64)
        assert codes.size == 130_922
        assert np.all(np.diff(codes) > 0)
        digits, query, ref = _decode(codes)
        # Every code is a pattern: no fingerprint position used twice.
        used = np.sort(np.where(digits > 0, digits, -np.arange(1, 8)), axis=1)
        assert np.all(np.diff(used, axis=1) > 0)
        want = matching._sw_kernel(query, ref, config)
        got = table.scores[table.index]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_import_and_construction_build_no_table(self):
        src = str(Path(matching.__file__).resolve().parents[2])
        code = (
            "import repro.core.matching as m\n"
            "assert not m._PATTERN_TABLES\n"
            "m.SampleMatcher({1: (1, 2, 3)})\n"
            "assert not m._PATTERN_TABLES\n"
            "m.SampleMatcher({1: (1, 2, 3)}).match((1, 2, 3))\n"
            "assert len(m._PATTERN_TABLES) == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_table_cache_is_bounded_and_keyed_by_scores(self):
        saved = dict(matching._PATTERN_TABLES)
        try:
            matching._PATTERN_TABLES.clear()
            for gap in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
                matching._pattern_table(MatchingConfig(gap_penalty=gap))
            assert len(matching._PATTERN_TABLES) == matching._PATTERN_MEMO_MAX
            # γ is not part of the key: one table serves every threshold.
            a = matching._pattern_table(MatchingConfig(gap_penalty=0.6))
            b = matching._pattern_table(
                MatchingConfig(gap_penalty=0.6, accept_threshold=3.0)
            )
            assert a is b
        finally:
            matching._PATTERN_TABLES.clear()
            matching._PATTERN_TABLES.update(saved)

    def test_seed7_campaign_matches_without_kernel_calls(self, monkeypatch):
        from repro.city import build_city
        from repro.sim.world import World
        from repro.util.units import parse_hhmm

        from conftest import SMALL_SPEC

        world = World(city=build_city(SMALL_SPEC), seed=7)
        result = world.run(parse_hhmm("07:30"), parse_hhmm("08:10"),
                           with_official_feed=False)
        batches = [[s.tower_ids for s in u.samples] for u in result.uploads]
        assert sum(map(len, batches)) > 100
        calls = []
        kernel = matching._sw_kernel

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(matching, "_sw_kernel", counting)
        matcher = SampleMatcher(world.database.as_dict(), world.config.matching)
        verdicts = [matcher.match_many(batch) for batch in batches]
        assert calls == []
        assert any(r.accepted for batch in verdicts for r in batch)

    def test_fallback_pairs_go_to_the_kernel(self, monkeypatch):
        calls = []
        kernel = matching._sw_kernel

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(matching, "_sw_kernel", counting)
        matcher = SampleMatcher({
            1: (10, 11, 12, 13),
            2: tuple(range(20, 29)),             # longer than 7 ids
        })
        matcher.match_many([(10, 11, 12)])
        assert calls == []
        matcher.match_many([(10, 11, 10, 12)])     # repeats a database id
        matcher.match_many([(20, 21, 22)])         # long fingerprint
        matcher.match_many([(1, 2, 3, 4, 5, 6, 7, 10, 11)])  # id past 7th
        assert calls == [1, 1, 1]
        # Unknown ids past the 7th position are padding: no kernel.
        matcher.match_many([(10, 11, 1, 2, 3, 4, 5, 6, 7)])
        assert calls == [1, 1, 1]


def _record_one_by_one(registry, results, pools):
    """Record the matcher_* families sample by sample into the
    instruments a matcher registered in ``registry``."""
    samples = registry.counter("matcher_samples_total")
    accepted = registry.counter("matcher_samples_accepted")
    pairs = registry.counter("matcher_pairs_scored")
    candidates = registry.histogram(
        "matcher_candidates_per_sample", buckets=(0, 1, 2, 5, 10, 20, 50)
    )
    verdicts = registry.labeled_counter("matcher_verdicts_total", ("verdict",))
    yes, no = verdicts.labels("accepted"), verdicts.labels("rejected")
    stops = registry.labeled_counter("matcher_stop_matches_total", ("stop",))
    for result, pool in zip(results, pools):
        samples.inc()
        candidates.observe(pool)
        pairs.inc(pool)
        if result.accepted:
            accepted.inc()
            yes.inc()
            stops.labels(str(result.station_id)).inc()
        else:
            no.inc()


class TestBatchRecording:
    FINGERPRINTS = {
        1: (10, 11, 12, 13, 14),
        2: (20, 21, 22, 23, 24),
        3: (10, 11, 12, 15, 16),
        4: (30, 31, 32),
    }
    BATCH = [
        (20, 21, 22), (10, 11, 12, 15), (30, 31, 32), (99,), (),
        (20, 21, 22, 23), (10, 11, 12, 13), (30, 31), (12, 13, 14),
        (10, 11, 12, 15, 16), (20, 21, 22),
    ]

    @pytest.mark.parametrize("cap", [None, 2])
    def test_one_batch_records_as_sample_by_sample(self, cap):
        """One ``match_many`` leaves the registry (document and
        exposition, byte for byte) that per-sample recording leaves,
        also past the stop family's cardinality cap."""
        batch_registry, reference = MetricsRegistry(), MetricsRegistry()
        if cap is not None:
            for registry in (batch_registry, reference):
                registry.labeled_counter(
                    "matcher_stop_matches_total", ("stop",), max_children=cap
                )
        matcher = SampleMatcher(self.FINGERPRINTS, registry=batch_registry)
        SampleMatcher(self.FINGERPRINTS, registry=reference)   # registers
        results = matcher.match_many(self.BATCH)
        pools = [len(matcher.candidate_stations(s)) for s in self.BATCH]
        _record_one_by_one(reference, results, pools)
        assert batch_registry.as_dict() == reference.as_dict()
        assert (batch_registry.render_prometheus()
                == reference.render_prometheus())
        assert {r.station_id for r in results} == {None, 1, 2, 3, 4}
        if cap is not None:     # stops 4, 1, 4, 1 each missed the cap
            assert batch_registry.as_dict()["labeled"][
                "matcher_stop_matches_total"]["overflow_total"] == 4
