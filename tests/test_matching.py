"""Tests for Smith-Waterman matching (§III-C1, Table I)."""

import numpy as np
import pytest

from repro.config import MatchingConfig
from repro.core.fingerprint import FingerprintDatabase
from repro.core.matching import (
    SampleMatcher,
    batch_smith_waterman,
    common_id_count,
)
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
