"""Tests for the conformance testkit: oracles, golden traces, referee.

The testkit referees every future rewrite of the `core/` estimators, so
it gets its own tests: the oracles must be right about the spec, the
trace machinery must be canonical, and the differential runner must
actually fail when an implementation diverges.
"""

import json

import numpy as np
import pytest

from repro.config import ClusteringConfig, MatchingConfig
from repro.core import BackendServer
from repro.core.clustering import (
    MatchedSample,
    SampleCluster,
    cluster_trip_samples,
)
from repro.core.matching import MatchResult, SampleMatcher, batch_smith_waterman
from repro.core.trip_mapping import DROP_EPSILON, map_trip
from repro.phone.cellular import CellularSample
from repro.phone.trip_recorder import TripUpload
from repro.testkit import (
    OracleMatcher,
    diff_traces,
    load_trace,
    oracle_cluster_trip_samples,
    oracle_map_variants,
    oracle_smith_waterman,
    render_trace,
    run_differential,
    write_trace,
)
from repro.testkit.conformance import check_golden, record_golden
from repro.testkit.golden import _norm, default_trace_path, trace_from_run
from repro.testkit.scenarios import (
    TableConstraint,
    build_golden_city,
    random_clustering_scenario,
    random_mapping_scenario,
    random_matching_scenario,
    run_golden,
)


def _matched(time_s: float, station: int, score: float) -> MatchedSample:
    return MatchedSample(
        sample=CellularSample(time_s=time_s, tower_ids=(1, 2)),
        match=MatchResult(station_id=station, score=score, common_ids=2),
    )


class TestOracleSmithWaterman:
    def test_table_i_worked_example(self):
        assert round(
            oracle_smith_waterman([1, 2, 3, 4, 5], [1, 7, 3, 5]), 1
        ) == 2.4

    def test_empty_sequences_score_zero(self):
        assert oracle_smith_waterman([], [1, 2]) == 0.0
        assert oracle_smith_waterman([1, 2], []) == 0.0

    def test_exactly_matches_optimized_on_random_pairs(self):
        rng = np.random.default_rng(11)
        config = MatchingConfig()
        for _ in range(50):
            a = [int(x) for x in rng.integers(-5, 15, size=rng.integers(0, 9))]
            b = [int(x) for x in rng.integers(-5, 15, size=rng.integers(0, 9))]
            assert oracle_smith_waterman(a, b, config) == batch_smith_waterman(
                [a], [b], config
            )[0]


class TestOracleMatcher:
    def test_common_id_tiebreak_prefers_more_shared_towers(self):
        # Both stops align [1, 2, 3] perfectly (score 3), but stop 9
        # shares one more id with the sample overall.
        fingerprints = {5: (1, 2, 3, 8), 9: (1, 2, 3, 4)}
        oracle = OracleMatcher(fingerprints)
        result = oracle.match((1, 2, 3, 4))
        assert result.station_id == 9
        assert result.common_ids == 4

    def test_full_tie_breaks_to_smaller_station_id(self):
        fingerprints = {7: (1, 2, 3), 3: (1, 2, 3)}
        assert OracleMatcher(fingerprints).match((1, 2, 3)).station_id == 3

    def test_below_gamma_is_rejected(self):
        oracle = OracleMatcher({4: (1, 2, 3, 4, 5)})
        result = oracle.match((1,))             # best score 1 < gamma=2
        assert result.station_id is None
        assert not result.accepted


class TestOracleClustering:
    def test_newest_cluster_wins_ties_like_optimized(self):
        # Two singleton clusters equidistant in time from a third sample
        # that matches neither station: pure time-term tie. Optimized
        # path resolves to the newest cluster; the oracle must agree.
        config = ClusteringConfig()
        samples = [
            _matched(0.0, 1, 5.0),
            _matched(20.0, 2, 5.0),
            _matched(10.0, 3, 5.0),
        ]
        optimized = cluster_trip_samples(samples, config)
        oracle = oracle_cluster_trip_samples(samples, config)
        assert [c.samples for c in optimized] == oracle

    def test_no_staleness_prune_in_oracle(self):
        # A sample far beyond 2*t0 of everything must open a new cluster
        # in both implementations (prune or no prune).
        config = ClusteringConfig()
        samples = [_matched(0.0, 1, 5.0), _matched(500.0, 1, 5.0)]
        optimized = cluster_trip_samples(samples, config)
        oracle = oracle_cluster_trip_samples(samples, config)
        assert len(optimized) == len(oracle) == 2
        assert [c.samples for c in optimized] == oracle


class TestOracleMapping:
    def test_reports_every_optimal_variant(self):
        # Two stations with identical weights and a symmetric R table:
        # both single-cluster choices are optimal.
        cluster = SampleCluster(
            samples=[_matched(0.0, 1, 4.0), _matched(1.0, 2, 4.0)]
        )
        constraint = TableConstraint({})
        outcome = oracle_map_variants([cluster], constraint)
        assert outcome is not None
        score, variants = outcome
        assert score == pytest.approx(2.0)      # p=0.5 * s=4.0
        assert len(variants) == 2
        assert {v[0].station_id for v in variants} == {1, 2}

    def test_drop_rule_matches_map_trip(self):
        # Second cluster's only candidate is unreachable (R=0): the
        # optimized mapper drops it; the oracle's variants must agree.
        first = SampleCluster(samples=[_matched(0.0, 1, 5.0)])
        second = SampleCluster(samples=[_matched(60.0, 2, 5.0)])
        constraint = TableConstraint({(1, 1): 0.5, (2, 2): 0.5})
        mapped = map_trip([first, second], constraint)
        outcome = oracle_map_variants([first, second], constraint)
        assert outcome is not None
        score, variants = outcome
        assert mapped is not None
        assert mapped.score == score
        assert mapped.stops in variants
        assert [s.station_id for s in mapped.stops] == [1]

    def test_unmappable_when_no_candidates(self):
        empty = SampleCluster(
            samples=[
                MatchedSample(
                    sample=CellularSample(time_s=0.0, tower_ids=(9,)),
                    match=MatchResult(station_id=None, score=0.0, common_ids=0),
                )
            ]
        )
        assert oracle_map_variants([empty], TableConstraint({})) is None
        assert map_trip([empty], TableConstraint({})) is None

    def test_drop_epsilon_shared_constant(self):
        assert DROP_EPSILON == 1e-9


class TestScenarioGenerators:
    def test_deterministic_given_seed(self):
        a = random_matching_scenario(np.random.default_rng(5))
        b = random_matching_scenario(np.random.default_rng(5))
        assert a.fingerprints == b.fingerprints
        assert a.samples == b.samples

    def test_clustering_scenarios_cover_staleness_horizon(self):
        # At least one generated scenario must include an inter-sample
        # gap beyond 2*t0, or the no-prune oracle check is vacuous.
        config = ClusteringConfig()
        saw_stale_gap = False
        for seed in range(30):
            scenario = random_clustering_scenario(np.random.default_rng(seed))
            times = sorted(m.time_s for m in scenario.matched)
            if any(
                b - a > 2.0 * config.max_interval_s
                for a, b in zip(times, times[1:])
            ):
                saw_stale_gap = True
                break
        assert saw_stale_gap

    def test_mapping_scenarios_reach_zero_weight_links(self):
        saw_zero = False
        for seed in range(10):
            scenario = random_mapping_scenario(np.random.default_rng(seed))
            if any(w == 0.0 for w in scenario.constraint.table.values()):
                saw_zero = True
                break
        assert saw_zero


class TestDifferentialRunner:
    def test_clean_on_the_real_implementation(self):
        assert run_differential(scenarios=5, seed=1) == []

    def test_catches_a_seeded_divergence(self, monkeypatch):
        # Sabotage the optimized matcher: break the common-id tiebreak.
        import repro.testkit.conformance as conformance

        class BrokenMatcher(SampleMatcher):
            def match(self, tower_ids):
                result = super().match(tower_ids)
                if result.accepted:
                    return MatchResult(
                        station_id=result.station_id,
                        score=result.score,
                        common_ids=result.common_ids + 1,
                    )
                return result

        monkeypatch.setattr(conformance, "SampleMatcher", BrokenMatcher)
        failures = conformance.run_differential(scenarios=5, seed=1)
        assert failures
        assert any("matching" in failure for failure in failures)


class TestKeepMatchesHook:
    def test_matches_recorded_only_when_asked(self, small_city, database, config):
        server = BackendServer(
            small_city.network, small_city.route_network, database, config
        )
        station = small_city.registry.stations[0]
        fingerprint = database.fingerprint(station.station_id)
        samples = tuple(
            CellularSample(time_s=10.0 * k, tower_ids=tuple(fingerprint))
            for k in range(3)
        )
        silent = server.receive_trip(TripUpload("plain", samples))
        assert silent.matches is None
        recorded = server.receive_trip(
            TripUpload("observed", samples), keep_matches=True
        )
        assert recorded.matches is not None
        assert len(recorded.matches) == len(samples)
        assert all(isinstance(m, MatchResult) for m in recorded.matches)
        # The hook is pure observation: identical pipeline outcome.
        assert recorded.accepted_samples == silent.accepted_samples
        assert recorded.discarded_samples == silent.discarded_samples


class TestGoldenTraceMachinery:
    def test_norm_collapses_negative_zero_and_rounds(self):
        assert _norm(-0.0) == 0.0
        assert str(_norm(-0.0)) == "0.0"
        assert _norm(0.1234567894) == 0.123456789

    def test_render_is_canonical_and_stable(self, tmp_path):
        trace = {"version": 1, "b": [1.5, {"y": 2, "x": 1}], "a": -0.0}
        text = render_trace(trace)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        path = tmp_path / "t.json"
        write_trace(trace, path)
        assert render_trace(load_trace(path)) == text

    def test_diff_traces_reports_paths(self):
        base = {"version": 1, "stats": {"trips": 3}, "reports": [{"k": 1.0}]}
        same = json.loads(json.dumps(base))
        assert diff_traces(base, same) == []
        changed = json.loads(json.dumps(base))
        changed["stats"]["trips"] = 4
        changed["reports"][0]["k"] = 2.0
        diff = diff_traces(base, changed)
        assert any("stats.trips" in line for line in diff)
        assert any("reports[0].k" in line for line in diff)

    def test_version_mismatch_is_terminal(self):
        diff = diff_traces({"version": 1}, {"version": 2})
        assert len(diff) == 1
        assert "schema mismatch" in diff[0]

    def test_missing_fixture_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--record"):
            check_golden(tmp_path / "nope.json")


class TestGoldenEndToEnd:
    def test_committed_fixture_matches_serial_run(self):
        """The committed golden trace must replay byte-for-byte (serial)."""
        assert check_golden() == []

    def test_fixture_is_canonically_rendered(self):
        path = default_trace_path()
        trace = load_trace(path)
        assert render_trace(trace) == path.read_text(encoding="utf-8")

    @pytest.mark.slow
    def test_record_golden_round_trips(self, tmp_path):
        city = build_golden_city()
        trace = trace_from_run(run_golden(city=city))
        fixture = tmp_path / "golden.json"
        path = record_golden(fixture)
        assert render_trace(load_trace(path)) == render_trace(trace)
