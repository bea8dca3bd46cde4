"""Differential tests: the production matcher against the oracle's scan.

``SampleMatcher.match_many`` plans a batch with one incidence product,
prunes pairs below the common-id bound, scores the rest from the
match-pattern table, and sends the pairs the table cannot answer
(a query repeating a database id, a known id past a query's 7th
position, a fingerprint longer than 7 ids) to the skewed kernel.  None
of that may show: every verdict (station, score bits, common ids) and
every ``matcher_*`` counter must equal what
:class:`~repro.testkit.OracleMatcher` — a whole-database scan with the
scalar Smith-Waterman — computes, on random databases (fingerprints
longer than 7 ids included), hostile samples (duplicate, negative,
unknown, below-database-minimum and outside-int64 ids, empty and
over-long samples), batches with repeats within and across batches,
and random scoring constants with non-integer γ / match ratios.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatchingConfig
from repro.core.matching import SampleMatcher, min_common_ids
from repro.obs.metrics import MetricsRegistry
from repro.testkit import OracleMatcher

#: Database ids live in [0, 20]; samples reach below and above them
#: (unknown cells, down to the query-pad value), repeat ids, and carry
#: the odd id outside int64.
databases = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=20), min_size=1,
             max_size=7, unique=True).map(tuple),
    min_size=1, max_size=8,
)
samples = st.lists(
    st.one_of(
        st.integers(min_value=-6, max_value=26),
        st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 70, -2 ** 70]),
    ),
    min_size=0, max_size=9,
).map(tuple)
#: Fingerprints up to 11 ids, so some are longer than the pattern table.
long_databases = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=20), min_size=1,
             max_size=11, unique=True).map(tuple),
    min_size=1, max_size=8,
)
#: Samples of mostly database ids, up to 12 long: repeated database ids
#: and known ids past the 7th position are common.
hostile_samples = st.lists(
    st.integers(min_value=-2, max_value=22), min_size=0, max_size=12,
).map(tuple)
configs = st.builds(
    MatchingConfig,
    match_score=st.floats(min_value=0.05, max_value=3.0),
    mismatch_penalty=st.floats(min_value=0.0, max_value=2.0),
    gap_penalty=st.floats(min_value=0.0, max_value=2.0),
    accept_threshold=st.floats(min_value=0.01, max_value=6.0),
)


def _verdict(result):
    return result.station_id, result.score.hex(), result.common_ids


def _expected_registry(oracle_results):
    """The matcher_* families as a one-by-one scan would record them."""
    registry = MetricsRegistry()
    samples_total = registry.counter("matcher_samples_total")
    accepted = registry.counter("matcher_samples_accepted")
    pairs = registry.counter("matcher_pairs_scored")
    pools = registry.histogram(
        "matcher_candidates_per_sample", buckets=(0, 1, 2, 5, 10, 20, 50)
    )
    verdicts = registry.labeled_counter("matcher_verdicts_total", ("verdict",))
    verdicts.labels("accepted"), verdicts.labels("rejected")   # as the matcher
    stops = registry.labeled_counter("matcher_stop_matches_total", ("stop",))
    for result, pool in oracle_results:
        samples_total.inc()
        pools.observe(pool)
        pairs.inc(pool)
        if result.accepted:
            accepted.inc()
            verdicts.labels("accepted").inc()
            stops.labels(str(result.station_id)).inc()
        else:
            verdicts.labels("rejected").inc()
    return registry


def _matcher_families(registry):
    snapshot = registry.as_dict()
    return (
        {k: v for k, v in snapshot["counters"].items()
         if k.startswith("matcher_")},
        snapshot["histograms"]["matcher_candidates_per_sample"],
        {k: v["children"] for k, v in snapshot["labeled"].items()
         if k.startswith("matcher_")},
    )


def _check_batches(db, pool, batch_picks, config):
    """Match batches drawn from ``pool`` and compare every verdict and
    the matcher_* families with the oracle's one-by-one scan."""
    # Batches draw from a small sample pool, so repeats happen both
    # within a batch and across batches; a repeat in a later batch is
    # scored again and must still equal the oracle.
    batches = [[pool[i % len(pool)] for i in picks] for picks in batch_picks]
    registry = MetricsRegistry()
    matcher = SampleMatcher(db, config, registry=registry)
    oracle = OracleMatcher(db, config)
    expected = []
    for batch in batches:
        got = matcher.match_many(batch)
        want = [oracle.match_with_pool(sample) for sample in batch]
        assert [_verdict(r) for r in got] == [_verdict(r) for r, _ in want]
        expected.extend(want)
    assert _matcher_families(registry) == _matcher_families(
        _expected_registry(expected)
    )


batch_picks = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=8),
    min_size=1, max_size=4,
)


class TestMatchManyEqualsOracle:
    @pytest.mark.property
    @settings(deadline=None)
    @given(databases, st.lists(samples, min_size=1, max_size=6),
           batch_picks, configs)
    def test_verdicts_and_accounting(self, db, pool, picks, config):
        _check_batches(db, pool, picks, config)

    @pytest.mark.property
    @settings(deadline=None)
    @given(long_databases, st.lists(hostile_samples, min_size=1, max_size=6),
           batch_picks, configs)
    def test_table_fallbacks(self, db, pool, picks, config):
        """Repeated database ids, known ids past the 7th position and
        fingerprints longer than 7 ids go to the kernel; the rest read
        the pattern table.  Both must equal the oracle."""
        _check_batches(db, pool, picks, config)

    @pytest.mark.property
    @settings(deadline=None)
    @given(long_databases, st.lists(hostile_samples, min_size=1, max_size=6),
           batch_picks)
    def test_table_fallbacks_at_the_default_config(self, db, pool, picks):
        _check_batches(db, pool, picks, MatchingConfig())

    @pytest.mark.parametrize("huge", [2 ** 63, -(2 ** 63) - 1, 2 ** 70])
    def test_ids_outside_int64_are_unknown_cells(self, huge):
        """A batch holding an id numpy cannot hold as int64 is ranked id
        by id, and that id is an unknown cell."""
        db = {1: (1, 2, 3), 2: (4, 5, 6, 7, 8, 9, 10, 11), 3: (3, 1)}
        batch = [(1, 2, 3), (huge, 4, 5, 6), (3, huge, 1, 1), (huge,)]
        swapped = [tuple(99 if t == huge else t for t in s) for s in batch]
        registry, reference = MetricsRegistry(), MetricsRegistry()
        got = SampleMatcher(db, registry=registry).match_many(batch)
        want = SampleMatcher(db, registry=reference).match_many(swapped)
        oracle = OracleMatcher(db, MatchingConfig())
        assert [_verdict(r) for r in got] == [_verdict(r) for r in want]
        assert [_verdict(r) for r in got] == [
            _verdict(oracle.match(s)) for s in batch
        ]
        assert registry.as_dict() == reference.as_dict()

    @pytest.mark.property
    @settings(deadline=None)
    @given(databases, samples, configs)
    def test_single_match_is_a_batch_of_one(self, db, sample, config):
        matcher = SampleMatcher(db, config)
        assert _verdict(matcher.match(sample)) == _verdict(
            OracleMatcher(db, config).match(sample)
        )


class TestCommonIdBound:
    @pytest.mark.parametrize("gamma, match, need", [
        (2.0, 1.0, 2),                  # the paper's γ = 2
        (2.4, 1.0, 3),                  # non-integer ratio rounds up
        (float(2.0 - 2 ** -51), 1.0, 2),
        (0.5, 1.0, 1),                  # never below one shared id
        (3.0, 1.5, 2),
    ])
    def test_min_common_ids(self, gamma, match, need):
        config = MatchingConfig(accept_threshold=gamma, match_score=match)
        assert min_common_ids(config) == need

    def test_ratio_overflow_prunes_everything(self):
        config = MatchingConfig(accept_threshold=1e300, match_score=1e-300)
        assert min_common_ids(config) > 10 ** 17

    @pytest.mark.parametrize("bad", [
        {"match_score": 0.0},
        {"accept_threshold": 0.0},
        {"mismatch_penalty": -0.1},
        {"gap_penalty": float("nan")},
    ])
    def test_rejects_configs_outside_the_proven_domain(self, bad):
        with pytest.raises(ValueError):
            SampleMatcher({1: (1, 2)}, MatchingConfig(**bad))
