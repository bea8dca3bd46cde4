"""Candidate planning for per-sample matching (§III-C1).

Per-sample matching is the backend's hottest path: naively, every
uploaded cellular sample runs a Smith-Waterman alignment against every
stop fingerprint, O(stops × |seq|²) per sample.  Two observations make
most of that cost avoidable without changing a single verdict:

* **Zero-overlap pruning is exact.**  Smith-Waterman only ever adds a
  positive term on a *matching* cell id; a fingerprint sharing no id
  with the sample can accumulate only mismatch/gap penalties, which the
  local-alignment clamp floors at 0.  Its score is therefore exactly
  0.0 < γ, so it can never be accepted *and* never participate in a
  tie-break (ties only form at or above γ).  The stations sharing at
  least one cell id are the *logical candidate pool* the ``matcher_*``
  accounting counts.

* **The common-id bound is exact.**  Fingerprint ids are distinct, so
  every match step of an alignment consumes a different common id and
  a pair with ``c`` common ids scores at most ``c × match_score``
  (:func:`~repro.core.matching.min_common_ids` turns that into the
  minimum ``c`` worth scoring).  :class:`MatchIndex` holds a dense
  tower × station incidence matrix, so one product gives every
  (sample, station) pair's common-id count for a whole upload: the
  pool, the pruning and the tie-break all read it.  The product sums
  the incidence rows of each sample's ids instead of multiplying
  one-hot rows through BLAS, whose threads made a 300-sample product
  ~10× slower than one thread on a 2-core host.

* **Rank space is exact.**  Common-id counts and Smith-Waterman scores
  depend only on which ids are equal, so :meth:`MatchIndex.ranks`
  replaces every id by its row in the sorted database ids, and every id
  outside the database (also one outside int64, which no fingerprint
  can hold) by one shared "unknown" value that equals no row.  The
  matcher's per-station position table and the match-pattern table
  (:mod:`repro.core.matching`) work on these ranks; the pattern table
  answers a pair only while its query holds no database id of the
  fingerprint twice, no known id past its 7th position and the
  fingerprint has at most 7 ids, and the kernel scores the rest.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

import numpy as np

__all__ = ["MatchIndex", "canonical_key"]

#: Ids summed per gather in :meth:`MatchIndex.common_counts`: a block's
#: count fits int8 whatever it holds.
_SUM_BLOCK = 8


def canonical_key(tower_ids: Sequence[int]) -> Tuple[int, ...]:
    """The canonical, hashable form of an RSS-ordered cell-id sequence.

    Samples arrive as lists, tuples or numpy rows; the key is the plain
    int tuple so equal sequences hash equally regardless of the
    container (or numpy scalar type) they arrived in.  The RSS *order*
    is preserved — it is part of what Smith-Waterman scores.
    """
    return tuple(int(t) for t in tower_ids)


class MatchIndex:
    """Dense tower × station incidence over a fingerprint DB.

    ``station_ids`` are sorted and ``towers`` are the sorted distinct
    cell ids; ``rank`` maps each of them to its row, and
    ``incidence[t, s]`` is 1 when station ``s``'s fingerprint contains
    tower ``t`` (int8).  :meth:`common_counts` multiplies a batch of
    samples' one-hot rows by it; :meth:`candidates` is the one-sample
    view.  The index is immutable once built; rebuild it when the
    database changes.
    """

    __slots__ = ("station_ids", "towers", "rank", "incidence", "_rows")

    def __init__(self, fingerprints: Dict[int, Sequence[int]]):
        if not fingerprints:
            raise ValueError("match index needs a non-empty fingerprint database")
        self.station_ids = np.array(sorted(fingerprints), dtype=np.int64)
        towers = sorted({int(t) for seq in fingerprints.values() for t in seq})
        self.towers = np.array(towers, dtype=np.int64)
        self.rank = {tower: row for row, tower in enumerate(towers)}
        # One zero row past the last tower, for ids that set nothing.
        self._rows = np.zeros(
            (len(towers) + 1, len(self.station_ids)), dtype=np.int8
        )
        self.incidence = self._rows[:-1]
        for ordinal, sid in enumerate(self.station_ids.tolist()):
            rows = [self.rank[int(t)] for t in fingerprints[sid]]
            self.incidence[rows, ordinal] = 1

    def __len__(self) -> int:
        """Number of indexed stations."""
        return len(self.station_ids)

    @property
    def tower_count(self) -> int:
        """Number of distinct cell ids across all fingerprints."""
        return len(self.towers)

    def stations_for(self, tower_id: int) -> Tuple[int, ...]:
        """The stations whose fingerprint contains ``tower_id`` (sorted)."""
        row = self.rank.get(int(tower_id))
        if row is None:
            return ()
        return tuple(self.station_ids[self.incidence[row] > 0].tolist())

    def ranks(self, tower_ids: Iterable[int]) -> np.ndarray:
        """Each id's :attr:`rank`, or :attr:`tower_count` for an id
        outside the database, as one int64 array.

        One ``searchsorted`` of all ids into :attr:`towers`.  An id that
        numpy cannot hold as int64 (a hostile upload can send one) is
        outside the database too; a batch holding one is ranked id by id.
        """
        ids = list(tower_ids)
        try:
            values = np.array(ids, dtype=np.int64)
        except OverflowError:
            blank = len(self.towers)
            return np.array(
                [self.rank.get(int(t), blank) for t in ids], dtype=np.int64
            )
        if not len(self.towers):
            return np.zeros(len(values), dtype=np.int64)
        rows = np.searchsorted(self.towers, values)
        rows[rows == len(self.towers)] = 0
        rows[self.towers[rows] != values] = len(self.towers)
        return rows

    def common_counts(self, ranks: np.ndarray) -> np.ndarray:
        """``(P, S)`` common-id counts for ``(P, n)`` padded rank rows.

        Each row holds the samples' ids as :meth:`ranks` gives them,
        :attr:`tower_count` standing for an id outside the database and
        for padding.  The result is the row's one-hot vector over
        ``towers`` times :attr:`incidence`: the incidence rows of each
        sample's ids, gathered and summed, where a repeated id counts
        once (so counts are distinct shared ids, as
        :func:`~repro.core.matching.common_id_count` defines them) and
        :attr:`tower_count` counts nothing.  Rows are summed
        :data:`_SUM_BLOCK` ids at a time, in int8 within a block, so
        memory stays ``(P, S)`` bytes per block however long the rows
        are; the counts are int8 for rows of at most one block and
        int32 past that.
        """
        blank = len(self.towers)
        ranks = np.sort(ranks, axis=1)
        tail = ranks[:, 1:]
        tail[tail == ranks[:, :-1]] = blank
        counts = np.add.reduce(
            self._rows[ranks[:, :_SUM_BLOCK]], axis=1, dtype=np.int8
        )
        for lo in range(_SUM_BLOCK, ranks.shape[1], _SUM_BLOCK):
            counts = counts + np.add.reduce(
                self._rows[ranks[:, lo: lo + _SUM_BLOCK]], axis=1,
                dtype=np.int32,
            )
        return counts

    def candidates(self, tower_ids: Iterable[int]) -> Set[int]:
        """Stations sharing at least one cell id with the sample.

        Only these can score above zero; the differential oracle scans
        the whole database and must agree — any station left out here
        that could still win is a bug.
        """
        counts = self.common_counts(self.ranks(tower_ids)[None, :])[0]
        return set(self.station_ids[counts > 0].tolist())
