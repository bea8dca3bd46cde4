"""Phone-style cellular scan: the visible tower set ordered by RSS.

This is the measurement primitive of the whole system: "the mobile
phone normally can capture the signals from multiple cell towers at one
time ... We order their cell IDs according to their Received Signal
Strengths and use such an ordered set to signature each bus stop"
(§III-A).

A scan uses randomness for one thing only: one temporal-noise value per
candidate tower, and which towers are candidates depends on the
receiver alone.  So a scan splits into a *draw*, which takes that noise
at the scan's place in the random stream, and an *evaluate*, which may
run later and batched with other scans: the shadow field is keyed, not
drawn from the stream.  :meth:`CellularScanner.draw` and
:meth:`CellularScanner.evaluate` expose the two halves;
:meth:`CellularScanner.scan_many` is the same evaluation after one noise
draw for a whole chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio.propagation import PropagationModel
from repro.radio.towers import CellTower
from repro.util.rng import SeedLike, ensure_rng

# Scans per numpy pass of :meth:`CellularScanner.scan_many` and
# :meth:`CellularScanner.evaluate`.
SCAN_CHUNK = 64
# Candidate prefilter: beyond ~4 km a macro cell cannot clear the
# sensitivity floor in this model, so a scan skips the full RSS there.
# The candidate count also fixes how much noise stream a scan uses.
PREFILTER_M = 4000.0
# Slack below the sensitivity floor within which a candidate's RSS is
# recomputed with the scalar formula.  The numpy RSS differs from that
# formula by ~1e-14 dB, eight orders of magnitude less.
PRUNE_MARGIN_DB = 1e-6


def _strongest_first(pair: Tuple[float, int]) -> Tuple[float, int]:
    """Sort key of an ``(rss, tower_id)`` pair: descending RSS, then id."""
    return -pair[0], pair[1]


@dataclass(frozen=True)
class Observation:
    """One cellular scan: tower ids in descending-RSS order."""

    tower_ids: Tuple[int, ...]
    rss_dbm: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tower_ids) != len(self.rss_dbm):
            raise ValueError("tower_ids and rss_dbm must have equal length")
        if any(b > a for a, b in zip(self.rss_dbm, self.rss_dbm[1:])):
            raise ValueError("rss_dbm must be in descending order")

    def __len__(self) -> int:
        return len(self.tower_ids)

    @property
    def serving_tower(self) -> int:
        """The strongest (serving) cell."""
        if not self.tower_ids:
            raise ValueError("empty observation has no serving tower")
        return self.tower_ids[0]


class PendingScan(NamedTuple):
    """A noisy scan whose noise is drawn and whose field is not evaluated.

    ``towers`` are the receiver's candidates (tower indices within
    ``PREFILTER_M``, in tower order), ``distances`` their prefilter
    distances and ``noise`` the temporal noise drawn for each.
    """

    x: float
    y: float
    towers: np.ndarray
    distances: np.ndarray
    noise: np.ndarray


class CellularScanner:
    """Scans the tower field at a point and returns an :class:`Observation`.

    Towers below the receive sensitivity are invisible; at most
    ``config.max_visible`` strongest neighbours are reported, like a
    phone's neighbour-cell list.
    """

    def __init__(
        self,
        towers: Sequence[CellTower],
        propagation: PropagationModel,
        config: Optional[RadioConfig] = None,
    ):
        if not towers:
            raise ValueError("scanner needs at least one tower")
        self.towers: List[CellTower] = list(towers)
        self.propagation = propagation
        self.config = config or propagation.config
        self._x = np.array([t.position.x for t in self.towers], dtype=float)
        self._y = np.array([t.position.y for t in self.towers], dtype=float)
        self._tx_power = np.array([t.tx_power_dbm for t in self.towers], dtype=float)
        # Per tower x, y, transmit power (as floats) and id, for the
        # candidates that get the scalar formula.
        self._scalars = list(
            zip(
                self._x.tolist(),
                self._y.tolist(),
                self._tx_power.tolist(),
                [t.tower_id for t in self.towers],
            )
        )
        self._columns = propagation.columns([t.tower_id for t in self.towers])

    def scan(self, where: Point, rng: SeedLike = None) -> Observation:
        """One scan at ``where`` with temporal noise."""
        return self.scan_many([where], rng)[0]

    def scan_many(
        self, points: Sequence[Point], rng: SeedLike = None
    ) -> List[Observation]:
        """One noisy scan at each of ``points``, in order.

        Equal to ``[self.scan(p, rng) for p in points]``, observations and
        ``rng`` state alike: each scan draws one noise value per candidate
        tower, in tower order, and nothing else.  Scans run ``SCAN_CHUNK``
        at a time, so one numpy pass covers a chunk.
        """
        return self._scan_many(points, ensure_rng(rng))

    def mean_scan(self, where: Point) -> Observation:
        """Noise-free scan of the long-term mean field (for analysis)."""
        return self._scan_many([where], None)[0]

    def draw(self, where: Point, rng: SeedLike = None) -> PendingScan:
        """The random half of ``scan(where, rng)``, drawn now.

        Takes from ``rng`` exactly what that scan would (its candidates'
        noise) and nothing else; :meth:`evaluate` then gives the same
        observation.  The result does not depend on when it is evaluated,
        so draws may be interleaved with other uses of ``rng``.
        """
        distances = np.hypot(self._x - where.x, self._y - where.y)
        towers = np.flatnonzero(distances < PREFILTER_M)
        noise = ensure_rng(rng).normal(
            0.0, self.config.temporal_sigma_db, size=len(towers)
        )
        return PendingScan(where.x, where.y, towers, distances[towers], noise)

    def evaluate(self, pending: Sequence[PendingScan]) -> List[Observation]:
        """The observation of each drawn scan, in order, ``SCAN_CHUNK`` a pass."""
        observations: List[Observation] = []
        for start in range(0, len(pending), SCAN_CHUNK):
            chunk = pending[start : start + SCAN_CHUNK]
            observations.extend(
                self._evaluate(
                    np.array([(p.x, p.y) for p in chunk], dtype=float),
                    np.repeat(np.arange(len(chunk)), [len(p.towers) for p in chunk]),
                    np.concatenate([p.towers for p in chunk]),
                    np.concatenate([p.distances for p in chunk]),
                    np.concatenate([p.noise for p in chunk]),
                )
            )
        return observations

    def _scan_many(
        self, points: Sequence[Point], rng: Optional[np.random.Generator]
    ) -> List[Observation]:
        observations: List[Observation] = []
        for start in range(0, len(points), SCAN_CHUNK):
            chunk = points[start : start + SCAN_CHUNK]
            # One distance pass and one noise draw for the chunk's scans.
            xy = np.array([(p.x, p.y) for p in chunk], dtype=float)
            distances = np.hypot(self._x - xy[:, :1], self._y - xy[:, 1:])
            owner, towers = np.nonzero(distances < PREFILTER_M)
            noise = None
            if rng is not None:
                noise = rng.normal(
                    0.0, self.config.temporal_sigma_db, size=len(towers)
                )
            observations.extend(
                self._evaluate(xy, owner, towers, distances[owner, towers], noise)
            )
        return observations

    def _evaluate(
        self,
        xy: np.ndarray,
        owner: np.ndarray,
        towers: np.ndarray,
        distances: np.ndarray,
        noise: Optional[np.ndarray],
    ) -> List[Observation]:
        """Observations of the receivers ``xy`` from their candidate pairs.

        Pair ``i`` is tower ``towers[i]`` at ``distances[i]`` from receiver
        ``owner[i]``, with temporal noise ``noise[i]`` (``None``: the mean
        field).  Pairs are grouped by receiver, in tower order.
        """
        columns = self._columns[towers]
        tx_power = self._tx_power[towers]
        shadow = self.propagation.shadow_db(columns, xy, owner)
        floor = self.config.rx_sensitivity_dbm
        # The numpy path loss is within a few ulp of the scalar formula, so a
        # candidate more than PRUNE_MARGIN_DB below the floor here is below it
        # there too: only the rest pay for the scalar formula.
        approx_loss = self.propagation.approx_path_loss_db(distances)
        rss = tx_power - approx_loss - shadow
        if noise is not None:
            rss = rss + noise
        near = np.flatnonzero(rss >= floor - PRUNE_MARGIN_DB)
        owner, towers = owner[near].tolist(), towers[near].tolist()
        # Few candidates are left: the scalar formula, one at a time.
        path_loss = self.propagation.path_loss_db
        x, y = xy[:, 0].tolist(), xy[:, 1].tolist()
        extra = noise[near].tolist() if noise is not None else None
        scans: List[List[Tuple[float, int]]] = [[] for _ in range(len(xy))]
        for k, (j, t, s) in enumerate(zip(owner, towers, shadow[near].tolist())):
            tower_x, tower_y, power, tower_id = self._scalars[t]
            value = power - path_loss(tower_x - x[j], tower_y - y[j]) - s
            if extra is not None:
                value = value + extra[k]
            if value >= floor:
                scans[j].append((value, tower_id))
        observations = []
        for pairs in scans:
            pairs = sorted(pairs, key=_strongest_first)[: self.config.max_visible]
            observations.append(
                Observation(
                    tower_ids=tuple(tid for _, tid in pairs),
                    rss_dbm=tuple(value for value, _ in pairs),
                )
            )
        return observations

    def visible_count(self, where: Point) -> int:
        """Number of towers visible in the mean field at ``where``."""
        return len(self.mean_scan(where))
