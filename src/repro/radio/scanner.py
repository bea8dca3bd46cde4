"""Phone-style cellular scan: the visible tower set ordered by RSS.

This is the measurement primitive of the whole system: "the mobile
phone normally can capture the signals from multiple cell towers at one
time ... We order their cell IDs according to their Received Signal
Strengths and use such an ordered set to signature each bus stop"
(§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio.propagation import PropagationModel
from repro.radio.towers import CellTower
from repro.util.rng import SeedLike, ensure_rng


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
        self._positions = np.array(
            [(t.position.x, t.position.y) for t in self.towers]
        )
        self._tower_ids = np.array([t.tower_id for t in self.towers])
        self._tx_power = np.array([t.tx_power_dbm for t in self.towers], dtype=float)
        self._columns = propagation.columns([t.tower_id for t in self.towers])

    def scan(self, where: Point, rng: SeedLike = None) -> Observation:
        """One scan at ``where`` with temporal noise."""
        rng = ensure_rng(rng)
        return self._scan(where, rng, temporal=True)

    def mean_scan(self, where: Point) -> Observation:
        """Noise-free scan of the long-term mean field (for analysis)."""
        return self._scan(where, None, temporal=False)

    def _scan(
        self, where: Point, rng: Optional[np.random.Generator], temporal: bool
    ) -> Observation:
        # Pre-filter by distance: beyond ~4 km a macro cell cannot clear the
        # sensitivity floor in this model, so skip the full RSS computation.
        # The candidate count also fixes how much noise stream a scan uses.
        deltas = self._positions - np.array([where.x, where.y])
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        candidates = np.nonzero(distances < 4000.0)[0]
        args = (
            self._columns[candidates],
            deltas[candidates],
            self._tx_power[candidates],
            where,
        )
        if temporal:
            rss = self.propagation.measure_rss_many(*args, rng)
        else:
            rss = self.propagation.mean_rss_many(*args)
        visible = rss >= self.config.rx_sensitivity_dbm
        pairs = sorted(
            zip(rss[visible].tolist(), self._tower_ids[candidates[visible]].tolist()),
            key=lambda p: (-p[0], p[1]),
        )[: self.config.max_visible]
        return Observation(
            tower_ids=tuple(tid for _, tid in pairs),
            rss_dbm=tuple(rss for rss, _ in pairs),
        )

    def visible_count(self, where: Point) -> int:
        """Number of towers visible in the mean field at ``where``."""
        return len(self.mean_scan(where))
