"""Cellular signal propagation: log-distance path loss + shadowing.

The backend never uses absolute RSS — only the *rank order* of visible
towers at a place (§III-C).  What matters physically is therefore:

* the mean RSS from a tower at a location is stable over time
  (path loss + **static spatial shadowing**), so a bus stop has a
  stable fingerprint; and
* individual measurements fluctuate by a few dB (**temporal noise**,
  fast fading, bodies, bus metal), so ranks occasionally swap — which
  is exactly why the paper needs an order-tolerant matcher.

The shadowing field is deterministic in (seed, tower, location): it is
bilinearly interpolated from unit-normal draws keyed by grid corners,
giving a smooth field with ``shadow_grid_m`` correlation length that
never depends on evaluation order.

The model evaluates many towers at one receiver position in one numpy
pass.  Every value equals the per-tower scalar formula bit for bit
(:class:`repro.testkit.oracles.OracleScanner` is that formula): distances
and logarithms go through ``math.hypot``/``math.log10`` per element, the
bilinear blend keeps its left-to-right operation order, and the lattice
draws equal ``field_rng(seed, "shadow", tower_id, ix, iy)``.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio.towers import CellTower
from repro.util.rng import SeedLike, ensure_rng, keyed_normals, stable_hash_prefix


class PropagationModel:
    """Deterministic mean RSS field plus per-measurement noise.

    Towers are addressed by *column*: :meth:`columns` gives each tower id
    a fixed slot.  The shadow lattice is memoised per lattice point, one
    float64 per column, NaN until that tower's corner value is drawn.
    Each column also keeps the running checksums of its key prefix
    ``"shadow", tower_id``, so hashing a corner's key only reads the
    ``ix, iy`` suffix.
    """

    def __init__(self, config: Optional[RadioConfig] = None, seed: int = 0):
        self.config = config or RadioConfig()
        self._seed = int(seed)
        self._column: Dict[int, int] = {}
        self._tower_ids: List[int] = []
        self._key_prefix: List[Tuple[int, int]] = []
        self._lattice: Dict[Tuple[int, int], np.ndarray] = {}

    def columns(self, tower_ids: Sequence[int]) -> np.ndarray:
        """Lattice columns of ``tower_ids``, registering ids not seen yet."""
        for tower_id in tower_ids:
            if tower_id not in self._column:
                self._column[tower_id] = len(self._tower_ids)
                self._tower_ids.append(tower_id)
                self._key_prefix.append(stable_hash_prefix("shadow", tower_id))
        return np.array([self._column[t] for t in tower_ids], dtype=np.intp)

    # -- mean field ---------------------------------------------------------

    def mean_rss_many(
        self,
        columns: np.ndarray,
        offsets: np.ndarray,
        tx_power_dbm: np.ndarray,
        where: Point,
    ) -> np.ndarray:
        """Long-term average RSS at ``where`` of the towers in ``columns``.

        ``offsets`` is the ``(k, 2)`` array of tower position minus
        ``where``; ``tx_power_dbm`` holds the towers' transmit powers.
        """
        k = len(columns)
        distance = np.fromiter(
            map(math.hypot, offsets[:, 0].tolist(), offsets[:, 1].tolist()),
            dtype=float,
            count=k,
        )
        log_distance = np.fromiter(
            map(math.log10, np.maximum(distance, 1.0).tolist()), dtype=float, count=k
        )
        path_loss = (
            self.config.path_loss_ref_db
            + 10.0 * self.config.path_loss_exponent * log_distance
        )
        return tx_power_dbm - path_loss - self._shadow_db(columns, where)

    def mean_rss_dbm(self, tower: CellTower, where: Point) -> float:
        """Long-term average RSS of ``tower`` at ``where`` (no temporal noise)."""
        offsets = np.array(
            [[tower.position.x - where.x, tower.position.y - where.y]], dtype=float
        )
        rss = self.mean_rss_many(
            self.columns([tower.tower_id]),
            offsets,
            np.array([tower.tx_power_dbm], dtype=float),
            where,
        )
        return float(rss[0])

    def _shadow_db(self, columns: np.ndarray, where: Point) -> np.ndarray:
        """Static spatial shadowing, bilinear over a noise lattice."""
        grid = self.config.shadow_grid_m
        gx = where.x / grid
        gy = where.y / grid
        x0, y0 = math.floor(gx), math.floor(gy)
        fx, fy = gx - x0, gy - y0
        v00, v10, v01, v11 = self._corners(
            columns, ((x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1))
        )
        value = (
            v00 * (1 - fx) * (1 - fy)
            + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy
            + v11 * fx * fy
        )
        return value * self.config.shadowing_sigma_db

    def _corners(
        self, columns: np.ndarray, points: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """Lattice values at ``points`` for ``columns``; missing ones in one batch."""
        width = len(self._tower_ids)
        rows, values, holes = [], [], []
        for point in points:
            row = self._lattice.get(point)
            if row is None or len(row) < width:
                fresh = np.full(width, np.nan)
                if row is not None:
                    fresh[: len(row)] = row
                row = self._lattice[point] = fresh
            value = row[columns]
            rows.append(row)
            values.append(value)
            holes.append(np.flatnonzero(np.isnan(value)))
        if any(len(h) for h in holes):
            drawn = keyed_normals(
                self._seed,
                self._key_hashes(points, [columns[hole] for hole in holes]),
            )
            start = 0
            for row, value, hole in zip(rows, values, holes):
                batch = drawn[start : start + len(hole)]
                value[hole] = batch
                row[columns[hole]] = batch
                start += len(hole)
        return values

    def _key_hashes(
        self, points: Sequence[Tuple[int, int]], columns: Sequence[np.ndarray]
    ) -> List[int]:
        """Shadow-key hashes of ``columns[k]`` at ``points[k]``, in order.

        Each equals ``stable_hash("shadow", tower_id, ix, iy)``: the
        column's checksums of ``"shadow", tower_id`` are resumed over the
        point's ``ix, iy`` text, which every column at a point shares.
        """
        prefix = self._key_prefix
        crc32, adler32 = zlib.crc32, zlib.adler32
        return [
            (adler32(suffix, adler) << 32) | crc32(suffix, crc)
            for (ix, iy), cols in zip(points, columns)
            for suffix in (f"{ix}\x1f{iy}".encode("utf-8"),)
            for crc, adler in map(prefix.__getitem__, cols.tolist())
        ]

    # -- measurements --------------------------------------------------------

    def measure_rss_many(
        self,
        columns: np.ndarray,
        offsets: np.ndarray,
        tx_power_dbm: np.ndarray,
        where: Point,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One measurement per tower: :meth:`mean_rss_many` plus temporal noise.

        ``rng.normal(size=k)`` consumes the same stream, in the same
        order, as ``k`` scalar draws.
        """
        return self.mean_rss_many(columns, offsets, tx_power_dbm, where) + rng.normal(
            0.0, self.config.temporal_sigma_db, size=len(columns)
        )

    def measure_rss_dbm(
        self, tower: CellTower, where: Point, rng: SeedLike = None
    ) -> float:
        """One RSS measurement: mean field plus temporal fluctuation."""
        rng = ensure_rng(rng)
        return self.mean_rss_dbm(tower, where) + rng.normal(
            0.0, self.config.temporal_sigma_db
        )
