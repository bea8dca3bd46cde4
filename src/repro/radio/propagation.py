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

The model evaluates many (receiver, tower) pairs in one numpy pass.
Every *reported* value equals the per-tower scalar formula bit for bit
(:class:`repro.testkit.oracles.OracleScanner` is that formula):

* :class:`repro.radio.CellularScanner` first computes every candidate's
  RSS with :meth:`PropagationModel.approx_path_loss_db` (``np.hypot``/
  ``np.log10``, a few ulp or ~1e-14 dB from ``math.hypot``/
  ``math.log10``), using the real shadow values and noise.  Only
  candidates within 1e-6 dB of the sensitivity floor or above it get
  the scalar :meth:`PropagationModel.path_loss_db`; the margin is eight
  orders of magnitude wider than the error, so a pruned candidate is
  below the floor under the scalar formula too.
* the bilinear blend keeps its left-to-right operation order, with each
  pair's own ``fx``/``fy``;
* the lattice draws equal ``field_rng(seed, "shadow", tower_id, ix,
  iy)``; their key hashes come from
  :class:`repro.util.rng.PrefixedKeyHashes`, which combines a per-point
  and a per-column term by the checksums' affine identities.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.config import RadioConfig
from repro.radio.towers import CellTower
from repro.util.rng import PrefixedKeyHashes, SeedLike, ensure_rng, keyed_normals


class PropagationModel:
    """Deterministic mean RSS field plus per-measurement noise.

    Towers are addressed by *column*: :meth:`columns` gives each tower id
    a fixed slot.  The shadow lattice is memoised in one table, a row per
    lattice point in first-touch order and a float64 per column, NaN
    until that tower's corner value is drawn.  Each column also registers
    its key prefix ``"shadow", tower_id`` with a
    :class:`~repro.util.rng.PrefixedKeyHashes`, so hashing a corner's key
    only reads the ``ix, iy`` suffix once per lattice point.

    Batched methods take *pairs*: pair ``i`` is the tower in column
    ``columns[i]`` heard at receiver ``xy[owner[i]]``.
    """

    def __init__(self, config: Optional[RadioConfig] = None, seed: int = 0):
        self.config = config or RadioConfig()
        self._seed = int(seed)
        self._column: Dict[int, int] = {}
        self._keys = PrefixedKeyHashes()
        self._row: Dict[Tuple[int, int], int] = {}
        self._points: List[Tuple[int, int]] = []
        self._memo = np.empty((0, 0))

    def columns(self, tower_ids: Sequence[int]) -> np.ndarray:
        """Lattice columns of ``tower_ids``, registering ids not seen yet."""
        for tower_id in tower_ids:
            if tower_id not in self._column:
                self._column[tower_id] = len(self._column)
                self._keys.add("shadow", tower_id)
        if len(self._column) > self._memo.shape[1]:
            self._resize_memo(len(self._memo))
        return np.array([self._column[t] for t in tower_ids], dtype=np.intp)

    def _resize_memo(self, capacity: int) -> None:
        """Room for ``capacity`` rows and a column per registered tower.

        Rows past the touched ones stay uninitialised until
        :meth:`_corners` assigns them to lattice points.
        """
        kept = min(len(self._points), len(self._memo))
        old_width = self._memo.shape[1]
        memo = np.empty((capacity, len(self._column)))
        memo[:kept, :old_width] = self._memo[:kept]
        memo[:kept, old_width:] = np.nan
        self._memo = memo

    # -- mean field ---------------------------------------------------------

    def path_loss_db(self, dx: float, dy: float) -> float:
        """Log-distance path loss at tower-minus-receiver offset ``(dx, dy)``.

        The scalar formula, through ``math.hypot`` and ``math.log10``.
        """
        return (
            self.config.path_loss_ref_db
            + 10.0
            * self.config.path_loss_exponent
            * math.log10(max(math.hypot(dx, dy), 1.0))
        )

    def approx_path_loss_db(self, distance: np.ndarray) -> np.ndarray:
        """:meth:`path_loss_db` of ``np.hypot`` distances, through ``np.log10``.

        Within a few ulp of the scalar formula, not bit-equal to it.
        """
        return (
            self.config.path_loss_ref_db
            + 10.0 * self.config.path_loss_exponent * np.log10(np.maximum(distance, 1.0))
        )

    def mean_rss_dbm(self, tower: CellTower, where: Point) -> float:
        """Long-term average RSS of ``tower`` at ``where`` (no temporal noise)."""
        path_loss = self.path_loss_db(
            tower.position.x - where.x, tower.position.y - where.y
        )
        shadow = self.shadow_db(
            self.columns([tower.tower_id]),
            np.array([[where.x, where.y]], dtype=float),
            np.zeros(1, dtype=np.intp),
        )
        return float(tower.tx_power_dbm - path_loss - shadow[0])

    def shadow_db(
        self, columns: np.ndarray, xy: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Static spatial shadowing of each pair, bilinear over a noise lattice."""
        g = xy / self.config.shadow_grid_m
        # math.floor, as the scalar formula: a non-finite receiver raises.
        corners = [(math.floor(gx), math.floor(gy)) for gx, gy in g.tolist()]
        frac = g - np.array(corners, dtype=np.int64)
        fx, fy = frac[:, :1], frac[:, 1:]
        # Each corner's value times its x weight, then its y weight; the
        # four terms add left to right, as in the scalar formula
        # v00·(1-fx)·(1-fy) + v10·fx·(1-fy) + v01·(1-fx)·fy + v11·fx·fy.
        x_weight = np.concatenate((1 - fx, fx, 1 - fx, fx), axis=1)
        y_weight = np.concatenate((1 - fy, 1 - fy, fy, fy), axis=1)
        terms = self._corners(columns, corners, owner)
        terms *= np.take(x_weight, owner, axis=0)
        terms *= np.take(y_weight, owner, axis=0)
        value = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
        return value * self.config.shadowing_sigma_db

    def _corners(
        self,
        columns: np.ndarray,
        corners: Sequence[Sequence[int]],
        owner: np.ndarray,
    ) -> np.ndarray:
        """``(k, 4)`` lattice values around each pair's receiver.

        ``corners[j]`` is receiver ``j``'s lower-left lattice point.  New
        lattice points get memo rows in receiver order, as one scan at a
        time would give them, and all missing values are drawn in one
        batch.
        """
        rows = self._row
        before = len(self._points)
        around = []
        for x0, y0 in corners:
            for point in ((x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)):
                row = rows.get(point)
                if row is None:
                    row = rows[point] = len(self._points)
                    self._points.append(point)
                around.append(row)
        used = len(self._points)
        if used > len(self._memo):
            self._resize_memo(max(2 * len(self._memo), used, 64))
        self._memo[before:used] = np.nan
        width = self._memo.shape[1]
        base = np.array(around, dtype=np.intp).reshape(-1, 4) * width
        cells = np.take(base, owner, axis=0)
        cells += columns[:, None]
        memo = self._memo.reshape(-1)
        values = memo[cells]
        holes = np.isnan(values)
        if holes.any():
            missing = _runs(np.sort(cells[holes]))[1]
            at, cols = np.divmod(missing, width)
            first, touched = _runs(at)
            memo[missing] = keyed_normals(
                self._seed,
                self._key_hashes(
                    [self._points[r] for r in touched.tolist()],
                    np.cumsum(first) - 1,
                    cols,
                ),
            )
            values = memo[cells]
        return values

    def _key_hashes(
        self, points: Sequence[Tuple[int, int]], at: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """``stable_hash("shadow", tower_id, ix, iy)`` per pair.

        Pair ``i`` is column ``columns[i]`` at lattice point ``points[at[i]]``.
        """
        suffixes = [f"{ix}\x1f{iy}".encode("utf-8") for ix, iy in points]
        return self._keys.hashes(suffixes, at, columns)

    # -- measurements --------------------------------------------------------

    def measure_rss_dbm(
        self, tower: CellTower, where: Point, rng: SeedLike = None
    ) -> float:
        """One RSS measurement: mean field plus temporal fluctuation."""
        rng = ensure_rng(rng)
        return self.mean_rss_dbm(tower, where) + rng.normal(
            0.0, self.config.temporal_sigma_db
        )


def _runs(ordered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values in ``ordered`` starts, and its value.

    ``np.unique`` for sorted input, without its hash-table pass (which on
    numpy 2.x costs ~15x a sort here).
    """
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first, ordered[first]
