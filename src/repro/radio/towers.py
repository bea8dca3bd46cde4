"""Cell tower deployment over the synthetic region.

The paper observes that an urban cell tower covers roughly 200–900 m and
that a phone sees 4–7 towers at a bus stop (§III-A).  We deploy towers
on a jittered grid with an inter-site distance matching that coverage,
which together with the propagation model reproduces those visibility
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple

import numpy as np

from repro.city.geometry import Point
from repro.util.rng import SeedLike, ensure_rng

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def check_cell_ids(values: Iterable[Any]) -> Tuple[int, ...]:
    """``values`` as a tuple of cell ids; ``ValueError`` unless each is an
    ``int`` (not a ``bool``) inside int64.

    The one rule for every cell id that enters the system: ``int()``
    would truncate 3.7 and parse "12", JSON ``true`` decodes to a bool,
    and the matcher holds ids as int64.  Checked per sequence, not per
    id (one type set and one min/max), since it runs once per sample.
    """
    cells = tuple(values)
    if not set(map(type, cells)) <= {int}:
        bad = next(c for c in cells if type(c) is not int)
        raise ValueError(f"cell id must be an integer, not {bad!r}")
    if cells and not (_INT64_MIN <= min(cells) and max(cells) <= _INT64_MAX):
        raise ValueError(f"cell id outside int64 in {list(cells)!r}")
    return cells


@dataclass(frozen=True)
class CellTower:
    """A cell tower (one logical cell) with a fixed position."""

    tower_id: int
    position: Point
    tx_power_dbm: float = 43.0


def deploy_towers(
    width_m: float,
    height_m: float,
    inter_site_m: float = 400.0,
    tx_power_dbm: float = 43.0,
    jitter_fraction: float = 0.3,
    margin_m: float = 400.0,
    seed: SeedLike = 0,
) -> List[CellTower]:
    """Deploy towers on a jittered grid covering the region plus a margin.

    ``jitter_fraction`` displaces each site uniformly by up to that
    fraction of the inter-site distance, breaking grid symmetry so that
    RSS rank orders differ between nearby stops (the property the
    fingerprints rely on).
    """
    if inter_site_m <= 0:
        raise ValueError("inter_site_m must be positive")
    rng = ensure_rng(seed)
    towers: List[CellTower] = []
    xs = np.arange(-margin_m, width_m + margin_m + 1e-9, inter_site_m)
    ys = np.arange(-margin_m, height_m + margin_m + 1e-9, inter_site_m)
    tower_id = 1000  # ids look like real cell ids, not tiny indices
    for row, y in enumerate(ys):
        # Offset alternate rows for a roughly hexagonal layout.
        x_offset = (inter_site_m / 2.0) if row % 2 else 0.0
        for x in xs:
            jitter = rng.uniform(-1, 1, size=2) * jitter_fraction * inter_site_m
            towers.append(
                CellTower(
                    tower_id=tower_id,
                    position=Point(x + x_offset + jitter[0], y + jitter[1]),
                    tx_power_dbm=tx_power_dbm,
                )
            )
            tower_id += 1
    return towers


def towers_for_city(city, inter_site_m: float = 400.0, seed: SeedLike = 0) -> List[CellTower]:
    """Deploy towers sized to a :class:`repro.city.City` region."""
    return deploy_towers(
        width_m=city.spec.width_m,
        height_m=city.spec.height_m,
        inter_site_m=inter_site_m,
        seed=seed,
    )
