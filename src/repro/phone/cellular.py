"""Phone-side cellular sampling: the data unit the system uploads.

A :class:`CellularSample` is what the phone attaches to every detected
beep: a timestamp plus the visible cell tower ids in descending-RSS
order (§III-B).  It is the *only* location-bearing datum that leaves
the phone — no GPS, no coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.city.geometry import Point
from repro.radio.scanner import CellularScanner, Observation, PendingScan
from repro.radio.towers import check_cell_ids
from repro.util.rng import SeedLike


@dataclass(frozen=True)
class CellularSample:
    """A timestamped cellular scan captured at a beep."""

    time_s: float
    tower_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s):
            raise ValueError(f"sample time must be finite, not {self.time_s!r}")
        object.__setattr__(self, "tower_ids", check_cell_ids(self.tower_ids))

    def __len__(self) -> int:
        return len(self.tower_ids)

    @classmethod
    def from_observation(cls, time_s: float, observation: Observation) -> "CellularSample":
        """Wrap a radio-layer observation with its capture time.

        Only the ids leave: their order already carries the RSS ranking.
        """
        return cls(time_s=time_s, tower_ids=observation.tower_ids)


class CellularSampler:
    """Thin phone-side wrapper over the modem's neighbour-cell list."""

    def __init__(self, scanner: CellularScanner):
        self._scanner = scanner

    def sample(self, where: Point, time_s: float, rng: SeedLike = None) -> CellularSample:
        """Capture one cellular sample at the phone's physical location."""
        return CellularSample.from_observation(time_s, self._scanner.scan(where, rng))

    def draw(self, where: Point, rng: SeedLike = None) -> PendingScan:
        """Draw a sample's noise now; :meth:`evaluate` gives the sample."""
        return self._scanner.draw(where, rng)

    def evaluate(
        self, pending: Sequence[Tuple[float, PendingScan]]
    ) -> List[CellularSample]:
        """The sample of each ``(time_s, draw)``, in order, in one batch.

        Equal to calling :meth:`sample` at each draw's place in the
        random stream.
        """
        observations = self._scanner.evaluate([scan for _, scan in pending])
        return [
            CellularSample.from_observation(time_s, observation)
            for (time_s, _), observation in zip(pending, observations)
        ]
