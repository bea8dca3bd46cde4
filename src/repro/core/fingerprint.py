"""The bus-stop cellular fingerprint database.

Each bus stop is signatured by its visible cell towers ordered by RSS
(§III-A).  The database can be built two ways, both from the paper:

* **survey** — visit each stop several times (standing there or riding
  past on a bus) and keep the sample "with the highest similarity with
  the rest samples" as the stored fingerprint (§IV-A); or
* **online** — start empty and fold in high-confidence crowd samples
  over time (the database "can be built online/offline", §III-B).

Fingerprints are stored per *station*: the paper aggregates the two
platforms facing each other across the road into one location
reference, since their cellular environments are nearly identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.city.stops import StopRegistry
from repro.config import MatchingConfig
from repro.core.matching import batch_smith_waterman, cell_id_array
from repro.radio.scanner import CellularScanner
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class StoredFingerprint:
    """One stop's stored signature."""

    station_id: int
    tower_ids: Tuple[int, ...]


class FingerprintDatabase:
    """Station → ordered cell-id fingerprint, with builders."""

    def __init__(self, config: Optional[MatchingConfig] = None):
        self.config = config or MatchingConfig()
        self._fingerprints: Dict[int, Tuple[int, ...]] = {}

    # -- container basics ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, station_id: int) -> bool:
        return station_id in self._fingerprints

    def fingerprint(self, station_id: int) -> Tuple[int, ...]:
        """The stored ordered cell-id sequence of a station."""
        return self._fingerprints[station_id]

    def as_dict(self) -> Dict[int, Tuple[int, ...]]:
        """Copy of the underlying mapping (for :class:`SampleMatcher`)."""
        return dict(self._fingerprints)

    @property
    def station_ids(self) -> List[int]:
        """All fingerprinted stations."""
        return list(self._fingerprints)

    # -- building ---------------------------------------------------------------

    def set_fingerprint(self, station_id: int, tower_ids: Sequence[int]) -> None:
        """Store (or overwrite) one station's fingerprint.

        Raises ``ValueError`` on an empty or repeating sequence, or on an
        id outside int64, which the matcher could not hold.
        """
        if not tower_ids:
            raise ValueError("a fingerprint needs at least one tower id")
        cell_id_array(tower_ids)
        if len(set(tower_ids)) != len(tower_ids):
            raise ValueError("fingerprint tower ids must be unique")
        self._fingerprints[station_id] = tuple(tower_ids)

    def set_from_samples(
        self, station_id: int, samples: Sequence[Sequence[int]]
    ) -> None:
        """Store the medoid of repeated samples at one stop (§IV-A).

        The kept sample is the one with the highest total Smith-Waterman
        similarity to the others — robust to the odd outlier scan.
        """
        samples = [tuple(s) for s in samples if len(s) > 0]
        if not samples:
            raise ValueError("need at least one non-empty sample")
        if len(samples) == 1:
            self.set_fingerprint(station_id, samples[0])
            return
        k = len(samples)
        scores = batch_smith_waterman(
            [candidate for candidate in samples for _ in range(k - 1)],
            [other for i in range(k) for j, other in enumerate(samples) if j != i],
            self.config,
        ).tolist()
        totals = [sum(scores[i * (k - 1): (i + 1) * (k - 1)]) for i in range(k)]
        self.set_fingerprint(station_id, samples[int(np.argmax(totals))])

    @classmethod
    def survey(
        cls,
        registry: StopRegistry,
        scanner: CellularScanner,
        samples_per_stop: int = 5,
        config: Optional[MatchingConfig] = None,
        rng: SeedLike = None,
    ) -> "FingerprintDatabase":
        """War-drive the city: sample every station and store medoids.

        Samples alternate between the station's platforms (the surveyor
        stands on either side / rides past on buses both ways), so the
        stored fingerprint represents the aggregated location.
        """
        if samples_per_stop < 1:
            raise ValueError("samples_per_stop must be >= 1")
        rng = ensure_rng(rng)
        db = cls(config)
        for station in registry.stations:
            platforms = station.stops or [None]
            samples = []
            for k in range(samples_per_stop):
                platform = platforms[k % len(platforms)]
                where = platform.position if platform is not None else station.position
                observation = scanner.scan(where, rng)
                if len(observation):
                    samples.append(observation.tower_ids)
            if samples:
                db.set_from_samples(station.station_id, samples)
        return db

    def update_online(
        self, station_id: int, tower_ids: Sequence[int], min_score: float = 4.0
    ) -> bool:
        """Online refinement: adopt a crowd sample as the new fingerprint.

        Accepted only when the sample is highly similar to the current
        fingerprint (so drift is gradual) and longer (so the signature
        gains towers).  Returns True if the database changed.  For an
        unknown station the sample bootstraps the entry.
        """
        if station_id not in self._fingerprints:
            self.set_fingerprint(station_id, tower_ids)
            return True
        current = self._fingerprints[station_id]
        score = batch_smith_waterman([tower_ids], [current], self.config)[0]
        if score >= min_score and len(tower_ids) > len(current):
            self.set_fingerprint(station_id, tower_ids)
            return True
        return False
