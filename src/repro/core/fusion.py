"""Sequential Bayesian fusion of per-segment speed estimates (§III-D, Eq. 4).

Many trips report speeds for the same road segment.  The paper fuses
them with a precision-weighted normal update:

    v_new = (v/σ² + v̄/σ̄²) / (1/σ² + 1/σ̄²)
    σ²_new = 1 / (1/σ² + 1/σ̄²)

i.e. "the inverse of the estimation variance weighs the historic
estimation and the updated estimations".  The fused estimate refreshes
on a period of T = 5 minutes.

One addition is required for a *live* map: without decay, σ² shrinks
monotonically and hours-old data would dominate fresh evidence.  We
inflate the variance linearly with the time since the last update
(a standard random-walk process model); with the paper's dense 5-minute
updates the inflation is negligible, so Eq. (4) behaviour is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import FusionConfig


@dataclass(frozen=True)
class FusedSpeed:
    """Fused speed belief for one segment."""

    mean_kmh: float
    variance: float             # km/h squared
    last_update_s: float
    observation_count: int

    @property
    def sigma_kmh(self) -> float:
        """Standard deviation of the belief in km/h."""
        return self.variance**0.5


class BayesianSpeedFuser:
    """Keeps one normal belief per key and folds in observations."""

    def __init__(self, config: Optional[FusionConfig] = None):
        self.config = config or FusionConfig()
        self._beliefs: Dict[object, FusedSpeed] = {}

    def __len__(self) -> int:
        return len(self._beliefs)

    def __contains__(self, key: object) -> bool:
        return key in self._beliefs

    @property
    def keys(self):
        """Keys with at least one observation."""
        return self._beliefs.keys()

    def update(
        self,
        key: object,
        speed_kmh: float,
        t: float,
        sigma_kmh: Optional[float] = None,
    ) -> FusedSpeed:
        """Fold one observation into the belief for ``key`` (Eq. 4)."""
        if speed_kmh <= 0:
            raise ValueError("speed must be positive")
        obs_var = (sigma_kmh or self.config.observation_sigma_kmh) ** 2
        prior = self._beliefs.get(key)
        if prior is None:
            belief = FusedSpeed(
                mean_kmh=speed_kmh,
                variance=obs_var,
                last_update_s=t,
                observation_count=1,
            )
        else:
            inflated = self._inflate(prior, t)
            precision = 1.0 / inflated.variance + 1.0 / obs_var
            mean = (
                inflated.mean_kmh / inflated.variance + speed_kmh / obs_var
            ) / precision
            belief = FusedSpeed(
                mean_kmh=mean,
                variance=1.0 / precision,
                # Uploads can arrive late and out of order (flaky 3G);
                # a stale observation must not rewind the freshness clock.
                last_update_s=max(t, prior.last_update_s),
                observation_count=prior.observation_count + 1,
            )
        self._beliefs[key] = belief
        return belief

    def current(self, key: object, t: Optional[float] = None) -> Optional[FusedSpeed]:
        """Current belief, staleness-inflated to time ``t`` when given."""
        belief = self._beliefs.get(key)
        if belief is None or t is None:
            return belief
        return self._inflate(belief, t)

    def state_dict(self) -> list:
        """JSON-ready beliefs.  Tuple keys (segment ids) become lists;
        :meth:`restore_state` turns lists back into tuples."""
        out = []
        for key in sorted(self._beliefs):
            b = self._beliefs[key]
            wire_key = list(key) if isinstance(key, tuple) else key
            out.append([
                wire_key, b.mean_kmh, b.variance,
                b.last_update_s, b.observation_count,
            ])
        return out

    def restore_state(self, state: list) -> None:
        """Adopt beliefs from :meth:`state_dict` (replaces everything)."""
        beliefs: Dict[object, FusedSpeed] = {}
        for wire_key, mean, variance, last, count in state:
            key = tuple(wire_key) if isinstance(wire_key, list) else wire_key
            beliefs[key] = FusedSpeed(
                mean_kmh=float(mean),
                variance=float(variance),
                last_update_s=float(last),
                observation_count=int(count),
            )
        self._beliefs = beliefs

    def _inflate(self, belief: FusedSpeed, t: float) -> FusedSpeed:
        elapsed_hr = max(0.0, t - belief.last_update_s) / 3600.0
        extra = (self.config.staleness_inflation_kmh_per_hr * elapsed_hr) ** 2
        if extra == 0.0:
            return belief
        return FusedSpeed(
            mean_kmh=belief.mean_kmh,
            variance=belief.variance + extra,
            last_update_s=belief.last_update_s,
            observation_count=belief.observation_count,
        )
