"""Parameter sets for the whole system, with the paper's defaults.

Each subsystem takes one of these frozen dataclasses so experiments can
sweep a parameter without touching module code.  Field values marked
"§x" cite the section of the ICDCS'15 paper they come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class BeepConfig:
    """IC-card reader beep detection (§III-B, §IV-D)."""

    sample_rate_hz: int = 8000          # §IV-D: microphone sampling rate
    tone_frequencies_hz: Tuple[float, ...] = (1000.0, 3000.0)  # Singapore beep
    window_ms: float = 300.0            # §III-B: sliding window w = 300 ms
    jump_sigma: float = 3.0             # §III-B: 3-standard-deviation jump
    min_band_ratio: float = 0.05        # absolute floor: beep tones dominate
    beep_duration_ms: float = 120.0     # typical EZ-link reader chirp length
    min_gap_ms: float = 500.0           # refractory gap between distinct beeps


@dataclass(frozen=True)
class AccelConfig:
    """Accelerometer bus-vs-train filter (§III-B)."""

    sample_rate_hz: float = 50.0
    window_s: float = 30.0
    variance_threshold: float = 0.10    # (m/s^2)^2; buses exceed, trains do not


@dataclass(frozen=True)
class TripRecorderConfig:
    """Phone-side trip lifecycle (§III-B)."""

    trip_timeout_s: float = 600.0       # conclude trip after 10 min of silence


@dataclass(frozen=True)
class MatchingConfig:
    """Modified Smith-Waterman fingerprint matching (§III-C, Table I).

    A verdict is a pure function of the RSS-ordered cell-id sequence and
    these four numbers.  The matcher scores every upload afresh and
    keeps no memo of earlier verdicts: with the planned, pruned matcher a
    memo no longer paid for its heap (DESIGN §10).  The match-pattern
    table it scores from is complete and keyed by the three scores, not
    by the sequences seen.
    """

    match_score: float = 1.0
    mismatch_penalty: float = 0.3       # swept 0.1..0.9; 0.3 best
    gap_penalty: float = 0.3
    accept_threshold: float = 2.0       # γ = 2 (from Fig. 2(b) measurement)


@dataclass(frozen=True)
class ClusteringConfig:
    """Per-bus-stop co-clustering of cellular samples (§III-C2)."""

    max_similarity: float = 7.0         # s0: maximum possible similarity score
    max_interval_s: float = 30.0        # t0: max gap between same-stop samples
    threshold: float = 0.6              # ε (accuracy plateau 0.3..1.3, Fig. 5)


@dataclass(frozen=True)
class TripMappingConfig:
    """Route-constrained sequence estimation (§III-C3)."""

    same_stop_weight: float = 0.5       # R(x, x): duplicate-cluster tolerance
    downstream_weight: float = 1.0      # R(x, y) when y follows x on a route


@dataclass(frozen=True)
class TrafficModelConfig:
    """Linear transit model ATT = a + b * BTT (§III-D, Eq. 3)."""

    b: float = 0.5                      # fitted range [0.3, 0.8]; paper uses 0.5
    min_speed_ms: float = 1.0           # clamp against degenerate estimates
    max_speed_ms: float = 33.3          # 120 km/h sanity ceiling
    dwell_tail_s: float = 14.0          # doors stay open past the last tap at
                                        # the departure stop, and the first tap
                                        # at the arrival stop lags the doors;
                                        # both are subtracted from measured leg
                                        # times (calibrated against timetables)


@dataclass(frozen=True)
class FusionConfig:
    """Bayesian sequential speed fusion (§III-D, Eq. 4)."""

    update_period_s: float = 300.0      # T = 5 min
    observation_sigma_kmh: float = 4.0  # per-trip speed observation noise
    staleness_inflation_kmh_per_hr: float = 12.0  # variance growth when silent


@dataclass(frozen=True)
class RadioConfig:
    """Cellular propagation and scanning (§III-A)."""

    tx_power_dbm: float = 43.0          # macro-cell downlink EIRP
    path_loss_exponent: float = 3.5     # dense-urban log-distance exponent
    path_loss_ref_db: float = 34.0      # loss at 1 m reference distance
    shadowing_sigma_db: float = 8.0     # static spatial shadowing
    shadow_grid_m: float = 60.0         # correlation grid of the shadow field
    temporal_sigma_db: float = 1.8      # per-measurement fluctuation
    rx_sensitivity_dbm: float = -86.0   # neighbour-list reporting floor
    max_visible: int = 7                # phones report up to 7 neighbours


@dataclass(frozen=True)
class GpsConfig:
    """Urban-canyon GPS error model calibrated to Fig. 1."""

    stationary_median_m: float = 40.0
    stationary_p90_m: float = 75.0
    onbus_median_m: float = 68.0
    onbus_p90_m: float = 130.0


@dataclass(frozen=True)
class PowerConfig:
    """Component power model calibrated to Table III (mW).

    ``htc`` / ``nexus`` baseline+component values reproduce the paper's
    measured rows; the Goertzel-vs-FFT delta reproduces the ~60 mW
    saving reported in §IV-D.
    """

    htc_baseline_mw: float = 70.0
    nexus_baseline_mw: float = 84.0
    cellular_mw: float = 2.0            # sampling cellular signals: negligible
    gps_mw: float = 270.0               # continuous GPS at 0.5 Hz
    mic_goertzel_mw: float = 10.0       # microphone + Goertzel band extraction
    mic_fft_mw: float = 70.0            # microphone + full FFT (≈60 mW more)
    gps_mic_overhead_mw: float = 100.0  # concurrency overhead (no sensor sleep)
    rel_std: float = 0.12               # relative std of repeated sessions


@dataclass(frozen=True)
class RiderConfig:
    """Rider arrival / boarding behaviour (§IV-A)."""

    boarding_rate_per_stop: float = 1.2   # mean boarders per stop at base demand
    participation_rate: float = 0.12      # fraction of boarders running the app
    beep_detect_probability: float = 0.985  # end-to-end beep detection rate
    false_sample_probability: float = 0.01  # spurious beep → stray sample
    mean_ride_stops: float = 6.0


@dataclass(frozen=True)
class BusConfig:
    """Bus operation model (§III-D)."""

    max_speed_ms: float = 13.9          # 50 km/h urban bus cap
    dwell_base_s: float = 8.0           # door open/close overhead
    dwell_per_passenger_s: float = 2.0  # per boarder/alighter
    btt_noise_std: float = 0.08         # lognormal std of segment BTT noise
    headway_s: float = 600.0            # default dispatch headway (10 min)


@dataclass(frozen=True)
class TaxiConfig:
    """Simulated LTA taxi AVL feed (ground truth, §IV-C)."""

    fleet_size: int = 120
    report_period_s: float = 30.0
    aggressiveness_gain: float = 0.30   # extra speed above 40 km/h car flow
    aggressiveness_offset_kmh: float = 2.0
    speed_noise_kmh: float = 2.0


@dataclass(frozen=True)
class UplinkConfig:
    """Phone→server upload channel (§III-B: WiFi or 3G)."""

    loss_probability: float = 0.01      # upload never arrives
    base_delay_s: float = 60.0          # connection setup + batching
    mean_extra_delay_s: float = 120.0   # exponential tail (WiFi windows)


@dataclass(frozen=True)
class AnalyticsConfig:
    """Fleet-health analytics stage (headways, ghost buses, O-D flows).

    The stage consumes mapped trips after the single-writer merge; it
    never feeds back into the estimators, so disabling it changes no
    pipeline output (the bench guards the <5% ingest overhead target).
    """

    enabled: bool = True
    #: Mapped arrivals at one (route, stop) closer together than this are
    #: the same physical bus seen by several riders, not two buses.
    arrival_dedup_s: float = 120.0
    #: A headway shorter than this fraction of the scheduled headway
    #: counts as bunched.
    bunching_factor: float = 0.25
    #: A route unseen for longer than this multiple of its scheduled
    #: headway starts accruing ghost vehicles.
    ghost_staleness_factor: float = 2.0
    #: Ghost-count gauge ceiling (a dead route should alert, not count
    #: to infinity).
    max_ghosts_per_route: int = 12
    #: Trailing horizon for the live bunching-rate / EWT gauges.
    window_s: float = 3600.0
    #: Ring-buffer slots per analytics window.
    window_buckets: int = 12
    #: Bounded per-(route, stop) arrival-event history.
    max_arrivals_per_stop: int = 512
    #: Distinct origin-destination pairs tracked exactly; extra pairs
    #: aggregate into one overflow bucket (mirrors the label cap).
    max_od_pairs: int = 4096
    #: Flows surfaced by ``repro analytics`` and the JSON artifact.
    top_k_flows: int = 10


@dataclass(frozen=True)
class IngestConfig:
    """Durable ingest: how the server journals and snapshots its state."""

    #: Durable-store snapshot cadence: WAL records between automatic
    #: snapshots at quiescent points (0 disables automatic snapshots;
    #: recovery then replays the whole WAL).  Ignored without a store.
    store_snapshot_every: int = 1000
    #: Durable-store fsync policy: ``always`` (fsync per WAL append),
    #: ``batch`` (flush per append, fsync at snapshots/close) or
    #: ``never`` (leave durability to the OS).  All three survive a
    #: killed process; they differ under a machine power cut.
    store_fsync: str = "batch"


@dataclass(frozen=True)
class GoogleMapsConfig:
    """Coarse 4-level traffic indicator baseline (Fig. 10)."""

    update_period_s: float = 1800.0     # slow refresh
    level_bounds_kmh: Tuple[float, float, float] = (25.0, 40.0, 52.0)
    coverage_fraction: float = 0.35     # only major roads carry live data


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of every subsystem configuration (paper defaults)."""

    beep: BeepConfig = field(default_factory=BeepConfig)
    accel: AccelConfig = field(default_factory=AccelConfig)
    trip_recorder: TripRecorderConfig = field(default_factory=TripRecorderConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    trip_mapping: TripMappingConfig = field(default_factory=TripMappingConfig)
    traffic_model: TrafficModelConfig = field(default_factory=TrafficModelConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    gps: GpsConfig = field(default_factory=GpsConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    riders: RiderConfig = field(default_factory=RiderConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    taxi: TaxiConfig = field(default_factory=TaxiConfig)
    uplink: UplinkConfig = field(default_factory=UplinkConfig)
    google_maps: GoogleMapsConfig = field(default_factory=GoogleMapsConfig)
    analytics: AnalyticsConfig = field(default_factory=AnalyticsConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)


DEFAULT_CONFIG = SystemConfig()
