"""Ablation (§IV-D) — Goertzel vs FFT for beep-band extraction.

Paper: Goertzel is O(K_g·N·M) against the FFT's O(K_f·N·log N) with a
much smaller constant, and switching the app from FFT to Goertzel saved
about 60 mW.  This bench measures the actual per-window extraction
cost of both routes on the paper's 300 ms / 8 kHz windows, checks they
compute the same band power, and prints the op-count and power deltas.

Run directly (``PYTHONPATH=src python benchmarks/bench_ablation_goertzel_fft.py``)
to refresh ``benchmarks/reports/ablation_goertzel_fft.txt``; the pytest
run writes its table to a temporary directory.
"""

import timeit

import numpy as np
import pytest

from conftest import BENCH_SEED, REPORT_DIR, report
from repro.config import BeepConfig
from repro.eval.reporting import render_table
from repro.phone.goertzel import (
    fft_band_power,
    fft_op_count,
    goertzel_op_count,
    goertzel_power,
    goertzel_power_vectorized,
)
from repro.phone.power import PowerModel


def goertzel_route(window, sr, freqs):
    return sum(goertzel_power_vectorized(window, sr, f) for f in freqs)


def fft_route(window, sr, freqs):
    return sum(fft_band_power(window, sr, f) for f in freqs)


def window_for(config):
    n = int(config.window_ms / 1000.0 * config.sample_rate_hz)
    return np.random.default_rng(BENCH_SEED).standard_normal(n)


def run(config, window, report_dir=REPORT_DIR):
    """Time both routes on ``window`` and archive the comparison table."""
    sr = config.sample_rate_hz
    freqs = config.tone_frequencies_hz
    n = len(window)
    t_goertzel = timeit.timeit(lambda: goertzel_route(window, sr, freqs), number=300)
    t_fft = timeit.timeit(lambda: fft_route(window, sr, freqs), number=300)

    m = len(freqs)
    rows = [
        ["window samples N", n, n],
        ["target tones M", m, m],
        ["op-count model", f"{goertzel_op_count(n, m):.0f} (K_g·N·M)",
         f"{fft_op_count(n):.0f} (K_f·N·log N)"],
        ["measured time / window (us)", f"{1e6 * t_goertzel / 300:.1f}",
         f"{1e6 * t_fft / 300:.1f}"],
        ["power on the phone (mW)", "10 (mic+Goertzel)", "70 (mic+FFT)"],
    ]
    saving = PowerModel().goertzel_saving_mw()
    report(
        "ablation_goertzel_fft",
        render_table(
            ["quantity", "Goertzel", "FFT"],
            rows,
            title="§IV-D ablation — Goertzel vs FFT band extraction",
        )
        + f"\npower saving from Goertzel: {saving:.0f} mW (paper: ~60 mW)",
        report_dir,
    )
    return saving


def test_ablation_goertzel_vs_fft(benchmark, tmp_path):
    config = BeepConfig()
    sr = config.sample_rate_hz
    freqs = config.tone_frequencies_hz
    window = window_for(config)
    n, m = len(window), len(freqs)

    goertzel_result = benchmark(goertzel_route, window, sr, freqs)
    fft_result = fft_route(window, sr, freqs)
    assert goertzel_result == pytest.approx(fft_result, rel=1e-9)

    saving = run(config, window, str(tmp_path))

    # M = 2 tones << log2(N) ≈ 11: Goertzel's op count must win.
    assert goertzel_op_count(n, m) < fft_op_count(n)
    assert saving == pytest.approx(60.0, abs=10.0)
    # The recurrence form exists and agrees (used on the phone, where
    # numpy-style vectorisation is unavailable).
    assert goertzel_power(window, sr, freqs[0]) == pytest.approx(
        goertzel_power_vectorized(window, sr, freqs[0]), rel=1e-9
    )


if __name__ == "__main__":
    run(BeepConfig(), window_for(BeepConfig()))
