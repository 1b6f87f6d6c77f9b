"""Unit tests for repro.network.profiles."""

import pytest

from repro.network.profiles import NetworkProfile, bursty, dead, lan, slow_start, wide_area

from helpers import arrival_schedule


class TestNetworkProfile:
    def test_transfer_time_scales_with_bytes(self):
        profile = NetworkProfile(bandwidth_kbps=100.0)
        assert profile.transfer_ms(2048) == pytest.approx(2 * profile.transfer_ms(1024))

    def test_transfer_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkProfile(bandwidth_kbps=0.0).transfer_ms(10)

    def test_arrival_schedule_monotone_and_after_latency(self):
        profile = NetworkProfile(initial_latency_ms=100.0, bandwidth_kbps=10.0)
        arrivals = arrival_schedule(profile, [512] * 5)
        assert arrivals == sorted(arrivals)
        assert arrivals[0] >= 100.0

    def test_arrival_schedule_deterministic_given_seed(self):
        profile = NetworkProfile(jitter_ms=20.0, seed=3)
        sizes = [100] * 10
        assert arrival_schedule(profile, sizes) == arrival_schedule(profile, sizes)

    def test_different_seed_changes_jittered_schedule(self):
        sizes = [100] * 10
        a = arrival_schedule(NetworkProfile(jitter_ms=20.0, seed=1), sizes)
        b = arrival_schedule(NetworkProfile(jitter_ms=20.0, seed=2), sizes)
        assert a != b

    def test_burst_gaps_increase_spread(self):
        sizes = [100] * 20
        smooth = arrival_schedule(NetworkProfile(bandwidth_kbps=100.0), sizes)
        gappy = arrival_schedule(
            NetworkProfile(bandwidth_kbps=100.0, burst_size=5, burst_gap_ms=50.0), sizes
        )
        assert gappy[-1] > smooth[-1]

    def test_with_overrides(self):
        profile = lan().with_overrides(initial_latency_ms=99.0)
        assert profile.initial_latency_ms == 99.0
        assert profile.bandwidth_kbps == lan().bandwidth_kbps

    def test_start_offset_shifts_schedule(self):
        profile = NetworkProfile(initial_latency_ms=10.0, bandwidth_kbps=100.0)
        base = arrival_schedule(profile, [100], start_ms=0.0)
        shifted = arrival_schedule(profile, [100], start_ms=500.0)
        assert shifted[0] == pytest.approx(base[0] + 500.0)


class TestCannedProfiles:
    def test_lan_is_fast(self):
        assert lan().bandwidth_kbps > wide_area().bandwidth_kbps

    def test_wide_area_matches_paper_measurements(self):
        profile = wide_area()
        assert profile.bandwidth_kbps == pytest.approx(82.1)
        assert profile.initial_latency_ms == pytest.approx(145.0)

    def test_dead_profile_unavailable(self):
        assert dead().unavailable

    def test_slow_start_latency_parameter(self):
        assert slow_start(delay_ms=1234.0).initial_latency_ms == 1234.0

    def test_bursty_has_gaps(self):
        profile = bursty()
        assert profile.burst_size > 0
        assert profile.burst_gap_ms > 0

    def test_overrides_via_kwargs(self):
        assert lan(seed=9).seed == 9
