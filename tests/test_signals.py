import re

import numpy as np
import pytest

from physiobias.errors import PhysioBiasError
from physiobias.signals import (
    MAX_ABS_SAMPLE,
    Signal,
    magnitude,
    samples_per_window,
    window_matrices,
)


def make_channels(duration_s: float, start: float = 0.0) -> dict[str, Signal]:
    return {
        "eda": Signal(start, 4.0, np.arange(int(duration_s * 4), dtype=float)),
        "bvp": Signal(start, 64.0, np.arange(int(duration_s * 64), dtype=float)),
        "hr": Signal(start, 1.0, np.arange(int(duration_s * 1), dtype=float) + 60.0),
    }


class TestSignal:
    def test_rejects_bad_rate(self):
        with pytest.raises(PhysioBiasError, match=re.escape("rate must be > 0, got 0.0")):
            Signal(0.0, 0.0, np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("samples must be a non-empty (N,) or (N, 3) array")):
            Signal(0.0, 4.0, np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("samples must be finite and below 1e+75 in magnitude")):
            Signal(0.0, 4.0, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("value", [1e75, -1e75, np.inf, 1e300])
    def test_rejects_samples_at_the_bound(self, value):
        with pytest.raises(PhysioBiasError, match="below 1e\\+75"):
            Signal(0.0, 4.0, np.array([1.0, value]))

    def test_accepts_samples_below_the_bound(self):
        assert Signal(0.0, 4.0, np.array([-9.9e74, 9.9e74])).samples.max() == 9.9e74

    @pytest.mark.parametrize("shape", [(4, 2), (4, 3, 1), (0,), (0, 3)])
    def test_rejects_shapes_other_than_a_series_or_xyz_rows(self, shape):
        with pytest.raises(PhysioBiasError, match="non-empty"):
            Signal(0.0, 4.0, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(8,), (8, 3)])
    def test_accepts_a_series_or_xyz_rows(self, shape):
        assert Signal(0.0, 4.0, np.zeros(shape)).duration == 2.0  # rows, not cells

    def test_duration(self):
        s = Signal(10.0, 4.0, np.zeros(8))
        assert s.duration == 2.0
        assert s.end_time == 12.0


class TestMagnitude:
    @pytest.mark.parametrize(
        "xyz, expected",
        [((3.0, 4.0, 0.0), 5.0), ((0.0, 0.0, 0.0), 0.0), ((1.0, 2.0, 2.0), 3.0)],
    )
    def test_known_triples(self, xyz, expected):
        acc = Signal(0.0, 32.0, np.array([xyz]))
        assert magnitude(acc).samples[0] == pytest.approx(expected, abs=0)

    def test_preserves_rate_and_start(self):
        acc = Signal(5.0, 32.0, np.ones((10, 3)))
        out = magnitude(acc)
        assert out.rate == 32.0 and out.start_time == 5.0

    def test_largest_accepted_axes_keep_the_norm_in_bounds(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("samples must be finite and below 5e+74 in magnitude")):
            Signal(0.0, 32.0, np.full((1, 3), MAX_ABS_SAMPLE / 2))
        below = np.nextafter(MAX_ABS_SAMPLE / 2, 0)
        mag = magnitude(Signal(0.0, 32.0, np.full((2, 3), -below))).samples
        assert np.all(mag < MAX_ABS_SAMPLE)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        xyz = rng.normal(size=(50, 3))
        mag = magnitude(Signal(0.0, 32.0, xyz)).samples
        assert np.all(mag >= np.abs(xyz).max(axis=1) - 1e-12)
        assert np.all(mag <= np.abs(xyz).sum(axis=1) + 1e-12)


class TestPartitionWindows:
    """Partitioning a session into one (n_windows, samples per window)
    matrix per channel."""

    def test_300s_session(self):
        windows = window_matrices(make_channels(300.0))
        assert windows["eda"].shape == (60, 20)
        assert windows["bvp"].shape == (60, 320)
        assert windows["hr"].shape == (60, 5)

    def test_floor_rule_discards_tail(self):
        windows = window_matrices(make_channels(12.0))
        assert {w.shape[0] for w in windows.values()} == {2}

    def test_too_short(self):
        with pytest.raises(PhysioBiasError, match=re.escape(
                "session shorter than one 5.0s window (min duration 4.00s)")):
            window_matrices(make_channels(4.9))

    def test_concatenation_is_prefix(self):
        channels = make_channels(17.0)
        windows = window_matrices(channels)
        for name, sig in channels.items():
            joined = windows[name].ravel()
            assert np.array_equal(joined, sig.samples[: joined.size])

    def test_window_count_identical_across_channels(self):
        windows = window_matrices(make_channels(47.0))
        shapes = {name: w.shape for name, w in windows.items()}
        assert shapes == {"eda": (9, 20), "bvp": (9, 320), "hr": (9, 5)}

    def test_windows_contiguous(self):
        channels = make_channels(25.0)
        windows = window_matrices(channels)
        for name, sig in channels.items():
            spw = windows[name].shape[1]
            assert windows[name].shape[0] == 5
            # Row k is window k, starting at k * 5 s, and shares the samples.
            assert np.shares_memory(windows[name], sig.samples)
            for k, row in enumerate(windows[name]):
                assert np.array_equal(row, sig.samples[k * spw:(k + 1) * spw])

    def test_misaligned_channels_rejected(self):
        channels = make_channels(30.0)
        channels["eda"] = Signal(7.0, 4.0, channels["eda"].samples)
        with pytest.raises(PhysioBiasError,
                           match=re.escape("channels are not aligned: start times differ")):
            window_matrices(channels)

    def test_custom_window_seconds(self):
        windows = window_matrices(make_channels(60.0), window_seconds=10.0)
        assert windows["eda"].shape == (6, 40)

    def test_fractional_samples_per_window_rejected(self):
        # 2.5 s is 10 EDA samples but 2.5 HR samples: rounding HR to 2 would
        # start HR window k at 2k s while EDA window k starts at 2.5k s.
        with pytest.raises(PhysioBiasError, match=re.escape(
                "2.5 s windows hold 2.5 samples at 1 Hz; need a positive whole number of samples "
                "per window on every channel")):
            window_matrices(make_channels(60.0), window_seconds=2.5)


class TestSamplesPerWindow:
    def test_whole_samples(self):
        assert samples_per_window(64.0, 5.0) == 320
        assert samples_per_window(10.0, 0.1 * 3) == 3  # float noise tolerated

    @pytest.mark.parametrize("rate, seconds", [(1.0, 2.5), (4.0, 0.1), (64.0, 0.3)])
    def test_fractional_rejected(self, rate, seconds):
        with pytest.raises(PhysioBiasError, match=re.escape(
                f"{seconds:g} s windows hold {rate * seconds:g} samples at {rate:g} Hz; need a "
                "positive whole number of samples per window on every channel")):
            samples_per_window(rate, seconds)
