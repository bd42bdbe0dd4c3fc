"""Signal containers, accelerometer magnitude, and fixed-length windowing.

Every channel is carried as a :class:`Signal` (uniform rate, absolute start
time) whose samples are finite and below MAX_ABS_SAMPLE in magnitude; the
accelerometer's samples are (N, 3) rows. Below that bound, fourth powers
(kurtosis) and their sums over a window stay finite. Windowing cuts an
aligned multi-channel session into contiguous, non-overlapping windows, one
(n_windows, samples per window) matrix per channel whose row k is window k;
a trailing partial window is discarded, never padded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysioBiasError
from .params import DEFAULT_WINDOW_SECONDS

MAX_ABS_SAMPLE = 1e75


@dataclass
class Signal:
    """Uniformly sampled series.

    Args:
        start_time: unix seconds of the first sample.
        rate: sampling rate in Hz, > 0.
        samples: (N,) array of values below MAX_ABS_SAMPLE in magnitude
            (channel-specific units), or (N, 3) rows of accelerometer
            (x, y, z) in g.
    """

    start_time: float
    rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if not self.rate > 0:
            raise PhysioBiasError(f"rate must be > 0, got {self.rate}")
        triaxial = self.samples.shape[1:] == (3,)
        if not (self.samples.ndim == 1 or triaxial) or self.samples.size < 1:
            raise PhysioBiasError("samples must be a non-empty (N,) or (N, 3) array")
        # Half the bound per axis keeps every row's norm (at most sqrt(3)
        # times its largest axis) below it, so magnitude() is a valid Signal.
        bound = MAX_ABS_SAMPLE / 2 if triaxial else MAX_ABS_SAMPLE
        # A NaN fails both comparisons.
        if not -bound < self.samples.min() <= self.samples.max() < bound:
            raise PhysioBiasError(f"samples must be finite and below {bound:g} in magnitude")

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.rate

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


def magnitude(acc: Signal) -> Signal:
    """Per-sample Euclidean norm of an (N, 3) signal's acceleration axes."""
    mag = np.sqrt(np.sum(acc.samples * acc.samples, axis=1))
    return Signal(start_time=acc.start_time, rate=acc.rate, samples=mag)


def samples_per_window(rate: float, window_seconds: float) -> int:
    """Samples in one window. Every channel's windows start on the same
    instants only if rate * window_seconds is a whole number of samples.

    Raises:
        PhysioBiasError: rate * window_seconds is not a positive integer
            (within 1e-9), e.g. 2.5 s windows on the 1 Hz HR channel.
    """
    exact = rate * window_seconds
    spw = int(round(exact)) if np.isfinite(exact) else 0
    if spw < 1 or abs(exact - spw) > 1e-9:
        raise PhysioBiasError(
            f"{window_seconds:g} s windows hold {exact:g} samples at {rate:g} Hz; "
            "need a positive whole number of samples per window on every channel"
        )
    return spw


def window_matrices(
    channels: dict[str, Signal],
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> dict[str, np.ndarray]:
    """Split an aligned multi-channel session into contiguous windows.

    Returns, per channel, the (n_windows, samples per window) view of its
    samples whose row k covers [start + k*w, start + (k+1)*w); the trailing
    partial window is discarded. All channels must already cover the same
    interval (within one sample period per channel).

    Raises:
        PhysioBiasError: a channel's rate times window_seconds is not a
            positive whole number of samples, the channels do not start
            together, or the session is shorter than one window.
    """
    if not channels:
        raise ValueError("no channels to window")

    sigs = list(channels.values())
    start = sigs[0].start_time
    max_period = max(1.0 / s.rate for s in sigs)
    for s in sigs:
        if abs(s.start_time - start) > max_period:
            raise PhysioBiasError("channels are not aligned: start times differ")

    spw = {name: samples_per_window(s.rate, window_seconds) for name, s in channels.items()}
    n_windows = min(s.samples.size // spw[name] for name, s in channels.items())
    if n_windows < 1:
        raise PhysioBiasError(
            f"session shorter than one {window_seconds}s window "
            f"(min duration {min(s.duration for s in sigs):.2f}s)"
        )
    return {
        name: s.samples[:n_windows * spw[name]].reshape(n_windows, spw[name])
        for name, s in channels.items()
    }
