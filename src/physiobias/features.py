"""Window features across the seven feature signals, one matrix per session,
which dataset.write_csv writes.

Signals: eda, eda_tonic, eda_phasic, bvp, hr, skt, magnitude. Every signal
gets the nine statistical features; eda/eda_tonic/eda_phasic/bvp add six
waveform features; the three EDA signals add auc and max_peak; bvp adds the
nine beat-derived features. That yields the fixed 102-column vocabulary.

Each feature group is one function from a signal's (n_windows, samples per
window) matrix to its feature columns, reducing along axis 1. Only beat
detection runs window by window, because its refractory rule is sequential.

Conventions (pinned so the brute-force oracle can match exactly):
  - std/var/skewness/kurtosis use population moments; kurtosis is excess.
  - interq_range uses linear-interpolation quantiles.
  - distance sums hypot(1, dx) over consecutive samples (unit spacing).
  - power_spec is max of |DFT|^2 / (N * rate) excluding the DC bin.
  - a peak is a sample strictly greater than both neighbors.
  - missing values are NaN and stay NaN all the way into the model.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .eda import DecompParams, EdaComponents, decompose
from .errors import PhysioBiasError
from .signals import Signal, magnitude, window_matrices

STAT_FEATURES = (
    "max", "min", "median", "mean", "std", "var",
    "interq_range", "mean_abs_dev", "distance",
)
EXTRA_FEATURES = ("rms", "kurtosis", "skewness", "zero_cross", "power_spec", "num_peaks")
EDA_FEATURES = ("auc", "max_peak")
BEAT_FEATURES = (
    "mean_peak", "sdnn", "sdsd", "rmssd", "pnn20", "pnn50",
    "hr_mad", "sd1_sd2", "breathingrate",
)

FEATURE_SIGNALS = ("eda", "eda_tonic", "eda_phasic", "bvp", "hr", "skt", "magnitude")
EXTRA_SIGNALS = ("eda", "eda_tonic", "eda_phasic", "bvp")
AUC_SIGNALS = ("eda", "eda_tonic", "eda_phasic")

# Physiological gate on inter-beat intervals, ms.
RR_MIN_MS = 300.0
RR_MAX_MS = 2000.0
# Peaks closer than this to an accepted peak are rejected.
BEAT_REFRACTORY_SECONDS = 0.3
BEAT_THRESHOLD_FRACTION = 0.3


def _peak_mask(x: np.ndarray) -> np.ndarray:
    """True at the interior samples (along the last axis) that are strictly
    greater than both neighbors."""
    mid = x[..., 1:-1]
    return (mid > x[..., :-2]) & (mid > x[..., 2:])


def stat_columns(X: np.ndarray, rate: float) -> np.ndarray:
    """The nine statistical features of each row of X, as (n, 9) columns in
    STAT_FEATURES order. `rate` is unused here; the signature is shared with
    the other feature groups."""
    if X.shape[1] < 2:
        raise PhysioBiasError(f"need >= 2 samples for statistics, got {X.shape[1]}")
    q1, q3 = np.percentile(X, [25.0, 75.0], axis=1)
    mean = X.mean(axis=1)
    dx = np.diff(X, axis=1)
    return np.column_stack([
        X.max(axis=1),
        X.min(axis=1),
        np.median(X, axis=1),
        mean,
        X.std(axis=1),
        X.var(axis=1),
        q3 - q1,
        np.abs(X - mean[:, None]).mean(axis=1),
        np.sqrt(1.0 + dx * dx).sum(axis=1),
    ])


def extra_columns(X: np.ndarray, rate: float) -> np.ndarray:
    """Waveform features of each row, (n, 6) in EXTRA_FEATURES order;
    skewness/kurtosis are NaN on zero variance."""
    n = X.shape[1]
    if n < 4:
        raise PhysioBiasError(f"need >= 4 samples for waveform features, got {n}")
    dev = X - X.mean(axis=1, keepdims=True)
    m2 = (dev * dev).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kurtosis = (dev ** 4).mean(axis=1) / (m2 * m2) - 3.0
        # float_power rounds like Python's float **; the array ** operator
        # differs from it in the last bit on some values.
        skewness = (dev ** 3).mean(axis=1) / np.float_power(m2, 1.5)
    flat = m2 == 0.0
    kurtosis[flat] = np.nan
    skewness[flat] = np.nan
    spectrum = np.abs(np.fft.rfft(X, axis=1)) ** 2 / (n * rate)
    return np.column_stack([
        np.sqrt((X * X).mean(axis=1)),
        kurtosis,
        skewness,
        np.sum(X[:, :-1] * X[:, 1:] < 0, axis=1),
        spectrum[:, 1:].max(axis=1),
        _peak_mask(X).sum(axis=1),
    ])


def eda_extra_columns(X: np.ndarray, rate: float) -> np.ndarray:
    """Trapezoid area (sample spacing 1/rate) and the largest strict peak of
    each row, (n, 2); max_peak is NaN for a row without a peak."""
    if X.shape[1] < 2:
        raise PhysioBiasError(f"need >= 2 samples for auc, got {X.shape[1]}")
    peaks = _peak_mask(X)
    max_peak = np.where(peaks, X[:, 1:-1], -np.inf).max(axis=1, initial=-np.inf)
    max_peak[~peaks.any(axis=1)] = np.nan
    return np.column_stack([np.trapezoid(X, dx=1.0 / rate, axis=1), max_peak])


def detect_beats(bvp: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Detect heartbeats in a BVP slice: (peak indices, gated RR intervals
    in ms).

    Peaks are strict local maxima above mean + 0.3*(max - mean), kept only
    if at least 0.3 s after the last accepted peak. Successive peak gaps
    outside [300, 2000] ms are dropped. Fewer than two accepted peaks yield
    no intervals.
    """
    bvp = np.asarray(bvp, dtype=float)
    if rate < 32:
        raise PhysioBiasError(f"BVP rate {rate:g} Hz is below 32 Hz")
    if bvp.size < rate:
        raise PhysioBiasError("need at least 1 s of BVP samples")
    threshold = bvp.mean() + BEAT_THRESHOLD_FRACTION * (bvp.max() - bvp.mean())
    candidates = [i for i in np.flatnonzero(_peak_mask(bvp)) + 1 if bvp[i] > threshold]
    accepted: list[int] = []
    for i in candidates:
        if not accepted or (i - accepted[-1]) / rate >= BEAT_REFRACTORY_SECONDS:
            accepted.append(i)
    peaks = np.asarray(accepted, dtype=int)
    rr = np.diff(peaks) / rate * 1000.0
    return peaks, rr[(rr >= RR_MIN_MS) & (rr <= RR_MAX_MS)]


def _breathing_rate(intervals: np.ndarray) -> float:
    """Breaths per minute: dominant 0.1-0.5 Hz periodogram bin of the RR
    series linearly resampled to 4 Hz. NaN when the band is empty or flat."""
    fs = 4.0
    beat_times = np.cumsum(intervals) / 1000.0
    span = beat_times[-1] - beat_times[0]
    if span <= 0:
        return np.nan
    n_grid = int(np.floor(span * fs)) + 1
    if n_grid < 4:
        return np.nan
    grid = beat_times[0] + np.arange(n_grid) / fs
    resampled = np.interp(grid, beat_times, intervals)
    resampled = resampled - resampled.mean()
    spectrum = np.abs(np.fft.rfft(resampled)) ** 2 / (n_grid * fs)
    freqs = np.fft.rfftfreq(n_grid, 1.0 / fs)
    band = (freqs >= 0.1) & (freqs <= 0.5)
    if not band.any() or spectrum[band].max() == 0.0:
        return np.nan
    return float(60.0 * freqs[band][np.argmax(spectrum[band])])


def hrv_features(intervals: np.ndarray, peak_values: np.ndarray) -> dict[str, float]:
    """Heart-rate-variability features from one window's RR intervals (ms)
    and the values of its beat peaks.

    mean_peak needs one peak; sdnn/hr_mad need two intervals; the
    successive-difference features need three; breathingrate needs four.
    Anything below its requirement is NaN.
    """
    out = {name: np.nan for name in BEAT_FEATURES}
    peak_values = np.asarray(peak_values, dtype=float)
    if peak_values.size >= 1:
        out["mean_peak"] = float(peak_values.mean())
    iv = np.asarray(intervals, dtype=float)
    if iv.size >= 2:
        out["sdnn"] = float(iv.std())
        med = float(np.median(iv))
        out["hr_mad"] = float(np.median(np.abs(iv - med)))
    if iv.size >= 3:
        d = np.diff(iv)
        sdsd = float(d.std())
        rmssd = float(np.sqrt((d * d).mean()))
        out["sdsd"] = sdsd
        out["rmssd"] = rmssd
        out["pnn20"] = float(np.mean(np.abs(d) > 20.0))
        out["pnn50"] = float(np.mean(np.abs(d) > 50.0))
        sd1 = rmssd / np.sqrt(2.0)
        sd2 = float(np.sqrt(max(0.0, 2.0 * out["sdnn"] ** 2 - 0.5 * sdsd * sdsd)))
        out["sd1_sd2"] = sd1 / sd2 if sd2 > 0 else np.nan
    if iv.size >= 4:
        out["breathingrate"] = _breathing_rate(iv)
    return out


def beat_columns(X: np.ndarray, rate: float) -> np.ndarray:
    """Beat-derived features of each row of a BVP matrix, (n, 9) in
    BEAT_FEATURES order; detection runs row by row."""
    beats = (detect_beats(x, rate) for x in X)
    rows = [list(hrv_features(rr, x[peaks]).values()) for x, (peaks, rr) in zip(X, beats)]
    return np.asarray(rows, dtype=float).reshape(len(rows), len(BEAT_FEATURES))


def _feature_groups(sig: str) -> list[tuple[tuple[str, ...], Callable]]:
    """The feature groups of one signal, in column order: each group's
    feature names and the function that computes its columns."""
    groups = [(STAT_FEATURES, stat_columns)]
    if sig in EXTRA_SIGNALS:
        groups.append((EXTRA_FEATURES, extra_columns))
    if sig in AUC_SIGNALS:
        groups.append((EDA_FEATURES, eda_extra_columns))
    if sig == "bvp":
        groups.append((BEAT_FEATURES, beat_columns))
    return groups


# The fixed, ordered feature vocabulary (102 names).
FEATURE_COLUMNS = [
    f"{sig}_{name}"
    for sig in FEATURE_SIGNALS
    for names, _ in _feature_groups(sig)
    for name in names
]


def window_feature_matrix(
    windows: dict[str, np.ndarray], rates: dict[str, float]
) -> np.ndarray:
    """The (n_windows, 102) features of one session, in FEATURE_COLUMNS order.

    windows maps every feature signal to its (n_windows, samples per window)
    matrix (see signals.window_matrices); rates maps it to its rate in Hz.
    """
    missing = [sig for sig in FEATURE_SIGNALS if sig not in windows]
    if missing:
        raise ValueError(f"no windows for channel(s) {missing}")
    return np.hstack([
        columns(windows[sig], rates[sig])
        for sig in FEATURE_SIGNALS
        for _, columns in _feature_groups(sig)
    ])


def extract_session_features(
    session: dict[str, Signal],
    decomp_params: DecompParams | None = None,
) -> tuple[np.ndarray, EdaComponents]:
    """Decompose the session's EDA, window all seven signals into the
    default 5 s windows, and compute the session's (n_windows, 102) feature
    matrix.

    `session` holds the five aligned channels that ingest.assemble_session
    returns: eda, bvp, hr, skt and the (N, 3) acc.

    Every check on the window size runs on the session's first window
    before the decomposition is paid for, the EDA standing in for its
    components.

    Raises:
        PhysioBiasError: a window is not a whole number of samples at some
            channel's rate, the session is shorter than one window, or a
            window holds too few samples for a feature.
    """
    eda = session["eda"]
    channels = {"eda": eda, "eda_tonic": eda, "eda_phasic": eda, "bvp": session["bvp"],
                "hr": session["hr"], "skt": session["skt"], "magnitude": magnitude(session["acc"])}
    rates = {name: s.rate for name, s in channels.items()}
    windows = window_matrices(channels)
    window_feature_matrix({name: w[:1] for name, w in windows.items()}, rates)
    components = decompose(eda, decomp_params)
    channels["eda_tonic"] = components.tonic
    channels["eda_phasic"] = components.phasic
    windows = window_matrices(channels)
    return window_feature_matrix(windows, rates), components

