"""Per-window feature extraction across the seven feature signals.

Signals: eda, eda_tonic, eda_phasic, bvp, hr, skt, magnitude. Every signal
gets the nine statistical features; eda/eda_tonic/eda_phasic/bvp add six
waveform features; the three EDA signals add auc and max_peak; bvp adds the
nine beat-derived features. That yields the fixed 102-column vocabulary.

Conventions (pinned so the brute-force oracle can match exactly):
  - std/var/skewness/kurtosis use population moments; kurtosis is excess.
  - interq_range uses linear-interpolation quantiles.
  - distance sums hypot(1, dx) over consecutive samples (unit spacing).
  - power_spec is max of |DFT|^2 / (N * rate) excluding the DC bin.
  - a peak is a sample strictly greater than both neighbors.
  - missing values are NaN and stay NaN all the way into the model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .eda import DecompParams, EdaComponents, decompose
from .errors import InsufficientData
from .ingest import RawSession
from .signals import Window, magnitude, partition_windows, samples_per_window

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


def feature_columns() -> list[str]:
    """The fixed, ordered feature vocabulary (102 names)."""
    cols: list[str] = []
    for sig in FEATURE_SIGNALS:
        cols += [f"{sig}_{name}" for name in STAT_FEATURES]
        if sig in EXTRA_SIGNALS:
            cols += [f"{sig}_{name}" for name in EXTRA_FEATURES]
        if sig in AUC_SIGNALS:
            cols += [f"{sig}_{name}" for name in EDA_FEATURES]
        if sig == "bvp":
            cols += [f"bvp_{name}" for name in BEAT_FEATURES]
    return cols


FEATURE_COLUMNS = feature_columns()


@dataclass
class WindowFeatureVector:
    """Named feature values for one window; NaN marks a missing value."""

    participant_id: str
    window_index: int
    features: dict[str, float]


@dataclass
class RRSeries:
    """Inter-beat intervals (ms) and the peaks they came from."""

    intervals: np.ndarray = field(default_factory=lambda: np.empty(0))
    peak_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    peak_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        self.intervals = np.asarray(self.intervals, dtype=float)
        self.peak_indices = np.asarray(self.peak_indices, dtype=int)
        self.peak_values = np.asarray(self.peak_values, dtype=float)
        if self.intervals.size and (
            self.intervals.min() < RR_MIN_MS or self.intervals.max() > RR_MAX_MS
        ):
            raise ValueError("intervals outside the physiological gate")


def _strict_peak_indices(x: np.ndarray) -> np.ndarray:
    """Indices of samples strictly greater than both neighbors."""
    if x.size < 3:
        return np.empty(0, dtype=int)
    return np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1


def stat_features(x: np.ndarray, rate: float) -> dict[str, float]:
    """The nine statistical features. `rate` is unused here; the signature is
    shared with the other per-slice feature functions."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InsufficientData(f"need >= 2 samples for statistics, got {x.size}")
    q1, q3 = np.percentile(x, [25.0, 75.0])
    mean = float(x.mean())
    dx = np.diff(x)
    return {
        "max": float(x.max()),
        "min": float(x.min()),
        "median": float(np.median(x)),
        "mean": mean,
        "std": float(x.std()),
        "var": float(x.var()),
        "interq_range": float(q3 - q1),
        "mean_abs_dev": float(np.abs(x - mean).mean()),
        "distance": float(np.sqrt(1.0 + dx * dx).sum()),
    }


def extra_features(x: np.ndarray, rate: float) -> dict[str, float]:
    """Waveform features; skewness/kurtosis are NaN on zero variance."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise InsufficientData(f"need >= 4 samples for waveform features, got {n}")
    dev = x - x.mean()
    m2 = float((dev * dev).mean())
    if m2 == 0.0:
        kurtosis = np.nan
        skewness = np.nan
    else:
        kurtosis = float((dev ** 4).mean() / (m2 * m2) - 3.0)
        skewness = float((dev ** 3).mean() / m2 ** 1.5)
    spectrum = np.abs(np.fft.rfft(x)) ** 2 / (n * rate)
    return {
        "rms": float(np.sqrt((x * x).mean())),
        "kurtosis": kurtosis,
        "skewness": skewness,
        "zero_cross": float(np.sum(x[:-1] * x[1:] < 0)),
        "power_spec": float(spectrum[1:].max()),
        "num_peaks": float(_strict_peak_indices(x).size),
    }


def eda_extra_features(x: np.ndarray, rate: float) -> dict[str, float]:
    """Trapezoid area (sample spacing 1/rate) and the largest strict peak."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InsufficientData(f"need >= 2 samples for auc, got {x.size}")
    peaks = _strict_peak_indices(x)
    return {
        "auc": float(np.trapezoid(x, dx=1.0 / rate)),
        "max_peak": float(x[peaks].max()) if peaks.size else np.nan,
    }


def detect_beats(bvp: np.ndarray, rate: float) -> RRSeries:
    """Detect heartbeats in a BVP slice and return gated RR intervals.

    Peaks are strict local maxima above mean + 0.3*(max - mean), kept only
    if at least 0.3 s after the last accepted peak. Successive peak gaps
    outside [300, 2000] ms are dropped. Fewer than two accepted peaks yield
    an empty interval series.
    """
    bvp = np.asarray(bvp, dtype=float)
    if rate < 32:
        raise InsufficientData(f"BVP rate {rate:g} Hz is below 32 Hz")
    if bvp.size < rate:
        raise InsufficientData("need at least 1 s of BVP samples")
    threshold = bvp.mean() + BEAT_THRESHOLD_FRACTION * (bvp.max() - bvp.mean())
    candidates = [i for i in _strict_peak_indices(bvp) if bvp[i] > threshold]
    accepted: list[int] = []
    for i in candidates:
        if not accepted or (i - accepted[-1]) / rate >= BEAT_REFRACTORY_SECONDS:
            accepted.append(i)
    peaks = np.asarray(accepted, dtype=int)
    if peaks.size < 2:
        return RRSeries(peak_indices=peaks, peak_values=bvp[peaks] if peaks.size else np.empty(0))
    rr = np.diff(peaks) / rate * 1000.0
    rr = rr[(rr >= RR_MIN_MS) & (rr <= RR_MAX_MS)]
    return RRSeries(intervals=rr, peak_indices=peaks, peak_values=bvp[peaks])


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


def hrv_features(rr: RRSeries) -> dict[str, float]:
    """Heart-rate-variability features from one window's RR series.

    mean_peak needs one peak; sdnn/hr_mad need two intervals; the
    successive-difference features need three; breathingrate needs four.
    Anything below its requirement is NaN.
    """
    out = {name: np.nan for name in BEAT_FEATURES}
    if rr.peak_values.size >= 1:
        out["mean_peak"] = float(rr.peak_values.mean())
    iv = rr.intervals
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


def window_features(window: Window) -> WindowFeatureVector:
    """Compute the full 102-feature vector for one window."""
    values: dict[str, float] = {}
    for sig in FEATURE_SIGNALS:
        if sig not in window.channels:
            raise ValueError(f"window is missing channel {sig!r}")
        x = window.channels[sig]
        rate = window.rates[sig]
        for name, v in stat_features(x, rate).items():
            values[f"{sig}_{name}"] = v
        if sig in EXTRA_SIGNALS:
            for name, v in extra_features(x, rate).items():
                values[f"{sig}_{name}"] = v
        if sig in AUC_SIGNALS:
            for name, v in eda_extra_features(x, rate).items():
                values[f"{sig}_{name}"] = v
        if sig == "bvp":
            rr = detect_beats(x, rate)
            for name, v in hrv_features(rr).items():
                values[f"bvp_{name}"] = v
    ordered = {name: values[name] for name in FEATURE_COLUMNS}
    return WindowFeatureVector(
        participant_id=window.participant_id,
        window_index=window.index,
        features=ordered,
    )


def extract_session_features(
    session: RawSession,
    decomp_params: DecompParams | None = None,
    window_seconds: float = 5.0,
) -> tuple[list[WindowFeatureVector], EdaComponents]:
    """Decompose the session's EDA, window all seven signals, and compute
    per-window feature vectors.

    Raises:
        ParamError: window_seconds is not a whole number of samples on some
            channel; checked before the decomposition is paid for.
    """
    for sig in session.channels().values():
        samples_per_window(sig.rate, window_seconds)
    components = decompose(session.eda, decomp_params)
    channels = {
        "eda": session.eda,
        "eda_tonic": components.tonic,
        "eda_phasic": components.phasic,
        "bvp": session.bvp,
        "hr": session.hr,
        "skt": session.skt,
        "magnitude": magnitude(session.acc),
    }
    windows = partition_windows(channels, session.participant_id, window_seconds)
    return [window_features(w) for w in windows], components


def build_feature_matrix(
    sessions: list[tuple[str, int, list[WindowFeatureVector]]],
) -> Dataset:
    """Assemble one Dataset row per window across sessions.

    Args:
        sessions: (participant_id, label, feature vectors) triples.
    """
    pids: list[str] = []
    widx: list[int] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    for participant_id, label, vectors in sessions:
        for vec in vectors:
            pids.append(participant_id)
            widx.append(vec.window_index)
            labels.append(int(label))
            rows.append([vec.features[name] for name in FEATURE_COLUMNS])
    X = np.asarray(rows, dtype=float).reshape(len(rows), len(FEATURE_COLUMNS))
    return Dataset(
        X=X,
        y=np.asarray(labels, dtype=int),
        participant_ids=np.asarray(pids, dtype=object),
        window_indices=np.asarray(widx, dtype=int),
        column_names=list(FEATURE_COLUMNS),
    )
