"""Synthetic E4 session generator for end-to-end verification.

Writes session directories in real E4 CSV layout plus a labels CSV. Both
classes share the same cardiovascular, temperature and movement models; the
"biased" class additionally carries elevated electrodermal driver activity:
extra sudomotor pulses with boosted amplitudes, at a rate and size scaled by
`effect_size`. With effect_size 0 the classes are statistically identical.
The extra activity can be confined to the final third of the session to
mimic a late-onset response. The pulse rates and amplitudes are module
constants; only the flags of `physiobias synth` are parameters.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .eda import phasic_kernel
from .errors import ParamError
from .ingest import ACC_COUNTS_PER_G, CHANNEL_FILES, IAT_CATEGORIES, PLAUSIBLE_RANGES, write_e4_csv
from .pool import spawn_pool
from .signals import Signal

RATES = {"eda": 4.0, "bvp": 64.0, "hr": 1.0, "skt": 4.0, "acc": 32.0}

# Electrodermal generator: sudomotor pulses shared by everyone, and the
# extra rate and amplitude that each unit of effect_size adds.
BASE_SCR_PER_MIN = 6.0
SCR_AMP_MEAN = 0.35          # microsiemens
SCR_AMP_SD = 0.12
EXTRA_RATE_PER_EFFECT = 1.0  # extra pulses/min per unit effect, per base pulse/min
AMP_GAIN_PER_EFFECT = 0.4    # amplitude multiplier slope

# Longest session and largest effect accepted: twice the longest E4
# recording (24 h), and an effect of 600 extra pulses a minute, more than two
# per EDA sample.
MAX_SESSION_SECONDS = 172_800.0
MAX_EFFECT_SIZE = 100.0

# Where the effect sits: the whole session, or only its final third.
EFFECT_LOCATIONS = ("uniform", "end")

@dataclass
class SynthParams:
    participants_per_class: int = 20
    session_seconds: float = 300.0
    effect_size: float = 3.0
    effect_location: str = "uniform"  # one of EFFECT_LOCATIONS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.participants_per_class < 1:
            raise ParamError(f"participants_per_class must be >= 1, got {self.participants_per_class}")
        if not 0 < self.session_seconds <= MAX_SESSION_SECONDS:
            raise ParamError(f"session_seconds must be positive and at most "
                             f"{MAX_SESSION_SECONDS:g} (48 h), got {self.session_seconds}")
        if not 0 <= self.effect_size <= MAX_EFFECT_SIZE:
            raise ParamError(f"effect_size must be >= 0 and at most {MAX_EFFECT_SIZE:g}, "
                             f"got {self.effect_size}")
        if self.effect_location not in EFFECT_LOCATIONS:
            raise ParamError(f"effect_location must be one of {EFFECT_LOCATIONS}, "
                             f"got {self.effect_location!r}")
        if self.seed < 0:
            raise ParamError(f"seed must be >= 0, got {self.seed}")


def _pulse_train(
    rng: np.random.Generator,
    n: int,
    rate: float,
    events_per_min: float,
    amp_mean: float,
    amp_sd: float,
    window: tuple[float, float],
) -> np.ndarray:
    """Driver with Poisson-placed pulses inside window (fractions of the
    session)."""
    driver = np.zeros(n)
    lo = int(window[0] * n)
    hi = max(lo + 1, int(window[1] * n))
    expected = events_per_min * (hi - lo) / rate / 60.0
    count = rng.poisson(expected)
    if count == 0:
        return driver
    positions = rng.integers(lo, hi, size=count)
    amplitudes = np.abs(rng.normal(amp_mean, amp_sd, size=count))
    np.add.at(driver, positions, amplitudes)
    return driver


def _gen_eda(rng: np.random.Generator, p: SynthParams, biased: bool, n: int) -> np.ndarray:
    rate = RATES["eda"]
    t = np.arange(n) / rate
    level = rng.uniform(1.5, 4.0)
    drift = 0.15 * np.sin(2 * np.pi * t / rng.uniform(120, 240) + rng.uniform(0, 2 * np.pi))
    trend = rng.uniform(-0.1, 0.1) * t / max(t[-1], 1.0)
    tonic = level + drift + trend

    driver = _pulse_train(rng, n, rate, BASE_SCR_PER_MIN, SCR_AMP_MEAN, SCR_AMP_SD, (0.0, 1.0))
    if biased and p.effect_size > 0:
        boost_amp = SCR_AMP_MEAN * (1.0 + AMP_GAIN_PER_EFFECT * p.effect_size)
        extra_rate = BASE_SCR_PER_MIN * EXTRA_RATE_PER_EFFECT * p.effect_size
        if p.effect_location == "end":
            # Late-onset response: quiet first third, a mild ramp over the
            # middle third, and the bulk of the extra activity surging in
            # the final third. A response confined strictly to the final
            # third cannot win the longest-run verdict, so the ramp keeps
            # late-onset participants detectable.
            ramp_amp = SCR_AMP_MEAN * (1.0 + 0.5 * AMP_GAIN_PER_EFFECT * p.effect_size)
            driver += _pulse_train(rng, n, rate, 0.6 * extra_rate, ramp_amp, SCR_AMP_SD, (0.45, 1.0))
            driver += _pulse_train(
                rng, n, rate, 1.5 * extra_rate, boost_amp, SCR_AMP_SD, (2.0 / 3.0, 1.0)
            )
        else:
            driver += _pulse_train(rng, n, rate, extra_rate, boost_amp, SCR_AMP_SD, (0.0, 1.0))

    phasic = np.convolve(driver, phasic_kernel(rate, n))[:n]
    noise = rng.normal(0.0, 0.005, size=n)
    # The E4 sensor saturates at its range; extract rejects samples above it.
    return np.clip(tonic + phasic + noise, 0.01, PLAUSIBLE_RANGES["EDA"][1])


def _gen_bvp(rng: np.random.Generator, n: int, heart_hz: float) -> np.ndarray:
    rate = RATES["bvp"]
    t = np.arange(n) / rate
    amp = rng.uniform(30.0, 60.0)
    phase = rng.uniform(0, 2 * np.pi)
    wave = amp * np.sin(2 * np.pi * heart_hz * t + phase)
    wave += 0.25 * amp * np.sin(4 * np.pi * heart_hz * t + 2 * phase)
    return wave + rng.normal(0.0, 0.04 * amp, size=n)


def _gen_hr(rng: np.random.Generator, n: int, heart_hz: float) -> np.ndarray:
    base = 60.0 * heart_hz
    jitter = np.cumsum(rng.normal(0.0, 0.25, size=n))
    jitter -= jitter.mean()
    return np.clip(base + jitter, 40.0, 180.0)


def _gen_skt(rng: np.random.Generator, n: int) -> np.ndarray:
    rate = RATES["skt"]
    t = np.arange(n) / rate
    base = rng.uniform(31.0, 34.5)
    slow = 0.2 * np.sin(2 * np.pi * t / rng.uniform(200, 400) + rng.uniform(0, 2 * np.pi))
    return base + slow + rng.normal(0.0, 0.01, size=n)


def _gen_acc_counts(rng: np.random.Generator, n: int) -> np.ndarray:
    counts = np.tile(np.array([0, 0, 64]), (n, 1)).astype(float)
    counts += rng.integers(-2, 3, size=(n, 3))
    for _ in range(rng.integers(1, 4)):  # short movement bursts
        start = rng.integers(0, max(1, n - 64))
        counts[start:start + 64] += rng.integers(-12, 13, size=(min(64, n - start), 3))
    return counts


def _write_session(sessions_dir: Path, params: SynthParams, idx: int,
                   stream: np.random.SeedSequence) -> tuple[str, str]:
    """Generate participant idx from its own seed stream and write its five
    channel files; returns its labels.csv row. Module-level, so that a worker
    process can receive it under any start method."""
    biased = idx < params.participants_per_class
    pid = f"P{idx + 1:03d}"
    rng = np.random.default_rng(stream)
    category_pool = IAT_CATEGORIES[:4] if biased else IAT_CATEGORIES[4:]

    # Channel start offsets exercise alignment trimming on ingest.
    base_start = 1.6e9 + idx * 10000.0
    offsets = {"eda": 0.0, "bvp": 0.5, "hr": 1.0, "skt": 0.25, "acc": 0.0}
    pad = 2.0  # generated beyond the common interval, trimmed on ingest

    heart_hz = rng.uniform(0.95, 1.5)
    session = sessions_dir / pid
    session.mkdir(exist_ok=True)

    def n_samples(channel: str) -> int:
        return int(round((params.session_seconds + pad) * RATES[channel]))

    samples = {  # drawn in this order from rng
        "eda": _gen_eda(rng, params, biased, n_samples("eda")),
        "bvp": _gen_bvp(rng, n_samples("bvp"), heart_hz),
        "hr": _gen_hr(rng, n_samples("hr"), heart_hz),
        "skt": _gen_skt(rng, n_samples("skt")),
        "acc": _gen_acc_counts(rng, n_samples("acc")) / ACC_COUNTS_PER_G,
    }
    for name, filename in CHANNEL_FILES.items():
        write_e4_csv(Signal(base_start + offsets[name], RATES[name], samples[name]),
                     session / filename)
    return pid, category_pool[idx % len(category_pool)]


def generate_corpus(out_dir: str | Path, params: SynthParams) -> tuple[Path, Path]:
    """Write session directories and the labels CSV.

    Participants are written in parallel on `pool.spawn_pool`, one worker
    process per available CPU at most. Each draws from its own stream of
    SeedSequence(seed).spawn, so the files do not depend on the number of
    workers. The workers import the caller's main module, so a script that
    calls this needs the `if __name__ == "__main__":` guard.

    Returns:
        (sessions_dir, labels_csv_path)
    """
    out_dir = Path(out_dir)
    sessions_dir = out_dir / "sessions"
    sessions_dir.mkdir(parents=True, exist_ok=True)

    total = 2 * params.participants_per_class
    streams = np.random.SeedSequence(params.seed).spawn(total)
    with spawn_pool(total) as pool:
        rows = list(pool.map(_write_session, repeat(sessions_dir), repeat(params),
                             range(total), streams))

    labels_path = out_dir / "labels.csv"
    with labels_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "iat_category"])
        for pid, category in sorted(rows):
            writer.writerow([pid, category])
    return sessions_dir, labels_path
