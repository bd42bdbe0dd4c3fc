import math
import re

import numpy as np
import pytest

import oracles
from conftest import slice_features
from physiobias.dataset import from_csv, write_csv
from physiobias.eda import decompose
from physiobias.errors import PhysioBiasError
from physiobias.features import (
    AUC_SIGNALS,
    BEAT_FEATURES,
    EXTRA_FEATURES,
    EXTRA_SIGNALS,
    FEATURE_COLUMNS,
    FEATURE_SIGNALS,
    detect_beats,
    eda_extra_columns,
    extract_session_features,
    extra_columns,
    hrv_features,
    stat_columns,
    window_feature_matrix,
)
from physiobias.ingest import assemble_session, load_labels
from physiobias.signals import magnitude, window_matrices
from physiobias.synth import SynthParams, generate_corpus


class TestStatFeatures:
    def test_hand_example(self):
        out = slice_features(stat_columns, np.array([1.0, 2.0, 3.0]), 4.0)
        assert out["mean"] == 2.0
        assert out["median"] == 2.0
        assert out["var"] == pytest.approx(2.0 / 3.0)
        assert out["mean_abs_dev"] == pytest.approx(2.0 / 3.0)

    def test_constant_slice(self):
        out = slice_features(stat_columns, np.array([5.0, 5.0, 5.0, 5.0]), 4.0)
        assert out["std"] == 0.0
        assert out["var"] == 0.0
        assert out["interq_range"] == 0.0
        assert out["distance"] == 3.0  # flat signal traverses 1 per step

    def test_distance_unit_spacing(self):
        out = slice_features(stat_columns, np.array([0.0, 1.0]), 4.0)
        assert out["distance"] == pytest.approx(math.sqrt(2.0))

    def test_too_short(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("need >= 2 samples for statistics, got 1")):
            slice_features(stat_columns, np.array([1.0]), 4.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        a = slice_features(stat_columns, x, 4.0)
        b = slice_features(stat_columns, x + 17.5, 4.0)
        for name in ("std", "var", "interq_range", "mean_abs_dev", "distance"):
            assert b[name] == pytest.approx(a[name], abs=1e-9)
        for name in ("max", "min", "median", "mean"):
            assert b[name] == pytest.approx(a[name] + 17.5, abs=1e-9)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        c = 3.5
        a = slice_features(stat_columns, x, 4.0)
        b = slice_features(stat_columns, c * x, 4.0)
        assert b["mean"] == pytest.approx(c * a["mean"], rel=1e-12)
        assert b["std"] == pytest.approx(c * a["std"], rel=1e-12)
        assert b["var"] == pytest.approx(c * c * a["var"], rel=1e-12)


class TestExtraFeatures:
    def test_rms(self):
        out = slice_features(extra_columns, np.array([3.0, 4.0, 3.0, 4.0]), 4.0)
        assert out["rms"] == pytest.approx(math.sqrt(12.5))

    def test_alternating_signs(self):
        out = slice_features(extra_columns, np.array([1.0, -1.0, 1.0, -1.0]), 4.0)
        assert out["zero_cross"] == 3
        assert out["kurtosis"] == pytest.approx(-2.0)

    def test_num_peaks(self):
        out = slice_features(extra_columns, np.array([0.0, 1.0, 0.0, 2.0, 0.0]), 4.0)
        assert out["num_peaks"] == 2

    def test_zero_variance_moments_missing(self):
        out = slice_features(extra_columns, np.full(8, 3.3), 4.0)
        assert np.isnan(out["kurtosis"]) and np.isnan(out["skewness"])
        assert out["rms"] == pytest.approx(3.3)

    def test_power_spec_excludes_dc(self):
        # A pure offset has all its energy in the DC bin.
        out = slice_features(extra_columns, np.full(8, 2.0) + np.array([0, 1e-9] * 4), 4.0)
        assert out["power_spec"] < 1e-12

    def test_skew_kurt_scale_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        a = slice_features(extra_columns, x, 4.0)
        b = slice_features(extra_columns, 4.2 * x, 4.0)
        assert b["skewness"] == pytest.approx(a["skewness"], abs=1e-9)
        assert b["kurtosis"] == pytest.approx(a["kurtosis"], abs=1e-9)

    def test_too_short(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("need >= 4 samples for waveform features, got 3")):
            slice_features(extra_columns, np.array([1.0, 2.0, 3.0]), 4.0)


class TestEdaExtraFeatures:
    def test_auc_triangle(self):
        out = slice_features(eda_extra_columns, np.array([0.0, 1.0, 0.0]), 4.0)
        assert out["auc"] == pytest.approx(0.25)

    def test_auc_and_max_peak(self):
        out = slice_features(eda_extra_columns, np.array([0.0, 2.0, 0.0, 3.0, 0.0]), 1.0)
        assert out["auc"] == pytest.approx(5.0)
        assert out["max_peak"] == 3.0

    def test_constant_has_no_peak(self):
        out = slice_features(eda_extra_columns, np.full(6, 1.0), 4.0)
        assert np.isnan(out["max_peak"])


class TestDetectBeats:
    def test_sinusoid_beats(self):
        t = np.arange(320) / 64.0
        peaks, rr = detect_beats(np.sin(2 * np.pi * 1.2 * t), 64.0)
        assert peaks.size in (5, 6)
        # generator period is 1/1.2 s ~ 833 ms; grid quantization allows ~2%
        assert np.all(np.abs(rr - 833.3) < 20.0)

    def test_flat_slice(self):
        peaks, rr = detect_beats(np.zeros(320), 64.0)
        assert rr.size == 0
        assert peaks.size == 0

    def test_refractory_rejects_close_spike(self):
        t = np.arange(320) / 64.0
        x = np.sin(2 * np.pi * 1.2 * t)
        clean, _ = detect_beats(x, 64.0)
        true_peak = int(clean[1])
        spiked = x.copy()
        spike_at = true_peak + 6  # 0.094 s later, inside the 0.3 s refractory
        spiked[spike_at] += 1.5
        peaks, _ = detect_beats(spiked, 64.0)
        assert true_peak in peaks
        assert spike_at not in peaks

    def test_rate_gate(self):
        with pytest.raises(PhysioBiasError, match=re.escape("BVP rate 16 Hz is below 32 Hz")):
            detect_beats(np.zeros(100), 16.0)

    def test_length_gate(self):
        with pytest.raises(PhysioBiasError, match=re.escape("need at least 1 s of BVP samples")):
            detect_beats(np.zeros(30), 64.0)

    def test_rr_gating_drops_implausible_interval(self):
        # two peaks 0.2 s apart would give 200 ms (below the gate), but the
        # refractory rule already rejects the second; build 2.5 s gaps instead
        x = np.zeros(640)
        x[[100, 260, 600]] = 1.0  # gaps 2500 ms (gated out) and 5312 ms
        peaks, rr = detect_beats(x, 64.0)
        assert peaks.size == 3
        assert rr.size == 0  # all gaps outside [300, 2000] ms


class TestHrvFeatures:
    def test_hand_example(self):
        out = hrv_features([800.0, 810.0, 790.0], [1.0, 2.0, 3.0, 2.0])
        assert out["sdnn"] == pytest.approx(8.16496580927726)
        assert out["rmssd"] == pytest.approx(math.sqrt((10 ** 2 + 20 ** 2) / 2.0))
        assert out["hr_mad"] == 10.0
        assert out["mean_peak"] == 2.0

    def test_pnn_strict_inequality(self):
        # successive differences 10, -20, 60: only |60| clears both gates
        out = hrv_features([800.0, 810.0, 790.0, 850.0], [])
        assert out["pnn20"] == pytest.approx(1.0 / 3.0)
        assert out["pnn50"] == pytest.approx(1.0 / 3.0)

    def test_identical_intervals(self):
        out = hrv_features([800.0] * 4, [])
        assert out["sdnn"] == 0.0
        assert out["rmssd"] == 0.0
        assert np.isnan(out["sd1_sd2"])

    def test_empty_series_all_missing(self):
        out = hrv_features([], [])
        assert all(np.isnan(v) for v in out.values())

    def test_rmssd_sdsd_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            iv = rng.uniform(400, 1500, rng.integers(3, 12))
            out = hrv_features(iv, [])
            mean_diff = float(np.diff(iv).mean())
            assert out["rmssd"] ** 2 == pytest.approx(
                out["sdsd"] ** 2 + mean_diff ** 2, rel=1e-9, abs=1e-9
            )

    def test_breathingrate_requires_four_intervals(self):
        out = hrv_features([800.0, 820.0, 780.0], [])
        assert np.isnan(out["breathingrate"])

    def test_breathingrate_in_band(self):
        rng = np.random.default_rng(9)
        iv = 800.0 + 60.0 * np.sin(np.arange(12) * 2.0) + rng.normal(0, 5, 12)
        out = hrv_features(iv, [])
        assert 6.0 <= out["breathingrate"] <= 30.0  # 60 * [0.1, 0.5] Hz


class TestOracleEquivalence:
    """Spot checks against the independent brute-force implementations;
    the acceptance suite runs the full 1000-slice version."""

    def test_slice_features(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(20, 321))
            x = rng.normal(0, rng.uniform(0.5, 2.0), n) + rng.uniform(-1, 1)
            rate = float(rng.choice([1.0, 4.0, 32.0, 64.0]))
            for columns, oracle in (
                (stat_columns, oracles.o_stat_features),
                (extra_columns, oracles.o_extra_features),
                (eda_extra_columns, oracles.o_eda_extra_features),
            ):
                got = slice_features(columns, x, rate)
                want = oracle(list(x), rate)
                for name, value in got.items():
                    if np.isnan(value) and np.isnan(want[name]):
                        continue
                    assert value == pytest.approx(want[name], rel=1e-9, abs=1e-9), name

    def test_hrv(self):
        rng = np.random.default_rng(321)
        for _ in range(60):
            m = int(rng.integers(2, 14))
            iv = rng.uniform(400, 1400, m)
            pv = rng.uniform(5, 60, m + 1)
            got = hrv_features(iv, pv)
            want = oracles.o_hrv_features(list(iv), list(pv))
            for name, value in got.items():
                if np.isnan(value) and np.isnan(want[name]):
                    continue
                assert value == pytest.approx(want[name], rel=1e-9, abs=1e-9), name

    def test_beats(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            n = int(rng.integers(64, 400))
            x = np.sin(
                2 * np.pi * rng.uniform(0.8, 2.0) * np.arange(n) / 64.0
                + rng.uniform(0, 6)
            ) + rng.normal(0, 0.3, n)
            got_peaks, got_rr = detect_beats(x, 64.0)
            peaks, rr = oracles.o_detect_beats(list(x), 64.0)
            assert list(got_peaks) == peaks
            assert got_rr == pytest.approx(rr, rel=1e-12)


RATES = {"eda": 4.0, "eda_tonic": 4.0, "eda_phasic": 4.0, "bvp": 64.0,
         "hr": 1.0, "skt": 4.0, "magnitude": 32.0}


def make_windows(bvp=None) -> dict[str, np.ndarray]:
    """One 5 s window of every feature signal, as one-row matrices."""
    rng = np.random.default_rng(77)
    t64 = np.arange(320) / 64.0
    channels = {
        "eda": rng.uniform(1, 3, 20),
        "eda_tonic": rng.uniform(1, 2, 20),
        "eda_phasic": rng.uniform(0, 1, 20),
        "bvp": np.sin(2 * np.pi * 1.1 * t64) if bvp is None else bvp,
        "hr": rng.uniform(60, 90, 5),
        "skt": rng.uniform(31, 34, 20),
        "magnitude": rng.uniform(0.9, 1.1, 160),
    }
    return {name: x[None, :] for name, x in channels.items()}


class TestWindowFeatures:
    def test_column_vocabulary(self):
        assert len(FEATURE_COLUMNS) == 102
        assert len(set(FEATURE_COLUMNS)) == 102
        assert window_feature_matrix(make_windows(), RATES).shape == (1, 102)

    def test_hr_gets_stats_only(self):
        assert "hr_mean" in FEATURE_COLUMNS
        assert "hr_rms" not in FEATURE_COLUMNS
        assert "hr_auc" not in FEATURE_COLUMNS
        # hr_mad is a BVP beat feature, not an HR-channel one
        assert "bvp_hr_mad" in FEATURE_COLUMNS
        assert "hr_hr_mad" not in FEATURE_COLUMNS

    def test_flat_bvp_yields_missing_beat_features(self):
        row = window_feature_matrix(make_windows(bvp=np.zeros(320)), RATES)[0]
        for name in BEAT_FEATURES:
            assert np.isnan(row[FEATURE_COLUMNS.index(f"bvp_{name}")])

    def test_missing_channel_rejected(self):
        windows = make_windows()
        del windows["skt"]
        with pytest.raises(ValueError):
            window_feature_matrix(windows, RATES)


class TestBuildFeatureMatrix:
    def test_rows_columns_and_missing(self, tmp_path):
        row_a = window_feature_matrix(make_windows(), RATES)
        row_b = window_feature_matrix(make_windows(bvp=np.zeros(320)), RATES)
        matrix_a = np.vstack([row_a, row_b])
        write_csv(tmp_path / "features.csv", FEATURE_COLUMNS,
                  [("pA", 1, matrix_a), ("pB", 0, row_a)], meta={})
        data = from_csv(tmp_path / "features.csv")
        assert same_bits(data.X, np.vstack([matrix_a, row_a])).all()
        assert data.X.shape == (3, 102)
        assert list(data.column_names) == FEATURE_COLUMNS
        assert data.y.tolist() == [1, 1, 0]
        assert data.participant_ids.tolist() == ["pA", "pA", "pB"]
        assert data.window_indices.tolist() == [0, 1, 0]
        assert np.isnan(data.X[1, FEATURE_COLUMNS.index("bvp_rmssd")])
        assert not np.isnan(data.X[1, FEATURE_COLUMNS.index("eda_mean")])


@pytest.fixture(scope="module")
def synth_sessions(tmp_path_factory):
    """Six 5-minute synthetic sessions (synth seed 3), each with its seven
    feature signals after one decomposition."""
    root = tmp_path_factory.mktemp("synth")
    sessions_dir, labels_path = generate_corpus(
        root, SynthParams(participants_per_class=3, session_seconds=300.0, seed=3)
    )
    labels = load_labels(labels_path)
    out = []
    for d in sorted(sessions_dir.iterdir()):
        session = assemble_session(d, labels)
        comp = decompose(session["eda"])
        channels = {
            "eda": session["eda"], "eda_tonic": comp.tonic, "eda_phasic": comp.phasic,
            "bvp": session["bvp"], "hr": session["hr"], "skt": session["skt"],
            "magnitude": magnitude(session["acc"]),
        }
        out.append((session, channels))
    return out


def per_slice_row(slices: dict[str, np.ndarray]) -> list[float]:
    """One window's 102 features, each group computed on its slice alone,
    by name."""
    values = {}
    for sig in FEATURE_SIGNALS:
        x, rate = slices[sig], RATES[sig]
        groups = [slice_features(stat_columns, x, rate)]
        if sig in EXTRA_SIGNALS:
            groups.append(slice_features(extra_columns, x, rate))
        if sig in AUC_SIGNALS:
            groups.append(slice_features(eda_extra_columns, x, rate))
        if sig == "bvp":
            peaks, rr = detect_beats(x, rate)
            groups.append(hrv_features(rr, x[peaks]))
        for group in groups:
            values.update({f"{sig}_{name}": v for name, v in group.items()})
    return [values[name] for name in FEATURE_COLUMNS]


def oracle_row(slices: dict[str, np.ndarray]) -> list[float]:
    """One window's 102 features from the brute-force oracles, by name."""
    values = {}
    for sig in FEATURE_SIGNALS:
        xs, rate = list(slices[sig]), RATES[sig]
        groups = [oracles.o_stat_features(xs, rate)]
        if sig in EXTRA_SIGNALS:
            groups.append(oracles.o_extra_features(xs, rate))
        if sig in AUC_SIGNALS:
            groups.append(oracles.o_eda_extra_features(xs, rate))
        if sig == "bvp":
            peaks, rr = oracles.o_detect_beats(xs, rate)
            groups.append(oracles.o_hrv_features(rr, [xs[i] for i in peaks]))
        for group in groups:
            values.update({f"{sig}_{name}": v for name, v in group.items()})
    return [values[name] for name in FEATURE_COLUMNS]


def same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: equal bit patterns, with every NaN counted as one."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.where(nan | np.isnan(b), nan == np.isnan(b), a.view(np.int64) == b.view(np.int64))


class TestBatchedPath:
    """The session matrix is the per-slice features of every window."""

    @pytest.mark.parametrize("window_seconds", [5.0, 10.0])
    def test_matrix_equals_per_slice_functions(self, synth_sessions, window_seconds):
        for _, channels in synth_sessions:
            windows = window_matrices(channels, window_seconds)
            matrix = window_feature_matrix(windows, RATES)
            assert matrix.shape == (300 / window_seconds, 102)
            for k in range(matrix.shape[0]):
                want = per_slice_row({sig: w[k] for sig, w in windows.items()})
                ok = same_bits(matrix[k], want)
                assert ok.all(), [c for c, good in zip(FEATURE_COLUMNS, ok) if not good]

    def test_extract_session_features_is_the_matrix(self, synth_sessions):
        session, channels = synth_sessions[0]
        matrix, _ = extract_session_features(session)
        want = window_feature_matrix(window_matrices(channels), RATES)
        assert same_bits(matrix, want).all()

    def test_session_matches_oracles(self, synth_sessions):
        _, channels = synth_sessions[1]
        windows = window_matrices(channels)
        matrix = window_feature_matrix(windows, RATES)
        for k in range(matrix.shape[0]):
            want = oracle_row({sig: w[k] for sig, w in windows.items()})
            for name, got, exp in zip(FEATURE_COLUMNS, matrix[k], want):
                if np.isnan(got) and np.isnan(exp):
                    continue
                assert abs(got - exp) <= 1e-9 * max(1.0, abs(got), abs(exp)), (k, name, got, exp)

    def test_skewness_rounds_like_python_float_power(self):
        # numpy's array ** can differ from Python's float ** in the last bit;
        # the per-slice definition divides by the Python-rounded m2 ** 1.5.
        rng = np.random.default_rng(11)
        X = rng.normal(0.0, rng.uniform(0.1, 5.0, (2000, 1)), (2000, 20))
        want = []
        for x in X:
            dev = x - x.mean()
            m2 = float((dev * dev).mean())
            want.append(float((dev ** 3).mean() / m2 ** 1.5))
        skewness = extra_columns(X, 4.0)[:, EXTRA_FEATURES.index("skewness")]
        assert same_bits(skewness, want).all()
