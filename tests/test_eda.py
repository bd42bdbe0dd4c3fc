import dataclasses
import re

import numpy as np
import pytest
from scipy import sparse

import oracles
from physiobias.eda import (
    DecompParams,
    _spline_basis,
    decompose,
    dump_components_csv,
    phasic_kernel,
)
from physiobias.errors import PhysioBiasError
from physiobias.signals import Signal

RATE = 4.0


def pulse_signal(n=480, pulse_sample=120, amplitude=1.0, slope=0.004, level=2.0):
    """Ramp plus one kernel response of known onset: gives a ground-truth driver."""
    t = np.arange(n) / RATE
    kernel = phasic_kernel(RATE, n)
    driver = np.zeros(n)
    driver[pulse_sample] = amplitude
    return Signal(0.0, RATE, level + slope * t + np.convolve(driver, kernel)[:n])


class TestBatemanKernel:
    def test_zero_at_origin(self):
        h = phasic_kernel(RATE, 160)
        assert h[0] == 0.0

    def test_peak_normalized_single_interior_max(self):
        h = phasic_kernel(RATE, 160)
        assert h.max() == 1.0
        peak = int(np.argmax(h))
        assert 0 < peak < h.size - 1
        # strictly rising then strictly falling around the peak
        assert np.all(np.diff(h[: peak + 1]) > 0)
        assert np.all(np.diff(h[peak:]) < 0)

    def test_decays_to_zero(self):
        h = phasic_kernel(RATE, 400)
        assert h[-1] < 1e-8

    def test_nonnegative(self):
        h = phasic_kernel(RATE, 160)
        assert np.all(h >= 0.0)

    def test_peak_location_matches_grid_argmax(self):
        # Frozen by brute-force evaluation of exp(-t/2) - exp(-t/0.7) on the
        # 4 Hz grid: the maximum sits at sample 5 (t = 1.25 s), inside (0, 3 s).
        h = phasic_kernel(RATE, 160)
        assert int(np.argmax(h)) == 5


class TestDecompParams:
    def test_validation(self):
        with pytest.raises(PhysioBiasError,
                           match=re.escape("alpha, gamma and tol must be > 0 and finite")):
            DecompParams(alpha=0.0)
        with pytest.raises(PhysioBiasError, match=re.escape("knot_spacing must be > 0 and finite")):
            DecompParams(knot_spacing=-1.0)

    @pytest.mark.parametrize("name", ["knot_spacing", "alpha", "gamma", "tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(PhysioBiasError, match="finite"):
            DecompParams(**{name: value})


class TestDecompose:
    def test_constant_input(self):
        sig = Signal(0.0, RATE, np.full(480, 2.7))
        comp = decompose(sig)
        assert np.abs(comp.phasic.samples).max() <= 1e-3
        assert np.abs(comp.tonic.samples - 2.7).max() <= 1e-3 * max(1.0, 2.7)
        assert np.abs(comp.driver.samples).max() <= 1e-6

    def test_planted_pulse_recovery(self):
        comp = decompose(pulse_signal())
        t = np.arange(480) / RATE
        driver = comp.driver.samples
        near = np.abs(t - 30.0) <= 1.0
        assert driver.sum() > 0
        assert driver[near].sum() / driver.sum() >= 0.8

    def test_objective_monotone(self):
        comp = decompose(pulse_signal())
        trace = comp.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_residual_beats_trivial_decomposition(self):
        rng = np.random.default_rng(1)
        y = 2.0 + 0.3 * np.sin(np.arange(480) / 40.0) + rng.normal(0, 0.05, 480)
        comp = decompose(Signal(0.0, RATE, y))
        assert comp.residual_rms <= float(np.std(y))

    def test_additivity(self):
        sig = pulse_signal()
        comp = decompose(sig)
        recon = comp.tonic.samples + comp.phasic.samples
        residual = sig.samples - recon
        rms = float(np.sqrt(np.mean(residual ** 2)))
        assert rms == pytest.approx(comp.residual_rms, abs=1e-12)

    def test_tonic_plus_phasic_matches_input_minus_residual(self):
        sig = pulse_signal(n=1200)
        comp = decompose(sig)
        residual = sig.samples - comp.tonic.samples - comp.phasic.samples
        np.testing.assert_allclose(
            comp.tonic.samples + comp.phasic.samples, sig.samples - residual, atol=1e-12
        )

    def test_driver_nonnegative(self):
        comp = decompose(pulse_signal())
        assert comp.driver.samples.min() >= -1e-9

    def test_components_share_geometry(self):
        sig = pulse_signal()
        comp = decompose(sig)
        for part in (comp.tonic, comp.phasic, comp.driver):
            assert part.rate == sig.rate
            assert part.start_time == sig.start_time
            assert part.samples.size == sig.samples.size

    def test_scaling_covariance(self):
        # Scaling the input by c > 0 with alpha scaled by c (gamma unchanged)
        # scales every component by c: the objective is then c^2 times the
        # original at c*x, so the minimizer scales exactly.
        tight = DecompParams(tol=1e-13, max_iter=40000)
        c = 2.5
        sig = pulse_signal()
        base = decompose(sig, tight)
        scaled = decompose(
            Signal(sig.start_time, sig.rate, c * sig.samples),
            dataclasses.replace(tight, alpha=tight.alpha * c),
        )
        for name in ("tonic", "phasic", "driver"):
            a = getattr(base, name).samples * c
            b = getattr(scaled, name).samples
            assert np.abs(a - b).max() <= 1e-6

    def test_too_short(self):
        with pytest.raises(PhysioBiasError, match=re.escape(
                "EDA too short to decompose: 100 samples < 160 (4 knot spacings at 4 Hz)")):
            decompose(Signal(0.0, RATE, np.ones(100)))

    def test_shortest_solve_is_four_knot_spacings_rounded_down(self):
        # 4 x 7.3 s at 4 Hz is 116.8 samples: 116 decompose, 115 do not
        params = DecompParams(knot_spacing=7.3)
        assert decompose(pulse_signal(n=116, pulse_sample=40), params).tonic.samples.size == 116
        with pytest.raises(PhysioBiasError, match="115 samples < 116 "):
            decompose(pulse_signal(n=115, pulse_sample=40), params)

    @pytest.mark.parametrize("knot_spacing, minimum", [(1e305, "1.6e+306"), (2e307, "inf")])
    def test_huge_knot_spacing_is_too_short_for_any_signal(self, knot_spacing, minimum):
        with pytest.raises(PhysioBiasError, match=rf"480 samples < {re.escape(minimum)} \("):
            decompose(pulse_signal(), DecompParams(knot_spacing=knot_spacing))

    def test_two_hour_signal_converges(self):
        comp = decompose(drifting_eda(120.0, 0))
        assert comp.converged
        assert comp.iterations < 2500

    def test_non_convergence_flagged_not_fatal(self):
        params = DecompParams(tol=1e-16, max_iter=5)
        comp = decompose(pulse_signal(), params)
        assert comp.converged is False
        assert comp.iterations == 5


def drifting_eda(minutes: float, seed: int) -> Signal:
    """Slow tonic drift plus random sudomotor pulses and sensor noise."""
    rng = np.random.default_rng(seed)
    n = int(minutes * 60 * RATE)
    t = np.arange(n) / RATE
    driver = np.zeros(n)
    onsets = rng.choice(n, size=int(6 * minutes), replace=False)
    driver[onsets] = rng.uniform(0.1, 0.6, onsets.size)
    phasic = np.convolve(driver, phasic_kernel(RATE, 160))[:n]
    tonic = 2.5 + 0.15 * np.sin(2 * np.pi * t / 180.0) + 0.05 * t / t[-1]
    return Signal(0.0, RATE, tonic + phasic + rng.normal(0.0, 0.005, n))


class TestDenseReference:
    """The returned decomposition is optimal: checked from its components
    alone against the KKT conditions of the convex program, and against the
    dense reference in oracles.o_decompose_dense (the full-system solver
    that stops on a small relative change of the objective)."""

    @staticmethod
    def optimality(sig: Signal, tonic, phasic, driver, params: DecompParams):
        """(B, D, e, g, c, objective) of a decomposition: the residual
        e = tonic + phasic - y, the gradient g = K'e on the driver and the
        tonic's spline coefficients c. Cubic B-splines span the affine trend
        (B W = D), so tonic = B c + D d fixes c only up to W; at an optimum
        D'e = 0 and B'e + gamma*c = 0, so W'c = 0, and c is taken so."""
        y = sig.samples
        n = y.size
        t = np.arange(n) / sig.rate
        B = _spline_basis(n, sig.rate, params.knot_spacing).toarray()
        D = np.column_stack([t / t[-1], np.ones(n)])
        e = tonic + phasic - y
        g = np.convolve(e[::-1], phasic_kernel(sig.rate, n))[:n][::-1]
        c0 = np.linalg.lstsq(B, tonic, rcond=None)[0]
        W = np.linalg.lstsq(B, D, rcond=None)[0]
        c = c0 - W @ np.linalg.solve(W.T @ W, W.T @ c0)
        f = 0.5 * e @ e + params.alpha * driver.sum() + 0.5 * params.gamma * c @ c
        return B, D, e, g, c, float(f)

    def assert_optimal_in_tonic_and_no_worse(self, sig, comp, params, ref):
        """Stationarity in (c, d), which a direct solve meets at every
        iterate, and an objective no higher than the reference's."""
        B, D, e, g, c, f = self.optimality(
            sig, comp.tonic.samples, comp.phasic.samples, comp.driver.samples, params
        )
        assert f == pytest.approx(comp.objective_trace[-1], rel=1e-9)
        assert np.abs(D.T @ e).max() <= 1e-9
        assert np.abs(B.T @ e + params.gamma * c).max() <= 1e-9
        f_ref = self.optimality(sig, ref["tonic"], ref["phasic"], ref["driver"], params)[-1]
        assert f <= f_ref
        return g

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ten_minutes_converged(self, seed):
        sig = drifting_eda(10.0, seed)
        params = DecompParams()
        comp = decompose(sig, params)
        assert comp.converged
        assert comp.kkt_residual <= params.tol
        ref = oracles.o_decompose_dense(sig.samples, sig.rate)
        g = self.assert_optimal_in_tonic_and_no_worse(sig, comp, params, ref)
        # KKT on the driver. The stop bounds the gradient mapping at the
        # extrapolated point by tol * alpha; at the returned driver the
        # subgradient may move by as much again.
        eps = 2 * params.tol * params.alpha
        r = comp.driver.samples
        assert (r == 0).any() and (r > 0).any()
        assert (g + params.alpha)[r == 0].min() >= -eps
        assert np.abs(g + params.alpha)[r > 0].max() <= eps

    def test_stops_at_max_iter(self):
        params = DecompParams(tol=1e-12, max_iter=300)
        sig = drifting_eda(10.0, 2)
        comp = decompose(sig, params)
        assert comp.iterations == 300
        assert comp.converged is False
        assert comp.kkt_residual > params.tol
        ref = oracles.o_decompose_dense(sig.samples, sig.rate, tol=params.tol, max_iter=300)
        assert ref["iterations"] == 300
        self.assert_optimal_in_tonic_and_no_worse(sig, comp, params, ref)

    @pytest.mark.parametrize("n, rate, knot_spacing", [
        (300 * 4, RATE, 10.0),    # 5 min
        (1800 * 4, RATE, 10.0),   # 30 min
        (7200 * 4, RATE, 10.0),   # 2 h
        (160, RATE, 10.0),        # exactly 4 knot spacings, the shortest solve
        (1234, RATE, 10.0),       # ends 8.25 s into its last knot spacing
        (1234, RATE, 7.3),        # 29.2 samples per knot spacing
        (2000, 32.0, 10.0),       # another rate
    ])
    def test_basis_is_bit_identical_to_scipy(self, n, rate, knot_spacing):
        B = _spline_basis(n, rate, knot_spacing)
        ref = oracles.o_spline_basis(n, rate, knot_spacing)
        assert B.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B, part), getattr(ref, part)), part

    def test_day_long_basis_is_sparse(self):
        n = 24 * 3600 * int(RATE)
        B = _spline_basis(n, RATE, 10.0)
        assert sparse.issparse(B)
        assert B.shape[0] == n
        assert B.nnz <= 4 * n


def test_debug_dump_round_trips_columns(tmp_path):
    sig = pulse_signal()
    comp = decompose(sig)
    out = tmp_path / "dump.csv"
    dump_components_csv(sig, comp, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,eda,tonic,phasic,driver"
    assert len(lines) == 1 + sig.samples.size
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] == sig.samples[0]
