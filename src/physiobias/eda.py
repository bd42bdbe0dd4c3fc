"""EDA tonic/phasic separation by sparse deconvolution.

The electrodermal signal y is modeled as

    y  =  phasic + tonic + residual
    phasic = K r          (causal convolution of a nonnegative sudomotor
                           driver r with a peak-normalized biexponential
                           kernel)
    tonic  = B c + D d    (clamped cubic B-spline with knots every
                           `knot_spacing` seconds, plus an affine trend)

and recovered by solving the convex program

    minimize   0.5*||K r + B c + D d - y||^2  +  alpha*sum(r)
               +  0.5*gamma*||c||^2
    subject to r >= 0.

The solver is an accelerated proximal-gradient iteration with a descent
safeguard, so the recorded objective is non-increasing. The driver is
discretized at the EDA rate and the kernel is `phasic_kernel`, truncated
at 40 s of support.

Cost: B is kept as a sparse matrix (at most four nonzeros per row), so
memory is linear in the session length n. Each point carries its residual
e = K r + B c + D d - y: a step computes the gradient from the residual it
starts from (one convolution, one sparse product) and the new point's
residual (one convolution, one sparse product), and the objective reuses
that residual. The extrapolated point's residual is the same combination of
the two residuals it extrapolates from, because e is affine in (r, c, d).
So an iteration costs two O(n * kernel length) convolutions and two O(n)
sparse products; a fallback step adds the same again. K r stays a direct
convolution of the non-negative driver, so phasic = K r is never negative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientData, ParamError
from .signals import Signal

if TYPE_CHECKING:
    from scipy.sparse import csr_array


# The phasic kernel at cvxEDA's defaults (Greco et al., IEEE TBME 2016): slow
# decay and fast rise time constants, and the support it is cut to, in seconds.
_TAU0, _TAU1, _KERNEL_SECONDS = 2.0, 0.7, 40.0


@dataclass
class DecompParams:
    """Decomposition parameters. Defaults follow common practice for
    skin-conductance deconvolution."""

    knot_spacing: float = 10.0  # tonic spline knot spacing, s
    alpha: float = 8e-4         # l1 weight on the driver
    gamma: float = 1e-2         # l2 weight on the spline coefficients
    tol: float = 1e-6           # relative objective change to stop
    max_iter: int = 5000

    def __post_init__(self) -> None:
        if not 0 < self.knot_spacing < np.inf:
            raise ParamError("knot_spacing must be > 0 and finite")
        if not (self.alpha > 0 and self.gamma > 0 and self.tol > 0):
            raise ParamError("alpha, gamma and tol must be > 0")
        if self.max_iter < 1:
            raise ParamError("max_iter must be >= 1")


@dataclass
class EdaComponents:
    """Decomposition result. tonic + phasic + residual reproduces the input
    elementwise; a non-converged solve is flagged, not failed."""

    tonic: Signal
    phasic: Signal
    driver: Signal
    residual_rms: float
    converged: bool
    iterations: int
    objective_trace: np.ndarray


def bateman_kernel(tau0: float, tau1: float, rate: float, length: int) -> np.ndarray:
    """Biexponential impulse response h(t) = exp(-t/tau0) - exp(-t/tau1),
    evaluated on the sample grid and normalized to peak 1. h(0) = 0."""
    if not (tau0 > tau1 > 0):
        raise ParamError(f"need tau0 > tau1 > 0, got tau0={tau0}, tau1={tau1}")
    if rate <= 0 or length < 1:
        raise ParamError("rate must be > 0 and length >= 1")
    t = np.arange(length) / rate
    h = np.exp(-t / tau0) - np.exp(-t / tau1)
    peak = h.max()
    if peak > 0:
        h = h / peak
    return h


def phasic_kernel(rate: float, n: int) -> np.ndarray:
    """The Bateman kernel at _TAU0, _TAU1 and rate Hz, cut to its support or to n samples."""
    return bateman_kernel(_TAU0, _TAU1, rate, min(n, int(round(_KERNEL_SECONDS * rate))))


def _spline_basis(n: int, rate: float, knot_spacing: float) -> csr_array:
    """Clamped cubic B-spline design matrix on the sample grid, kept sparse:
    each row has at most four nonzeros, so memory grows linearly with n.
    scipy is imported here, so that only the EDA solve pays for it."""
    from scipy.interpolate import BSpline

    t = np.arange(n) / rate
    t_end = float(t[-1])
    n_seg = max(1, int(np.floor(t_end / knot_spacing + 1e-9)))
    inner = np.linspace(0.0, t_end, n_seg + 1)
    knots = np.concatenate([np.repeat(inner[0], 3), inner, np.repeat(inner[-1], 3)])
    return BSpline.design_matrix(t, knots, 3)


def _power_iteration_lipschitz(
    conv: np.ndarray, B: csr_array, Bt: csr_array, D: np.ndarray, gamma: float, n: int,
    iters: int = 60,
) -> float:
    """Largest eigenvalue of the Hessian of the smooth objective part."""
    rng = np.random.default_rng(12345)
    m, q = B.shape[1], D.shape[1]
    x = rng.standard_normal(n + m + q)
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(iters):
        r, c, d = x[:n], x[n:n + m], x[n + m:]
        fit = np.convolve(r, conv)[:n] + B @ c + D @ d
        hr = np.convolve(fit[::-1], conv)[:n][::-1]
        hc = Bt @ fit + gamma * c
        hd = D.T @ fit
        nxt = np.concatenate([hr, hc, hd])
        lam = float(np.linalg.norm(nxt))
        if lam == 0:
            return 1.0
        x = nxt / lam
    return lam


def decompose(eda: Signal, params: DecompParams | None = None) -> EdaComponents:
    """Split a full-session EDA signal into tonic, phasic and driver parts.

    Runs on the whole session (a 5 s window cannot support the tonic spline);
    the features window the components afterwards.

    Raises:
        ParamError: knot spacing shorter than one sample period.
        InsufficientData: signal shorter than 4 knot spacings.
    """
    params = params or DecompParams()
    y = eda.samples
    n = y.size
    rate = eda.rate
    if params.knot_spacing * rate < 1:
        raise ParamError(
            f"knot_spacing {params.knot_spacing:g} s is shorter than one sample at {rate:g} Hz"
        )
    min_len = int(4 * params.knot_spacing * rate)
    if n < min_len:
        raise InsufficientData(
            f"EDA too short to decompose: {n} samples < {min_len} "
            f"(4 knot spacings at {rate:g} Hz)"
        )

    h = phasic_kernel(rate, n)
    B = _spline_basis(n, rate, params.knot_spacing)
    Bt = B.T.tocsr()
    t = np.arange(n) / rate
    # Affine trend with the time column normalized to [0, 1] for conditioning.
    D = np.column_stack([t / max(t[-1], 1.0), np.ones(n)])
    m = B.shape[1]

    alpha, gamma = params.alpha, params.gamma

    def residual_at(r: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        return np.convolve(r, h)[:n] + B @ c + D @ d - y

    def objective(r: np.ndarray, c: np.ndarray, e: np.ndarray) -> float:
        return float(0.5 * e @ e + alpha * r.sum() + 0.5 * gamma * c @ c)

    L = _power_iteration_lipschitz(h, B, Bt, D, gamma, n) * 1.05
    step = 1.0 / L

    # Warm start: affine least-squares fit, no driver, no spline wiggle.
    d0, *_ = np.linalg.lstsq(D, y, rcond=None)
    r = np.zeros(n)
    c = np.zeros(m)
    d = d0.copy()
    e = residual_at(r, c, d)
    vr, vc, vd, ve = r.copy(), c.copy(), d.copy(), e.copy()
    t_acc = 1.0

    f_cur = objective(r, c, e)
    trace = [f_cur]
    converged = False
    iterations = 0

    def prox_step(pr, pc, pd, pe):
        """Proximal gradient step from a point whose residual is pe; returns
        the new point and its residual (two convolutions in all)."""
        gr = np.convolve(pe[::-1], h)[:n][::-1]
        gc = Bt @ pe + gamma * pc
        gd = D.T @ pe
        nr = np.maximum(pr - step * (gr + alpha), 0.0)
        nc = pc - step * gc
        nd = pd - step * gd
        return nr, nc, nd, residual_at(nr, nc, nd)

    for it in range(params.max_iter):
        iterations = it + 1
        nr, nc, nd, ne = prox_step(vr, vc, vd, ve)
        f_new = objective(nr, nc, ne)
        if f_new > f_cur:
            # Extrapolated step overshot: fall back to a plain step from the
            # current point, which cannot increase the objective for 1/L.
            nr, nc, nd, ne = prox_step(r, c, d, e)
            f_new = objective(nr, nc, ne)
            if f_new > f_cur:
                # Numerical floor reached.
                trace.append(f_cur)
                converged = True
                break
            t_acc = 1.0  # restart momentum
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        vr = nr + beta * (nr - r)
        vc = nc + beta * (nc - c)
        vd = nd + beta * (nd - d)
        # The residual is affine in (r, c, d), so the extrapolated point's
        # residual follows from the two it extrapolates from.
        ve = ne + beta * (ne - e)
        r, c, d, e = nr, nc, nd, ne
        t_acc = t_next
        trace.append(f_new)
        if abs(f_cur - f_new) <= params.tol * max(1.0, abs(f_cur)):
            f_cur = f_new
            converged = True
            break
        f_cur = f_new

    phasic = np.convolve(r, h)[:n]
    tonic = B @ c + D @ d
    residual = y - phasic - tonic
    return EdaComponents(
        tonic=Signal(eda.start_time, rate, tonic),
        phasic=Signal(eda.start_time, rate, phasic),
        driver=Signal(eda.start_time, rate, r),
        residual_rms=float(np.sqrt(np.mean(residual * residual))),
        converged=converged,
        iterations=iterations,
        objective_trace=np.asarray(trace),
    )


def dump_components_csv(
    eda: Signal, components: EdaComponents, path, meta: str | None = None
) -> None:
    """Debug dump: one row per sample with t, eda, tonic, phasic, driver."""
    t = eda.start_time + np.arange(eda.samples.size) / eda.rate
    cols = np.column_stack([
        t, eda.samples, components.tonic.samples,
        components.phasic.samples, components.driver.samples,
    ])
    lines = [] if meta is None else [f"# {meta}"]
    lines.append("t,eda,tonic,phasic,driver")
    lines += [",".join(repr(float(v)) for v in row) for row in cols]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
