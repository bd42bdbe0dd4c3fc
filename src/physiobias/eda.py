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

Reduced problem (variable projection, Golub & Pereyra, Inverse Problems
2003): for a fixed driver r the optimal tonic coefficients (c, d) solve one
linear system, [B'B + gamma*I, B'D; D'B, D'D] [c; d] = [B'z; D'z] with
z = y - K r. B'B + gamma*I has 7 diagonals; its banded Cholesky factor is
computed once, and a 2 x 2 Schur complement eliminates the trend d. So the
solver iterates on r alone, over phi(r) + alpha*sum(r), where phi(r) is the
smooth part minimized over (c, d). The gradient of phi is K' e, with e the
residual K r + B c + D d - y at the optimal (c, d).

Step: the Hessian of phi is K' P K with P a contraction, and the kernel h is
non-negative, so ||K||_2 <= sum(h) and the step 1/sum(h)^2 is safe.

Iteration: accelerated proximal gradient (FISTA) with a descent safeguard,
so the recorded objective is non-increasing, and gradient-based adaptive
restart (O'Donoghue & Candes, FoCM 2015): momentum resets whenever
(v - r+) . (r+ - r) > 0, v being the extrapolated point and r+ the new one.

Stop: when the infinity norm of the gradient mapping at the extrapolated
point, sum(h)^2 * (v - r+), is at most tol * alpha. That mapping plus the
gradient's change from v to r+ is a subgradient of the objective at r+, and
that change is of the mapping's own size, so `converged` means near-optimal,
not merely slow.

Cost: B stays a sparse matrix (four entries per row), built by de Boor's
recursion in numpy, so memory is linear in the session length n and the
solve imports `scipy.sparse` and `scipy.linalg`, not `scipy.interpolate`.
The residual e is affine in r, so the extrapolated point's residual is the
same combination of the two residuals it extrapolates from. An iteration
costs two O(n * kernel length) direct convolutions (the gradient from the
extrapolated residual, and K r+), two O(n) sparse products and one O(n)
banded solve; a fallback step adds the same again. K r stays a direct
convolution of the non-negative driver, so phasic = K r is never negative.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PhysioBiasError
from .params import DecompParams
from .signals import Signal

if TYPE_CHECKING:
    from scipy.sparse import csr_array


# The phasic kernel at cvxEDA's defaults (Greco et al., IEEE TBME 2016): slow
# decay and fast rise time constants, and the support it is cut to, in seconds.
_TAU0, _TAU1, _KERNEL_SECONDS = 2.0, 0.7, 40.0


@dataclass
class EdaComponents:
    """Decomposition result. tonic + phasic + residual reproduces the input
    elementwise; a non-converged solve is flagged, not failed.
    kkt_residual is the last step's max |gradient mapping| / alpha, at most
    tol when converged."""

    tonic: Signal
    phasic: Signal
    driver: Signal
    residual_rms: float
    converged: bool
    iterations: int
    kkt_residual: float
    objective_trace: np.ndarray


def phasic_kernel(rate: float, n: int) -> np.ndarray:
    """Bateman impulse response h(t) = exp(-t/_TAU0) - exp(-t/_TAU1) on the
    grid of rate Hz, cut to _KERNEL_SECONDS of support or to n samples, and
    normalized to peak 1. h(0) = 0."""
    length = min(n, int(round(_KERNEL_SECONDS * rate)))
    if rate <= 0 or length < 1:
        raise PhysioBiasError("rate must be > 0 and length >= 1")
    t = np.arange(length) / rate
    h = np.exp(-t / _TAU0) - np.exp(-t / _TAU1)
    peak = h.max()
    if peak > 0:
        h = h / peak
    return h


def _spline_basis(n: int, rate: float, knot_spacing: float) -> csr_array:
    """Clamped cubic B-spline design matrix on the sample grid, kept sparse:
    each row has four entries, so memory grows linearly with n.

    de Boor's recursion (de Boor, J. Approx. Theory 1972) raises the degree
    from 0 to 3 for every sample at once, in the order of operations of
    scipy's `BSpline.design_matrix`, so the matrix is bit-identical to it
    without importing `scipy.interpolate`. Sample x lies in knot interval
    ell, knots[ell] <= x < knots[ell + 1] (the last sample in the last
    interval), and row x holds basis functions ell - 3 .. ell. The inner
    knots are distinct, so no denominator is zero."""
    from scipy.sparse import csr_array

    x = np.arange(n) / rate
    t_end = float(x[-1])
    n_seg = max(1, int(np.floor(t_end / knot_spacing + 1e-9)))
    inner = np.linspace(0.0, t_end, n_seg + 1)
    knots = np.concatenate([np.repeat(inner[0], 3), inner, np.repeat(inner[-1], 3)])
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, n_seg + 2)
    basis = [np.ones(n)]
    for degree in range(1, 4):
        lower, basis = basis, [np.zeros(n)]
        for i in range(1, degree + 1):
            right, left = knots[ell + i], knots[ell + i - degree]
            w = lower[i - 1] / (right - left)
            basis[i - 1] += w * (right - x)
            basis.append(w * (x - left))
    # scipy's index type: 32 bits while the entries fit.
    index = np.int32 if 4 * n < np.iinfo(np.int32).max else np.int64
    columns = (ell - 3).astype(index)[:, None] + np.arange(4, dtype=index)
    return csr_array((np.column_stack(basis).ravel(), columns.ravel(),
                      np.arange(0, 4 * n + 1, 4, dtype=index)), shape=(n, n_seg + 3))


def decompose(eda: Signal, params: DecompParams | None = None) -> EdaComponents:
    """Split a full-session EDA signal into tonic, phasic and driver parts.

    Runs on the whole session (a 5 s window cannot support the tonic spline);
    the features window the components afterwards.

    Raises:
        PhysioBiasError: knot spacing shorter than one sample period, or
            signal shorter than 4 knot spacings.
    """
    from scipy.linalg import cholesky_banded
    from scipy.linalg.lapack import dpbtrs

    params = params or DecompParams()
    y = eda.samples
    n = y.size
    rate = eda.rate
    if params.knot_spacing * rate < 1:
        raise PhysioBiasError(
            f"knot_spacing {params.knot_spacing:g} s is shorter than one sample at {rate:g} Hz"
        )
    min_len = np.floor(4 * params.knot_spacing * rate)  # a float: inf past the float range
    if n < min_len:
        raise PhysioBiasError(
            f"EDA too short to decompose: {n} samples < {min_len:g} "
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

    # B'B + gamma*I in upper banded storage (row 3 - k holds diagonal k),
    # factored once; LAPACK's dpbtrs solves with the factor without
    # cho_solve_banded's per-call input checks.
    BtB = Bt @ B
    bands = np.zeros((4, m))
    for k in range(4):
        bands[3 - k, k:] = BtB.diagonal(k)
    bands[3] += gamma
    factor = cholesky_banded(bands)
    BtD = Bt @ D
    U = dpbtrs(factor, BtD)[0]
    schur_inv = np.linalg.inv(D.T @ D - BtD.T @ U)

    def project(kr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The optimal (c, d) for the phasic part kr = K r, and the residual."""
        z = y - kr
        u = dpbtrs(factor, Bt @ z)[0]
        d = schur_inv @ (D.T @ z - BtD.T @ u)
        c = u - U @ d
        return c, d, B @ c + D @ d - z

    def objective(r: np.ndarray, c: np.ndarray, e: np.ndarray) -> float:
        return float(0.5 * e @ e + alpha * r.sum() + 0.5 * gamma * c @ c)

    # ||K||_2 <= sum(h); a zero kernel (one sample) has zero gradient, so any
    # step does.
    L = float(h.sum()) ** 2 or 1.0

    def prox_step(v: np.ndarray, ev: np.ndarray):
        """Proximal gradient step from v, whose residual is ev: the new
        driver, its (c, d) and its residual."""
        g = np.convolve(ev[::-1], h)[:n][::-1]
        nr = np.maximum(v - (g + alpha) / L, 0.0)
        return (nr, *project(np.convolve(nr, h)[:n]))

    r = np.zeros(n)
    c, d, e = project(np.zeros(n))
    v, ev = r, e
    t_acc = 1.0
    f_cur = objective(r, c, e)
    trace = [f_cur]
    gap = np.inf  # max |gradient mapping| / alpha of the last step
    iterations = 0

    for it in range(params.max_iter):
        iterations = it + 1
        nr, nc, nd, ne = prox_step(v, ev)
        f_new = objective(nr, nc, ne)
        if f_new > f_cur:
            # Extrapolated step overshot: fall back to a plain step from the
            # current point, which cannot increase the objective for 1/L.
            v, ev = r, e
            nr, nc, nd, ne = prox_step(v, ev)
            f_new = objective(nr, nc, ne)
            t_acc = 1.0
        # The gradient mapping of the step is L * (v - nr).
        mapping = v - nr
        gap = L * float(np.abs(mapping).max()) / alpha
        if f_new > f_cur:
            # Numerical floor reached: not even a plain step descends.
            trace.append(f_cur)
            break
        if mapping @ (nr - r) > 0:
            t_acc = 1.0  # adaptive restart: momentum points uphill
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        beta = (t_acc - 1.0) / t_next
        v = nr + beta * (nr - r)
        # The residual is affine in r, so the extrapolated point's residual
        # follows from the two it extrapolates from.
        ev = ne + beta * (ne - e)
        r, c, d, e = nr, nc, nd, ne
        t_acc = t_next
        f_cur = f_new
        trace.append(f_new)
        if gap <= params.tol:
            break

    phasic = np.convolve(r, h)[:n]
    tonic = B @ c + D @ d
    residual = y - phasic - tonic
    return EdaComponents(
        tonic=Signal(eda.start_time, rate, tonic),
        phasic=Signal(eda.start_time, rate, phasic),
        driver=Signal(eda.start_time, rate, r),
        residual_rms=float(np.sqrt(np.mean(residual * residual))),
        converged=bool(gap <= params.tol),
        iterations=iterations,
        kkt_residual=float(gap),
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
    cells = list(map(repr, cols.ravel().tolist()))
    lines += map(",".join, zip(*(cells[j::5] for j in range(5))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
