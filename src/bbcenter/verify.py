"""Floating-point verification of the exact results.

The exact layer proves that a graph is formally invariant and predicts the
period of the isochronous family on it; this module checks both claims in
double precision: classical fixed-step RK4 integration of the field with a
return-to-start test after the predicted period, and evaluation of the chart
invariance condition on a small sample grid.  numpy is imported by the
functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BBCenterError, IntegrationDiverged

if TYPE_CHECKING:
    import numpy as np

DIVERGENCE_BOUND = 1e3
MAX_RK4_STEPS = 100_000  # a period of at most 100 at the default step


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record: times[k] and states[k] line up."""

    times: np.ndarray
    states: np.ndarray
    step: float
    method: str = "rk4"


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one manifold verification.

    ``return_error`` is the worst |z(T) - z(0)| over the sampled starts and
    ``residual_error`` the worst invariance defect on the sample grid; the
    check passes iff both sit below their tolerances.
    """

    return_error: float
    residual_error: float
    predicted_period: float
    passed: bool
    message: str = ""


def compile_field(h):
    """The right-hand side as a vectorized callable on (..., dim) arrays."""
    import numpy as np
    lam = np.array(h.linear.to_complex_array(), dtype=complex)
    coeffs = []
    exps = []
    rows = []
    for i, s in enumerate(h.nonlinear):
        for e, c in s.terms.items():
            coeffs.append(c.to_complex())
            exps.append(e)
            rows.append(i)
    if coeffs:
        coeffs = np.array(coeffs)
        exps = np.array(exps)
        scatter = np.zeros((len(rows), h.dim))
        for t, i in enumerate(rows):
            scatter[t, i] = 1.0
    else:
        coeffs = exps = scatter = None

    def field(z):
        out = z @ lam.T
        if coeffs is not None:
            monomials = np.prod(z[..., None, :] ** exps, axis=-1)
            out = out + (monomials * coeffs) @ scatter
        return out

    return field


def _rk4_batch(field, states, t_final, step, record=None):
    n_steps = max(1, round(t_final / step))
    h = t_final / n_steps
    z = states
    for k in range(n_steps):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if abs(z).max() > DIVERGENCE_BOUND:
            raise IntegrationDiverged(
                f"state norm exceeded {DIVERGENCE_BOUND} at t = {(k + 1) * h:.6g}")
        if record is not None:
            record.append(((k + 1) * h, z.copy()))
    return z


def integrate(h, z0, t_final, step):
    """Classical RK4 over the complex field; local truncation O(step^5)."""
    import numpy as np
    if step <= 0 or t_final <= 0:
        raise ValueError("step and final time must be positive")
    field = compile_field(h)
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    record = [(0.0, z.copy())]
    _rk4_batch(field, z, t_final, step, record)
    times = np.array([t for t, _ in record])
    states = np.vstack([s for _, s in record])
    return Trajectory(times=times, states=states, step=t_final / max(1, round(t_final / step)))


def _manifold_starts(h, report, starts, radius):
    """Points on the truncated graph within the sampling radius."""
    import numpy as np
    dim = h.dim
    if report.chart is None:
        # the isochronous center fills a neighbourhood; sample directions
        rng = np.random.default_rng(1728)
        raw = rng.normal(size=(starts, dim)) + 1j * rng.normal(size=(starts, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return radius * raw
    graphs = report.graphs
    points = np.zeros((starts, dim), dtype=complex)
    for s in range(starts):
        t = radius * np.exp(2j * np.pi * s / starts)
        while True:
            z = np.zeros(dim, dtype=complex)
            z[report.chart] = t
            for k, g in graphs.items():
                z[k] = g.eval_numeric([t])
            if np.linalg.norm(z) <= radius or abs(t) < 1e-12:
                break
            t *= 0.5  # truncated graph bulged outside the radius; move inward
        points[s] = z
    return points


def check_isochronous(h, report, starts=20, radius=1e-2, step=1e-3,
                      tol=1e-6, residual_tol=1e-6):
    """Integrate sampled manifold points for one predicted period each.

    Every start must return to itself within ``tol``; the invariance residual
    on the same radius must stay below ``residual_tol``.  Divergence is
    reported as a failed result, not an exception; a period that needs more
    than ``MAX_RK4_STEPS`` steps raises ``BBCenterError`` before any work.
    """
    if report.multiplicity == "none":
        raise ValueError("cannot verify a non-existence verdict")
    period = report.period
    n_steps = round(period / step)
    if n_steps > MAX_RK4_STEPS:
        raise BBCenterError(
            f"period {period:.6g} needs {n_steps} RK4 steps of {step:g}; "
            f"the cap is {MAX_RK4_STEPS}")
    field = compile_field(h)
    z0 = _manifold_starts(h, report, starts, radius)
    try:
        z1 = _rk4_batch(field, z0, period, step)
    except IntegrationDiverged as err:
        return VerifyResult(float("inf"), float("inf"), period, False, str(err))
    return_error = float(abs(z1 - z0).max())
    residual_error = check_residual_numeric(h, report, grid=max(starts, 8),
                                            radius=radius)
    passed = return_error <= tol and residual_error <= residual_tol
    return VerifyResult(return_error, residual_error, period, passed)


def check_residual_numeric(h, report, grid=16, radius=1e-2):
    """Worst invariance defect of the truncated graph on |t| = radius.

    Evaluates (dz_chart/dt) g_k'(t) - (dz_k/dt) along the embedding in double
    precision; for a graph exact to order N this decays like radius^(N+1)
    until the rounding floor.
    """
    import numpy as np
    if report.chart is None:
        return 0.0
    field = compile_field(h)
    m = report.chart
    graphs = report.graphs
    derivs = {k: g.derivative(0) for k, g in graphs.items()}
    worst = 0.0
    for s in range(grid):
        t = radius * np.exp(2j * np.pi * s / grid)
        z = np.zeros(h.dim, dtype=complex)
        z[m] = t
        for k, g in graphs.items():
            z[k] = g.eval_numeric([t])
        rhs = field(z.reshape(1, -1))[0]
        den = rhs[m]
        for k, dg in derivs.items():
            value = abs(den * dg.eval_numeric([t]) - rhs[k])
            worst = max(worst, float(value))
    return worst
