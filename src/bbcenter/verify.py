"""Floating-point verification of the exact results.

The exact layer proves that a graph is formally invariant and predicts the
period of the isochronous family on it; this module checks both claims in
double precision.  One sampler gives the truncated graph z(t) and its slope
dz/dt as arrays on the circle |t| = radius: the points start a fixed-step
RK4 integration that must return to them after the predicted period, and
with the slopes they give the invariance residual in one field call.  The
field is compiled to gathered monomials and one coefficient matrix.  A graph
that cannot be sampled inside the radius, or a state that leaves the
divergence bound or stops being finite, fails the check; a coefficient
beyond double range raises ``BBCenterError``.  numpy is imported by the
functions that use it, so importing the package does not load it.
"""

import math
from dataclasses import dataclass

from .errors import BBCenterError, IntegrationDiverged

DIVERGENCE_BOUND = 1e3
MAX_RK4_STEPS = 100_000  # a period of at most 100 at the default step


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
    """The right-hand side as a vectorized callable on (..., dim) arrays.

    Every term, the linear ones included, is a monomial z^e; the equations
    that share an exponent share its monomial, so the coefficients form one
    (monomials, dim) matrix C.  A monomial of degree d is d indices into z
    padded with a column of ones (index ``dim``), padded with that index to
    the top degree D, so one evaluation is D gathers, D - 1 products and one
    matrix product.
    """
    import numpy as np
    dim = h.dim
    terms = {}  # exponent -> its coefficient in each equation
    for i, row in enumerate(h.linear.to_complex_array()):
        for j, c in enumerate(row):
            if c:
                unit = tuple(int(k == j) for k in range(dim))
                terms.setdefault(unit, [0j] * dim)[i] += c
    for i, s in enumerate(h.nonlinear):
        for e, c in s.terms.items():
            terms.setdefault(e, [0j] * dim)[i] += c.to_complex()
    factors = np.full((max(map(sum, terms), default=1), len(terms)), dim)
    for m, e in enumerate(terms):
        index = [j for j, k in enumerate(e) for _ in range(k)]
        factors[:len(index), m] = index
    coeffs = np.array(list(terms.values()), dtype=complex).reshape(len(terms), dim)

    def field(z):
        padded = np.empty(z.shape[:-1] + (dim + 1,), dtype=complex)
        padded[..., :dim] = z
        padded[..., dim] = 1.0
        monomials = padded.take(factors[0], axis=-1)
        for f in factors[1:]:
            monomials *= padded.take(f, axis=-1)
        return monomials @ coeffs

    return field


def _rk4_batch(field, states, t_final, step):
    n_steps = max(1, round(t_final / step))
    h = t_final / n_steps
    z = states
    for k in range(n_steps):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (abs(z).max() <= DIVERGENCE_BOUND):  # a NaN state fails too
            raise IntegrationDiverged(
                f"state norm exceeded {DIVERGENCE_BOUND} or is not finite "
                f"at t = {(k + 1) * h:.6g}")
    return z


def integrate(h, z0, t_final, step):
    """z(t_final) by classical RK4 over the complex field from z(0) = z0;
    local truncation O(step^5)."""
    import numpy as np
    if step <= 0 or t_final <= 0:
        raise ValueError("step and final time must be positive")
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    return _rk4_batch(compile_field(h), z, t_final, step)[0]


def _sample_graph(report, dim, t):
    """The graph z(t) and its slope dz/dt at the chart values t, (len(t), dim)."""
    import numpy as np
    z = np.zeros((len(t), dim), dtype=complex)
    dz = np.zeros_like(z)
    z[:, report.chart], dz[:, report.chart] = t, 1.0
    for k, g in report.graphs.items():
        z[:, k] = g.eval_numeric([t])
        dz[:, k] = g.derivative(0).eval_numeric([t])
    return z, dz


def _manifold_starts(h, report, starts, radius):
    """Points on the truncated graph within the sampling radius, or None when
    the graph stays outside it down to |t| < 1e-12."""
    import numpy as np
    dim = h.dim
    if report.chart is None:
        # the isochronous center fills a neighbourhood; sample directions
        rng = np.random.default_rng(1728)
        raw = rng.normal(size=(starts, dim)) + 1j * rng.normal(size=(starts, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return radius * raw
    t = radius * np.exp(2j * np.pi * np.arange(starts) / starts)
    while True:
        z, _ = _sample_graph(report, dim, t)
        outside = ~(np.linalg.norm(z, axis=1) <= radius)  # a NaN is outside
        if not outside.any():
            return z
        if (abs(t[outside]) < 1e-12).any():
            return None
        t[outside] *= 0.5  # the truncated graph bulged out; move inward


def check_isochronous(h, report, starts=20, radius=1e-2, step=1e-3,
                      tol=1e-6, residual_tol=1e-6):
    """Integrate sampled manifold points for one predicted period each.

    Every start must return to itself within ``tol``; the invariance residual
    on the same radius must stay below ``residual_tol``.  A graph that cannot
    be sampled inside the radius and divergence, a non-finite state included,
    are reported as a failed result with infinite errors and a message, not
    as an exception.  ``BBCenterError`` is raised for a period that needs
    more than ``MAX_RK4_STEPS`` steps, before any work, and for a
    coefficient or value beyond double range.
    """
    import numpy as np
    if report.multiplicity == "none":
        raise ValueError("cannot verify a non-existence verdict")
    period = report.period
    n_steps = round(period / step)
    if n_steps > MAX_RK4_STEPS:
        raise BBCenterError(
            f"period {period:.6g} needs {n_steps} RK4 steps of {step:g}; "
            f"the cap is {MAX_RK4_STEPS}")
    try:
        # overflow and NaN are handled below, so numpy need not warn of them
        with np.errstate(over="ignore", invalid="ignore"):
            field = compile_field(h)
            z0 = _manifold_starts(h, report, starts, radius)
            if z0 is None:
                return VerifyResult(
                    math.inf, math.inf, period, False,
                    "the truncated graph cannot be sampled inside radius "
                    f"{radius:g}")
            z1 = _rk4_batch(field, z0, period, step)
            return_error = float(abs(z1 - z0).max())
            residual_error = check_residual_numeric(
                h, report, grid=max(starts, 8), radius=radius)
    except IntegrationDiverged as err:
        return VerifyResult(math.inf, math.inf, period, False, str(err))
    except OverflowError as err:
        raise BBCenterError(
            f"a coefficient or value is beyond double range ({err})") from None
    message = ("" if math.isfinite(residual_error)
               else "the invariance residual is not finite")
    passed = return_error <= tol and residual_error <= residual_tol
    return VerifyResult(return_error, residual_error, period, passed, message)


def check_residual_numeric(h, report, grid=16, radius=1e-2):
    """Worst invariance defect of the truncated graph on |t| = radius.

    Evaluates (dz_chart/dt) g_k'(t) - (dz_k/dt) along the embedding in double
    precision; for a graph exact to order N this decays like radius^(N+1)
    until the rounding floor.
    """
    import numpy as np
    if report.chart is None:
        return 0.0
    t = radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    z, dz = _sample_graph(report, h.dim, t)
    rhs = compile_field(h)(z)
    # the chart column is rhs - rhs = 0; max() of an array keeps a NaN
    return float(abs(rhs[:, [report.chart]] * dz - rhs).max())
