"""Floating-point verification of the exact results.

The exact layer proves that a graph is formally invariant and predicts the
period of the isochronous family on it; this module checks both claims in
double precision.  One sampler gives the truncated graph z(t) and its slope
dz/dt as arrays on the circle |t| = radius, from the graph's coefficients
converted to complex once and one Horner pass: the points start RK4 runs
that must return to them after the predicted period, and with the slopes
they give the invariance residual in one field call.  The full-space
isochronous center has no graph; its starts are fixed directions on the
sphere |z| = radius, spread evenly over the complex lines through 0, so no
random generator is involved.  The runs are Lawson RK4: RK4 on
G(z) = F(z) - S z in the frame that turns with S, the imaginary part of
the diagonal of the normal-form linear part, so the rotation that sets
the period is integrated exactly and only G limits the step; G keeps
any hyperbolic part, under RK4's stability bound.  The step is chosen from
the tolerance.  One sweep runs three levels, at c, c/2 and c/4 with
c = min(period/4, 2/|A|_inf), sharing its field calls.  The last two runs,
at 2h and h, give the Richardson estimate E = max|z_2h - z_h| / 15 of the
finer run's error, and with the run before them the order check: the ratio
max|z_4h - z_2h| / max|z_2h - z_h| is 16 in RK4's asymptotic range.  h
halves until E <= tol/100 with the ratio in [8, 32], or E reaches the
rounding level of the start points, so a pass bounds the integration error
as well as the return error, and runs outside the asymptotic range cannot
make E undershoot it.  Where three levels would pass the step cap, the
sweep runs c and c/2 and the next halving supplies the third run.  The
residual is sampled at two radii, where
a graph exact to order N must shrink like radius^(N+1).  Each manifold
compiles G once, from the system with S taken out of its linear part
exactly, to gathered monomials and one coefficient matrix; the residual
evaluates F as G(z) + S z.  A graph that cannot be sampled inside the
radius, a state that leaves the divergence bound or stops being finite, or
halving that reaches the step cap fails the check; a coefficient beyond
double range raises ``BBCenterError``.  numpy is imported by the functions that
use it, so importing the package does not load it.
"""

import math
import sys
from dataclasses import dataclass

from .errors import BBCenterError, IntegrationDiverged

DIVERGENCE_BOUND = 1e3
# the coarsest run takes this many steps per period, or more when
# 2 / |A|_inf, the edge of RK4's stability region, is the smaller step
STEPS_PER_PERIOD = 4
MAX_RK4_STEPS = 100_000  # all the RK4 runs of one manifold together
RESIDUAL_TOL = 1e-6
# a residual below RESIDUAL_FLOOR * radius * max(1, |A|_inf) is rounding; above
# it, halving the radius must shrink an order-N graph's residual by at least
# 2^(N + 1 - RESIDUAL_SLACK)
RESIDUAL_FLOOR = 256 * sys.float_info.epsilon
RESIDUAL_SLACK = 1
# halving also stops at E <= ESTIMATE_FLOOR * max|z0|: there E is the
# rounding of the two runs (about sqrt(n) eps in n steps), which halving
# cannot lower
ESTIMATE_FLOOR = 64 * sys.float_info.epsilon
# runs at 4h, 2h and h are in RK4's asymptotic range when
# |z_4h - z_2h| / |z_2h - z_h|, 16 there, lies in this window
ORDER_RATIO = (8, 32)
# the RK4 phases e^{tS} are computed for this many steps at a time
PHASE_BLOCK = 256


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one manifold verification.

    ``return_error`` is the worst |z(T) - z(0)| over the sampled starts at
    the accepted RK4 ``step``, ``error_estimate`` the Richardson bound on
    its integration error and ``ratio`` the order check's
    max|z_4h - z_2h| / max|z_2h - z_h| there (NaN when two runs at the
    rounding level were accepted without a third); ``residual_error`` is
    the worst invariance defect on the sample grid.  The check passes iff
    return error plus estimate sits below the tolerance and the residual
    below ``RESIDUAL_TOL``, decaying at the truncation order.
    """

    return_error: float
    residual_error: float
    predicted_period: float
    passed: bool
    message: str = ""
    step: float = math.nan
    error_estimate: float = math.inf
    ratio: float = math.nan


def compile_field(h):
    """The right-hand side as a vectorized callable on (..., dim) arrays.

    Every term of ``HoloSystem.terms``, the linear ones included, is a
    monomial z^e; the equations that share an exponent share its monomial,
    so the coefficients form one (monomials, dim) matrix C, the linear
    monomials first.  A monomial of degree d is d indices into z padded with
    a column of ones (index ``dim``), padded with that index to the top
    degree D, so one evaluation is D gathers, D - 1 products and one matrix
    product.
    """
    import numpy as np
    dim = h.dim
    terms = {}  # exponent -> its coefficient in each equation
    for i in range(dim):
        for e, c in h.terms(i).items():
            terms.setdefault(e, [0j] * dim)[i] += c.to_complex()
    terms = dict(sorted(terms.items(), key=lambda term: sum(term[0]) > 1))
    factors = np.full((max(map(sum, terms), default=1), len(terms)), dim)
    for m, e in enumerate(terms):
        index = [j for j, k in enumerate(e) for _ in range(k)]
        factors[:len(index), m] = index
    coeffs = np.array(list(terms.values()), dtype=complex).reshape(len(terms), dim)

    buffers = {}  # input shape -> its padded copy; the ones column stays

    def field(z):
        padded = buffers.get(z.shape)
        if padded is None:
            padded = buffers[z.shape] = np.ones(z.shape[:-1] + (dim + 1,),
                                                dtype=complex)
        padded[..., :dim] = z
        monomials = padded.take(factors[0], axis=-1)
        for f in factors[1:]:
            monomials *= padded.take(f, axis=-1)
        return monomials @ coeffs

    return field


def _lawson_step(field, w, phase, weight, advance):
    """One Lawson RK4 step, in place, of the rows w = e^{-tS} z.

    ``phase`` stacks e^{tS}, e^{(t+h/2)S} and e^{(t+h)S}, ``weight`` their
    conjugates times h/6, h/3 and h/6, and ``advance`` h/2 p, h/2 and h p
    with p = e^{hS/2}; each broadcasts against w, so one call can step rows
    at different steps h.  ``field`` returns a new array, which the step
    reuses.
    """
    z, turned, ahead = phase * w  # z, p z, p^2 z
    to_k2, half, to_k4 = advance
    first, middle, last = weight
    k1 = field(z)
    z = to_k2 * k1
    z += turned
    k2 = field(z)
    z = half * k2
    z += turned
    k3 = field(z)
    ahead += to_k4 * k3
    k4 = field(ahead)
    k2 += k3
    k2 *= middle
    k1 *= first
    k1 += k2
    k4 *= last
    k1 += k4
    w += k1


def _rk4_batch(field, rotation, states, t_final, step, levels=1):
    """Lawson RK4: classical RK4 on G in the frame that turns with the
    diagonal ``rotation`` S, for the field z' = G(z) + S z, so S itself is
    integrated exactly.

    ``field`` is G.  With p = e^{hS/2} a step is k1 = G(z),
    k2 = G(p(z + h/2 k1)), k3 = G(pz + h/2 k2), k4 = G(p^2 z + h p k3) and
    z+ = p^2 z + h/6 (p^2 k1 + 2p(k2 + k3) + k4); with S = 0 it is classical
    RK4.  The state is held as w = e^{-tS} z and each phase e^{tS} is taken
    from t, so the rounding of p does not build up over the run.

    With ``levels`` L > 1 the states also run at step / 2, ..., step / 2^(L-1)
    in the same sweep, and the end states come back stacked, coarsest first,
    in an array of shape (L,) + states.shape.  A coarse step spans 2^(L-1)
    steps of the finest rows; the level with step / 2^j joins the s-th of
    them when 2^(L-1-j) divides s, so every call steps a slice of the
    stacked rows: for L = 3 all three levels in the first call, the two
    finer in the third and the finest alone in the second and fourth.
    """
    import numpy as np
    n_steps = max(1, round(t_final / step))
    h = t_final / n_steps
    rotation = np.broadcast_to(np.asarray(rotation, dtype=complex),
                               np.shape(states)[-1:])
    per_step = 2 ** levels  # time counts halves of the finest step
    unit = h / per_step
    # level j steps by h / 2^j: its phases lie 0, 2^(L-1-j) and 2^(L-j)
    # time units after the step's start
    half = 2 ** np.arange(levels - 1, -1, -1).reshape(-1, 1)
    offsets = np.stack([0 * half, half, 2 * half])
    step_h = (2 * half * unit).reshape(-1, 1, 1)
    p = np.exp(0.5 * step_h * rotation)
    weights = np.stack([step_h / 6, step_h / 3, step_h / 6])
    advance = (0.5 * step_h * p, 0.5 * step_h, step_h * p)
    w = np.array([states] * levels, dtype=complex)
    runs = []
    for s in range(per_step // 2):
        # the levels j >= first join the s-th finest step: 2^(L-1-j) divides s
        first = levels - (s & -s).bit_length() if s else 0
        runs.append((w[first:], 2 * s + offsets[:, first:], weights[:, first:],
                     tuple(a[first:] for a in advance)))
    for start in range(0, n_steps, PHASE_BLOCK):
        ks = np.arange(start, min(n_steps, start + PHASE_BLOCK))
        times = (per_step * ks.reshape(-1, 1) + np.arange(per_step + 1)) * unit
        grid = np.exp(np.multiply.outer(times, rotation))  # every time unit
        tables = []
        for rows, at, weight, adv in runs:
            phase = grid[:, at]
            tables.append((rows, phase, phase.conj() * weight, adv))
        for i, k in enumerate(ks):
            for rows, phase, weight, adv in tables:
                _lawson_step(field, rows, phase[i], weight[i], adv)
            if not (abs(w).max() <= DIVERGENCE_BOUND):  # a NaN state fails too
                raise IntegrationDiverged(
                    f"state norm exceeded {DIVERGENCE_BOUND} or is not finite "
                    f"at t = {(k + 1) * h:.6g}")
    z = np.exp(n_steps * h * rotation) * w
    return z if levels > 1 else z[0]


def integrate(h, z0, t_final, step):
    """z(t_final) by classical RK4 over the complex field from z(0) = z0;
    local truncation O(step^5)."""
    import numpy as np
    if step <= 0 or t_final <= 0:
        raise ValueError("step and final time must be positive")
    z = np.asarray(z0, dtype=complex).reshape(1, -1)
    return _rk4_batch(compile_field(h), 0.0, z, t_final, step)[0]


def _without_rotation(h):
    """The system z' = F(z) - S z for S = i Im(diag A), built exactly: its
    linear part is A with the imaginary part of the diagonal taken out."""
    from .centers import HoloSystem
    from .series import _ec
    rows = [[_ec(v.a, 0, v.d) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(h.linear.rows)]
    return HoloSystem(rows, h.nonlinear)


def _sample_graph(report, t):
    """The graph z(t) and its slope dz/dt at the chart values t, (len(t), dim).

    Each graph's coefficients go to complex once per call; one Horner pass
    over t then gives the graph's value and its slope together.
    """
    import numpy as np
    z = np.zeros((len(t), len(report.graphs) + 1), dtype=complex)
    dz = np.zeros_like(z)
    z[:, report.chart], dz[:, report.chart] = t, 1.0
    for k, g in report.graphs.items():
        coeffs = [0j] * (g.max_degree() + 1)
        for (e,), c in g.terms.items():
            coeffs[e] = c.to_complex()
        value = slope = 0j
        for c in reversed(coeffs):
            slope = slope * t + value
            value = value * t + c
        z[:, k], dz[:, k] = value, slope
    return z, dz


def _manifold_starts(h, report, starts, radius):
    """Points on the truncated graph within the sampling radius, or None when
    the graph stays outside it down to |t| < 1e-12.

    The isochronous center fills a neighbourhood; its starts are fixed
    points of the sphere |z| = radius, drawn from no random generator.  For
    start s of n, |z_j|^2 / radius^2 is spread evenly over the simplex and
    the phases over the circle: the first simplex coordinate is taken at
    (s + 1/2) / n and the others at s times the golden ratio, sqrt 2, sqrt 3
    and sqrt 5, mod 1.  For dim 2 this is the spherical Fibonacci lattice on
    the sphere of complex lines through 0, so even 1000 starts lie on
    distinct lines, |<u, v>| < 1 - 1e-3 for unit rows; 1000 random points
    put some two on nearly one line.
    """
    import numpy as np
    dim = h.dim
    if report.chart is None:
        s = np.arange(starts).reshape(-1, 1)
        steps = np.array([(math.sqrt(5) - 1) / 2, math.sqrt(2), math.sqrt(3),
                          math.sqrt(5)])
        x = np.hstack([(s + 0.5) / starts, s * steps[:2 * dim - 2] % 1])
        edge = np.zeros((starts, 1))
        # |z_j|^2 by stick breaking: the share left after coordinate j
        left = np.cumprod(x[:, :dim - 1] ** (1 / np.arange(dim - 1, 0, -1)),
                          axis=1)
        mass = -np.diff(np.hstack([edge + 1, left, edge]), axis=1)
        # the phase of each coordinate after the first, plus one for the row
        phase = np.hstack([edge, x[:, dim - 1:-1]]) + x[:, -1:]
        return radius * np.sqrt(mass) * np.exp(2j * np.pi * phase)
    t = radius * np.exp(2j * np.pi * np.arange(starts) / starts)
    while True:
        z, _ = _sample_graph(report, t)
        outside = ~(np.linalg.norm(z, axis=1) <= radius)  # a NaN is outside
        if not outside.any():
            return z
        if (abs(t[outside]) < 1e-12).any():
            return None
        t[outside] *= 0.5  # the truncated graph bulged out; move inward


def _halving_runs(field, rotation, z0, period, n_steps, tol):
    """Lawson RK4 runs of ``field`` G from z0 over one period in n_steps,
    2 n_steps, 4 n_steps ...

    The first sweep stacks three levels, n_steps, 2 n_steps and 4 n_steps,
    or only the first two when three would pass ``MAX_RK4_STEPS``; each
    halving is one more run.  The last two runs, at 2h and h, give the
    Richardson estimate E = max|z_2h - z_h| / 15 of the finest run's error
    and, with the run before them, the order check: the ratio
    max|z_4h - z_2h| / max|z_2h - z_h| is about 16 in RK4's asymptotic
    range.  Returns the finest end state, E, the ratio (NaN without a third
    run), the step h and a message: empty once E <= tol / 100 with the ratio
    in ``ORDER_RATIO``, or E <= ``ESTIMATE_FLOOR`` max|z0|, else naming the
    cap when the next halving would pass ``MAX_RK4_STEPS`` steps.  The cap
    counts every step of every run (7 n_steps for a three-level sweep, 3
    n_steps for two); the caller checks that the two-level sweep fits it.
    """
    levels = 3 if 7 * n_steps <= MAX_RK4_STEPS else 2
    ends = _rk4_batch(field, rotation, z0, period, period / n_steps,
                      levels=levels)
    gaps = [float(abs(b - a).max()) for a, b in zip(ends, ends[1:])]
    fine, used = ends[-1], (2 ** levels - 1) * n_steps
    n_steps <<= levels - 1  # steps of the finest run
    low, high = ORDER_RATIO
    while True:
        estimate, step = gaps[-1] / 15, period / n_steps
        ratio = gaps[-2] / gaps[-1] if len(gaps) > 1 and gaps[-1] else math.nan
        if (estimate <= tol / 100 and low <= ratio <= high
                or estimate <= ESTIMATE_FLOOR * abs(z0).max()):
            return fine, estimate, ratio, step, ""
        n_steps *= 2
        if used + n_steps > MAX_RK4_STEPS:
            return fine, estimate, ratio, step, (
                f"halving the RK4 step below {step:.3g} would pass the cap of "
                f"{MAX_RK4_STEPS} steps; the error estimate there is "
                f"{estimate:.3g}, tol {tol:g}")
        finer = _rk4_batch(field, rotation, z0, period, step / 2)
        gaps.append(float(abs(finer - fine).max()))
        fine, used = finer, used + n_steps


def _start_steps(period, norm):
    """Steps of the coarsest run: its step c is the smaller of
    period / ``STEPS_PER_PERIOD`` and 2 / |A|_inf."""
    return max(STEPS_PER_PERIOD, math.ceil(period * norm / 2))


def _residual_decay(field, report, grid, radius, norm):
    """The residual on |t| = radius and a message when it does not fall
    like radius^(N + 1) between radius and radius / 2 above the floor."""
    residual = check_residual_numeric(field, report, grid=grid, radius=radius)
    if not math.isfinite(residual):
        return residual, "the invariance residual is not finite"
    inner = check_residual_numeric(field, report, grid=grid, radius=radius / 2)
    if inner <= RESIDUAL_FLOOR * radius / 2 * max(1.0, norm):
        return residual, ""
    if residual >= inner * 2.0 ** (report.order + 1 - RESIDUAL_SLACK):
        return residual, ""
    slope = math.log2(residual / inner) if residual else -math.inf
    return residual, (
        f"the invariance residual {residual:.3g} shrinks like "
        f"radius^{slope:.2f}, not radius^{report.order + 1} as an "
        f"order-{report.order} graph must")


def check_isochronous(h, report, starts=20, radius=1e-2, tol=1e-6):
    """Integrate sampled manifold points for one predicted period each.

    Lawson RK4 turns with S = i Im(diag A) for the linear part A, so the
    rotation is exact, and its first sweep runs at c, c/2 and c/4 from
    c = min(period / ``STEPS_PER_PERIOD``, 2 / |A|_inf); the second bound
    keeps every c*lambda of the rest of the field inside RK4's stability
    region.  The step halves until the Richardson estimate E of the finest
    run's error is at most tol / 100 with the order check's ratio in
    ``ORDER_RATIO``, or at most ``ESTIMATE_FLOOR`` max|z0| (see
    ``_halving_runs``).  The check passes iff every start returns to itself
    with return error + E <= ``tol`` and the invariance residual is at most
    ``RESIDUAL_TOL`` and, above its rounding floor, shrinks at least like
    radius^(N + 1 - ``RESIDUAL_SLACK``) from radius to radius / 2 for a
    graph of order N.  A graph that cannot be
    sampled inside the radius, divergence (a non-finite state included) and
    halving that would pass ``MAX_RK4_STEPS`` steps are reported as a failed
    result with a message, not as an exception.  ``BBCenterError`` is
    raised when even a two-level first sweep (c and c/2) needs more than
    ``MAX_RK4_STEPS`` steps, before any work, and for a coefficient or
    value beyond double range, the period's included.
    """
    import numpy as np
    if report.multiplicity == "none":
        raise ValueError("cannot verify a non-existence verdict")
    period = report.period
    try:
        linear = h.linear.to_complex_array()
        norm = max(sum(map(abs, row)) for row in linear)
        rotation = 1j * np.array([row[i].imag for i, row in enumerate(linear)])
        n_steps = _start_steps(period, norm)
        if 3 * n_steps > MAX_RK4_STEPS:
            raise BBCenterError(
                f"period {period:.6g} needs {3 * n_steps} RK4 steps for its "
                f"first sweep, at steps {period / n_steps:.3g} and half "
                f"that; the cap is {MAX_RK4_STEPS}")
        # overflow and NaN are handled below, so numpy need not warn of them
        with np.errstate(over="ignore", invalid="ignore"):
            field = compile_field(_without_rotation(h))  # G = F - S z
            z0 = _manifold_starts(h, report, starts, radius)
            if z0 is None:
                return VerifyResult(
                    math.inf, math.inf, period, False,
                    "the truncated graph cannot be sampled inside radius "
                    f"{radius:g}")
            z1, estimate, ratio, step, message = _halving_runs(
                field, rotation, z0, period, n_steps, tol)
            return_error = float(abs(z1 - z0).max())
            residual_error, residual_message = _residual_decay(
                lambda z: field(z) + rotation * z, report, max(starts, 8),
                radius, norm)
    except IntegrationDiverged as err:
        return VerifyResult(math.inf, math.inf, period, False, str(err))
    except OverflowError as err:
        raise BBCenterError(
            f"a coefficient or value is beyond double range ({err})") from None
    message = message or residual_message
    passed = (not message and return_error + estimate <= tol
              and residual_error <= RESIDUAL_TOL)
    return VerifyResult(return_error, residual_error, period, passed, message,
                        step, estimate, ratio)


def check_residual_numeric(field, report, grid=16, radius=1e-2):
    """Worst invariance defect of the truncated graph on |t| = radius.

    Evaluates (dz_chart/dt) g_k'(t) - (dz_k/dt) along the embedding with
    ``field``, the system's ``compile_field``; for a graph exact to order N
    this decays like radius^(N+1) until the rounding floor.
    """
    import numpy as np
    if report.chart is None:
        return 0.0
    t = radius * np.exp(2j * np.pi * np.arange(grid) / grid)
    z, dz = _sample_graph(report, t)
    rhs = field(z)
    # the chart column is rhs - rhs = 0; max() of an array keeps a NaN
    return float(abs(rhs[:, [report.chart]] * dz - rhs).max())
