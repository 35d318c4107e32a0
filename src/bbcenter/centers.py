"""Chart reduction of holomorphic systems and enumeration of center manifolds.

A holomorphic vector field with equilibrium at the origin is examined one
coordinate chart at a time: graphing the remaining variables over a chart
variable t with the ansatz z_k = t * u_k(t) turns the invariance condition
into a Briot-Bouquet system in (t, u).  Its trichotomy (no solution / unique /
family) is exactly the census of holomorphic center manifolds tangent to that
axis, and each manifold carries an isochronous family of period 2*pi/|omega|
where i*omega is the chart eigenvalue.

With lam the chart eigenvalue, the reduced system's linear data are closed
forms of the field's linear part L: A = L_dd / lam - I, and the constants
L[d][chart] / lam, which kill the chart next to a Jordan coupling.
``enumerate_centers`` solves each chart straight from the field's sparse
terms with the one Briot-Bouquet recursion, which also takes the chart row.
``chart_reduce`` builds the displayed Briot-Bouquet system by exact series
division, without case analysis; it is the reference the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, log10, pi

from . import briot_bouquet as bb_engine
from .errors import (BBCenterError, DimensionMismatch, InvalidChart,
                     NotNormalized, OrderTooSmall)
from .series import MultiSeries
from .spectra import (NF_DIAGONAL, NF_JORDAN_2, NF_JORDAN_3, NF_NOT_NORMALIZED,
                      SmallMatrix, classify_spectrum, normal_form_check)

AXIS_NAMES = ("x", "y", "z")

MULT_NONE = "none"
MULT_UNIQUE = "unique"
MULT_INFINITE = "infinite"

POINCARE_TAG = "poincare-isochronous-center"


class HoloSystem:
    """A holomorphic system z' = Lambda z + F(z) with F(0) = 0, dF(0) = 0.

    ``nonlinear`` holds one series per coordinate in the phase variables; all
    terms have total degree >= 2 (the linear data live in ``linear``).
    ``time_scale`` rescales reported periods: a value s means the field is
    s times the one whose periods should be reported.
    """

    __slots__ = ("dim", "linear", "nonlinear", "time_scale")

    def __init__(self, linear, nonlinear, time_scale=Fraction(1)):
        if not isinstance(linear, SmallMatrix):
            linear = SmallMatrix(linear)
        dim = linear.dim
        nonlinear = tuple(nonlinear)
        if len(nonlinear) != dim:
            raise DimensionMismatch("one nonlinear series per coordinate required")
        for s in nonlinear:
            if s.nvars != dim:
                raise DimensionMismatch(
                    f"nonlinear series must have {dim} variables, got {s.nvars}")
            if s.terms and s.min_degree() < 2:
                raise ValueError("nonlinear part contains terms of degree < 2")
        self.dim = dim
        self.linear = linear
        self.nonlinear = nonlinear
        self.time_scale = Fraction(time_scale)
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")

    def __repr__(self):
        return f"<HoloSystem dim={self.dim}>"


@dataclass(frozen=True)
class ChartReduction:
    """The Briot-Bouquet system seen by one coordinate chart.

    ``dependents`` maps Briot-Bouquet variable positions to original
    coordinate indices.  ``excluded`` is the immediate no-manifold verdict:
    a nonzero constant (recorded in ``constants``) survived the reduction,
    which happens exactly when the chart axis receives a Jordan coupling.
    ``slope_free`` lists dependent coordinates whose first derivative at the
    origin is unconstrained; those enlarge the tangent space of the manifold
    family instead of adding distinct manifolds.
    """

    chart: int
    dependents: tuple
    system: object
    excluded: bool
    constants: tuple
    slope_free: tuple
    order: int


@dataclass(frozen=True)
class CenterManifoldReport:
    """One enumerated center-manifold verdict for one chart.

    ``period_factor`` is exact: the isochronous family's period equals
    2*pi*period_factor in the system's reported time.  ``graphs`` maps each
    dependent coordinate to its truncated graph series over the chart
    variable; absent for non-existence verdicts and for the full-space
    isochronous center.
    """

    chart: int | None
    tangency: str
    multiplicity: str
    theorem_tag: str
    pattern: str
    period_factor: Fraction
    order: int
    free_parameters: tuple = ()
    graphs: dict | None = None
    obstructions: dict = field(default_factory=dict)
    blocking_order: int | None = None

    @property
    def period(self):
        """2*pi*period_factor as a double; ``BBCenterError`` when it is
        beyond double range."""
        try:
            period = 2.0 * pi * float(self.period_factor)
        except OverflowError:
            period = inf
        if period == inf:
            f = self.period_factor
            exponent = round(log10(f.numerator) - log10(f.denominator))
            raise BBCenterError(
                f"the period, about 2π·10^{exponent}, is beyond double range")
        return period


def _chart_linear(h, chart):
    """The linear data of one chart, in closed form from the field's linear part.

    Returns (lam, dependents, A, constants, slope_free): the chart eigenvalue,
    the dependent coordinates, A = L_dd / lam - I, the constants L[d][chart] /
    lam (a nonzero one excludes the chart) and the dependents whose column of
    A is zero and whose coupling L[chart][d] into the chart row vanishes.
    """
    if not 0 <= chart < h.dim:
        raise IndexError(f"chart index {chart} out of range")
    lam = h.linear.entry(chart, chart)
    if lam.is_zero():
        raise InvalidChart("the chart eigenvalue is zero; the chart division is illegal")
    deps = tuple(k for k in range(h.dim) if k != chart)
    A = SmallMatrix([[h.linear.entry(d, j) / lam - int(d == j) for j in deps]
                     for d in deps])
    constants = tuple(h.linear.entry(d, chart) / lam for d in deps)
    slope_free = tuple(
        d for pos, d in enumerate(deps)
        if h.linear.entry(chart, d).is_zero()
        and all(A.entry(i, pos).is_zero() for i in range(len(deps))))
    return lam, deps, A, constants, slope_free


def _field_along(h, subs, order):
    """The field's rows with each coordinate k replaced by the series subs[k]."""
    rows = []
    for k in range(h.dim):
        row = h.nonlinear[k].with_order(order).substitute(subs, order)
        for j in range(h.dim):
            if not h.linear.entry(k, j).is_zero():
                row = row + subs[j] * h.linear.entry(k, j)
        rows.append(row)
    return rows


def chart_reduce(h, chart, order=12):
    """Reduce the invariance condition of graphs over one coordinate axis.

    With t the chart variable and z_k = t u_k(t), each dependent coordinate
    satisfies (dz_chart/dt) u_k-equation; dividing by t and by the unit-series
    factor of the denominator leaves a Briot-Bouquet system whose linear data
    realize the eigenvalue ratios of the original field.  The linear data come
    in closed form from ``_chart_linear``; the series division supplies the
    linear-in-t column and the nonlinear part.
    """
    lam, deps, A, constants, slope_free = _chart_linear(h, chart)
    if any(not c.is_zero() for c in constants):
        return ChartReduction(chart, deps, None, True, constants, (), order)
    nvars = h.dim  # t plus one u per dependent coordinate
    u = [MultiSeries.variable(nvars, order + 1, j) for j in range(nvars)]
    subs = [u[0] if k == chart else u[0] * u[1 + deps.index(k)] for k in range(h.dim)]
    rows = [row.divide_by_x() for row in _field_along(h, subs, order + 1)]
    den_inv = rows[chart].reciprocal()
    px, nonlinear = [], []
    for k in deps:
        row = rows[k] * den_inv
        px.append(row.coeff((1,) + (0,) * len(deps)))
        nonlinear.append(MultiSeries(nvars, order, {
            e: c for e, c in row.terms.items() if sum(e) >= 2}))
    system = bb_engine.BBSystem(A, px, nonlinear)
    return ChartReduction(chart, deps, system, False, constants, slope_free, order)


def _chart_system(h, chart, lam, deps, A, order):
    """The chart's equation straight from the field's sparse terms.

    Under z_chart = t, z_d = t u_d and division by lam t, a field monomial
    z^e becomes t^(|e| - 1) u^(e without the chart).  The dependent rows give
    a ``BBSystem``; the chart row, less its constant 1, is the chart that
    ``briot_bouquet.classify`` takes.  Terms of degree above ``order - 1``,
    the Briot-Bouquet order solved, cannot reach it.
    """
    def divided(terms):
        out = {}
        for e, c in terms:
            exps = (sum(e) - 1,) + tuple(e[d] for d in deps)
            if sum(exps) < order:
                out[exps] = c / lam
        return out

    rows = [divided(h.nonlinear[d].terms.items()) for d in deps]
    px = [row.pop((1,) + (0,) * len(deps), 0) for row in rows]
    system = bb_engine.BBSystem(
        A, px, [MultiSeries(h.dim, order - 1, row) for row in rows])
    couplings = [(tuple(int(i == d) for i in range(h.dim)), h.linear.entry(chart, d))
                 for d in deps]
    row = divided(list(h.nonlinear[chart].terms.items()) + couplings)
    return system, MultiSeries(h.dim, order - 1, row)


# ---------------------------------------------------------------------------
# eigenvalue patterns

def _pattern_label(form, imaginary_values, dim):
    """The eigenvalue pattern of a normalized linear part, from its normal
    form and its purely imaginary diagonal entries."""
    count, distinct = len(imaginary_values), len(set(imaginary_values))
    if form == NF_DIAGONAL and distinct == 1:
        return "poincare"
    if count == 1:
        return "one-imaginary"
    if dim == 2 or count == 2:
        if distinct > 1:
            return "two-imaginary-distinct"
        return "two-imaginary-jordan" if form == NF_JORDAN_2 else "two-imaginary-equal"
    if form == NF_JORDAN_3:
        return "three-imaginary-jordan-3"
    if form == NF_JORDAN_2:
        return "three-imaginary-jordan-2"
    return "three-imaginary-distinct" if distinct == 3 else "three-imaginary-two-equal"


def _tangency(axes):
    names = [AXIS_NAMES[a] for a in sorted(axes)]
    if len(names) == 1:
        return f"{names[0]}-invariant"
    return "(" + ",".join(names) + ")-invariant"


def _period_factor(h, omega):
    return Fraction(1) / (abs(omega) * h.time_scale)


def enumerate_centers(h, order=12):
    """All holomorphic-center-manifold verdicts of a normalized system.

    Returns one report per purely imaginary chart (existence with multiplicity
    and series, or a non-existence witness), except in the full Poincare case
    (all eigenvalues equal, purely imaginary, diagonalizable) which collapses
    to a single isochronous-center report.  Families are listed before
    no-go verdicts, charts in coordinate order.
    """
    if h.dim not in (2, 3):
        raise DimensionMismatch("center enumeration handles dimensions 2 and 3")
    form = normal_form_check(h.linear)
    if form == NF_NOT_NORMALIZED:
        info = classify_spectrum(h.linear)  # may raise UncertifiableSpectrum
        if not any(v.is_purely_imaginary() for v, _ in info.eigenvalues):
            return []
        raise NotNormalized(
            "the linear part is not in a supported normal form; "
            "conjugate the system first")
    # a supported normal form has a purely imaginary diagonal entry
    diag = [h.linear.entry(i, i) for i in range(h.dim)]
    imag_idx = [i for i, v in enumerate(diag) if v.is_purely_imaginary()]
    pattern = _pattern_label(form, [diag[i] for i in imag_idx], h.dim)

    if pattern == "poincare":
        return [CenterManifoldReport(
            chart=None,
            tangency="isochronous center at origin",
            multiplicity=MULT_UNIQUE,
            theorem_tag=POINCARE_TAG,
            pattern=pattern,
            period_factor=_period_factor(h, diag[0].im),
            order=order,
        )]

    charts = []
    for m in imag_idx:
        lam, deps, A, constants, slope_free = _chart_linear(h, m)
        excluded = any(not c.is_zero() for c in constants)
        problem = None if excluded else _chart_system(h, m, lam, deps, A, order)
        charts.append((m, deps, constants, slope_free, problem))
    # the work of all the charts is refused before any chart is solved
    problems = [c[-1] for c in charts if c[-1] is not None]
    bb_engine.check_exact_work(sum(bb_engine.exact_work(system, order - 1, chart)
                                   for system, chart in problems))
    reports = [_chart_report(h, pattern, order, *c) for c in charts]
    reports.sort(key=lambda r: (r.multiplicity == MULT_NONE, r.chart))
    return reports


def _chart_report(h, pattern, order, m, deps, constants, slope_free, problem):
    common = dict(chart=m, pattern=pattern, order=order,
                  period_factor=_period_factor(h, h.linear.entry(m, m).im))
    if problem is None:
        witnesses = {
            f"constant[{AXIS_NAMES[k]}]": c
            for k, c in zip(deps, constants) if not c.is_zero()}
        return CenterManifoldReport(
            tangency=_tangency([m]), multiplicity=MULT_NONE,
            theorem_tag=f"{pattern}/chart-excluded", obstructions=witnesses, **common)
    system, chart = problem
    try:
        verdict = bb_engine.classify(system, order - 1, chart=chart)
    except OrderTooSmall as err:
        # the chart's Briot-Bouquet order k is order k + 1 of the graph series
        raise OrderTooSmall(order, err.resonance + 1, err.required + 1) from None
    if verdict.kind == bb_engine.KIND_NO_SOLUTION:
        return CenterManifoldReport(
            tangency=_tangency([m]), multiplicity=MULT_NONE,
            theorem_tag=f"{pattern}/blocked", obstructions=dict(verdict.obstructions),
            blocking_order=verdict.blocking_order + 1, **common)
    slots = [(1, k, f"{AXIS_NAMES[k]}'(0)") for k in slope_free] + [
        (k_bb + 1, deps[pos], f"c{k_bb + 1}[{AXIS_NAMES[deps[pos]]}]")
        for k_bb, pos, _ in verdict.solution.free_parameters]
    slots.sort(key=lambda s: (s[0], s[1]))
    multiplicity = (MULT_INFINITE if verdict.solution.free_parameters
                    else MULT_UNIQUE)
    suffix = "family" if multiplicity == MULT_INFINITE else "unique"
    return CenterManifoldReport(
        tangency=_tangency([m] + list(slope_free)),
        multiplicity=multiplicity,
        theorem_tag=f"{pattern}/{suffix}",
        free_parameters=tuple(slots),
        graphs={d: MultiSeries(1, order, {(k + 1,): row[pos] for k, row
                                         in enumerate(verdict.solution.coefficients, 1)})
                for pos, d in enumerate(deps)},
        obstructions=dict(verdict.obstructions),
        **common,
    )


def manifold_residual(h, report):
    """Exact residual of the chart invariance condition along the graph.

    For each dependent coordinate, (dz_chart/dt) * g' - (dz_k/dt), both sides
    evaluated along the embedding z_chart = t, z_k = g_k(t).  Every
    coefficient through the report order vanishes iff the graph is invariant
    to that order.
    """
    if report.chart is None:
        return {}
    order, m = report.order, report.chart
    subs = [MultiSeries.variable(1, order, 0) if k == m
            else report.graphs[k].with_order(order) for k in range(h.dim)]
    rows = _field_along(h, subs, order)
    return {k: rows[m] * subs[k].derivative(0).with_order(order) - rows[k]
            for k in range(h.dim) if k != m}
