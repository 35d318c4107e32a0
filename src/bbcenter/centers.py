"""Chart reduction of holomorphic systems and enumeration of center manifolds.

A holomorphic vector field with equilibrium at the origin is examined one
coordinate chart at a time: graphing the remaining variables over a chart
variable t with the ansatz z_k = t * u_k(t) turns the invariance condition
into a Briot-Bouquet system in (t, u).  Its trichotomy (no solution / unique /
family) is exactly the census of holomorphic center manifolds tangent to that
axis, and each manifold carries an isochronous family of period 2*pi/|omega|
where i*omega is the chart eigenvalue.

With lam the chart eigenvalue, one rule divides every term of every row by
lam t, c z^e to (c / lam) t^(|e| - 1) u^(e without the chart); the low-order
keys give the linear data, and a constant L[d][chart] / lam kills the chart
next to a Jordan coupling.  ``enumerate_centers`` solves each chart from the
divided terms with the one Briot-Bouquet recursion, which takes the chart row.
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
from .series import EC_ZERO, MultiSeries
from .spectra import (NF_DIAGONAL, NF_JORDAN_2, NF_JORDAN_3, NF_NOT_NORMALIZED,
                      SmallMatrix, classify_spectrum, normal_form_check,
                      positive_integer_eigenvalues)

AXIS_NAMES = ("x", "y", "z")

MULT_NONE = "none"
MULT_UNIQUE = "unique"
MULT_INFINITE = "infinite"

POINCARE_TAG = "poincare-isochronous-center"


class HoloSystem:
    """A holomorphic system z' = Lambda z + F(z) with F(0) = 0, dF(0) = 0.

    ``nonlinear`` holds one series per coordinate in the phase variables; all
    terms have total degree >= 2 (the linear data live in ``linear``).
    Periods are those of the field as written: to rescale time, scale the
    coefficients.
    """

    __slots__ = ("dim", "linear", "nonlinear")

    def __init__(self, linear, nonlinear):
        if not isinstance(linear, SmallMatrix):
            linear = SmallMatrix(linear)
        self.dim = linear.dim
        self.linear = linear
        self.nonlinear = bb_engine._nonlinear_part(nonlinear, linear.dim, linear.dim)

    def terms(self, k):
        """Row k as {exponent: coefficient}: the nonzero linear entries as
        unit monomials, in column order, then the nonlinear terms."""
        units = {tuple(int(i == j) for i in range(self.dim)): c
                 for j, c in enumerate(self.linear.rows[k]) if not c.is_zero()}
        return {**units, **self.nonlinear[k].terms}

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

    dependents: tuple
    system: object
    excluded: bool
    constants: tuple
    slope_free: tuple


@dataclass(frozen=True)
class CenterManifoldReport:
    """One enumerated center-manifold verdict for one chart.

    ``period_factor`` is exact: the isochronous family's period equals
    2*pi*period_factor, a period of the field as written.  ``graphs`` maps
    each dependent coordinate to its truncated graph series over the chart
    variable; a report has graphs exactly when its chart was solved through
    Briot-Bouquet order ``order`` - 1, so none for non-existence verdicts,
    for the full-space isochronous center or with ``verdict_only``.
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
        beyond or below double range."""
        try:
            period = 2.0 * pi * float(self.period_factor)
        except OverflowError:
            period = inf
        if period in (0.0, inf):
            f = self.period_factor
            exponent = round(log10(f.numerator) - log10(f.denominator))
            where = "beyond" if period else "below"
            raise BBCenterError(
                f"the period, about 2π·10^{exponent}, is {where} double range")
        return period


def _divided_chart(h, chart):
    """One chart's data under z_chart = t, z_d = t u_d, by one rule: each
    term c z^e of each row, divided by lam t, becomes (c / lam) t^(|e| - 1)
    u^(e without the chart).  The dependent rows' t^0 keys are the constants
    (a nonzero one excludes the chart), their t^0 u_j keys A + I and their
    t^1 key px.  The chart row loses its constant 1 and keeps its couplings
    L[chart][d] / lam as t^0 u_d keys; a dependent with neither a coupling
    nor a nonzero column of A is slope free.  Returns (dependents, A, px,
    constants, slope_free, rows, chart_row), ``rows`` holding the rest of
    the dependent rows, terms of degree >= 2."""
    if not 0 <= chart < h.dim:
        raise IndexError(f"chart index {chart} out of range")
    lam = h.linear.entry(chart, chart)
    if lam.is_zero():
        raise InvalidChart("the chart eigenvalue is zero; the chart division is illegal")
    deps = tuple(k for k in range(h.dim) if k != chart)
    rows = [{(sum(e) - 1,) + tuple(e[d] for d in deps): c / lam
             for e, c in h.terms(k).items()} for k in range(h.dim)]
    one = (0,) * h.dim
    chart_row = rows.pop(chart)
    del chart_row[one]
    units = [one[:pos + 1] + (1,) + one[pos + 2:] for pos in range(len(deps))]
    constants = tuple(row.pop(one, EC_ZERO) for row in rows)
    A = SmallMatrix([[row.pop(u, EC_ZERO) - int(i == j) for j, u in enumerate(units)]
                     for i, row in enumerate(rows)])
    px = [row.pop((1,) + one[1:], EC_ZERO) for row in rows]
    slope_free = tuple(
        d for pos, (d, u) in enumerate(zip(deps, units))
        if u not in chart_row and all(row[pos].is_zero() for row in A.rows))
    return deps, A, px, constants, slope_free, rows, chart_row


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
    realize the eigenvalue ratios of the original field.  The linear data
    come from ``_divided_chart``, which divides each term by lam t; the series
    division supplies the linear-in-t column and the nonlinear part.
    """
    deps, A, _, constants, slope_free, *_ = _divided_chart(h, chart)
    if any(not c.is_zero() for c in constants):
        return ChartReduction(deps, None, True, constants, ())
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
    return ChartReduction(deps, system, False, constants, slope_free)


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


def enumerate_centers(h, order=12, verdict_only=False):
    """All holomorphic-center-manifold verdicts of a normalized system.

    Returns one report per purely imaginary chart (existence with multiplicity
    and series, or a non-existence witness), except in the full Poincare case
    (all eigenvalues equal, purely imaginary, diagonalizable) which collapses
    to a single isochronous-center report.  Families are listed before
    no-go verdicts, charts in coordinate order.

    With ``verdict_only`` each chart is declared, so solved, only through its
    last resonant order K (see ``briot_bouquet.classify``): the verdicts,
    witnesses and free parameters are those of ``order``, and only the terms
    and work of the orders solved are counted.  ``OrderTooSmall`` keeps K
    at most ``order`` - 3, so such a chart is never solved to ``order`` - 1
    and its report carries no graphs.
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
            period_factor=1 / abs(diag[0].im),
            order=order,
        )]

    charts, work = [], 0
    for m in imag_idx:
        deps, A, px, constants, slope_free, rows, chart_row = _divided_chart(h, m)
        problem = None
        if all(c.is_zero() for c in constants):
            # the last Briot-Bouquet order the chart's recursion solves; the
            # rows are declared through it, as higher terms cannot reach it
            last = order - 1
            if verdict_only:
                last = min(last, max(positive_integer_eigenvalues(A), default=0))
            *rows, chart = [
                MultiSeries(h.dim, last, {e: c for e, c in row.items() if sum(e) <= last})
                for row in rows + [chart_row]]
            system = bb_engine.BBSystem(A, px, rows)
            work += bb_engine.exact_work(system, last, chart)
            problem = system, chart
        charts.append((m, deps, constants, slope_free, problem))
    # the work of all the charts is refused before any chart is solved
    bb_engine.check_exact_work(work)
    reports = [_chart_report(h, pattern, order, *c) for c in charts]
    reports.sort(key=lambda r: (r.multiplicity == MULT_NONE, r.chart))
    return reports


def _chart_report(h, pattern, order, m, deps, constants, slope_free, problem):
    common = dict(chart=m, pattern=pattern, order=order,
                  period_factor=1 / abs(h.linear.entry(m, m).im))
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
    solution = verdict.solution
    slots = [(1, k, f"{AXIS_NAMES[k]}'(0)") for k in slope_free] + [
        (k_bb + 1, deps[pos], f"c{k_bb + 1}[{AXIS_NAMES[deps[pos]]}]")
        for k_bb, pos, _ in solution.free_parameters]
    slots.sort(key=lambda s: (s[0], s[1]))
    multiplicity = MULT_INFINITE if solution.free_parameters else MULT_UNIQUE
    suffix = "family" if multiplicity == MULT_INFINITE else "unique"
    return CenterManifoldReport(
        tangency=_tangency([m] + list(slope_free)),
        multiplicity=multiplicity,
        theorem_tag=f"{pattern}/{suffix}",
        free_parameters=tuple(slots),
        # only a chart declared through order - 1 has its graphs solved
        graphs=None if solution.order < order - 1 else {
            d: MultiSeries(1, order, {(k + 1,): row[pos] for k, row
                                      in enumerate(solution.coefficients, 1)})
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
