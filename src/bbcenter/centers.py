"""Chart reduction of holomorphic systems and enumeration of center manifolds.

A holomorphic vector field with equilibrium at the origin is examined one
coordinate chart at a time: graphing the remaining variables over a chart
variable t with the ansatz z_k = t * u_k(t) turns the invariance condition
into a Briot-Bouquet system in (t, u).  Its trichotomy (no solution / unique /
family) is exactly the census of holomorphic center manifolds tangent to that
axis, and each manifold carries an isochronous family of period 2*pi/|omega|
where i*omega is the chart eigenvalue.

The reduction is computed generically by exact series division, which
reproduces the per-normal-form displayed systems (including the constant term
that kills the chart next to a Jordan coupling) without case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import pi

from . import briot_bouquet as bb_engine
from .errors import (DimensionMismatch, InvalidChart, NotNormalized,
                     OrderTooSmall, UncertifiableSpectrum)
from .series import EC_ZERO, ExactComplex, MultiSeries
from .spectra import (NF_NOT_NORMALIZED, SmallMatrix, classify_spectrum,
                      normal_form_check)

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

    @property
    def normal_form(self):
        return normal_form_check(self.linear)

    def scaled(self, factor):
        """The field multiplied by an exact positive rational constant."""
        factor = Fraction(factor)
        c = ExactComplex(factor)
        return HoloSystem(self.linear * c,
                          tuple(s * c for s in self.nonlinear),
                          self.time_scale)

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
        return 2.0 * pi * float(self.period_factor)


def _times_t(series):
    """Multiply a univariate series by its variable, raising the order bound."""
    return MultiSeries(1, series.order + 1,
                       {(e[0] + 1,): c for e, c in series.terms.items()})


def chart_reduce(h, chart, order=12):
    """Reduce the invariance condition of graphs over one coordinate axis.

    With t the chart variable and z_k = t u_k(t), each dependent coordinate
    satisfies (dz_chart/dt) u_k-equation; dividing by t and by the unit-series
    factor of the denominator leaves a Briot-Bouquet system whose linear data
    realize the eigenvalue ratios of the original field.
    """
    if not 0 <= chart < h.dim:
        raise IndexError(f"chart index {chart} out of range")
    lam = h.linear.entry(chart, chart)
    if lam.is_zero():
        raise InvalidChart("the chart eigenvalue is zero; the chart division is illegal")
    deps = tuple(k for k in range(h.dim) if k != chart)
    nvars = h.dim  # t plus one u per dependent coordinate
    work = order + 1
    t = MultiSeries.variable(nvars, work, 0)
    subs = []
    for k in range(h.dim):
        if k == chart:
            subs.append(t)
        else:
            pos = deps.index(k)
            subs.append(t * MultiSeries.variable(nvars, work, 1 + pos))

    def substituted_row(k):
        row = MultiSeries.zero(nvars, work)
        for j in range(h.dim):
            coeff = h.linear.entry(k, j)
            if not coeff.is_zero():
                row = row + subs[j] * coeff
        row = row + h.nonlinear[k].with_order(work).substitute(subs, work)
        return row

    den = substituted_row(chart).divide_by_x()
    den_inv = den.reciprocal()
    rows = []
    for k in deps:
        w = substituted_row(k).divide_by_x()
        u = MultiSeries.variable(nvars, order, 1 + deps.index(k))
        rows.append(w * den_inv - u)

    constants = tuple(r.constant_term() for r in rows)
    if any(not c.is_zero() for c in constants):
        return ChartReduction(chart, deps, None, True, constants, (), order)

    n = len(deps)
    A = [[EC_ZERO] * n for _ in range(n)]
    px = [EC_ZERO] * n
    nonlinear = []
    for i, r in enumerate(rows):
        kept = {}
        for exps, coeff in r.terms.items():
            degree = sum(exps)
            if degree >= 2:
                kept[exps] = coeff
            elif degree == 1:
                if exps[0] == 1:
                    px[i] = coeff
                else:
                    A[i][exps.index(1) - 1] = coeff
        nonlinear.append(MultiSeries(nvars, order, kept))
    system = bb_engine.BBSystem(SmallMatrix(A), px, nonlinear)

    slope_free = []
    for pos in range(n):
        var = 1 + pos
        pinned = False
        for r in rows:
            for exps, coeff in r.terms.items():
                if exps[0] != 0 or exps[var] == 0:
                    continue
                if all(e == 0 for i, e in enumerate(exps) if i not in (0, var)):
                    pinned = True
                    break
            if pinned:
                break
        if not pinned:
            slope_free.append(deps[pos])

    return ChartReduction(chart, deps, system, False, constants,
                          tuple(slope_free), order)


# ---------------------------------------------------------------------------
# eigenvalue patterns

def _pattern_label(h, diag, imag_idx, info):
    dim = h.dim
    count = len(imag_idx)
    values = [diag[i] for i in imag_idx]
    all_equal = all(v == values[0] for v in values)
    chains = [i for i in range(dim - 1) if not h.linear.entry(i, i + 1).is_zero()]
    imag_chain = [i for i in chains if diag[i].is_purely_imaginary()]

    if count == dim and all_equal and info.diagonalizable:
        return "poincare"
    if count == 1:
        return "one-imaginary"
    if dim == 2 or count == 2:
        if all_equal:
            return "two-imaginary-jordan" if imag_chain else "two-imaginary-equal"
        return "two-imaginary-distinct"
    if count == 3:
        if len(imag_chain) == 2:
            return "three-imaginary-jordan-3"
        if len(imag_chain) == 1:
            return "three-imaginary-jordan-2"
        distinct = len({(v.re, v.im) for v in values})
        if distinct == 3:
            return "three-imaginary-distinct"
        if distinct == 2:
            return "three-imaginary-two-equal"
        # all equal but not diagonalizable would have shown a chain
    raise RuntimeError("unhandled eigenvalue pattern; dispatch is not exhaustive")


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
    nf = h.normal_form
    if nf == NF_NOT_NORMALIZED:
        info = classify_spectrum(h.linear)  # may raise UncertifiableSpectrum
        if not any(v.is_purely_imaginary() for v, _ in info.eigenvalues):
            return []
        raise NotNormalized(
            "the linear part is not in a supported normal form; "
            "conjugate the system first")
    diag = [h.linear.entry(i, i) for i in range(h.dim)]
    imag_idx = [i for i, v in enumerate(diag) if v.is_purely_imaginary()]
    if not imag_idx:
        return []
    info = classify_spectrum(h.linear)
    pattern = _pattern_label(h, diag, imag_idx, info)

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

    reports = []
    for m in imag_idx:
        reports.append(_chart_report(h, m, pattern, order))
    reports.sort(key=lambda r: (r.multiplicity == MULT_NONE, r.chart))
    return reports


def _chart_report(h, m, pattern, order):
    axis = AXIS_NAMES[m]
    factor = _period_factor(h, h.linear.entry(m, m).im)
    red = chart_reduce(h, m, order)
    if red.excluded:
        witnesses = {
            f"constant[{AXIS_NAMES[k]}]": c
            for k, c in zip(red.dependents, red.constants) if not c.is_zero()}
        return CenterManifoldReport(
            chart=m,
            tangency=_tangency([m]),
            multiplicity=MULT_NONE,
            theorem_tag=f"{pattern}/chart-excluded",
            pattern=pattern,
            period_factor=factor,
            order=order,
            obstructions=witnesses,
        )
    try:
        verdict = bb_engine.classify(red.system, order - 1)
    except OrderTooSmall as err:
        # the chart's Briot-Bouquet order k is order k + 1 of the graph series
        raise OrderTooSmall(order, err.resonance + 1, err.required + 1) from None
    if verdict.kind == bb_engine.KIND_NO_SOLUTION:
        return CenterManifoldReport(
            chart=m,
            tangency=_tangency([m]),
            multiplicity=MULT_NONE,
            theorem_tag=f"{pattern}/blocked",
            pattern=pattern,
            period_factor=factor,
            order=order,
            obstructions=dict(verdict.obstructions),
            blocking_order=verdict.blocking_order + 1,
        )
    graphs = {}
    for pos, k in enumerate(red.dependents):
        graphs[k] = _times_t(verdict.solution.representative[pos])
    slots = []
    for k in red.slope_free:
        slots.append((1, k, f"{AXIS_NAMES[k]}'(0)"))
    for k_bb, pos, _ in verdict.solution.free_parameters:
        k = red.dependents[pos]
        slots.append((k_bb + 1, k, f"c{k_bb + 1}[{AXIS_NAMES[k]}]"))
    slots.sort(key=lambda s: (s[0], s[1]))
    multiplicity = (MULT_INFINITE if verdict.solution.free_parameters
                    else MULT_UNIQUE)
    suffix = "family" if multiplicity == MULT_INFINITE else "unique"
    return CenterManifoldReport(
        chart=m,
        tangency=_tangency([m] + list(red.slope_free)),
        multiplicity=multiplicity,
        theorem_tag=f"{pattern}/{suffix}",
        pattern=pattern,
        period_factor=factor,
        order=order,
        free_parameters=tuple(slots),
        graphs=graphs,
        obstructions=dict(verdict.obstructions),
    )


def manifold_graph(report):
    """The truncated graph functions of a reported manifold, free parameters at
    their representative values.  The Poincare center has no graph constraints
    and returns an empty map."""
    if report.multiplicity == MULT_NONE:
        raise ValueError("a non-existence verdict has no manifold graph")
    if report.graphs is None:
        return {}
    return dict(report.graphs)


def manifold_residual(h, report, order=None):
    """Exact residual of the chart invariance condition along the graph.

    For each dependent coordinate, (dz_chart/dt) * g' - (dz_k/dt), both sides
    evaluated along the embedding z_chart = t, z_k = g_k(t).  Every
    coefficient through the report order vanishes iff the graph is invariant
    to that order.
    """
    if report.chart is None:
        return {}
    if order is None:
        order = report.order
    m = report.chart
    graphs = report.graphs
    t = MultiSeries.variable(1, order, 0)
    subs = []
    for k in range(h.dim):
        if k == m:
            subs.append(t)
        else:
            g = graphs[k]
            subs.append(g.truncate(order) if g.order > order else g.with_order(order))
    rows = {}
    for k in range(h.dim):
        row = MultiSeries.zero(1, order)
        for j in range(h.dim):
            coeff = h.linear.entry(k, j)
            if not coeff.is_zero():
                row = row + subs[j] * coeff
        row = row + h.nonlinear[k].with_order(order).substitute(subs, order)
        rows[k] = row
    den_over_t = rows[m].divide_by_x()
    out = {}
    for k in range(h.dim):
        if k == m:
            continue
        dg = subs[k].derivative(0)
        out[k] = _times_t(den_over_t * dg) - rows[k]
    return out
