"""Formal solutions of Briot-Bouquet systems x y' = f(x, y) and the full
resonant trichotomy.

A system is stored split: the linear-in-y matrix A, the linear-in-x column,
and the nonlinear remainder (total degree >= 2).  Holomorphic solutions
through the singular point are controlled by the eigenvalues of A.  One
recursion solves the order-k coefficient equations (k I - A) c_k = r_k for
k = 1, 2, ..., where r_k depends only on lower orders.  When k is not an
eigenvalue the step is uniquely solvable.  When it is (a resonant order), r_k
is the exact obstruction: an inconsistent step kills all solutions, and a
consistent one contributes its free columns as free parameters.

``reduction_step`` is the classical alternative: one shearing substitution
u -> x (u + shift) that lowers every eigenvalue by one.  ``classify`` does
not use it; the recursion reads the same obstruction values directly.

Every decision in this module is an exact zero test; nothing is tolerant.
``exact_work`` counts the work of a solve before it starts, and ``classify``
refuses more than ``MAX_EXACT_WORK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import (BBCenterError, BlockedStep, DimensionMismatch,
                     OrderTooSmall, ResonantEigenvalue)
from .series import ExactComplex, MultiSeries, _ec
from .spectra import SmallMatrix, positive_integer_eigenvalues, solve_affine

KIND_NO_SOLUTION = "no_solution"
KIND_UNIQUE = "unique"
KIND_FAMILY = "family"

# the most exact-layer work (see ``exact_work``) one document may ask for
MAX_EXACT_WORK = 2_000_000

# witnesses on rows 0-1 of the first two resonant orders keep the paper's
# names; every other one is r{k}[{i}] (order k, row i), so none can collide
_OBSTRUCTION_NAMES = (("pbar", "rbar"), ("phat", "rhat"))


class BBSystem:
    """A Briot-Bouquet system x y_i' = p_i x + (A y)_i + f_i(x, y).

    ``nonlinear`` holds one series per dependent variable in the variables
    (x, y_1, ..., y_n); all its terms have total degree >= 2, so f(0) = 0 and
    the linear data live entirely in ``A`` and ``px``.
    """

    __slots__ = ("A", "px", "nonlinear")

    def __init__(self, A, px, nonlinear):
        if not isinstance(A, SmallMatrix):
            A = SmallMatrix(A)
        self.A = A
        self.px = tuple(ExactComplex.coerce(v) for v in px)
        if len(self.px) != A.dim:
            raise DimensionMismatch("px must have one entry per variable")
        self.nonlinear = _nonlinear_part(nonlinear, A.dim, A.dim + 1)

    @property
    def n(self):
        return self.A.dim

    @property
    def order(self):
        return min(s.order for s in self.nonlinear)

    def __repr__(self):
        return f"<BBSystem n={self.n} order={self.order}>"


def _nonlinear_part(rows, count, nvars):
    """``rows`` as a tuple, checked to hold ``count`` series in ``nvars``
    variables with no term of degree below 2."""
    rows = tuple(rows)
    if len(rows) != count:
        raise DimensionMismatch(f"need {count} nonlinear series, got {len(rows)}")
    for s in rows:
        if s.nvars != nvars:
            raise DimensionMismatch(
                f"nonlinear series must have {nvars} variables, got {s.nvars}")
        if s.terms and s.min_degree() < 2:
            raise ValueError("nonlinear part contains terms of degree < 2")
    return rows


@dataclass(frozen=True)
class FormalSolution:
    """A solution germ y_i(x) = sum_k c_k[i] x^k, with its free-parameter slots.

    ``coefficients[k - 1][i]`` is the order-k coefficient of variable i along
    the representative (every free parameter set to zero); ``residual``
    builds its series from them.  ``free_parameters`` lists (order,
    variable, id) slots in ascending order.
    """

    order: int
    coefficients: tuple
    free_parameters: tuple

    def coefficient(self, k, i):
        return self.coefficients[k - 1][i]


@dataclass(frozen=True)
class BBClassification:
    """Trichotomy verdict: no solution / unique / infinite family.

    ``obstructions`` records the right-hand side r_k read at each resonant
    order k, as exact values, so a NoSolution verdict is auditable.
    ``blocking_order`` is the order at which solvability failed.
    """

    kind: str
    obstructions: dict
    solution: FormalSolution | None
    blocking_order: int | None = None


@dataclass(frozen=True)
class ReductionStep:
    """One eigenvalue-lowering shear (see ``reduction_step``)."""

    system: BBSystem
    shifts: tuple
    free_columns: tuple


def _power_recipes(exponents, n):
    """y^e = y_j * y^parent for each e in ``exponents`` and every parent it
    needs, as (e, j, parent) with parents listed before their products; 1
    and the units y_j need none."""
    known = {(0,) * n} | {tuple(int(i == j) for i in range(n)) for j in range(n)}
    recipes = []

    def track(e):
        if e not in known:
            j = next(i for i, a in enumerate(e) if a)
            parent = e[:j] + (e[j] - 1,) + e[j + 1:]
            track(parent)
            known.add(e)
            recipes.append((e, j, parent))

    for e in exponents:
        track(e)
    return recipes


def exact_work(bb, order, chart=None):
    """The exact-layer work of solving ``bb`` to ``order``, counted before
    solving: tracked powers y^e (1 and the units included) times order^2,
    for their convolutions and the chart correction, plus row terms times
    order, for the coefficients of f.  ``MAX_EXACT_WORK`` caps it."""
    rows = [row.terms for row in bb.nonlinear] + ([] if chart is None else [chart.terms])
    tracked = _power_recipes({e[1:] for row in rows for e in row}, bb.n)
    return (len(tracked) + bb.n + 1) * order * order + sum(map(len, rows)) * order


def check_exact_work(work):
    """Refuse work past ``MAX_EXACT_WORK`` before any of it is done."""
    if work > MAX_EXACT_WORK:
        raise BBCenterError(
            f"the exact solve needs {work} units of work (tracked powers x "
            f"order^2 + terms x order); the cap is {MAX_EXACT_WORK}: lower "
            "--order or the degree of the system")


def _over_lcm(terms, powers):
    """A row's terms c x^e0 y^e over the lcm q of their denominators: q and,
    per x exponent e0 in ascending order, the (values of y^e, a, b) of its
    terms, with c = (a + b i) / q."""
    q = lcm(*(c.d for c in terms.values()))
    groups = {}
    for e, c in terms.items():
        f = q // c.d
        groups.setdefault(e[0], []).append((powers[e[1:]], c.a * f, c.b * f))
    return q, sorted(groups.items())


def _gauss_dot(xs, ys):
    """The sum of x y over paired Gaussian integers (a, b) = a + b i."""
    re = im = 0
    for (xa, xb), (ya, yb) in zip(xs, ys):
        re += xa * ya - xb * yb
        im += xa * yb + xb * ya
    return re, im


def _row_sum(groups, k, scale):
    """The Gaussian-integer numerator of the order-k coefficient of a row
    given by ``_over_lcm``: each order-m value is raised by the integer
    ``scale[m]`` from its denominator to a common one."""
    re = im = 0
    for e0, group in groups:
        m = k - e0
        if m < 0:
            break
        sr = si = 0
        for p, a, b in group:
            if m < len(p):
                pa, pb = p[m]
                sr += a * pa - b * pb
                si += a * pb + b * pa
        f = scale[m]
        re += sr * f
        im += si * f
    return re, im


def _solve(bb, order, chart=None):
    """Solve (k I - A) c_k = r_k for k = 1..order, the whole trichotomy at once.

    r_k is the linear-in-x column at k = 1 plus the order-k coefficient of
    f(x, y(x)).  Every nonlinear term has total degree >= 2, so r_k needs only
    c_1..c_{k-1}: ``powers[e][m]``, the order-m coefficient of y^e along the
    solution, is computed once, as soon as it is known.  At a singular k, r_k
    is the witness and each free column a parameter slot set to zero in the
    representative; an inconsistent k leaves no solution.

    ``chart`` is the chart row delta(x, y) = F_m(x, x y) / (lam x) - 1 of a
    field's chart m with eigenvalue lam: ``bb`` then holds the dependent
    rows of the field along z_m = x, z_d = x y_d, divided by lam x, and the
    equation is x y' = A y + px x + f(x, y) - delta (x y' + y).  delta_q, the
    order-q coefficient of delta, needs only c_1..c_q, so r_k gains
    -sum_{q<k} (k - q + 1) delta_q c_{k-q}; the chart's graph is x y(x).
    Without a chart row delta is zero.

    Every order-m value of the loop (the units y_j, the tracked powers y^e
    and the chart row, the latter times the lcm of its input denominators)
    is a Gaussian-integer pair over one denominator L[m].  At order k the
    products of orders m and k - m are brought over M_k, the lcm of
    L[m] L[k - m], by the integer weights M_k / (L[m] L[k - m]), so every
    convolution and the chart correction is a plain integer sum.  Each row's
    input coefficients, px included, are integers over the row's own lcm q,
    so r_k is one sum over q M_k, reduced by one gcd.  After the solve L[k]
    is the lcm of M_k and the denominators of c_k, and the order-k values
    are raised to it.  The reduced values are unique, so this changes no
    coefficient, witness or verdict.
    """
    n, A = bb.n, bb.A.rows
    terms = [row.terms for row in bb.nonlinear]
    chart_terms = {} if chart is None else chart.terms
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    zero = (0, 0)
    powers = {(0,) * n: [(1, 0)], **{u: [zero] for u in units}}
    ys = [powers[u] for u in units]
    recipes = []  # y^e = y_j * y^parent, parents listed before their products
    for e, j, parent in _power_recipes(
            {e[1:] for row in terms + [chart_terms] for e in row}, n):
        powers[e] = [zero]
        recipes.append((powers[e], j, powers[parent], sum(parent)))
    # px x is a row's one term of degree one, over the tracked power 1
    x = (1,) + (0,) * n
    rows = [_over_lcm({**row, x: p}, powers) for row, p in zip(terms, bb.px)]
    chart_q, chart_row = _over_lcm(chart_terms, powers)

    table, slots, witnesses, resonances = [], [], {}, 0
    # delta[m] is chart_q delta_m over L[m]
    L, delta = [1], [zero]
    for k in range(1, order + 1):
        M = lcm(*(L[m] * L[k - m] for m in range(1, k // 2 + 1)))
        weights = [M // (L[m] * L[k - m]) for m in range(1, k)]
        weighted = [[(w * a, w * b) for w, (a, b) in zip(weights, y[1:])]
                    for y in ys]
        for out, j, parent, low in recipes:
            # sum over m of y_j[m] parent[k - m], for m = 1 .. k - low
            out.append(_gauss_dot(weighted[j], reversed(parent[low:k])))
        # minus the chart correction sum over q of (k - q + 1) delta_q y[k - q];
        # without a chart row delta has no entries past order 0
        correction = [(-(k - q + 1) * w * a, -(k - q + 1) * w * b)
                      for q, (w, (a, b)) in enumerate(zip(weights, delta[1:]), 1)]
        scale = [M // d for d in L] + [1]
        rhs = []
        for (q, groups), y in zip(rows, ys):
            re, im = _row_sum(groups, k, scale)
            d = q * M
            if correction:
                cr, ci = _gauss_dot(correction, reversed(y[1:k]))
                re, im, d = re * chart_q + cr * q, im * chart_q + ci * q, d * chart_q
            rhs.append(_ec(re, im, d))
        solved = solve_affine([[v - k if i == j else v for j, v in enumerate(row)]
                               for i, row in enumerate(A)], [-v for v in rhs])
        if solved is None or solved[1]:
            for i, value in enumerate(rhs):
                name = (_OBSTRUCTION_NAMES[resonances][i] if resonances < 2 and i < 2
                        else f"r{k}[{i}]")
                witnesses[name] = value
            resonances += 1
            if solved is None:
                return BBClassification(KIND_NO_SOLUTION, witnesses, None,
                                        blocking_order=k)
            slots.extend((k, col, f"c{k}[{col}]") for col in solved[1])
        c = solved[0]
        Lk = lcm(M, *(v.d for v in c))
        for y, v in zip(ys, c):
            f = Lk // v.d
            y.append((v.a * f, v.b * f))
        if Lk != M:
            f = Lk // M
            for out, *_ in recipes:
                re, im = out[k]
                out[k] = (re * f, im * f)
        L.append(Lk)
        table.append(c)
        if chart_row:
            delta.append(_row_sum(chart_row, k, [Lk // d for d in L]))
    solution = FormalSolution(order, tuple(table), tuple(slots))
    return BBClassification(KIND_FAMILY if slots else KIND_UNIQUE, witnesses, solution)


def formal_solve_nonresonant(bb, order):
    """Unique solution germ when no eigenvalue of A is a positive integer <= order.

    Solves (k I - A) c_k = r_k for k = 1..min(order, bb.order), where r_k
    collects the linear-in-x column at k = 1 and the nonlinear image of all
    lower orders: a system's series say nothing past their declared order.
    """
    for k in positive_integer_eigenvalues(bb.A):
        if k <= order:
            raise ResonantEigenvalue(
                f"{k} is an eigenvalue of the linear part; use classify()")
    order = min(order, bb.order)
    check_exact_work(exact_work(bb, order))
    return _solve(bb, order).solution


def reduction_step(bb):
    """One eigenvalue-lowering shear: y = x (u + shift).

    The shifts solve the order-one equations (I - A) c = px exactly; when that
    system is singular but consistent the free components are set to zero and
    reported, and when it is inconsistent the step is blocked and the
    linear-in-x column is the non-existence witness.
    """
    n = bb.n
    solved = solve_affine(bb.A.shift(1).rows, [-v for v in bb.px])
    if solved is None:
        raise BlockedStep("resonant order with nonvanishing obstruction", bb.px)
    shifts, free_cols = solved
    order = max(g.order for g in bb.nonlinear)
    x, *ys = (MultiSeries.variable(n + 1, order, j) for j in range(n + 1))
    subs = [x] + [x * (y + shift) for y, shift in zip(ys, shifts)]
    new_px, new_nonlinear = [], []
    for g in bb.nonlinear:
        # every sheared term keeps a power of x after the division, so only
        # the px column has degree one
        g = g.substitute(subs).divide_by_x()
        new_px.append(g.coeff((1,) + (0,) * n))
        new_nonlinear.append(MultiSeries(n + 1, g.order, {
            e: c for e, c in g.terms.items() if sum(e) >= 2}))
    return ReductionStep(BBSystem(bb.A.shift(1), new_px, new_nonlinear), shifts,
                         free_cols)


def classify(bb, order=12, chart=None):
    """Full trichotomy of a Briot-Bouquet system, exactly.

    One order-by-order recursion covers every case: it solves
    (k I - A) c_k = r_k for k = 1, 2, ... and, at each resonant order (a
    positive integer eigenvalue k of A), reads r_k as the exact obstruction.
    An inconsistent resonant order means no solution; a consistent one
    contributes free parameters; with none the solution is unique.

    The order equations are solved affinely in whatever coordinates the system
    arrives in, so upper-triangular and Jordan linear parts (with the nilpotent
    parameter kept symbolic) need no preliminary change of basis; the verdict
    and the free-parameter count are basis independent.  The resonant orders
    come from A itself, so an ``order`` too small to reach the largest of them
    raises instead of returning a verdict that a larger order would change.
    ``chart`` classifies a chart of a field from its own terms instead (see
    ``_solve``); the representative stays y(x), and the chart's graph is
    x y(x).

    The recursion runs through min(order, bb.order), since a system's series
    say nothing past their declared order; one declared below its largest
    resonant order K raises too.  Every order past K is uniquely solvable, so
    a system declared through K gives the verdict of any larger one.
    """
    integers = positive_integer_eigenvalues(bb.A)
    if integers and order < integers[-1] + 2:
        raise OrderTooSmall(order, integers[-1], integers[-1] + 2)
    order = min(order, bb.order)
    if integers and order < integers[-1]:
        raise OrderTooSmall(order, integers[-1], integers[-1])
    check_exact_work(exact_work(bb, order, chart))
    return _solve(bb, order, chart)


def residual(bb, solution, order=None):
    """x y'(x) - f(x, y(x)) along the representative, one exact univariate
    series per equation, built from ``coefficients[:order]``.  All
    coefficients through the requested order vanish exactly iff the
    representative really solves the system."""
    if order is None:
        order = solution.order
    if order > solution.order:
        raise ValueError("cannot check a residual beyond the solved order")
    n = bb.n
    reps = [MultiSeries(1, order, {(k,): row[i] for k, row
                                   in enumerate(solution.coefficients[:order], 1)})
            for i in range(n)]
    x = MultiSeries.variable(1, order, 0)
    subs = [x] + reps
    out = []
    for i in range(n):
        lhs = reps[i].euler_derivative(0)
        rhs = x * bb.px[i]
        for j in range(n):
            rhs = rhs + reps[j] * bb.A.entry(i, j)
        rhs = rhs + bb.nonlinear[i].substitute(subs, order)
        out.append(lhs - rhs)
    return tuple(out)
