import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb_oracle import oracle_classify, oracle_witnesses, to_oracle
from bbcenter import briot_bouquet
from bbcenter.centers import (AXIS_NAMES, MULT_INFINITE, MULT_NONE,
                              MULT_UNIQUE, POINCARE_TAG, CenterManifoldReport,
                              HoloSystem, _pattern_label, chart_reduce,
                              enumerate_centers, manifold_residual)
from bbcenter.documents import parse_system
from bbcenter.errors import (BBCenterError, InvalidChart, NotNormalized,
                             OrderTooSmall)
from bbcenter.series import ExactComplex, MultiSeries
from bbcenter.spectra import NF_NOT_NORMALIZED, SmallMatrix, normal_form_check


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)


def holo(diag_or_rows, order=12, **rows):
    """rows: x={exps: coeff}, y=..., z=...; diag list or full row matrix."""
    if diag_or_rows and not isinstance(diag_or_rows[0], (list, tuple)):
        linear = SmallMatrix.diagonal(diag_or_rows)
    else:
        linear = SmallMatrix(diag_or_rows)
    dim = linear.dim
    nonlinear = []
    for name in AXIS_NAMES[:dim]:
        entries = rows.get(name, {})
        nonlinear.append(MultiSeries(dim, order, {
            tuple(e): (c if isinstance(c, ExactComplex) else ec(c))
            for e, c in entries.items()}))
    return HoloSystem(linear, nonlinear)


def by_chart(reports):
    return {r.chart: r for r in reports}


# ---------------------------------------------------------------------------
# chart reduction against hand-computed linear parts

def test_chart_reduce_diagonal_with_hyperbolic():
    # diag(i, 2i, 1), zero nonlinear, chart y: linear part diag(-1/2, -1-i/2)
    h = holo([I, ec(0, 2), ec(1)])
    red = chart_reduce(h, 1)
    assert not red.excluded
    A = red.system.A
    assert A.entry(0, 0) == ec(Fraction(-1, 2))
    assert A.entry(1, 1) == ec(-1, Fraction(-1, 2))
    assert A.entry(0, 1) == ec(0) and A.entry(1, 0) == ec(0)
    assert all(s.is_zero() for s in red.system.nonlinear)
    assert red.system.px == (ec(0), ec(0))


def test_chart_reduce_jordan_pair_excludes_coupled_chart():
    # 2x2 Jordan at i plus hyperbolic axis: the y-chart sees the constant -i
    h = holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(1)]])
    red = chart_reduce(h, 1)
    assert red.excluded
    assert red.constants[0] == ec(0, -1)


def test_chart_reduce_jordan3_x_chart_rows():
    # full 3x3 Jordan block at i, chart x: linear rows (0, -i; 0, 0)
    h = holo([[I, ec(1), ec(0)], [ec(0), I, ec(1)], [ec(0), ec(0), I]])
    red = chart_reduce(h, 0)
    assert not red.excluded
    A = red.system.A
    assert A.entry(0, 0) == ec(0)
    assert A.entry(0, 1) == ec(0, -1)
    assert A.entry(1, 0) == ec(0)
    assert A.entry(1, 1) == ec(0)


def test_chart_reduce_zero_eigenvalue_invalid():
    h = holo([ec(0), I])
    with pytest.raises(InvalidChart):
        chart_reduce(h, 0)


def test_chart_reduce_refuses_a_chart_outside_the_axes():
    # chart -1 would otherwise read the last axis through negative indexing
    h = holo([I, ec(0, 2), ec(1)])
    for chart in (-1, h.dim):
        with pytest.raises(IndexError):
            chart_reduce(h, chart)


def test_terms_of_a_parsed_document():
    # a repeated quadratic, a repeated linear entry, an explicit zero linear
    # entry and cubics; the expected rows are summed here with Fraction
    rows = [
        [((0, 1), (1, 0, 0)), ((Fraction(3, 4), 0), (0, 2, 0)),
         ((Fraction(-1, 3), 2), (0, 2, 0)), ((5, 0), (1, 1, 1))],
        [((0, 2), (0, 1, 0)), ((0, 0), (0, 0, 1)), ((1, 1), (1, 0, 0))],
        [((Fraction(1, 2), 0), (0, 0, 1)), ((Fraction(1, 2), 0), (0, 0, 1)),
         ((0, Fraction(-7, 5)), (3, 0, 0)), ((1, 0), (0, 1, 1))],
    ]

    def number(*parts):
        return [[Fraction(v).numerator, Fraction(v).denominator] for v in parts]

    h = parse_system({"variables": ["x", "y", "z"], "equations": [
        [{"coefficient": number(*c), "exponents": list(e)} for c, e in row]
        for row in rows]})
    for k, row in enumerate(rows):
        want = {}
        for (re, im), e in row:
            old = want.get(e, (0, 0))
            want[e] = (old[0] + Fraction(re), old[1] + Fraction(im))
        terms = h.terms(k)
        assert {e: (c.re, c.im) for e, c in terms.items()} == {
            e: v for e, v in want.items() if v != (0, 0)}
        # the linear entries first, as unit monomials in column order
        units = [e for e in terms if sum(e) == 1]
        assert list(terms)[:len(units)] == units
        assert [e.index(1) for e in units] == sorted(e.index(1) for e in units)
    assert list(h.terms(1)) == [(1, 0, 0), (0, 1, 0)]
    assert h.terms(2)[(0, 0, 1)] == ec(1)


def test_chart_reduce_quadratic_px():
    # y' row with x^2 coefficient lands in the linear-in-x column, scaled by -i
    h = holo([I, ec(0, 2), ec(1)], y={(2, 0, 0): 1})
    red = chart_reduce(h, 0)
    assert red.system.px[0] == ec(0, -1)


def test_jordan_z_chart_matches_equal_ratio_form():
    # Jordan pair at i with third eigenvalue 2i, chart z:
    # diagonal 1/2 - 1 twice, off-diagonal -i/2
    h = holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(0, 2)]])
    red = chart_reduce(h, 2)
    A = red.system.A
    half = Fraction(1, 2)
    assert A.entry(0, 0) == ec(-half)
    assert A.entry(1, 1) == ec(-half)
    assert A.entry(0, 1) == ec(0, -half)
    assert A.entry(1, 0) == ec(0)


# ---------------------------------------------------------------------------
# enumeration against the displayed reduction and the independent oracle

CROSS_CHECK_EIGENVALUES = [I, ec(0, 2), ec(0, 3), ec(0, -1), ec(0, Fraction(1, 2)),
                           ec(1), ec(-1)]


def random_normalized(rng, dim, order):
    """A normalized system with an i eigenvalue, a Jordan coupling between
    equal neighbours now and then, and sparse quadratic and cubic terms."""
    diag = [I] + [rng.choice(CROSS_CHECK_EIGENVALUES) for _ in range(dim - 1)]
    rng.shuffle(diag)
    linear = [[diag[i] if i == j else ec(0) for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        if diag[i] == diag[i + 1] and rng.random() < 0.5:
            linear[i][i + 1] = ec(1)
    rows = {}
    for name in AXIS_NAMES[:dim]:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * dim
            for _ in range(rng.choice([2, 3])):
                exps[rng.randrange(dim)] += 1
            terms[tuple(exps)] = ec(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                    Fraction(rng.randint(-1, 1), 2))
        rows[name] = terms
    return holo(linear, order=order, **rows)


def divided_linear_data(h, m):
    """The constants and A of chart m, read off F_d(t, t u) / F_m(t, t u) - u_d
    by series division (the chart rule in ``centers`` is not used)."""
    deps = [k for k in range(h.dim) if k != m]
    u = [MultiSeries.variable(h.dim, 3, j) for j in range(h.dim)]
    subs = [u[0] if k == m else u[0] * u[1 + deps.index(k)] for k in range(h.dim)]
    rows = []
    for k in range(h.dim):
        row = h.nonlinear[k].with_order(3).substitute(subs, 3)
        for j in range(h.dim):
            row = row + subs[j] * h.linear.entry(k, j)
        rows.append(row.divide_by_x())
    den_inv = rows[m].reciprocal()
    out = [rows[d] * den_inv - u[1 + pos] for pos, d in enumerate(deps)]
    units = [tuple(int(i == 1 + j) for i in range(h.dim)) for j in range(len(deps))]
    return (tuple(row.coeff((0,) * h.dim) for row in out),
            [[row.coeff(e) for e in units] for row in out])


def derived_slope_free(red, A):
    """Dependents with a zero column of A and no pure u_d^j term at t^0."""
    out = []
    for pos, d in enumerate(red.dependents):
        pure = any(e[0] == 0 and sum(e) == e[1 + pos] and not c.is_zero()
                   for row in red.system.nonlinear for e, c in row.terms.items())
        if not pure and all(row[pos].is_zero() for row in A):
            out.append(d)
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(3, 8))
def test_enumerate_matches_chart_reduce_and_oracle(seed, dim, order):
    reports = None
    while reports is None:
        h = random_normalized(random.Random(seed), dim, order)
        try:
            reports = enumerate_centers(h, order)
        except OrderTooSmall as err:
            assert err.required > order
            order = err.required
    for r in reports:
        if r.chart is None:
            continue
        red = chart_reduce(h, r.chart, order)
        constants, A = divided_linear_data(h, r.chart)
        assert red.constants == constants
        if red.excluded:
            assert any(not c.is_zero() for c in constants)
            assert r.theorem_tag.endswith("/chart-excluded")
            continue
        assert red.system.A == SmallMatrix(A)
        assert red.slope_free == derived_slope_free(red, A)
        if r.multiplicity != MULT_NONE:
            assert all(row.is_zero() for row in manifold_residual(h, r).values())
        want = oracle_classify(*to_oracle(red.system), order - 1)
        assert r.obstructions == oracle_witnesses(want)
        if want.kind == "no_solution":
            assert r.multiplicity == MULT_NONE
            assert r.blocking_order == want.blocking_order + 1
            continue
        assert r.multiplicity == (
            MULT_INFINITE if want.kind == "family" else MULT_UNIQUE)
        slots = [(1, k) for k in red.slope_free] + [
            (k + 1, red.dependents[col]) for k, col in want.free_slots]
        assert [(k, v) for k, v, _ in r.free_parameters] == sorted(slots)
        for pos, k in enumerate(red.dependents):
            graph = r.graphs[k]
            assert graph.order == order and graph.coeff((1,)) == ec(0)
            for bb_order, row in enumerate(want.coefficients, start=1):
                assert graph.coeff((bb_order + 1,)) == row[pos]


def random_resonant(rng, dim, order):
    """A normalized system whose imaginary eigenvalues are i k for integers k
    from 1 to 4, so its charts resonate, with ``random_normalized``'s Jordan
    couplings and sparse quadratic and cubic terms."""
    h = random_normalized(rng, dim, order)
    diag = [ec(0, rng.randint(1, 4)) for _ in range(dim)]
    rows = [[diag[i] if i == j else ec(0) for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        if diag[i] == diag[i + 1] and rng.random() < 0.5:
            rows[i][i + 1] = ec(1)
    return HoloSystem(SmallMatrix(rows), h.nonlinear)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(0, 6))
def test_verdict_only_enumeration_matches_the_full_one(seed, dim, extra):
    h = random_resonant(random.Random(seed), dim, 3)
    order = 3
    while True:
        try:
            enumerate_centers(h, order, verdict_only=True)
            break
        except OrderTooSmall as err:
            order = err.required
    order += extra
    full = enumerate_centers(h, order)
    cut = enumerate_centers(h, order, verdict_only=True)
    assert all(r.graphs is None for r in cut)
    assert cut == [replace(r, graphs=None) for r in full]


# ---------------------------------------------------------------------------
# enumeration: distinct imaginary pair (the resonance toggle)

def toggle_system(b):
    return holo([I, ec(0, 2), ec(1)], y={(2, 0, 0): b})


def test_toggle_blocked():
    reports = by_chart(enumerate_centers(toggle_system(1)))
    assert set(reports) == {0, 1}
    x = reports[0]
    assert x.multiplicity == MULT_NONE
    assert x.obstructions["pbar"] == ec(0, -1)
    assert x.blocking_order == 2
    y = reports[1]
    assert y.multiplicity == MULT_UNIQUE
    assert y.period_factor == Fraction(1, 2)
    assert all(g.is_zero() for g in y.graphs.values())


def test_toggle_family():
    reports = by_chart(enumerate_centers(toggle_system(0)))
    x = reports[0]
    assert x.multiplicity == MULT_INFINITE
    assert [(k, v) for k, v, _ in x.free_parameters] == [(2, 1)]
    assert x.period_factor == Fraction(1)
    y = reports[1]
    assert y.multiplicity == MULT_UNIQUE


def late_resonance_system():
    """x' = ix, y' = 5iy + x z^2, z' = -z + x^2: the x chart resonates at 5."""
    return holo([I, ec(0, 5), ec(-1)], y={(1, 0, 2): 1}, z={(2, 0, 0): 1})


@pytest.mark.parametrize("order", range(1, 13))
def test_verdict_does_not_depend_on_order(order):
    if order < 7:
        with pytest.raises(OrderTooSmall) as err:
            enumerate_centers(late_resonance_system(), order)
        assert err.value.required == 7
        return
    reports = by_chart(enumerate_centers(late_resonance_system(), order))
    assert reports[0].multiplicity == MULT_NONE
    assert reports[0].blocking_order == 5
    assert reports[0].obstructions == {"pbar": ec(Fraction(-4, 25), Fraction(3, 25)),
                                       "rbar": ec(0)}
    assert reports[1].multiplicity == MULT_UNIQUE


def test_linear_distinct_ratio_three():
    # diag(i, 3i, 1): unique y-invariant (period 2pi/3) and an x-family
    reports = by_chart(enumerate_centers(holo([I, ec(0, 3), ec(1)])))
    x, y = reports[0], reports[1]
    assert x.multiplicity == MULT_INFINITE
    assert [(k, v) for k, v, _ in x.free_parameters] == [(3, 1)]
    assert x.period_factor == Fraction(1)
    assert y.multiplicity == MULT_UNIQUE
    assert y.period_factor == Fraction(1, 3)
    assert y.tangency == "y-invariant"


def test_families_listed_before_no_gos():
    reports = enumerate_centers(toggle_system(1))
    assert [r.multiplicity for r in reports] == [MULT_UNIQUE, MULT_NONE]


# ---------------------------------------------------------------------------
# equal pairs, slopes and tangency labels

def test_equal_pair_with_hyperbolic_transverse():
    h = holo([I, I, ec(1)], x={(0, 1, 1): Fraction(1, 4)},
             z={(1, 1, 0): Fraction(1, 2)})
    reports = enumerate_centers(h)
    assert len(reports) == 2
    for r in reports:
        assert r.multiplicity == MULT_UNIQUE
        assert r.tangency == "(x,y)-invariant"
        assert r.pattern == "two-imaginary-equal"
        slots = [(k, v) for k, v, _ in r.free_parameters]
        other = 1 - r.chart
        assert slots == [(1, other)]


def test_jordan_pair_reports():
    # Jordan block at i with hyperbolic third axis: y-chart excluded,
    # x-chart unique and pinned to the axis
    h = holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(1)]],
             x={(0, 2, 0): Fraction(1, 3)}, y={(2, 0, 0): Fraction(1, 5)})
    reports = by_chart(enumerate_centers(h))
    assert reports[1].multiplicity == MULT_NONE
    assert reports[1].theorem_tag.endswith("chart-excluded")
    x = reports[0]
    assert x.multiplicity == MULT_UNIQUE
    assert x.tangency == "x-invariant"
    assert x.free_parameters == ()
    assert x.pattern == "two-imaginary-jordan"


def test_jordan_pair_with_equal_third_gives_xz_tangency():
    # Jordan pair at i plus a third equal eigenvalue on the z-axis:
    # the x-chart keeps a free z-slope, so the manifold family is (x,z)-tangent
    h = holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), I]])
    reports = by_chart(enumerate_centers(h))
    assert reports[1].multiplicity == MULT_NONE
    x = reports[0]
    assert x.multiplicity == MULT_UNIQUE
    assert x.tangency == "(x,z)-invariant"
    z = reports[2]
    assert z.multiplicity == MULT_UNIQUE
    assert z.tangency == "(x,z)-invariant"


def test_poincare_center():
    h = holo([I, I, I], x={(0, 2, 0): Fraction(1, 4)},
             y={(1, 0, 1): Fraction(-1, 8)}, z={(2, 0, 0): Fraction(1, 8)})
    reports = enumerate_centers(h)
    assert len(reports) == 1
    r = reports[0]
    assert r.theorem_tag == POINCARE_TAG
    assert r.tangency == "isochronous center at origin"
    assert r.period_factor == Fraction(1)
    assert r.graphs is None


def test_single_imaginary_eigenvalue():
    h = holo([I, ec(-1, 2), ec(Fraction(1, 2))], x={(1, 1, 0): 1})
    reports = enumerate_centers(h)
    assert len(reports) == 1
    r = reports[0]
    assert r.chart == 0 and r.multiplicity == MULT_UNIQUE
    assert r.pattern == "one-imaginary"


def test_no_imaginary_gives_empty():
    assert enumerate_centers(holo([ec(1), ec(2), ec(3)])) == []


def test_not_normalized_raises():
    h = holo([[I, ec(0), ec(0)], [ec(1), I, ec(0)], [ec(0), ec(0), ec(1)]])
    with pytest.raises(NotNormalized):
        enumerate_centers(h)


def test_two_dimensional_distinct():
    h = holo([I, ec(0, 2)], y={(2, 0): 1})
    reports = by_chart(enumerate_centers(h))
    assert reports[0].multiplicity == MULT_NONE  # pbar = -i != 0
    assert reports[1].multiplicity == MULT_UNIQUE


def test_two_dimensional_jordan():
    h = holo([[I, ec(1)], [ec(0), I]], y={(2, 0): Fraction(1, 2)})
    reports = by_chart(enumerate_centers(h))
    assert reports[1].multiplicity == MULT_NONE
    assert reports[0].multiplicity == MULT_UNIQUE
    assert reports[0].tangency == "x-invariant"


def test_two_dimensional_poincare():
    h = holo([I, I], x={(0, 2): 1})
    reports = enumerate_centers(h)
    assert len(reports) == 1 and reports[0].theorem_tag == POINCARE_TAG


# ---------------------------------------------------------------------------
# residuals and invariance properties

def quadratic_perturbation(rng, dim, scale=Fraction(1, 4)):
    rows = {}
    for name in AXIS_NAMES[:dim]:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * dim
            exps[rng.randrange(dim)] += 1
            exps[rng.randrange(dim)] += 1
            terms[tuple(exps)] = ec(Fraction(rng.randint(-2, 2), 8))
        rows[name] = terms
    return rows


def test_manifold_residual_vanishes_exactly():
    rng = random.Random(5)
    h = holo([I, ec(0, 2), ec(1)], order=12, **quadratic_perturbation(rng, 3))
    for r in enumerate_centers(h, order=12):
        if r.multiplicity == MULT_NONE:
            continue
        rows = manifold_residual(h, r)
        for k, row in rows.items():
            assert row.is_zero(), f"chart {r.chart}, row {k}: {row}"


def test_jordan_no_go_regardless_of_nonlinearity():
    rng = random.Random(17)
    jordan2 = [[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(1)]]
    jordan3 = [[I, ec(1), ec(0)], [ec(0), I, ec(1)], [ec(0), ec(0), I]]
    for _ in range(5):
        h2 = holo(jordan2, **quadratic_perturbation(rng, 3))
        reports = by_chart(enumerate_centers(h2))
        assert reports[1].multiplicity == MULT_NONE
        h3 = holo(jordan3, **quadratic_perturbation(rng, 3))
        reports = by_chart(enumerate_centers(h3))
        assert reports[1].multiplicity == MULT_NONE
        assert reports[2].multiplicity == MULT_NONE
        assert reports[0].multiplicity == MULT_UNIQUE


def test_scaling_invariance_exact():
    rng = random.Random(23)
    h = holo([I, ec(0, 2), ec(1)], **quadratic_perturbation(rng, 3))
    scaled = HoloSystem(SmallMatrix([[v * 3 for v in row] for row in h.linear.rows]),
                        [s * 3 for s in h.nonlinear])
    base = enumerate_centers(h)
    tripled = enumerate_centers(scaled)
    assert len(base) == len(tripled)
    for a, b in zip(base, tripled):
        assert a.chart == b.chart
        assert a.multiplicity == b.multiplicity
        assert a.tangency == b.tangency
        assert a.graphs == b.graphs
        assert b.period_factor == a.period_factor / 3


def test_graph_tangency_representative():
    # every representative graph vanishes to second order in pinned directions
    rng = random.Random(29)
    h = holo([I, ec(0, 3), ec(1)], **quadratic_perturbation(rng, 3))
    for r in enumerate_centers(h):
        if r.multiplicity == MULT_NONE:
            continue
        pinned = {k for k in range(h.dim) if k != r.chart}
        for _, var, _ in r.free_parameters:
            pinned.discard(var)
        for k in pinned & set(r.graphs):
            g = r.graphs[k]
            assert g.coeff((0,)) == ec(0)
            assert g.coeff((1,)) == ec(0)


def test_equal_pair_with_imaginary_transverse_blocked_and_family():
    # diag(i, i, 2i): the x- and y-charts are resonant toward the 2i axis.
    # An x^2 term in the z-equation blocks the x-chart only.
    h = holo([I, I, ec(0, 2)], z={(2, 0, 0): 1})
    reports = by_chart(enumerate_centers(h))
    assert reports[0].multiplicity == MULT_NONE
    assert reports[0].obstructions["rbar"] == ec(0, -1)
    y = reports[1]
    assert y.multiplicity == MULT_INFINITE
    # slope of x free (equal eigenvalue) plus the resonant slot: z''(0) free
    assert [(k, v) for k, v, _ in y.free_parameters] == [(1, 0), (2, 2)]
    assert y.tangency == "(x,y)-invariant"
    z = reports[2]
    assert z.multiplicity == MULT_UNIQUE
    assert z.tangency == "z-invariant"


def test_equal_pair_larger_demands_both_obstructions():
    # diag(i, 2i, 2i): the x-chart has the double eigenvalue 1; both
    # linear-in-t constants must vanish for a family
    blocked = holo([I, ec(0, 2), ec(0, 2)], y={(2, 0, 0): 1})
    reports = by_chart(enumerate_centers(blocked))
    assert reports[0].multiplicity == MULT_NONE
    assert reports[0].obstructions["pbar"] == ec(0, -1)
    assert reports[0].obstructions["rbar"] == ec(0)
    clean = holo([I, ec(0, 2), ec(0, 2)])
    reports = by_chart(enumerate_centers(clean))
    x = reports[0]
    assert x.multiplicity == MULT_INFINITE
    assert [(k, v) for k, v, _ in x.free_parameters] == [(2, 1), (2, 2)]


def test_distinct_triple_double_resonance():
    # diag(i, 2i, 3i): the x-chart carries integer eigenvalues 1 and 2, so
    # the cascade must clear two resonant orders in sequence
    h = holo([I, ec(0, 2), ec(0, 3)])
    reports = by_chart(enumerate_centers(h))
    x = reports[0]
    assert x.multiplicity == MULT_INFINITE
    assert [(k, v) for k, v, _ in x.free_parameters] == [(2, 1), (3, 2)]
    assert x.obstructions == {"pbar": ec(0), "rbar": ec(0),
                              "phat": ec(0), "rhat": ec(0)}
    # an x^3 term in the z-equation surfaces at the second resonance only
    h2 = holo([I, ec(0, 2), ec(0, 3)], z={(3, 0, 0): 1})
    reports = by_chart(enumerate_centers(h2))
    x2 = reports[0]
    assert x2.multiplicity == MULT_NONE
    assert x2.obstructions["pbar"] == ec(0)
    assert not x2.obstructions["rhat"].is_zero()
    assert x2.blocking_order == 3


def test_pattern_exhaustiveness():
    cases = [
        holo([I, ec(1), ec(2)]),
        holo([I, ec(0, 2), ec(1)]),
        holo([I, I, ec(1)]),
        holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(1)]]),
        holo([I, ec(0, 2), ec(0, 3)]),
        holo([I, I, ec(0, 2)]),
        holo([I, I, I]),
        holo([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(0, 2)]]),
        holo([[I, ec(1), ec(0)], [ec(0), I, ec(1)], [ec(0), ec(0), I]]),
        holo([I, ec(-1)]),
        holo([I, ec(0, 2)]),
        holo([I, I]),
        holo([[I, ec(1)], [ec(0), I]]),
    ]
    for h in cases:
        reports = enumerate_centers(h)
        assert reports, f"no reports for {h.linear!r}"
        for r in reports:
            assert r.theorem_tag


def chain_scan_label(linear):
    """The eigenvalue pattern as read by scanning the matrix for Jordan
    chains: the reference that ``_pattern_label`` must agree with."""
    dim = linear.dim
    diag = [linear.entry(i, i) for i in range(dim)]
    values = [v for v in diag if v.is_purely_imaginary()]
    count = len(values)
    all_equal = all(v == values[0] for v in values)
    chains = [i for i in range(dim - 1) if not linear.entry(i, i + 1).is_zero()]
    imag_chain = [i for i in chains if diag[i].is_purely_imaginary()]
    if count == dim and all_equal and not chains:
        return "poincare"
    if count == 1:
        return "one-imaginary"
    if dim == 2 or count == 2:
        if all_equal:
            return "two-imaginary-jordan" if imag_chain else "two-imaginary-equal"
        return "two-imaginary-distinct"
    if len(imag_chain) == 2:
        return "three-imaginary-jordan-3"
    if len(imag_chain) == 1:
        return "three-imaginary-jordan-2"
    distinct = len(set(values))
    if distinct == 3:
        return "three-imaginary-distinct"
    if distinct == 2:
        return "three-imaginary-two-equal"
    raise AssertionError(f"no pattern for {linear!r}")


def test_pattern_label_matches_the_chain_scan():
    # every normalized 2-D and 3-D linear part with these diagonal entries
    # and superdiagonal entries 0 or 1
    entries = [I, ec(0, 2), ec(0, -1), ec(1), ec(-1), ec(1, 1)]
    checked = 0
    for dim in (2, 3):
        for diag in itertools.product(entries, repeat=dim):
            for upper in itertools.product((0, 1), repeat=dim - 1):
                linear = SmallMatrix([
                    [diag[i] if j == i else upper[i] if j == i + 1 else 0
                     for j in range(dim)] for i in range(dim)])
                form = normal_form_check(linear)
                if form == NF_NOT_NORMALIZED:
                    continue
                imaginary = [v for v in diag if v.is_purely_imaginary()]
                assert (_pattern_label(form, imaginary, dim)
                        == chain_scan_label(linear)), linear
                checked += 1
    assert checked == 276


def test_enumerate_refuses_the_work_of_all_charts_together(monkeypatch):
    # every quadratic and cubic monomial, three imaginary charts; each chart
    # tracks 10 powers of (u1, u2) and 15 + 15 + 16 terms at order 11, so it
    # needs 10 * 11^2 + 46 * 11 = 1716 units, 5148 for the three
    cubic = {e: 1 for e in itertools.product(range(4), repeat=3) if 2 <= sum(e) <= 3}
    h = holo([I, ec(0, Fraction(3, 2)), ec(0, Fraction(-5, 3))], x=cubic, y=cubic,
             z=cubic)
    monkeypatch.setattr(briot_bouquet, "MAX_EXACT_WORK", 5147)
    with pytest.raises(BBCenterError, match="needs 5148 units of work.*cap is 5147"):
        enumerate_centers(h, 12)
    monkeypatch.setattr(briot_bouquet, "MAX_EXACT_WORK", 5148)
    assert len(enumerate_centers(h, 12)) == 3
