import cmath
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcenter.centers import HoloSystem, enumerate_centers
from bbcenter.errors import IntegrationDiverged
from bbcenter.series import ExactComplex, MultiSeries
from bbcenter.spectra import SmallMatrix
from bbcenter import verify
from bbcenter.verify import (_halving_runs, _rk4_batch, _start_steps,
                             _without_rotation, check_isochronous,
                             check_residual_numeric, compile_field, integrate)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)


def rotation_1d():
    return HoloSystem(SmallMatrix([[I]]), [MultiSeries.zero(1, 4)])


def test_quarter_turn():
    end = integrate(rotation_1d(), [1.0], math.pi / 2, 1e-3)
    assert abs(end[0] - 1j) < 1e-9


def test_full_turn_returns():
    end = integrate(rotation_1d(), [0.1], 2 * math.pi, 1e-3)
    assert abs(end[0] - 0.1) < 1e-9


def test_zero_field_constant():
    h = HoloSystem(SmallMatrix.diagonal([ec(0), ec(0)]),
                   [MultiSeries.zero(2, 4)] * 2)
    end = integrate(h, [0.3, -0.2j], 1.0, 1e-2)
    assert np.allclose(end, [0.3, -0.2j])


def test_divergence_guard():
    h = HoloSystem(SmallMatrix([[ec(5)]]), [MultiSeries.zero(1, 4)])
    with pytest.raises(IntegrationDiverged):
        integrate(h, [1.0], 10.0, 1e-2)


def test_divergence_guard_catches_nan():
    # NaN compares false with the bound, so the guard must not read "> bound"
    with pytest.raises(IntegrationDiverged, match="not finite"):
        _rk4_batch(lambda z: z * math.nan, 0.0,
                   np.ones((2, 1), dtype=complex), 1.0, 0.1)


def test_rk4_order_on_rotation():
    h = rotation_1d()
    errors = []
    step = 0.2
    for _ in range(6):
        end = integrate(h, [1.0], 2 * math.pi, step)
        errors.append(abs(end[0] - 1.0))
        step /= 2
    for e0, e1 in zip(errors, errors[1:]):
        if e1 < 1e-12:
            break
        assert 12.0 <= e0 / e1 <= 20.0


def test_period_scaling_consistency():
    # integrating c*F for period T/c reproduces the return error of F over T
    base = rotation_1d()
    scaled = HoloSystem(SmallMatrix([[ec(0, 3)]]), [MultiSeries.zero(1, 4)])
    e1 = abs(integrate(base, [0.5], 2 * math.pi, 1e-3)[0] - 0.5)
    e2 = abs(integrate(scaled, [0.5], 2 * math.pi / 3, 1e-3 / 3)[0] - 0.5)
    assert abs(e1 - e2) < 1e-10


def test_integrate_is_classical_rk4():
    # on x' = ix each classical RK4 step multiplies by the degree-4 Taylor
    # polynomial of e^{ih}; a step exact in the rotation would return 1
    for n in (8, 32, 100):
        h = 2 * math.pi / n
        amplification = sum((1j * h) ** k / math.factorial(k) for k in range(5))
        end = integrate(rotation_1d(), [1.0], 2 * math.pi, h)[0]
        assert abs(end - amplification ** n) <= 64 * n * sys.float_info.epsilon
        assert abs(end - 1.0) > 1e-3 * h ** 4


@pytest.mark.parametrize("scale", [1, Fraction(1, 1000)])
@pytest.mark.parametrize("chart", [0, 1])
def test_rotation_is_exact(scale, chart):
    # diag(i, 3i) scaled: periods 2 pi / 3, 2 pi, 2000 pi / 3 and 2000 pi;
    # the Lawson step carries the whole field, so the first sweep returns to
    # z0 at the rounding level and its finest run is accepted: 4, 8 and 16
    # steps on chart y, and on chart x, where 2 / |A| = 2 / (3 scale) is
    # the shorter start step, ceil(period |A| / 2) = 10, 20 and 40
    h = HoloSystem(SmallMatrix.diagonal([ec(0, scale), ec(0, 3 * scale)]),
                   [MultiSeries.zero(2, 8)] * 2)
    (report,) = [r for r in enumerate_centers(h, order=8) if r.chart == chart]
    result = check_isochronous(h, report, starts=8, radius=0.1)
    assert result.passed, result
    finest = {0: 40, 1: 16}[chart]
    assert result.step == pytest.approx(result.predicted_period / finest)
    assert result.return_error <= 64 * sys.float_info.epsilon * 0.1
    assert result.error_estimate <= 64 * sys.float_info.epsilon * 0.1


def axis_system():
    # diag(i, 3i, 1), no nonlinearity: the y-axis manifold is an exact rotation
    return HoloSystem(SmallMatrix.diagonal([I, ec(0, 3), ec(1)]),
                      [MultiSeries.zero(3, 8)] * 3)


def test_axis_manifold_verifies():
    reports = {r.chart: r for r in enumerate_centers(axis_system(), order=8)}
    result = check_isochronous(axis_system(), reports[1], starts=8,
                               radius=0.1, tol=1e-8)
    assert result.passed
    assert result.return_error < 1e-8
    assert result.residual_error < 1e-14


def test_one_compiled_field_per_manifold(monkeypatch):
    # the RK4 runs and both residual radii share one compiled field, and the
    # residual is still looked up as the module's check_residual_numeric
    compiled, residuals = [], []
    compile_, residual = verify.compile_field, verify.check_residual_numeric

    def counted_compile(h):
        compiled.append(h)
        return compile_(h)

    def counted_residual(field, report, **kwargs):
        residuals.append(field)
        return residual(field, report, **kwargs)

    monkeypatch.setattr(verify, "compile_field", counted_compile)
    monkeypatch.setattr(verify, "check_residual_numeric", counted_residual)
    reports = {r.chart: r for r in enumerate_centers(axis_system(), order=8)}
    assert check_isochronous(axis_system(), reports[1], starts=4,
                             radius=0.1).passed
    assert len(compiled) == 1 and len(residuals) == 2
    # what is compiled is G = F - i Im(diag A) z, built exactly
    (g,) = compiled
    assert [g.linear.rows[i][i] for i in range(3)] == [ec(0), ec(0), ec(1)]
    assert g.nonlinear == axis_system().nonlinear


def test_wrong_period_fails():
    reports = {r.chart: r for r in enumerate_centers(axis_system(), order=8)}
    r = reports[1]
    stretched = type(r)(
        chart=r.chart, tangency=r.tangency, multiplicity=r.multiplicity,
        theorem_tag=r.theorem_tag, pattern=r.pattern,
        period_factor=r.period_factor * Fraction(11, 10), order=r.order,
        free_parameters=r.free_parameters, graphs=r.graphs,
        obstructions=r.obstructions)
    result = check_isochronous(axis_system(), stretched, starts=4,
                               radius=0.1, tol=1e-6)
    assert not result.passed
    assert result.return_error > 1e-3


def test_residual_decay_with_radius():
    h = HoloSystem(
        SmallMatrix.diagonal([I, ec(0, 2), ec(1)]),
        [MultiSeries(3, 8, {(0, 2, 0): ec(Fraction(1, 4))}),
         MultiSeries(3, 8, {(1, 0, 1): ec(Fraction(1, 8))}),
         MultiSeries(3, 8, {(2, 0, 0): ec(Fraction(-1, 4))})])
    order = 5
    reports = [r for r in enumerate_centers(h, order=order)
               if r.multiplicity != "none"]
    assert reports
    for r in reports:
        res = [check_residual_numeric(compile_field(h), r, grid=12, radius=rad)
               for rad in (1e-1, 1e-2, 1e-3)]
        floor = 1e-300
        for big, small, ratio in ((res[0], res[1], 10.0), (res[1], res[2], 10.0)):
            if small < floor or big < 1e-18:
                continue
            slope = math.log10(big / small)
            assert slope >= order, f"decay slope {slope} below {order}"


def test_shorter_truncation_has_larger_residual():
    h = HoloSystem(
        SmallMatrix.diagonal([I, ec(0, 2), ec(1)]),
        [MultiSeries(3, 12, {(0, 2, 0): ec(Fraction(1, 4))}),
         MultiSeries(3, 12, {(1, 0, 1): ec(Fraction(1, 8))}),
         MultiSeries(3, 12, {(2, 0, 0): ec(Fraction(-1, 4))})])
    long = {r.chart: r for r in enumerate_centers(h, order=8)}
    short = {r.chart: r for r in enumerate_centers(h, order=6)}
    chart = 1
    r_long = check_residual_numeric(compile_field(h), long[chart], grid=8, radius=0.1)
    r_short = check_residual_numeric(compile_field(h), short[chart], grid=8, radius=0.1)
    assert r_short > r_long * 10


def test_residual_keeps_nan():
    # x' = ix + 10^300 y^2, y' = -y + x^2: the graph is finite at |t| = 1e-2
    # but the field there overflows, so the defects are NaN; max() dropped
    # them and reported 0.0
    h = HoloSystem(SmallMatrix.diagonal([I, ec(-1)]),
                   [MultiSeries(2, 6, {(0, 2): ec(10 ** 300)}),
                    MultiSeries(2, 6, {(2, 0): ec(1)})])
    (report,) = [r for r in enumerate_centers(h, order=6)
                 if r.multiplicity != "none"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(check_residual_numeric(compile_field(h), report,
                                                 grid=8, radius=1e-2))


# x' = ix + y^2, y' = iy and a 3-D analogue: isochronous centers, chart None
POINCARE_2D = HoloSystem(SmallMatrix.diagonal([I, I]),
                         [MultiSeries(2, 8, {(0, 2): ec(1)}), MultiSeries.zero(2, 8)])
POINCARE_3D = HoloSystem(
    SmallMatrix.diagonal([I, I, I]),
    [MultiSeries(3, 8, {(0, 2, 0): ec(Fraction(1, 4))}),
     MultiSeries(3, 8, {(0, 0, 2): ec(Fraction(-1, 8))}),
     MultiSeries(3, 8, {(1, 1, 0): ec(Fraction(1, 8))})])


def test_poincare_center_verifies():
    report = enumerate_centers(POINCARE_3D, order=8)[0]
    result = check_isochronous(POINCARE_3D, report, starts=6, radius=1e-2,
                               tol=1e-6)
    assert result.passed


def test_verifying_a_poincare_center_loads_no_random_module():
    # its starts are fixed directions, not draws; numpy before 2.0 loads
    # numpy.random on import, so only modules loaded after numpy count
    probe = "\n".join([
        "import sys, numpy",
        "loaded = set(sys.modules)",
        "from bbcenter.centers import HoloSystem, enumerate_centers",
        "from bbcenter.series import ExactComplex, MultiSeries",
        "from bbcenter.spectra import SmallMatrix",
        "from bbcenter.verify import check_isochronous",
        "i = ExactComplex(0, 1)",
        "h = HoloSystem(SmallMatrix.diagonal([i, i]),",
        "               [MultiSeries(2, 8, {(0, 2): ExactComplex(1)}),",
        "                MultiSeries.zero(2, 8)])",
        "(report,) = enumerate_centers(h, order=8)",
        "assert report.chart is None and check_isochronous(h, report).passed",
        "print(sorted(m for m in set(sys.modules) - loaded",
        "             if m.startswith('numpy.random')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("starts", [1, 20, 1000])
@pytest.mark.parametrize("h", [POINCARE_2D, POINCARE_3D], ids=["2d", "3d"])
def test_isochronous_starts_are_fixed_and_on_distinct_lines(h, starts):
    # every start on the sphere |z| = radius, the same set on every call,
    # and no two on one complex line, even 1000 of them in C^2
    (report,) = enumerate_centers(h, order=8)
    assert report.chart is None
    z = verify._manifold_starts(h, report, starts, 1e-2)
    assert z.shape == (starts, h.dim)
    assert np.all(abs(np.linalg.norm(z, axis=1) - 1e-2) <= 1e-12 * 1e-2)
    assert np.array_equal(z, verify._manifold_starts(h, report, starts, 1e-2))
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    overlap = abs(unit.conj() @ unit.T)
    np.fill_diagonal(overlap, 0.0)
    assert overlap.max() < 1 - 1e-3


# compile_field against an independent evaluator: plain Python complex,
# term by term from the exact data

def _plain(c):
    return complex(float(c.re), float(c.im))


def reference_field(h, point):
    """F(point) per row, and the sum of the absolute values of its terms."""
    values, scales = [], []
    for i in range(h.dim):
        terms = [_plain(h.linear.rows[i][j]) * point[j] for j in range(h.dim)]
        for exps, c in h.nonlinear[i].terms.items():
            term = _plain(c)
            for zj, k in zip(point, exps):
                term *= zj ** k
            terms.append(term)
        values.append(sum(terms))
        scales.append(sum(abs(t) for t in terms))
    return values, scales


small_coefficients = st.builds(
    lambda re, im, den: ec(Fraction(re, den), Fraction(im, den)),
    st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))


@st.composite
def fields_and_inputs(draw):
    """A field of dimension 1-3 (zero, diagonal, Jordan or dense linear part;
    monomials of degree 2-4 drawn from a small pool, so rows share them) and
    an input of shape (dim,), (1, dim) or (k, dim)."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["zero", "diagonal", "jordan", "dense"]))
    entry = small_coefficients
    if kind == "dense":
        rows = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    else:
        if kind == "zero":
            diagonal = [ec(0)] * dim
        elif kind == "jordan":
            diagonal = [draw(entry)] * dim
        else:
            diagonal = [draw(entry) for _ in range(dim)]
        rows = [[diagonal[i] if i == j else ec(0) for j in range(dim)]
                for i in range(dim)]
        if kind == "jordan":
            for i in range(dim - 1):
                rows[i][i + 1] = ec(1)
    exponent = st.lists(st.integers(0, 4), min_size=dim, max_size=dim).filter(
        lambda e: 2 <= sum(e) <= 4)
    pool = draw(st.lists(exponent, max_size=4, unique_by=tuple))
    nonlinear = []
    for _ in range(dim):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        nonlinear.append(MultiSeries(dim, 4, {tuple(e): draw(entry) for e in chosen}))
    values = st.complex_numbers(max_magnitude=2, allow_nan=False,
                                allow_infinity=False)
    k = draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(dim,), (1, dim), (k, dim)]))
    points = [[draw(values) for _ in range(dim)] for _ in range(int(np.prod(shape[:-1])))]
    return HoloSystem(SmallMatrix(rows), nonlinear), shape, points


ZERO_2D = HoloSystem(SmallMatrix.diagonal([ec(0), ec(0)]), [MultiSeries.zero(2, 4)] * 2)
LINEAR_3D = HoloSystem(SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(2, 1)],
                                    [ec(1, -1), ec(0), ec(-1)]]),
                       [MultiSeries.zero(3, 4)] * 3)
# x' = -x + 3xy + iy^3, y' = 2y + xy/2 + x^4: xy appears in both equations
SHARED_2D = HoloSystem(SmallMatrix.diagonal([ec(-1), ec(2)]),
                       [MultiSeries(2, 4, {(1, 1): ec(3), (0, 3): I}),
                        MultiSeries(2, 4, {(1, 1): ec(Fraction(1, 2)), (4, 0): ec(1)})])
# at x ~ 1e-157 the second row's value is subnormal (about 2.7e-314), and
# the two evaluations differ there by one subnormal spacing
TINY_2D = HoloSystem(SmallMatrix.diagonal([ec(0), ec(0)]),
                     [MultiSeries(2, 4, {(4, 0): ec(1, Fraction(-5, 3))}),
                      MultiSeries(2, 4, {(3, 0): ec(1),
                                         (2, 1): ec(Fraction(-4, 3), Fraction(3, 2)),
                                         (3, 1): ec(0, Fraction(-1, 2))})])


@settings(max_examples=300, deadline=None)
@given(fields_and_inputs())
@example((ZERO_2D, (2,), [[1 + 2j, -0.5j]]))
@example((ZERO_2D, (3, 2), [[1, 2], [0.5j, 1 - 1j], [0, 0]]))
@example((LINEAR_3D, (1, 3), [[0.3, -1j, 1.5 + 0.25j]]))
@example((SHARED_2D, (4, 2), [[0.5, 1], [-1.5j, 0.25], [1 + 1j, -1], [0, 0]]))
@example((TINY_2D, (2,), [[9.618336061795022e-158,
                           -0.786870351455133 - 1.2196071415670335j]]))
def test_compile_field_matches_plain_complex_evaluation(case):
    # relative to the terms' sizes, with a floor of a few subnormal spacings
    # per term, where a relative bound is below the spacing
    h, shape, points = case
    z = np.array(points, dtype=complex).reshape(shape)
    got = compile_field(h)(z)
    assert got.shape == shape
    for point, row in zip(points, got.reshape(-1, h.dim)):
        want, scale = reference_field(h, point)
        for i, (w, g, s) in enumerate(zip(want, row, scale)):
            floor = 16 * math.ulp(0.0) * (h.dim + len(h.nonlinear[i].terms))
            assert abs(g - w) <= 1e-12 * s + floor, (g, w, s)


# check_residual_numeric against a per-point reference in plain Python
# complex: the graph and its slope from the exact coefficients, the field
# from reference_field

def reference_residual(h, report, grid, radius):
    m = report.chart
    worst = 0.0
    for s in range(grid):
        t = radius * cmath.exp(2j * math.pi * s / grid)
        z, dz = [0j] * h.dim, [0j] * h.dim
        z[m], dz[m] = t, 1
        for k, g in report.graphs.items():
            for (e,), c in g.terms.items():
                z[k] += _plain(c) * t ** e
                dz[k] += _plain(c) * e * t ** (e - 1)
        rhs, _ = reference_field(h, z)
        worst = max(worst, *(abs(rhs[m] * dz[k] - rhs[k]) for k in report.graphs))
    return worst


# x' = ix + y^2/4, y' = 2iy + xz/8, z' = z - x^2/4 and its 2-D section
DEMO_3D = HoloSystem(SmallMatrix.diagonal([I, ec(0, 2), ec(1)]),
                     [MultiSeries(3, 8, {(0, 2, 0): ec(Fraction(1, 4))}),
                      MultiSeries(3, 8, {(1, 0, 1): ec(Fraction(1, 8))}),
                      MultiSeries(3, 8, {(2, 0, 0): ec(Fraction(-1, 4))})])
JORDAN_2D = HoloSystem(SmallMatrix([[I, ec(1)], [ec(0), I]]),
                       [MultiSeries(2, 8, {(0, 2): ec(1)}),
                        MultiSeries(2, 8, {(2, 0): ec(Fraction(1, 2), 1)})])


# the graph sampler against the exact layer: MultiSeries.eval_numeric of
# the graph and of its exact derivative

coefficients = st.builds(
    lambda re, im, den: ec(Fraction(re, den), Fraction(im, den)),
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
    st.integers(1, 1000))


@st.composite
def graphs(draw, order):
    return MultiSeries(1, order, {(e,): c for e, c in draw(
        st.dictionaries(st.integers(1, order), coefficients)).items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 20).flatmap(lambda n: st.tuples(graphs(n), graphs(n))),
       st.sampled_from([1e-3, 1e-2, 0.5]),
       st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=8))
def test_sampled_graph_matches_the_exact_layer(pair, radius, angles):
    # chart 1 between graphs 0 and 2; each sample agrees with the term-by-term
    # evaluation to 1e-12 relative to the sum of the terms' moduli
    t = radius * np.exp(1j * np.array(angles))
    report = SimpleNamespace(chart=1, graphs=dict(zip((0, 2), pair)))
    z, dz = verify._sample_graph(report, t)
    assert np.array_equal(z[:, 1], t) and np.all(dz[:, 1] == 1)
    for k, g in report.graphs.items():
        moduli = {e: abs(c.to_complex()) for (e,), c in g.terms.items()}
        scale = sum(m * radius ** e for e, m in moduli.items())
        slope_scale = sum(e * m * radius ** (e - 1) for e, m in moduli.items())
        assert np.all(abs(z[:, k] - g.eval_numeric([t])) <= 1e-12 * scale)
        assert np.all(abs(dz[:, k] - g.derivative(0).eval_numeric([t]))
                      <= 1e-12 * slope_scale)


@pytest.mark.parametrize("radius", [0.3, 0.1])
@pytest.mark.parametrize("keep", [1, 2])
@pytest.mark.parametrize("h", [DEMO_3D, JORDAN_2D], ids=["demo-3d", "jordan-2d"])
def test_residual_matches_plain_complex_reference(h, keep, radius):
    # the order-8 graphs cut to degree `keep` leave a defect of order
    # radius^(keep + 1), far above the rounding floor, so the two
    # evaluations must agree to a relative 1e-12
    reports = [r for r in enumerate_centers(h, order=8)
               if r.multiplicity != "none" and r.chart is not None]
    assert reports
    for r in reports:
        r = dataclasses.replace(
            r, graphs={k: g.truncate(keep) for k, g in r.graphs.items()})
        got = check_residual_numeric(compile_field(h), r, grid=12, radius=radius)
        want = reference_residual(h, r, 12, radius)
        assert want > 0 and abs(got - want) <= 1e-12 * want, (got, want)


# the RK4 step chosen from the tolerance

def stiff_system(lam):
    """x' = ix + y^2, y' = lam y + x^2: a stiff hyperbolic direction."""
    return HoloSystem(SmallMatrix.diagonal([I, ec(lam)]),
                      [MultiSeries(2, 8, {(0, 2): ec(1)}),
                       MultiSeries(2, 8, {(2, 0): ec(1)})])


@pytest.mark.parametrize("lam", [-50, -500, -2000, -5000])
def test_stiff_hyperbolic_direction_verifies(lam):
    # a fixed step of 1e-3 puts h * lam = -5 outside RK4's stability region
    # at lam = -5000, and a start step of 2e-2 without the 2 / |A| bound does
    # so from lam = -200 on
    h = stiff_system(lam)
    (report,) = [r for r in enumerate_centers(h, order=8)
                 if r.multiplicity != "none"]
    result = check_isochronous(h, report)
    assert result.passed, result
    assert result.step <= 1 / abs(lam)
    assert result.return_error + result.error_estimate <= 1e-6


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_graph_that_ignores_an_obstruction_fails(p):
    # x' = ix, y' = p i y + x^p has no manifold on chart x; the graph y = 0 of
    # the unperturbed system leaves the residual t^p, which decays with slope
    # p where an order-8 graph's decays with slope 9
    linear = SmallMatrix.diagonal([I, ec(0, p)])
    unperturbed = HoloSystem(linear, [MultiSeries.zero(2, 8)] * 2)
    h = HoloSystem(linear, [MultiSeries.zero(2, 8),
                            MultiSeries(2, 8, {(p, 0): ec(1)})])
    (report,) = [r for r in enumerate_centers(unperturbed, order=8)
                 if r.chart == 0]
    result = check_isochronous(h, report)
    assert not result.passed
    assert f"radius^{p}.00" in result.message
    assert result.residual_error == pytest.approx(1e-2 ** p)


def test_halving_that_reaches_the_cap_fails_with_a_message(monkeypatch):
    # chart x of DEMO_3D at radius 0.1: period 2 pi from the step
    # 2 / |A| = 1 in a sweep of 7, 14 and 28 steps, then 56, 112 and 224
    # (441 in all), where E is still falling about 16x per halving; the
    # next halving needs 448 more, past a cap of 500
    monkeypatch.setattr(verify, "MAX_RK4_STEPS", 500)
    reports = {r.chart: r for r in enumerate_centers(DEMO_3D, order=8)}
    result = check_isochronous(DEMO_3D, reports[0], starts=4,
                               radius=0.1, tol=1e-30)
    assert not result.passed
    assert "cap of 500 steps" in result.message
    assert f"error estimate there is {result.error_estimate:.3g}" in result.message
    assert result.step == pytest.approx(2 * math.pi / 224)
    assert 8 <= result.ratio <= 32
    assert math.isfinite(result.return_error) and result.error_estimate > 0


def test_pass_counts_the_error_estimate_against_tol(monkeypatch):
    # the same return error fails once the estimate leaves it no room under
    # tol: a pass never rests on integration error
    halving = verify._halving_runs

    def pessimistic(field, rotation, z0, period, n_steps, tol):
        fine, _, ratio, step, message = halving(field, rotation, z0, period,
                                                n_steps, tol)
        return fine, tol, ratio, step, message

    monkeypatch.setattr(verify, "_halving_runs", pessimistic)
    reports = {r.chart: r for r in enumerate_centers(axis_system(), order=8)}
    result = check_isochronous(axis_system(), reports[1], starts=8,
                               radius=0.1, tol=1e-8)
    assert result.return_error < 1e-8 and not result.passed
    assert result.message == ""


@st.composite
def fast_or_stiff_fields(draw):
    """fields_and_inputs with each diagonal entry shifted by a rotation
    i omega, |omega| <= 200, a hyperbolic lam down to -5000 or nothing, so
    the Lawson step turns with S = i Im(diag A) and RK4 keeps lam."""
    h, shape, points = draw(fields_and_inputs())
    shift = st.one_of(
        st.just(ec(0)),
        st.builds(lambda w, half: ec(0, Fraction(w) + half),
                  st.integers(-200, 200), st.sampled_from([0, Fraction(1, 2)])),
        st.sampled_from([ec(-50), ec(-500), ec(-5000)]))
    rows = [list(row) for row in h.linear.rows]
    for i in range(h.dim):
        rows[i][i] = rows[i][i] + draw(shift)
    return HoloSystem(SmallMatrix(rows), h.nonlinear), shape, points


# x' = -50x, y' = 139i y + y^2 - x^2 from 0.05 (1, (-1 + i)/2) over 1: the
# 70-step run's error is anomalously small, so the (70, 140) pair alone
# gave E = 1.5e-9 against a 140-step error of 5.9e-9
STIFF_FAST_2D = HoloSystem(
    SmallMatrix.diagonal([ec(-50), ec(0, 139)]),
    [MultiSeries.zero(2, 4), MultiSeries(2, 4, {(0, 2): ec(1), (2, 0): ec(-1)})])
# z' = 41i z + (1+i) z^2 + i z^4 from 0.05i over 0.75: the (16, 32) pair
# gave error / E = 3.56, its 16-step error 7.0e-8 not 16 x 1.46e-8
FAST_QUARTIC_1D = HoloSystem(SmallMatrix([[ec(0, 41)]]),
                             [MultiSeries(1, 4, {(2,): ec(1, 1), (4,): I})])


@settings(max_examples=100, deadline=None)
@given(fast_or_stiff_fields(), st.floats(0.25, 1.0),
       st.sampled_from([1e-4, 1e-6, 1e-8]))
@example((stiff_system(-5000), (2,), [[1, 1]]), 1.0, 1e-8)
@example((HoloSystem(SmallMatrix.diagonal([ec(0, 200), ec(-3, 200)]),
                     stiff_system(-5000).nonlinear), (2,), [[1, 1j]]),
         0.25, 1e-8)
@example((STIFF_FAST_2D, (2,), [[1, (-1 + 1j) / 2]]), 1.0, 1e-4)
@example((FAST_QUARTIC_1D, (1,), [[1j]]), 0.75, 1e-4)
def test_richardson_estimate_bounds_the_finer_run(case, period, tol):
    # from the start rule's step, the accepted Lawson run's error, measured
    # against a run at half its step, is at most twice the estimate or at
    # the rounding floor of the steps taken
    h, _, points = case
    z0 = np.array(points, dtype=complex).reshape(-1, h.dim)
    z0 = 0.05 * z0 / max(1.0, float(abs(z0).max()))
    linear = np.array(h.linear.to_complex_array())
    rotation = 1j * linear.diagonal().imag
    norm = float(abs(linear).sum(axis=1).max())
    # runs stop after at most 100 start steps of 2 / |A|_inf, by which time a
    # stiff direction has decayed and a fast one turned up to about 30 times
    period = min(period, 200 / max(norm, 200))
    n_steps = _start_steps(period, norm)
    field = compile_field(_without_rotation(h))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fine, estimate, _, step, _ = _halving_runs(
                field, rotation, z0, period, n_steps, tol)
            finer = _rk4_batch(field, rotation, z0, period, step / 2)
    except IntegrationDiverged:
        return
    error = float(abs(fine - finer).max())
    floor = (64 * sys.float_info.epsilon * max(1.0, float(abs(finer).max()))
             * round(period / step))
    assert error <= 2 * estimate or error <= floor, (error, estimate, floor)


# the first sweep: three levels, or two for a stiff start, in one run

def sweep_matches_single_runs(case, period, levels):
    """The stacked sweep makes the same steps as one run per level."""
    h, _, points = case
    z0 = np.array(points, dtype=complex).reshape(-1, h.dim)
    z0 = 0.05 * z0 / max(1.0, float(abs(z0).max()))
    linear = np.array(h.linear.to_complex_array())
    rotation = 1j * linear.diagonal().imag
    norm = float(abs(linear).sum(axis=1).max())
    period = min(period, 200 / max(norm, 200))
    n_steps = _start_steps(period, norm)
    field = compile_field(_without_rotation(h))
    counts = [n_steps * 2 ** j for j in range(levels)]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            singles = [_rk4_batch(field, rotation, z0, period, period / n)
                       for n in counts]
        except IntegrationDiverged:
            with pytest.raises(IntegrationDiverged):
                _rk4_batch(field, rotation, z0, period, period / n_steps,
                           levels=levels)
            return
        sweep = _rk4_batch(field, rotation, z0, period, period / n_steps,
                           levels=levels)
    assert sweep.shape == (levels,) + z0.shape
    for n, single, swept in zip(counts, singles, sweep):
        scale = max(float(abs(single).max()), float(abs(z0).max()))
        assert (float(abs(swept - single).max())
                <= 64 * sys.float_info.epsilon * n * scale)


@settings(max_examples=100, deadline=None)
@given(fast_or_stiff_fields(), st.floats(0.25, 1.0))
@example((stiff_system(-5000), (2,), [[1, 1]]), 1.0)
def test_pair_matches_two_single_runs(case, period):
    # the two-level sweep of a stiff start: runs at h and h/2
    sweep_matches_single_runs(case, period, 2)


@settings(max_examples=100, deadline=None)
@given(fast_or_stiff_fields(), st.floats(0.25, 1.0))
@example((stiff_system(-5000), (2,), [[1, 1]]), 1.0)
def test_sweep_matches_three_single_runs(case, period):
    # the three-level sweep: runs at h, h/2 and h/4
    sweep_matches_single_runs(case, period, 3)


def counted_axis_field():
    """G of axis_system and the list of the shapes it is called on."""
    calls = []
    field = compile_field(_without_rotation(axis_system()))

    def counted(z):
        calls.append(z.shape)
        return field(z)

    return counted, calls


# rows off the hyperbolic z-axis of axis_system, where G is 0
AXIS_STARTS = np.array([[0.01, 0.01, 0]] * 4, dtype=complex)


def test_first_sweep_makes_sixteen_field_calls_per_coarse_step():
    # three levels from 4 coarse steps: per coarse step the finest rows make
    # four steps, the middle rows join the first and third and the coarse
    # rows the first, so 16 n stacked calls where three runs took
    # 4 n + 8 n + 16 n; an exact rotation accepts the finest run
    counted, calls = counted_axis_field()
    fine, estimate, ratio, step, message = _halving_runs(
        counted, np.array([1j, 3j, 0]), AXIS_STARTS, 2 * math.pi, 4, 1e-6)
    assert message == "" and step == pytest.approx(2 * math.pi / 16)
    assert len(calls) == 16 * 4
    assert calls == ([(3, 4, 3)] * 4 + [(1, 4, 3)] * 4 + [(2, 4, 3)] * 4
                     + [(1, 4, 3)] * 4) * 4


def test_first_pair_makes_eight_field_calls_per_coarse_step(monkeypatch):
    # a start whose three levels (7 n = 112 steps) would pass the cap sweeps
    # two: 4 n stacked calls plus 4 n on the fine rows alone, where two runs
    # took 4 n + 8 n; an exact rotation accepts the pair at the rounding
    # level, with no third run for the ratio
    monkeypatch.setattr(verify, "MAX_RK4_STEPS", 100)
    counted, calls = counted_axis_field()
    fine, estimate, ratio, step, message = _halving_runs(
        counted, np.array([1j, 3j, 0]), AXIS_STARTS, 2 * math.pi, 16, 1e-6)
    assert message == "" and step == pytest.approx(2 * math.pi / 32)
    assert math.isnan(ratio)
    assert len(calls) == 8 * 16
    assert calls == ([(2, 4, 3)] * 4 + [(1, 4, 3)] * 4) * 16


def test_pair_divergence_in_the_coarse_half_raises():
    # z' = -z: the coarse step 3.5 lies outside RK4's stability region, so
    # the coarse rows grow 2.73x per step, while the finer steps 1.75 and
    # 0.875 decay; a sweep of two or three levels raises alike
    def field(z):
        return -z

    z0 = np.ones((2, 1), dtype=complex)
    _rk4_batch(field, 0.0, z0, 35.0, 1.75)
    _rk4_batch(field, 0.0, z0, 35.0, 0.875)
    for levels in (2, 3):
        with pytest.raises(IntegrationDiverged,
                           match=r"exceeded .* at t = 24\.5$"):
            _rk4_batch(field, 0.0, z0, 35.0, 3.5, levels=levels)


def test_pair_nan_in_the_fine_half_raises():
    # z' = -z, NaN below |z| = 0.05: the rows at 1.75 reach 0.035 at the
    # second stage of their second step, the rows at 0.875 fall below 0.05
    # before t = 3.5 too, and the coarse rows' stages stay above 0.75
    def field(z):
        return np.where(abs(z) < 0.05, math.nan, -z)

    z0 = np.ones((2, 1), dtype=complex)
    _rk4_batch(field, 0.0, z0, 10.5, 3.5)
    for levels in (2, 3):
        with pytest.raises(IntegrationDiverged,
                           match=r"not finite at t = 3\.5$"):
            _rk4_batch(field, 0.0, z0, 10.5, 3.5, levels=levels)


@pytest.mark.parametrize("levels, level",
                         [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_sweep_nan_in_any_level_raises(levels, level):
    # z' = -z with NaN in the rows of one level only: a call steps the m
    # finest levels, levels - m to levels - 1, stacked on its first axis
    def field(z):
        out = -z
        joined = levels - z.shape[0]
        if level >= joined:
            out[level - joined] = math.nan
        return out

    z0 = np.ones((2, 1), dtype=complex)
    with pytest.raises(IntegrationDiverged, match=r"not finite at t = 0\.5$"):
        _rk4_batch(field, 0.0, z0, 1.5, 0.5, levels=levels)


# the give-up radius of the starts and the acceptance level of the estimate

def test_starts_move_inward_until_a_steep_graph_fits():
    # y = 1e5 t^2 leaves |z| <= 1e-2 until |t| <= about 3.2e-4: halving t
    # from the radius fits every start at |t| = 1e-2 / 32, since only
    # |t| < 1e-12 gives up, so a steep graph is still sampled
    h = stiff_system(-50)
    (report,) = [r for r in enumerate_centers(h, order=8) if r.chart == 0]
    report = dataclasses.replace(
        report, graphs={1: MultiSeries(1, 8, {(2,): ec(10**5)})})
    z = verify._manifold_starts(h, report, 8, 1e-2)
    assert z is not None
    assert np.all(np.linalg.norm(z, axis=1) <= 1e-2)
    assert np.allclose(abs(z[:, 0]), 1e-2 / 32)


def test_halving_goes_on_until_the_estimate_is_a_hundredth_of_tol():
    # chart x of DEMO_3D at radius 0.1, period 2 pi from the start step
    # 2 / |A| = 1 in a sweep of 7, 14 and 28 steps: with tol at 20 times the
    # sweep's estimate E, E is above tol / 100, so the accepted run takes at
    # least one halving and its E at most tol / 100
    (report,) = [r for r in enumerate_centers(DEMO_3D, order=8) if r.chart == 0]
    z0 = verify._manifold_starts(DEMO_3D, report, 4, 0.1)
    field = compile_field(_without_rotation(DEMO_3D))
    rotation = np.array([1j, 2j, 0])
    period = 2 * math.pi
    assert _start_steps(period, 2.0) == 7
    _, first, ratio, step, _ = _halving_runs(field, rotation, z0, period, 7,
                                             math.inf)
    assert step == pytest.approx(period / 28) and first > 0
    assert 8 <= ratio <= 32
    tol = 20 * first
    _, estimate, ratio, step, message = _halving_runs(field, rotation, z0,
                                                      period, 7, tol)
    assert message == "" and step < period / 28
    assert estimate <= tol / 100 and 8 <= ratio <= 32


def test_halving_goes_on_while_the_estimate_is_above_64_eps():
    # z' = 0.015 i z as classical RK4 from max|z0| = 1 over 2 pi: the first
    # sweep's estimate E is about 4,258 eps, above the rounding level
    # ESTIMATE_FLOOR = 64 eps, and still falls 16x per halving, so with a tol
    # far below E the accepted run is the first at the rounding level, two
    # halvings past the sweep's finest run of 16 steps
    def field(z):
        return 0.015j * z

    z0 = np.ones((1, 1), dtype=complex)
    period, eps = 2 * math.pi, sys.float_info.epsilon
    _, first, ratio, _, _ = _halving_runs(field, 0.0, z0, period, 4, math.inf)
    assert first == pytest.approx(4258 * eps, rel=1e-3)
    assert ratio == pytest.approx(16, rel=1e-3)
    _, estimate, _, step, message = _halving_runs(field, 0.0, z0, period, 4,
                                                  1e-30)
    assert message == "" and step == pytest.approx(period / 64)
    assert estimate <= verify.ESTIMATE_FLOOR < first / 4


def prescribed_runs(ends):
    """An _rk4_batch stand-in: the run in n steps ends at ends[n] on every
    row; it records each run's step count."""
    made = []

    def rk4(field, rotation, states, t_final, step, levels=1):
        n = round(t_final / step)
        made.extend(n * 2 ** j for j in range(levels))
        out = np.array([np.full(np.shape(states), ends[n * 2 ** j],
                                dtype=complex) for j in range(levels)])
        return out if levels > 1 else out[0]

    return rk4, made


@pytest.mark.parametrize("ratio", [2, 5, 8, 16, 32, 40])
def test_an_estimate_under_tol_halves_while_the_ratio_is_outside_8_to_32(
        monkeypatch, ratio):
    # runs in 4, 8 and 16 steps whose gaps are ratio d and d, d = 2^-20, so
    # E = d / 15 <= tol / 100 from the first sweep on; the 32-step run's gap
    # is d / 16.  Only a ratio in [8, 32] accepts the sweep's finest run;
    # outside it, whether E fell too little (2, 5) or too much (40), the
    # step halves and the next triple, at ratio 16, accepts
    d = 2.0 ** -20
    rk4, made = prescribed_runs({4: (1 + ratio) * d, 8: d, 16: 0.0,
                                 32: -d / 16})
    monkeypatch.setattr(verify, "_rk4_batch", rk4)
    tol = 1e-3
    _, estimate, accepted, step, message = _halving_runs(
        None, 0.0, np.ones((1, 1), dtype=complex), 1.0, 4, tol)
    assert message == ""
    if 8 <= ratio <= 32:
        assert made == [4, 8, 16] and step == 1 / 16
        assert (estimate, accepted) == (d / 15, ratio)
    else:
        assert made == [4, 8, 16, 32] and step == 1 / 32
        assert (estimate, accepted) == (d / 16 / 15, 16)
    assert estimate <= tol / 100
