from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcenter.briot_bouquet import BBSystem, reduction_step
from bbcenter.errors import BlockedStep, DimensionMismatch, NotDivisible
from bbcenter.series import EC_I, ExactComplex, MultiSeries
from bbcenter.spectra import SmallMatrix


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def x_var(order=6, nvars=1):
    return MultiSeries.variable(nvars, order, 0)


# ---------------------------------------------------------------------------
# ExactComplex

def test_exact_complex_basics():
    a = ec(Fraction(1, 2), 3)
    b = ec(2, Fraction(-1, 3))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert (-a) + a == ExactComplex(0)
    assert EC_I * EC_I == ExactComplex(-1)
    assert ec(3).as_integer() == 3
    assert ec(Fraction(1, 2)).as_integer() is None
    assert ec(0, 2).is_purely_imaginary()
    assert not ec(0, 0).is_purely_imaginary()


def test_exact_complex_rejects_floats():
    z = ExactComplex(1, 1)
    for make in (lambda: ExactComplex(0.5), lambda: ExactComplex(0, 0.5),
                 lambda: ExactComplex.coerce(0.5), lambda: z + 0.5,
                 lambda: 0.5 + z, lambda: z - 0.5, lambda: 0.5 - z,
                 lambda: z * 0.5, lambda: 0.5 * z, lambda: z / 0.5,
                 lambda: 0.5 / z):
        with pytest.raises(TypeError):
            make()


def test_exact_complex_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ec(1) / ec(0)


def test_exact_complex_str():
    assert str(ec(0)) == "0"
    assert str(EC_I) == "i"
    assert str(ec(0, -1)) == "-i"
    assert str(ec(Fraction(1, 2), -3)) == "1/2-3i"


# ---------------------------------------------------------------------------
# ExactComplex against a reference built from plain Fraction pairs

big_rational = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6)))
mixed_operand = st.one_of(st.integers(-10**30, 10**30), big_rational)


def ref_div(x, y):
    (xr, xi), (yr, yi) = x, y
    n = yr * yr + yi * yi
    if n == 0:
        raise ZeroDivisionError
    return (xr * yr + xi * yi) / n, (xi * yr - xr * yi) / n


REF_OPS = {
    "+": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "-": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "*": lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    "/": ref_div,
}
EC_OPS = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
          "*": lambda u, v: u * v, "/": lambda u, v: u / v}


def ref_str(x, y):
    if y == 0:
        return str(x)
    im = "i" if y == 1 else "-i" if y == -1 else f"{y}i"
    if x == 0:
        return im
    return f"{x}{'+' if y > 0 else ''}{im}"


def parts(z):
    assert type(z) is ExactComplex
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


def check_op(op, u, v, x, y):
    try:
        expected = REF_OPS[op](x, y)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            EC_OPS[op](u, v)
        return
    assert parts(EC_OPS[op](u, v)) == expected


@settings(max_examples=200, deadline=None)
@given(big_rational, big_rational, big_rational, big_rational, mixed_operand)
def test_exact_complex_matches_fraction_pairs(xr, xi, yr, yi, k):
    x, y = (xr, xi), (yr, yi)
    u, v = ExactComplex(xr, xi), ExactComplex(yr, yi)
    assert parts(u) == x
    for op in REF_OPS:
        check_op(op, u, v, x, y)
        # an int or a Fraction on either side
        check_op(op, u, k, x, (Fraction(k), Fraction(0)))
        check_op(op, k, u, (Fraction(k), Fraction(0)), x)
    assert parts(-u) == (-xr, -xi)
    integer = u.as_integer()
    if xi == 0 and xr.denominator == 1:
        assert integer == xr and type(integer) is int
    else:
        assert integer is None
    assert u.is_zero() == (xr == 0 and xi == 0)
    assert u.is_purely_imaginary() == (xr == 0 and xi != 0)
    assert u.to_complex() == complex(xr) + 1j * complex(xi)
    assert (u == v) == (x == y)
    assert (u == k) == (x == (k, 0)) == (k == u)
    assert (u == xr) == (xi == 0)
    assert str(u) == ref_str(xr, xi)
    assert repr(u) == f"ExactComplex({xr!r}, {xi!r})"
    # a real value hashes as the Fraction it equals
    assert hash(u) == (hash(xr) if xi == 0 else hash(x))


@settings(max_examples=100, deadline=None)
@given(big_rational, big_rational, big_rational, big_rational)
def test_exact_complex_normalises(xr, xi, yr, yi):
    u = ExactComplex(xr, xi)
    built = [ExactComplex(xr) + ExactComplex(0, 1) * xi,
             xi * EC_I + xr,
             ExactComplex(xr, 0) - ExactComplex(0, -xi),
             -(-u)]
    w = ExactComplex(yr, yi)
    if not w.is_zero():
        built += [(u * w) / w, (u / w) * w, (u + w) - w]
    for z in built:
        assert z == u and hash(z) == hash(u) == (
            hash(xr) if xi == 0 else hash((xr, xi)))
        assert str(z) == str(u) and repr(z) == repr(u)


def test_exact_complex_normalisation_examples():
    half = ExactComplex(Fraction(1, 2))
    for z in (ExactComplex(Fraction(2, 4), 0), ExactComplex("1/2"),
              ExactComplex(Fraction(3, 2)) - 1, EC_I * EC_I / -2):
        assert z == half == Fraction(1, 2) and hash(z) == hash(half)
    assert ExactComplex(Fraction(6, 4), Fraction(-3, 9)) == ExactComplex(
        Fraction(3, 2), Fraction(-1, 3))
    assert ExactComplex(Fraction(4, 2)).as_integer() == 2
    assert hash(ExactComplex(4, -2)) == hash((4, -2))
    assert 1 / ExactComplex(0, 2) == ExactComplex(0, Fraction(-1, 2))
    assert 2 - ExactComplex(1, 1) == ExactComplex(1, -1)


def test_exact_complex_hashes_as_the_number_it_equals():
    assert hash(ExactComplex(3)) == hash(3)
    assert hash(ExactComplex(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({3, ExactComplex(3)}) == 1
    assert len({Fraction(-7, 3), ExactComplex(Fraction(-14, 6))}) == 1


def test_exact_complex_to_complex_overflows_beyond_double_range():
    for z in (ExactComplex(10**400), ExactComplex(0, -10**400),
              ExactComplex(Fraction(10**400, 3), 1)):
        with pytest.raises(OverflowError):
            z.to_complex()
    assert ExactComplex(Fraction(1, 10**400), 10**300).to_complex() \
        == complex(0.0, 1e300)


# ---------------------------------------------------------------------------
# arithmetic examples

def test_monomial_product():
    x = x_var(order=2)
    assert x * x == MultiSeries.monomial(1, 2, (2,), 1)


def test_polynomial_expansion_truncates():
    x = x_var(order=2)
    one = MultiSeries.constant(1, 2, 1)
    prod = (one + x) * (one - x)
    assert prod == MultiSeries(1, 2, {(0,): 1, (2,): ec(-1)})


def test_i_squared_in_series():
    x = x_var(order=4)
    ix = x * EC_I
    assert ix * ix == MultiSeries.monomial(1, 4, (2,), ec(-1))


def test_mul_order_is_min():
    a = MultiSeries.variable(1, 5, 0)
    b = MultiSeries.variable(1, 3, 0)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_nvars_mismatch():
    a = MultiSeries.variable(1, 5, 0)
    b = MultiSeries.variable(2, 5, 0)
    with pytest.raises(DimensionMismatch):
        a * b


# ---------------------------------------------------------------------------
# shear substitution

def test_shear_example_from_reduction():
    # u with shift -1 (the value p/(1-q) for p=1, q=2) becomes x*u - x
    s = MultiSeries.variable(2, 4, 1)
    out = s.shear_substitute(1, ec(-1))
    assert out == MultiSeries(2, 4, {(1, 1): 1, (1, 0): ec(-1)})


def test_shear_square():
    s = MultiSeries.monomial(2, 4, (0, 2), 1)
    out = s.shear_substitute(1, ec(-1))
    assert out == MultiSeries(2, 4, {(2, 2): 1, (2, 1): ec(-2), (2, 0): 1})


def test_shear_untouched_terms():
    s = MultiSeries.variable(2, 4, 0)
    assert s.shear_substitute(1, ec(5)) == s


def test_shear_index_errors():
    s = MultiSeries.variable(2, 4, 1)
    with pytest.raises(IndexError):
        s.shear_substitute(0, ec(1))
    with pytest.raises(IndexError):
        s.shear_substitute(2, ec(1))


# ---------------------------------------------------------------------------
# divide_by_x

def test_divide_by_x():
    s = MultiSeries(2, 3, {(2, 0): 1, (1, 1): 1})
    out = s.divide_by_x()
    assert out == MultiSeries(2, 2, {(1, 0): 1, (0, 1): 1})
    assert out.order == 2


def test_divide_by_x_monomial():
    s = MultiSeries.monomial(2, 5, (3, 2), 1)
    assert s.divide_by_x() == MultiSeries.monomial(2, 4, (2, 2), 1)


def test_divide_by_x_rejects():
    s = MultiSeries.variable(2, 3, 1)
    with pytest.raises(NotDivisible):
        s.divide_by_x()


# ---------------------------------------------------------------------------
# numeric evaluation

def test_eval_square():
    s = MultiSeries.monomial(1, 2, (2,), 1)
    assert s.eval_numeric([0.5]) == pytest.approx(0.25)


def test_eval_constant_plus_x():
    s = MultiSeries(1, 2, {(0,): 1, (1,): 1})
    assert s.eval_numeric([0.0]) == pytest.approx(1.0)


def test_eval_imaginary():
    s = MultiSeries.monomial(1, 2, (1,), EC_I)
    assert s.eval_numeric([1.0]) == pytest.approx(1j)


def test_eval_dimension_check():
    s = MultiSeries.variable(2, 2, 0)
    with pytest.raises(DimensionMismatch):
        s.eval_numeric([1.0])


# ---------------------------------------------------------------------------
# property tests

small_rational = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)


@st.composite
def exact_complex(draw):
    return ExactComplex(draw(small_rational), draw(small_rational))


@st.composite
def multiseries(draw, nvars=2, order=8, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(exps) > order:
            continue
        terms[exps] = draw(exact_complex())
    return MultiSeries(nvars, order, terms)


@settings(max_examples=60, deadline=None)
@given(multiseries(), multiseries(), multiseries())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(multiseries())
def test_shear_zero_shift_moves_degrees(s):
    out = s.shear_substitute(1, ExactComplex(0))
    for exps, coeff in s.terms.items():
        new = (exps[0] + exps[1], exps[1])
        if sum(new) <= s.order:
            assert out.coeff(new) == coeff


def binomial_shear(s, j, shift):
    """y_j -> x (y_j + shift) by expanding each power of y_j binomially: the
    reference that ``shear_substitute`` must agree with."""
    out = {}
    for exps, coeff in s.terms.items():
        aj = exps[j]
        for m in range(aj + 1):
            new = (exps[0] + aj,) + exps[1:j] + (m,) + exps[j + 1:]
            if sum(new) <= s.order:
                c = coeff * comb(aj, m)
                for _ in range(aj - m):
                    c = c * shift
                out[new] = out.get(new, ExactComplex(0)) + c
    return MultiSeries(s.nvars, s.order, out)


@st.composite
def sparse_series(draw, nvars, min_degree=0, orders=st.integers(0, 6)):
    """A series of an order from ``orders`` with up to five terms of degree
    at least ``min_degree``."""
    order = draw(orders)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, order)) for _ in range(nvars))
        if min_degree <= sum(exps) <= order:
            terms[exps] = draw(exact_complex())
    return MultiSeries(nvars, order, terms)


shifts = st.one_of(st.just(ExactComplex(0)), exact_complex())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shear_matches_binomial_expansion(data):
    nvars = data.draw(st.integers(2, 4))
    s = data.draw(sparse_series(nvars))
    j = data.draw(st.integers(1, nvars - 1))
    shift = data.draw(shifts)
    assert s.shear_substitute(j, shift) == binomial_shear(s, j, shift)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reduction_step_equals_sequential_shears(data):
    # the rows may differ in order; a term of degree >= 2 keeps a power of x
    # after the shears and the division, so no linear y term can appear
    n = data.draw(st.integers(1, 3))
    entry = st.integers(-2, 3).map(ExactComplex)
    A = SmallMatrix([[data.draw(entry) for _ in range(n)] for _ in range(n)])
    px = [data.draw(shifts) for _ in range(n)]
    rows = [data.draw(sparse_series(n + 1, 2, st.integers(2, 6))) for _ in range(n)]
    bb = BBSystem(A, px, rows)
    try:
        step = reduction_step(bb)
    except BlockedStep:
        return
    want_px, want_rows = [], []
    for g in rows:
        for j, shift in enumerate(step.shifts, 1):
            g = binomial_shear(g, j, shift)
        g = g.divide_by_x()
        assert not any(sum(e) == 1 and e[0] == 0 for e in g.terms)
        want_px.append(g.coeff((1,) + (0,) * n))
        want_rows.append(MultiSeries(n + 1, g.order, {
            e: c for e, c in g.terms.items() if sum(e) >= 2}))
    assert step.system.px == tuple(want_px)
    assert step.system.nonlinear == tuple(want_rows)
    assert step.system.A == A.shift(1)


@settings(max_examples=40, deadline=None)
@given(multiseries(nvars=2, order=7))
def test_divide_after_multiply_roundtrip(s):
    x = MultiSeries.variable(2, s.order + 1, 0)
    prod = x * s.with_order(s.order + 1)
    assert prod.divide_by_x() == s


@settings(max_examples=40, deadline=None)
@given(multiseries(nvars=2, order=6), st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
       st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3))
def test_eval_matches_exact_evaluation(s, p0, p1):
    def exact_at(a, b):
        exact = ExactComplex(0)
        for exps, coeff in s.terms.items():
            exact = exact + coeff * ExactComplex(a ** exps[0] * b ** exps[1])
        return exact.to_complex()

    # exact evaluation at a rational point
    approx = s.eval_numeric([float(p0), float(p1)])
    reference = exact_at(p0, p1)
    assert abs(approx - reference) <= 1e-12 * max(1.0, abs(reference))
    # the same point and two of its images as numpy arrays, elementwise
    points = [(p0, p1), (p1, p0), (-p0, p1)]
    arrays = [np.array([float(p[j]) for p in points]) for j in (0, 1)]
    values = s.eval_numeric(arrays)
    for (a, b), value in zip(points, np.broadcast_to(values, (3,))):
        reference = exact_at(a, b)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_substitute_chart_style():
    # f(x, y) = x*y substituted with x -> t*u, y -> t gives t^2*u
    f = MultiSeries.monomial(2, 6, (1, 1), 1)
    t = MultiSeries.variable(2, 6, 0)
    u = MultiSeries.variable(2, 6, 1)
    image = f.substitute([t * u, t])
    assert image == MultiSeries.monomial(2, 6, (2, 1), 1)


def test_substitute_rejects_constant():
    f = MultiSeries.variable(1, 4, 0)
    c = MultiSeries.constant(1, 4, 1)
    with pytest.raises(ValueError):
        f.substitute([c])


def test_reciprocal():
    # 1/(2 + x) = 1/2 - x/4 + x^2/8 - ...
    s = MultiSeries(1, 4, {(0,): 2, (1,): 1})
    inv = s.reciprocal()
    prod = s * inv
    assert prod == MultiSeries.constant(1, 4, 1)
    assert inv.coeff((1,)) == ec(Fraction(-1, 4))


def test_euler_derivative():
    s = MultiSeries(1, 4, {(1,): 1, (3,): 2})
    assert s.euler_derivative() == MultiSeries(1, 4, {(1,): 1, (3,): 6})
