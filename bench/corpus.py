"""Seeded document corpora for the three benchmark workloads.

Every document is built from the seed and its place in the round, as the
JSON text the CLI reads, together with what its construction guarantees
about the answer (exit code, eigenvalue pattern, per-chart multiplicity or
Briot-Bouquet verdict).  The
seed draws the coefficients; the shape of a round (subcommands, orders,
patterns, which monomials appear) is fixed, so that rounds from different
seeds cost about the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

WORKLOADS = ("dense-series", "resonant-mix", "verify-rk4")

ZERO = (Fraction(0), Fraction(0))


@dataclass(frozen=True)
class Doc:
    """One document of a round: ``argv`` goes to ``bbcenter.cli.main`` with
    the text on standard input; ``expect`` holds what its construction fixes."""

    doc_id: str
    command: str
    order: int
    text: str
    expect: dict

    @property
    def argv(self):
        return [self.command, "--order", str(self.order), "-"]


def _imag(w):
    return (Fraction(0), Fraction(w))


def _real(r):
    return (Fraction(r), Fraction(0))


def _number(value):
    re, im = value
    return [[re.numerator, re.denominator], [im.numerator, im.denominator]]


def _monomial(value, exps):
    return {"coefficient": _number(value), "exponents": list(exps)}


def _document(names, linear_rows, nonlinear_rows):
    """``linear_rows[i][j]`` multiplies variable j in equation i;
    ``nonlinear_rows[i]`` maps exponent tuples to values."""
    nvars = len(names)
    equations = []
    for i in range(len(nonlinear_rows)):
        monos = []
        for j in range(nvars):
            if linear_rows[i][j] != ZERO:
                unit = tuple(1 if k == j else 0 for k in range(nvars))
                monos.append(_monomial(linear_rows[i][j], unit))
        for exps in sorted(nonlinear_rows[i], key=lambda e: (sum(e), e)):
            monos.append(_monomial(nonlinear_rows[i][exps], exps))
        equations.append(monos)
    return json.dumps({"variables": list(names), "equations": equations})


def _diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def _small_rational(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))


def _monomials(nvars, low, high):
    return [e for e in product(range(high + 1), repeat=nvars)
            if low <= sum(e) <= high]


def _sparse_quadratic(shape, rng, nvars, count):
    """``count`` quadratic monomials chosen by ``shape`` with values from
    ``rng``."""
    terms = shape.sample(_monomials(nvars, 2, 2), count)
    return {e: _real(_small_rational(rng)) for e in terms}


def _shape(workload, slot):
    """The generator of a document's structure (monomials, scalings): it
    depends on the document's place in the round, not on the seed, so the
    cost of a round varies little from seed to seed."""
    return random.Random(f"{workload}/shape/{slot}")


# ---------------------------------------------------------------------------
# dense-series: every cubic monomial, exact layers only

def _jordan2():
    rows = _diag(_imag(1), _imag(1), _imag(Fraction(5, 2)))
    rows[0][1] = _real(1)
    return rows


# (label, linear part, pattern, chart -> multiplicity)
DENSE_PATTERNS = {
    "three-imaginary": (
        _diag(_imag(1), _imag(Fraction(3, 2)), _imag(Fraction(-5, 3))),
        "three-imaginary-distinct",
        {"x": "unique", "y": "unique", "z": "unique"}),
    "imaginary-hyperbolic": (
        _diag(_imag(1), _real(-1), _real(Fraction(1, 2))),
        "one-imaginary",
        {"x": "unique"}),
    "jordan-2": (
        _jordan2(),
        "three-imaginary-jordan-2",
        {"x": "unique", "y": "none", "z": "unique"}),
}

# One round: (pattern, order), orders spread over 12-20 with the cheapest
# pattern carrying the high orders, about twenty seconds in all.  The round
# is built from groups of documents that cost about the same: six one-chart
# documents at order 12, three Jordan-2 documents (which hold the median),
# four three-imaginary documents (which hold the tail percentile) and the
# two high orders.  A metric that falls inside a group stays steady from
# seed to seed.
DENSE_SCHEDULE = (
    (("imaginary-hyperbolic", 12),) * 6 + (("jordan-2", 12),) * 3
    + (("three-imaginary", 12),) * 4
    + (("imaginary-hyperbolic", 16), ("imaginary-hyperbolic", 20))
)


def dense_document(rng, label):
    linear, pattern, charts = DENSE_PATTERNS[label]
    nonlinear = [{e: _real(_small_rational(rng)) for e in _monomials(3, 2, 3)}
                 for _ in range(3)]
    text = _document("xyz", linear, nonlinear)
    return text, {"exit": 0, "pattern": pattern, "charts": charts}


def dense_series(seed):
    rng = random.Random(f"dense-series/{seed}")
    docs = []
    for n, (label, order) in enumerate(DENSE_SCHEDULE):
        text, expect = dense_document(rng, label)
        docs.append(Doc(f"dense-{n:02d}-{label}-o{order}", "series", order,
                        text, expect))
    return docs


# ---------------------------------------------------------------------------
# resonant-mix: many small classify / bb documents, fixed cost per document

# integer eigenvalue ratios (resonant charts) and Jordan couplings
RESONANT_SYSTEMS = (
    ("three-imaginary-distinct", (1, 2, 3), None),
    ("two-imaginary-distinct", (1, 2, None), None),
    ("three-imaginary-two-equal", (1, 1, 2), None),
    ("three-imaginary-jordan-2", (1, 1, 2), (0, 1)),
    ("two-imaginary-distinct", (1, 3), None),
    ("two-imaginary-jordan", (1, 1), (0, 1)),
)


def _resonant_linear(weights, coupling, shape):
    scale = shape.choice((1, 2, Fraction(1, 2)))
    entries = [_imag(w * scale) if w is not None else _real(-1) for w in weights]
    rows = _diag(*entries)
    if coupling is not None:
        rows[coupling[0]][coupling[1]] = _real(1)
    return rows


def resonant_classify_document(shape, rng, variant):
    pattern, weights, coupling = RESONANT_SYSTEMS[variant]
    dim = len(weights)
    linear = _resonant_linear(weights, coupling, shape)
    nonlinear = [_sparse_quadratic(shape, rng, dim, 2) for _ in range(dim)]
    return _document("xyz"[:dim], linear, nonlinear), {"exit": 0, "pattern": pattern}


def _diag_matrix(values):
    n = len(values)
    return [[Fraction(values[i] if i == j else 0) for j in range(n)] for i in range(n)]


def _elementary(dim, i, j, a):
    m = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    m[i][j] = Fraction(a)
    return m


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _conjugator(rng, dim):
    """An integer matrix of determinant 1 and its integer inverse, as a
    product of elementary row operations."""
    ops = [(0, 1, rng.choice((-2, -1, 1, 2))), (1, 0, rng.choice((-1, 1)))]
    if dim == 3:
        ops.append((1, 2, rng.choice((-1, 1))))
    p = inv = _elementary(dim, 0, 0, 1)
    for i, j, a in ops:
        p = _matmul(p, _elementary(dim, i, j, a))
        inv = _matmul(_elementary(dim, i, j, -a), inv)
    return p, inv


def non_triangular_document(shape, rng, imaginary):
    """A conjugated diagonal system: its linear part is not triangular, so the
    spectrum comes from factoring the characteristic polynomial.  Purely
    imaginary eigenvalues end in exit 3 (not normalized); real ones in an
    empty report."""
    dim = shape.choice((2, 3))
    if imaginary:
        w = shape.randint(1, 3)
        values = [(0, w), (0, -w), (shape.choice((-1, 2)), 0)][:dim]
    else:
        values = shape.sample([(1, 0), (-2, 0), (3, 0), (-1, 0)], dim)
    p, inv = _conjugator(rng, dim)
    re, im = (_matmul(_matmul(p, _diag_matrix([v[part] for v in values])), inv)
              for part in (0, 1))
    linear = [[(re[i][j], im[i][j]) for j in range(dim)] for i in range(dim)]
    nonlinear = [_sparse_quadratic(shape, rng, dim, 1) for _ in range(dim)]
    text = _document("xyz"[:dim], linear, nonlinear)
    if imaginary:
        return text, {"exit": 3}
    return text, {"exit": 0, "empty": True}


KIND_BY_TOGGLE = {True: "family", False: "no_solution"}


def _power_series_product(a, b, upto):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb <= upto:
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return out


def _term_coefficient(k, exps, sols):
    """The x^k coefficient of x^e0 * y1^e1 * ... along ``sols``."""
    acc = {exps[0]: Fraction(1)}
    for sol, e in zip(sols, exps[1:]):
        for _ in range(e):
            acc = _power_series_product(acc, sol, k)
    return acc.get(k, 0)


def _resonance_rhs(eigenvalues, px, nonlinear, k, i):
    """Right-hand side of row i at order k of the undetermined-coefficients
    recursion (k - a_i) y_i[k] = [x^k](p_i x + f_i), for diagonal A and real
    coefficients, with every free coefficient below k set to 0 as
    ``tests/bb_oracle.py`` sets it.  Plain ``Fraction`` arithmetic, so the
    corpus does not depend on the package's scalars."""
    sols = [{} for _ in eigenvalues]
    for order in range(1, k + 1):
        rhs = [(px[r][0] if order == 1 else 0)
               + sum(c[0] * _term_coefficient(order, e, sols)
                     for e, c in nonlinear[r].items())
               for r in range(len(eigenvalues))]
        if order == k:
            return rhs[i]
        for r, a in enumerate(eigenvalues):
            if order != a:
                sols[r][order] = rhs[r] / (order - a)


def bb_document(shape, rng, eigenvalues, toggles):
    """x y' = p x + A y + f(x, y) with diagonal A and real coefficients.

    For every positive integer eigenvalue k (row i) the pure x^k term of row
    i is set so that the obstruction at order k vanishes (toggle True) or
    does not (toggle False).  Rows are toggled in order of their resonance;
    the verdict follows from the toggles.
    """
    n = len(eigenvalues)
    A = _diag(*[_real(v) for v in eigenvalues])
    px = [_real(_small_rational(rng)) for _ in range(n)]
    nonlinear = [_sparse_quadratic(shape, rng, n + 1, 2) for _ in range(n)]
    for row in nonlinear:
        for exps in list(row):
            if sum(exps[1:]) == 0:
                del row[exps]  # pure x powers are the toggles' to set

    resonant = sorted((k, i) for i, k in enumerate(eigenvalues)
                      if Fraction(k).denominator == 1 and k > 0)
    kind = "unique"
    for (k, i), vanish in zip(resonant, toggles):
        value = -_resonance_rhs(eigenvalues, px, nonlinear, k, i)
        if not vanish:
            value += _small_rational(rng)
        if k == 1:
            px[i] = _real(px[i][0] + value)
        else:
            nonlinear[i][(k,) + (0,) * n] = _real(value)
        kind = KIND_BY_TOGGLE[vanish]
        if not vanish:
            break
    linear = [[px[i]] + A[i] for i in range(n)]
    text = _document(["x"] + [f"u{i + 1}" for i in range(n)], linear, nonlinear)
    return text, {"exit": 0, "kind": kind}


# (eigenvalues, toggles): integer eigenvalues 1-3 with their obstructions
# switched on or off, and non-integer spectra for the unique verdict
BB_VARIANTS = (
    ((1,), (True,)), ((1,), (False,)),
    ((2,), (True,)), ((2,), (False,)),
    ((3,), (True,)), ((3,), (False,)),
    ((1, Fraction(-1, 2)), (True,)), ((2, -1), (False,)),
    ((1, 2), (True, True)), ((1, 3), (True, False)),
    ((Fraction(1, 2),), ()), ((-1, Fraction(3, 2)), ()),
)

RESONANT_ORDERS = (8, 9, 10, 11, 12)


def resonant_mix(seed):
    """One round: 72 resonant classify, 96 bb and 72 non-triangular
    documents.  The cheap non-triangular documents balance the costly
    classify ones, so the median falls in the middle of the bb documents and
    the tail among the classify documents; a round this large averages out
    seed-to-seed differences between documents."""
    rng = random.Random(f"resonant-mix/{seed}")
    plan = [("classify", resonant_classify_document, (variant,))
            for variant in range(len(RESONANT_SYSTEMS)) for _ in range(12)]
    plan += [("bb", bb_document, variant) for variant in BB_VARIANTS for _ in range(8)]
    plan += [("classify", non_triangular_document, (imaginary,))
             for imaginary in (True, False) * 36]
    docs = []
    for n, (command, make, args) in enumerate(plan):
        text, expect = make(_shape("resonant-mix", n), rng, *args)
        docs.append(Doc(f"mix-{n:03d}-{command}", command,
                        RESONANT_ORDERS[n % len(RESONANT_ORDERS)], text, expect))
    return docs


# ---------------------------------------------------------------------------
# verify-rk4: order-8 quadratic systems whose numeric check dominates

VERIFY_SYSTEMS = (
    # (label, weights: imaginary parts, or None for a hyperbolic eigenvalue,
    #  pattern)
    ("poincare-2d", (1, 1), "poincare"),
    ("poincare-3d", (1, 1, 1), "poincare"),
    ("one-imaginary", (1, None), "one-imaginary"),
    ("one-imaginary-3d", (1, None, None), "one-imaginary"),
    ("two-imaginary", (1, Fraction(-3, 2)), "two-imaginary-distinct"),
)

# |omega| of the chart eigenvalue; the period 2*pi/|omega| sets the RK4 steps
VERIFY_OMEGAS = (Fraction(3, 2), 2, Fraction(5, 2))


def verify_document(shape, rng, weights, pattern, omega):
    dim = len(weights)
    sign = rng.choice((1, -1))
    entries = []
    for n, w in enumerate(weights):
        if w is None:
            entries.append(_real(-1 if n % 2 else Fraction(1, 2)))
        else:
            entries.append(_imag(sign * w * omega))
    nonlinear = [_sparse_quadratic(shape, rng, dim, 2) for _ in range(dim)]
    text = _document("xyz"[:dim], _diag(*entries), nonlinear)
    return text, {"exit": 0, "pattern": pattern}


def verify_rk4(seed):
    rng = random.Random(f"verify-rk4/{seed}")
    docs = []
    for n in range(2 * len(VERIFY_SYSTEMS)):
        label, weights, pattern = VERIFY_SYSTEMS[n % len(VERIFY_SYSTEMS)]
        omega = VERIFY_OMEGAS[n % len(VERIFY_OMEGAS)]
        text, expect = verify_document(_shape("verify-rk4", n), rng, weights,
                                       pattern, omega)
        docs.append(Doc(f"verify-{n:02d}-{label}", "verify", 8, text, expect))
    return docs


GENERATORS = {
    "dense-series": dense_series,
    "resonant-mix": resonant_mix,
    "verify-rk4": verify_rk4,
}


def build(workload, seed):
    """The documents of one round of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed)
