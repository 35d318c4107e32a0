"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here; the exact-arithmetic criteria use
no tolerance at all.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from bb_oracle import oracle_classify
from bbcenter import cli
from bbcenter.briot_bouquet import (BBSystem, KIND_FAMILY, KIND_NO_SOLUTION,
                                    KIND_UNIQUE, classify,
                                    formal_solve_nonresonant, residual)
from bbcenter.centers import (HoloSystem, enumerate_centers, manifold_residual)
from bbcenter.series import ExactComplex, MultiSeries
from bbcenter.spectra import SmallMatrix
from bbcenter.verify import check_isochronous, check_residual_numeric, integrate


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)


class criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {status}", flush=True)
        return False


def bb_system(A, px, rows, order=12):
    n = len(px)
    series = [MultiSeries(n + 1, order, r) for r in rows]
    return BBSystem(SmallMatrix(A), [ExactComplex.coerce(p) for p in px], series)


def to_oracle(bb):
    A_rows = [[bb.A.entry(i, j) for j in range(bb.n)] for i in range(bb.n)]
    terms = [[(c, e) for e, c in row.terms.items()] for row in bb.nonlinear]
    return A_rows, list(bb.px), terms


def agree_with_oracle(bb, order):
    """kind, obstruction values, free-parameter count and coefficients must
    match the independent order-by-order recursion exactly."""
    out = classify(bb, order)
    want = oracle_classify(*to_oracle(bb), order)
    assert out.kind == want.kind, (out.kind, want.kind)
    if want.kind == KIND_NO_SOLUTION:
        assert out.blocking_order == want.blocking_order
        rhs = want.rhs_at_resonance[want.blocking_order]
        names = ("pbar", "rbar") if len(want.rhs_at_resonance) == 1 else ("phat", "rhat")
        for i, value in enumerate(rhs):
            assert out.obstructions[names[i]] == value
    else:
        assert len(out.solution.free_parameters) == len(want.free_slots)
        assert [(k, v) for k, v, _ in out.solution.free_parameters] == want.free_slots
        for k in range(1, order + 1):
            for i in range(bb.n):
                assert out.solution.coefficient(k, i) == want.coefficients[k - 1][i]
        if want.kind == KIND_FAMILY:
            first = min(want.rhs_at_resonance)
            rhs = want.rhs_at_resonance[first]
            for i, value in enumerate(rhs):
                assert out.obstructions[("pbar", "rbar")[i]] == value
        for row in residual(bb, out.solution):
            assert row.is_zero()
    return out


# ---------------------------------------------------------------------------
# 1. non-resonant uniqueness against the oracle, 200 random systems

NONRESONANT_POOL = [ec(-1), ec(-2), ec(-3), ec(Fraction(1, 2)),
                    ec(Fraction(-1, 2)), ec(Fraction(3, 2)), ec(0, 1),
                    ec(0, -1), ec(1, 1), ec(2, -1), ec(0)]


def random_nonresonant(rng, order):
    n = rng.choice([1, 2])
    diag = [rng.choice(NONRESONANT_POOL) for _ in range(n)]
    A = [[diag[i] if i == j else ec(0) for j in range(n)] for i in range(n)]
    if n == 2 and rng.random() < 0.25:
        A[0][1] = rng.choice([ec(1), ec(-1), ec(0, 1)])
        if diag[0] != diag[1] and rng.random() < 0.5:
            A[1][0] = ec(0)  # keep it triangular either way
    px = [ec(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(n)]
    rows = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(n + 1))
            if 2 <= sum(exps) <= 3:
                terms[exps] = ec(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        rows.append(terms)
    return bb_system(A, px, rows, order=10)


def test_criterion_1_nonresonant_uniqueness():
    with criterion(1, "non-resonant uniqueness vs oracle, 200 systems"):
        started = time.monotonic()
        rng = random.Random(271828)
        for _ in range(200):
            bb = random_nonresonant(rng, 10)
            sol = formal_solve_nonresonant(bb, 10)
            for row in residual(bb, sol, 10):
                assert row.is_zero()
            want = oracle_classify(*to_oracle(bb), 10)
            assert want.kind == KIND_UNIQUE
            for k in range(1, 11):
                for i in range(bb.n):
                    assert sol.coefficient(k, i) == want.coefficients[k - 1][i]
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. resonant trichotomy suites vs oracle

def trichotomy_suite():
    cases = []
    # one positive integer eigenvalue, 1d: the two hand instances
    cases.append(("q2-family", bb_system([[ec(2)]], [1], [{}])))
    cases.append(("q2-blocked", bb_system([[ec(2)]], [1], [{(1, 1): ec(1)}])))
    # one positive integer eigenvalue, 2d, obstruction toggled
    for q in (1, 2, 3):
        for s in (ec(-1), ec(Fraction(1, 2))):
            for a in (0, 1):
                for shape in ((1, 1, 0), (0, 2, 0)):
                    A = [[ec(q), ec(0)], [ec(0), s]]
                    rows = [{shape: ec(a)} if a else {}, {}]
                    cases.append((f"P1-q{q}-a{a}", bb_system(A, [1, 1], rows)))
    # two distinct integers 2 < 3, diagonalizable, all four toggles
    for a in (0, 1):
        for b in (0, 1):
            A = [[ec(2), ec(0)], [ec(0), ec(3)]]
            rows = [{(1, 1, 0): ec(a)} if a else {},
                    {(1, 0, 1): ec(b)} if b else {}]
            cases.append((f"P2-a{a}-b{b}", bb_system(A, [1, 1], rows)))
    # equal integers, diagonalizable
    for a in (0, 1):
        for b in (0, 1):
            A = [[ec(2), ec(0)], [ec(0), ec(2)]]
            rows = [{(1, 1, 0): ec(a)} if a else {},
                    {(1, 0, 1): ec(b)} if b else {}]
            cases.append((f"P3-a{a}-b{b}", bb_system(A, [1, 1], rows)))
    # equal integers, Jordan with eps = 1
    for r in (0, 1):
        A = [[ec(1), ec(1)], [ec(0), ec(1)]]
        cases.append((f"P4-q1-r{r}", bb_system(A, [1, r], [{}, {}])))
    for b in (0, 1):
        for r in (0, 1):
            A = [[ec(2), ec(1)], [ec(0), ec(2)]]
            rows = [{}, {(1, 0, 1): ec(b)} if b else {}]
            cases.append((f"P4-q2-b{b}-r{r}", bb_system(A, [1, r], rows)))
    return cases


def test_criterion_2_resonant_trichotomy():
    with criterion(2, "resonant trichotomy suites vs oracle"):
        cases = trichotomy_suite()
        assert len(cases) >= 40, len(cases)
        for name, bb in cases:
            agree_with_oracle(bb, 12)
        # the two hand-derived anchors
        family = classify(bb_system([[ec(2)]], [1], [{}]), 12)
        assert family.kind == KIND_FAMILY
        assert family.obstructions["pbar"] == ec(0)
        assert [(k, v) for k, v, _ in family.solution.free_parameters] == [(2, 0)]
        blocked = classify(bb_system([[ec(2)]], [1], [{(1, 1): ec(1)}]), 12)
        assert blocked.kind == KIND_NO_SOLUTION
        assert blocked.obstructions["pbar"] == ec(-1)
        assert blocked.blocking_order == 2
        # Jordan q=1: r != 0 kills, r = 0 leaves d1 = -p/eps with c1 free
        dead = classify(bb_system([[ec(1), ec(1)], [ec(0), ec(1)]], [1, 2], [{}, {}]), 12)
        assert dead.kind == KIND_NO_SOLUTION and dead.blocking_order == 1
        live = classify(bb_system([[ec(1), ec(3)], [ec(0), ec(1)]], [2, 0], [{}, {}]), 12)
        assert live.kind == KIND_FAMILY
        assert live.solution.coefficient(1, 1) == ec(Fraction(-2, 3))


# ---------------------------------------------------------------------------
# 3. the b200 toggle: no x-invariant manifold iff the coefficient survives

def toggle_system(b200):
    linear = SmallMatrix.diagonal([I, ec(0, 2), ec(1)])
    rows = [MultiSeries.zero(3, 12),
            MultiSeries(3, 12, {(2, 0, 0): ec(b200)} if b200 else {}),
            MultiSeries.zero(3, 12)]
    return HoloSystem(linear, rows)


def test_criterion_3_b200_toggle():
    with criterion(3, "x-chart obstruction toggle, exact"):
        blocked = {r.chart: r for r in enumerate_centers(toggle_system(1))}
        assert blocked[0].multiplicity == "none"
        assert blocked[0].obstructions["pbar"] == ec(0, -1)
        assert blocked[1].multiplicity == "unique"
        free = {r.chart: r for r in enumerate_centers(toggle_system(0))}
        assert free[0].multiplicity == "infinite"
        assert free[1].multiplicity == "unique"


# ---------------------------------------------------------------------------
# 4. Jordan no-go with random quadratics, zero residual on the surviving chart

def random_quadratic_rows(rng, dim, order, scale=Fraction(1, 4)):
    rows = []
    for _ in range(dim):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * dim
            exps[rng.randrange(dim)] += 1
            exps[rng.randrange(dim)] += 1
            num = rng.randint(-2, 2)
            if num:
                terms[tuple(exps)] = ec(Fraction(num, 8))
        rows.append(MultiSeries(dim, order, terms))
    return rows


def test_criterion_4_jordan_no_go():
    with criterion(4, "Jordan chart exclusion with unique x-chart, order 12"):
        rng = random.Random(314159)
        jordan2 = SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(0)],
                               [ec(0), ec(0), ec(1)]])
        jordan3 = SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(1)],
                               [ec(0), ec(0), I]])
        for _ in range(5):
            h2 = HoloSystem(jordan2, random_quadratic_rows(rng, 3, 12))
            reports = {r.chart: r for r in enumerate_centers(h2, order=12)}
            assert reports[1].multiplicity == "none"
            assert reports[0].multiplicity == "unique"
            for row in manifold_residual(h2, reports[0]).values():
                assert row.is_zero()
            h3 = HoloSystem(jordan3, random_quadratic_rows(rng, 3, 12))
            reports = {r.chart: r for r in enumerate_centers(h3, order=12)}
            assert reports[1].multiplicity == "none"
            assert reports[2].multiplicity == "none"
            assert reports[0].multiplicity == "unique"
            for row in manifold_residual(h3, reports[0]).values():
                assert row.is_zero()


# ---------------------------------------------------------------------------
# 5. the isochronous center at the origin, verified by integration

def test_criterion_5_poincare_center():
    with criterion(5, "equal-eigenvalue center: 20 starts return after 2*pi"):
        started = time.monotonic()
        rng = random.Random(161803)
        h = HoloSystem(SmallMatrix.diagonal([I, I, I]),
                       random_quadratic_rows(rng, 3, 8))
        reports = enumerate_centers(h, order=8)
        assert len(reports) == 1
        report = reports[0]
        assert report.theorem_tag == "poincare-isochronous-center"
        assert report.period_factor == Fraction(1)
        result = check_isochronous(h, report, starts=20, radius=1e-2, tol=1e-6)
        assert result.passed, (result.return_error, result.residual_error)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. residual property of emitted series: exact zero, then numeric decay

def residual_test_system(order):
    linear = SmallMatrix.diagonal([I, ec(0, 2), ec(1)])
    rows = [MultiSeries(3, order, {(0, 2, 0): ec(Fraction(1, 4))}),
            MultiSeries(3, order, {(1, 0, 1): ec(Fraction(1, 8))}),
            MultiSeries(3, order, {(2, 0, 0): ec(Fraction(-1, 4))})]
    return HoloSystem(linear, rows)


def test_criterion_6_residual_property(tmp_path, capsys):
    with criterion(6, "series residuals: exact zero to order N, slope >= N"):
        for order in (4, 12):
            h = residual_test_system(order)
            reports = [r for r in enumerate_centers(h, order=order)
                       if r.multiplicity != "none"]
            assert reports
            for r in reports:
                for row in manifold_residual(h, r).values():
                    assert row.is_zero()
                radii = (1e-1, 1e-2, 1e-3)
                values = [check_residual_numeric(h, r, grid=12, radius=rad)
                          for rad in radii]
                floor = 1e-17
                for big, small in zip(values, values[1:]):
                    if small < floor:
                        continue  # below the double-precision noise floor
                    slope = math.log10(big / small)
                    assert slope >= order, f"order {order}: slope {slope}"
        # the same series as the CLI emits them
        doc = {"variables": ["x", "y", "z"], "equations": [
            [{"coefficient": [[0, 1], [1, 1]], "exponents": [1, 0, 0]},
             {"coefficient": [[1, 4], [0, 1]], "exponents": [0, 2, 0]}],
            [{"coefficient": [[0, 1], [2, 1]], "exponents": [0, 1, 0]},
             {"coefficient": [[1, 8], [0, 1]], "exponents": [1, 0, 1]}],
            [{"coefficient": [[1, 1], [0, 1]], "exponents": [0, 0, 1]},
             {"coefficient": [[-1, 4], [0, 1]], "exponents": [2, 0, 0]}],
        ]}
        path = tmp_path / "residual.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["series", str(path), "--order", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        h = residual_test_system(4)
        api = {("xyz"[r.chart]): r for r in enumerate_centers(h, order=4)
               if r.multiplicity != "none"}
        for m in out["manifolds"]:
            if m["multiplicity"] == "none":
                continue
            report = api[m["chart"]]
            for var, coeffs in m["series"].items():
                k = "xyz".index(var)
                assert coeffs == [str(report.graphs[k].coeff((j,)))
                                  for j in range(1, 5)]


# ---------------------------------------------------------------------------
# 7. real-scaling invariance

def test_criterion_7_scaling_invariance():
    with criterion(7, "triple the field: same reports, periods / 3, exact"):
        h = residual_test_system(10)
        tripled = HoloSystem(
            SmallMatrix([[v * 3 for v in row] for row in h.linear.rows]),
            [s * 3 for s in h.nonlinear])
        base = enumerate_centers(h, order=10)
        scaled = enumerate_centers(tripled, order=10)
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            assert a.chart == b.chart
            assert a.multiplicity == b.multiplicity
            assert a.tangency == b.tangency
            assert a.theorem_tag == b.theorem_tag
            assert a.graphs == b.graphs
            assert a.free_parameters == b.free_parameters
            assert b.period_factor * 3 == a.period_factor


# ---------------------------------------------------------------------------
# 8. RK4 convergence order

def test_criterion_8_rk4_convergence():
    with criterion(8, "RK4 error drops 12x-20x per halving until 1e-12"):
        h = HoloSystem(SmallMatrix([[I]]), [MultiSeries.zero(1, 4)])
        step = 0.2
        errors = []
        for _ in range(10):
            end = integrate(h, [1.0], 2 * math.pi, step)
            errors.append(abs(end[0] - 1.0))
            step /= 2
        checked = 0
        for e0, e1 in zip(errors, errors[1:]):
            if e1 < 1e-12:
                break
            assert 12.0 <= e0 / e1 <= 20.0, (e0, e1, e0 / e1)
            checked += 1
        assert checked >= 3
