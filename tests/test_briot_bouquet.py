import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb_oracle import oracle_classify, oracle_witnesses, to_oracle
from bbcenter import briot_bouquet
from bbcenter.briot_bouquet import (BBSystem, KIND_FAMILY, KIND_NO_SOLUTION,
                                    KIND_UNIQUE, classify, exact_work,
                                    formal_solve_nonresonant, reduction_step,
                                    residual)
from bbcenter.errors import (BBCenterError, BlockedStep, OrderTooSmall,
                             ResonantEigenvalue)
from bbcenter.series import ExactComplex, MultiSeries
from bbcenter.spectra import SmallMatrix


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def series(n, order, entries):
    """entries: {exps: coeff-like}"""
    return MultiSeries(n + 1, order, {e: ec(c) if not isinstance(c, ExactComplex)
                                      else c for e, c in entries.items()})


def bb1(q, p, nonlinear=None, order=12):
    nl = series(1, order, nonlinear or {})
    return BBSystem(SmallMatrix([[ec(q)]]), [ec(p)], [nl])


def bb2(A, px, f=None, g=None, order=12):
    rows = [series(2, order, f or {}), series(2, order, g or {})]
    return BBSystem(SmallMatrix([[ec(a) for a in row] for row in A]),
                    [ec(px[0]), ec(px[1])], rows)


def assert_zero_residual(bb, sol, order=None):
    for row in residual(bb, sol, order):
        assert row.is_zero(), f"nonzero residual: {row}"


# ---------------------------------------------------------------------------
# non-resonant solving

def test_1d_linear():
    # x y' = -y + x  has y = x/2
    sys = bb1(-1, 1)
    sol = formal_solve_nonresonant(sys, 10)
    assert sol.coefficient(1, 0) == ec(Fraction(1, 2))
    for k in range(2, 11):
        assert sol.coefficient(k, 0) == ec(0)
    assert_zero_residual(sys, sol)


def test_2d_linear():
    # x u' = -u + x, x v' = -2v + x^2  has u = x/2, v = x^2/4
    sys = bb2([[-1, 0], [0, -2]], [1, 0], g={(2, 0, 0): 1})
    sol = formal_solve_nonresonant(sys, 10)
    assert sol.coefficient(1, 0) == ec(Fraction(1, 2))
    assert sol.coefficient(2, 1) == ec(Fraction(1, 4))
    assert sol.coefficient(2, 0) == ec(0)
    assert sol.coefficient(1, 1) == ec(0)
    assert_zero_residual(sys, sol)


def test_zero_system_zero_solution():
    sys = bb2([[-1, 0], [0, Fraction(1, 2)]], [0, 0])
    sol = formal_solve_nonresonant(sys, 8)
    assert all(c == ec(0) for row in sol.coefficients for c in row)


def test_resonant_precondition():
    sys = bb1(2, 1)
    with pytest.raises(ResonantEigenvalue):
        formal_solve_nonresonant(sys, 10)


def test_nonresonant_3d():
    A = [[ec(-1), ec(0), ec(0)], [ec(0), ec(0, 1), ec(0)],
         [ec(0), ec(0), ec(Fraction(1, 2))]]
    nl = [MultiSeries(4, 8, {(1, 0, 1, 0): ec(1)}),
          MultiSeries.zero(4, 8),
          MultiSeries(4, 8, {(0, 2, 0, 0): ec(1)})]
    sys = BBSystem(SmallMatrix(A), [ec(1), ec(2), ec(0)], nl)
    sol = formal_solve_nonresonant(sys, 8)
    assert_zero_residual(sys, sol)


# ---------------------------------------------------------------------------
# reduction steps

def test_reduction_step_shift_and_linear_x():
    # p=1, q=2, r=0, s=-1, f = x*u: new p = ap*(p/(1-q)) = -1
    sys = bb2([[2, 0], [0, -1]], [1, 0], f={(1, 1, 0): 1})
    step = reduction_step(sys)
    assert step.shifts == (ec(-1), ec(0))
    assert step.system.px[0] == ec(-1)
    assert step.system.px[1] == ec(0)
    assert step.system.A.entry(0, 0) == ec(1)
    assert step.system.A.entry(1, 1) == ec(-2)
    assert not step.resonant


def test_reduction_step_zero_case():
    sys = bb2([[2, 0], [0, 2]], [0, 0])
    step = reduction_step(sys)
    assert step.system.px == (ec(0), ec(0))
    assert step.shifts == (ec(0), ec(0))


def test_reduction_step_jordan_shift():
    # q=s=2, eps=1, p=1, r=0: u-shift (p + eps*r/(1-q))/(1-q) = -1, v-shift 0
    sys = bb2([[2, 1], [0, 2]], [1, 0])
    step = reduction_step(sys)
    assert step.shifts == (ec(-1), ec(0))


def test_reduction_step_blocked():
    sys = bb1(1, 1)
    with pytest.raises(BlockedStep) as err:
        reduction_step(sys)
    assert err.value.px == (ec(1),)


def test_cascade_conjugacy():
    # if y solves the pre-step system then y/x - shift solves the post-step one
    sys = bb2([[-2, 0], [0, Fraction(1, 3)]], [1, 2],
              f={(1, 1, 0): 1, (0, 2, 0): Fraction(1, 2)},
              g={(1, 0, 1): -1}, order=9)
    step = reduction_step(sys)
    sol = formal_solve_nonresonant(sys, 8)
    transformed = []
    for rep, shift in zip(sol.representative, step.shifts):
        shifted = rep - MultiSeries(1, rep.order, {(1,): shift})
        transformed.append(shifted.divide_by_x())
    tail = formal_solve_nonresonant(step.system, 7)
    for ours, theirs in zip(transformed, tail.representative):
        assert ours.truncate(7) == theirs.truncate(7)


# ---------------------------------------------------------------------------
# the trichotomy (hand-derived instances)

def test_blocked_at_order_two():
    # x u' = x + 2u + x*u: order 1 forces c1 = -1, order 2 demands 0 = -c1
    sys = bb1(2, 1, {(1, 1): 1})
    out = classify(sys, 12)
    assert out.kind == KIND_NO_SOLUTION
    assert out.blocking_order == 2
    assert out.obstructions["pbar"] == ec(-1)


def test_family_with_free_c2():
    # x u' = x + 2u: c1 = -1 forced, c2 free
    sys = bb1(2, 1)
    out = classify(sys, 12)
    assert out.kind == KIND_FAMILY
    assert out.obstructions["pbar"] == ec(0)
    assert [(k, v) for k, v, _ in out.solution.free_parameters] == [(2, 0)]
    assert out.solution.coefficient(1, 0) == ec(-1)
    assert out.solution.coefficient(2, 0) == ec(0)  # representative
    assert_zero_residual(sys, out.solution)


def test_nonresonant_unique_kind():
    sys = bb2([[-1, 0], [0, -2]], [1, 1], f={(0, 1, 1): 1})
    out = classify(sys, 10)
    assert out.kind == KIND_UNIQUE
    assert out.obstructions == {}
    assert_zero_residual(sys, out.solution)


def test_jordan_q1_no_solution_when_r_nonzero():
    # x u' = px + u + eps v, x v' = rx + v with r != 0 blocks at order 1
    sys = bb2([[1, 1], [0, 1]], [1, 2])
    out = classify(sys, 10)
    assert out.kind == KIND_NO_SOLUTION
    assert out.blocking_order == 1
    assert out.obstructions["rbar"] == ec(2)


def test_jordan_q1_family_with_d1():
    # r = 0: d1 = -p/eps, c1 free
    eps = Fraction(3)
    sys = bb2([[1, eps], [0, 1]], [2, 0])
    out = classify(sys, 10)
    assert out.kind == KIND_FAMILY
    assert out.solution.coefficient(1, 1) == ec(Fraction(-2, 3))
    assert [(k, v) for k, v, _ in out.solution.free_parameters] == [(1, 0)]
    assert_zero_residual(sys, out.solution)


def test_two_distinct_integers_needs_both_obstructions():
    # q=2, s=3 diagonal, pbar = 0 but rhat != 0: no solutions
    sys = bb2([[2, 0], [0, 3]], [0, 1], g={(1, 0, 1): 1})
    out = classify(sys, 12)
    assert out.kind == KIND_NO_SOLUTION
    assert out.obstructions["pbar"] == ec(0)
    assert "rhat" in out.obstructions
    assert not out.obstructions["rhat"].is_zero()


def test_order_too_small():
    sys = bb1(6, 1)
    with pytest.raises(OrderTooSmall):
        classify(sys, 7)


# ---------------------------------------------------------------------------
# oracle equivalence on random systems

EIGEN_POOL = [ec(-1), ec(-2), ec(-3), ec(Fraction(1, 2)), ec(Fraction(-1, 2)),
              ec(Fraction(3, 2)), ec(0, 1), ec(0, -1), ec(1, 1), ec(2, -1),
              ec(0)]

RESONANT_POOL = [ec(1), ec(2), ec(3), ec(4), ec(5)]


def random_system(rng, n, order, allow_resonant):
    pool = EIGEN_POOL + (RESONANT_POOL if allow_resonant else [])
    diag = [rng.choice(pool) for _ in range(n)]
    A = [[diag[i] if i == j else ec(0) for j in range(n)] for i in range(n)]
    if n == 2 and rng.random() < 0.3:
        if rng.random() < 0.5 and diag[0] == diag[1]:
            A[0][1] = rng.choice([ec(1), ec(2)])  # Jordan coupling
        elif not allow_resonant:
            A[0][1] = rng.choice([ec(1), ec(-1)])
    px = [ec(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(n)]
    rows = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(n + 1))
            if not 2 <= sum(exps) <= 3:
                continue
            terms[exps] = ec(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        rows.append(MultiSeries(n + 1, order, terms))
    return BBSystem(SmallMatrix(A), px, rows)


def test_oracle_equivalence_random():
    rng = random.Random(20260810)
    order = 9
    checked = 0
    for _ in range(250):
        n = rng.choice([1, 2])
        sys = random_system(rng, n, order, allow_resonant=True)
        out = classify(sys, order)
        A_rows, px, terms = to_oracle(sys)
        want = oracle_classify(A_rows, px, terms, order)
        assert out.kind == want.kind
        if want.kind == KIND_NO_SOLUTION:
            assert out.blocking_order == want.blocking_order
        else:
            ours = [(k, v) for k, v, _ in out.solution.free_parameters]
            assert ours == want.free_slots
            for k in range(1, order + 1):
                for i in range(n):
                    assert out.solution.coefficient(k, i) == want.coefficients[k - 1][i]
            assert_zero_residual(sys, out.solution)
        checked += 1
    assert checked == 250


def test_obstruction_values_match_oracle_rhs():
    rng = random.Random(77)
    for _ in range(60):
        n = 2
        sys = random_system(rng, n, 9, allow_resonant=True)
        out = classify(sys, 9)
        A_rows, px, terms = to_oracle(sys)
        want = oracle_classify(A_rows, px, terms, 9)
        if not out.obstructions:
            continue
        first = min(want.rhs_at_resonance) if want.rhs_at_resonance else None
        if first is None:
            continue
        rhs = want.rhs_at_resonance[first]
        assert out.obstructions.get("pbar") == rhs[0]
        if n == 2:
            assert out.obstructions.get("rbar") == rhs[1]


def assert_matches_oracle(sys, out, order):
    want = oracle_classify(*to_oracle(sys), order)
    assert out.kind == want.kind
    assert out.obstructions == oracle_witnesses(want)
    if want.kind == KIND_NO_SOLUTION:
        assert out.blocking_order == want.blocking_order
        return
    assert [(k, v) for k, v, _ in out.solution.free_parameters] == want.free_slots
    assert list(out.solution.coefficients) == want.coefficients
    assert_zero_residual(sys, out.solution)


def test_dense_degree_six_system_matches_oracle_at_order_16():
    # every monomial of degree 2..6 in (x, y1, y2) and a complex triangular
    # linear part: longer sums and larger coefficients than any corpus system
    rng = random.Random(6)

    def small():
        return ec(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3))),
                  Fraction(rng.randint(-1, 1), 2))

    rows = [series(2, 16, {e: small() for e in product(range(7), repeat=3)
                           if 2 <= sum(e) <= 6}) for _ in range(2)]
    sys = BBSystem(SmallMatrix([[ec(Fraction(-1, 2)), ec(1)], [ec(0), ec(0, 1)]]),
                   [small(), small()], rows)
    out = classify(sys, 16)
    assert out.kind == KIND_UNIQUE
    assert_matches_oracle(sys, out, 16)


def test_exact_work_counts_tracked_powers_and_terms():
    # x u' = -u + x + u^3 + x u^2 tracks 1, u, u^2 and u^3 over two terms
    sys = bb1(-1, 1, {(0, 3): 1, (1, 2): 1}, order=10)
    assert exact_work(sys, 10) == 4 * 10**2 + 2 * 10
    # a chart row u^4 adds one power and one term
    assert exact_work(sys, 10, series(1, 10, {(0, 4): 1})) == 5 * 10**2 + 3 * 10


def test_classify_refuses_work_past_the_cap(monkeypatch):
    sys = bb1(-1, 1, {(0, 3): 1, (1, 2): 1}, order=10)
    monkeypatch.setattr(briot_bouquet, "MAX_EXACT_WORK", 419)
    with pytest.raises(BBCenterError, match="needs 420 units of work.*the cap is 419"):
        classify(sys, 10)
    with pytest.raises(BBCenterError, match="needs 420 units"):
        formal_solve_nonresonant(sys, 10)
    monkeypatch.setattr(briot_bouquet, "MAX_EXACT_WORK", 420)
    assert classify(sys, 10).kind == KIND_UNIQUE


@pytest.mark.parametrize("order", [6, 8])
def test_three_dependents_two_resonances(order):
    # x y1' = y1 + x y2, x y2' = 2 y2 + x y1, x y3' = y3/2 + y1 y2
    nl = [MultiSeries(4, order, {(1, 0, 1, 0): ec(1)}),
          MultiSeries(4, order, {(1, 1, 0, 0): ec(1)}),
          MultiSeries(4, order, {(0, 1, 1, 0): ec(1)})]
    sys = BBSystem(SmallMatrix.diagonal([ec(1), ec(2), ec(Fraction(1, 2))]),
                   [ec(0)] * 3, nl)
    out = classify(sys, order)
    assert out.kind == KIND_FAMILY
    assert [(k, v) for k, v, _ in out.solution.free_parameters] == [(1, 0), (2, 1)]
    assert sorted(out.obstructions) == ["pbar", "phat", "r1[2]", "r2[2]", "rbar", "rhat"]
    assert all(v.is_zero() for v in out.obstructions.values())
    assert_matches_oracle(sys, out, order)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3]))
def test_verdict_stable_from_required_order(seed, n):
    sys = random_system(random.Random(seed), n, 12, allow_resonant=True)
    diag = [sys.A.entry(i, i).as_integer() for i in range(n)]
    required = max([k + 2 for k in diag if k is not None and k > 0], default=1)
    for order in range(1, required):
        with pytest.raises(OrderTooSmall):
            classify(sys, order)
    top = classify(sys, 12)
    assert_matches_oracle(sys, top, 12)
    for order in range(required, 12):
        out = classify(sys, order)
        assert (out.kind, out.obstructions, out.blocking_order) == (
            top.kind, top.obstructions, top.blocking_order)
        if out.solution is not None:
            assert out.solution.free_parameters == top.solution.free_parameters
            assert out.solution.coefficients == top.solution.coefficients[:order]


def test_perturbed_solution_has_nonzero_residual():
    sys = bb2([[-1, 0], [0, -2]], [1, 0], g={(2, 0, 0): 1})
    sol = formal_solve_nonresonant(sys, 8)
    reps = list(sol.representative)
    reps[0] = reps[0] + MultiSeries(1, 8, {(2,): ec(1)})
    bad = type(sol)(sol.order, sol.coefficients, sol.free_parameters, tuple(reps))
    rows = residual(sys, bad, 8)
    assert not rows[0].is_zero()
    assert rows[0].coeff((2,)) != ec(0)
