import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcenter.errors import UncertifiableSpectrum
from bbcenter.series import ExactComplex
from bbcenter.spectra import (NF_DIAGONAL, NF_DIAGONAL_HYPERBOLIC,
                              NF_JORDAN_2, NF_JORDAN_3, NF_NOT_NORMALIZED,
                              SmallMatrix, classify_spectrum, exact_eigenvalues,
                              normal_form_check, positive_integer_eigenvalues,
                              solve_affine)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)


def matmul(*factors):
    """The exact product of square matrices, computed here so that the
    conjugation oracles do not rest on the code they check."""
    rows = factors[0].rows
    for f in factors[1:]:
        rows = [[sum((a * b for a, b in zip(row, col)), ec(0)) for col in zip(*f.rows)]
                for row in rows]
    return SmallMatrix(rows)


def identity(n):
    return SmallMatrix.diagonal([1] * n)


def test_solve_affine_unique():
    m = [[ec(2), ec(0)], [ec(0), ec(3)]]
    sol, free = solve_affine(m, [ec(4), ec(6)])
    assert sol == (ec(2), ec(2))
    assert free == ()


def test_solve_affine_inconsistent():
    m = [[ec(0), ec(0)], [ec(0), ec(1)]]
    assert solve_affine(m, [ec(1), ec(0)]) is None


def test_solve_affine_underdetermined():
    # Jordan-style order-one system: [[0, -eps], [0, 0]] c = (p, 0)
    eps = ec(2)
    m = [[ec(0), -eps], [ec(0), ec(0)]]
    sol, free = solve_affine(m, [ec(6), ec(0)])
    assert free == (0,)
    assert sol == (ec(0), ec(-3))  # c_v = -p/eps, free slot zeroed


# ---------------------------------------------------------------------------
# spectra

def test_diagonal_spectrum():
    m = SmallMatrix.diagonal([I, ec(0, 2), ec(1)])
    info = classify_spectrum(m)
    values = [v for v, _ in info.eigenvalues]
    assert values == [I, ec(0, 2), ec(1)]
    assert info.diagonalizable


def test_triple_eigenvalue_diagonalizable():
    m = SmallMatrix.diagonal([I, I, I])
    info = classify_spectrum(m)
    assert info.eigenvalues == ((I, 3),)
    assert info.diagonalizable
    assert info.jordan_blocks == ((I, 1), (I, 1), (I, 1))


def test_jordan_block_detected():
    m = SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(0)], [ec(0), ec(0), ec(2)]])
    info = classify_spectrum(m)
    blocks = dict()
    for v, s in info.jordan_blocks:
        blocks.setdefault(str(v), []).append(s)
    assert blocks["i"] == [2]
    assert not info.diagonalizable


def test_dense_rational_eigenvalues():
    # conjugate diag(1, 2) by [[1, 1], [0, 1]]
    m = SmallMatrix([[ec(1), ec(1)], [ec(0), ec(2)]])
    p = SmallMatrix([[ec(1), ec(1)], [ec(1), ec(2)]])
    pinv = SmallMatrix([[ec(2), ec(-1)], [ec(-1), ec(1)]])
    conj = matmul(pinv, m, p)
    info = classify_spectrum(conj)
    assert {str(v) for v, _ in info.eigenvalues} == {"1", "2"}


def test_uncertifiable():
    m = SmallMatrix([[ec(0), ec(1)], [ec(2), ec(0)]])  # eigenvalues +-sqrt(2)
    with pytest.raises(UncertifiableSpectrum):
        classify_spectrum(m)


def test_cubic_gaussian_root():
    # companion-style dense matrix with eigenvalues i, -i, 2
    rows = [[ec(0), ec(1), ec(0)],
            [ec(0), ec(0), ec(1)],
            [ec(2), ec(-1), ec(2)]]
    # charpoly: t^3 - 2t^2 + t - 2 = (t - 2)(t^2 + 1)
    info = classify_spectrum(SmallMatrix(rows))
    values = {str(v) for v, _ in info.eigenvalues}
    assert values == {"i", "-i", "2"}


exact_entry = st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                           max_denominator=2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=2, max_size=2),
       st.integers(0, 3))
def test_similarity_invariance(diag, which):
    transforms = [
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[2, 1], [1, 1]],
        [[1, -1], [1, 1]],
    ]
    p = SmallMatrix(transforms[which])
    det = p.det()
    pinv = SmallMatrix([[p.entry(1, 1) / det, -p.entry(0, 1) / det],
                        [-p.entry(1, 0) / det, p.entry(0, 0) / det]])
    m = SmallMatrix.diagonal([ec(d) for d in diag])
    conj = matmul(pinv, m, p)
    a = classify_spectrum(m)
    b = classify_spectrum(conj)
    assert sorted(map(str, (v for v, _ in a.eigenvalues))) == \
        sorted(map(str, (v for v, _ in b.eigenvalues)))
    assert sorted(b.jordan_blocks, key=str) == sorted(a.jordan_blocks, key=str)


def test_positive_integers_agree_with_direct_comparison():
    m = SmallMatrix.diagonal([ec(3), ec(Fraction(5, 2)), ec(1)])
    info = classify_spectrum(m)
    direct = []
    for v, _ in info.eigenvalues:
        for k in range(1, 13):
            if v == ec(k):
                direct.append(k)
    assert positive_integer_eigenvalues(m) == sorted(direct) == [1, 3]


@pytest.mark.parametrize("rows,want", [
    ([[0, 0], [0, 0]], []),
    ([[0, 0], [0, 4]], [4]),                             # zero constant term
    ([[41, -1], [42, -2]], [40]),                        # similar to diag(40, -1)
    ([[0, 2, 0], [1, 0, 0], [0, 0, 7]], [7]),            # +-sqrt 2 do not split
    ([[Fraction(1, 3), 0], [0, ec(0, 1)]], []),
    ([[ec(6, 1), 1], [0, 6]], [6]),
    ([[5, 1], [0, 2]], [2, 5]),                          # ascending
])
def test_positive_integer_eigenvalues_need_no_certified_spectrum(rows, want):
    assert positive_integer_eigenvalues(SmallMatrix(rows)) == want


# ---------------------------------------------------------------------------
# the root search on dense matrices

def _unimodular(ops, n):
    """P and P^-1 for a product of elementary integer row operations: row i
    gains c times another row j, for each (i, off, c) in ops."""
    p, p_inv = identity(n), identity(n)
    for i, off, c in ops if n > 1 else ():
        i, j = i % n, (i + 1 + off % (n - 1)) % n

        def elementary(c):
            return SmallMatrix([[int(r == s) + c * ((r, s) == (i, j)) for s in range(n)]
                                for r in range(n)])
        p, p_inv = matmul(elementary(c), p), matmul(p_inv, elementary(-c))
    return p, p_inv


def _numeric_then_exact_roots(m):
    """The eigenvalues of m found without the code under test: each numeric
    eigenvalue is rounded to (1/d) Z[i], where d clears every entry (so d*m
    has Gaussian-integer eigenvalues when they are Gaussian rational), and
    kept when det(m - lambda I) vanishes exactly there."""
    d = math.lcm(*(x.denominator for row in m.rows for v in row for x in (v.re, v.im)))
    roots = []
    for z in np.linalg.eigvals(np.array(m.to_complex_array(), dtype=complex)):
        value = ec(Fraction(round(d * z.real), d), Fraction(round(d * z.imag), d))
        if m.shift(value).det().is_zero():
            roots.append(value)
    return roots


def gaussian_rationals(bound, max_den):
    return st.builds(lambda re, im, den: ec(Fraction(re, den), Fraction(im, den)),
                     st.integers(-bound, bound), st.integers(-bound, bound),
                     st.integers(1, max_den))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(gaussian_rationals(6, 3), min_size=3, max_size=3),
       st.sampled_from([(0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 0, 0), (0, 1, 0)]),
       st.lists(st.booleans(), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                          st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=5),
       gaussian_rationals(6, 3).filter(lambda v: not v.is_zero()))
def test_conjugated_spectrum_recovered_exactly(n, pool, pattern, couple, ops, bump):
    values = [pool[k] for k in pattern[:n]]
    coupled = [i for i in range(n - 1) if couple[i] and values[i] == values[i + 1]]
    t = SmallMatrix([[values[i] if i == j else int(j == i + 1 and i in coupled)
                      for j in range(n)] for i in range(n)])
    p, p_inv = _unimodular(ops, n)
    m = matmul(p_inv, t, p)
    assert matmul(p, p_inv) == identity(n)

    blocks, size = [], 1
    for i in range(n):
        if i in coupled:
            size += 1
        else:
            blocks.append((values[i], size))
            size = 1
    info = classify_spectrum(m)
    assert dict(info.eigenvalues) == Counter(values)
    assert sorted(info.jordan_blocks, key=str) == sorted(blocks, key=str)
    assert info.diagonalizable == (not coupled)
    assert positive_integer_eigenvalues(m) == sorted(
        {v.as_integer() for v in values if v.as_integer() and v.as_integer() > 0})

    # one perturbed entry: the spectrum either still splits, and then comes
    # out exactly, or no longer splits, and then is refused
    rows = [list(row) for row in m.rows]
    rows[n - 1][0] = rows[n - 1][0] + bump
    bumped = SmallMatrix(rows)
    oracle = _numeric_then_exact_roots(bumped)
    if len(oracle) == n:
        assert sorted(map(str, exact_eigenvalues(bumped))) == sorted(map(str, oracle))
    else:
        with pytest.raises(UncertifiableSpectrum):
            classify_spectrum(bumped)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(gaussian_rationals(2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_positive_integer_eigenvalues_match_determinant_scan(rows):
    # every entry has modulus at most 2*sqrt(2) < 3, so by Gershgorin every
    # eigenvalue has modulus below 3 * 3 < 10
    m = SmallMatrix(rows)
    direct = [k for k in range(1, 11)
              if m.shift(k).det().is_zero()]
    assert positive_integer_eigenvalues(m) == direct


def _primes_3_mod_4_product(limit):
    out = 1
    for q in range(3, limit, 4):
        if all(q % d for d in range(2, q)):
            out *= q
    return out


@pytest.mark.parametrize("limit", [100, 200])
def test_root_search_cost_is_bounded_on_crafted_spectrum(limit):
    # the gap M between two eigenvalues is divisible by every prime
    # p = 3 (mod 4) below the limit, so the root search must pass them all
    d = SmallMatrix.diagonal([ec(1, 2), ec(1, 2) + _primes_3_mod_4_product(limit),
                              ec(3, -1)])
    p = SmallMatrix([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    p_inv = SmallMatrix([[0, -1, 1], [1, 1, -1], [-1, 0, 1]])
    start = time.perf_counter()
    info = classify_spectrum(matmul(p_inv, d, p))
    assert time.perf_counter() - start < 5.0
    assert dict(info.eigenvalues) == {d.entry(i, i): 1 for i in range(3)}


def test_root_search_cost_is_bounded_on_six_digit_entries():
    # at this seed the determinant's norm, a 37-digit integer, leaves a
    # 31-digit composite once its small primes are divided out: slow to
    # factor, so a root search that factors it cannot pass
    rng = random.Random(25)
    m = SmallMatrix([[ec(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                      for _ in range(3)] for _ in range(3)])
    start = time.perf_counter()
    with pytest.raises(UncertifiableSpectrum):
        classify_spectrum(m)
    assert positive_integer_eigenvalues(m) == []
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_tags():
    assert normal_form_check(SmallMatrix.diagonal([I, ec(0, 2), ec(1, 1)])) \
        == NF_DIAGONAL_HYPERBOLIC
    assert normal_form_check(SmallMatrix.diagonal([I, ec(0, 2), ec(0, 3)])) \
        == NF_DIAGONAL
    assert normal_form_check(SmallMatrix.diagonal([ec(1), ec(2), ec(3)])) \
        == NF_NOT_NORMALIZED
    jordan2 = SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(0)],
                           [ec(0), ec(0), ec(1)]])
    assert normal_form_check(jordan2) == NF_JORDAN_2
    jordan3 = SmallMatrix([[I, ec(1), ec(0)], [ec(0), I, ec(1)],
                           [ec(0), ec(0), I]])
    assert normal_form_check(jordan3) == NF_JORDAN_3
    dense = SmallMatrix([[I, ec(0), ec(0)], [ec(1), I, ec(0)],
                         [ec(0), ec(0), ec(1)]])
    assert normal_form_check(dense) == NF_NOT_NORMALIZED


def test_jordan_coupling_requires_equal_diagonal():
    m = SmallMatrix([[I, ec(1)], [ec(0), ec(0, 2)]])
    assert normal_form_check(m) == NF_NOT_NORMALIZED
