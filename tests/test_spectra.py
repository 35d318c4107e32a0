from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcenter.errors import UncertifiableSpectrum
from bbcenter.series import ExactComplex
from bbcenter.spectra import (NF_DIAGONAL, NF_DIAGONAL_HYPERBOLIC,
                              NF_JORDAN_2, NF_JORDAN_3, NF_NOT_NORMALIZED,
                              SmallMatrix, classify_spectrum, gaussian_sqrt,
                              normal_form_check, positive_integer_eigenvalues,
                              rational_sqrt, solve_affine)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt():
    cases = [ec(4), ec(-9), ec(0, 2), ec(3, 4), ec(Fraction(-3, 4), 1)]
    for w in cases:
        s = gaussian_sqrt(w)
        assert s is not None and s * s == w
    assert gaussian_sqrt(ec(2)) is None
    assert gaussian_sqrt(ec(1, 1)) is None


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
    conj = pinv * m * p
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
    conj = pinv * m * p
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
