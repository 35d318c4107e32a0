"""Exact spectral and Jordan classification of small matrices over Q(i).

Eigenvalues are certified only when the characteristic polynomial splits over
the Gaussian rationals.  One root search serves every question asked of the
spectrum: a triangular matrix gives its diagonal; otherwise repeated roots
are split off with an exact gcd against the derivative, and the roots of the
squarefree rest are found modulo a small prime l = 3 (mod 4) and Hensel-lifted
to Gaussian integers.  No integer is ever factored: the primes passed over
divide the discriminant, so the cost grows polynomially with the bit size of
the entries.  A polynomial that does not split is rejected as uncertifiable
(a flagged double-precision fallback exists for reporting purposes only).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import DimensionMismatch, UncertifiableSpectrum
from .series import EC_ONE, EC_ZERO, ExactComplex

NUMERIC_TOL = 1e-9  # |re| at most this is zero in the uncertified fallback


class SmallMatrix:
    """A dense exact matrix of dimension 1..3, row major."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(ExactComplex.coerce(v) for v in row) for row in rows)
        dim = len(rows)
        if not 1 <= dim <= 3:
            raise DimensionMismatch(f"matrix dimension must be 1..3, got {dim}")
        if any(len(row) != dim for row in rows):
            raise DimensionMismatch("matrix is not square")
        self.dim = dim
        self.rows = rows

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, SmallMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def shift(self, scalar):
        """The matrix self - scalar * I."""
        scalar = ExactComplex.coerce(scalar)
        return SmallMatrix([[v - scalar if i == j else v for j, v in enumerate(row)]
                            for i, row in enumerate(self.rows)])

    def det(self):
        r = self.rows
        if self.dim == 1:
            return r[0][0]
        if self.dim == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.dim)), EC_ZERO)

    def charpoly(self):
        """Monic characteristic polynomial, coefficients indexed by power."""
        r = self.rows
        if self.dim == 1:
            return [-r[0][0], EC_ONE]
        if self.dim == 2:
            return [self.det(), -self.trace(), EC_ONE]
        s2 = ((r[0][0] * r[1][1] - r[0][1] * r[1][0])
              + (r[0][0] * r[2][2] - r[0][2] * r[2][0])
              + (r[1][1] * r[2][2] - r[1][2] * r[2][1]))
        return [-self.det(), s2, -self.trace(), EC_ONE]

    def is_upper_triangular(self):
        return all(self.rows[i][j].is_zero()
                   for i in range(self.dim) for j in range(i))

    def is_lower_triangular(self):
        return all(self.rows[i][j].is_zero()
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def to_complex_array(self):
        return [[v.to_complex() for v in row] for row in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in row) for row in self.rows)
        return f"<SmallMatrix [{body}]>"


def solve_affine(rows, rhs):
    """Exact solve of M c = rhs by Gauss-Jordan elimination.

    Returns None when inconsistent, else (particular, free_columns) where the
    particular solution sets every free column to zero.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    aug = [[ExactComplex.coerce(v) for v in row] + [ExactComplex.coerce(rhs[i])]
           for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, n) if not aug[i][col].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = EC_ONE / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if not aug[i][m].is_zero():
            return None
    free_cols = tuple(c for c in range(m) if c not in pivots)
    particular = [EC_ZERO] * m
    for row_idx, col in enumerate(pivots):
        particular[col] = aug[row_idx][m]
    return tuple(particular), free_cols


# ---------------------------------------------------------------------------
# exact roots of the characteristic polynomial
#
# Polynomials are lists of Gaussian integers (re, im) indexed by power.

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pseudo_divmod(p, g):
    """Q and R with lc(g)^(deg p - deg g + 1) p = Q g + R: Euclidean
    division over Q(i), kept in Z[i]."""
    n = len(g) - 1
    q, r = [], list(p)
    for k in range(len(p) - len(g), -1, -1):
        c = r[k + n]
        q = [c] + [_gmul(g[-1], x) for x in q]
        r = [_gmul(g[-1], x) for x in r]
        for j, x in enumerate(g):
            cx = _gmul(c, x)
            r[k + j] = (r[k + j][0] - cx[0], r[k + j][1] - cx[1])
    r = r[:n]
    while r and r[-1] == (0, 0):
        r.pop()
    return q, r


def _horner(q, a, b, m=0):
    """q(a + bi), reduced modulo m when m is nonzero."""
    re = im = 0
    for cr, ci in reversed(q):
        re, im = re * a - im * b + cr, re * b + im * a + ci
        if m:
            re, im = re % m, im % m
    return re, im


def _primes_3_mod_4():
    for p in itertools.count(3, 4):
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _simple_roots(p):
    """The Q(i)-roots of a squarefree polynomial, by Hensel lifting.

    With c its leading coefficient, t = c * lambda turns p into a monic q
    over Z[i], so every Q(i)-root is a Gaussian integer whose parts are
    below the Cauchy bound B.  Modulo a prime l = 3 (mod 4), Z[i] is the
    field of l^2 elements; at the first such prime where every root of q is
    simple (only divisors of the discriminant fail), the roots are found by
    trying all l^2 residues and lifted by Newton's iteration modulo l^(2^j)
    until the modulus exceeds 2B.  A lift that is an exact root over Z[i]
    gives a root.
    """
    q, scale = [(1, 0)], (1, 0)
    for c in reversed(p[:-1]):
        q.insert(0, _gmul(c, scale))
        scale = _gmul(scale, p[-1])
    dq = [(k * cr, k * ci) for k, (cr, ci) in enumerate(q)][1:]
    bound = 1 + max(abs(cr) + abs(ci) for cr, ci in q[:-1])
    for prime in _primes_3_mod_4():
        residues = [(a, b) for a in range(prime) for b in range(prime)
                    if _horner(q, a, b, prime) == (0, 0)]
        if all(_horner(dq, a, b, prime) != (0, 0) for a, b in residues):
            break
    roots = []
    for a, b in residues:
        m = prime
        while m <= 2 * bound:
            m *= m
            fr, fi = _horner(q, a, b, m)
            dr, di = _horner(dq, a, b, m)
            inv = pow(dr * dr + di * di, -1, m)
            # a + bi -= f / f', with 1 / (dr + di i) = (dr - di i) / (dr^2 + di^2)
            a = (a - (fr * dr + fi * di) * inv) % m
            b = (b - (fi * dr - fr * di) * inv) % m
        a = a - m if 2 * a > m else a
        b = b - m if 2 * b > m else b
        if _horner(q, a, b) == (0, 0):
            roots.append(ExactComplex(a, b) / ExactComplex(*p[-1]))
    return roots


def _roots(p):
    """The Q(i)-roots of p, each as often as its multiplicity.

    With g = gcd(p, p') by Euclid's algorithm, p / g is squarefree with the
    same roots, and g carries each root once less often than p.
    """
    if len(p) < 2:
        return []
    g, r = p, [(k * cr, k * ci) for k, (cr, ci) in enumerate(p)][1:]
    while r:
        g, r = r, _pseudo_divmod(g, r)[1]
    if len(g) == 1:
        return _simple_roots(p)
    return _simple_roots(_pseudo_divmod(p, g)[0]) + _roots(g)


def _eigenvalue_roots(matrix):
    """The Q(i)-roots of det(lambda I - matrix), with multiplicity; a
    triangular matrix gives its diagonal."""
    if matrix.is_upper_triangular() or matrix.is_lower_triangular():
        return [matrix.entry(i, i) for i in range(matrix.dim)]
    p = matrix.charpoly()
    den = math.lcm(*(x.denominator for c in p for x in (c.re, c.im)))
    return _roots([(int(c.re * den), int(c.im * den)) for c in p])


def positive_integer_eigenvalues(matrix):
    """The positive integers k with det(k I - matrix) = 0, ascending.

    Read from the matrix alone, whatever its spectrum: an integer eigenvalue
    is a Q(i)-root of the characteristic polynomial even when the others
    are not.
    """
    values = {v.as_integer() for v in _eigenvalue_roots(matrix)}
    return sorted(k for k in values if k is not None and k > 0)


def exact_eigenvalues(matrix):
    """Eigenvalues of a small matrix, exactly, or raise UncertifiableSpectrum."""
    values = _eigenvalue_roots(matrix)
    if len(values) < matrix.dim:
        raise UncertifiableSpectrum(
            "the characteristic polynomial does not split over the Gaussian rationals")
    return values


@dataclass(frozen=True)
class SpectrumInfo:
    """Exact spectral data of a small matrix.

    ``eigenvalues`` carries (value, algebraic multiplicity) pairs; purely
    imaginary values come first, sorted by |omega| then sign, mirroring the
    ordering convention of the center-family dispatch.
    """

    eigenvalues: tuple
    diagonalizable: bool
    jordan_blocks: tuple


def _sort_key(value):
    if value.is_purely_imaginary():
        w = value.im
        return (0, abs(w), 0 if w > 0 else 1)
    return (1, value.re, value.im)


def classify_spectrum(matrix):
    """Exact eigenvalues, Jordan structure and resonance data of a small matrix."""
    distinct = sorted(Counter(exact_eigenvalues(matrix)).items(),
                      key=lambda vm: _sort_key(vm[0]))
    blocks = []
    for value, mult in distinct:
        # for a multiplicity of at most 3 the number of blocks fixes their sizes
        geo = 1 if mult == 1 else len(
            solve_affine(matrix.shift(value).rows, [EC_ZERO] * matrix.dim)[1])
        blocks.extend((value, s) for s in [mult - geo + 1] + [1] * (geo - 1))
    assert sum(s for _, s in blocks) == matrix.dim
    return SpectrumInfo(
        eigenvalues=tuple(distinct),
        diagonalizable=all(s == 1 for _, s in blocks),
        jordan_blocks=tuple(blocks),
    )


def numeric_spectrum(matrix):
    """Double-precision fallback spectrum, flagged as uncertified.

    Used only for reporting when exact certification fails; no classification
    decision is ever based on these values.
    """
    import numpy as np

    values = np.linalg.eigvals(np.array(matrix.to_complex_array(), dtype=complex))
    values = sorted(values, key=lambda z: (abs(z.imag), z.real))
    entries = []
    for z in values:
        entries.append({
            "value": complex(z),
            "purely_imaginary": bool(abs(z.real) <= NUMERIC_TOL
                                     and abs(z.imag) > NUMERIC_TOL),
        })
    return {"eigenvalues": entries, "certified": False, "tolerance": NUMERIC_TOL}


# ---------------------------------------------------------------------------
# normal forms of the linear part

NF_DIAGONAL = "diagonal"
NF_DIAGONAL_HYPERBOLIC = "diagonal-with-hyperbolic"
NF_JORDAN_2 = "jordan-2x2"
NF_JORDAN_3 = "jordan-3x3"
NF_NOT_NORMALIZED = "not-normalized"


def normal_form_check(linear):
    """Which supported normal form the linear part matches exactly.

    Supported forms are upper triangular with nonzero entries only on the
    superdiagonal, couplings allowed only inside a Jordan chain (equal
    adjacent diagonal entries), and at least one purely imaginary diagonal
    entry.
    """
    n = linear.dim
    if any(j not in (i, i + 1) and not linear.entry(i, j).is_zero()
           for i in range(n) for j in range(n)):
        return NF_NOT_NORMALIZED
    diag = [linear.entry(i, i) for i in range(n)]
    imag = [v.is_purely_imaginary() for v in diag]
    couplings = [i for i in range(n - 1) if not linear.entry(i, i + 1).is_zero()]
    if any(diag[i] != diag[i + 1] for i in couplings) or not any(imag):
        return NF_NOT_NORMALIZED
    if len(couplings) == 2:
        return NF_JORDAN_3 if imag[0] else NF_NOT_NORMALIZED
    if any(imag[i] for i in couplings):
        return NF_JORDAN_2
    if couplings or not all(imag):
        return NF_DIAGONAL_HYPERBOLIC
    return NF_DIAGONAL
