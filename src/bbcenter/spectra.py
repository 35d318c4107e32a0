"""Exact spectral and Jordan classification of small matrices over Q(i).

Eigenvalues are certified only when the characteristic polynomial splits over
the Gaussian rationals: rational-root search through Gaussian-integer divisors
handles the cubic, and the quadratic formula applies whenever the discriminant
is a perfect square in Q(i).  Everything else is rejected as uncertifiable
(a flagged double-precision fallback exists for reporting purposes only).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UncertifiableSpectrum
from .series import EC_ONE, EC_ZERO, ExactComplex


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
    def identity(cls, dim):
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

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

    def __sub__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        return SmallMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("dimension mismatch")
        return SmallMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, SmallMatrix):
            if self.dim != other.dim:
                raise DimensionMismatch("dimension mismatch")
            n = self.dim
            return SmallMatrix([[
                sum((self.rows[i][k] * other.rows[k][j] for k in range(n)), EC_ZERO)
                for j in range(n)] for i in range(n)])
        scalar = ExactComplex.coerce(other)
        return SmallMatrix([[v * scalar for v in row] for row in self.rows])

    __rmul__ = __mul__

    def shift(self, scalar):
        """self - scalar * I"""
        scalar = ExactComplex.coerce(scalar)
        return self - SmallMatrix.identity(self.dim) * scalar

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
# exact square roots

def rational_sqrt(q):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(w):
    """A square root of w in Q(i), or None when w is not a perfect square.

    Solving (x + yi)^2 = a + bi reduces to rational square roots of the norm
    and of (a + |w|)/2.
    """
    a, b = w.re, w.im
    if b == 0:
        s = rational_sqrt(a)
        if s is not None:
            return ExactComplex(s)
        s = rational_sqrt(-a)
        if s is not None:
            return ExactComplex(0, s)
        return None
    n = rational_sqrt(a * a + b * b)
    if n is None:
        return None
    x = rational_sqrt((a + n) / 2)
    if x is None or x == 0:
        return None
    return ExactComplex(x, b / (2 * x))


# ---------------------------------------------------------------------------
# integer factorization (for Gaussian-integer divisor enumeration)

def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    rng = random.Random(0xB00B1E ^ n)
    while True:
        x = rng.randrange(2, n)
        y = x
        c = rng.randrange(1, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorint(n):
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _sqrt_minus_one_mod(p):
    # p = 1 (mod 4); a^((p-1)/4) works for any non-residue a
    rng = random.Random(p)
    while True:
        a = rng.randrange(2, p)
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)


def _gauss_divmod(a, b):
    """Rounded division in Z[i]: returns q with N(a - q b) < N(b)."""
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    qr = (ar * br + ai * bi + n // 2) // n
    qi = (ai * br - ar * bi + n // 2) // n
    rr = ar - (qr * br - qi * bi)
    ri = ai - (qr * bi + qi * br)
    return (qr, qi), (rr, ri)


def _gauss_gcd(a, b):
    while b != (0, 0):
        _, r = _gauss_divmod(a, b)
        a, b = b, r
    return a


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gauss_exact_div(a, b):
    """a / b in Z[i] when exact, else None."""
    n = b[0] * b[0] + b[1] * b[1]
    xr = a[0] * b[0] + a[1] * b[1]
    xi = a[1] * b[0] - a[0] * b[1]
    if xr % n or xi % n:
        return None
    return (xr // n, xi // n)


def _gaussian_prime_factors(z):
    """Gaussian prime factorization of z in Z[i] (up to a unit).

    Returns a list of (prime, multiplicity).
    """
    norm = z[0] * z[0] + z[1] * z[1]
    out = []
    for p, _ in sorted(_factorint(norm).items()):
        if p == 2:
            candidates = [(1, 1)]
        elif p % 4 == 3:
            candidates = [(p, 0)]
        else:
            u = _sqrt_minus_one_mod(p)
            pi = _gauss_gcd((p, 0), (u, 1))
            candidates = [pi, (pi[0], -pi[1])]
        for pi in candidates:
            mult = 0
            w = z
            while True:
                q = _gauss_exact_div(w, pi)
                if q is None:
                    break
                w = q
                mult += 1
            if mult:
                out.append((pi, mult))
    return out


def _gaussian_divisor_candidates(z):
    """All divisors of z in Z[i], including unit multiples."""
    factors = _gaussian_prime_factors(z)
    divisors = [(1, 0)]
    for pi, mult in factors:
        grown = []
        for d in divisors:
            acc = d
            grown.append(acc)
            for _ in range(mult):
                acc = _gauss_mul(acc, pi)
                grown.append(acc)
        divisors = grown
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    seen = set()
    for d in divisors:
        for u in units:
            c = _gauss_mul(d, u)
            if c not in seen:
                seen.add(c)
                yield c


# ---------------------------------------------------------------------------
# exact roots of the characteristic polynomial

def _poly_eval(coeffs, x):
    acc = EC_ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _quadratic_roots(c0, c1):
    """Roots of lambda^2 + c1 lambda + c0 over Q(i), or None."""
    disc = c1 * c1 - ExactComplex(4) * c0
    s = gaussian_sqrt(disc)
    if s is None:
        return None
    half = ExactComplex(Fraction(1, 2))
    return [(-c1 + s) * half, (-c1 - s) * half]


def _cubic_rational_root(coeffs):
    """One Q(i) root of a monic cubic with Q(i) coefficients, or None."""
    den = math.lcm(*(d for c in coeffs[:3] for d in (c.re.denominator, c.im.denominator)))
    # t = den * lambda turns the cubic monic with Gaussian-integer coefficients
    b0 = coeffs[0] * ExactComplex(den) * ExactComplex(den) * ExactComplex(den)
    z0 = (int(b0.re), int(b0.im))
    if z0 == (0, 0):
        return EC_ZERO
    for cand in _gaussian_divisor_candidates(z0):
        root = ExactComplex(Fraction(cand[0], den), Fraction(cand[1], den))
        if _poly_eval(coeffs, root).is_zero():
            return root
    return None


def positive_integer_eigenvalues(matrix):
    """The positive integers k with det(k I - matrix) = 0, ascending.

    Read from the matrix alone, whatever its spectrum: once denominators are
    cleared the characteristic polynomial has Gaussian-integer coefficients,
    so an integer root k > 0 divides the real and the imaginary part of the
    lowest nonzero coefficient, and only those divisors are tried.
    """
    coeffs = matrix.charpoly()
    den = math.lcm(*(d for c in coeffs for d in (c.re.denominator, c.im.denominator)))
    low = next(c for c in coeffs if not c.is_zero())
    divisors = [1]
    for p, e in _factorint(math.gcd(int(low.re * den), int(low.im * den))).items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return sorted(k for k in divisors if _poly_eval(coeffs, ExactComplex(k)).is_zero())


def exact_eigenvalues(matrix):
    """Eigenvalues of a small matrix, exactly, or raise UncertifiableSpectrum.

    Triangular matrices short-circuit to their diagonal; otherwise the
    characteristic polynomial is factored over Q(i).
    """
    if matrix.is_upper_triangular() or matrix.is_lower_triangular():
        return [matrix.entry(i, i) for i in range(matrix.dim)]
    coeffs = matrix.charpoly()
    dim = matrix.dim
    if dim == 1:
        return [-coeffs[0]]
    if dim == 2:
        roots = _quadratic_roots(coeffs[0], coeffs[1])
        if roots is None:
            raise UncertifiableSpectrum(
                "quadratic discriminant is not a perfect Gaussian-rational square")
        return roots
    root = _cubic_rational_root(coeffs)
    if root is None:
        raise UncertifiableSpectrum(
            "cubic characteristic polynomial has no Gaussian-rational root")
    # synthetic division by (lambda - root)
    c2 = coeffs[2] + root
    c1 = coeffs[1] + root * c2
    rest = _quadratic_roots(c1, c2)
    if rest is None:
        raise UncertifiableSpectrum(
            "residual quadratic does not split over the Gaussian rationals")
    return [root] + rest


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
    values = exact_eigenvalues(matrix)
    distinct = []
    for v in values:
        for i, (u, m) in enumerate(distinct):
            if u == v:
                distinct[i] = (u, m + 1)
                break
        else:
            distinct.append((v, 1))
    distinct.sort(key=lambda vm: _sort_key(vm[0]))

    blocks = []
    for value, mult in distinct:
        if mult == 1:
            blocks.append((value, 1))
            continue
        geo = len(solve_affine(matrix.shift(value).rows, [EC_ZERO] * matrix.dim)[1])
        if mult == 2:
            sizes = [1, 1] if geo == 2 else [2]
        else:
            sizes = {3: [1, 1, 1], 2: [2, 1], 1: [3]}[geo]
        blocks.extend((value, s) for s in sizes)
    assert sum(s for _, s in blocks) == matrix.dim
    return SpectrumInfo(
        eigenvalues=tuple(distinct),
        diagonalizable=all(s == 1 for _, s in blocks),
        jordan_blocks=tuple(blocks),
    )


def numeric_spectrum(matrix, tol=1e-9):
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
            "purely_imaginary": bool(abs(z.real) <= tol and abs(z.imag) > tol),
        })
    return {"eigenvalues": entries, "certified": False, "tolerance": tol}


# ---------------------------------------------------------------------------
# normal forms of the linear part

NF_DIAGONAL = "diagonal"
NF_DIAGONAL_HYPERBOLIC = "diagonal-with-hyperbolic"
NF_JORDAN_2 = "jordan-2x2"
NF_JORDAN_3 = "jordan-3x3"
NF_NOT_NORMALIZED = "not-normalized"


def normal_form_check(linear):
    """Which supported normal form the linear part matches exactly.

    Accepts a SmallMatrix or anything with a ``linear`` attribute.  Supported
    forms are upper triangular with nonzero entries only on the superdiagonal,
    couplings allowed only inside a Jordan chain (equal adjacent diagonal
    entries), and at least one purely imaginary diagonal entry.
    """
    m = getattr(linear, "linear", linear)
    n = m.dim
    for i in range(n):
        for j in range(n):
            if i != j and j != i + 1 and not m.entry(i, j).is_zero():
                return NF_NOT_NORMALIZED
    chain = []
    for i in range(n - 1):
        coupled = not m.entry(i, i + 1).is_zero()
        if coupled and m.entry(i, i) != m.entry(i + 1, i + 1):
            return NF_NOT_NORMALIZED
        chain.append(coupled)
    diag = [m.entry(i, i) for i in range(n)]
    if not any(v.is_purely_imaginary() for v in diag):
        return NF_NOT_NORMALIZED
    if all(chain) and n == 3:
        return NF_JORDAN_3 if diag[0].is_purely_imaginary() else NF_NOT_NORMALIZED
    runs = []
    start = 0
    for i, coupled in enumerate(chain):
        if not coupled:
            runs.append((start, i))
            start = i + 1
    runs.append((start, n - 1))
    jordan_imag = False
    jordan_other = False
    for a, b in runs:
        if b > a:
            if diag[a].is_purely_imaginary():
                jordan_imag = True
            else:
                jordan_other = True
    if jordan_imag:
        return NF_JORDAN_2
    if jordan_other:
        return NF_DIAGONAL_HYPERBOLIC
    if all(v.is_purely_imaginary() for v in diag):
        return NF_DIAGONAL
    return NF_DIAGONAL_HYPERBOLIC
