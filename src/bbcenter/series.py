"""Sparse truncated multivariate power series over exact Gaussian-rational scalars.

Everything downstream branches on exact vanishing of coefficients (is this
obstruction zero or not?), so a scalar is a Gaussian rational (a + b i) / d
held as three arbitrary-precision integers, and no tolerance appears
anywhere in this module.  Floating point enters only through
:meth:`ExactComplex.to_complex`, on each coefficient ``verify`` compiles or
samples, and :meth:`MultiSeries.eval_numeric`, which no command calls.

Each ``ExactComplex`` ``+`` and ``*`` reduces its result by a gcd.  The
Briot-Bouquet recursion does not pay that per product: it keeps its values as
integer pairs over one shared denominator per order and builds each result
it returns with ``_ec``, which reduces once.

Variable 0 of a :class:`MultiSeries` is the distinguished independent
variable ("x"); the substitution primitives `shear_substitute` and
`divide_by_x` are phrased relative to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, NotDivisible


def _rat(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_new = object.__new__


def _ec(a, b, d):
    """(a + b i) / d for integers with d > 0, reduced by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(ExactComplex)
    z.a, z.b, z.d = a, b, d
    return z


def _ratio_str(n, d):
    """n / d in lowest terms, printed as ``str`` prints a ``Fraction``."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class ExactComplex:
    """A complex scalar with rational real and imaginary parts.

    It is stored as three integers, z = (a + b i) / d with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields.  Arithmetic is
    exact, equality is decidable, and floats are rejected at construction
    time so no rounding can sneak into a classification branch.  ``re`` and
    ``im`` are views, built on demand, that give the parts as ``Fraction``s;
    the exact layer reads and writes (a, b, d) alone.

    >>> i = ExactComplex(0, 1)
    >>> print(i * i)
    -1
    >>> print(ExactComplex(Fraction(1, 2), -3))
    1/2-3i
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = _rat(re), _rat(im)
        d = lcm(re.denominator, im.denominator)
        # reduced parts over their lcm leave gcd(a, b, d) = 1
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @staticmethod
    def coerce(value):
        if isinstance(value, ExactComplex):
            return value
        if type(value) is int:
            return _ec(value, 0, 1)
        value = _rat(value)
        return _ec(value.numerator, 0, value.denominator)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        other = ExactComplex.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _ec(self.a + other.a, self.b + other.b, d)
        return _ec(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _ec(self.a - other.a, self.b - other.b, d)
        return _ec(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __neg__(self):
        return _ec(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = ExactComplex.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _ec(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + b i) / d  over  (c + e i) / f  is  (a + b i)(c - e i) f / (d (c^2 + e^2))
        other = ExactComplex.coerce(other)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return _ec((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex.coerce(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        return hash(self.re) if self.b == 0 else hash((self.re, self.im))

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_purely_imaginary(self):
        """Nonzero and on the imaginary axis."""
        return self.a == 0 and self.b != 0

    def as_integer(self):
        """The exact integer value, or None."""
        if self.b == 0 and self.d == 1:
            return self.a
        return None

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return _ratio_str(a, d)
        text = "i" if b == d else "-i" if b == -d else f"{_ratio_str(b, d)}i"
        if a == 0:
            return text
        return f"{_ratio_str(a, d)}{'+' if b > 0 else ''}{text}"

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)


class MultiSeries:
    """A formal power series in ``nvars`` variables, truncated at total degree
    ``order``.

    Terms are a map from exponent tuples to nonzero coefficients; no zero
    coefficient is ever stored and every stored multi-index has total degree
    <= order.  Instances are immutable by convention: operations return new
    series and may be shared freely between threads.

    >>> x = MultiSeries.variable(1, 4, 0)
    >>> print((1 + x) * (1 - x))
    1 - x0^2
    """

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars, order, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.nvars = nvars
        self.order = order
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = ExactComplex.coerce(coeff)
            if coeff.is_zero():
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > order:
                raise ValueError(f"term {exps} exceeds truncation order {order}")
            clean[exps] = coeff
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars, order):
        return cls(nvars, order)

    @classmethod
    def constant(cls, nvars, order, value):
        return cls(nvars, order, {(0,) * nvars: ExactComplex.coerce(value)})

    @classmethod
    def variable(cls, nvars, order, j):
        if not 0 <= j < nvars:
            raise IndexError(f"variable index {j} out of range")
        exps = tuple(1 if k == j else 0 for k in range(nvars))
        return cls(nvars, order, {exps: EC_ONE})

    @classmethod
    def monomial(cls, nvars, order, exps, coeff):
        return cls(nvars, order, {tuple(exps): ExactComplex.coerce(coeff)})

    # ---- ring operations ----------------------------------------------

    def _common(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            other = MultiSeries.constant(self.nvars, self.order, other)
        order = self._common(other)
        terms = {}
        for exps in set(self.terms) | set(other.terms):
            if sum(exps) > order:
                continue
            c = self.terms.get(exps, EC_ZERO) + other.terms.get(exps, EC_ZERO)
            if not c.is_zero():
                terms[exps] = c
        return MultiSeries(self.nvars, order, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiSeries(self.nvars, self.order,
                           {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            scalar = ExactComplex.coerce(other)
            if scalar.is_zero():
                return MultiSeries.zero(self.nvars, self.order)
            return MultiSeries(self.nvars, self.order,
                               {e: c * scalar for e, c in self.terms.items()})
        order = self._common(other)
        a = [(e, sum(e), c) for e, c in self.terms.items()]
        b = [(e, sum(e), c) for e, c in other.terms.items()]
        out = {}
        for ea, da, ca in a:
            if da > order:
                continue
            for eb, db, cb in b:
                if da + db > order:
                    continue
                exps = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(exps)
                prod = ca * cb
                out[exps] = prod if prev is None else prev + prod
        return MultiSeries(self.nvars, order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # ---- inspection ----------------------------------------------------

    def coeff(self, exps):
        return self.terms.get(tuple(exps), EC_ZERO)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, EC_ZERO)

    def max_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def min_degree(self):
        return min((sum(e) for e in self.terms), default=0)

    def truncate(self, order):
        """Drop all terms of total degree > order."""
        return MultiSeries(self.nvars, order,
                           {e: c for e, c in self.terms.items() if sum(e) <= order})

    def with_order(self, order):
        """Re-declare the truncation bound.  Raising it is sound only when the
        series is exact (a polynomial with nothing dropped), which is the
        caller's responsibility."""
        if order < self.max_degree():
            return self.truncate(order)
        return MultiSeries(self.nvars, order, self.terms)

    # ---- substitution primitives ----------------------------------------

    def shear_substitute(self, j, shift):
        """Replace variable j by x*(y_j + shift), x being variable 0.

        Result is re-truncated to the same order.  It shifts off the order-1
        Taylor coefficient and multiplies the remainder by x: the move that
        ``briot_bouquet.reduction_step`` makes on every y_j at once to lower
        each eigenvalue of a Briot-Bouquet system by one.  ``classify`` reads the
        resonant obstructions by direct recursion and does not use it.
        """
        if j == 0 or not 0 < j < self.nvars:
            raise IndexError(f"shear variable must satisfy 1 <= j < nvars, got {j}")
        subs = [MultiSeries.variable(self.nvars, max(self.order, 1), k)
                for k in range(self.nvars)]
        subs[j] = subs[0] * (subs[j] + shift)
        return self.substitute(subs)

    def divide_by_x(self):
        """Shift every exponent of variable 0 down by one; order drops by one."""
        if self.order < 1:
            raise NotDivisible("cannot divide a series of order 0 by x")
        out = {}
        for exps, coeff in self.terms.items():
            if exps[0] == 0:
                raise NotDivisible(f"term {exps} has no factor of the independent variable")
            out[(exps[0] - 1,) + exps[1:]] = coeff
        return MultiSeries(self.nvars, self.order - 1, out)

    def substitute(self, subs, order=None):
        """General composition: replace variable i by ``subs[i]``.

        Every substituted series must have zero constant term, which keeps
        truncation sound: terms this series may have dropped above its order
        can only influence degrees above the result order.
        """
        if len(subs) != self.nvars:
            raise DimensionMismatch(
                f"need {self.nvars} substitutions, got {len(subs)}")
        nvars = subs[0].nvars
        sub_order = min(s.order for s in subs)
        for s in subs:
            if s.nvars != nvars:
                raise DimensionMismatch("substituted series disagree on variables")
            if not s.constant_term().is_zero():
                raise ValueError("substituted series must have zero constant term")
        target = min(self.order, sub_order)
        if order is not None:
            target = min(target, order)
        one = MultiSeries.constant(nvars, target, 1)
        pow_cache = [{0: one} for _ in range(self.nvars)]

        def power(i, e):
            cache = pow_cache[i]
            if e not in cache:
                m = max(cache)
                acc = cache[m]
                base = subs[i].truncate(target) if subs[i].order > target else subs[i]
                while m < e:
                    acc = acc * base
                    m += 1
                    cache[m] = acc
            return cache[e]

        result = MultiSeries.zero(nvars, target)
        for exps, coeff in self.terms.items():
            if sum(exps) > target:
                # minimum degree of the image is at least the total degree
                continue
            term = one * coeff
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    def reciprocal(self):
        """Multiplicative inverse as a truncated series.

        Requires a nonzero constant term; computed by the geometric series in
        the zero-constant remainder.
        """
        c = self.constant_term()
        if c.is_zero():
            raise ZeroDivisionError("series has zero constant term")
        inv_c = EC_ONE / c
        w = (self - MultiSeries.constant(self.nvars, self.order, c)) * (-inv_c)
        out = MultiSeries.constant(self.nvars, self.order, inv_c)
        p = MultiSeries.constant(self.nvars, self.order, inv_c)
        for _ in range(self.order):
            p = p * w
            if p.is_zero():
                break
            out = out + p
        return out

    def derivative(self, j=0):
        """Partial derivative; the result is reliable one order lower."""
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            new = exps[:j] + (e - 1,) + exps[j + 1:]
            out[new] = coeff * e
        return MultiSeries(self.nvars, max(self.order - 1, 0), out)

    def euler_derivative(self, j=0):
        """The Euler operator x_j * d/dx_j; keeps the truncation order."""
        return MultiSeries(self.nvars, self.order,
                           {e: c * e[j] for e, c in self.terms.items() if e[j]})

    # ---- numeric bridge -------------------------------------------------

    def eval_numeric(self, point):
        """Evaluate the truncated polynomial in double precision, term by
        term, at numbers or elementwise at numpy arrays of one shape."""
        pts = [p + 0j for p in point]
        if len(pts) != self.nvars:
            raise DimensionMismatch(
                f"point has {len(pts)} coordinates, series has {self.nvars}")
        total = 0j
        for exps, c in self.terms.items():
            term = c.to_complex()
            for p, e in zip(pts, exps):
                if e:
                    term = term * p ** e
            total = total + term
        return total

    # ---- presentation -----------------------------------------------------

    def pretty(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = tuple(f"x{i}" for i in range(self.nvars))
        pieces = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            mono = " ".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps) if e)
            cs = str(coeff)
            if mono:
                if cs == "1":
                    text = mono
                elif cs == "-1":
                    text = f"-{mono}"
                elif ("+" in cs[1:]) or ("-" in cs[1:]):
                    text = f"({cs}) {mono}"
                else:
                    text = f"{cs} {mono}"
            else:
                text = cs
            if pieces and not text.startswith("-"):
                pieces.append(f"+ {text}")
            elif pieces:
                pieces.append(f"- {text[1:]}")
            else:
                pieces.append(text)
        return " ".join(pieces)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"<MultiSeries nvars={self.nvars} order={self.order} {self.pretty()}>"

