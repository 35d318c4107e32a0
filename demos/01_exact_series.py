"""Exact scalars and truncated multivariate series.

Every coefficient in the classification pipeline is a Gaussian rational
(rational real and imaginary parts), so "is this exactly zero?" is always
decidable.  This walk-through shows the scalar type, series arithmetic, and
the two substitution primitives the reduction machinery is built from.
"""

from fractions import Fraction

from bbcenter import EC_I, ExactComplex, MultiSeries

# --- exact complex scalars -------------------------------------------------

a = ExactComplex(Fraction(1, 2), 3)     # 1/2 + 3i
b = ExactComplex(0, 1)                  # i
print("a          =", a)
print("a * b      =", a * b)
print("a / a      =", a / a)
print("i^2        =", EC_I * EC_I)
print("Re a, Im a =", a.re, a.im, "(exact rationals)")
print()

# --- truncated series ------------------------------------------------------

# series in (x, u) truncated at total degree 4; variable 0 is distinguished
x = MultiSeries.variable(2, 4, 0)
u = MultiSeries.variable(2, 4, 1)

f = (1 + x) * (1 - x) + u * u
print("f = (1+x)(1-x) + u^2        =", f.pretty(("x", "u")))

g = x * u * ExactComplex(0, 1) + x * x * Fraction(1, 3)
print("g = i.x.u + x^2/3           =", g.pretty(("x", "u")))

# products drop everything above the truncation order
h = f * g
print("f*g (order 4)               =", h.pretty(("x", "u")))
print()

# --- the shear substitution -------------------------------------------------

# u -> x*(u + c) is the eigenvalue-lowering step of reduction_step:
# it peels the order-1 Taylor coefficient c off the unknown and multiplies
# the remainder by x.
s = u + u * u
sheared = s.shear_substitute(1, ExactComplex(-1))
print("u + u^2 under u -> x(u - 1) =", sheared.pretty(("x", "u")))

# after a shear every term is divisible by x, so the equation x y' = ...
# can be divided through; the truncation order drops by one
print("  ... divided by x          =", sheared.divide_by_x().pretty(("x", "u")))
print()

# --- numeric bridge ----------------------------------------------------------

poly = x * x + u * Fraction(1, 2)
print("x^2 + u/2 at (0.5, 0.25)    =", poly.eval_numeric([0.5, 0.25]))
print("(exact value: 0.375; evaluation is Horner-style in double precision)")
