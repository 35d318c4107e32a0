"""Solving Briot-Bouquet systems x y' = f(x, y) through the singular point.

The eigenvalues of A = df/dy(0) decide everything.  No positive integer
eigenvalue: exactly one holomorphic solution with y(0) = 0.  A positive
integer eigenvalue q: the order-q coefficient equation is singular, and an
exact obstruction constant decides between "no holomorphic solution at all"
and "an infinite family".
"""

from fractions import Fraction

from bbcenter import (BBSystem, ExactComplex, MultiSeries, SmallMatrix,
                      classify, formal_solve_nonresonant, residual)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def show_solution(sol, names):
    for i, name in enumerate(names):
        germ = MultiSeries(1, sol.order, {(k,): row[i] for k, row
                                          in enumerate(sol.coefficients, 1)})
        print(f"  {name}(x) =", germ.pretty(("x",)))
    if sol.free_parameters:
        slots = ", ".join(f"order {k} of {names[v]}" for k, v, _ in sol.free_parameters)
        print("  free parameters at:", slots)


# --- non-resonant: the unique solution ---------------------------------------

print("x u' = -u + x,  x v' = -2v + x^2")
bb = BBSystem(
    SmallMatrix.diagonal([ec(-1), ec(-2)]),
    [ec(1), ec(0)],
    [MultiSeries.zero(3, 10), MultiSeries(3, 10, {(2, 0, 0): ec(1)})])
sol = formal_solve_nonresonant(bb, 10)
show_solution(sol, ("u", "v"))
print("  residual rows all zero:",
      all(r.is_zero() for r in residual(bb, sol)))
print()

# --- resonance: the trichotomy ------------------------------------------------

# eigenvalue 2: the order-2 equation reads 0*c2 = (obstruction)
print("x u' = x + 2u        (eigenvalue 2, no nonlinear term)")
family = classify(BBSystem(SmallMatrix([[ec(2)]]), [ec(1)],
                           [MultiSeries.zero(2, 10)]), order=10)
print("  kind:", family.kind)
print("  obstruction pbar =", family.obstructions["pbar"])
show_solution(family.solution, ("u",))
print()

print("x u' = x + 2u + x*u  (same eigenvalue, obstruction switched on)")
blocked = classify(BBSystem(SmallMatrix([[ec(2)]]), [ec(1)],
                            [MultiSeries(2, 10, {(1, 1): ec(1)})]), order=10)
print("  kind:", blocked.kind)
print("  obstruction pbar =", blocked.obstructions["pbar"],
      "| blocked at order", blocked.blocking_order)
print()

# --- the Jordan case ------------------------------------------------------------

# x u' = px + u + eps*v, x v' = rx + v: for r = 0 the family exists with the
# second component's leading coefficient forced to -p/eps
eps = ec(3)
print("Jordan pair at eigenvalue 1 with eps = 3, p = 2, r = 0")
jordan = classify(BBSystem(SmallMatrix([[ec(1), eps], [ec(0), ec(1)]]),
                           [ec(2), ec(0)],
                           [MultiSeries.zero(3, 10)] * 2), order=10)
print("  kind:", jordan.kind)
show_solution(jordan.solution, ("u", "v"))
print("  (v's leading coefficient is -p/eps = -2/3; u's order-1 slot is free)")
