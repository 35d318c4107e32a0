"""Numeric verification of the exact predictions.

Two checks: integrate the field for exactly one predicted period from points
on a computed manifold and measure the return error, and evaluate the
invariance condition of the truncated graph on shrinking circles to watch
the residual decay at the truncation order.  The period check uses Lawson
RK4, which carries the rotation of the linear part exactly.  Its first sweep
runs at steps c, c/2 and c/4 together, from c = min(period/4, 2/|A|), and
the step halves until two conditions hold at the finest run h: the
Richardson estimate E = max|z_2h - z_h| / 15 of its error is far below the
tolerance, and the ratio max|z_4h - z_2h| / max|z_2h - z_h| lies in
[8, 32], around the 16 of RK4's asymptotic range, so E can be trusted
(or E is at the rounding level of the starts).  ``integrate``, used for
the order table, is classical RK4.
"""

import math
from fractions import Fraction

from bbcenter import (ExactComplex, HoloSystem, MultiSeries, SmallMatrix,
                      check_isochronous, check_residual_numeric,
                      compile_field, enumerate_centers, integrate)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


I = ec(0, 1)

# --- RK4 order check on the rotation -------------------------------------------

print("RK4 on x' = ix over one full turn: error per step size")
rotation = HoloSystem(SmallMatrix([[I]]), [MultiSeries.zero(1, 4)])
step = 0.2
previous = None
for _ in range(7):
    end = integrate(rotation, [1.0], 2 * math.pi, step)
    err = abs(end[0] - 1.0)
    ratio = f"  (x{previous / err:5.1f} smaller)" if previous and err > 0 else ""
    print(f"  step {step:9.6f}: return error {err:.3e}{ratio}")
    previous = err
    step /= 2
print("  (the factor ~16 per halving is the classical 4th-order signature)")
print()

# --- period verification on an enumerated manifold -------------------------------

linear = SmallMatrix.diagonal([I, ec(0, 2), ec(1)])
rows = [MultiSeries(3, 10, {(0, 2, 0): ec(Fraction(1, 4))}),
        MultiSeries(3, 10, {(1, 0, 1): ec(Fraction(1, 8))}),
        MultiSeries(3, 10, {(2, 0, 0): ec(Fraction(-1, 4))})]
system = HoloSystem(linear, rows)
reports = [r for r in enumerate_centers(system, order=10)
           if r.multiplicity != "none"]
for r in reports:
    result = check_isochronous(system, r, starts=12, radius=1e-2)
    print(f"chart {'xyz'[r.chart]}: predicted period {result.predicted_period:.6f}")
    print(f"  max return error over 12 starts: {result.return_error:.3e}")
    print(f"  accepted RK4 step {result.step:.3g}, Richardson estimate of its "
          f"error {result.error_estimate:.3e}")
    print(f"  order check |z_4h - z_2h| / |z_2h - z_h|: {result.ratio:.2f} "
          f"(RK4's asymptotic 16; accepted in [8, 32])")
    print(f"  max invariance residual:         {result.residual_error:.3e}")
    print(f"  verdict: {'PASS' if result.passed else 'FAIL'}")
print()

# --- residual decay with the sampling radius --------------------------------------

# a short truncation keeps the decay visible above the rounding floor
short = [r for r in enumerate_centers(system, order=4)
         if r.multiplicity != "none"][0]
print(f"invariance residual of the order-4 graph on chart "
      f"{'xyz'[short.chart]}, by radius")
for radius in (1e-1, 1e-2, 1e-3):
    value = check_residual_numeric(compile_field(system), short, grid=12, radius=radius)
    print(f"  radius {radius:g}: {value:.3e}")
print("  (each decade of radius buys ~order+1 decades of residual,")
print("   down to the double-precision floor)")
