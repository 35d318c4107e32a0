"""Independent undetermined-coefficients oracle for Briot-Bouquet systems.

Deliberately separate from the package implementation: scalars are plain
(re, im) pairs of ``Fraction``s with hand-written complex arithmetic,
solutions are {order: coefficient} maps, compositions are hand-rolled
convolutions, and the order-k linear systems are eliminated directly.
``ExactComplex`` appears only at the boundary: inputs are read through
``.re``/``.im``, and every value the oracle returns is rebuilt as one, so
results compare with the package's by ``==`` and ``str``.  The package's
classify must agree with this order-by-order recursion on kind, obstruction
values, free-parameter slots and coefficients.
"""

from fractions import Fraction

from bbcenter.series import ExactComplex

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def _plain(value):
    return (value.re, value.im)


def _exact(value):
    return ExactComplex(*value)


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _times(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _inverse(p):
    norm = p[0] * p[0] + p[1] * p[1]
    return (p[0] / norm, -p[1] / norm)


def _mul(a, b, upto):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k > upto:
                continue
            out[k] = _add(out.get(k, ZERO), _times(ca, cb))
    return {k: c for k, c in out.items() if c != ZERO}


def _term_value(exps, sols, upto):
    """Series of x^e0 * y1^e1 * ... along the current partial solution."""
    acc = {exps[0]: ONE}
    for j, e in enumerate(exps[1:]):
        for _ in range(e):
            acc = _mul(acc, sols[j], upto)
            if not acc:
                return acc
    return acc


def _solve_linear(matrix, rhs):
    """Exact RREF solve; returns (particular, free_cols), or
    ("inconsistent", None) when some right-hand value cannot be met."""
    n = len(rhs)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if aug[i][col] != ZERO:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = _inverse(aug[r][col])
        aug[r] = [_times(v, inv) for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != ZERO:
                f = aug[i][col]
                aug[i] = [_sub(a, _times(f, b)) for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[i][n] != ZERO for i in range(r, n)):
        return "inconsistent", None
    sol = [ZERO] * n
    for row, col in enumerate(pivots):
        sol[col] = aug[row][n]
    free = [c for c in range(n) if c not in pivots]
    return sol, free


class OracleResult:
    def __init__(self):
        self.kind = None
        self.coefficients = []          # per order k: tuple of values
        self.free_slots = []            # (order, variable)
        self.blocking_order = None
        self.rhs_at_resonance = {}      # order -> tuple rhs values


def oracle_classify(A_rows, px, terms, order):
    """Classify x y' = px*x + A y + f directly, order by order.

    ``terms``: one list per equation of (ExactComplex coeff, exponent tuple
    over (x, y1..yn)) with total degree >= 2.  ``A_rows`` and ``px`` hold
    ExactComplex values too; the values returned are ExactComplex.
    """
    n = len(px)
    A_rows = [[_plain(v) for v in row] for row in A_rows]
    px = [_plain(v) for v in px]
    terms = [[(_plain(c), e) for c, e in row] for row in terms]
    sols = [{} for _ in range(n)]
    result = OracleResult()
    for k in range(1, order + 1):
        rhs = []
        for i in range(n):
            total = px[i] if k == 1 else ZERO
            for coeff, exps in terms[i]:
                if sum(exps) > k:
                    continue
                val = _term_value(exps, sols, k).get(k, ZERO)
                total = _add(total, _times(coeff, val))
            rhs.append(total)
        matrix = [[_sub((Fraction(k), Fraction(0)) if i == j else ZERO, A_rows[i][j])
                   for j in range(n)] for i in range(n)]
        solved, free = _solve_linear(matrix, rhs)
        if solved == "inconsistent":
            result.kind = "no_solution"
            result.blocking_order = k
            result.rhs_at_resonance[k] = tuple(map(_exact, rhs))
            return result
        if free:
            result.rhs_at_resonance[k] = tuple(map(_exact, rhs))
            for col in free:
                result.free_slots.append((k, col))
        for i in range(n):
            if solved[i] != ZERO:
                sols[i][k] = solved[i]
        result.coefficients.append(tuple(map(_exact, solved)))
    result.kind = "family" if result.free_slots else "unique"
    return result


def to_oracle(bb):
    """The arguments of ``oracle_classify`` read off a package ``BBSystem``."""
    A_rows = [[bb.A.entry(i, j) for j in range(bb.n)] for i in range(bb.n)]
    terms = [[(c, e) for e, c in row.terms.items()] for row in bb.nonlinear]
    return A_rows, list(bb.px), terms


def oracle_witnesses(want):
    """The witness names the package must use for the oracle's right-hand
    sides: pbar/rbar and phat/rhat on rows 0-1 of the first two resonant
    orders, r{k}[{i}] everywhere else."""
    names = (("pbar", "rbar"), ("phat", "rhat"))
    out = {}
    for ordinal, k in enumerate(sorted(want.rhs_at_resonance)):
        for i, value in enumerate(want.rhs_at_resonance[k]):
            out[names[ordinal][i] if ordinal < 2 and i < 2 else f"r{k}[{i}]"] = value
    return out
