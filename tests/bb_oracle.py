"""Independent undetermined-coefficients oracle for Briot-Bouquet systems.

Deliberately separate from the package implementation: solutions are plain
{order: coefficient} maps, compositions are hand-rolled convolutions, and the
order-k linear systems are eliminated directly.  The package's classify
must agree with this order-by-order recursion on kind, obstruction values,
free-parameter slots and coefficients.
"""

from bbcenter.series import ExactComplex

ZERO = ExactComplex(0)
ONE = ExactComplex(1)


def _mul(a, b, upto):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k > upto:
                continue
            out[k] = out.get(k, ZERO) + ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}


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
    """Exact RREF solve; returns (particular, free_cols) or ("inconsistent", w)
    with w the first nonzero impossible right-hand value."""
    n = len(rhs)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if not aug[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, n):
        if not aug[i][n].is_zero():
            return "inconsistent", aug[i][n]
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
        self.blocking_value = None


def oracle_classify(A_rows, px, terms, order):
    """Classify x y' = px*x + A y + f directly, order by order.

    ``terms``: one list per equation of (ExactComplex coeff, exponent tuple
    over (x, y1..yn)) with total degree >= 2.
    """
    n = len(px)
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
                total = total + coeff * val
            rhs.append(total)
        matrix = [[(ExactComplex(k) if i == j else ZERO) - A_rows[i][j]
                   for j in range(n)] for i in range(n)]
        solved, extra = _solve_linear(matrix, rhs)
        if solved == "inconsistent":
            result.kind = "no_solution"
            result.blocking_order = k
            result.rhs_at_resonance[k] = tuple(rhs)
            result.blocking_value = extra
            return result
        particular, free = solved, extra
        if free:
            result.rhs_at_resonance[k] = tuple(rhs)
            for col in free:
                result.free_slots.append((k, col))
        for i in range(n):
            if not particular[i].is_zero():
                sols[i][k] = particular[i]
        result.coefficients.append(tuple(particular))
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
