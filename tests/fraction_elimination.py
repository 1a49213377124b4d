"""The Fraction elimination that linear.py ran before its rows became
integers, kept as the reference for the integer one.

Rows here are dense: ((coeff, ...), rhs) over Fractions.  A reduction is
x = x0 + N t with the inequalities as rows . t <= rhs, each row scaled
by the absolute value of its first nonzero coefficient.  rational_form
writes an integer linear._Reduction in this form.
"""

from collections import namedtuple
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)

# the field names and the type name give the repr the digests hash
Reduction = namedtuple("_Reduction", "x0 basis rows rhs")


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots, r = [], 0
    for col in range(len(rows[0])):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[col]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] /= pv
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def solve_eqs(eqs, n):
    """(x0, basis, pivots) of an equality system, with basis columns in
    x-space; None when the equalities are inconsistent."""
    aug = [list(coeffs) + [rhs] for coeffs, rhs in eqs]
    red, pivots = rref(aug)
    if any(row[n] and not any(row[:n]) for row in red):
        return None
    free = [j for j in range(n) if j not in pivots]
    x0 = [ZERO] * n
    for i, col in enumerate(pivots):
        x0[col] = red[i][n]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for i, col in enumerate(pivots):
            v[col] = -red[i][f]
        basis.append(tuple(v))
    return tuple(x0), tuple(basis), pivots


def functional(x0, basis, coeffs):
    """coeffs . x as (const, obj) with coeffs . x = const + obj . t."""
    nz = [(j, c) for j, c in enumerate(coeffs) if c]
    return (sum(c * x0[j] for j, c in nz),
            tuple(sum(c * v[j] for j, c in nz) for v in basis))


def project(x0, basis, rows):
    """Rows (coeffs, rhs) over x as (obj, rhs') over t."""
    out = []
    for coeffs, rhs in rows:
        const, obj = functional(x0, basis, coeffs)
        out.append((obj, rhs - const))
    return out


def lift(x0, basis, t):
    """x0 + N t, with basis = the columns of N."""
    x = list(x0)
    for tv, v in zip(t, basis):
        if tv:
            for j, vj in enumerate(v):
                if vj:
                    x[j] += tv * vj
    return tuple(x)


def with_rows(x0, basis, projected):
    """The Reduction with t-space rows (row, rhs), deduplicated by their
    lead-scaled form; None when a row reduces to 0 <= negative."""
    seen = {}
    for row, b in projected:
        lead = next((x for x in row if x), None)
        if lead is None:
            if b < 0:
                return None
            continue
        scale = abs(lead)
        key = tuple(x / scale for x in row)
        val = b / scale
        if key not in seen or val < seen[key]:
            seen[key] = val
    return Reduction(x0, basis, tuple(seen), tuple(seen.values()))


def reduce(eqs, ineqs, n):
    """Equality elimination from scratch; None when it shows the system
    empty."""
    solved = solve_eqs(eqs, n)
    if solved is None:
        return None
    x0, basis, _pivots = solved
    return with_rows(x0, basis, project(x0, basis, ineqs))


def restrict(red, pins):
    """red plus the pins {j: v}, each x_j = v, eliminated in red's
    t-space."""
    if red is None:
        return None
    solved = solve_eqs([(tuple(v[j] for v in red.basis), b - red.x0[j])
                        for j, b in pins.items()], len(red.basis))
    if solved is None:
        return None
    t0, M, _pivots = solved
    zero = [ZERO] * len(red.x0)
    basis = tuple(lift(zero, red.basis, m) for m in M)
    return with_rows(lift(red.x0, red.basis, t0), basis,
                     project(t0, M, zip(red.rows, red.rhs)))


def dense(terms, n):
    """The coefficient vector of (index, coeff) terms over n places."""
    row = [0] * n
    for j, c in terms:
        row[j] = c
    return row


def rational_form(red):
    """An integer linear._Reduction as the Reduction above: x0 / den,
    N / den with N's rows turned into columns, and each row and rhs over
    the absolute value of its lead."""
    if red is None:
        return None
    rows, rhs = [], []
    for terms, b in red.rows:
        lead = abs(terms[0][1])
        rows.append(tuple(Fraction(c, lead) for c in dense(terms, red.d)))
        rhs.append(Fraction(b, lead))
    cols = [[0] * len(red.x0) for _k in range(red.d)]
    for j, row in enumerate(red.N):
        for k, c in row:
            cols[k][j] = c
    return Reduction(tuple(Fraction(x, red.den) for x in red.x0),
                     tuple(tuple(Fraction(v, red.den) for v in col)
                           for col in cols),
                     tuple(rows), tuple(rhs))
