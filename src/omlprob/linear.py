"""Exact rational linear feasibility, optimization, vertex enumeration.

Everything runs over fractions.Fraction (arbitrary-precision, exact);
there is no floating point anywhere.  A system is one immutable
Polytope value.  On first use it is reduced, once, by rational
Gaussian elimination on the equalities to x = x0 + N t, so
optimization and vertex enumeration happen in the (usually much
smaller) space t of the remaining free directions.  with_premise adds
equalities by restricting the parent's reduction inside that t-space,
which gives exactly the reduction a from-scratch elimination would.
Optimization is a textbook two-phase simplex with Bland's rule, which
terminates on every input.  The module keeps no state between calls.

Intended for desk-scale instances (tens of variables); see the module
users for the size discipline.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)


class LinearError(Exception):
    pass


class Unbounded(LinearError):
    """The requested optimum or vertex set is unbounded."""


class Infeasible(LinearError):
    """Raised internally when optimizing an empty system."""


class CapExceeded(LinearError):
    """Vertex enumeration hit the cap; .vertices holds the partial list."""

    def __init__(self, vertices):
        self.vertices = vertices
        super().__init__("vertex cap exceeded (%d found)" % len(vertices))


class Polytope:
    """Equalities and inequalities (coeff . x <= rhs) over named variables.

    eqs and ineqs are tuples of ((coeffs...), rhs) rows in vars order,
    and index maps each variable name to its position.  A Polytope is
    never changed once built and compares by identity; its reduction
    is computed on first use and kept (see reduced).
    """

    def __init__(self, vars, eqs=(), ineqs=(), *, _parent=None):
        self.vars = tuple(vars)
        self.eqs = tuple(eqs)
        self.ineqs = tuple(ineqs)
        n = len(self.vars)
        for coeffs, _rhs in itertools.chain(self.eqs, self.ineqs):
            if len(coeffs) != n:
                raise LinearError("coefficient vector length mismatch")
        if _parent is None:
            self.index = {v: i for i, v in enumerate(self.vars)}
            if len(self.index) != n:
                raise LinearError("duplicate variable names")
        else:
            self.index = _parent.index
        self._parent = _parent

    @functools.cached_property
    def reduced(self):
        """The _Reduction of the system, or None when elimination alone
        shows it empty.  A with_premise child restricts its parent's
        reduction by the equalities it adds."""
        if self._parent is None:
            return _reduce(self.eqs, self.ineqs, len(self.vars))
        return _restrict(self._parent.reduced,
                         self.eqs[len(self._parent.eqs):])

    @functools.cached_property
    def sparse_eqs(self):
        """eqs with each row cut to its nonzero (index, coeff) terms."""
        return tuple((tuple((j, c) for j, c in enumerate(coeffs) if c), rhs)
                     for coeffs, rhs in self.eqs)


class SystemBuilder:
    """Accumulates constraints by variable name, then freezes a Polytope."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.vars)}
        self.eqs = []
        self.ineqs = []

    def _row(self, coeffs: dict):
        row = [ZERO] * len(self.vars)
        for name, c in coeffs.items():
            row[self._index[name]] += Fraction(c)
        return tuple(row)

    def add_eq(self, coeffs: dict, rhs):
        self.eqs.append((self._row(coeffs), Fraction(rhs)))

    def add_ineq(self, coeffs: dict, rhs):
        """coeff . x <= rhs"""
        self.ineqs.append((self._row(coeffs), Fraction(rhs)))

    def add_box(self, name, lo=ZERO, hi=ONE):
        self.add_ineq({name: 1}, hi)
        self.add_ineq({name: -1}, -Fraction(lo))

    def build(self) -> Polytope:
        return Polytope(self.vars, self.eqs, self.ineqs)


@dataclass(frozen=True)
class PolyInfo:
    """Feasibility/dimension report for a Polytope's solution set."""

    status: str                 # "empty" | "point" | "positive-dimensional"
    dim: int                    # -1 for empty
    witness: tuple | None       # one exact feasible point (vars order)
    vertices: tuple | None = None


@dataclass(frozen=True)
class Certification:
    """Outcome of certify_implied: exact optimum of the target's left side."""

    implied: bool
    optimum: Fraction
    argmax: tuple               # point attaining the optimum
    counterexample: tuple | None  # == argmax when not implied


def satisfies(sys: Polytope, point) -> bool:
    """Exact membership test: every constraint holds with zero tolerance."""
    point = tuple(Fraction(x) for x in point)
    for coeffs, rhs in sys.eqs:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in sys.ineqs:
        if sum(c * x for c, x in zip(coeffs, point)) > rhs:
            return False
    return True


# -- Gaussian elimination ------------------------------------------------


def _rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
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
        # row operations touch only the pivot row's nonzero columns
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


def solve_square(rows, rhs):
    """Unique solution of a square system, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    red, pivots = _rref(aug)
    if len(pivots) != n or n in pivots:
        return None
    sol = [ZERO] * n
    for i, col in enumerate(pivots):
        sol[col] = red[i][n]
    return tuple(sol)


class _Reduction(NamedTuple):
    """Equality-eliminated form: x = x0 + N t, with the inequalities as
    rows . t <= rhs.  basis holds the columns of N, one per free
    variable.  Each row is scaled by the absolute value of its first
    nonzero coefficient; parallel same-direction rows keep the tightest
    rhs at the first one's position, and all-zero rows are dropped."""

    x0: tuple
    basis: tuple
    rows: tuple
    rhs: tuple


def _solve_eqs(eqs, n):
    """Particular solution and nullspace basis of an equality system.

    Returns (x0, basis) with basis columns in x-space, or None when the
    equalities are inconsistent.
    """
    aug = [list(coeffs) + [rhs] for coeffs, rhs in eqs]
    red, pivots = _rref(aug)
    for row in red:
        if all(x == 0 for x in row[:n]) and row[n] != 0:
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
    return tuple(x0), tuple(basis)


def _functional(x0, basis, coeffs):
    """coeffs . x as const + obj . t, where x = x0 + N t and basis holds
    the columns of N; returns (const, obj)."""
    nz = [(j, c) for j, c in enumerate(coeffs) if c]
    return (sum(c * x0[j] for j, c in nz),
            tuple(sum(c * v[j] for j, c in nz) for v in basis))


def _project(x0, basis, rows):
    """Rows (coeffs, rhs) over x written as (obj, rhs') over t, where
    x = x0 + N t, so coeffs . x = rhs becomes obj . t = rhs'."""
    out = []
    for coeffs, rhs in rows:
        const, obj = _functional(x0, basis, coeffs)
        out.append((obj, rhs - const))
    return out


def _lift(x0, basis, t):
    """x0 + N t, with basis = the columns of N."""
    x = list(x0)
    for tv, v in zip(t, basis):
        if tv:
            for j, vj in enumerate(v):
                if vj:
                    x[j] += tv * vj
    return tuple(x)


def _with_rows(x0, basis, projected):
    """The _Reduction with t-space rows (row, rhs), deduplicated; None
    when a row reduces to 0 <= negative."""
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
            seen[key] = val  # an update keeps the key's first position
    return _Reduction(x0, basis, tuple(seen), tuple(seen.values()))


def _reduce(eqs, ineqs, n):
    """Equality elimination from scratch; None when elimination alone
    shows the system empty."""
    solved = _solve_eqs(eqs, n)
    if solved is None:
        return None
    x0, basis = solved
    return _with_rows(x0, basis, _project(x0, basis, ineqs))


def _restrict(red, extra_eqs):
    """red plus the x-space equalities extra_eqs, eliminated in red's
    t-space: t = t0 + M u solves the projected equalities, so
    x0' = x0 + N t0, N' = N M, and each row r . t <= b becomes
    (r M) . u <= b - r . t0.

    The free variables are those a from-scratch elimination picks, so
    x0', N', rows, rhs and row order all equal its result.
    """
    if red is None:
        return None
    solved = _solve_eqs(_project(red.x0, red.basis, extra_eqs),
                        len(red.basis))
    if solved is None:
        return None
    t0, M = solved
    zero = [ZERO] * len(red.x0)
    basis = tuple(_lift(zero, red.basis, m) for m in M)
    return _with_rows(_lift(red.x0, red.basis, t0), basis,
                      _project(t0, M, zip(red.rows, red.rhs)))


def propagate_unit_box(sys: Polytope, seed: dict):
    """Fixpoint propagation of sys.eqs assuming 0 <= x <= 1 everywhere.

    seed maps variable indices to pinned values.  Uses three sound
    rules per equality row: a single unknown is solved outright, and a
    residual equal to the row's interval minimum (or maximum) pins every
    unknown at the corresponding endpoint.  Returns the dict of forced
    values, or None when a contradiction proves the seeded system
    infeasible.  Incomplete by design: open questions go to the LP.
    """
    rows = sys.sparse_eqs
    known = dict(seed)
    if any(not 0 <= v <= 1 for v in known.values()):
        return None
    changed = True
    while changed:
        changed = False
        for terms, rhs in rows:
            r = rhs
            unknown = []
            for j, c in terms:
                v = known.get(j)
                if v is None:
                    unknown.append((j, c))
                else:
                    r -= c * v
            if not unknown:
                if r != 0:
                    return None
                continue
            lo = sum(c for _, c in unknown if c < 0)
            hi = sum(c for _, c in unknown if c > 0)
            if not lo <= r <= hi:
                return None
            if len(unknown) == 1:
                j, c = unknown[0]
                v = r / c
                if not 0 <= v <= 1:
                    return None
                known[j] = v
                changed = True
            elif r == lo:
                for j, c in unknown:
                    known[j] = ONE if c < 0 else ZERO
                changed = True
            elif r == hi:
                for j, c in unknown:
                    known[j] = ONE if c > 0 else ZERO
                changed = True
    return known


def functional_on(sys: Polytope, coeffs):
    """The functional coeffs . x written as const + obj . t in the
    equality-eliminated coordinates.

    An all-zero obj means the functional is constant (= const) on the
    affine hull of the solution set, which decides equality questions
    without any optimization.  Raises Infeasible on an empty system.
    """
    red = sys.reduced
    if red is None:
        raise Infeasible()
    return _functional(red.x0, red.basis, coeffs)


def with_premise(sys: Polytope, extra_eqs) -> Polytope:
    """sys plus extra equalities ((coeffs, rhs) in x-space).

    Equivalent to building the system from scratch, but the child's
    reduction is restricted from sys's in the small eliminated space,
    which makes premise sweeps cheap.
    """
    # premise rows are mostly zeros: convert only the other coefficients
    extra_eqs = tuple((tuple(Fraction(c) if c else ZERO for c in coeffs),
                       Fraction(rhs)) for coeffs, rhs in extra_eqs)
    return Polytope(sys.vars, sys.eqs + extra_eqs, sys.ineqs, _parent=sys)


# -- simplex -------------------------------------------------------------


def _simplex_max(rows, rhs, obj):
    """Maximize obj . t subject to rows . t <= rhs, t free.

    Returns (status, t, value) with status in "optimal", "unbounded",
    "infeasible".  Free variables are split t = u - v; Bland's rule
    guarantees termination.
    """
    m = len(rows)
    d = len(obj)
    if m == 0:
        if any(c != 0 for c in obj):
            return "unbounded", None, None
        return "optimal", tuple([ZERO] * d), ZERO

    ncols = 2 * d + m  # u, v, slacks; artificials appended as needed
    tab = []
    basis = []
    art_cols = []
    for i in range(m):
        row = [ZERO] * ncols
        sign = ONE if rhs[i] >= 0 else -ONE
        for j in range(d):
            row[j] = sign * rows[i][j]
            row[d + j] = -sign * rows[i][j]
        row[2 * d + i] = sign
        row.append(sign * rhs[i])
        tab.append(row)
        if sign == ONE:
            basis.append(2 * d + i)
        else:
            basis.append(None)  # artificial to be added
    for i in range(m):
        if basis[i] is None:
            for r in tab:
                r.insert(-1, ZERO)
            tab[i][-2] = ONE
            basis[i] = ncols
            art_cols.append(ncols)
            ncols += 1

    def pivot(tab, basis, obj_row, r, c):
        pv = tab[r][c]
        tab[r] = [x / pv for x in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        if obj_row[c] != 0:
            f = obj_row[c]
            for j in range(len(obj_row)):
                obj_row[j] -= f * tab[r][j]
        basis[r] = c

    def run(tab, basis, obj_row, col_limit):
        while True:
            enter = None
            for j in range(col_limit):
                if obj_row[j] < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            pivot(tab, basis, obj_row, leave, enter)

    if art_cols:
        # phase 1: minimize sum of artificials (maximize the negation)
        obj_row = [ZERO] * (ncols + 1)
        for c in art_cols:
            obj_row[c] = ONE
        for i in range(m):
            if basis[i] in art_cols:
                f = obj_row[basis[i]]
                obj_row = [x - f * y for x, y in zip(obj_row, tab[i])]
        run(tab, basis, obj_row, ncols)
        art_sum = sum(tab[i][-1] for i in range(m) if basis[i] in art_cols)
        if art_sum != 0:
            return "infeasible", None, None
        # drive remaining artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                piv_col = None
                for j in range(2 * d + m):
                    if j not in art_cols and tab[i][j] != 0:
                        piv_col = j
                        break
                if piv_col is not None:
                    dummy = [ZERO] * (ncols + 1)
                    pivot(tab, basis, dummy, i, piv_col)
        keep = [i for i in range(m) if basis[i] not in art_cols]
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]

    obj_row = [ZERO] * (ncols + 1)
    for j in range(d):
        obj_row[j] = -obj[j]
        obj_row[d + j] = obj[j]
    for i in range(len(tab)):
        if obj_row[basis[i]] != 0:
            f = obj_row[basis[i]]
            obj_row = [x - f * y for x, y in zip(obj_row, tab[i])]
    status = run(tab, basis, obj_row, 2 * d + m)  # artificials stay out
    if status == "unbounded":
        return "unbounded", None, None
    t = [ZERO] * d
    for i, b in enumerate(basis):
        if b < d:
            t[b] += tab[i][-1]
        elif b < 2 * d:
            t[b - d] -= tab[i][-1]
    return "optimal", tuple(t), sum(c * x for c, x in zip(obj, t))


def _feasible_point(red: _Reduction):
    """A feasible t, or None."""
    status, t, _ = _simplex_max(red.rows, red.rhs, [ZERO] * len(red.basis))
    return t if status == "optimal" else None


def _max_t(red: _Reduction, obj):
    status, t, val = _simplex_max(red.rows, red.rhs, obj)
    if status == "infeasible":
        raise Infeasible()
    if status == "unbounded":
        raise Unbounded()
    return val, t


# -- public operations ---------------------------------------------------


def _implicit_equalities(red: _Reduction):
    """Indices of inequality rows tight on the whole feasible set."""
    tight = []
    for i, (row, b) in enumerate(zip(red.rows, red.rhs)):
        try:
            val, _ = _max_t(red, [-c for c in row])  # val = -min(row . t)
        except Unbounded:
            continue
        if -val == b:
            tight.append(i)
    return tight


def solve(sys: Polytope) -> PolyInfo:
    """Exact feasibility status, affine dimension, and a witness point.

    The dimension is that of the affine hull of the feasible set:
    the equality kernel minus the rank of the implicit equalities among
    the inequalities.  The witness is the average of the per-coordinate
    extreme points (a relative-interior point for bounded systems),
    falling back to any feasible point in unbounded directions.
    """
    red = sys.reduced
    if red is None:
        return PolyInfo("empty", -1, None)
    d = len(red.basis)
    if d == 0:
        return PolyInfo("point", 0, red.x0)
    t0 = _feasible_point(red)
    if t0 is None:
        return PolyInfo("empty", -1, None)

    tight = _implicit_equalities(red)
    dim = d - len(_rref([red.rows[i] for i in tight])[0]) if tight else d

    points = []
    bounded = True
    for j in range(d):
        for sign in (ONE, -ONE):
            obj = [ZERO] * d
            obj[j] = sign
            try:
                _, t = _max_t(red, obj)
                points.append(t)
            except Unbounded:
                bounded = False
    if bounded and points:
        k = Fraction(1, len(points))
        witness_t = tuple(sum(p[j] for p in points) * k for j in range(d))
    else:
        witness_t = t0
    witness = _lift(red.x0, red.basis, witness_t)
    status = "point" if dim == 0 else "positive-dimensional"
    return PolyInfo(status, dim, witness)


def enumerate_vertices(sys: Polytope, cap: int = 10000):
    """All vertices of a bounded system, lexicographic by variable vector.

    Naive basis enumeration over the deduplicated inequality rows in the
    equality-reduced space.  Raises Unbounded if the feasible set has an
    unbounded direction, CapExceeded (with the partial, sorted list
    attached) if more than `cap` vertices exist.
    """
    red = sys.reduced
    if red is None:
        return []
    d = len(red.basis)
    if d == 0:
        return [red.x0]
    if _feasible_point(red) is None:
        return []
    for j in range(d):
        for sign in (ONE, -ONE):
            obj = [ZERO] * d
            obj[j] = sign
            _max_t(red, obj)  # raises Unbounded when appropriate

    found = set()
    rows, rhs = red.rows, red.rhs
    for combo in itertools.combinations(range(len(rows)), d):
        sol = solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if sol is None:
            continue
        ok = True
        for row, b in zip(rows, rhs):
            if sum(c * x for c, x in zip(row, sol)) > b:
                ok = False
                break
        if ok:
            found.add(sol)
            if len(found) > cap:
                raise CapExceeded(sorted(
                    _lift(red.x0, red.basis, t) for t in found)[:cap])
    return sorted(_lift(red.x0, red.basis, t) for t in found)


def maximize(sys: Polytope, coeffs, const=ZERO):
    """Exact maximum of coeffs . x + const over sys; (value, argmax).

    Raises Infeasible on an empty system, Unbounded when the objective
    is unbounded above.
    """
    red = sys.reduced
    if red is None:
        raise Infeasible()
    base, obj = _functional(red.x0, red.basis, coeffs)
    base += Fraction(const)
    if not red.basis:
        # all inequalities project to constants, already checked above
        return base, red.x0
    val, t = _max_t(red, obj)
    return base + val, _lift(red.x0, red.basis, t)


def certify_implied(sys: Polytope, coeffs, rhs) -> Certification:
    """Does coeffs . x <= rhs hold over the whole solution set of sys?

    Decided by exact maximization of the left side.  When the maximum
    exceeds rhs the maximizing point is a counterexample; otherwise the
    optimum value is the certificate.
    """
    rhs = Fraction(rhs)
    opt, point = maximize(sys, [Fraction(c) for c in coeffs])
    if opt <= rhs:
        return Certification(True, opt, point, None)
    return Certification(False, opt, point, point)
