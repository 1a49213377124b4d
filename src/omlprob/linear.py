"""Exact rational linear feasibility, optimization, vertex enumeration.

Everything is exact: fractions.Fraction, and integers inside the
simplex; there is no floating point anywhere.  A system is one immutable
Polytope value.  On first use it is reduced, once, by rational
Gaussian elimination on the equalities to x = x0 + N t, so
optimization and vertex enumeration happen in the (usually much
smaller) space t of the remaining free directions.  with_premise pins
variables (x_j = v) by restricting the parent's reduction inside that
t-space, with the reduction a from-scratch elimination would give.

Optimization is a vertex simplex in t-space: its basis is d rows
tight at the current vertex, whose d x d inverse a pivot updates by
rank one, in O(m.d), with no tableau or slack columns.  A dual simplex
with zero objective finds one start vertex per Polytope (or proves it
empty), and the Polytope keeps it; each objective runs the primal
simplex from that vertex, so no result depends on earlier calls.  Both
use Bland's rule and terminate.  Vertex enumeration walks the bases
those pivots reach from the start vertex: from each basis, each slot
relaxes and Bland's entering row takes its place.  The module keeps no
state between calls.

Intended for desk-scale instances (tens of variables); see the module
users for the size discipline.
"""

from __future__ import annotations

import collections
import copy
import functools
import math
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
        super().__init__("more than %d vertices" % len(vertices))


class Polytope:
    """Equalities and inequalities (coeff . x <= rhs) over named variables.

    eqs and ineqs are tuples of ((coeffs...), rhs) rows in vars order,
    and index maps each variable name to its position.  A Polytope is
    never changed once built and compares by identity; its reduction
    is computed on first use and kept (see reduced).
    """

    def __init__(self, vars, eqs=(), ineqs=(), *, _premise=None):
        self.vars = tuple(vars)
        self.eqs = tuple(eqs)
        self.ineqs = tuple(ineqs)
        n = len(self.vars)
        for coeffs, _rhs in self.eqs + self.ineqs:
            if len(coeffs) != n:
                raise LinearError("coefficient vector length mismatch")
        if _premise is None:
            self.index = {v: i for i, v in enumerate(self.vars)}
            if len(self.index) != n:
                raise LinearError("duplicate variable names")
        else:
            self.index = _premise[0].index
        self._premise = _premise  # (parent, pins) of a with_premise child

    @functools.cached_property
    def reduced(self):
        """The _Reduction of the system, or None when elimination alone
        shows it empty.  A with_premise child restricts its parent's
        reduction by its pins."""
        if self._premise is None:
            return _reduce(self.eqs, self.ineqs, len(self.vars))
        parent, pins = self._premise
        return _restrict(parent.reduced, pins)

    @functools.cached_property
    def start(self):
        """The _Basis every maximization starts from, or None when the
        system is empty; found once, on first use, by phase 1."""
        red = self.reduced
        return None if red is None else _start_vertex(red)

    @functools.cached_property
    def sparse_eqs(self):
        """eqs with each row cut to its nonzero (index, coeff) terms."""
        return tuple((tuple((j, c) for j, c in enumerate(coeffs) if c), rhs)
                     for coeffs, rhs in self.eqs)

    @functools.cached_property
    def eqs_of_var(self):
        """For each variable, the positions of the sparse_eqs rows it
        occurs in."""
        rows = [[] for _ in self.vars]
        for i, (terms, _rhs) in enumerate(self.sparse_eqs):
            for j, _c in terms:
                rows[j].append(i)
        return tuple(map(tuple, rows))


class SystemBuilder:
    """Accumulates constraints by variable name, then freezes a Polytope."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.vars)}
        self.eqs = []
        self.ineqs = []

    def _row(self, terms):
        """The coefficient vector of (name, coeff) terms; the
        coefficients of a name that recurs are summed."""
        row = [ZERO] * len(self.vars)
        for name, c in terms:
            row[self._index[name]] += Fraction(c)
        return tuple(row)

    def add_eq(self, coeffs: dict, rhs):
        self.eqs.append((self._row(coeffs.items()), Fraction(rhs)))

    def add_ineq(self, coeffs: dict, rhs):
        """coeff . x <= rhs"""
        self.ineqs.append((self._row(coeffs.items()), Fraction(rhs)))

    def add_box(self, name, lo=ZERO, hi=ONE):
        self.add_ineq({name: 1}, hi)
        self.add_ineq({name: -1}, -Fraction(lo))

    def add_rows(self, rows, terms, pins=()):
        """Axiom rows (see first_violation) as constraints, in order:
        an equality per row, or coeff . x <= rhs for a row with le set.
        terms(key) names the variables whose sum is value(key), and a
        row with const None takes the next value of pins as its rhs."""
        pins = iter(pins)
        for _axiom, _elems, key, plus, minus, const, le in rows:
            row = self._row([(v, 1) for v in terms(key)]
                            + [(v, -1) for p in plus for v in terms(p)]
                            + [(v, 1) for p in minus for v in terms(p)])
            rhs = Fraction(next(pins) if const is None else const)
            (self.ineqs if le else self.eqs).append((row, rhs))

    def build(self) -> Polytope:
        return Polytope(self.vars, self.eqs, self.ineqs)


@dataclass(frozen=True)
class PolyInfo:
    """Feasibility/dimension report for a Polytope's solution set."""

    status: str                 # "empty" | "point" | "positive-dimensional"
    dim: int                    # -1 for empty
    witness: tuple | None       # one exact feasible point (vars order)


def first_violation(rows, value):
    """The first row that value breaks, as (axiom, elements, lhs, rhs),
    or None when it keeps them all.

    A row (axiom, elements, key, plus, minus, const, le) states
    value(key) = sum value(plus) - sum value(minus) + const, or <= when
    le is set; lhs and rhs are its two sides.  A row with const None
    states that value(key) is 0 or 1: its sides are v (v - 1) and 0.
    The same rows give linear constraints through
    SystemBuilder.add_rows.
    """
    for axiom, elems, key, plus, minus, const, le in rows:
        lhs = value(key)
        if const is None:
            lhs, rhs = lhs * (lhs - ONE), ZERO
        elif plus:  # start from the first term: no "0 +" on most rows
            rhs = value(plus[0])
            for p in plus[1:]:
                rhs += value(p)
            if const:
                rhs += const
        else:
            rhs = const
        for p in minus:
            rhs -= value(p)
        if (lhs > rhs) if le else (lhs != rhs):
            return axiom, elems, lhs, rhs
    return None


def satisfies(sys: Polytope, point) -> bool:
    """Exact membership test: every constraint holds with zero tolerance."""
    point = tuple(Fraction(x) for x in point)
    for coeffs, rhs in sys.eqs:
        if sum(c * x for c, x in zip(coeffs, point) if c) != rhs:
            return False
    for coeffs, rhs in sys.ineqs:
        if sum(c * x for c, x in zip(coeffs, point) if c) > rhs:
            return False
    return True


# -- Gaussian elimination ------------------------------------------------


def _rref(rows):
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


def _restrict(red, pins):
    """red plus the pins {j: v}, each x_j = v, eliminated in red's
    t-space.  A pin is the t-space row (N[j][k] for each k) with rhs
    v - x0[j]; t = t0 + M u solves those rows, so x0' = x0 + N t0,
    N' = N M, and each row r . t <= b becomes (r M) . u <= b - r . t0.

    The free variables are those a from-scratch elimination picks, so
    x0', N', rows, rhs and row order all equal its result.
    """
    if red is None:
        return None
    solved = _solve_eqs([(tuple(v[j] for v in red.basis), b - red.x0[j])
                         for j, b in pins.items()], len(red.basis))
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
    unknown at the corresponding endpoint.  A worklist revisits only the
    rows of newly pinned variables; the rules are monotone, so the
    fixpoint is the same in any order.  Returns the dict of forced
    values, or None when a contradiction proves the seeded system
    infeasible.  Incomplete by design: open questions go to the LP.
    """
    rows, rows_of = sys.sparse_eqs, sys.eqs_of_var
    known = dict(seed)
    if any(not 0 <= v <= 1 for v in known.values()):
        return None
    queue = collections.deque(range(len(rows)))
    queued = [True] * len(rows)
    while queue:
        i = queue.popleft()
        queued[i] = False
        terms, r = rows[i]
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
            pinned = [(j, r / c)]  # in [0, 1] by the interval test
        elif r == lo:
            pinned = [(j, ONE if c < 0 else ZERO) for j, c in unknown]
        elif r == hi:
            pinned = [(j, ONE if c > 0 else ZERO) for j, c in unknown]
        else:
            continue
        for j, v in pinned:
            known[j] = v
            for k in rows_of[j]:
                if not queued[k]:
                    queued[k] = True
                    queue.append(k)
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


def with_premise(sys: Polytope, pins: dict) -> Polytope:
    """sys plus the pins {variable index: value}, each x_j = v.

    The child's eqs gain one unit row per pin, so it is the system a
    from-scratch build would give; its reduction is restricted from
    sys's in the small eliminated space, at O(d) per pin, which makes
    premise sweeps cheap.
    """
    pins = {j: Fraction(v) for j, v in pins.items()}
    zero = (ZERO,) * len(sys.vars)
    units = tuple((zero[:j] + (ONE,) + zero[j + 1:], v)
                  for j, v in pins.items())
    return Polytope(sys.vars, sys.eqs + units, sys.ineqs,
                    _premise=(sys, pins))


# -- simplex in the reduced space ----------------------------------------


def _dot(terms, col):
    return sum(c * col[j] for j, c in terms)


class _Basis:
    """d rows of rows . t <= rhs, and the vertex t where they are tight.

    Everything is an integer: each row is scaled by a positive factor
    to integer terms and rhs, which changes neither the feasible set
    nor any pivot choice.  basis[k] is the row in slot k, or None for a
    pin t_k = 0 on a direction no row bounds.  det is the determinant
    of the basis rows and adj[k] is column k of det times their
    inverse, so row basis[l] . adj[k] = det * (k == l).  The vertex is
    t = num / det, and slack[r] = det * (rhs[r] - rows[r] . t).  A
    pivot updates all of it by rank one with exact integer division
    (Bareiss), in O(m.d) operations.
    """

    def __init__(self, red: _Reduction):
        d = len(red.basis)
        self.terms, self.rhs = [], []
        for row, b in zip(red.rows, red.rhs):
            scale = math.lcm(b.denominator, *(x.denominator for x in row))
            self.terms.append(tuple((j, int(x * scale))
                                    for j, x in enumerate(row) if x))
            self.rhs.append(int(b * scale))
        self.basis = [None] * d
        self.det = 1
        self.adj = [[int(j == k) for j in range(d)] for k in range(d)]
        self.num = [0] * d
        self.slack = list(self.rhs)

    def copy(self):
        other = copy.copy(self)
        other.basis = list(self.basis)
        other.adj = [list(col) for col in self.adj]
        return other

    def point(self):
        return tuple(Fraction(x, self.det) for x in self.num)

    def column(self, k):
        """rows . adj[k]: det times the rate at which each row's left
        side grows as t moves along column k of the inverse."""
        col = self.adj[k]
        return [_dot(terms, col) for terms in self.terms]

    def pivot(self, k, e, gamma):
        """Swap row e into slot k and move to the new vertex, where row
        e is tight.  gamma is self.column(k).  Entries of a column past
        the first d (an objective's multiplier) are carried along."""
        det, adj, colk = self.det, self.adj, self.adj[k]
        alpha = [_dot(self.terms[e], col) for col in adj]
        piv, s = alpha[k], self.slack[e]  # piv: the new determinant
        self.num = [(piv * x + s * y) // det for x, y in zip(self.num, colk)]
        self.slack = [(piv * x - s * g) // det
                      for x, g in zip(self.slack, gamma)]
        for j, a in enumerate(alpha):
            if j != k:
                adj[j] = [(piv * x - a * y) // det
                          for x, y in zip(adj[j], colk)]
        self.det = piv
        self.basis[k] = e


def _start_vertex(red: _Reduction):
    """A _Basis at a vertex of red's rows, or None when they have no
    solution.

    The first d independent rows replace pins, each in the first pin
    slot it is independent of.  Phase 1 then runs a dual simplex with
    zero objective, for which every basis is dual feasible: it swaps in
    the first violated row by Bland's rule.  A violated row that no
    basis row can make room for is a Farkas certificate: it is a
    nonnegative combination of basis rows whose rhs is too small.
    """
    b = _Basis(red)
    for e, terms in enumerate(b.terms):
        pins = [k for k, i in enumerate(b.basis) if i is None]
        if not pins:
            break
        k = next((k for k in pins if _dot(terms, b.adj[k])), None)
        if k is not None:
            b.pivot(k, e, b.column(k))
    while True:
        sign = 1 if b.det > 0 else -1
        e = next((e for e, x in enumerate(b.slack) if x * sign < 0), None)
        if e is None:
            return b
        room = [k for k, col in enumerate(b.adj) if b.basis[k] is not None
                and _dot(b.terms[e], col) * sign > 0]
        if not room:
            return None
        k = min(room, key=b.basis.__getitem__)
        b.pivot(k, e, b.column(k))


def _entering(b: _Basis, gamma):
    """The row that enters as slot k of b relaxes (gamma = b.column(k)):
    the least ratio slack[r] / -gamma[r], ties to the lowest index, as
    Bland's rule takes it.  Raises Unbounded when no row bounds the
    move."""
    sign, e = (1 if b.det > 0 else -1), None
    for r, g in enumerate(gamma):  # r before e if its ratio is less
        if g * sign < 0 and (e is None
                             or b.slack[r] * gamma[e] > b.slack[e] * g):
            e = r
    if e is None:
        raise Unbounded()
    return e


def _max_t(start: _Basis, obj):
    """Maximize obj . t over the rows of start; (value, t).

    The primal simplex over bases of tight rows, from start.  The
    leaving row is the lowest-index basis row with a negative
    multiplier, and the entering row wins ratio ties by lowest index:
    Bland's rule on the slack form, so it terminates.  Each column of
    adj carries det times obj's multiplier for its row as a last entry.
    """
    if start is None:
        raise Infeasible()
    b = start.copy()
    d = len(b.num)
    scale = math.lcm(*(c.denominator for c in obj))
    terms = tuple((j, int(c * scale)) for j, c in enumerate(obj) if c)
    for col in b.adj:
        col.append(_dot(terms, col))
    if any(col[d] for k, col in enumerate(b.adj) if b.basis[k] is None):
        raise Unbounded()  # obj is not constant along a line of the set
    while True:
        sign = 1 if b.det > 0 else -1
        out = [k for k, col in enumerate(b.adj) if col[d] * sign < 0]
        if not out:
            t = b.point()
            return sum(c * x for c, x in zip(obj, t)), t
        k = min(out, key=b.basis.__getitem__)
        gamma = b.column(k)
        b.pivot(k, _entering(b, gamma), gamma)


# -- public operations ---------------------------------------------------


def solve(sys: Polytope) -> PolyInfo:
    """Exact feasibility status, affine dimension, and a witness point.

    The dimension is that of the affine hull of the feasible set:
    the equality kernel minus the rank of the implicit equalities among
    the inequalities.  The witness is the mean of one minimiser of each
    inequality that is not an implicit equality, so each of those holds
    strictly at it: a relative-interior point.  When some inequality is
    unbounded below the witness is the start vertex instead.
    """
    red = sys.reduced
    if sys.start is None:
        return PolyInfo("empty", -1, None)
    tight, points = [], []  # implicit equalities; minimisers of the rest
    for i, (row, b) in enumerate(zip(red.rows, red.rhs)):
        try:
            val, t = _max_t(sys.start, [-c for c in row])  # -min(row . t)
        except Unbounded:
            points = None
            continue
        if -val == b:
            tight.append(i)
        elif points is not None:
            points.append(t)
    d = len(red.basis)
    dim = d - len(_rref([red.rows[i] for i in tight])[0]) if tight else d
    if points:
        k = Fraction(1, len(points))
        witness_t = tuple(sum(p[j] for p in points) * k for j in range(d))
    else:
        witness_t = sys.start.point()
    witness = _lift(red.x0, red.basis, witness_t)
    status = "point" if dim == 0 else "positive-dimensional"
    return PolyInfo(status, dim, witness)


def enumerate_vertices(sys: Polytope, cap: int = 10000):
    """All vertices of a bounded system, lexicographic by variable vector.

    A walk over bases from the start vertex: each slot of each basis
    relaxes in turn, and a copy makes the simplex's pivot, swapping in
    the row _entering picks, unless that row set was seen.  Raises
    Unbounded if the rows leave a line or a relaxed slot meets no row,
    CapExceeded (with the partial, sorted list attached) if more than
    `cap` vertices exist.
    """
    red, start = sys.reduced, sys.start
    if start is None:
        return []
    # Every vertex is met: for an objective inside its normal cone,
    # Bland's simplex from start ends there.  Each of its pivots depends
    # only on the basis's row set and the row that leaves, and the walk
    # relaxes every slot of every row set it reaches, so it takes every
    # pivot of that run.  So too for an objective that grows along an
    # unbounded direction: its run ends at a slot no row bounds.
    found, seen, stack = set(), {frozenset(start.basis)}, [start]
    while stack:
        b = stack.pop()
        for k, leaving in enumerate(b.basis):
            gamma = b.column(k)
            e = _entering(b, gamma)  # Unbounded at a pin: rows leave a line
            key = frozenset(b.basis) - {leaving} | {e}
            if key not in seen:
                seen.add(key)
                nxt = b.copy()
                nxt.pivot(k, e, gamma)
                stack.append(nxt)
        found.add(b.point())
        if len(found) > cap:
            raise CapExceeded(sorted(
                _lift(red.x0, red.basis, t) for t in found)[:cap])
    return sorted(_lift(red.x0, red.basis, t) for t in found)


def maximize(sys: Polytope, coeffs):
    """Exact maximum of coeffs . x over sys; (value, argmax).

    Raises Infeasible on an empty system, Unbounded when the objective
    is unbounded above.
    """
    red = sys.reduced
    if red is None:
        raise Infeasible()
    base, obj = _functional(red.x0, red.basis, coeffs)
    val, t = _max_t(sys.start, obj)
    return Fraction(base + val), _lift(red.x0, red.basis, t)
