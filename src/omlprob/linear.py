"""Exact rational linear feasibility, optimization, vertex enumeration.

Everything is exact: constraint rows, elimination and the simplex are
integers, fractions.Fraction appears only in the values given and
returned, and there is no floating point anywhere.  first_violation
checks a map's values against axiom rows the same way: on integers,
over the values' common denominator.  A system is one
immutable Polytope value.  Callers name variables: constraints,
objectives and premises are {variable name: value} dicts, which
_int_row alone turns into the integer rows used inside; it sums int
coefficients as ints, so they never become Fractions.  On first use
a system is reduced, once, by fraction-free Gaussian elimination on
the equalities to x = (x0 + N t) / den, so optimization and vertex
enumeration happen in the (usually much smaller) space t of the
remaining free directions.  N holds one sparse row of t-terms per
variable, in the same terms form as every row.  with_premise pins
variables (x_name = v) by that elimination run on the pins in the
parent's t-space, then one substitution per row of N: the reduction
a from-scratch elimination would give.

Optimization is a vertex simplex in t-space: its basis is d rows
tight at the current vertex, whose d x d inverse a pivot updates by
rank one, in O(m.d), with no tableau or slack columns.  A dual simplex
with zero objective finds one start vertex per Polytope (or proves it
empty), and the Polytope keeps it; each objective runs the primal
simplex from that vertex, so no result depends on earlier calls.
max_value returns the optimum alone; maximize also lifts the maximizer
back to x.  Both phases use Bland's rule and terminate.  Vertex
enumeration walks the bases those pivots reach from the start vertex:
from each basis, each slot relaxes and Bland's entering row takes its
place.  The module keeps no state between calls.

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
    """Equalities (terms . x = rhs) and inequalities (terms . x <= rhs).

    eqs and ineqs are tuples of (terms, rhs) rows: terms is a sorted
    tuple of (variable position, nonzero int) pairs and rhs an int, and
    index maps each variable name to its position.  A Polytope is never
    changed once built and compares by identity; its reduction is
    computed on first use and kept (see reduced).
    """

    def __init__(self, vars, eqs=(), ineqs=(), *, _premise=None):
        self.vars = tuple(vars)
        self.eqs = tuple(eqs)
        self.ineqs = tuple(ineqs)
        n = len(self.vars)
        for terms, _rhs in self.eqs + self.ineqs:
            if terms and not 0 <= terms[0][0] <= terms[-1][0] < n:
                raise LinearError("variable position out of range")
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
    def eqs_of_var(self):
        """For each variable, the positions of the eqs rows it is in."""
        rows = [[] for _ in self.vars]
        for i, (terms, _rhs) in enumerate(self.eqs):
            for j, _c in terms:
                rows[j].append(i)
        return tuple(map(tuple, rows))


def _int_row(index, terms, rhs=0):
    """The linear form of (name, coeff) terms, with the coefficients of
    a name that recurs summed, and its rhs, scaled by the least positive
    integer that makes every coefficient and rhs whole.  Returns (scale,
    terms, rhs): terms is a sorted tuple of (position in index, nonzero
    int) pairs and rhs an int.  An int or Fraction is summed as it is,
    any other value Fraction() takes is made a Fraction first."""
    row = {}
    for name, c in terms:
        c = c if type(c) in (int, Fraction) else Fraction(c)
        j = index[name]
        row[j] = row.get(j, 0) + c
    rhs = rhs if type(rhs) in (int, Fraction) else Fraction(rhs)
    scale = math.lcm(rhs.denominator, *(c.denominator for c in row.values()))
    return (scale,
            tuple(sorted((j, c.numerator * (scale // c.denominator))
                         for j, c in row.items() if c)),
            rhs.numerator * (scale // rhs.denominator))


class SystemBuilder:
    """Accumulates constraints by variable name, then freezes a Polytope."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.vars)}
        self.eqs = []
        self.ineqs = []

    def _row(self, terms, rhs):
        """The row (terms, rhs) of (name, coeff) terms (see _int_row)."""
        return _int_row(self._index, terms, rhs)[1:]

    def add_eq(self, coeffs: dict, rhs):
        self.eqs.append(self._row(coeffs.items(), rhs))

    def add_ineq(self, coeffs: dict, rhs):
        """coeff . x <= rhs"""
        self.ineqs.append(self._row(coeffs.items(), rhs))

    def add_box(self, name, lo=0, hi=1):
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
                            + [(v, 1) for p in minus for v in terms(p)],
                            next(pins) if const is None else const)
            (self.ineqs if le else self.eqs).append(row)

    def build(self) -> Polytope:
        return Polytope(self.vars, self.eqs, self.ineqs)


@dataclass(frozen=True)
class PolyInfo:
    """Feasibility/dimension report for a Polytope's solution set."""

    status: str                 # "empty" | "point" | "positive-dimensional"
    dim: int                    # -1 for empty
    witness: tuple | None       # one exact feasible point (vars order)


def first_violation(rows, values):
    """The first row that the values break, as (axiom, elements, lhs,
    rhs), or None when they keep them all.

    A row (axiom, elements, key, plus, minus, const, le) states
    values[key] = sum values[plus] - sum values[minus] + const, or <=
    when le is set, with const an int; lhs and rhs are its two sides.
    A row with const None, and no plus or minus terms, states that
    values[key] is 0 or 1: its sides are v (v - 1) and 0.  The same
    rows give linear constraints through SystemBuilder.add_rows.

    values is a dict from each key to a Fraction (or int).  The rows
    are checked on integers: den is the lcm of the values'
    denominators, once, and every value is scaled by it, so a row holds
    iff V[key] = sum V[plus] - sum V[minus] + const den, and a const
    None row iff V[key] is 0 or den.  Only a broken row's two sides
    become Fractions again, with the values the row has over Fractions.
    """
    den = math.lcm(*(v.denominator for v in values.values()))
    V = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
    for axiom, elems, key, plus, minus, const, le in rows:
        lhs = V[key]
        if const is None:
            if lhs and lhs != den:
                return (axiom, elems, Fraction(lhs * (lhs - den), den * den),
                        ZERO)
            continue
        rhs = const * den
        for p in plus:
            rhs += V[p]
        for p in minus:
            rhs -= V[p]
        if (lhs > rhs) if le else (lhs != rhs):
            return axiom, elems, Fraction(lhs, den), Fraction(rhs, den)
    return None


def satisfies(sys: Polytope, point) -> bool:
    """Exact membership test: every constraint holds with zero tolerance."""
    point = tuple(Fraction(x) for x in point)
    return (all(_dot(terms, point) == rhs for terms, rhs in sys.eqs)
            and all(_dot(terms, point) <= rhs for terms, rhs in sys.ineqs))


# -- fraction-free elimination -------------------------------------------


def _dot(terms, col):
    return sum(c * col[j] for j, c in terms)


def _eliminate(row, prow, p):
    """prow[p] row - row[p] prow, which is 0 in column p, divided by the
    gcd of its entries; rows are {column: nonzero int} dicts."""
    a, b = prow[p], row[p]
    out = {j: a * row.get(j, 0) - b * prow.get(j, 0)
           for j in row.keys() | prow.keys()}
    g = math.gcd(*out.values())  # 0 when every entry is
    return {j: c // g for j, c in out.items() if c}


def _solve_eqs(eqs, n):
    """x = (x0 + N t) / den for the (terms, rhs) rows over n variables.

    Returns (den, x0, N, d) with t_k the k-th of the d free variables
    and N[j] x_j's sparse row of t-terms, or None when the rows are
    inconsistent.  Gauss-Jordan on integers: a row is cleared in the
    pivot columns it meets, its least column becomes a pivot (positive),
    and that column is cleared in the other pivot rows, so they stay the
    reduced row echelon form up to positive scaling: a pivot's row in N
    holds its entries on free columns, free variable k's is ((k, den),).
    Rows are kept primitive, so gcd(den, x0, N) is 1 and the result is
    that of rational elimination, canonically.
    """
    pivots = {}  # pivot column: its row, with the rhs in column n
    for terms, rhs in eqs:
        row = dict(terms)
        if rhs:
            row[n] = rhs
        for p in [j for j in row if j in pivots]:
            row = _eliminate(row, pivots[p], p)
        if not row:
            continue
        p = min(row)
        if p == n:
            return None
        g = math.gcd(*row.values()) * (1 if row[p] > 0 else -1)
        if g != 1:
            row = {j: c // g for j, c in row.items()}
        for q, other in pivots.items():
            if p in other:
                pivots[q] = _eliminate(other, row, p)
        pivots[p] = row
    den = math.lcm(*(row[p] for p, row in pivots.items()))
    free = {f: k for k, f in enumerate(f for f in range(n) if f not in pivots)}
    # pivot row p reads x_p = (rhs - sum row[f] x_f) / row[p] over free f
    x0, N = [0] * n, [((free[j], den),) if j in free else () for j in range(n)]
    for p, row in pivots.items():
        s = den // row[p]
        x0[p] = row.get(n, 0) * s
        N[p] = tuple(sorted((free[f], -c * s) for f, c in row.items()
                            if f in free))
    return den, tuple(x0), tuple(N), len(free)


class _Reduction(NamedTuple):
    """Equality-eliminated form: x = (x0 + N t) / den over d free
    variables t, with the inequalities as rows (terms, rhs), terms . t
    <= rhs.  N[j] is x_j's row of t-terms, in the terms form of every
    row, and gcd(den, x0, N) = 1.  Each row is divided by the gcd of
    its terms and rhs; parallel same-direction rows keep the tightest
    at the first one's position, and all-zero rows are dropped."""

    den: int
    x0: tuple
    N: tuple
    d: int
    rows: tuple


def _substitute(terms, x0, N):
    """terms . x as const + obj . t, where x = x0 + N t: the sum of the
    rows c N[j] for (j, c) in terms; returns (const, obj terms)."""
    obj = {}
    for j, c in terms:
        for k, v in N[j]:
            obj[k] = obj.get(k, 0) + c * v
    return _dot(terms, x0), tuple(sorted((k, v) for k, v in obj.items() if v))


def _project(rows, den, x0, N):
    """Rows terms . x <= rhs over x = (x0 + N t) / den, as the rows
    obj . t <= den rhs - const over t (see _substitute)."""
    for terms, rhs in rows:
        const, obj = _substitute(terms, x0, N)
        yield obj, den * rhs - const


def _lift(red, t):
    """The point x = (x0 + N t) / den of red, at the rational t."""
    scale = math.lcm(*(tk.denominator for tk in t))
    T = [tk.numerator * (scale // tk.denominator) for tk in t]
    return tuple(Fraction(scale * v + _dot(row, T), scale * red.den)
                 for v, row in zip(red.x0, red.N))


def _with_rows(den, x0, N, d, rows):
    """The _Reduction with t-space rows (terms, rhs), deduplicated by
    their direction terms / gcd(terms); None when a row reduces to
    0 <= negative."""
    seen = {}  # direction: (rhs, gcd) of its tightest row
    for terms, b in rows:
        if not terms:
            if b < 0:
                return None
            continue
        g = math.gcd(*(c for _j, c in terms))
        key = terms if g == 1 else tuple((j, c // g) for j, c in terms)
        if key not in seen or b * seen[key][1] < seen[key][0] * g:
            seen[key] = (b, g)  # an update keeps the key's first position
    out = []
    for key, (b, g) in seen.items():
        h = math.gcd(g, b)
        out.append((tuple((j, c * (g // h)) for j, c in key), b // h))
    return _Reduction(den, x0, N, d, tuple(out))


def _reduce(eqs, ineqs, n):
    """Equality elimination from scratch; None when elimination alone
    shows the system empty."""
    solved = _solve_eqs(eqs, n)
    return None if solved is None else _with_rows(
        *solved, _project(ineqs, *solved[:3]))


def _restrict(red, pins):
    """red plus the pins {j: v}, each x_j = v, eliminated in red's
    t-space.  A pin is the row N[j] . t = den v - x0[j], made integer,
    and _reduce on those rows and red's rows gives t = (t0 + M u) / e
    with the rows over u.  Substituting it in each row of N gives x =
    (e x0 + N t0 + N M u) / (e den).

    The free variables are those a from-scratch elimination picks, so
    den, x0, N, rows and row order all equal its result.
    """
    if red is None:
        return None
    inner = _reduce([(tuple((k, c * v.denominator) for k, c in red.N[j]),
                      red.den * v.numerator - red.x0[j] * v.denominator)
                     for j, v in pins.items()], red.rows, red.d)
    if inner is None:
        return None
    subs = [_substitute(row, inner.x0, inner.N) for row in red.N]
    x0 = [inner.den * v + const for v, (const, _row) in zip(red.x0, subs)]
    g = math.gcd(inner.den * red.den, *x0,
                 *(c for _const, row in subs for _k, c in row))
    return inner._replace(
        den=inner.den * red.den // g, x0=tuple(v // g for v in x0),
        N=tuple(tuple((k, c // g) for k, c in row) for _const, row in subs))


def propagate_unit_box(sys: Polytope, seed: dict):
    """Fixpoint propagation of sys.eqs assuming 0 <= x <= 1 everywhere.

    seed maps variable names to pinned values.  Uses three sound
    rules per equality row: a single unknown is solved outright, and a
    residual equal to the row's interval minimum (or maximum) pins every
    unknown at the corresponding endpoint.  A worklist revisits only the
    rows of newly pinned variables; the rules are monotone, so the
    fixpoint is the same in any order.  Returns the forced values as
    {name: value}, seed first, ready for with_premise, or None when a
    contradiction proves the seeded system infeasible.  Incomplete by
    design: open questions go to the LP.

    Pinned values are ints where they are whole (nearly all are 0 or
    1), so with integer seeds each residual stays an integer.
    """
    rows, rows_of = sys.eqs, sys.eqs_of_var
    known = {sys.index[name]: v for name, v in seed.items()}
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
            # in [0, 1] by the interval test
            pinned = [(j, r // c if r % c == 0 else Fraction(r, c))]
        elif r == lo:
            pinned = [(j, 1 if c < 0 else 0) for j, c in unknown]
        elif r == hi:
            pinned = [(j, 1 if c > 0 else 0) for j, c in unknown]
        else:
            continue
        for j, v in pinned:
            known[j] = v
            for k in rows_of[j]:
                if not queued[k]:
                    queued[k] = True
                    queue.append(k)
    return {sys.vars[j]: v for j, v in known.items()}


def _objective(sys, coeffs):
    """The functional {name: coeff} on sys's reduction as (const + obj .
    t) / q, with const and the obj terms integers; returns (q, const,
    obj).  Raises Infeasible when elimination shows sys empty."""
    red = sys.reduced
    if red is None:
        raise Infeasible()
    scale, terms, _rhs = _int_row(sys.index, coeffs.items())
    return (scale * red.den,) + _substitute(terms, red.x0, red.N)


def functional_on(sys: Polytope, coeffs: dict):
    """The functional sum coeffs[name] x_name, for coeffs a dict {variable
    name: coefficient}, written as const + (obj . t) / q in the
    equality-eliminated coordinates, as (const, obj): obj holds the
    nonzero integer terms (k, c), and q > 0 is left out.

    An empty obj means the functional is constant (= const) on the
    affine hull of the solution set, which decides equality questions
    without any optimization.  Raises Infeasible on an empty system.
    """
    q, const, obj = _objective(sys, coeffs)
    return Fraction(const, q), obj


def with_premise(sys: Polytope, pins: dict) -> Polytope:
    """sys plus the pins {variable name: value}, each x_name = v.

    The child's eqs gain one unit row per pin, so it is the system a
    from-scratch build would give; its reduction is restricted from
    sys's in the small eliminated space, at O(d) per pin, which makes
    premise sweeps cheap.
    """
    pins = {sys.index[name]: Fraction(v) for name, v in pins.items()}
    units = tuple((((j, v.denominator),), v.numerator)
                  for j, v in pins.items())
    return Polytope(sys.vars, sys.eqs + units, sys.ineqs,
                    _premise=(sys, pins))


# -- simplex in the reduced space ----------------------------------------


class _Basis:
    """d rows of rows . t <= rhs, and the vertex t where they are tight.

    Everything is an integer, as the reduction's rows are.  basis[k] is
    the row in slot k, or None for a pin t_k = 0 on a direction no row
    bounds.  det is the determinant of the basis rows and adj[k] is
    column k of det times their inverse, so row basis[l] . adj[k] =
    det * (k == l).  The vertex is t = num / det, and slack[r] = det *
    (rhs[r] - rows[r] . t).  A pivot updates all of it by rank one with
    exact integer division (Bareiss), in O(m.d) operations.
    """

    def __init__(self, red: _Reduction):
        d = red.d
        self.terms = [terms for terms, _b in red.rows]
        self.basis = [None] * d
        self.det = 1
        self.adj = [[int(j == k) for j in range(d)] for k in range(d)]
        self.num = [0] * d
        self.slack = [b for _terms, b in red.rows]

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
    """Maximize obj . t over the rows of start, for integer obj terms;
    (value, the _Basis at a maximizer t = its point()).

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
    for col in b.adj:
        col.append(_dot(obj, col))
    if any(col[d] for k, col in enumerate(b.adj) if b.basis[k] is None):
        raise Unbounded()  # obj is not constant along a line of the set
    while True:
        sign = 1 if b.det > 0 else -1
        out = [k for k, col in enumerate(b.adj) if col[d] * sign < 0]
        if not out:
            return Fraction(_dot(obj, b.num), b.det), b
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
    for terms, b in red.rows:
        try:  # -min(terms . t)
            val, opt = _max_t(sys.start, [(j, -c) for j, c in terms])
        except Unbounded:
            points = None
            continue
        if -val == b:
            tight.append((terms, b))
        elif points is not None:
            points.append(opt.point())
    d = red.d
    dim = _solve_eqs(tight, d)[3]  # the free directions they leave
    if points:
        k = Fraction(1, len(points))
        witness_t = tuple(sum(p[j] for p in points) * k for j in range(d))
    else:
        witness_t = sys.start.point()
    status = "point" if dim == 0 else "positive-dimensional"
    return PolyInfo(status, dim, _lift(red, witness_t))


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
            raise CapExceeded(sorted(_lift(red, t) for t in found)[:cap])
    return sorted(_lift(red, t) for t in found)


def _optimum(sys: Polytope, coeffs: dict):
    """maximize's value, and the _Basis where the simplex reached it."""
    q, const, obj = _objective(sys, coeffs)
    val, b = _max_t(sys.start, obj)
    return (const + val) / q, b


def max_value(sys: Polytope, coeffs: dict):
    """maximize's value alone, with no argmax lifted back to x; raises
    as maximize does."""
    return _optimum(sys, coeffs)[0]


def maximize(sys: Polytope, coeffs: dict):
    """Exact maximum of sum coeffs[name] x_name over sys, for coeffs a
    dict {variable name: coefficient}; (value, argmax), with the argmax
    in sys.vars order.

    Raises Infeasible on an empty system, Unbounded when the objective
    is unbounded above.
    """
    val, b = _optimum(sys, coeffs)
    return val, _lift(sys.reduced, b.point())
