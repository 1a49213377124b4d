import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlprob import lattice, linear
from omlprob.analysis import _smap_system_with_pseudometric, bell1_state
from omlprob.bimaps import (dmap_system, gmap_system, jmap_system, pair_var,
                            smap_system)
from omlprob.linear import (
    CapExceeded,
    Infeasible,
    Polytope,
    SystemBuilder,
    Unbounded,
    enumerate_vertices,
    functional_on,
    max_value,
    max_values,
    maximize,
    propagate_unit_box,
    satisfies,
    solve,
    with_premise,
)
from omlprob.states import state_system
import fraction_checker
import fraction_elimination as reference
import int_row_reference

F = Fraction


def unit_square():
    sb = SystemBuilder(["x", "y"])
    sb.add_box("x")
    sb.add_box("y")
    return sb.build()


def triangle():
    # x, y >= 0, x + y <= 1
    sb = SystemBuilder(["x", "y"])
    sb.add_ineq({"x": -1}, 0)
    sb.add_ineq({"y": -1}, 0)
    sb.add_ineq({"x": 1, "y": 1}, 1)
    return sb.build()


# -- oracles: tiny LPs solved by hand [DERIVED] --------------------------


def test_maximize_square_corner():
    val, point = maximize(unit_square(), {"x": 1, "y": 1})
    assert val == 2
    assert tuple(point) == (F(1), F(1))


def test_maximize_with_equality():
    sb = SystemBuilder(["x", "y"])
    sb.add_box("x")
    sb.add_box("y")
    sb.add_eq({"x": 1, "y": 1}, 1)
    val, point = maximize(sb.build(), {"x": 3, "y": 1})
    assert val == 3
    assert tuple(point) == (F(1), F(0))


def test_infeasible_detected():
    sb = SystemBuilder(["x"])
    sb.add_eq({"x": 1}, 2)
    sb.add_box("x")
    with pytest.raises(Infeasible):
        maximize(sb.build(), {"x": 1})
    with pytest.raises(Infeasible):
        max_values(sb.build(), [{"x": 1}])


def test_unbounded_detected():
    sb = SystemBuilder(["x"])
    sb.add_ineq({"x": -1}, 0)  # x >= 0 only
    with pytest.raises(Unbounded):
        maximize(sb.build(), {"x": 1})
    with pytest.raises(Unbounded):
        max_value(sb.build(), {"x": 1})
    with pytest.raises(Unbounded):  # after a bounded one
        max_values(sb.build(), [{"x": -1}, {"x": 1}])


def test_max_values_of_no_objectives():
    assert max_values(unit_square(), []) == []


def test_exact_fractions_survive():
    sb = SystemBuilder(["x"])
    sb.add_eq({"x": 3}, 1)
    val, point = maximize(sb.build(), {"x": 1})
    assert val == F(1, 3) and tuple(point) == (F(1, 3),)


# -- polytope info -------------------------------------------------------


def test_solve_square():
    info = solve(unit_square())
    assert info.status == "positive-dimensional"
    assert info.dim == 2
    assert satisfies(unit_square(), info.witness)


def test_solve_point():
    sb = SystemBuilder(["x", "y"])
    sb.add_eq({"x": 1}, F(1, 2))
    sb.add_eq({"y": 1}, F(1, 3))
    info = solve(sb.build())
    assert info.status == "point"
    assert info.dim == 0
    assert tuple(info.witness) == (F(1, 2), F(1, 3))


def test_solve_empty():
    sb = SystemBuilder(["x"])
    sb.add_box("x")
    sb.add_eq({"x": 1}, 2)
    info = solve(sb.build())
    assert info.status == "empty"


def test_implicit_equality_lowers_dim():
    # x in [0,1], y >= 0, x + y <= 0 forces y = 0 and x = 0 via
    # inequalities only
    sb = SystemBuilder(["x", "y"])
    sb.add_box("x")
    sb.add_ineq({"y": -1}, 0)
    sb.add_ineq({"x": 1, "y": 1}, 0)
    info = solve(sb.build())
    assert info.status == "point"
    assert tuple(info.witness) == (F(0), F(0))


@pytest.mark.parametrize("x_first", [True, False], ids=["x-first", "y-first"])
def test_solve_unbounded_below_gives_the_start_vertex(x_first):
    # x >= 0 with no upper bound, y in [0,1]: -x has no minimum, so the
    # witness is the start vertex, not a mean of the other minimisers
    sb = SystemBuilder(["x", "y"])
    if x_first:
        sb.add_ineq({"x": -1}, 0)
    sb.add_box("y")
    if not x_first:
        sb.add_ineq({"x": -1}, 0)
    sys = sb.build()
    info = solve(sys)
    assert info.status == "positive-dimensional"
    assert info.dim == 2
    assert tuple(info.witness) == sys.start.point() == (0, 1)


# -- vertex enumeration [DERIVED: geometry known in closed form] ---------


def test_vertices_square():
    verts = enumerate_vertices(unit_square(), 100)
    assert verts == sorted(verts)
    assert {tuple(v) for v in verts} == {
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}


def test_vertices_triangle():
    verts = enumerate_vertices(triangle(), 100)
    assert {tuple(v) for v in verts} == {
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0))}


def test_vertices_cap():
    with pytest.raises(CapExceeded) as e:
        enumerate_vertices(unit_square(), 2)
    assert len(e.value.vertices) == 2
    assert str(e.value) == "more than 2 vertices"


def test_vertices_unbounded_refused():
    sb = SystemBuilder(["x"])
    sb.add_ineq({"x": -1}, 0)
    with pytest.raises(Unbounded):
        enumerate_vertices(sb.build(), 10)


def direct_build(sys):
    """The same system as a Polytope reduced from scratch."""
    return Polytope(sys.vars, sys.eqs, sys.ineqs)


def test_with_premise_matches_direct_build():
    base = unit_square()
    sys2 = with_premise(base, {"x": F(1, 2)})
    assert sys2.eqs == ((((0, 2),), 1),)  # 2x = 1
    val, point = maximize(sys2, {"x": 1, "y": 1})
    assert (val, point) == (F(3, 2), (F(1, 2), F(1)))
    val, _ = maximize(sys2, {"x": 1, "y": -2})
    assert val == F(1, 2)  # x - 2y maximized at y = 0
    assert sys2.reduced == direct_build(sys2).reduced

    # a redundant pin changes neither the reduction nor the optimum
    again = with_premise(sys2, {"x": F(1, 2)})
    assert again.reduced == sys2.reduced == direct_build(again).reduced
    assert maximize(again, {"x": 1, "y": 1}) == (F(3, 2), (F(1, 2), F(1)))

    # a pin that conflicts with an earlier one, or with the box, empties
    # the system in elimination already
    for child in (with_premise(sys2, {"x": 1}), with_premise(base, {"x": 2})):
        assert child.reduced is None
        with pytest.raises(Infeasible):
            maximize(child, {"x": 1, "y": 1})

    # restricted in the parent's t-space, the child reduces to exactly
    # the x0, basis, rows, rhs (and row order) of a from-scratch build
    mo3 = lattice.mo(3)
    for base, first, second in (
            (smap_system(mo3), {"a|a": 1, "b|b": 1}, {"c|c": F(1, 2)}),
            (state_system(mo3), {"a": 1}, {"b": 1})):
        child = with_premise(base, first)
        grandchild = with_premise(child, second)
        for sys in (child, grandchild):
            red = sys.reduced
            assert red is not None and red.rows
            assert red == direct_build(sys).reduced

    # a premise p(a,a) = 1 propagated, as jauch_piron_smap pins it: 86
    # pins take MO(8)'s d from 64 to 49, 184 take 2^3+2^3+2^3's 30 to 12
    hs333 = lattice.horizontal_sum([lattice.boolean_algebra(3)] * 3)
    for l, a, pinned, d in ((lattice.mo(8), "a", 86, 49),
                            (hs333, "a#0", 184, 12)):
        base = smap_system(l)
        known = propagate_unit_box(base, {pair_var(a, a): 1})
        assert len(known) == pinned
        sys = with_premise(base, known)
        assert sys.reduced.d == d
        assert sys.reduced == direct_build(sys).reduced

    # random pins on the HS3 s-map system, two generations deep: pins
    # at a vertex keep it nonempty, and a stray value (thirds too) may
    # empty it, in elimination or only in phase 1
    hs3 = smap_system(lattice.horizontal_sum([
        lattice.boolean_algebra(3), lattice.boolean_algebra(2),
        lattice.boolean_algebra(2)]))
    names = hs3.vars
    for seed in range(30):
        rng, sys = random.Random(seed), hs3
        for _generation in range(2):
            obj = {v: rng.choice((-1, 0, 1)) for v in names}
            _val, vertex = maximize(sys, obj)
            picked = rng.sample(range(len(names)), rng.randint(1, 6))
            values = {names[j]: vertex[j] for j in picked}
            if rng.random() < 0.3:
                values[rng.choice(names)] = F(rng.randint(0, 3), 3)
            sys = with_premise(sys, values)
            direct = direct_build(sys)
            assert sys.reduced == direct.reduced, seed
            if sys.start is None:
                assert direct.start is None
                break
            obj = {v: rng.choice((-1, 0, 1)) for v in names}
            assert maximize(sys, obj) == maximize(direct, obj), seed


def test_linear_keeps_no_module_state():
    mutable = [name for name, value in vars(linear).items()
               if not name.startswith("__")
               and isinstance(value, (dict, list, set))]
    assert mutable == []


# -- property: LP maximum dominates every feasible sample ----------------


@given(st.integers(0, 8), st.integers(0, 8))
def test_maximum_dominates_grid(i, j):
    x, y = F(i, 8), F(j, 8)
    if x + y <= 1:
        val, _ = maximize(triangle(), {"x": 2, "y": 3})
        assert 2 * x + 3 * y <= val


# -- the reduced-space simplex against oracles that share no code with it


def brute_vertices(n, rows):
    """Vertices of {x : a . x <= b for (a, b) in rows} over n variables:
    every feasible point where n rows with nonzero determinant are
    tight, each solved by Cramer's rule."""

    def det(m):
        return sum((-1) ** sum(p[i] > p[j] for i in range(n)
                               for j in range(i + 1, n))
                   * math.prod(m[i][p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))

    found = set()
    for combo in itertools.combinations(rows, n):
        a = [list(r) for r, _ in combo]
        d = det(a)
        if not d:
            continue
        x = tuple(F(det([row[:j] + [b] + row[j + 1:]
                         for row, (_, b) in zip(a, combo)]), d)
                  for j in range(n))
        if all(sum(c * v for c, v in zip(r, x)) <= b for r, b in rows):
            found.add(x)
    return found


@st.composite
def boxed_lps(draw):
    """The unit box in 1-3 variables, up to five random rows with small
    integer data (so rows often meet in degenerate vertices), up to one
    equality through a point of the box, and an objective {x<j>: k / q}
    with q in 1..3 and zero entries kept."""
    n = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    rows = []
    for j in range(n):
        rows.append((tuple(int(i == j) for i in range(n)), 1))
        rows.append((tuple(-int(i == j) for i in range(n)), 0))
    for _ in range(draw(st.integers(0, 5))):
        rows.append((tuple(draw(small) for _ in range(n)),
                     F(draw(small), draw(st.integers(1, 2)))))
    eqs = []
    for _ in range(draw(st.integers(0, 1))):
        coeffs = tuple(draw(small) for _ in range(n))
        point = [F(draw(st.integers(0, 2)), 2) for _ in range(n)]
        eqs.append((coeffs, sum(c * x for c, x in zip(coeffs, point))))
    obj = {"x%d" % j: F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
           for j in range(n)}
    return n, rows, eqs, obj


def boxed_system(n, rows, eqs):
    names = ["x%d" % j for j in range(n)]
    sb = SystemBuilder(names)
    for coeffs, rhs in rows:
        sb.add_ineq(dict(zip(names, coeffs)), rhs)
    for coeffs, rhs in eqs:
        sb.add_eq(dict(zip(names, coeffs)), rhs)
    return names, sb.build()


@settings(max_examples=300, deadline=None)
@given(boxed_lps())
def test_maximize_matches_vertex_oracle(lp):
    n, rows, eqs, obj = lp
    names, sys = boxed_system(n, rows, eqs)
    verts = brute_vertices(n, rows + [(tuple(-c for c in coeffs), -rhs)
                                      for coeffs, rhs in eqs] + eqs)
    assert set(map(tuple, enumerate_vertices(sys))) == verts
    if not verts:  # a bounded empty system
        with pytest.raises(Infeasible):
            maximize(sys, obj)
        with pytest.raises(Infeasible):
            max_value(sys, obj)
        assert solve(sys).status == "empty"
        return

    def value(x):
        return sum(obj[name] * v for name, v in zip(names, x))

    val, point = maximize(sys, obj)
    assert val == max(map(value, verts))
    assert max_value(sys, obj) == val
    assert satisfies(sys, point)
    assert value(point) == val
    assert maximize(sys, {k: c for k, c in obj.items() if c}) == (val, point)

    # an empty obj: the objective is const on the affine hull that
    # elimination leaves, so on every vertex; when the set spans that
    # hull, the converse holds too
    const, terms = functional_on(sys, obj)
    values = set(map(value, verts))
    if not terms:
        assert values == {const}
    elif solve(sys).dim == sys.reduced.d:
        assert len(values) > 1


@settings(max_examples=200, deadline=None)
@given(boxed_lps(), st.integers(-2, 2))
def test_max_values_matches_max_value(lp, k):
    n, rows, eqs, obj = lp
    _names, sys = boxed_system(n, rows, eqs)
    # obj plus k times the equality's left side: equal to obj in t-space
    shifted = dict(obj)
    for coeffs, _rhs in eqs:
        shifted = {name: c + k * e
                   for (name, c), e in zip(shifted.items(), coeffs)}
    objectives = [obj, shifted, {name: -c for name, c in obj.items()},
                  obj, {}, shifted]
    if sys.start is None:
        with pytest.raises(Infeasible):
            max_values(sys, objectives)
        return
    assert max_values(sys, objectives) == [max_value(sys, c)
                                           for c in objectives]


def test_beale_cycling_example_terminates():
    # Beale (1955): the textbook largest-coefficient rule cycles on
    # it; the optimum is 5/4 at x = (1, 0, 1, 0)
    sb = SystemBuilder(["x4", "x5", "x6", "x7"])
    sb.add_ineq({"x4": F(1, 4), "x5": -8, "x6": -1, "x7": 9}, 0)
    sb.add_ineq({"x4": F(1, 2), "x5": -12, "x6": F(-1, 2), "x7": 3}, 0)
    sb.add_ineq({"x6": 1}, 1)
    for x in sb.vars:
        sb.add_ineq({x: -1}, 0)
    val, point = maximize(sb.build(),
                          {"x4": F(3, 4), "x5": -20, "x6": F(1, 2), "x7": -6})
    assert val == F(5, 4)
    assert point == (1, 0, 1, 0)


def test_infeasible_inequalities_detected():
    # x <= 0 and x >= 1: elimination leaves both rows, phase 1 refutes
    sb = SystemBuilder(["x", "y"])
    sb.add_ineq({"x": 1}, 0)
    sb.add_ineq({"x": -1}, -1)
    sb.add_box("y")
    sys = sb.build()
    with pytest.raises(Infeasible):
        maximize(sys, {"y": 1})
    assert solve(sys).status == "empty"
    assert enumerate_vertices(sys) == []


def test_rows_that_do_not_span_t_space():
    # the strip |x - y| <= 1 holds the line x = y
    sb = SystemBuilder(["x", "y"])
    sb.add_ineq({"x": 1, "y": -1}, 1)
    sb.add_ineq({"x": -1, "y": 1}, 1)
    sys = sb.build()
    with pytest.raises(Unbounded):
        maximize(sys, {"x": 1, "y": 1})
    val, point = maximize(sys, {"x": -2, "y": 2})
    assert val == 2 and satisfies(sys, point)
    with pytest.raises(Unbounded):
        enumerate_vertices(sys)


def test_maximize_does_not_depend_on_earlier_calls():
    mo3 = lattice.mo(3)
    names = smap_system(mo3).vars
    targets = [{v: (i + k) % 3 - 1 for i, v in enumerate(names)}
               for k in range(4)]
    fresh = [maximize(smap_system(mo3), c) for c in targets]
    shared = smap_system(mo3)
    for c in reversed(targets):
        maximize(shared, c)
    with pytest.raises(CapExceeded):  # the walk pivots copies of start
        enumerate_vertices(shared, 1)
    assert [maximize(shared, c) for c in targets] == fresh


@pytest.mark.parametrize("l,verdict,top", [
    (lattice.mo(8), "violated", "2"),
    (lattice.boolean_algebra(5), "implied", "1"),
], ids=["MO(8)", "2^5"])
def test_bell1_state_closed_forms_at_size(l, verdict, top):
    # [DERIVED] atoms of two blocks can both carry mass 1 and meet in
    # 0; on 2^n, m(a) + m(b) - m(a^b) = m(a v b) <= 1
    v = bell1_state(l)
    assert (v.verdict, v.certificate["max"]) == (verdict, top)


@pytest.mark.parametrize("l", [
    lattice.boolean_algebra(3), lattice.boolean_algebra(4), lattice.mo(3),
    lattice.horizontal_sum([lattice.boolean_algebra(3),
                            lattice.boolean_algebra(2),
                            lattice.boolean_algebra(2)]),
], ids=["2^3", "2^4", "MO(3)", "HS3"])
def test_solve_witness_is_relative_interior(l):
    # [DERIVED] on these lattices every element but 0 and 1 has a
    # two-valued state with m(x) = 1 and one with m(x) = 0, so the only
    # box rows tight on the whole state space are those of 0 and 1
    info = solve(state_system(l))
    m = dict(zip(l.elements, info.witness))
    assert satisfies(state_system(l), info.witness)
    assert (m[l.bot], m[l.top]) == (0, 1)
    assert all(0 < m[x] < 1 for x in l.elements if x not in (l.bot, l.top))


# -- unit-box propagation against the full-rescan loop it replaced -------


def rescan_propagate(sys, seed):
    """propagate_unit_box as it was: every row, every pass, until a pass
    pins nothing; seed and result by variable name."""
    known = {sys.index[name]: v for name, v in seed.items()}
    if any(not 0 <= v <= 1 for v in known.values()):
        return None
    changed = True
    while changed:
        changed = False
        for terms, rhs in sys.eqs:
            r = F(rhs)
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
                    known[j] = F(1) if c < 0 else F(0)
                changed = True
            elif r == hi:
                for j, c in unknown:
                    known[j] = F(1) if c > 0 else F(0)
                changed = True
    return {sys.vars[j]: v for j, v in known.items()}


@pytest.mark.parametrize("l", [
    lattice.boolean_algebra(2), lattice.boolean_algebra(3), lattice.mo(2),
    lattice.mo(3),
    lattice.horizontal_sum([lattice.boolean_algebra(3),
                            lattice.boolean_algebra(2),
                            lattice.boolean_algebra(2)]),
], ids=["2^2", "2^3", "MO(2)", "MO(3)", "HS3"])
def test_worklist_propagation_matches_rescan(l):
    # a superset of the seeds jauch_piron_smap propagates
    base = smap_system(l)
    for i, a in enumerate(l.elements):
        for b in l.elements[i:]:
            seed = {pair_var(a, a): F(1), pair_var(b, b): F(1)}
            assert (propagate_unit_box(base, seed)
                    == rescan_propagate(base, seed)), (a, b)


def test_propagation_pins_at_the_interval_minimum():
    # x - y - z = -2 on the unit box: the residual -2 is the row's least
    # value, reached only at x = 0, y = z = 1
    sb = SystemBuilder(["x", "y", "z"])
    for name in sb.vars:
        sb.add_box(name)
    sb.add_eq({"x": 1, "y": -1, "z": -1}, -2)
    sys = sb.build()
    assert (propagate_unit_box(sys, {}) == rescan_propagate(sys, {})
            == {"x": 0, "y": 1, "z": 1})


# -- the basis walk against the subset enumeration it replaced -----------


def solve_square(rows, rhs):
    """Unique solution of a square system, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    red, pivots = reference.rref(aug)
    if len(pivots) != n or n in pivots:
        return None
    sol = [F(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = red[i][n]
    return tuple(sol)


def subset_vertices(sys):
    """enumerate_vertices as it was: every d-subset of the reduced rows
    solved from scratch and kept when feasible.  Its probe LPs for an
    unbounded direction are left out; every system here is bounded."""
    red = reference.rational_form(sys.reduced)
    if sys.start is None:
        return []
    found = set()
    rows, rhs = red.rows, red.rhs
    for combo in itertools.combinations(range(len(rows)), len(red.basis)):
        sol = solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if sol is not None and all(sum(c * x for c, x in zip(row, sol)) <= b
                                   for row, b in zip(rows, rhs)):
            found.add(sol)
    return sorted(reference.lift(red.x0, red.basis, t) for t in found)


_B, _MO = lattice.boolean_algebra, lattice.mo


@pytest.mark.parametrize("system,l", [
    *[(state_system, _B(n)) for n in (2, 3, 4)],
    *[(state_system, _MO(n)) for n in (2, 3, 4, 5, 6)],
    (state_system, lattice.horizontal_sum([_B(3), _B(2), _B(2)])),
    *[(smap_system, l) for l in (_B(2), _B(3), _MO(2))],
    (jmap_system, _MO(2)),
], ids=["states-2^2", "states-2^3", "states-2^4",
        "states-MO(2)", "states-MO(3)", "states-MO(4)", "states-MO(5)",
        "states-MO(6)", "states-HS3", "smaps-2^2", "smaps-2^3",
        "smaps-MO(2)", "jmaps-MO(2)"])
def test_walk_matches_subset_enumeration(system, l):
    sys = system(l)
    assert enumerate_vertices(sys) == subset_vertices(sys)


@pytest.mark.parametrize("n", [5, 6], ids=["2^5", "2^6"])
def test_b5_state_vertices_are_the_point_masses(n):
    # [DERIVED] a state of 2^n is a probability vector on its n atoms:
    # the simplex of the point masses m_x(y) = [x <= y] (the subset
    # enumeration solves 27405 systems for the five of 2^5)
    l = _B(n)
    masses = sorted(tuple(F(l.leq(x, y)) for y in l.elements)
                    for x in l.atoms())
    assert enumerate_vertices(state_system(l)) == masses


@pytest.mark.parametrize("n", [2, 3], ids=["2^2", "2^3"])
def test_boolean_gamma9_vertices_are_the_pure_projections(n):
    # [DERIVED] on a Boolean algebra the Gamma9 G-maps (corners 0011)
    # are G(a, b) = m(a) for a state m, so the vertices are the pure
    # projections G(a, b) = [x <= a] of the atoms' point masses
    l = _B(n)
    projections = sorted(tuple(F(l.leq(x, a)) for a, _b in l.pairs())
                         for x in l.atoms())
    sys = gmap_system(l, (0, 0, 1, 1))
    assert sys.vars == tuple(pair_var(a, b) for a, b in l.pairs())
    assert enumerate_vertices(sys) == projections


@pytest.mark.parametrize("system,l,cap", [
    (state_system, _B(4), 2), (smap_system, _MO(2), 3),
], ids=["states-2^4", "smaps-MO(2)"])
def test_capped_walk_keeps_cap_sorted_vertices(system, l, cap):
    full = enumerate_vertices(system(l))
    with pytest.raises(CapExceeded) as e:
        enumerate_vertices(system(l), cap)
    part = e.value.vertices
    assert len(part) == cap and part == sorted(part)
    assert set(part) <= set(full)


def test_mo10_state_vertices_are_the_cube():
    # [DERIVED] a state of MO(n) splits mass 1 between x and x' in each
    # block, independently: the n-cube, with a vertex for each choice of
    # the element of mass 1 in every block (the subset enumeration
    # would solve C(20, 10) = 184756 systems)
    l = _MO(10)
    atoms = [x for x in l.elements
             if x not in (l.bot, l.top) and "'" not in x]
    cube = set()
    for ones in itertools.product(*[(x, x + "'") for x in atoms]):
        cube.add(tuple(F(x in ones or x == l.top) for x in l.elements))
    verts = enumerate_vertices(state_system(l), 1024)
    assert len(cube) == 1024 and set(verts) == cube


# -- integer elimination against the Fraction elimination it replaced ---


# 0 first, then the nonzero p/q for |p| <= 6 and q <= 3
SMALL = sorted({F(p, q) for p in range(-6, 7) for q in (1, 2, 3)}, key=abs)


@st.composite
def rational_systems(draw):
    """Equalities, inequalities and pins over 1-4 variables with small
    rational data, mostly through one point, with colliding rows put
    in: scaled copies (of either sign), parallel rows with another rhs,
    and all-zero rows."""
    n = draw(st.integers(1, 4))
    small = st.sampled_from(SMALL)
    point = [draw(small) for _ in range(n)]

    def rows(count, slack):
        out = []
        for _ in range(count):
            coeffs = tuple(draw(small) for _ in range(n))
            out.append((coeffs, sum(c * x for c, x in zip(coeffs, point))
                        + draw(slack)))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("scaled", "parallel", "zero")))
            if kind == "zero" or not out:
                row = ((F(0),) * n, F(draw(st.sampled_from((0, 0, 1, -1)))))
            else:
                coeffs, rhs = draw(st.sampled_from(out))
                if kind == "scaled":
                    f = draw(st.sampled_from(SMALL[1:]))
                    row = (tuple(f * c for c in coeffs), f * rhs)
                else:
                    row = (coeffs, draw(small))
            out.insert(draw(st.integers(0, len(out))), row)
        return out

    eqs = rows(draw(st.integers(0, 3)), st.just(0))
    ineqs = rows(draw(st.integers(0, 5)), small)
    pins = {j: point[j] if draw(st.booleans()) else draw(small)
            for j in draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=2))}
    return n, eqs, ineqs, pins


def pivot_columns(den, N, d):
    """The pivots of an integer elimination: all variables but the free
    ones, where t_k belongs to the last x_j that is t_k alone (a pivot
    x_p = t_k has p below that free variable)."""
    free = {max(j for j, row in enumerate(N)
                if row == ((k, den),)) for k in range(d)}
    return [j for j in range(len(N)) if j not in free]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_integer_elimination_matches_fraction_elimination(system):
    n, eqs, ineqs, pins = system
    names = ["x%d" % j for j in range(n)]
    sb = SystemBuilder(names)
    for coeffs, rhs in eqs:
        sb.add_eq(dict(zip(names, coeffs)), rhs)
    for coeffs, rhs in ineqs:
        sb.add_ineq(dict(zip(names, coeffs)), rhs)
    sys = sb.build()
    for terms, rhs in sys.eqs + sys.ineqs:  # the one row form
        assert all(type(c) is int and c for _j, c in terms)
        assert [j for j, _c in terms] == sorted({j for j, _c in terms})
        assert type(rhs) is int

    solved, ref = linear._solve_eqs(sys.eqs, n), reference.solve_eqs(eqs, n)
    assert (solved is None) == (ref is None)
    if ref is not None:
        den, x0, N, d = solved
        assert den > 0 and math.gcd(
            den, *x0, *(c for row in N for _k, c in row)) == 1
        assert pivot_columns(den, N, d) == ref[2]
        assert tuple(F(x, den) for x in x0) == ref[0]
        assert tuple(tuple(F(dict(row).get(k, 0), den) for row in N)
                     for k in range(d)) == ref[1]

    red = reference.reduce(eqs, ineqs, n)
    restricted = with_premise(
        sys, {names[j]: v for j, v in pins.items()}).reduced
    assert reference.rational_form(sys.reduced) == red
    assert reference.rational_form(restricted) == reference.restrict(red, pins)
    for got in (sys.reduced, restricted):  # canonical integers
        if got is not None:
            entries = [c for row in got.N for _k, c in row]
            assert math.gcd(got.den, *got.x0, *entries) == 1
            for row in got.N:  # N's rows in the one row form
                assert all(type(c) is int and c for _k, c in row)
                assert [k for k, _c in row] == sorted({k for k, _c in row})
            assert len({row for row in got.N
                        if len(row) == 1 and row[0][1] == got.den}) == got.d
            for terms, b in got.rows:
                assert math.gcd(b, *(c for _j, c in terms)) == 1


# -- the integer checker against the Fraction loop it replaced -----------


# pairwise coprime, so that a few values make a large common denominator
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def checker_cases(draw):
    """Values with pairwise coprime denominators, in and outside [0, 1],
    plus the keys "0", "1" and "den" at exactly 0, 1 and the lcm of the
    denominators; then rows over those keys: random rows mixing plus,
    minus, le and const None rows, with rows that always hold put in so
    that a violation may come late or never."""
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1,
                         max_size=8))
    values = {k: F(draw(st.integers(-q, 2 * q)), q)
              for k, q in enumerate(dens)}
    values.update({"0": F(0), "1": F(1), "den": F(math.lcm(*dens))})
    key = st.sampled_from(sorted(values, key=str))
    terms = st.lists(key, max_size=3).map(tuple)
    rows = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("random", "random", "g1", "holds")))
        k = draw(key)
        if kind == "g1":
            row = (k, (), (), None, False)
        elif kind == "holds":  # k = k + p - p, or k <= k + p - p + c, c >= 0
            p = draw(terms)
            le = draw(st.booleans())
            row = (k, (k,) + p, p, draw(st.integers(0, 2)) if le else 0, le)
        else:
            row = (k, draw(terms), draw(terms), draw(st.integers(-2, 2)),
                   draw(st.booleans()))
        rows.append(("r%d" % i, (str(k),)) + row)
    return values, rows


@settings(max_examples=200, deadline=None)
@given(checker_cases())
def test_integer_checker_matches_fraction_loop(case):
    values, rows = case
    got = linear.first_violation(rows, values)
    assert got == fraction_checker.first_violation(rows, values.__getitem__)
    if got is not None:
        assert all(type(side) is F for side in got[2:])


# -- int rows against the Fraction rows they replaced ---------------------


# ints, Fractions (some whole), and the other values Fraction() takes
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
    st.sampled_from((True, 0.5, -0.25, "2/3", "-3", Decimal("1.5"))))


@st.composite
def named_terms(draw):
    """(name, coeff) terms over up to four names, with names repeated
    and pairs c, -c put in, so that a name's terms may cancel to 0; and
    an int or Fraction rhs."""
    name = st.sampled_from("abcd")
    terms = draw(st.lists(st.tuples(name, COEFFS), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.one_of(st.integers(-6, 6),
                           st.builds(F, st.integers(-6, 6),
                                     st.integers(1, 4))))
        terms.insert(draw(st.integers(0, len(terms))), (draw(name), c))
        terms.insert(draw(st.integers(0, len(terms))), (terms[-1][0], -c))
    rhs = draw(st.one_of(st.integers(-6, 6),
                         st.builds(F, st.integers(-6, 6), st.integers(1, 4))))
    return terms, rhs


@settings(max_examples=300, deadline=None)
@given(named_terms())
def test_int_row_matches_fraction_row(case):
    terms, rhs = case
    index = {v: i for i, v in enumerate("dcba")}
    got = linear._int_row(index, terms, rhs)
    assert got == int_row_reference.int_row(index, terms, rhs)
    scale, row, b = got
    assert all(type(x) is int for x in (scale, b, *itertools.chain(*row)))


@pytest.mark.parametrize("l", [lattice.mo(2), lattice.boolean_algebra(3)],
                         ids=["MO(2)", "2^3"])
@pytest.mark.parametrize("system", [
    state_system, smap_system, jmap_system, dmap_system,
    lambda l: gmap_system(l, (0, 0, 1, 1)),
    lambda l: _smap_system_with_pseudometric(l, smap_system(l)),
], ids=["state", "s", "j", "d", "g0011", "s-pseudometric"])
def test_system_rows_are_ints(system, l):
    sys = system(l)
    for terms, rhs in sys.eqs + sys.ineqs:
        assert type(rhs) is int
        assert all(type(j) is int and type(c) is int for j, c in terms)
