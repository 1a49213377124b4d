from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob import lattice, linear
from omlprob.bimaps import smap_system
from omlprob.linear import (
    CapExceeded,
    Infeasible,
    Polytope,
    SystemBuilder,
    Unbounded,
    certify_implied,
    enumerate_vertices,
    maximize,
    satisfies,
    solve,
    with_premise,
)
from omlprob.states import state_system

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
    val, point = maximize(unit_square(), [F(1), F(1)])
    assert val == 2
    assert tuple(point) == (F(1), F(1))


def test_maximize_with_equality():
    sb = SystemBuilder(["x", "y"])
    sb.add_box("x")
    sb.add_box("y")
    sb.add_eq({"x": 1, "y": 1}, 1)
    val, point = maximize(sb.build(), [F(3), F(1)])
    assert val == 3
    assert tuple(point) == (F(1), F(0))


def test_infeasible_detected():
    sb = SystemBuilder(["x"])
    sb.add_eq({"x": 1}, 2)
    sb.add_box("x")
    with pytest.raises(Infeasible):
        maximize(sb.build(), [F(1)])


def test_unbounded_detected():
    sb = SystemBuilder(["x"])
    sb.add_ineq({"x": -1}, 0)  # x >= 0 only
    with pytest.raises(Unbounded):
        maximize(sb.build(), [F(1)])


def test_exact_fractions_survive():
    sb = SystemBuilder(["x"])
    sb.add_eq({"x": 3}, 1)
    val, point = maximize(sb.build(), [F(1)])
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


def test_vertices_unbounded_refused():
    sb = SystemBuilder(["x"])
    sb.add_ineq({"x": -1}, 0)
    with pytest.raises(Unbounded):
        enumerate_vertices(sb.build(), 10)


# -- certification -------------------------------------------------------


def test_certify_implied_true():
    cert = certify_implied(triangle(), [F(1), F(1)], F(1))
    assert cert.implied
    assert cert.optimum == 1


def test_certify_implied_false_with_counterexample():
    cert = certify_implied(unit_square(), [F(1), F(1)], F(1))
    assert not cert.implied
    assert cert.optimum == 2
    assert satisfies(unit_square(), cert.counterexample)


def direct_build(sys):
    """The same system as a Polytope reduced from scratch."""
    return Polytope(sys.vars, sys.eqs, sys.ineqs)


def pins(sys, values):
    """Unit-pin premise rows x_name = v, as dense x-space rows."""
    rows = []
    for name, v in values.items():
        coeffs = [0] * len(sys.vars)
        coeffs[sys.index[name]] = 1
        rows.append((coeffs, v))
    return rows


def test_with_premise_matches_direct_build():
    base = unit_square()
    premise = [((F(1), F(-1)), F(0))]  # x = y
    sys2 = with_premise(base, premise)
    val, _ = maximize(sys2, [F(1), F(1)])
    assert val == 2  # x = y = 1
    val, _ = maximize(sys2, [F(1), F(-2)])
    assert val == 0  # x - 2y = -x maximized at x = 0
    assert sys2.reduced == direct_build(sys2).reduced

    # restricted in the parent's t-space, the child reduces to exactly
    # the x0, basis, rows, rhs (and row order) of a from-scratch build
    mo3 = lattice.mo(3)
    for base, first, second in (
            (smap_system(mo3), {"a|a": 1, "b|b": 1}, {"c|c": F(1, 2)}),
            (state_system(mo3), {"a": 1}, {"b": 1})):
        child = with_premise(base, pins(base, first))
        grandchild = with_premise(child, pins(child, second))
        for sys in (child, grandchild):
            red = sys.reduced
            assert red is not None and red.rows
            assert red == direct_build(sys).reduced


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
        val, _ = maximize(triangle(), [F(2), F(3)])
        assert 2 * x + 3 * y <= val
