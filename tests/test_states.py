from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob import lattice
from omlprob.linear import satisfies
from omlprob.states import (
    AdditivityFailure,
    NotNormalized,
    OutOfRange,
    StateError,
    StateFn,
    classify_states,
    is_state,
    state_from_json,
    state_system,
    state_vertices,
    validate_state,
)
from pastings import CHAIN, PENTAGON, TWO, pasting_candidate

F = Fraction


def test_point_mass_is_state(b3):
    # [DERIVED] the point mass at atom "a": m(x) = 1 iff a <= x
    m = StateFn.from_dict(b3, {x: int(b3.leq("a", x)) for x in b3.elements})
    validate_state(b3, m)


def test_mo2_mixed_state(mo2):
    # [DERIVED] m(a) = 1/3 forces m(a') = 2/3; blocks are independent
    m = StateFn.from_dict(mo2, {
        "0": 0, "a": F(1, 3), "a'": F(2, 3),
        "b": F(1, 2), "b'": F(1, 2), "1": 1})
    validate_state(mo2, m)


def test_not_normalized(mo2):
    m = StateFn.from_dict(mo2, {x: 0 for x in mo2.elements})
    with pytest.raises(NotNormalized):
        validate_state(mo2, m)


def test_out_of_range(mo2):
    vals = {x: 0 for x in mo2.elements}
    vals["1"] = 1
    vals["a"] = F(3, 2)
    with pytest.raises(OutOfRange):
        validate_state(mo2, StateFn.from_dict(mo2, vals))


def test_additivity_failure(mo2):
    m = StateFn.from_dict(mo2, {
        "0": 0, "a": F(1, 3), "a'": F(1, 3),  # a v a' = 1 but sums to 2/3
        "b": F(1, 2), "b'": F(1, 2), "1": 1})
    with pytest.raises(AdditivityFailure):
        validate_state(mo2, m)


def test_from_vector_rejects_a_wrong_length(mo2):
    # a short vector once made a partial state that is_state raised on
    n = len(mo2.elements)
    assert not is_state(mo2, StateFn.from_vector(mo2, [0] * n))
    for size in (n - 1, n + 1):
        with pytest.raises(StateError, match="vector has %d values for %d "
                                             "elements" % (size, n)):
            StateFn.from_vector(mo2, [0] * size)


def test_validate_state_rejects_a_dict_off_the_elements(mo2):
    # a missing element once raised KeyError, and an extra key, even
    # one outside [0, 1], once passed unseen
    witness = dict(zip(mo2.elements, classify_states(mo2).polytope.witness))
    assert is_state(mo2, StateFn(witness))
    for values in ({x: 0 for x in mo2.elements[:-1]},
                   {**witness, "zz": 5},
                   dict(reversed(witness.items()))):
        with pytest.raises(StateError, match="state is not total on L in "
                                             "element order"):
            validate_state(mo2, StateFn(values))
        assert not is_state(mo2, StateFn(values))


def test_state_json_round_trip(mo2):
    m = StateFn.from_dict(mo2, {
        "0": 0, "a": F(1, 3), "a'": F(2, 3),
        "b": F(1, 2), "b'": F(1, 2), "1": 1})
    again = state_from_json(mo2, m.to_json())
    assert again == m


# -- classification ------------------------------------------------------


def test_classify_b1(b1):
    # only the trivial state m(0)=0, m(1)=1 exists
    cls = classify_states(b1)
    assert cls.tag == "unique-state"
    assert cls.polytope.dim == 0


def test_classify_b2(b2):
    cls = classify_states(b2)
    assert cls.tag == "quantum-logic"
    assert cls.polytope.dim == 1


def test_classify_b3(b3):
    cls = classify_states(b3)
    assert cls.tag == "quantum-logic"
    assert cls.polytope.dim == 2


def test_classify_mo2(mo2):
    cls = classify_states(mo2)
    assert cls.tag == "quantum-logic"
    assert cls.polytope.dim == 2
    # the witness is itself a valid state
    assert is_state(mo2, StateFn.from_vector(mo2, cls.polytope.witness))


def test_b3_vertices_are_point_masses(b3):
    # [DERIVED] extreme states of a Boolean algebra = point masses at atoms
    verts = state_vertices(b3, 100)
    assert len(verts) == 3
    expected = []
    for atom in b3.atoms():
        expected.append(
            {x: F(int(b3.leq(atom, x))) for x in b3.elements})
    got = [v.as_dict() for v in verts]
    for e in expected:
        assert e in got


def test_mo2_vertices(mo2):
    # [DERIVED] product of two segments: 4 extreme states, 0/1 on atoms
    verts = state_vertices(mo2, 100)
    assert len(verts) == 4
    for v in verts:
        validate_state(mo2, v)
        assert all(v(x) in (0, 1) for x in mo2.elements)


@pytest.mark.parametrize("blocks,dim", [(TWO, 3), (CHAIN, 4), (PENTAGON, 5)],
                         ids=["two", "chain", "pentagon"])
def test_pasting_state_dimension(blocks, dim):
    # [DERIVED] a state is an atom weighting summing to 1 on each block;
    # the uniform 1/3 is positive on every atom, so the dimension is the
    # atom count minus the rank of the block-atom incidence: 5 - 2,
    # 7 - 3 and 10 - 5
    cls = classify_states(lattice.validate_oml(pasting_candidate(blocks)))
    assert (cls.tag, cls.polytope.dim) == ("quantum-logic", dim)


def test_pentagon_state_vertices():
    l = lattice.validate_oml(pasting_candidate(PENTAGON))
    verts = state_vertices(l, 100)
    assert len(verts) == 12
    for v in verts:
        validate_state(l, v)
    # [DERIVED] not every extreme state is two-valued: 1/2 on each of
    # the five shared atoms, 0 on the free ones, is a vertex
    shared = {p for i, b in enumerate(PENTAGON) for p in b
              if p in PENTAGON[i - 1]}
    assert {p: F(1, 2) if p in shared else 0 for p in l.atoms()} in [
        {p: v(p) for p in l.atoms()} for v in verts]


# -- convexity property --------------------------------------------------


@given(st.integers(0, 10), st.data())
def test_convex_combinations_are_states(num, data):
    l = lattice.mo(2)
    verts = state_vertices(l, 100)
    i = data.draw(st.integers(0, len(verts) - 1))
    j = data.draw(st.integers(0, len(verts) - 1))
    lam = F(num, 10)
    mix = StateFn.from_dict(l, {
        x: lam * verts[i](x) + (1 - lam) * verts[j](x) for x in l.elements})
    validate_state(l, mix)


# -- state rows: checker/LP agreement, first violations -------------------


def atom_state(l, weights):
    """m(x) = the weight of the atoms below x, and m(1) = 1: a state when
    the atoms of every block weigh 1 in all."""
    return StateFn.from_dict(l, {
        x: F(1) if x == l.top else
        sum((w for atom, w in weights.items() if l.leq(atom, x)), F(0))
        for x in l.elements})


@pytest.fixture(scope="module")
def fixed_states(mo2, b3, hs3):
    thirds = [F(1, 3), F(2, 3)]
    return {
        "mo2": atom_state(mo2, dict(zip(mo2.atoms(), thirds + [F(1, 2)] * 2))),
        "b3": atom_state(b3, dict(zip(b3.atoms(), [F(1, 6), F(1, 3),
                                                   F(1, 2)]))),
        "hs3": atom_state(hs3, dict(zip(hs3.atoms(), [F(1, 6), F(1, 3),
                                                      F(1, 2)] + thirds * 2))),
    }


def mutations(l, m):
    """m with one value moved by 1/100 (staying inside [0, 1]), and with
    one value moved out of range, for every element."""
    for x in l.elements:
        for new in (m(x) + F(1, 100) if m(x) < 1 else m(x) - F(1, 100),
                    F(-1) if m(x) else F(2)):
            yield x, new, StateFn.from_dict(l, dict(m.as_dict(), **{x: new}))


def first_state_violation(l, m):
    try:
        validate_state(l, m)
    except StateError as e:
        return type(e).__name__, str(e), getattr(e, "pair", None)
    return None


@pytest.mark.parametrize("lname", ["mo2", "b3", "hs3"])
def test_state_checker_agrees_with_system(lname, request, fixed_states):
    l = request.getfixturevalue(lname)
    sys = state_system(l)
    m = fixed_states[lname]
    assert is_state(l, m)
    for _x, _new, s in mutations(l, m):
        point = [s(x) for x in l.elements]
        assert is_state(l, s) == satisfies(sys, point)


# (lattice, element, new value) -> (exception, message, pair)
STATE_FIRST_VIOLATIONS = {
    ("mo2", "0", "1/100"): ("NotNormalized", "m(bot) = 1/100 != 0", None),
    ("mo2", "0", "2"): ("OutOfRange", "m(0) = 2 is outside [0, 1]", None),
    ("mo2", "a", "103/300"):
        ("AdditivityFailure",
         "m(a v a') = 1 but m(a) + m(a') = 101/100",
         ("a", "a'")),
    ("mo2", "a", "-1"): ("OutOfRange", "m(a) = -1 is outside [0, 1]", None),
    ("mo2", "a'", "203/300"):
        ("AdditivityFailure",
         "m(a v a') = 1 but m(a) + m(a') = 101/100",
         ("a", "a'")),
    ("mo2", "a'", "-1"): ("OutOfRange", "m(a') = -1 is outside [0, 1]", None),
    ("mo2", "b", "51/100"):
        ("AdditivityFailure",
         "m(b v b') = 1 but m(b) + m(b') = 101/100",
         ("b", "b'")),
    ("mo2", "b", "-1"): ("OutOfRange", "m(b) = -1 is outside [0, 1]", None),
    ("mo2", "b'", "51/100"):
        ("AdditivityFailure",
         "m(b v b') = 1 but m(b) + m(b') = 101/100",
         ("b", "b'")),
    ("mo2", "b'", "-1"): ("OutOfRange", "m(b') = -1 is outside [0, 1]", None),
    ("mo2", "1", "99/100"): ("NotNormalized", "m(top) = 99/100 != 1", None),
    ("mo2", "1", "-1"): ("OutOfRange", "m(1) = -1 is outside [0, 1]", None),
    ("b3", "0", "1/100"): ("NotNormalized", "m(bot) = 1/100 != 0", None),
    ("b3", "0", "2"): ("OutOfRange", "m(0) = 2 is outside [0, 1]", None),
    ("b3", "a", "53/300"):
        ("AdditivityFailure",
         "m(a v b) = 1/2 but m(a) + m(b) = 51/100",
         ("a", "b")),
    ("b3", "a", "-1"): ("OutOfRange", "m(a) = -1 is outside [0, 1]", None),
    ("b3", "b", "103/300"):
        ("AdditivityFailure",
         "m(a v b) = 1/2 but m(a) + m(b) = 51/100",
         ("a", "b")),
    ("b3", "b", "-1"): ("OutOfRange", "m(b) = -1 is outside [0, 1]", None),
    ("b3", "c", "51/100"):
        ("AdditivityFailure",
         "m(a v c) = 2/3 but m(a) + m(c) = 203/300",
         ("a", "c")),
    ("b3", "c", "-1"): ("OutOfRange", "m(c) = -1 is outside [0, 1]", None),
    ("b3", "ab", "51/100"):
        ("AdditivityFailure",
         "m(a v b) = 51/100 but m(a) + m(b) = 1/2",
         ("a", "b")),
    ("b3", "ab", "-1"): ("OutOfRange", "m(ab) = -1 is outside [0, 1]", None),
    ("b3", "ac", "203/300"):
        ("AdditivityFailure",
         "m(a v c) = 203/300 but m(a) + m(c) = 2/3",
         ("a", "c")),
    ("b3", "ac", "-1"): ("OutOfRange", "m(ac) = -1 is outside [0, 1]", None),
    ("b3", "bc", "253/300"):
        ("AdditivityFailure",
         "m(a v bc) = 1 but m(a) + m(bc) = 101/100",
         ("a", "bc")),
    ("b3", "bc", "-1"): ("OutOfRange", "m(bc) = -1 is outside [0, 1]", None),
    ("b3", "1", "99/100"): ("NotNormalized", "m(top) = 99/100 != 1", None),
    ("b3", "1", "-1"): ("OutOfRange", "m(1) = -1 is outside [0, 1]", None),
}


@pytest.mark.parametrize("lname", ["mo2", "b3"])
def test_state_first_violations_unchanged(lname, request, fixed_states):
    l = request.getfixturevalue(lname)
    got = {(lname, x, str(new)): first_state_violation(l, s)
           for x, new, s in mutations(l, fixed_states[lname])}
    assert got == {k: v for k, v in STATE_FIRST_VIOLATIONS.items()
                   if k[0] == lname}
