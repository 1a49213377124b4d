import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob import lattice
from omlprob.lattice import (
    ComplementAxiom,
    LatticeError,
    OrthomodularLawFailure,
    blocks,
    boolean_algebra,
    classify_pair,
    hexagon_candidate,
    horizontal_sum,
    lattice_from_json,
    mo,
    validate_oml,
)


# -- generators produce valid OMLs [TRIVIAL: generator postcondition] ----


@pytest.mark.parametrize("make", [
    lambda: boolean_algebra(1),
    lambda: boolean_algebra(2),
    lambda: boolean_algebra(3),
    lambda: mo(2),
    lambda: mo(3),
    lambda: horizontal_sum([boolean_algebra(3), boolean_algebra(2),
                            boolean_algebra(2)]),
])
def test_generators_survive_validation(make):
    l = make()
    # round-trip through the raw dict re-runs the full axiom audit
    validate_oml(l.to_dict())


def test_boolean_sizes():
    assert len(boolean_algebra(1)) == 2
    assert len(boolean_algebra(2)) == 4
    assert len(boolean_algebra(3)) == 8
    assert len(mo(2)) == 6
    assert len(mo(3)) == 8


def test_mo2_shape(mo2):
    assert mo2.atoms() == ["a", "a'", "b", "b'"]
    assert mo2.meet("a", "b") == mo2.bot
    assert mo2.join("a", "b") == mo2.top
    assert mo2.ocomp("a") == "a'"
    # distinct blocks are incompatible but not orthogonal
    assert not mo2.compatible("a", "b")
    assert not mo2.orthogonal("a", "b")
    assert mo2.orthogonal("a", "a'")


def test_b3_meet_join_are_set_ops(b3):
    # [DERIVED] subsets named by sorted atom letters
    assert b3.meet("ab", "bc") == "b"
    assert b3.join("a", "c") == "ac"
    assert b3.ocomp("ab") == "c"
    assert b3.leq("a", "ab")
    assert not b3.leq("ab", "a")


# -- axiom failures are detected [DERIVED: hand-built counterexamples] ---


def test_hexagon_fails_orthomodular_law():
    with pytest.raises(OrthomodularLawFailure):
        validate_oml(hexagon_candidate())


def test_bad_complement_detected(mo2):
    d = mo2.to_dict()
    d["comp"] = dict(d["comp"], a="b", b="a")  # not order reversing pairing
    with pytest.raises((ComplementAxiom, LatticeError)):
        validate_oml(d)


def test_complement_of_unknown_element_detected():
    d = {"elements": ["0", "1"], "leq": [["0", "1"]],
         "comp": {"0": "1", "1": "0", "zz": "0"}, "bot": "0", "top": "1"}
    with pytest.raises(ComplementAxiom) as e:
        validate_oml(d)
    assert e.value.axiom == "i" and "'zz'" in str(e.value)


def test_missing_join_detected():
    # three-element chainless poset {0, a, b} has no top
    d = {"elements": ["0", "a", "b"], "leq": [["0", "a"], ["0", "b"]],
         "comp": {"0": "a", "a": "0", "b": "b"}, "bot": "0", "top": "a"}
    with pytest.raises(LatticeError):
        validate_oml(d)


def test_unknown_json_key_rejected(mo2):
    d = mo2.to_dict()
    d["extra"] = 1
    with pytest.raises(LatticeError):
        lattice_from_json(json.dumps(d))


def test_max_elements_guard(monkeypatch):
    monkeypatch.setenv("OMLPROB_MAX_ELEMENTS", "4")
    with pytest.raises(LatticeError):
        validate_oml(mo(2).to_dict())
    monkeypatch.setenv("OMLPROB_MAX_ELEMENTS", "64")
    validate_oml(mo(2).to_dict())


# -- structure: blocks, pair classes -------------------------------------


def test_blocks(b3, mo2, mo3, hs3):
    assert len(blocks(b3)) == 1
    assert len(blocks(mo2)) == 2
    assert len(blocks(mo3)) == 3
    assert len(blocks(hs3)) == 3
    for bl in blocks(mo2):
        assert len(bl) == 4


def test_classify_pair(mo2):
    assert classify_pair(mo2, "a", "a'").tag == "orthogonal"
    assert classify_pair(mo2, "a", mo2.top).tag == "compatible"
    assert classify_pair(mo2, "a", "b").tag == "incompatible"
    assert classify_pair(mo2, "a", "b").note is None


def test_horizontal_sum_is_mo_for_four_element_parts():
    hs = horizontal_sum([boolean_algebra(2), boolean_algebra(2)])
    assert len(hs) == len(mo(2))
    assert len(blocks(hs)) == 2


# -- algebraic laws as properties ----------------------------------------


LATTICES = [boolean_algebra(3), mo(3)]


@given(st.data())
def test_de_morgan_and_involution(data):
    l = data.draw(st.sampled_from(LATTICES))
    a = data.draw(st.sampled_from(l.elements))
    b = data.draw(st.sampled_from(l.elements))
    assert l.ocomp(l.ocomp(a)) == a
    assert l.ocomp(l.meet(a, b)) == l.join(l.ocomp(a), l.ocomp(b))
    assert l.ocomp(l.join(a, b)) == l.meet(l.ocomp(a), l.ocomp(b))
    assert l.join(a, l.ocomp(a)) == l.top


@given(st.data())
def test_orthomodular_law_holds(data):
    l = data.draw(st.sampled_from(LATTICES))
    a = data.draw(st.sampled_from(l.elements))
    b = data.draw(st.sampled_from(l.elements))
    if l.leq(a, b):
        assert b == l.join(a, l.meet(l.ocomp(a), b))


def test_orthogonal_partitions_mo2(mo2):
    parts = mo2.orthogonal_partitions()
    # [DERIVED] MO(2): {1}, {a,a'}, {b,b'} and nothing else
    assert parts == [(mo2.top,), ("a", "a'"), ("b", "b'")]


# -- serialization round trip --------------------------------------------


@pytest.mark.parametrize("make", [lambda: boolean_algebra(2), lambda: mo(3)])
def test_json_round_trip(make):
    l = make()
    again = lattice_from_json(l.to_json())
    assert again == l
    assert hash(again) == hash(l)
