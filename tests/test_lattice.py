import functools
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob import lattice
from omlprob.lattice import (
    ComplementAxiom,
    LatticeError,
    NotALattice,
    Oml,
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
from pastings import (CHAIN, PENTAGON, SQUARE, TRIANGLE, TWO,
                      pasting_candidate)


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


@pytest.mark.parametrize("make", [
    lambda: mo(2), lambda: boolean_algebra(3), lambda: boolean_algebra(4),
    lambda: horizontal_sum([boolean_algebra(k) for k in (3, 2, 2)]),
    lambda: validate_oml(pasting_candidate(TWO))],
    ids=["mo2", "2^3", "2^4", "hs3", "pasting"])
def test_orthogonal_partitions_by_brute_force(make):
    # every subset of the nonzero elements, tested pair by pair
    l = make()
    nonzero = [x for x in l.elements if x != l.bot]
    want = sorted(
        (s for r in range(1, len(nonzero) + 1)
         for s in itertools.combinations(nonzero, r)
         if all(l.orthogonal(x, y) for x, y in itertools.combinations(s, 2))
         and functools.reduce(l.join, s) == l.top),
        key=lambda s: (len(s), s))
    assert l.orthogonal_partitions() == want


# -- serialization round trip --------------------------------------------


@pytest.mark.parametrize("make", [lambda: boolean_algebra(2), lambda: mo(3)])
def test_json_round_trip(make):
    l = make()
    again = lattice_from_json(l.to_json())
    assert again == l
    assert hash(again) == hash(l)


# -- differential: the order read off down-sets, blocks off atoms --------
#
# The reference is the earlier code: a re-scanning closure, meets and
# joins found by searching for a unique greatest lower / least upper
# bound, and blocks as maximal cliques of the compatibility graph over
# all elements, each verified closed, complemented and distributive.


def _transitive_closure(elements, rel):
    rel = set(rel)
    for x in elements:
        rel.add((x, x))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for c in elements:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def _reference_order(elements, pairs, bot, top):
    leq = _transitive_closure(elements, pairs)
    for a, b in itertools.combinations(elements, 2):
        if (a, b) in leq and (b, a) in leq:
            raise NotALattice("order is not antisymmetric: %r and %r" % (a, b))
    for x in elements:
        if (bot, x) not in leq:
            raise NotALattice("bot %r is not below %r" % (bot, x))
        if (x, top) not in leq:
            raise NotALattice("%r is not below top %r" % (x, top))
    meet_table, join_table = {}, {}
    for a in elements:
        for b in elements:
            lower = [x for x in elements if (x, a) in leq and (x, b) in leq]
            maxima = [m for m in lower if all((y, m) in leq for y in lower)]
            if len(maxima) != 1:
                raise NotALattice("meet of %r and %r is not unique" % (a, b))
            meet_table[(a, b)] = maxima[0]
            upper = [x for x in elements if (a, x) in leq and (b, x) in leq]
            minima = [j for j in upper if all((j, y) in leq for y in upper)]
            if len(minima) != 1:
                raise NotALattice("join of %r and %r is not unique" % (a, b))
            join_table[(a, b)] = minima[0]
    return leq, meet_table, join_table


def _is_distributive(l, subset):
    return all(l.meet(a, l.join(b, c)) == l.join(l.meet(a, b), l.meet(a, c))
               for a in subset for b in subset for c in subset)


def _reference_blocks(l):
    elems = list(l.elements)
    compat = {x: {y for y in elems if y != x and l.compatible(x, y)
                  and l.compatible(y, x)} for x in elems}
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(compat[v] & p))
        for v in [v for v in elems if v in p - compat[pivot]]:
            bron_kerbosch(r | {v}, p & compat[v], x & compat[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(elems), set())
    order = {x: i for i, x in enumerate(elems)}
    result = []
    for clique in cliques:
        members = sorted(clique, key=order.get)
        for a in members:
            if l.ocomp(a) not in clique:
                raise LatticeError("block candidate not complement-closed")
            for b in members:
                if l.meet(a, b) not in clique or l.join(a, b) not in clique:
                    raise LatticeError("block candidate not closed")
        if not _is_distributive(l, members):
            raise LatticeError("maximal compatible set is not Boolean")
        result.append(tuple(members))
    result.sort()
    return result


def _outcome(d, reference=False):
    """validate_oml's exception class and message, or the lattice's
    dict, tables and blocks; reference=True runs it on the reference
    order and blocks."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(lattice, "_order", _reference_order)
        try:
            l = validate_oml(d)
        except LatticeError as e:
            return type(e), str(e)
    return (l.to_dict(), l._meet, l._join,
            (_reference_blocks if reference else blocks)(l))


def _shuffled_dict(l, seed):
    d = l.to_dict()
    random.Random(seed).shuffle(d["elements"])
    return d


_B = boolean_algebra
_DIFF_LATTICES = (
    [("2^%d" % n, _B(n).to_dict()) for n in range(1, 7)]
    + [("MO(%d)" % n, mo(n).to_dict()) for n in range(2, 9)]
    + [("HS3", horizontal_sum([_B(3), _B(2), _B(2)]).to_dict()),
       ("2^3+2^3+2^3", horizontal_sum([_B(3)] * 3).to_dict()),
       ("2^5-shuffled", _shuffled_dict(_B(5), 1)),
       ("MO(5)-shuffled", _shuffled_dict(mo(5), 2)),
       ("HS3-shuffled", _shuffled_dict(
           horizontal_sum([_B(3), _B(2), _B(2)]), 3))]
    + [(name, pasting_candidate(bl)) for name, bl in
       (("two", TWO), ("chain", CHAIN), ("pentagon", PENTAGON),
        ("triangle", TRIANGLE), ("square", SQUARE))])


@pytest.mark.parametrize("name,d", _DIFF_LATTICES,
                         ids=[n for n, _ in _DIFF_LATTICES])
def test_order_tables_and_blocks_match_the_reference(name, d):
    assert _outcome(d) == _outcome(d, reference=True)


@pytest.mark.parametrize("bl,size,count", [
    (TWO, 12, 2), (CHAIN, 16, 3), (PENTAGON, 22, 5)],
    ids=["two", "chain", "pentagon"])
def test_pasting_blocks_share_atoms(bl, size, count):
    l = validate_oml(pasting_candidate(bl))
    assert len(l) == size
    assert [len(b) for b in blocks(l)] == [8] * count
    # [DERIVED] each given block is one Boolean block, 0, 1, p and p'
    want = sorted(tuple(x for x in l.elements if x in ("0", "1")
                        or x.rstrip("'") in triple) for triple in bl)
    assert blocks(l) == want


@pytest.mark.parametrize("bl", [TRIANGLE, SQUARE], ids=["triangle", "square"])
def test_short_pasting_loops_are_not_lattices(bl):
    # Greechie: a loop of order 3 or 4 leaves two atoms without a join
    with pytest.raises(NotALattice, match="^join of .* is not unique$"):
        validate_oml(pasting_candidate(bl))


def _mutate(d, rng):
    """d with one to three edits: an order pair dropped or added, two
    complements swapped, or the elements shuffled."""
    key = "leq" if "leq" in d else "covers"
    d = {**d, key: [list(p) for p in d[key]], "comp": dict(d["comp"]),
         "elements": list(d["elements"])}
    els, order = d["elements"], d[key]
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        if edit == 0 and order:
            order.pop(rng.randrange(len(order)))
        elif edit == 1:
            order.append([rng.choice(els), rng.choice(els)])
        elif edit == 2:
            x, y = rng.sample(els, 2)
            d["comp"][x], d["comp"][y] = d["comp"][y], d["comp"][x]
        else:
            rng.shuffle(els)
    return d


def test_fuzzed_lattices_match_the_reference():
    rng = random.Random(911)
    bases = [_B(2).to_dict(), _B(3).to_dict(), mo(2).to_dict(),
             mo(3).to_dict(), horizontal_sum([_B(2), _B(3)]).to_dict(),
             hexagon_candidate(), pasting_candidate(TWO)]
    seen = set()
    for _ in range(2000):
        d = _mutate(rng.choice(bases), rng)
        got = _outcome(d)
        assert got == _outcome(d, reference=True), d
        seen.add(got[0] if isinstance(got[0], type) else Oml)
    # every stage of validate_oml is reached
    assert seen == {NotALattice, ComplementAxiom, OrthomodularLawFailure,
                    Oml}
