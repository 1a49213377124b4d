"""Aut(L) generators, tuple orbits, and the orbit-wise Bell and
Jauch-Piron drivers against all-targets reference loops."""

import dataclasses
import itertools
import json
import math
import random

import pytest

from omlprob import analysis, lattice, linear
from omlprob.bimaps import _axiom_rows, pair_var
from omlprob.lattice import automorphism_generators, tuple_orbits
from omlprob.linear import (Infeasible, SystemBuilder, maximize,
                            propagate_unit_box, with_premise)
from omlprob.states import state_system
from pastings import CHAIN, PENTAGON, TWO, pasting_candidate

_B = lattice.boolean_algebra


def _hs3():
    return lattice.horizontal_sum([_B(3), _B(2), _B(2)])


def _pasting(blocks):
    return lattice.validate_oml(pasting_candidate(blocks))


def _shuffled(l, seed):
    """l with its element order shuffled: product order, and so each
    orbit's first member, changes."""
    d = l.to_dict()
    random.Random(seed).shuffle(d["elements"])
    return lattice.validate_oml(d)


def _orbit(x, gens):
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for g in gens:
            if g[y] not in orbit:
                orbit.add(g[y])
                todo.append(g[y])
    return orbit


def _group_order(gens, n):
    """Product of the basic orbit lengths for the base 0, ..., n-1: the
    group order when gens is a strong generating set for that base."""
    order = 1
    for i in range(n):
        stab = [g for g in gens if all(g[b] == b for b in range(i))]
        order *= len(_orbit(i, stab))
    return order


def _is_automorphism(l, g):
    els = l.elements
    pos = {x: i for i, x in enumerate(els)}
    n = len(els)
    return (sorted(g) == list(range(n))
            and all(l.leq(els[x], els[y]) == l.leq(els[g[x]], els[g[y]])
                    for x in range(n) for y in range(n))
            and all(g[pos[l.ocomp(els[x])]] == pos[l.ocomp(els[g[x]])]
                    for x in range(n)))


_LATTICES = ([("2^%d" % n, _B(n)) for n in range(1, 7)]
             + [("MO(%d)" % n, lattice.mo(n)) for n in range(2, 9)]
             + [("HS3", _hs3()),
                ("MO(4)-shuffled", _shuffled(lattice.mo(4), 1)),
                ("2^4-shuffled", _shuffled(_B(4), 2)),
                ("HS3-shuffled", _shuffled(_hs3(), 3)),
                ("pasting-two", _pasting(TWO)),
                ("pasting-chain", _pasting(CHAIN)),
                ("pasting-pentagon", _pasting(PENTAGON))])


@pytest.mark.parametrize("name,l", _LATTICES, ids=[n for n, _ in _LATTICES])
def test_generators_are_automorphisms(name, l):
    gens = automorphism_generators(l)
    assert all(_is_automorphism(l, g) for g in gens)
    assert len(set(gens)) == len(gens)
    assert tuple(range(len(l))) not in gens


_ORDERS = ([(_B(n), math.factorial(n)) for n in range(1, 7)]
           + [(lattice.mo(n), math.factorial(n) * 2 ** n)
              for n in range(2, 9)]
           + [(_hs3(), 48), (_shuffled(_hs3(), 3), 48),
              (_shuffled(lattice.mo(5), 4), 3840),
              (_pasting(TWO), 8), (_pasting(CHAIN), 8),
              (_pasting(PENTAGON), 10)])


@pytest.mark.parametrize("l,order", _ORDERS,
                         ids=["2^%d" % n for n in range(1, 7)]
                         + ["MO(%d)" % n for n in range(2, 9)]
                         + ["HS3", "HS3-shuffled", "MO(5)-shuffled",
                            "pasting-two", "pasting-chain",
                            "pasting-pentagon"])
def test_group_order_from_strong_generators(l, order):
    # |Aut(MO(n))| = n! 2^n, |Aut(2^n)| = n!, |Aut(2^3 + 2^2 + 2^2)| =
    # 3! (atoms of 2^3) * 2 (swap the 2^2 blocks) * 2^2 (a <-> a' in each)
    # Pastings: the blocks' hypergraph automorphisms.  Two blocks sharing
    # an atom, and a chain of three: swap the two free atoms at each end,
    # and reverse = 2 * 2 * 2; the pentagon loop: the dihedral group D5
    assert _group_order(automorphism_generators(l), len(l)) == order


@pytest.mark.parametrize("l,pairs,triples", [
    (_B(3), 20, 120), (_B(4), 35, 330), (lattice.mo(2), 11, 48),
    *[(lattice.mo(n), 11, 49) for n in range(3, 9)],
    (_hs3(), 31, 226), (_shuffled(_hs3(), 3), 31, 226),
], ids=["2^3", "2^4", "MO(2)"] + ["MO(%d)" % n for n in range(3, 9)]
    + ["HS3", "HS3-shuffled"])
def test_orbit_counts(l, pairs, triples):
    for k, count in ((2, pairs), (3, triples)):
        reps = tuple_orbits(l, k)
        assert len(reps) == len(l) ** k
        assert sum(r == c for c, r in enumerate(reps)) == count


def _all_automorphisms(l):
    """Every automorphism, by trying each permutation of the interior
    (bot and top are fixed by all of them)."""
    n = len(l)
    ends = [l.elements.index(l.bot), l.elements.index(l.top)]
    inner = [i for i in range(n) if i not in ends]
    out = []
    for images in itertools.permutations(inner):
        g = list(range(n))
        for x, y in zip(inner, images):
            g[x] = y
        if _is_automorphism(l, g):
            out.append(g)
    return out


@pytest.mark.parametrize("l,order", [
    (lattice.mo(2), 8), (_B(3), 6), (_shuffled(lattice.mo(2), 5), 8),
    (_shuffled(_B(3), 6), 6)], ids=["MO(2)", "2^3", "MO(2)-shuffled",
                                    "2^3-shuffled"])
def test_tuple_orbits_match_the_listed_group(l, order):
    group = _all_automorphisms(l)
    assert len(group) == order
    n = len(l)
    for k in (2, 3):
        reps = tuple_orbits(l, k)
        for code, xs in enumerate(itertools.product(range(n), repeat=k)):
            least = min(sum(g[x] * n ** (k - 1 - i) for i, x in enumerate(xs))
                        for g in group)
            assert reps[code] == least


# -- orbit-wise drivers against all-targets reference loops --------------


def _bell_all(prop, l, sys, arity, var):
    """Every target solved, as before targets were grouped by orbit."""
    worst = None
    certs = {}
    for xs in itertools.product(l.elements, repeat=arity):
        label = ",".join(xs)
        val, point = maximize(sys, analysis._bell_coeffs(xs, var))
        certs[label] = analysis.fmt_rat(val)
        if worst is None or val > worst[0]:
            worst = (val, label, point)
    val, label, point = worst
    if val <= 1:
        return analysis.PropertyVerdict(
            prop, repr(l), "implied", certificate={
                "max": analysis.fmt_rat(val), "bound": "1",
                "per_target_max": certs})
    return analysis.PropertyVerdict(
        prop, repr(l), "violated",
        witness={"target": label, "value": analysis.fmt_rat(val),
                 "assignment": {k: analysis.fmt_rat(v) for k, v
                                in analysis._named(sys, point).items()}},
        certificate={"max": analysis.fmt_rat(val), "bound": "1"})


def _jauch_piron_state_all(l):
    """Every pair with a no later than b solved."""
    base = state_system(l)
    worst = None
    for i, a in enumerate(l.elements):
        for b in l.elements[i:]:
            sys = with_premise(base, {a: 1, b: 1})
            try:
                negmin, point = maximize(sys, {l.meet(a, b): -1})
            except Infeasible:
                continue
            if worst is None or -negmin < worst[0]:
                worst = (-negmin, (a, b), point, sys)
    if worst is None or worst[0] == 1:
        return analysis.PropertyVerdict(
            "jauch-piron-state", repr(l), "implied",
            certificate={"min_conclusion": "1"})
    low, (a, b), point, sys = worst
    return analysis.PropertyVerdict(
        "jauch-piron-state", repr(l), "violated",
        witness={"pair": "%s,%s" % (a, b), "m(a^b)": analysis.fmt_rat(low),
                 "state": {k: analysis.fmt_rat(v) for k, v
                           in analysis._named(sys, point).items()}})


def _jauch_piron_smap_all(l):
    """Every pair with a no later than b asked, in product order."""
    base = analysis.smap_system(l)
    for i, a in enumerate(l.elements):
        for b in l.elements[i:]:
            known = propagate_unit_box(base, {pair_var(a, a): 1,
                                              pair_var(b, b): 1})
            if known is None:
                continue
            try:
                witness = analysis._smap_pair_witness(
                    l, with_premise(base, known), a, b)
            except Infeasible:
                continue
            if witness is not None:
                return analysis.PropertyVerdict(
                    "jauch-piron-smap", repr(l), "violated", witness=witness)
    return analysis.PropertyVerdict(
        "jauch-piron-smap", repr(l), "implied",
        certificate={"conclusion": "p(a,b)=1",
                     "addendum": "p(a,c)=p(c,a)=p(c,c)"})


def _payload(v):
    # key order counts: per_target_max lists targets in product order
    return json.dumps(dataclasses.asdict(v))


_SMALL = [("2^2", _B(2)), ("2^3", _B(3)), ("MO(2)", lattice.mo(2)),
          ("MO(3)", lattice.mo(3)),
          ("MO(3)-shuffled", _shuffled(lattice.mo(3), 7)),
          ("2^3-shuffled", _shuffled(_B(3), 8))]
_BELL = {"bell1-state": analysis.bell1_state,
         "bell2-state": analysis.bell2_state,
         "bell1-smap": analysis.bell1_smap,
         "bell2-smap": analysis.bell2_smap,
         "bell2-smap-pseudometric":
             lambda l: analysis.bell2_smap(l, require_pseudometric=True)}
# the pseudometric rows make the all-targets loop slow past 6 elements
_BELL_CASES = [(prop, name, l) for prop in _BELL for name, l in _SMALL
               if prop != "bell2-smap-pseudometric" or len(l) <= 6]


@pytest.mark.parametrize("prop,name,l", _BELL_CASES,
                         ids=["%s-%s" % c[:2] for c in _BELL_CASES])
def test_bell_matches_all_targets(monkeypatch, prop, name, l):
    orbitwise = _payload(_BELL[prop](l))
    monkeypatch.setattr(analysis, "_bell", _bell_all)
    assert orbitwise == _payload(_BELL[prop](l))


def test_bell_runs_the_simplex_once_per_reduced_objective(monkeypatch):
    l = _B(3)
    reps = tuple_orbits(l, 3)
    targets = list(itertools.product(l.elements, repeat=3))
    solved = [code for code, rep in enumerate(reps) if rep == code]
    assert len(solved) == 120
    sys = state_system(l)
    distinct = {linear._objective(sys, analysis._bell_coeffs(
        targets[code], l.meet))[2] for code in solved}
    runs = []
    max_t = linear._max_t

    def counted(start, obj):
        runs.append(obj)
        return max_t(start, obj)

    monkeypatch.setattr(linear, "_max_t", counted)
    assert analysis.bell2_state(l).verdict == "implied"  # no witness LP
    assert sorted(runs) == sorted(distinct)


# 12-element inputs for the Jauch-Piron references alone: _SMALL also
# feeds the all-targets Bell loops
_JP = _SMALL + [("HS3", _hs3()), ("pasting-two", _pasting(TWO))]


@pytest.mark.parametrize("name,l", _JP, ids=[n for n, _ in _JP])
def test_jauch_piron_matches_all_pairs(name, l):
    assert (_payload(analysis.jauch_piron_state(l))
            == _payload(_jauch_piron_state_all(l)))
    assert (_payload(analysis.jauch_piron_smap(l))
            == _payload(_jauch_piron_smap_all(l)))


def _weakened(axioms):
    """The unit box plus the s-map rows of the given axioms."""
    def build(l):
        sb = SystemBuilder([pair_var(a, b) for a, b in l.pairs()])
        for a, b in l.pairs():
            sb.add_box(pair_var(a, b))
        sb.add_rows([row for row in _axiom_rows("s", l) if row[0] in axioms],
                    lambda pair: (pair_var(*pair),))
        return sb.build()
    return build


@pytest.mark.parametrize("name,l", _JP[3:], ids=[n for n, _ in _JP[3:]])
@pytest.mark.parametrize("axioms", [("s1", "s2"), ("s1", "s3")],
                         ids=["s1+s2", "s1+s3"])
def test_jauch_piron_smap_witness_matches_all_pairs(monkeypatch, name, l,
                                                    axioms):
    # violated on every lattice here, so the first violating pair and
    # its witness are compared
    monkeypatch.setattr(analysis, "smap_system", _weakened(axioms))
    orbitwise = analysis.jauch_piron_smap(l)
    assert orbitwise.verdict == "violated"
    assert _payload(orbitwise) == _payload(_jauch_piron_smap_all(l))
