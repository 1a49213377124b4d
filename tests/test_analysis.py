import hashlib
from fractions import Fraction

import pytest

from omlprob import analysis
from omlprob.analysis import (
    _smap_system_with_pseudometric,
    bell1_smap,
    bell1_state,
    bell2_smap,
    bell2_state,
    is_pseudometric,
    jauch_piron_smap,
    jauch_piron_state,
    search_pseudometric_violation,
)
from omlprob.bimaps import (BiMap, _axiom_rows, derive_d_from_s, pair_var,
                            smap_system)
from omlprob.linear import (Infeasible, SystemBuilder, enumerate_vertices,
                            functional_on, maximize, propagate_unit_box,
                            satisfies, with_premise)
from omlprob.states import StateFn, validate_state
from fraction_elimination import rational_form

F = Fraction


# -- Bell inequality on states -------------------------------------------


def test_bell1_state_mo2_violated(mo2):
    v = bell1_state(mo2)
    assert v.verdict == "violated"
    # [PAPER] the two-valued state with m(a) = m(b) = 1, m(a^b) = 0
    assert v.witness["value"] == "2"
    m = {k: F(x) for k, x in v.witness["assignment"].items()}
    validate_state(mo2, StateFn.from_dict(mo2, m))
    a, b = v.witness["target"].split(",")
    assert m[a] == 1 and m[b] == 1 and m[mo2.meet(a, b)] == 0


def test_bell1_state_boolean_implied(b1, b2, b3):
    for l in (b1, b2, b3):
        v = bell1_state(l)
        assert v.verdict == "implied"
        assert v.certificate["max"] == "1"


# -- Bell inequality on s-maps -------------------------------------------


def test_bell1_smap_implied_everywhere(mo2, mo3, b3):
    for l in (mo2, mo3, b3):
        v = bell1_smap(l)
        assert v.verdict == "implied"
        assert v.certificate["max"] == "1"
        assert v.certificate["bound"] == "1"


def test_bell1_diagonal_targets(b2):
    # the target at (x, x) is m(x) + m(x) - m(x) = m(x), whose max over
    # 2^2 is 1 for every x but 0; the coefficient of a repeated term adds
    for v in (bell1_state(b2), bell1_smap(b2)):
        per_target = v.certificate["per_target_max"]
        assert {x: per_target["%s,%s" % (x, x)] for x in b2.elements} == {
            "0": "0", "a": "1", "b": "1", "1": "1"}


def test_bell2_state_mo3_violated(mo3):
    v = bell2_state(mo3)
    assert v.verdict == "violated"
    # [PAPER] m = 1 on one atom of each block gives the value 3
    assert v.witness["value"] == "3"


def test_bell2_state_boolean_implied(b2, b3):
    for l in (b2, b3):
        assert bell2_state(l).verdict == "implied"


def test_bell2_smap_mo2_unrestricted_violated(mo2):
    v = bell2_smap(mo2)
    assert v.verdict == "violated"
    assert v.certificate["max"] == "3/2"


def test_bell2_smap_mo2_pseudometric_restricted_implied(mo2):
    v = bell2_smap(mo2, require_pseudometric=True)
    assert v.verdict == "implied"
    assert v.details["unrestricted_verdict"] == "violated"
    assert v.details["unrestricted_max"] == "3/2"


# -- Jauch-Piron ---------------------------------------------------------


def test_jauch_piron_state_mo2_violated(mo2):
    v = jauch_piron_state(mo2)
    assert v.verdict == "violated"
    assert v.witness["m(a^b)"] == "0"
    state = {k: F(x) for k, x in v.witness["state"].items()}
    a, b = v.witness["pair"].split(",")
    assert state[a] == 1 and state[b] == 1


def test_jauch_piron_state_boolean_implied(b3):
    assert jauch_piron_state(b3).verdict == "implied"


def test_jauch_piron_smap_implied(mo2, b3):
    for l in (mo2, b3):
        v = jauch_piron_smap(l)
        assert v.verdict == "implied"
        assert v.certificate["addendum"] == "p(a,c)=p(c,a)=p(c,c)"


def unit_box_system(l, axioms=(), pins=()):
    """The unit box on every pair variable, the s-map rows of the given
    axioms (in smap_system's order), and the equalities x = v of pins."""
    sb = SystemBuilder([pair_var(a, b) for a, b in l.pairs()])
    for a, b in l.pairs():
        sb.add_box(pair_var(a, b))
    sb.add_rows(sorted((row for row in _axiom_rows("s", l)
                        if row[0] in axioms), key=lambda row: row[0]),
                lambda pair: (pair_var(*pair),))
    for name, v in pins:
        sb.add_eq({name: 1}, v)
    return sb.build()


def assert_addendum_witness(sys, witness, gap):
    """witness is an addendum failure whose gap is the first positive
    maximum of x - y, then y - x, under the witness pair's premise."""
    assert sorted(witness) == ["addendum", "gap", "pair"]
    assert witness["gap"] == gap
    a, b = witness["pair"].split(",")
    x, y = witness["addendum"].split(" != ")
    premise = with_premise(sys, {pair_var(a, a): 1, pair_var(b, b): 1})
    maxima = []
    for sign in (1, -1):
        val, point = maximize(premise, {x: sign, y: -sign})
        assert satisfies(premise, point)
        maxima.append(val)
    assert F(gap) == next(val for val in maxima if val > 0)


# witnesses of jauch_piron_smap on s-map systems cut down to some axioms,
# computed before the property had one decision path; every lattice
# keeps the full system's "implied", so only these reach "violated"
_WEAKENED = {
    ("b2", ("s1",)): ("0,0", "0|a != a|a"),
    ("b2", ("s1", "s2")): ("a,a", "a|b != b|b"),
    ("b2", ("s1", "s3")): ("1,1", "1|a != a|a"),
    ("b3", ("s1",)): ("0,0", "0|a != a|a"),
    ("b3", ("s1", "s2")): ("a,a", "a|b != b|b"),
    ("b3", ("s1", "s3")): ("ab,ab", "ab|a != a|a"),
    ("mo2", ("s1",)): ("0,0", "0|a != a|a"),
    ("mo2", ("s1", "s2")): ("a,a", "a|a' != a'|a'"),
    ("mo2", ("s1", "s3")): ("a,a", "a|b != b|b"),
}


@pytest.mark.parametrize("lname,axioms", sorted(_WEAKENED), ids=[
    "%s-%s" % (l, "+".join(axioms)) for l, axioms in sorted(_WEAKENED)])
def test_jauch_piron_smap_weakened_systems(lname, axioms, request,
                                            monkeypatch):
    l = request.getfixturevalue(lname)
    sys = unit_box_system(l, axioms)
    monkeypatch.setattr(analysis, "smap_system", lambda _l: sys)
    v = jauch_piron_smap(l)
    assert v.verdict == "violated"
    pair, addendum = _WEAKENED[lname, axioms]
    assert v.witness == {"pair": pair, "addendum": addendum, "gap": "1"}
    assert_addendum_witness(sys, v.witness, "1")


def test_jauch_piron_smap_gap_is_positive(b1, monkeypatch):
    # the premise pins every variable: p(1,0) - p(0,0) is -1/2, and the
    # gap reported is the positive maximum of p(0,0) - p(1,0)
    sys = unit_box_system(b1, pins=[("0|0", F(1, 2)), ("0|1", F(1, 2)),
                                    ("1|0", 0)])
    monkeypatch.setattr(analysis, "smap_system", lambda _l: sys)
    v = jauch_piron_smap(b1)
    assert v.verdict == "violated"
    assert v.witness == {"pair": "1,1", "addendum": "1|0 != 0|0",
                         "gap": "1/2"}
    assert_addendum_witness(sys, v.witness, "1/2")


def test_jauch_piron_smap_vacuous_when_elimination_refutes(b1, monkeypatch):
    # propagation refutes p(0,0) = 1 at the row 0|0 = 0; p(1,1) = 1
    # leaves 0|1 + 1|0 = 1 against 2 0|1 + 2 1|0 = 1, which no interval
    # rule pins and elimination refutes: both premises are empty
    sb = SystemBuilder([pair_var(a, b) for a, b in b1.pairs()])
    for name in sb.vars:
        sb.add_box(name)
    sb.add_eq({"0|0": 1}, 0)
    sb.add_eq({"0|1": 1, "1|0": 1, "1|1": -1}, 0)
    sb.add_eq({"0|1": 2, "1|0": 2}, 1)
    sys = sb.build()
    monkeypatch.setattr(analysis, "smap_system", lambda _l: sys)
    assert propagate_unit_box(sys, {"0|0": 1}) is None
    assert propagate_unit_box(sys, {"1|1": 1}) is not None
    with pytest.raises(Infeasible):
        functional_on(with_premise(sys, {"1|1": 1}), {"0|1": 1})
    assert jauch_piron_smap(b1).verdict == "implied"


# -- pseudometric --------------------------------------------------------


def test_is_pseudometric_accepts_true_metric(b2):
    # [DERIVED] d_p from a symmetric Boolean s-map is a pseudometric
    def m(x):
        return sum(w for atom, w in
                   {"a": F(1, 3), "b": F(2, 3)}.items() if b2.leq(atom, x))

    P = BiMap.from_function(b2, lambda a, b: m(b2.meet(a, b)))
    verdict = is_pseudometric(derive_d_from_s(P))
    assert verdict.is_pseudometric
    assert verdict.violated_axiom is None


def test_is_pseudometric_flags_diagonal(mo2):
    D = BiMap.from_function(mo2, lambda a, b: F(1, 2))
    verdict = is_pseudometric(D)
    assert not verdict.is_pseudometric
    assert verdict.violated_axiom == "zero-diagonal"


def test_is_pseudometric_flags_symmetry(b2):
    D = BiMap.from_function(
        b2, lambda a, b: 0 if a == b else
        (F(1, 2) if (a, b) == ("a", "b") else F(1, 4)))
    verdict = is_pseudometric(D)
    assert not verdict.is_pseudometric
    assert verdict.violated_axiom == "symmetry"


def test_sweep_finds_mo2_witness(b2, mo2, mo3):
    report = search_pseudometric_violation([b2, mo2, mo3], cap=100)
    assert report.outcome == "witness"
    assert "6 elements" in report.lattice  # MO(2)
    assert report.violation.violated_axiom == "symmetry"
    # reproducible: the witness index points at the actual bad vertex
    verts = enumerate_vertices(smap_system(mo2), 100)
    P = BiMap.from_vector(mo2, verts[report.vertex_index])
    assert not is_pseudometric(derive_d_from_s(P)).is_pseudometric


def test_sweep_exhausts_boolean(b2):
    report = search_pseudometric_violation([b2], cap=100)
    assert report.outcome == "exhausted"
    assert report.checked[0][1] > 0  # at least one vertex was checked


def test_sweep_deterministic(b2, mo2):
    r1 = search_pseudometric_violation([b2, mo2], cap=100)
    r2 = search_pseudometric_violation([b2, mo2], cap=100)
    assert r1.summary() == r2.summary()


# -- one row list: the pseudometric LP and first violations are pinned --


def reduced_digest(sys):
    """sha256 prefix of the system's equality-eliminated form, written
    in the rational form the digests were taken in."""
    return hashlib.sha256(
        repr(rational_form(sys.reduced)).encode()).hexdigest()[:16]


# the reduced s-map + pseudometric system (x0, basis, rows, rhs) as it
# was before the zero-diagonal rows joined its equalities: they lie in
# the span of (s2), so every start vertex, pivot and maximum is the same
PSEUDOMETRIC_REDUCED_DIGESTS = {
    "b2": "5af011e2c6e53d86",
    "b3": "66e050fb9be7719e",
    "hs3": "b6eaad905db780b9",
    "mo2": "0b3211f4bce20ec9",
    "mo3": "0206ff5a7d1f628b",
}


@pytest.mark.parametrize("lname", sorted(PSEUDOMETRIC_REDUCED_DIGESTS))
def test_pseudometric_system_reduction_unchanged(lname, request):
    l = request.getfixturevalue(lname)
    assert (reduced_digest(_smap_system_with_pseudometric(l, smap_system(l)))
            == PSEUDOMETRIC_REDUCED_DIGESTS[lname])


def lp_vertices(l):
    """The distinct maximizers of +-p(x, y) over the s-map polytope, for
    every pair: vertices found without enumerating them all."""
    sys = smap_system(l)
    found = set()
    for a, b in l.pairs():
        for sign in (1, -1):
            found.add(maximize(sys, {pair_var(a, b): sign})[1])
    return sorted(found)


def test_pseudometric_checker_agrees_with_system(mo2, mo3):
    # every s-map vertex of MO(2); on MO(3), whose vertices the walk
    # does not reach in test time, the vertices that maximize or
    # minimize one pair variable
    for l, vertices in ((mo2, enumerate_vertices(smap_system(mo2), 100)),
                        (mo3, lp_vertices(mo3))):
        sys = _smap_system_with_pseudometric(l, smap_system(l))
        verdicts = set()
        for vec in vertices:
            P = BiMap.from_vector(l, vec)
            verdict = is_pseudometric(derive_d_from_s(P)).is_pseudometric
            assert verdict == satisfies(sys, P.as_vector())
            verdicts.add(verdict)
        assert verdicts == {True, False}


def mutated_metrics(l, D):
    """(label, D') for D' = D with the entry at a|b moved by 1/100, and,
    for a before b, with the entries at a|b and b|a both moved (which
    keeps the symmetry), staying inside [0, 1]."""
    def moved(M, a, b):
        old = M(a, b)
        return M.replace(a, b, old + F(1, 100) if old < 1
                         else old - F(1, 100))

    for i, a in enumerate(l.elements):
        for j, b in enumerate(l.elements):
            yield "%s|%s" % (a, b), moved(D, a, b)
            if i < j:
                yield "%s|%s+%s|%s" % (a, b, b, a), moved(moved(D, a, b), b, a)


def state_smap(l, m):
    """[DERIVED] m(a ^ b) on compatible pairs and m(a) m(b) otherwise: an
    s-map on a Boolean algebra and on MO(n)."""
    return BiMap.from_function(
        l, lambda a, b: m[l.meet(a, b)] if l.compatible(a, b)
        else m[a] * m[b])


@pytest.fixture(scope="module")
def metrics(b3, mo2):
    """d_p of an s-map that is a pseudometric, on 2^3 and on MO(2)."""
    weights = {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)}
    m3 = {x: sum((w for atom, w in weights.items() if b3.leq(atom, x)),
                 F(0)) for x in b3.elements}
    m2 = {"0": F(0), "a": F(1, 2), "a'": F(1, 2), "b": F(1, 3),
          "b'": F(2, 3), "1": F(1)}
    return {"b3": derive_d_from_s(state_smap(b3, m3)),
            "mo2": derive_d_from_s(state_smap(mo2, m2))}


# (lattice, mutated entries) -> (violated axiom, witness)
PSEUDOMETRIC_FIRST_VIOLATIONS = {
    ("b3", "0|0"): ("zero-diagonal", ("0",)),
    ("b3", "a|0"): ("symmetry", ("0", "a")),
    ("b3", "a|b"): ("symmetry", ("a", "b")),
    ("b3", "0|1+1|0"): (None, None),
    ("b3", "0|ab+ab|0"): ("triangle", ("0", "ab", "a")),
    ("b3", "a|b+b|a"): ("triangle", ("a", "b", "0")),
    ("b3", "a|1+1|a"): ("triangle", ("a", "1", "ab")),
    ("mo2", "a'|a'"): ("zero-diagonal", ("a'",)),
    ("mo2", "b'|a"): ("symmetry", ("a", "b'")),
    ("mo2", "a|b'"): ("symmetry", ("a", "b'")),
    ("mo2", "a|b+b|a"): (None, None),
}

# sha256 over the verdict of every mutation of both metrics
ALL_PSEUDOMETRIC_MUTATIONS_DIGEST = (
    "aa0780055f0198b5e5d106c333d97d81618b2b11a7467c9feac48b3dfa79688e")


def test_pseudometric_first_violations_unchanged(metrics, b3, mo2):
    h = hashlib.sha256()
    for lname, l in (("b3", b3), ("mo2", mo2)):
        assert is_pseudometric(metrics[lname]).is_pseudometric, lname
        for label, D in mutated_metrics(l, metrics[lname]):
            v = is_pseudometric(D)
            got = (v.violated_axiom, v.witness)
            h.update(("%s %s %s\n" % (lname, label, got)).encode())
            if (lname, label) in PSEUDOMETRIC_FIRST_VIOLATIONS:
                assert got == PSEUDOMETRIC_FIRST_VIOLATIONS[lname, label]
    assert h.hexdigest() == ALL_PSEUDOMETRIC_MUTATIONS_DIGEST
