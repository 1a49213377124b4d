from fractions import Fraction

from omlprob.analysis import (
    bell1_smap,
    bell1_state,
    bell2_smap,
    bell2_state,
    is_pseudometric,
    jauch_piron_smap,
    jauch_piron_state,
    search_pseudometric_violation,
)
from omlprob.bimaps import BiMap, derive_d_from_s, smap_system
from omlprob.linear import enumerate_vertices
from omlprob.states import StateFn, validate_state

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
