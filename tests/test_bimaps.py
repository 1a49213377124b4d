import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlprob import lattice
from omlprob.bimaps import (
    CORNERS_OF_FAMILY,
    FAMILY_OF_CORNERS,
    BiMap,
    BiMapError,
    InvalidCorners,
    ParamOutOfRange,
    UnsupportedFamily,
    bimap_from_json,
    build_table3_family,
    check_d_map,
    check_g_map,
    check_j_map,
    check_map,
    check_s_map,
    classify_family,
    complement_map,
    corners_of,
    derive_d_from_s,
    derive_j_from_s,
    derive_pure_projection_from_s,
    dmap_system,
    gmap_system,
    induced_state_from_gamma9,
    induced_state_from_smap,
    is_pure_projection,
    jmap_system,
    pair_var,
    semantic_check_on_compatible,
    smap_system,
    verify_gamma9_identities,
    verify_lemma_komp,
)
from omlprob.linear import enumerate_vertices, satisfies
from omlprob.rational import fmt_rat
from omlprob.states import validate_state

F = Fraction
H = F(1, 2)


@pytest.fixture(scope="module")
def g9(mo2):
    return build_table3_family(F(1, 3), F(2, 3), 0, 1, l=mo2)


@pytest.fixture(scope="module")
def smap_vertices_mo2(mo2):
    return [BiMap.from_vector(mo2, v)
            for v in enumerate_vertices(smap_system(mo2), 100)]


def boolean_smap(l, weights):
    """[DERIVED] p(a, b) = m(a ^ b) is an s-map on a Boolean algebra,
    for m the state weighting each atom."""
    def m(x):
        return sum(w for atom, w in weights.items() if l.leq(atom, x))

    return BiMap.from_function(l, lambda a, b: m(l.meet(a, b)))


# -- the parametric family: exact table reproduction ---------------------


def test_table3_exact_values(g9):
    # [PAPER] the worked 6x6 table for (r1, r2, u1, u2) = (1/3, 2/3, 0, 1)
    expected_rows = {
        "0": {x: F(0) for x in ("0", "a", "a'", "b", "b'", "1")},
        "a": {"0": H, "a": H, "a'": H, "b": F(1, 3), "b'": F(2, 3), "1": H},
        "a'": {"0": H, "a": H, "a'": H, "b": F(2, 3), "b'": F(1, 3), "1": H},
        "b": {"0": H, "a": F(0), "a'": F(1), "b": H, "b'": H, "1": H},
        "b'": {"0": H, "a": F(1), "a'": F(0), "b": H, "b'": H, "1": H},
        "1": {x: F(1) for x in ("0", "a", "a'", "b", "b'", "1")},
    }
    for a, row in expected_rows.items():
        for b, v in row.items():
            assert g9(a, b) == v, (a, b)


def test_table3_is_g_map_only(g9):
    assert check_g_map(g9).ok
    assert not check_s_map(g9).ok
    assert not check_j_map(g9).ok
    assert not check_d_map(g9).ok


def test_table3_family_and_purity(g9):
    tag = classify_family(g9)
    assert tag.gamma == 9
    assert tag.corners == (0, 0, 1, 1)
    pure, witness = is_pure_projection(g9)
    assert not pure
    assert witness == ("a", "b")


def test_degenerate_parameters_give_pure_projection():
    G = build_table3_family(F(1, 4), F(1, 4), F(3, 5), F(3, 5))
    pure, witness = is_pure_projection(G)
    assert pure and witness is None
    assert classify_family(G).gamma == 9


def test_param_out_of_range():
    with pytest.raises(ParamOutOfRange):
        build_table3_family(F(3, 2), 0, 0, 0)


def test_wrong_lattice_rejected(b3):
    with pytest.raises(BiMapError):
        build_table3_family(0, 0, 0, 0, l=b3)


def test_table4_induced_states(g9, mo2):
    # [PAPER] m_b(a) = r1 = 1/3 and m_0(a) = alpha = 1/2
    m_b = induced_state_from_gamma9(g9, "b")
    m_0 = induced_state_from_gamma9(g9, mo2.bot)
    validate_state(mo2, m_b)
    validate_state(mo2, m_0)
    assert m_b("a") == F(1, 3)
    assert m_b("a'") == F(2, 3)
    assert m_0("a") == H
    assert m_0("b") == H


def test_table3_identities(g9):
    assert verify_lemma_komp(g9).ok
    assert verify_gamma9_identities(g9).ok
    assert semantic_check_on_compatible(g9).ok


# -- Gamma families ------------------------------------------------------


def test_corner_table_is_complete_and_injective():
    assert len(FAMILY_OF_CORNERS) == 16
    assert sorted(FAMILY_OF_CORNERS.values()) == list(range(1, 17))
    assert set(FAMILY_OF_CORNERS) == set(
        itertools.product((0, 1), repeat=4))
    for g, corners in CORNERS_OF_FAMILY.items():
        assert FAMILY_OF_CORNERS[corners] == g


def test_tabled_corner_assignments():
    # [PAPER] the twelve published corner patterns
    assert FAMILY_OF_CORNERS[(0, 0, 0, 0)] == 1
    assert FAMILY_OF_CORNERS[(0, 0, 0, 1)] == 2   # s-maps
    assert FAMILY_OF_CORNERS[(0, 1, 1, 1)] == 3   # j-maps
    assert FAMILY_OF_CORNERS[(0, 1, 1, 0)] == 4   # d-maps
    assert FAMILY_OF_CORNERS[(1, 1, 1, 0)] == 5
    assert FAMILY_OF_CORNERS[(1, 0, 0, 0)] == 6
    assert FAMILY_OF_CORNERS[(1, 0, 0, 1)] == 7
    assert FAMILY_OF_CORNERS[(1, 1, 1, 1)] == 8
    assert FAMILY_OF_CORNERS[(0, 0, 1, 1)] == 9
    assert FAMILY_OF_CORNERS[(0, 1, 0, 1)] == 10
    assert FAMILY_OF_CORNERS[(1, 1, 0, 0)] == 11
    assert FAMILY_OF_CORNERS[(1, 0, 1, 0)] == 12


def test_leftover_families_lexicographic():
    assert FAMILY_OF_CORNERS[(0, 0, 1, 0)] == 13
    assert FAMILY_OF_CORNERS[(0, 1, 0, 0)] == 14
    assert FAMILY_OF_CORNERS[(1, 0, 1, 1)] == 15
    assert FAMILY_OF_CORNERS[(1, 1, 0, 1)] == 16


def test_constant_maps_classify(mo2):
    zero = BiMap.from_function(mo2, lambda a, b: 0)
    one = BiMap.from_function(mo2, lambda a, b: 1)
    assert check_g_map(zero).ok and classify_family(zero).gamma == 1
    assert check_g_map(one).ok and classify_family(one).gamma == 8


def test_derived_maps_classify(smap_vertices_mo2):
    P = smap_vertices_mo2[0]
    assert classify_family(P).gamma == 2
    assert classify_family(derive_j_from_s(P)).gamma == 3
    assert classify_family(derive_d_from_s(P)).gamma == 4
    assert classify_family(derive_pure_projection_from_s(P)).gamma == 9


def test_classify_rejects_fractional_corners(mo2):
    G = BiMap.from_function(mo2, lambda a, b: F(1, 2))
    with pytest.raises(InvalidCorners):
        classify_family(G)


def test_complement_swaps_families(g9, smap_vertices_mo2):
    # Gamma9 <-> Gamma11, Gamma2 <-> Gamma5, Gamma3 <-> Gamma6
    assert classify_family(complement_map(g9)).gamma == 11
    P = smap_vertices_mo2[0]
    assert classify_family(complement_map(P)).gamma == 5
    assert classify_family(complement_map(derive_j_from_s(P))).gamma == 6
    assert classify_family(complement_map(derive_d_from_s(P))).gamma == 7
    # complement of any valid G-map is again a valid G-map
    assert check_g_map(complement_map(g9)).ok


# -- checkers: positive and mutation oracles -----------------------------


def test_boolean_smap_valid(b2):
    P = boolean_smap(b2, {"a": F(1, 3), "b": F(2, 3)})
    assert check_s_map(P).ok
    assert check_map("s", P).ok
    # [PAPER] property 1 on a Boolean algebra: p(a,b) = p(a^b, a^b)
    for a, b in b2.pairs():
        assert P(a, b) == P(b2.meet(a, b), b2.meet(a, b))


def test_smap_mutation_caught(b2):
    P = boolean_smap(b2, {"a": F(1, 3), "b": F(2, 3)})
    bad = P.replace("a", "b", P("a", "b") + F(1, 100))
    report = check_s_map(bad)
    assert not report.ok
    assert report.first_violation is not None


def test_derived_j_and_d_valid(smap_vertices_mo2):
    for P in smap_vertices_mo2:
        assert check_j_map(derive_j_from_s(P)).ok
        assert check_d_map(derive_d_from_s(P)).ok
        assert check_g_map(derive_pure_projection_from_s(P)).ok


def test_induced_state_valid(smap_vertices_mo2, mo2):
    for P in smap_vertices_mo2:
        m = induced_state_from_smap(P)
        validate_state(mo2, m)
        for a in mo2.elements:
            # [PAPER] m_p(a) = p(a,a) = p(1,a) = p(a,1)
            assert m(a) == P(a, a) == P(mo2.top, a) == P(a, mo2.top)


def test_check_map_unknown_system(g9):
    with pytest.raises(BiMapError):
        check_map("x", g9)


def test_j_map_violation_details(mo2):
    Q = BiMap.from_function(mo2, lambda a, b: 1)  # fails (j1) at (0,0)
    report = check_j_map(Q)
    assert not report.ok
    assert report.first_violation.axiom == "j1"
    assert report.first_violation.elements == (mo2.bot, mo2.bot)


# -- semantics on compatible pairs ---------------------------------------


def test_semantics_smap_is_meet(b2):
    P = boolean_smap(b2, {"a": F(1, 4), "b": F(3, 4)})
    assert semantic_check_on_compatible(P).ok


def test_semantics_unsupported_family(mo2):
    # corners (0,0,1,0) = Gamma13; the check refuses families 13-16
    G = BiMap.from_function(
        mo2, lambda a, b: 1 if (a, b) == (mo2.top, mo2.bot) else 0)
    assert classify_family(G).gamma == 13
    with pytest.raises(UnsupportedFamily):
        semantic_check_on_compatible(G)


def test_lemma_komp_all_suite_gmaps(b2, g9, smap_vertices_mo2):
    maps = [g9, boolean_smap(b2, {"a": F(1, 5), "b": F(4, 5)})]
    maps += [derive_j_from_s(P) for P in smap_vertices_mo2[:2]]
    maps += [derive_d_from_s(P) for P in smap_vertices_mo2[:2]]
    for G in maps:
        assert verify_lemma_komp(G).ok


# -- linear systems agree with the checkers ------------------------------


def test_table3_satisfies_gmap_system(g9, mo2):
    sys = gmap_system(mo2, (0, 0, 1, 1))
    assert satisfies(sys, g9.as_vector())


def test_smap_vertices_satisfy_checker(smap_vertices_mo2):
    for P in smap_vertices_mo2:
        assert check_s_map(P).ok


def test_jmap_system_membership(mo2, smap_vertices_mo2):
    sys = jmap_system(mo2)
    Q = derive_j_from_s(smap_vertices_mo2[0])
    assert satisfies(sys, Q.as_vector())


def test_dmap_system_membership(mo2, smap_vertices_mo2):
    sys = dmap_system(mo2)
    D = derive_d_from_s(smap_vertices_mo2[0])
    assert satisfies(sys, D.as_vector())


def test_gmap_system_rejects_bad_corners(mo2):
    with pytest.raises(InvalidCorners):
        gmap_system(mo2, (0, 0, 2, 1))


# -- serialization -------------------------------------------------------


def test_bimap_json_round_trip(g9, mo2):
    again = bimap_from_json(g9.to_json("mo2.json"), mo2)
    assert again == g9


def test_bimap_rejects_partial(mo2):
    with pytest.raises(BiMapError):
        bimap_from_json('{"lattice": "x", "values": {"0|0": "0"}}', mo2)


def test_bimap_rejects_out_of_range(mo2):
    with pytest.raises(BiMapError):
        BiMap.from_function(mo2, lambda a, b: F(3, 2))


# -- parametric family properties ----------------------------------------


rat01 = st.integers(0, 12).map(lambda n: F(n, 12))


@settings(max_examples=40, deadline=None)
@given(rat01, rat01, rat01, rat01)
def test_table3_always_valid_gamma9(r1, r2, u1, u2):
    G = build_table3_family(r1, r2, u1, u2)
    assert check_g_map(G).ok
    assert classify_family(G).gamma == 9
    assert verify_gamma9_identities(G).ok
    assert corners_of(G) == (0, 0, 1, 1)
    # purity iff both parameter pairs coincide
    assert is_pure_projection(G)[0] == (r1 == r2 and u1 == u2)


@settings(max_examples=20, deadline=None)
@given(rat01, rat01, rat01, rat01)
def test_table3_complement_is_gamma11(r1, r2, u1, u2):
    G = complement_map(build_table3_family(r1, r2, u1, u2))
    assert check_g_map(G).ok
    assert classify_family(G).gamma == 11


def test_pair_var_format():
    assert pair_var("a", "b'") == "a|b'"


# -- one row table: LP rows and first violations are pinned -------------


def system_digest(sys):
    """sha256 prefix of the variables and of every row, in order."""
    h = hashlib.sha256(repr(sys.vars).encode())
    for kind, rows in (("=", sys.eqs), ("<=", sys.ineqs)):
        for coeffs, rhs in rows:
            h.update(("%s %s %s\n" % (" ".join(map(str, coeffs)), kind, rhs))
                     .encode())
    return h.hexdigest()[:16]


SYSTEMS = {
    "s": smap_system,
    "j": jmap_system,
    "d": dmap_system,
    "g0011": lambda l: gmap_system(l, (0, 0, 1, 1)),
    "g0001": lambda l: gmap_system(l, (0, 0, 0, 1)),
}

# the rows each system had when checkers and LP systems were written
# separately; any change to a row, its order or its rhs shows here
SYSTEM_DIGESTS = {
    ("s", "b3"): "8473a792709edab8",
    ("j", "b3"): "5aeeb6c7ed6a9585",
    ("d", "b3"): "2e4bc535624d5bdb",
    ("g0011", "b3"): "514e87544cf287e3",
    ("g0001", "b3"): "2ca7862354b4d236",
    ("s", "mo2"): "ebc779ea9bc57ad9",
    ("j", "mo2"): "62b1d254e80385dd",
    ("d", "mo2"): "817cb54899885b67",
    ("g0011", "mo2"): "10fb31e8a492d22d",
    ("g0001", "mo2"): "2401f0ed8984448b",
    ("s", "mo3"): "c276f1c10b6ab361",
    ("j", "mo3"): "a46873c22034eced",
    ("d", "mo3"): "916828dec8c34b44",
    ("g0011", "mo3"): "1bbda48198f278f0",
    ("g0001", "mo3"): "21b3909df5437b84",
    ("s", "hs3"): "2b46e77f743a1855",
    ("j", "hs3"): "af0f421dfad7ea76",
    ("d", "hs3"): "e2c047c3a2f6f80e",
    ("g0011", "hs3"): "e6e46349b4404028",
    ("g0001", "hs3"): "a011f70404e3fb5a",
}


@pytest.mark.parametrize("system,lname", sorted(SYSTEM_DIGESTS))
def test_system_rows_unchanged(system, lname, request):
    l = request.getfixturevalue(lname)
    assert system_digest(SYSTEMS[system](l)) == SYSTEM_DIGESTS[system, lname]


def state_smap(l, m):
    """m(a ^ b) on compatible pairs and m(a) m(b) otherwise: an s-map on
    MO(n), and on a Boolean algebra the map m(a ^ b)."""
    return BiMap.from_function(
        l, lambda a, b: m[l.meet(a, b)] if l.compatible(a, b)
        else m[a] * m[b])


@pytest.fixture(scope="module")
def valid_maps(mo2, b3, g9):
    """A valid s-, j-, d- and G-map on MO(2) and on 2^3."""
    out = {}
    P = state_smap(mo2, {"0": F(0), "a": H, "a'": H, "b": F(1, 3),
                         "b'": F(2, 3), "1": F(1)})
    out["mo2"] = {"s": P, "j": derive_j_from_s(P), "d": derive_d_from_s(P),
                  "g": g9}
    P = boolean_smap(b3, {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)})
    out["b3"] = {"s": P, "j": derive_j_from_s(P), "d": derive_d_from_s(P),
                 "g": complement_map(derive_j_from_s(P))}
    return out


def mutate(M, a, b):
    """M with M(a, b) moved by 1/100, staying inside [0, 1]."""
    old = M(a, b)
    return M.replace(a, b, old + F(1, 100) if old < 1 else old - F(1, 100))


def first_violation(system, M):
    v = check_map(system, M).first_violation
    return v and (v.axiom, v.elements, fmt_rat(v.lhs), fmt_rat(v.rhs))


# (system, lattice, mutated pair) -> (axiom, elements, lhs, rhs)
FIRST_VIOLATIONS = {
    ("s", "mo2", "0", "0"): ("s2", ("0", "0"), "1/100", "0"),
    ("s", "mo2", "a", "b"): ("s3", ("a", "a'", "b"), "1/3", "103/300"),
    ("s", "mo2", "b", "1"): ("s3", ("a", "a'", "b"), "103/300", "1/3"),
    ("s", "mo2", "1", "0"): ("s3", ("0", "0", "1"), "1/100", "1/50"),
    ("s", "mo2", "1", "1"): ("s1", ("1", "1"), "99/100", "1"),
    ("j", "mo2", "0", "0"): ("j1", ("0", "0"), "1/100", "0"),
    ("j", "mo2", "a", "b"): ("j3", ("a", "a'", "b"), "1", "101/100"),
    ("j", "mo2", "b", "1"): ("j3", ("a", "a'", "b"), "99/100", "1"),
    ("j", "mo2", "1", "0"): ("j3", ("0", "0", "1"), "99/100", "49/50"),
    ("j", "mo2", "1", "1"): ("j1", ("1", "1"), "99/100", "1"),
    ("d", "mo2", "0", "0"): ("d1", ("0", "0"), "1/100", "0"),
    ("d", "mo2", "a", "b"): ("d3", ("a", "a'", "b"), "2/3", "203/300"),
    ("d", "mo2", "b", "1"): ("d3", ("a", "a'", "b"), "203/300", "2/3"),
    ("d", "mo2", "1", "0"): ("d1", ("1", "0"), "99/100", "1"),
    ("d", "mo2", "1", "1"): ("d1", ("1", "1"), "1/100", "0"),
    ("g", "mo2", "0", "0"): ("G1", ("0", "0"), "-99/10000", "0"),
    ("g", "mo2", "a", "b"): ("G3-row", ("a", "a'", "b"), "1", "101/100"),
    ("g", "mo2", "b", "1"): ("G3-col", ("a", "a'", "b"), "51/100", "1/2"),
    ("g", "mo2", "1", "0"): ("G1", ("1", "0"), "-99/10000", "0"),
    ("g", "mo2", "1", "1"): ("G1", ("1", "1"), "-99/10000", "0"),
    ("s", "b3", "0", "0"): ("s2", ("0", "0"), "1/100", "0"),
    ("s", "b3", "a", "b"): ("s2", ("a", "b"), "1/100", "0"),
    ("s", "b3", "b", "1"): ("s3", ("a", "b", "1"), "1/2", "51/100"),
    ("s", "b3", "1", "0"): ("s3", ("0", "0", "1"), "1/100", "1/50"),
    ("s", "b3", "1", "1"): ("s1", ("1", "1"), "99/100", "1"),
    ("j", "b3", "0", "0"): ("j1", ("0", "0"), "1/100", "0"),
    ("j", "b3", "a", "b"): ("j2", ("a", "b"), "51/100", "1/2"),
    ("j", "b3", "b", "1"): ("j3", ("a", "b", "1"), "1", "99/100"),
    ("j", "b3", "1", "0"): ("j3", ("0", "0", "1"), "99/100", "49/50"),
    ("j", "b3", "1", "1"): ("j1", ("1", "1"), "99/100", "1"),
    ("d", "b3", "0", "0"): ("d1", ("0", "0"), "1/100", "0"),
    ("d", "b3", "a", "b"): ("d2", ("a", "b"), "51/100", "1/2"),
    ("d", "b3", "b", "1"): ("d3", ("a", "b", "1"), "1/2", "51/100"),
    ("d", "b3", "1", "0"): ("d1", ("1", "0"), "99/100", "1"),
    ("d", "b3", "1", "1"): ("d1", ("1", "1"), "1/100", "0"),
    ("g", "b3", "0", "0"): ("G1", ("0", "0"), "-99/10000", "0"),
    ("g", "b3", "a", "b"): ("G2", ("a", "b"), "51/100", "1/2"),
    ("g", "b3", "b", "1"): ("G3-row", ("a", "b", "1"), "0", "1/100"),
    ("g", "b3", "1", "0"): ("G1", ("1", "0"), "-99/10000", "0"),
    ("g", "b3", "1", "1"): ("G1", ("1", "1"), "-99/10000", "0"),
}

# sha256 over the first violation of every one-entry mutation of every
# map in valid_maps
ALL_MUTATIONS_DIGEST = (
    "d6638a58112fca1edd43f42c2d6ccb74d53c4ab5be91fa98716de6f9cad8be7c")


def test_first_violations_unchanged(valid_maps, mo2, b3):
    h = hashlib.sha256()
    for lname, l in (("mo2", mo2), ("b3", b3)):
        for system, M in valid_maps[lname].items():
            assert check_map(system, M).ok, (system, lname)
            for a, b in l.pairs():
                got = first_violation(system, mutate(M, a, b))
                h.update(("%s %s %s|%s %s\n" % (system, lname, a, b, got))
                         .encode())
                if (system, lname, a, b) in FIRST_VIOLATIONS:
                    assert got == FIRST_VIOLATIONS[system, lname, a, b]
    assert h.hexdigest() == ALL_MUTATIONS_DIGEST


def system_of(system, M):
    if system == "g":
        return gmap_system(M.lattice, corners_of(M))
    return SYSTEMS[system](M.lattice)


@pytest.mark.parametrize("system", ["s", "j", "d", "g"])
def test_checker_agrees_with_system(system, valid_maps, mo2, b3):
    # criterion 13's agreement, for every map class: every mutation on
    # MO(2), a fixed few on 2^3
    for lname, sites in (("mo2", list(mo2.pairs())),
                         ("b3", [("0", "0"), ("1", "1"), ("1", "0"),
                                 ("a", "b"), ("b", "1")])):
        M = valid_maps[lname][system]
        for N in [M] + [mutate(M, a, b) for a, b in sites]:
            assert (check_map(system, N).ok
                    == satisfies(system_of(system, N), N.as_vector()))
