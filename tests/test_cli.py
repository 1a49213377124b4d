import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omlprob
from omlprob import lattice, linear
from omlprob.bimaps import BiMap, build_table3_family
from omlprob.cli import main

F = Fraction


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    mo2 = lattice.mo(2)
    (d / "mo2.json").write_text(mo2.to_json())
    (d / "b3.json").write_text(lattice.boolean_algebra(3).to_json())
    (d / "b2.json").write_text(lattice.boolean_algebra(2).to_json())
    (d / "mo3.json").write_text(lattice.mo(3).to_json())
    (d / "hex.json").write_text(json.dumps(lattice.hexagon_candidate()))
    (d / "list.json").write_text("[]")
    triple = lattice.boolean_algebra(2).to_dict()
    triple["leq"][0].append("a")
    (d / "triple.json").write_text(json.dumps(triple))
    g9 = build_table3_family(F(1, 3), F(2, 3), 0, 1, l=mo2)
    (d / "g9.json").write_text(g9.to_json("mo2.json"))
    # a map on MO(2) whose corners are not all 0 or 1
    (d / "half.json").write_text(json.dumps(
        {"lattice": "mo2.json",
         "values": {"%s|%s" % p: "1/2" for p in mo2.pairs()}}))
    # corners (0,0,1,0): Gamma13, a family with no connective semantics
    g13 = BiMap.from_function(
        mo2, lambda a, b: int((a, b) == (mo2.top, mo2.bot)))
    (d / "g13.json").write_text(g13.to_json("mo2.json"))
    b1 = lattice.boolean_algebra(1)
    (d / "b1.json").write_text(b1.to_json())
    # the s-map m(a^b) of 2^1's one state, plus a key naming no element
    values = {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "1", "zz|q": "0"}
    (d / "unknown-key.json").write_text(
        json.dumps({"lattice": "b1.json", "values": values}))
    (d / "pipe.json").write_text(
        lattice.boolean_algebra(2).to_json().replace('"a"', '"a|x"'))
    two = {"elements": ["b", "t"], "leq": [["b", "t"]],
           "comp": {"b": "t", "t": "b"}, "bot": "b", "top": "t"}
    (d / "list-id.json").write_text(json.dumps(
        dict(two, elements=[[0], "t"])))
    (d / "int-ids.json").write_text(json.dumps(
        {"elements": [0, 1], "leq": [[0, 1]], "comp": {"0": 1, "1": 0},
         "bot": 0, "top": 1}))
    # a complement given for "zz", which is no element
    (d / "unknown-comp.json").write_text(json.dumps(
        dict(two, comp={"b": "t", "t": "b", "zz": "b"})))
    (d / "b4.json").write_text(lattice.boolean_algebra(4).to_json())
    (d / "mo4.json").write_text(lattice.mo(4).to_json())
    (d / "mo5.json").write_text(lattice.mo(5).to_json())
    (d / "hs3.json").write_text(lattice.horizontal_sum(
        [lattice.boolean_algebra(k) for k in (3, 2, 2)]).to_json())
    (d / "non-utf8.json").write_bytes(b"\xff\xfe")
    (d / "nested.json").write_text("[" * 200000)
    # the values of 2^1's s-map m(a^b), written as JSON booleans
    (d / "booleans.json").write_text(json.dumps(
        {"lattice": "b1.json", "values": {"0|0": False, "0|1": False,
                                          "1|0": False, "1|1": True}}))
    # a value in exponent form stands for a 5001-digit denominator, and
    # one in decimal form is no "p/q" string either
    (d / "exponent.json").write_text(json.dumps(
        {"lattice": "b1.json", "values": {"0|0": "0", "0|1": "0",
                                          "1|0": "0", "1|1": "1e-5000"}}))
    (d / "decimal.json").write_text(json.dumps(
        {"lattice": "b1.json", "values": {"0|0": "0", "0|1": "0",
                                          "1|0": "0", "1|1": "1.0"}}))
    return d


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_lattice_valid(files, capsys):
    code, out, _ = run(capsys, "check-lattice", files / "mo2.json")
    assert code == 0
    assert "valid OML" in out


def test_check_lattice_invalid(files, capsys):
    code, out, _ = run(capsys, "check-lattice", files / "hex.json")
    assert code == 1
    assert "INVALID" in out


def test_check_lattice_missing_file(files, capsys):
    code, _, err = run(capsys, "check-lattice", files / "nope.json")
    assert code == 2
    assert "error" in err


def test_check_lattice_json_mode(files, capsys):
    code, out, _ = run(capsys, "--json", "check-lattice", files / "mo2.json")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert len(data["blocks"]) == 2


def test_check_map_valid_g(files, capsys):
    code, out, _ = run(capsys, "check-map", "--system", "g",
                       files / "mo2.json", files / "g9.json")
    assert code == 0
    assert "Gamma9" in out


def test_check_map_invalid_s(files, capsys):
    code, out, _ = run(capsys, "--json", "check-map", "--system", "s",
                       files / "mo2.json", files / "g9.json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["violation"]["axiom"].startswith("s")


def test_classify_map(files, capsys):
    code, out, _ = run(capsys, "--json", "classify-map",
                       files / "mo2.json", files / "g9.json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == 9
    assert data["corners"] == [0, 0, 1, 1]
    assert data["pure_projection"] is False
    assert data["pure_projection_witness"] == ["a", "b"]


def test_states_with_vertices(files, capsys, monkeypatch):
    reductions = []
    reduce = linear._reduce
    monkeypatch.setattr(linear, "_reduce",
                        lambda *a: reductions.append(a) or reduce(*a))
    code, out, _ = run(capsys, "--json", "states", files / "mo2.json",
                       "--vertices", "10")
    assert code == 0
    assert len(reductions) == 1  # classification and vertices share it
    data = json.loads(out)
    assert data["classification"] == "quantum-logic"
    assert data["dim"] == 2
    assert data["vertices_complete"] is True
    assert len(data["vertices"]) == 4


def test_construct_round_trips(files, capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--family", "gamma9",
                       "--lattice", files / "mo2.json",
                       "--params", "1/3,2/3,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["values"]["a|b"] == "1/3"
    assert data["values"]["a|0"] == "1/2"


def test_construct_bad_params(files, capsys):
    code, _, err = run(capsys, "construct", "--family", "gamma9",
                       "--lattice", files / "mo2.json", "--params", "3/2,0,0,0")
    assert code == 2


def test_derive_state(files, capsys, tmp_path):
    # derive needs a genuine s-map: build one by constructing and deriving
    # from the vertex file written on the fly
    from omlprob.bimaps import BiMap, smap_system
    from omlprob.linear import enumerate_vertices

    mo2 = lattice.mo(2)
    P = BiMap.from_vector(mo2, enumerate_vertices(smap_system(mo2), 100)[0])
    p_path = tmp_path / "smap.json"
    p_path.write_text(P.to_json("mo2.json"))
    code, out, _ = run(capsys, "derive", "--what", "state",
                       files / "mo2.json", p_path)
    assert code == 0
    data = json.loads(out)
    assert data["1"] == "1" and data["0"] == "0"

    code, out, _ = run(capsys, "derive", "--what", "j",
                       files / "mo2.json", p_path)
    assert code == 0
    assert json.loads(out)["values"]["1|1"] == "1"


def test_derive_rejects_non_smap(files, capsys):
    code, out, _ = run(capsys, "derive", "--what", "j",
                       files / "mo2.json", files / "g9.json")
    assert code == 1


def test_verify_identities(files, capsys):
    for identity in ("compatible-decomposition", "gamma9", "semantics"):
        code, out, _ = run(capsys, "verify", "--identity", identity,
                           files / "mo2.json", files / "g9.json")
        assert code == 0, identity
        assert "holds" in out


def test_property_violated_exit(files, capsys):
    code, out, _ = run(capsys, "--json", "property", "bell1-state",
                       files / "mo2.json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "violated"
    assert data["witness"]["value"] == "2"


def test_property_implied_exit(files, capsys):
    code, out, _ = run(capsys, "property", "bell1-state", files / "b3.json")
    assert code == 0
    assert "implied" in out


def test_search_pseudometric(files, capsys):
    code, out, _ = run(capsys, "--json", "search", "pseudometric",
                       files / "b2.json")
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted"

    code, out, _ = run(capsys, "--json", "search", "pseudometric",
                       files / "b2.json", files / "mo2.json")
    assert code == 1
    assert json.loads(out)["outcome"] == "witness"


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["no-such-verb"]) == 2


@pytest.mark.parametrize("argv,env,code", [
    (["property", "bell1-state", "hex.json"], None, 1),
    (["states", "hex.json"], None, 1),
    (["check-map", "--system", "s", "hex.json", "g9.json"], None, 1),
    (["states", "list.json"], None, 1),
    (["states", "triple.json"], None, 1),
    (["check-lattice", "triple.json"], None, 1),
    (["search", "pseudometric", "--cap", "1", "b2.json"], None, 2),
    (["search", "pseudometric", "--cap", "0", "b2.json"], None, 2),
    (["states", "b2.json"], "many", 2),
    (["check-map", "--system", "s", "b1.json", "unknown-key.json"], None, 1),
    (["property", "bell1-state", "pipe.json"], None, 1),
    (["states", "list-id.json"], None, 1),
    (["states", "int-ids.json"], None, 1),
    (["verify", "--identity", "semantics", "mo2.json", "half.json"], None, 1),
    (["states", "b2.json", "--vertices", "-1"], None, 2),
    (["search", "pseudometric", "--cap", "-1", "b2.json"], None, 2),
    (["check-lattice", "non-utf8.json"], None, 2),
    (["states", "non-utf8.json"], None, 2),
    (["property", "bell1-state", "non-utf8.json"], None, 2),
    (["search", "pseudometric", "b2.json", "non-utf8.json"], None, 2),
    (["states", "nested.json"], None, 2),
    (["check-lattice", "nested.json"], None, 2),
    (["check-map", "--system", "s", "mo2.json", "nested.json"], None, 2),
    (["check-map", "--system", "s", "b1.json", "booleans.json"], None, 2),
    (["check-map", "--system", "s", "b1.json", "exponent.json"], None, 2),
    (["check-map", "--system", "s", "b1.json", "decimal.json"], None, 2),
    (["construct", "--family", "gamma9", "--lattice", "mo2.json",
      "--params", "1e-5000,0,0,1"], None, 2),
    (["check-lattice", "unknown-comp.json"], None, 1),
    (["check-lattice", "mo2.json"], "0", 2),
    (["check-lattice", "mo2.json"], "-1", 2),
], ids=["non-oml-property", "non-oml-states", "non-oml-check-map",
        "non-object-lattice", "order-triple", "order-triple-check-lattice",
        "cap-below-vertices", "cap-zero", "bad-max-elements",
        "unknown-pair-key", "pipe-in-element-id", "list-element-id",
        "integer-element-ids", "semantics-fractional-corners",
        "negative-vertices", "negative-cap", "non-utf8-check-lattice",
        "non-utf8-states", "non-utf8-property", "non-utf8-search",
        "nested-lattice", "nested-lattice-check-lattice", "nested-map",
        "boolean-map-values", "exponent-map-value", "decimal-map-value",
        "exponent-params", "unknown-comp-key", "max-elements-zero",
        "max-elements-negative"])
def test_bad_input_exit_codes(files, capsys, monkeypatch, argv, env, code):
    # each input once escaped main() as a traceback or exited 0 or 2
    if env is not None:
        monkeypatch.setenv("OMLPROB_MAX_ELEMENTS", env)
    assert main(["--json"] + [str(files / a) if a.endswith(".json") else a
                              for a in argv]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")


def test_vertex_cap_messages(files, capsys):
    # the count is the cap that was passed, not how many were found
    code, _, err = run(capsys, "search", "pseudometric", "--cap", "0",
                       files / "b2.json")
    assert (code, err) == (2, "error: vertex cap exceeded, more than 0 "
                              "vertices; raise --cap\n")
    code, _, err = run(capsys, "search", "pseudometric", "--cap", "-1",
                       files / "b2.json")
    assert (code, err) == (2, "error: --cap must be 0 or more\n")


def test_require_pseudometric_only_with_bell2_smap(files, capsys):
    # every other property once ignored the flag and exited 0 or 1
    for name in ("bell1-state", "bell1-smap", "bell2-state",
                 "jauch-piron-state", "jauch-piron-smap"):
        assert run(capsys, "--json", "property", name, files / "mo2.json",
                   "--require-pseudometric") == (
            2, "", "error: --require-pseudometric applies to bell2-smap "
                   "only\n")
    out = run(capsys, "--json", "property", "bell2-smap",
              files / "mo2.json", "--require-pseudometric")[1]
    assert json.loads(out)["property"] == "bell2-smap-pseudometric"


def test_verify_semantics_with_fractional_corners(files, capsys):
    # and on Gamma13: main reports the BiMapError on stderr, exit 1
    for path, message in (
            ("half.json", "corners ['1/2', '1/2', '1/2', '1/2'] are not all "
                          "in {0, 1}"),
            ("g13.json", "no connective semantics for Gamma13")):
        assert run(capsys, "--json", "verify", "--identity", "semantics",
                   files / "mo2.json", files / path) == (
            1, "", "error: %s\n" % message)


# --json payloads and exit codes of the Jauch-Piron properties, pinned
# from the solver before premises were restricted in the reduced space
_SMAP_IMPLIED = {"certificate": {"addendum": "p(a,c)=p(c,a)=p(c,c)",
                                 "conclusion": "p(a,b)=1"},
                 "details": None, "property": "jauch-piron-smap",
                 "verdict": "implied", "witness": None}


def _state_violated(state, pair="a,b"):
    return {"certificate": None, "details": None,
            "property": "jauch-piron-state", "verdict": "violated",
            "witness": {"m(a^b)": "0", "pair": pair, "state": state}}


JAUCH_PIRON_GOLDENS = {
    ("jauch-piron-state", "b3"): (0, {
        "certificate": {"min_conclusion": "1"}, "details": None,
        "property": "jauch-piron-state", "verdict": "implied",
        "witness": None}),
    ("jauch-piron-state", "mo2"): (1, _state_violated(
        {"0": "0", "1": "1", "a": "1", "a'": "0", "b": "1", "b'": "0"})),
    ("jauch-piron-state", "mo3"): (1, _state_violated(
        {"0": "0", "1": "1", "a": "1", "a'": "0", "b": "1", "b'": "0",
         "c": "1", "c'": "0"})),
    ("jauch-piron-state", "b4"): (0, {
        "certificate": {"min_conclusion": "1"}, "details": None,
        "property": "jauch-piron-state", "verdict": "implied",
        "witness": None}),
    ("jauch-piron-state", "mo4"): (1, _state_violated(
        {"0": "0", "1": "1", "a": "1", "a'": "0", "b": "1", "b'": "0",
         "c": "1", "c'": "0", "d": "1", "d'": "0"})),
    ("jauch-piron-smap", "b3"): (0, _SMAP_IMPLIED),
    ("jauch-piron-smap", "mo2"): (0, _SMAP_IMPLIED),
    ("jauch-piron-smap", "mo3"): (0, _SMAP_IMPLIED),
    # pinned from the all-pairs loop, before pairs were grouped by orbit
    ("jauch-piron-state", "mo5"): (1, _state_violated(
        {"0": "0", "1": "1", "a": "1", "a'": "0", "b": "1", "b'": "0",
         "c": "1", "c'": "0", "d": "1", "d'": "0", "e": "1", "e'": "0"})),
    ("jauch-piron-state", "hs3"): (1, _state_violated(
        {"0": "0", "1": "1", "a#0": "1", "a#1": "1", "a#2": "1",
         "ab#0": "1", "ac#0": "1", "b#0": "0", "b#1": "0", "b#2": "0",
         "bc#0": "0", "c#0": "0"}, "a#0,a#1")),
    ("jauch-piron-smap", "b4"): (0, _SMAP_IMPLIED),
    ("jauch-piron-smap", "mo5"): (0, _SMAP_IMPLIED),
    ("jauch-piron-smap", "hs3"): (0, _SMAP_IMPLIED),
}


@pytest.mark.parametrize("prop,tag", sorted(JAUCH_PIRON_GOLDENS))
def test_jauch_piron_payloads_unchanged(files, capsys, prop, tag):
    code, out, _ = run(capsys, "--json", "property", prop,
                       files / (tag + ".json"))
    assert (code, json.loads(out)) == JAUCH_PIRON_GOLDENS[prop, tag]


@pytest.mark.parametrize("name", ["list-id", "int-ids"])
def test_non_string_ids_are_invalid_lattices(files, capsys, name):
    code, out, _ = run(capsys, "--json", "check-lattice",
                       files / (name + ".json"))
    data = json.loads(out)
    assert (code, data["valid"]) == (1, False)
    assert "is not a string" in data["error"]


# --json payloads and exit codes of the Bell properties, pinned from the
# dense two-phase tableau simplex the reduced-space simplex replaced:
# (exit code, verdict, certificate max, sha256 of the sorted-key JSON
# payload, first 16 hex digits)
BELL_GOLDENS = {
    ("bell1-state", "b2"): (0, "implied", "1", "b5d69941f6847e6a"),
    ("bell1-state", "b3"): (0, "implied", "1", "aa5aa2e5bdc68a6f"),
    ("bell1-state", "mo2"): (1, "violated", "2", "774bbf5a4dbdc807"),
    ("bell1-state", "mo3"): (1, "violated", "2", "81b83a4e15f883f5"),
    ("bell2-state", "b2"): (0, "implied", "1", "92b819182d7fc9c6"),
    ("bell2-state", "b3"): (0, "implied", "1", "37d71c20fb19fbb1"),
    ("bell2-state", "mo2"): (1, "violated", "2", "042e6708cfc94660"),
    ("bell2-state", "mo3"): (1, "violated", "3", "8ee33672980319df"),
    ("bell1-smap", "b2"): (0, "implied", "1", "e1c1777fb7bd036e"),
    ("bell1-smap", "b3"): (0, "implied", "1", "279ca9b94445ea97"),
    ("bell1-smap", "mo2"): (0, "implied", "1", "e6c6e5ebe69de35c"),
    ("bell1-smap", "mo3"): (0, "implied", "1", "0c9309633bcf83c6"),
    ("bell2-smap", "b2"): (0, "implied", "1", "28180c7f2e62e7a1"),
    ("bell2-smap", "b3"): (0, "implied", "1", "b14cce9b675f5547"),
    ("bell2-smap", "mo2"): (1, "violated", "3/2", "7cb73b56e45db544"),
    ("bell2-smap", "mo3"): (1, "violated", "3/2", "b567e7f6563d2990"),
    # pinned from the all-targets loop, before targets were grouped by
    # orbit; the violated ones test that the witness target is unchanged
    ("bell1-state", "b4"): (0, "implied", "1", "a5d84b6471ce1c81"),
    ("bell1-state", "mo4"): (1, "violated", "2", "aa2875a3d575a586"),
    ("bell1-state", "mo5"): (1, "violated", "2", "fdb61521a0423e43"),
    ("bell1-state", "hs3"): (1, "violated", "2", "789c4fd7926a61a2"),
    ("bell2-state", "b4"): (0, "implied", "1", "03e8a6db61ea129e"),
    ("bell2-state", "mo4"): (1, "violated", "3", "58616c8d22142ef5"),
    ("bell2-state", "mo5"): (1, "violated", "3", "c544bc588f951ea0"),
    ("bell2-state", "hs3"): (1, "violated", "3", "016ce8169b738a88"),
    ("bell1-smap", "b4"): (0, "implied", "1", "ea52a731dc1a0411"),
    ("bell1-smap", "mo4"): (0, "implied", "1", "deaa3cb7cbd3ea31"),
    ("bell1-smap", "mo5"): (0, "implied", "1", "434d6e8dc7c69436"),
    ("bell1-smap", "hs3"): (0, "implied", "1", "1ab594e6a5c0c023"),
    ("bell2-smap", "mo4"): (1, "violated", "3/2", "6bb0b4f541d866d0"),
}


@pytest.mark.parametrize("prop,tag", sorted(BELL_GOLDENS))
def test_bell_payloads_unchanged(files, capsys, prop, tag):
    code, out, _ = run(capsys, "--json", "property", prop,
                       files / (tag + ".json"))
    data = json.loads(out)
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]
    assert (code, data["verdict"], data["certificate"]["max"],
            digest) == BELL_GOLDENS[prop, tag], out


# -- arbitrary JSON inputs: main() returns 0, 1 or 2 and never raises ----

_IDS = ["0", "1", "a", "a'", "b", "b'", "x|y"]
_scalars = (st.none() | st.booleans() | st.integers(-2, 2)
            | st.sampled_from([0.5, "", "1/2", "2", "-1", "1/0"] + _IDS))
_json = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_IDS + ["lattice"]),
                                     inner, max_size=4)),
    max_leaves=12)
_ids = st.sampled_from(_IDS) | _scalars
# the keys of a lattice file, each holding a near-miss or arbitrary value
_lattice_fields = {
    "elements": st.lists(_ids, max_size=6) | _json,
    "leq": st.lists(st.lists(_ids, max_size=3), max_size=6) | _json,
    "covers": st.lists(st.lists(_ids, min_size=2, max_size=2), max_size=6),
    "comp": st.dictionaries(st.sampled_from(_IDS), _ids, max_size=6) | _json,
    "bot": _ids, "top": _ids, "extra": _json,
}
_lattices = (
    _json
    | st.fixed_dictionaries({}, optional=_lattice_fields)
    # a valid lattice with one field replaced
    | st.sampled_from(sorted(_lattice_fields)).flatmap(
        lambda key: _lattice_fields[key].map(
            lambda v: dict(lattice.mo(2).to_dict(), **{key: v}))))
_maps = _json | st.fixed_dictionaries(
    {"lattice": st.just("lattice.json"),
     "values": st.dictionaries(
         st.sampled_from(["%s|%s" % (x, y) for x in _IDS[:6]
                          for y in _IDS[:6]] + ["a", "zz|q"]),
         _scalars, max_size=40)})
_argvs = st.sampled_from([
    ["check-lattice", "L"], ["states", "L", "--vertices", "3"],
    ["check-map", "--system", "s", "L", "M"],
    ["check-map", "--system", "g", "L", "M"], ["classify-map", "L", "M"],
    ["derive", "--what", "j", "L", "M"],
    ["verify", "--identity", "gamma9", "L", "M"],
    ["verify", "--identity", "semantics", "L", "M"],
    ["property", "bell1-state", "L"],
])


@settings(max_examples=300, deadline=None)
@given(_lattices, _maps, _argvs, st.booleans())
def test_arbitrary_json_inputs_give_an_exit_code(lat, mp, argv, as_json):
    with tempfile.TemporaryDirectory() as d:
        paths = {"L": Path(d, "lattice.json"), "M": Path(d, "map.json")}
        paths["L"].write_text(json.dumps(lat))
        paths["M"].write_text(json.dumps(mp))
        argv = [str(paths.get(a, a)) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--json"] * as_json + argv)
    assert code in (0, 1, 2)


def test_main_in_one_process_answers_as_fresh_processes(files, capsys,
                                                        monkeypatch):
    # main builds its parser once per process; calls after others, a
    # usage error among them, must answer as a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    calls = [
        ["--json", "check-map", "--system", "g", "mo2.json", "g9.json"],
        ["check-map", "--system", "x", "mo2.json", "g9.json"],
        ["--json", "check-map", "--system", "s", "mo2.json", "g9.json"],
        ["classify-map", "mo2.json", "g9.json"],
        ["no-such-verb"],
        ["--json", "verify", "--identity", "gamma9", "mo2.json", "g9.json"],
        ["--json", "states", "b2.json", "--vertices", "5"],
        ["check-lattice", "--help"],
    ]
    src = Path(omlprob.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for argv in calls:
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        fresh = subprocess.run([sys.executable, "-m", "omlprob.cli"] + argv,
                               capture_output=True, text=True, env=env)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr), argv
