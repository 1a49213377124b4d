import json
from fractions import Fraction

import pytest

from omlprob import lattice
from omlprob.bimaps import build_table3_family
from omlprob.cli import main

F = Fraction


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    mo2 = lattice.mo(2)
    (d / "mo2.json").write_text(mo2.to_json())
    (d / "b3.json").write_text(lattice.boolean_algebra(3).to_json())
    (d / "b2.json").write_text(lattice.boolean_algebra(2).to_json())
    (d / "hex.json").write_text(json.dumps(lattice.hexagon_candidate()))
    (d / "list.json").write_text("[]")
    triple = lattice.boolean_algebra(2).to_dict()
    triple["leq"][0].append("a")
    (d / "triple.json").write_text(json.dumps(triple))
    g9 = build_table3_family(F(1, 3), F(2, 3), 0, 1, l=mo2)
    (d / "g9.json").write_text(g9.to_json("mo2.json"))
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


def test_states_with_vertices(files, capsys):
    code, out, _ = run(capsys, "--json", "states", files / "mo2.json",
                       "--vertices", "10")
    assert code == 0
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
], ids=["non-oml-property", "non-oml-states", "non-oml-check-map",
        "non-object-lattice", "order-triple", "order-triple-check-lattice",
        "cap-below-vertices", "cap-zero", "bad-max-elements"])
def test_bad_input_exit_codes(files, capsys, monkeypatch, argv, env, code):
    # each input once escaped main() as a traceback
    if env is not None:
        monkeypatch.setenv("OMLPROB_MAX_ELEMENTS", env)
    assert main(["--json"] + [str(files / a) if a.endswith(".json") else a
                              for a in argv]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
