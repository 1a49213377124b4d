"""Seeded inputs, query lists and expected answers for each workload.

Run as a script this is the benchmark's set-up step: a fresh interpreter
imports omlprob (the import is part of what set-up time measures), then
writes the workload's lattice and map files and ``queries.json`` into
the output directory.  The seed relabels every ladder lattice and draws
the states behind the map files, the mutation sites and the Gamma9
parameters; the same seed always writes the same files.

Every expected answer comes from a closed form where one exists (the
product-of-simplices state polytope of a horizontal sum of Boolean
blocks, classical Bell bounds on Boolean algebras, m(a^b)-type maps on
2^n, the Gamma9 table) and otherwise from the values the acceptance
suite pins (the s-map maxima on MO(n)).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from lattices import Ladder, hexagon_dict  # noqa: E402

WORKLOADS = ("certify-objectives", "certify-premises", "sweep-and-check")

# ladder name -> Boolean block sizes
LADDER = {
    "b2": (2,), "b3": (3,), "b4": (4,), "b5": (5,), "b6": (6,),
    "mo2": (2, 2), "mo3": (2, 2, 2), "mo4": (2,) * 4, "mo5": (2,) * 5,
    "mo6": (2,) * 6, "mo7": (2,) * 7, "mo8": (2,) * 8,
    "hs322": (3, 2, 2), "hs332": (3, 3, 2),
}

# Maxima over the s-map polytope that have no closed form here; they are
# the values the acceptance suite and the README's worked examples pin.
SMAP_MAX = {
    ("bell1-smap", "mo2"): "1", ("bell1-smap", "mo3"): "1",
    ("bell2-smap", "mo2"): "3/2",
}
# s-map polytope vertex counts: 2^n has n (maps m(a^b) on the simplex),
# MO(2) has 6 (the README's six extreme points)
SMAP_VERTICES = {"b2": 2, "b3": 3, "mo2": 6}


def fmt(x: Fraction) -> str:
    return str(Fraction(x))


class Inputs:
    """Writes input files into one directory and collects queries."""

    def __init__(self, out: str, rng: random.Random, order: random.Random):
        self.out = out
        self.rng = rng
        self.order = order
        self.queries = []
        self.ladders = {}

    def ladder(self, tag: str) -> Ladder:
        if tag not in self.ladders:
            lad = Ladder(LADDER[tag], self.rng, self.order)
            self.ladders[tag] = lad
            self.write(tag + ".json", lad.to_json())
        return self.ladders[tag]

    def write(self, name: str, text: str) -> str:
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as f:
            f.write(text)
        return name

    def write_map(self, name: str, lattice_file: str, values: dict) -> str:
        return self.write(name, json.dumps(
            {"lattice": lattice_file,
             "values": {"%s|%s" % k: fmt(v) for k, v in values.items()}}))

    def add(self, argv, exit_codes, **expect):
        """One query: argv after ``--json``, allowed exit codes, and the
        payload checks (see passrun.check_answer)."""
        self.queries.append({"argv": list(argv), "exit": list(exit_codes),
                             "expect": expect})


# -- closed forms ----------------------------------------------------------


# classical Bell bounds: on 2^n both inequalities hold, with maximum 1
CLASSICAL_BELL_MAX = "1"


def state_bell_max(prop: str, lad: Ladder) -> str:
    """Max over states of the Bell left sides on a horizontal sum.

    Atoms of distinct blocks meet in 0 and can all carry mass 1, so the
    maximum is the number of positive terms that can be put in distinct
    blocks: 2 for bell1, min(3, blocks) for bell2 (1 on one block).
    """
    k = len(lad.parts)
    if k == 1:
        return CLASSICAL_BELL_MAX
    return str(2 if prop == "bell1-state" else min(3, k))


def property_expect(prop: str, tag: str, lad: Ladder) -> tuple:
    """(exit codes, fields) for a property query."""
    if prop.startswith("jauch-piron"):
        if prop == "jauch-piron-smap" or len(lad.parts) == 1:
            return [0], {"verdict": "implied"}
        # atoms of two blocks, both with mass 1, meet in 0
        return [1], {"verdict": "violated", "witness.m(a^b)": "0"}
    if prop.endswith("-state"):
        mx = state_bell_max(prop, lad)
    elif len(lad.parts) == 1:
        mx = CLASSICAL_BELL_MAX
    else:
        mx = SMAP_MAX[(prop, tag)]
    verdict = "implied" if Fraction(mx) <= 1 else "violated"
    return ([0] if verdict == "implied" else [1],
            {"verdict": verdict, "certificate.max": mx})


def boolean_maps(lad: Ladder, m: dict) -> dict:
    """The s-, j- and d-map of a state on a Boolean algebra, in closed
    form: m(a^b), m(a v b), m(a^b') + m(a'^b)."""
    els = lad.elements
    oc = lad.ocomp
    return {
        "s": {(a, b): m[lad.meet(a, b)] for a in els for b in els},
        "j": {(a, b): m[lad.join(a, b)] for a in els for b in els},
        "d": {(a, b): m[lad.meet(a, oc(b))] + m[lad.meet(oc(a), b)]
              for a in els for b in els},
    }


def gamma_maps(lad: Ladder, m: dict) -> dict:
    """G-maps of one state on any OML: m(a) (Gamma9, a pure projection),
    m(b) (Gamma10) and 1 - m(a) (Gamma11, again a pure projection)."""
    els = lad.elements
    return {
        "g9": {(a, b): m[a] for a in els for b in els},
        "g10": {(a, b): m[b] for a in els for b in els},
        "g11": {(a, b): 1 - m[a] for a in els for b in els},
    }


# family and purity of every closed-form map, as classify-map reports them
FAMILY = {"s": (2, False), "j": (3, False), "d": (4, False),
          "g9": (9, True), "g10": (10, False), "g11": (11, True)}


def gamma9_table(r1, r2, u1, u2) -> dict:
    """The parametric Gamma9 map on MO(2) (the paper's Table 3)."""
    alpha, beta = (r1 + r2) / 2, (u1 + u2) / 2
    rows = {
        "a": {"a": alpha, "a'": alpha, "b": r1, "b'": r2, "0": alpha,
              "1": alpha},
        "b": {"a": u1, "a'": u2, "b": beta, "b'": beta, "0": beta,
              "1": beta},
        "0": dict.fromkeys(("0", "1", "a", "a'", "b", "b'"), Fraction(0)),
        "1": dict.fromkeys(("0", "1", "a", "a'", "b", "b'"), Fraction(1)),
    }
    rows["a'"] = {x: 1 - v for x, v in rows["a"].items()}
    rows["b'"] = {x: 1 - v for x, v in rows["b"].items()}
    return {(a, b): v for a, row in rows.items() for b, v in row.items()}


def mutate(rng: random.Random, values: dict) -> dict:
    """A copy with one entry moved by 1/3, staying inside [0, 1]."""
    out = dict(values)
    key = rng.choice(sorted(out))
    v = out[key]
    out[key] = v + Fraction(1, 3) if v <= Fraction(2, 3) else v - Fraction(1, 3)
    return out


# -- workloads -------------------------------------------------------------


def certify_objectives(inp: Inputs):
    for prop, tags in (("bell1-state", ("b2", "b3", "b4", "mo2", "mo3",
                                        "mo4", "mo5")),
                       ("bell2-state", ("b2", "b3", "mo2", "mo3", "mo4",
                                        "mo5")),
                       ("bell1-smap", ("b2", "b3", "mo2", "mo3")),
                       ("bell2-smap", ("b2", "b3", "mo2"))):
        for tag in tags:
            lad = inp.ladder(tag)
            codes, fields = property_expect(prop, tag, lad)
            inp.add(["property", prop, tag + ".json"], codes, fields=fields)
    inp.ladder("mo2")
    inp.add(["property", "bell2-smap", "mo2.json", "--require-pseudometric"],
            [0], fields={"verdict": "implied", "certificate.max": "1",
                         "details.unrestricted_verdict": "violated",
                         "details.unrestricted_max": "3/2"})


def certify_premises(inp: Inputs):
    for prop, tags in (("jauch-piron-state", ("b2", "b3", "b4", "mo2",
                                              "mo3", "mo4", "mo5")),
                       ("jauch-piron-smap", ("b2", "b3", "mo2", "mo3",
                                             "mo4"))):
        for tag in tags:
            lad = inp.ladder(tag)
            codes, fields = property_expect(prop, tag, lad)
            inp.add(["property", prop, tag + ".json"], codes, fields=fields)


def vertex_sweep(inp: Inputs):
    for tag in ("b2", "b3", "b4", "mo2", "mo3", "mo4", "mo5", "mo6", "mo7",
                "mo8", "hs322", "hs332"):
        lad = inp.ladder(tag)
        verts = [{x: fmt(v) for x, v in s.items()}
                 for s in lad.state_vertices()]
        inp.add(["states", tag + ".json", "--vertices", "1000"], [0],
                fields={"classification": "quantum-logic",
                        "dim": lad.state_dim(), "vertices_complete": True},
                vertices=verts)
    tags = ("b2", "b3", "mo2")
    for tag in tags:
        inp.ladder(tag)
    inp.add(["search", "pseudometric"] + [t + ".json" for t in tags], [1],
            fields={"outcome": "witness",
                    "lattice": inp.ladders["mo2"].repr_text(),
                    "checked": [[inp.ladders[t].repr_text(), SMAP_VERTICES[t]]
                                for t in tags]})


def check(inp: Inputs):
    rng = inp.rng
    for tag in ("b4", "b5", "b6", "mo2", "mo3", "mo4", "mo5", "mo6", "mo7",
                "mo8", "hs322", "hs332"):
        lad = inp.ladder(tag)
        inp.add(["check-lattice", tag + ".json"], [0],
                fields={"valid": True}, blocks=sorted(
                    sorted(b) for b in lad.blocks()))
    inp.write("hexagon.json", json.dumps(hexagon_dict()))
    inp.add(["check-lattice", "hexagon.json"], [1], fields={"valid": False})

    g_files = []
    for tag in ("b2", "b3", "b4", "b5", "mo2", "mo3", "mo4", "mo5",
                "hs322"):
        lad = inp.ladder(tag)
        m = lad.random_state(rng)
        maps = gamma_maps(lad, m)
        if len(lad.parts) == 1:
            maps.update(boolean_maps(lad, m))
        for kind, values in sorted(maps.items()):
            name = inp.write_map("%s-%s.json" % (tag, kind), tag + ".json",
                                 values)
            bad = inp.write_map("%s-%s-mut.json" % (tag, kind),
                                tag + ".json", mutate(rng, values))
            systems = ["g"] + ([kind] if kind in "sjd" else [])
            for system in systems:
                inp.add(["check-map", "--system", system, tag + ".json",
                         name], [0], fields={"ok": True})
                inp.add(["check-map", "--system", system, tag + ".json",
                         bad], [1], fields={"ok": False})
            family, pure = FAMILY[kind]
            inp.add(["classify-map", tag + ".json", name], [0],
                    fields={"ok": True, "family": family,
                            "pure_projection": pure})
            g_files.append((tag, kind, name))
        if len(lad.parts) == 1:
            derived = {"j": maps["j"], "d": maps["d"],
                       "projection": maps["g9"]}
            for what, values in sorted(derived.items()):
                inp.add(["derive", "--what", what, tag + ".json",
                         "%s-s.json" % tag], [0],
                        map_values={"%s|%s" % k: fmt(v)
                                    for k, v in values.items()})
            inp.add(["derive", "--what", "state", tag + ".json",
                     "%s-s.json" % tag], [0],
                    state_values={x: fmt(v) for x, v in m.items()})

    for tag, kind, name in g_files:
        if kind == "g9":
            inp.add(["verify", "--identity", "compatible-decomposition",
                     tag + ".json", name], [0], fields={"ok": True})
        if kind in ("g9", "g10"):
            # the Gamma9 identities start with G(1, a) = 1, which m(b) breaks
            inp.add(["verify", "--identity", "gamma9", tag + ".json", name],
                    [0] if kind == "g9" else [1],
                    fields={"ok": kind == "g9"})
        if tag in ("b3", "mo3"):
            inp.add(["verify", "--identity", "semantics", tag + ".json",
                     name], [0], fields={"ok": True})

    mo2 = Ladder(LADDER["mo2"])  # construct needs the canonical names
    inp.write("mo2-canonical.json", mo2.to_json())
    for i in range(6):
        params = [Fraction(rng.randint(0, 12), 12) for _ in range(4)]
        table = gamma9_table(*params)
        text = ",".join(fmt(p) for p in params)
        inp.add(["construct", "--family", "gamma9", "--lattice",
                 "mo2-canonical.json", "--params", text], [0],
                map_values={"%s|%s" % k: fmt(v) for k, v in table.items()})
        name = inp.write_map("gamma9-%d.json" % i, "mo2-canonical.json",
                             table)
        inp.add(["verify", "--identity", "gamma9", "mo2-canonical.json",
                 name], [0], fields={"ok": True})
        inp.add(["classify-map", "mo2-canonical.json", name], [0],
                fields={"ok": True, "family": 9,
                        "pure_projection": params[0] == params[1]
                        and params[2] == params[3]})

    # invalid inputs: the README's exit codes are 1 (invalid object) and
    # 2 (usage or I/O error); a traceback out of main is neither
    inp.add(["property", "bell1-state", "hexagon.json"], [1, 2])
    inp.add(["search", "pseudometric", "--cap", "0", "b2.json"], [1, 2])


def sweep_and_check(inp: Inputs):
    """Vertex enumeration and the checker/CLI path in one workload, so
    that a run is long enough to ride out the machine's slow phases."""
    vertex_sweep(inp)
    check(inp)


GENERATORS = {"certify-objectives": certify_objectives,
            "certify-premises": certify_premises,
            "sweep-and-check": sweep_and_check}


def generate(workload: str, seed: int, out: str) -> None:
    """Write the workload's inputs and queries.json into out.

    The seed draws element names, states, mutation sites and Gamma9
    parameters.  The element order is shuffled too, but from the
    workload name alone: a reorder changes Bland pivot paths and moves
    single queries by up to 4x (bell1-state on 2^4: 0.34 to 1.33 s), so
    seed-drawn orders would make runs with different seeds incomparable.
    """
    os.makedirs(out, exist_ok=True)
    inp = Inputs(out, random.Random("%s:%d" % (workload, seed)),
                 random.Random("%s:order" % workload))
    GENERATORS[workload](inp)
    inp.write("queries.json", json.dumps(
        {"workload": workload, "seed": seed, "queries": inp.queries},
        indent=1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src", required=True,
                   help="directory that holds the omlprob package")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import omlprob.cli  # noqa: F401  (import time is part of set-up)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
