"""Command-line front end.

Exit codes: 0 = success / property implied / map valid; 1 = violation or
invalid input found; 2 = usage or I/O error.  All numbers are printed as
exact "p/q" strings; --json switches to machine-readable output with a
stable schema.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, bimaps, lattice, states
from .linear import CapExceeded
from .rational import fmt_rat, parse_rat

OK, FOUND, USAGE = 0, 1, 2


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _load_lattice(path: str) -> lattice.Oml:
    try:
        return lattice.load_lattice(path)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(_die("cannot read lattice %s: %s" % (path, e)))


def _load_map(path: str, l: lattice.Oml) -> bimaps.BiMap:
    try:
        return bimaps.load_bimap(path, l)
    except (OSError, json.JSONDecodeError, ValueError,
            bimaps.BiMapError) as e:
        raise SystemExit(_die("cannot read map %s: %s" % (path, e)))


def _die(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return USAGE


# -- verbs ---------------------------------------------------------------


def cmd_check_lattice(args) -> int:
    try:
        with open(args.lattice, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return _die(str(e))
    try:
        l = lattice.lattice_from_json(text)
    except json.JSONDecodeError as e:
        return _die("bad JSON: %s" % e)
    except lattice.LatticeError as e:
        _emit(args, {"valid": False, "error": str(e)}, "INVALID: %s" % e)
        return FOUND
    _emit(args,
          {"valid": True, "elements": list(l.elements),
           "blocks": [list(b) for b in lattice.blocks(l)]},
          "valid OML with %d elements, %d block(s)"
          % (len(l.elements), len(lattice.blocks(l))))
    return OK


def cmd_check_map(args) -> int:
    l = _load_lattice(args.lattice)
    M = _load_map(args.map, l)
    try:
        report = bimaps.check_map(args.system, M)
    except bimaps.BiMapError as e:
        return _die(str(e))
    payload = {"system": report.system, "ok": report.ok}
    if report.ok:
        human = "valid %s" % report.system
        if args.system == "g":
            tag = bimaps.classify_family(M)
            payload["family"] = tag.gamma
            payload["corners"] = [int(c) for c in tag.corners]
            human += ", family Gamma%d" % tag.gamma
        _emit(args, payload, human)
        return OK
    v = report.first_violation
    payload["violation"] = {"axiom": v.axiom, "elements": list(v.elements),
                            "lhs": fmt_rat(v.lhs), "rhs": fmt_rat(v.rhs)}
    _emit(args, payload, "INVALID %s: %s" % (report.system, v))
    return FOUND


def cmd_classify_map(args) -> int:
    l = _load_lattice(args.lattice)
    M = _load_map(args.map, l)
    report = bimaps.check_g_map(M)
    if not report.ok:
        _emit(args, {"ok": False, "violation": str(report.first_violation)},
              "not a G-map: %s" % report.first_violation)
        return FOUND
    tag = bimaps.classify_family(M)
    pure, witness = bimaps.is_pure_projection(M)
    _emit(args,
          {"ok": True, "family": tag.gamma,
           "corners": [int(c) for c in tag.corners],
           "pure_projection": pure,
           "pure_projection_witness": list(witness) if witness else None},
          "Gamma%d, corners %s, pure projection: %s"
          % (tag.gamma, tag.corners, pure))
    return OK


def cmd_states(args) -> int:
    l = _load_lattice(args.lattice)
    cls = states.classify_states(l)
    payload = {
        "classification": cls.tag,
        "dim": cls.polytope.dim,
        "witness": ({x: fmt_rat(v) for x, v in
                     zip(l.elements, cls.polytope.witness)}
                    if cls.polytope.witness else None),
    }
    human = "%s (state-space dimension %d)" % (cls.tag, cls.polytope.dim)
    if args.vertices:
        try:
            verts = states.state_vertices(l, args.vertices)
            payload["vertices"] = [
                {x: fmt_rat(v) for x, v in s.values} for s in verts]
            payload["vertices_complete"] = True
        except CapExceeded as e:
            payload["vertices"] = [
                {x: fmt_rat(v) for x, v in zip(l.elements, t)}
                for t in e.vertices]
            payload["vertices_complete"] = False
        human += "; %d state vertex/vertices listed" % len(payload["vertices"])
    _emit(args, payload, human)
    return OK


def cmd_construct(args) -> int:
    if args.family != "gamma9":
        return _die("only --family gamma9 is constructible")
    try:
        params = [parse_rat(p) for p in args.params.split(",")]
    except ValueError as e:
        return _die(str(e))
    if len(params) != 4:
        return _die("--params needs r1,r2,u1,u2")
    l = _load_lattice(args.lattice)
    try:
        G = bimaps.build_table3_family(*params, l=l)
    except bimaps.BiMapError as e:
        return _die(str(e))
    print(G.to_json(args.lattice))
    return OK


def cmd_derive(args) -> int:
    l = _load_lattice(args.lattice)
    P = _load_map(args.map, l)
    report = bimaps.check_s_map(P)
    if not report.ok:
        _emit(args, {"ok": False, "violation": str(report.first_violation)},
              "input is not an s-map: %s" % report.first_violation)
        return FOUND
    if args.what == "state":
        print(bimaps.induced_state_from_smap(P).to_json())
        return OK
    derived = {"j": bimaps.derive_j_from_s,
               "d": bimaps.derive_d_from_s,
               "projection": bimaps.derive_pure_projection_from_s}[args.what]
    print(derived(P).to_json(args.lattice))
    return OK


def cmd_verify(args) -> int:
    l = _load_lattice(args.lattice)
    M = _load_map(args.map, l)
    try:
        if args.identity == "compatible-decomposition":
            report = bimaps.verify_lemma_komp(M)
        elif args.identity == "gamma9":
            report = bimaps.verify_gamma9_identities(M)
        else:
            report = bimaps.semantic_check_on_compatible(M)
    except bimaps.UnsupportedFamily as e:
        _emit(args, {"ok": False, "unsupported": str(e)}, str(e))
        return FOUND
    if report.ok:
        _emit(args, {"ok": True, "identity": report.name},
              "%s: holds" % report.name)
        return OK
    _emit(args, {"ok": False, "identity": report.name,
                 "violation": str(report.first_violation)},
          "%s: FAILS, %s" % (report.name, report.first_violation))
    return FOUND


_PROPERTIES = {
    "bell1-state": lambda l, args: analysis.bell1_state(l),
    "bell1-smap": lambda l, args: analysis.bell1_smap(l),
    "bell2-state": lambda l, args: analysis.bell2_state(l),
    "bell2-smap": lambda l, args: analysis.bell2_smap(
        l, require_pseudometric=args.require_pseudometric),
    "jauch-piron-state": lambda l, args: analysis.jauch_piron_state(l),
    "jauch-piron-smap": lambda l, args: analysis.jauch_piron_smap(l),
}


def cmd_property(args) -> int:
    l = _load_lattice(args.lattice)
    verdict = _PROPERTIES[args.name](l, args)
    payload = {"property": verdict.property, "verdict": verdict.verdict,
               "witness": verdict.witness, "certificate": verdict.certificate,
               "details": verdict.details}
    human = "%s: %s" % (verdict.property, verdict.verdict)
    if verdict.witness:
        human += "\n  witness: %s" % json.dumps(verdict.witness)
    if verdict.certificate:
        human += "\n  certificate: max = %s" % verdict.certificate.get("max")
    _emit(args, payload, human)
    return OK if verdict.verdict == "implied" else FOUND


def cmd_search(args) -> int:
    if args.what != "pseudometric":
        return _die("only 'pseudometric' search is available")
    lattices = [_load_lattice(p) for p in args.lattices]
    report = analysis.search_pseudometric_violation(lattices, args.cap)
    payload = report.summary()
    if report.outcome == "witness":
        human = ("violation found: lattice %s, vertex %d, axiom %s at %s"
                 % (report.lattice, report.vertex_index,
                    report.violation.violated_axiom,
                    "/".join(report.violation.witness)))
        _emit(args, payload, human)
        return FOUND
    _emit(args, payload, "exhausted, no violation")
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="omlprob",
        description="Exact toolkit for orthomodular lattices and "
                    "s/j/d/G-maps")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("check-lattice", help="validate an OML file")
    q.add_argument("lattice")
    q.set_defaults(fn=cmd_check_lattice)

    q = sub.add_parser("check-map", help="check a map against an axiom system")
    q.add_argument("--system", choices=("s", "j", "d", "g"), required=True)
    q.add_argument("lattice")
    q.add_argument("map")
    q.set_defaults(fn=cmd_check_map)

    q = sub.add_parser("classify-map", help="Gamma family of a G-map")
    q.add_argument("lattice")
    q.add_argument("map")
    q.set_defaults(fn=cmd_classify_map)

    q = sub.add_parser("states", help="state-space classification")
    q.add_argument("lattice")
    q.add_argument("--vertices", type=int, default=0, metavar="N",
                   help="also list up to N extreme states")
    q.set_defaults(fn=cmd_states)

    q = sub.add_parser("construct", help="build a parametric map instance")
    q.add_argument("--family", required=True)
    q.add_argument("--lattice", required=True)
    q.add_argument("--params", required=True, metavar="r1,r2,u1,u2")
    q.set_defaults(fn=cmd_construct)

    q = sub.add_parser("derive", help="derive j/d/projection/state from an s-map")
    q.add_argument("--what", choices=("j", "d", "projection", "state"),
                   required=True)
    q.add_argument("lattice")
    q.add_argument("map")
    q.set_defaults(fn=cmd_derive)

    q = sub.add_parser("verify", help="check a lemma identity on a map")
    q.add_argument("--identity",
                   choices=("compatible-decomposition", "gamma9", "semantics"),
                   required=True)
    q.add_argument("lattice")
    q.add_argument("map")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("property", help="certify or refute a property")
    q.add_argument("name", choices=sorted(_PROPERTIES))
    q.add_argument("lattice")
    q.add_argument("--require-pseudometric", action="store_true")
    q.set_defaults(fn=cmd_property)

    q = sub.add_parser("search", help="sweep for counterexamples")
    q.add_argument("what")
    q.add_argument("lattices", nargs="+")
    q.add_argument("--cap", type=int, default=1000)
    q.set_defaults(fn=cmd_search)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize others
        return USAGE if e.code not in (0,) else 0
    try:
        lattice.max_elements()
    except ValueError as e:
        return _die("bad OMLPROB_MAX_ELEMENTS: %s" % e)
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE
    except lattice.LatticeError as e:
        print("error: invalid lattice: %s" % e, file=sys.stderr)
        return FOUND
    except CapExceeded as e:
        return _die("%s; raise --cap" % e)


if __name__ == "__main__":
    sys.exit(main())
