"""Instance-level certification and counterexample search: Bell-type
inequalities, Jauch-Piron implications, pseudometric behavior, purity.

Every verdict is exact.  "implied" comes with the exact optimum of the
inequality's left side over the relevant axiom polytope (an LP
certificate); "violated" comes with a witness assignment that
re-evaluates to a violation under exact arithmetic.  All searches run
in a fixed deterministic order (element order, then lexicographic).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bimaps import BiMap, pair_var, smap_system
from .lattice import Oml
from .linear import (LinSystem, SystemBuilder, certify_implied,
                     enumerate_vertices, functional_on, maximize,
                     propagate_unit_box, with_premise, Infeasible)
from .rational import fmt_rat
from .states import StateFn, state_system

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    scope: str
    verdict: str                # "implied" | "violated"
    witness: dict | None = None      # exact assignment when violated
    certificate: dict | None = None  # optimizer report when implied
    details: dict | None = None

    def __str__(self):
        return "%s on %s: %s" % (self.property, self.scope, self.verdict)


def _coeff_vec(sys: LinSystem, coeffs: dict):
    index = {v: i for i, v in enumerate(sys.vars)}
    vec = [ZERO] * len(sys.vars)
    for name, c in coeffs.items():
        vec[index[name]] += Fraction(c)
    return vec


def _named(sys: LinSystem, point) -> dict:
    return {v: x for v, x in zip(sys.vars, point)}


# -- Bell-type inequalities ----------------------------------------------

# the joint terms of each Bell target, by tuple length
_BELL_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (2, 1))}


def _bell_targets(l: Oml, arity: int, var):
    """(label, coeffs) for every element tuple xs of the given length:
    sum_i v(x_i, x_i) - sum v(x_i, x_j) over the tuple's joint terms,
    with var(x, y) naming the variable of v(x, y).  Coefficients of a
    variable that recurs are added up."""
    for xs in itertools.product(l.elements, repeat=arity):
        coeffs = {}
        terms = ([(var(x, x), 1) for x in xs]
                 + [(var(xs[i], xs[j]), -1) for i, j in _BELL_PAIRS[arity]])
        for name, sign in terms:
            coeffs[name] = coeffs.get(name, 0) + sign
        yield ",".join(xs), coeffs


def _bell(prop: str, l: Oml, sys: LinSystem, arity: int, var):
    """Exact max of every Bell target over sys against the bound 1.

    "implied" reports each target's maximum; "violated" reports the
    first target attaining the global maximum and its maximizer.
    """
    worst = None
    certs = {}
    for label, coeffs in _bell_targets(l, arity, var):
        val, point = maximize(sys, _coeff_vec(sys, coeffs))
        certs[label] = fmt_rat(val)
        if worst is None or val > worst[0]:
            worst = (val, label, point)
    val, label, point = worst
    if val <= ONE:
        return PropertyVerdict(prop, repr(l), "implied",
                               certificate={"max": fmt_rat(val),
                                            "bound": "1",
                                            "per_target_max": certs})
    return PropertyVerdict(
        prop, repr(l), "violated",
        witness={"target": label, "value": fmt_rat(val),
                 "assignment": {k: fmt_rat(v)
                                for k, v in _named(sys, point).items()}},
        certificate={"max": fmt_rat(val), "bound": "1"})


def bell1_state(l: Oml) -> PropertyVerdict:
    """m(a) + m(b) - m(a^b) <= 1 over all states and all pairs."""
    return _bell("bell1-state", l, state_system(l), 2, l.meet)


def bell1_smap(l: Oml) -> PropertyVerdict:
    """p(a,a) + p(b,b) - p(a,b) <= 1 over the s-map polytope, all pairs."""
    return _bell("bell1-smap", l, smap_system(l), 2, pair_var)


def _triples(l: Oml):
    return itertools.product(l.elements, repeat=3)


def bell2_state(l: Oml) -> PropertyVerdict:
    """m(a)+m(b)+m(c) - m(a^b) - m(a^c) - m(c^b) <= 1, all triples."""
    return _bell("bell2-state", l, state_system(l), 3, l.meet)


def _pseudometric_constraints(sb: SystemBuilder, l: Oml):
    """Linear symmetry + triangle constraints on d_p(a,b)=p(a,b')+p(a',b)."""
    oc = l.ocomp

    def d_terms(a, b, sign):
        return [(pair_var(a, oc(b)), sign), (pair_var(oc(a), b), sign)]

    for i, a in enumerate(l.elements):
        for b in l.elements[i + 1:]:
            coeffs = {}
            for var, s in d_terms(a, b, 1) + d_terms(b, a, -1):
                coeffs[var] = coeffs.get(var, 0) + s
            sb.add_eq(coeffs, 0)
    for a, b, c in _triples(l):
        coeffs = {}
        for var, s in (d_terms(a, b, 1) + d_terms(a, c, -1)
                       + d_terms(c, b, -1)):
            coeffs[var] = coeffs.get(var, 0) + s
        sb.add_ineq(coeffs, 0)


def _smap_system_with_pseudometric(l: Oml) -> LinSystem:
    base = smap_system(l)
    sb = SystemBuilder(base.vars)
    sb.eqs = list(base.eqs)
    sb.ineqs = list(base.ineqs)
    _pseudometric_constraints(sb, l)
    return sb.build()


def bell2_smap(l: Oml, require_pseudometric: bool = False) -> PropertyVerdict:
    """p(a,a)+p(b,b)+p(c,c) - p(a,b) - p(a,c) - p(c,b) <= 1, all triples.

    With require_pseudometric the optimization is restricted to s-maps
    whose derived d_p is symmetric and satisfies the triangle
    inequality; the unrestricted verdict is reported in the details.
    """
    unrestricted = _bell("bell2-smap", l, smap_system(l), 3, pair_var)
    if not require_pseudometric:
        return unrestricted
    restricted = _bell("bell2-smap-pseudometric", l,
                       _smap_system_with_pseudometric(l), 3, pair_var)
    return PropertyVerdict(
        restricted.property, restricted.scope, restricted.verdict,
        witness=restricted.witness, certificate=restricted.certificate,
        details={"unrestricted_verdict": unrestricted.verdict,
                 "unrestricted_max":
                     unrestricted.certificate["max"]
                     if unrestricted.certificate else None})


# -- Jauch-Piron ---------------------------------------------------------


def _with_premise(base: LinSystem, premise_eqs) -> LinSystem:
    return with_premise(base, [(_coeff_vec(base, coeffs), rhs)
                               for coeffs, rhs in premise_eqs])


def jauch_piron_state(l: Oml) -> PropertyVerdict:
    """m(a) = m(b) = 1  =>  m(a^b) = 1, decided by exact minimization.

    For each pair, minimizes m(a^b) over the states satisfying the
    premise; a minimum below 1 is a violation witness.
    """
    base = state_system(l)
    worst = None
    for a, b in l.pairs():
        sys = _with_premise(base, [({a: 1}, 1), ({b: 1}, 1)])
        try:
            negmin, point = maximize(sys, _coeff_vec(sys, {l.meet(a, b): -1}))
        except Infeasible:
            continue  # no state satisfies the premise for this pair
        low = -negmin
        if worst is None or low < worst[0]:
            worst = (low, (a, b), point, sys)
    if worst is None or worst[0] == 1:
        return PropertyVerdict("jauch-piron-state", repr(l), "implied",
                               certificate={"min_conclusion": "1"})
    low, (a, b), point, sys = worst
    return PropertyVerdict(
        "jauch-piron-state", repr(l), "violated",
        witness={"pair": "%s,%s" % (a, b),
                 "m(a^b)": fmt_rat(low),
                 "state": {k: fmt_rat(v)
                           for k, v in _named(sys, point).items()}})


def jauch_piron_smap(l: Oml) -> PropertyVerdict:
    """p(a,a) = p(b,b) = 1  =>  p(a,b) = 1, plus the addendum that the
    premise forces p(a,c) = p(c,a) = p(c,c) for every c.

    Decided per premise pair by exact bound propagation over the axiom
    equalities (which settles nearly every question outright, the same
    way the hand proof runs); whatever propagation leaves open is
    certified or refuted by the LP.
    """
    base = smap_system(l)
    index = {v: i for i, v in enumerate(base.vars)}
    for i, a in enumerate(l.elements):
        for b in l.elements[i:]:
            seed = {index[pair_var(a, a)]: ONE, index[pair_var(b, b)]: ONE}
            known = propagate_unit_box(base, seed)
            if known is None:
                continue  # premise proven infeasible
            if len(known) == len(base.vars):
                # the premise pins the whole map; the pinned assignment
                # satisfies every equality and box, so it is the one
                # feasible point and every question reads off directly
                def forced_value(coeffs, known=known):
                    return sum(v * known[index[x]] for x, v in coeffs.items())

                sys = None
            else:
                # the premise system, enriched with every propagated pin
                # (all consequences, so the feasible set is unchanged);
                # most questions then close on its affine hull sans LP
                sys = _with_premise(
                    base,
                    [({base.vars[j]: 1}, v) for j, v in sorted(known.items())])

                def forced_value(coeffs, sys=sys):
                    const, obj = functional_on(sys, _coeff_vec(sys, coeffs))
                    return const if not any(obj) else None

            try:
                conclusion = forced_value({pair_var(a, b): 1})
            except Infeasible:
                continue  # premise infeasible, implication vacuous
            if conclusion != 1:
                if sys is None:
                    low = conclusion
                    point = {x: known[j] for x, j in index.items()}
                else:
                    negmin, raw = maximize(
                        sys, _coeff_vec(sys, {pair_var(a, b): -1}))
                    low = -negmin
                    point = _named(sys, raw)
                if low != 1:
                    return PropertyVerdict(
                        "jauch-piron-smap", repr(l), "violated",
                        witness={"pair": "%s,%s" % (a, b),
                                 "p(a,b)": fmt_rat(low),
                                 "map": {k: fmt_rat(v)
                                         for k, v in point.items()}})
            for c in l.elements:
                for x, y in ((pair_var(a, c), pair_var(c, c)),
                             (pair_var(c, a), pair_var(c, c))):
                    if x == y:
                        continue
                    gap = forced_value({x: 1, y: -1})
                    if gap == 0:
                        continue
                    if sys is None:  # pinned assignment, nonzero gap
                        return PropertyVerdict(
                            "jauch-piron-smap", repr(l), "violated",
                            witness={"pair": "%s,%s" % (a, b),
                                     "addendum": "%s != %s" % (x, y),
                                     "gap": fmt_rat(gap)})
                    for sign in (1, -1):
                        coeffs = {x: sign, y: -sign}
                        cert = certify_implied(
                            sys, _coeff_vec(sys, coeffs), 0)
                        if not cert.implied:
                            return PropertyVerdict(
                                "jauch-piron-smap", repr(l), "violated",
                                witness={"pair": "%s,%s" % (a, b),
                                         "addendum": "%s != %s" % (x, y),
                                         "gap": fmt_rat(cert.optimum)})
    return PropertyVerdict("jauch-piron-smap", repr(l), "implied",
                           certificate={"conclusion": "p(a,b)=1",
                                        "addendum": "p(a,c)=p(c,a)=p(c,c)"})


# -- pseudometric --------------------------------------------------------


@dataclass(frozen=True)
class PseudometricVerdict:
    is_pseudometric: bool
    violated_axiom: str | None = None  # "zero-diagonal"|"symmetry"|"triangle"
    witness: tuple | None = None


def is_pseudometric(D: BiMap) -> PseudometricVerdict:
    """d(a,a) = 0, symmetry, triangle inequality, over all triples."""
    l = D.lattice
    for a in l.elements:
        if D(a, a) != 0:
            return PseudometricVerdict(False, "zero-diagonal", (a,))
    for a, b in l.pairs():
        if D(a, b) != D(b, a):
            return PseudometricVerdict(False, "symmetry", (a, b))
    for a, b, c in _triples(l):
        if D(a, b) > D(a, c) + D(c, b):
            return PseudometricVerdict(False, "triangle", (a, b, c))
    return PseudometricVerdict(True)


@dataclass(frozen=True)
class SweepReport:
    outcome: str                  # "witness" | "exhausted"
    lattice: str | None = None    # repr of the lattice with the witness
    vertex_index: int | None = None
    smap: BiMap | None = None
    violation: PseudometricVerdict | None = None
    checked: tuple = ()           # (lattice repr, vertex count) pairs

    def summary(self) -> dict:
        out = {"outcome": self.outcome,
               "checked": [list(c) for c in self.checked]}
        if self.outcome == "witness":
            out.update({
                "lattice": self.lattice,
                "vertex_index": self.vertex_index,
                "violated_axiom": self.violation.violated_axiom,
                "witness_elements": list(self.violation.witness),
                "d_p": {"%s|%s" % p: fmt_rat(
                    self.smap(p[0], self.smap.lattice.ocomp(p[1]))
                    + self.smap(self.smap.lattice.ocomp(p[0]), p[1]))
                    for p in self.smap.lattice.pairs()},
            })
        return out


def search_pseudometric_violation(lattices, cap: int = 1000) -> SweepReport:
    """Sweep s-map polytope vertices for a d_p that is no pseudometric.

    Deterministic order: lattices as given, vertices lexicographic,
    triples lexicographic.  Returns the first witness, or an
    exhausted-report listing what was checked.
    """
    from .bimaps import derive_d_from_s

    checked = []
    for l in lattices:
        vertices = enumerate_vertices(smap_system(l), cap)
        checked.append((repr(l), len(vertices)))
        for i, vec in enumerate(vertices):
            P = BiMap.from_vector(l, vec)
            verdict = is_pseudometric(derive_d_from_s(P))
            if not verdict.is_pseudometric:
                return SweepReport("witness", repr(l), i, P, verdict,
                                   tuple(checked))
    return SweepReport("exhausted", checked=tuple(checked))
