"""Instance-level certification and counterexample search: Bell-type
inequalities, Jauch-Piron implications, pseudometric behavior, purity.

Every verdict is exact.  "implied" comes with the exact optimum of the
inequality's left side over the relevant axiom polytope (an LP
certificate); "violated" comes with a witness assignment that
re-evaluates to a violation under exact arithmetic.  All searches run
in a fixed deterministic order (element order, then lexicographic).
Every system here is built from lattice operations alone, so a Bell
target, a Jauch-Piron pair (states) or element (s-maps) is solved only
when it comes first in its Aut(L) orbit; a reported one is the first to
attain its value, so it comes first in its orbit too.  The searches
compare optimum values alone (max_value); a violated verdict's LP is
solved again, once, by maximize for the witness: the same Polytope and
objective give the same argmax.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bimaps import BiMap, derive_d_from_s, pair_var, smap_system
from .lattice import Oml, tuple_orbits
from .linear import (Polytope, SystemBuilder, enumerate_vertices,
                     first_violation, functional_on, max_value, maximize,
                     propagate_unit_box, with_premise, Infeasible)
from .rational import fmt_rat
from .states import StateFn, state_system

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


def _named(sys: Polytope, point) -> dict:
    return dict(zip(sys.vars, point))


# -- Bell-type inequalities ----------------------------------------------

# the joint terms of each Bell target, by tuple length
_BELL_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (2, 1))}


def _bell_coeffs(xs, var) -> Counter:
    """sum_i v(x_i, x_i) - sum v(x_i, x_j) over the joint terms of the
    element tuple xs, with var(x, y) naming the variable of v(x, y)."""
    coeffs = Counter(var(x, x) for x in xs)
    coeffs.subtract(var(xs[i], xs[j]) for i, j in _BELL_PAIRS[len(xs)])
    return coeffs


def _bell(prop: str, l: Oml, sys: Polytope, arity: int, var):
    """Exact max of every Bell target over sys against the bound 1.

    "implied" reports each target's maximum; "violated" reports the
    first target attaining the global maximum and its maximizer.  sys
    must be Aut(l)-invariant through var, as the state and s-map systems
    and pseudometric rows are: only each orbit's first target is solved.
    """
    reps = tuple_orbits(l, arity)
    worst, certs, maxima = None, {}, {}
    for code, xs in enumerate(itertools.product(l.elements, repeat=arity)):
        label = ",".join(xs)
        if reps[code] == code:
            val = max_value(sys, _bell_coeffs(xs, var))
            maxima[code] = fmt_rat(val)
            if worst is None or val > worst[0]:
                worst = (val, label, xs)
        certs[label] = maxima[reps[code]]
    val, label, xs = worst
    if val <= ONE:
        return PropertyVerdict(prop, repr(l), "implied",
                               certificate={"max": fmt_rat(val),
                                            "bound": "1",
                                            "per_target_max": certs})
    _val, point = maximize(sys, _bell_coeffs(xs, var))
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


def bell2_state(l: Oml) -> PropertyVerdict:
    """m(a)+m(b)+m(c) - m(a^b) - m(a^c) - m(c^b) <= 1, all triples."""
    return _bell("bell2-state", l, state_system(l), 3, l.meet)


def _pseudometric_rows(l: Oml):
    """d(a, a) = 0, d(a, b) = d(b, a) for a before b, and the triangle
    d(a, b) <= d(a, c) + d(c, b) over all triples, as rows over pair
    keys.  A symmetry failure at (b, a) is one at (a, b), so a checker
    meets the same first failing pair as over all ordered pairs."""
    for a in l.elements:
        yield "zero-diagonal", (a,), (a, a), (), (), 0, False
    for i, a in enumerate(l.elements):
        for b in l.elements[i + 1:]:
            yield "symmetry", (a, b), (a, b), ((b, a),), (), 0, False
    for a, b, c in itertools.product(l.elements, repeat=3):
        yield "triangle", (a, b, c), (a, b), ((a, c), (c, b)), (), 0, True


def _smap_system_with_pseudometric(l: Oml, base: Polytope) -> Polytope:
    """base, l's s-map system, plus the pseudometric rows on
    d_p(a, b) = p(a, b') + p(a', b)."""
    sb = SystemBuilder(base.vars)
    oc = l.ocomp
    sb.add_rows(_pseudometric_rows(l), lambda pair: (
        pair_var(pair[0], oc(pair[1])), pair_var(oc(pair[0]), pair[1])))
    return Polytope(base.vars, base.eqs + tuple(sb.eqs),
                    base.ineqs + tuple(sb.ineqs))


def bell2_smap(l: Oml, require_pseudometric: bool = False) -> PropertyVerdict:
    """p(a,a)+p(b,b)+p(c,c) - p(a,b) - p(a,c) - p(c,b) <= 1, all triples.

    With require_pseudometric the optimization is restricted to s-maps
    whose derived d_p is symmetric and satisfies the triangle
    inequality; the unrestricted verdict is reported in the details.
    """
    base = smap_system(l)
    unrestricted = _bell("bell2-smap", l, base, 3, pair_var)
    if not require_pseudometric:
        return unrestricted
    restricted = _bell("bell2-smap-pseudometric", l,
                       _smap_system_with_pseudometric(l, base), 3, pair_var)
    return PropertyVerdict(
        restricted.property, restricted.scope, restricted.verdict,
        witness=restricted.witness, certificate=restricted.certificate,
        details={"unrestricted_verdict": unrestricted.verdict,
                 "unrestricted_max":
                     unrestricted.certificate["max"]
                     if unrestricted.certificate else None})


# -- Jauch-Piron ---------------------------------------------------------


def jauch_piron_state(l: Oml) -> PropertyVerdict:
    """m(a) = m(b) = 1  =>  m(a^b) = 1, decided by exact minimization.

    For each pair, minimizes m(a^b) over the states satisfying the
    premise; a minimum below 1 is a violation witness.  The pair (b, a)
    and every Aut(l) image of (a, b) have the minimum of (a, b), so
    only the first pair of each orbit under Aut(l) and the swap is
    solved; the witness is the first pair, in product order, attaining
    the least minimum, as over all ordered pairs.
    """
    base = state_system(l)
    worst = None
    n, reps = len(l.elements), tuple_orbits(l, 2)
    for code, (a, b) in enumerate(l.pairs()):
        if min(reps[code], reps[code % n * n + code // n]) != code:
            continue
        sys = with_premise(base, {a: 1, b: 1})
        try:
            low = -max_value(sys, {l.meet(a, b): -1})
        except Infeasible:
            continue  # no state satisfies the premise for this pair
        if worst is None or low < worst[0]:
            worst = (low, (a, b), sys)
    if worst is None or worst[0] == 1:
        return PropertyVerdict("jauch-piron-state", repr(l), "implied",
                               certificate={"min_conclusion": "1"})
    low, (a, b), sys = worst
    _negmin, point = maximize(sys, {l.meet(a, b): -1})
    return PropertyVerdict(
        "jauch-piron-state", repr(l), "violated",
        witness={"pair": "%s,%s" % (a, b),
                 "m(a^b)": fmt_rat(low),
                 "state": {k: fmt_rat(v)
                           for k, v in _named(sys, point).items()}})


def _smap_pair_witness(l: Oml, sys: Polytope, a: str, b: str):
    """The first witness that sys, the s-map system under the premise
    p(a,a) = p(b,b) = 1, breaks the addendum; None when it keeps it.
    Each question is whether x - y or y - x can be positive on sys, for
    x = p(a,c) or p(c,a) and y = p(c,c): x - y is written on the affine
    hull once, which settles each sign when it is constant there, else
    max_value does.  Raises Infeasible when sys is empty."""
    pair = "%s,%s" % (a, b)
    for c in l.elements:
        for x, y in ((pair_var(a, c), pair_var(c, c)),
                     (pair_var(c, a), pair_var(c, c))):
            if x == y:
                continue
            base, obj = functional_on(sys, {x: 1, y: -1})
            for s in (1, -1):
                if not obj and s * base <= 0:
                    continue
                val = max_value(sys, {x: s, y: -s})
                if val > 0:
                    return {"pair": pair, "addendum": "%s != %s" % (x, y),
                            "gap": fmt_rat(val)}
    return None


def jauch_piron_smap(l: Oml) -> PropertyVerdict:
    """p(a,a) = p(b,b) = 1  =>  p(a,b) = 1, plus the addendum that the
    premise forces p(a,c) = p(c,a) = p(c,c) for every c.

    Every question is about a alone, so one premise p(a,a) = 1 per
    element decides them all: the s-maps with p(a,a) = p(b,b) = 1 are
    among those with p(a,a) = 1, and pair (a,b) asks the addendum
    questions of a, so a violation at (a,b) is one at (a,a), which comes
    first in product order.  The conclusion p(a,b) = 1 is the addendum
    at c = b with p(b,b) = 1.  Per element, exact bound propagation over
    the axiom equalities pins what the premise forces (as the hand proof
    runs) or proves it infeasible; the s-map system with those pins
    answers every question, and when it is empty the implication is
    vacuous.  Only the first element of each Aut(l) orbit is asked.
    """
    base, reps = smap_system(l), tuple_orbits(l, 1)
    for i, a in enumerate(l.elements):
        if reps[i] != i:
            continue
        known = propagate_unit_box(base, {pair_var(a, a): 1})
        if known is None:
            continue  # premise proven infeasible
        try:
            witness = _smap_pair_witness(l, with_premise(base, known), a, a)
        except Infeasible:
            continue  # premise infeasible, implication vacuous
        if witness is not None:
            return PropertyVerdict("jauch-piron-smap", repr(l),
                                   "violated", witness=witness)
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
    hit = first_violation(_pseudometric_rows(D.lattice), D.values)
    if hit is None:
        return PseudometricVerdict(True)
    return PseudometricVerdict(False, hit[0], hit[1])


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
                "d_p": {pair_var(*p): fmt_rat(v)
                        for p, v in derive_d_from_s(self.smap).values.items()},
            })
        return out


def search_pseudometric_violation(lattices, cap: int = 1000) -> SweepReport:
    """Sweep s-map polytope vertices for a d_p that is no pseudometric.

    Deterministic order: lattices as given, vertices lexicographic,
    triples lexicographic.  Returns the first witness, or an
    exhausted-report listing what was checked.
    """
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
