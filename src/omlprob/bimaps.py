"""Bivariate maps on L x L: s-, j-, d- and G-map axioms, Gamma families,
derived maps, and the identities the families satisfy.

All checks are exhaustive over the finite lattice and exact.  Each map
system is one table of axiom rows; the checkers and the LP systems are
both generated from it.  Checkers return an AxiomReport carrying the
first violated row with both sides' values, so every failure is
independently re-checkable.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Oml, load_lattice
from .linear import LinSystem, SystemBuilder
from .rational import fmt_rat, parse_rat
from .states import StateFn

ZERO = Fraction(0)
ONE = Fraction(1)


class BiMapError(Exception):
    pass


class ParamOutOfRange(BiMapError):
    pass


class UnsupportedFamily(BiMapError):
    """Gamma 13-16 carry no connective semantics."""


class InvalidCorners(BiMapError):
    pass


@dataclass(frozen=True)
class BiMap:
    """A total map (element, element) -> Fraction in [0, 1]."""

    lattice: Oml
    values: tuple  # (((a, b), Fraction), ...) over all ordered pairs

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.values))
        expected = set(self.lattice.pairs())
        got = set(self._map)
        if got != expected:
            raise BiMapError("map is not total on L x L")
        for pair, v in self.values:
            if not 0 <= v <= 1:
                raise BiMapError("value at %s is outside [0, 1]" % (pair,))

    def __call__(self, a: str, b: str) -> Fraction:
        return self._map[(a, b)]

    @staticmethod
    def from_dict(l: Oml, values: dict) -> "BiMap":
        return BiMap(l, tuple(((a, b), Fraction(values[(a, b)]))
                              for a, b in l.pairs()))

    @staticmethod
    def from_function(l: Oml, fn) -> "BiMap":
        return BiMap(l, tuple(((a, b), Fraction(fn(a, b)))
                              for a, b in l.pairs()))

    @staticmethod
    def from_vector(l: Oml, vec) -> "BiMap":
        pairs = list(l.pairs())
        return BiMap(l, tuple((p, Fraction(v)) for p, v in zip(pairs, vec)))

    def as_vector(self) -> tuple:
        return tuple(v for _, v in self.values)

    def replace(self, a: str, b: str, value) -> "BiMap":
        """A copy with one entry changed (used by mutation tests)."""
        vals = dict(self._map)
        vals[(a, b)] = Fraction(value)
        return BiMap.from_dict(self.lattice, vals)

    def to_json(self, lattice_path: str = "") -> str:
        return json.dumps(
            {"lattice": lattice_path,
             "values": {"%s|%s" % (a, b): fmt_rat(v)
                        for (a, b), v in self.values}},
            indent=2)


def bimap_from_json(text: str, l: Oml) -> BiMap:
    """Parse the map file format against an already-loaded lattice."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) - {"lattice", "values"}:
        raise BiMapError("map file must be {'lattice': ..., 'values': ...}")
    raw = data.get("values")
    if not isinstance(raw, dict):
        raise BiMapError("map file lacks a 'values' object")
    values = {}
    for key, v in raw.items():
        if key.count("|") != 1:
            raise BiMapError("bad pair key %r (expected 'a|b')" % key)
        a, b = key.split("|")
        values[(a, b)] = parse_rat(v)
    missing = [p for p in l.pairs() if p not in values]
    if missing:
        raise BiMapError("missing pairs, e.g. %s" % (missing[0],))
    return BiMap.from_dict(l, values)


def load_bimap(path: str, l: Oml | None = None) -> BiMap:
    """Load a map file; the lattice it references is resolved relative
    to the map file unless one is passed in."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if l is None:
        ref = data.get("lattice")
        if not ref:
            raise BiMapError("map file names no lattice")
        l = load_lattice(os.path.join(os.path.dirname(path) or ".", ref))
    return bimap_from_json(json.dumps(data), l)


# -- axiom checkers ------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    elements: tuple
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        return "(%s) fails at %s: %s != %s" % (
            self.axiom, "/".join(self.elements),
            fmt_rat(self.lhs), fmt_rat(self.rhs))


@dataclass(frozen=True)
class AxiomReport:
    system: str  # "s-map" | "j-map" | "d-map" | "G-map"
    ok: bool
    first_violation: Violation | None = None

    def __bool__(self):
        return self.ok


# One table per map system.  Each system has three axioms of one shape:
# (x1) pins some values, (x2) splits M(x, y) for x _|_ y, and (x3) is
# additivity in each argument: for a _|_ b and every c,
#   M(a v b, c) = M(a, c) + M(b, c) - offset_row(c)
#   M(c, a v b) = M(c, a) + M(c, b) - offset_col(c).
# (G3)'s column identity is taken in this additive form, matching the row
# identity and the (j3)/(d3) pattern.  Entries: the report name; the
# labels of (x1), (x2), (x3)-row and (x3)-col; (x1) as (pair, value)
# pins, where None marks a G1 corner; (x2)'s right side as (plus, minus)
# pairs; (x3)'s (row, col) offsets.
_TABLES = {
    "s": ("s-map", ("s1", "s2", "s3", "s3"),
          lambda l: [((l.top, l.top), ONE)],
          lambda l, x, y: ((), ()),
          lambda l, c: ((), ())),
    "j": ("j-map", ("j1", "j2", "j3", "j3"),
          lambda l: [((l.bot, l.bot), ZERO), ((l.top, l.top), ONE)],
          lambda l, x, y: (((x, x), (y, y)), ()),
          lambda l, c: (((c, c),), ((c, c),))),
    "d": ("d-map", ("d1", "d2", "d3", "d3"),
          lambda l: ([((a, a), ZERO) for a in l.elements]
                     + [((l.top, l.bot), ONE), ((l.bot, l.top), ONE)]),
          lambda l, x, y: (((x, l.bot), (l.bot, y)), ()),
          lambda l, c: (((l.bot, c),), ((c, l.bot),))),
    "g": ("G-map", ("G1", "G2", "G3-row", "G3-col"),
          lambda l: [((x, y), None) for x in (l.bot, l.top)
                     for y in (l.bot, l.top)],
          lambda l, x, y: (((x, l.bot), (l.bot, y)), ((l.bot, l.bot),)),
          lambda l, c: (((l.bot, c),), ((c, l.bot),))),
}


def _axiom_rows(system: str, l: Oml):
    """The axiom rows of one system on l, in checking order.

    A row (axiom, elements, pair, plus, minus, const) states
    M(pair) = sum M(plus) - sum M(minus) + const.  Only (x1) rows have
    a nonzero const, and they have no terms.  A G1 row has const None:
    its corner must be 0 or 1.
    """
    _name, (x1, x2, row3, col3), unit, split, offset = _TABLES[system]
    for pair, const in unit(l):
        yield x1, pair, pair, (), (), const
    offsets = [(c, offset(l, c)) for c in l.elements]
    for a, b in l.orthogonal_pairs():
        for x, y in ((a, b), (b, a)):
            plus, minus = split(l, x, y)
            yield x2, (x, y), (x, y), plus, minus, ZERO
        j = l.join(a, b)
        for c, (row_off, col_off) in offsets:
            elems = (a, b, c)
            yield row3, elems, (j, c), ((a, c), (b, c)), row_off, ZERO
            yield col3, elems, (c, j), ((c, a), (c, b)), col_off, ZERO


def check_map(system: str, M: BiMap) -> AxiomReport:
    """Exhaustive check of axioms (x1)-(x3) of system "s", "j", "d" or "g":
    the first axiom row whose two sides differ on M, with both values."""
    if system not in _TABLES:
        raise BiMapError("unknown axiom system %r" % system)
    value = M._map.__getitem__
    for axiom, elems, pair, plus, minus, const in _axiom_rows(system,
                                                              M.lattice):
        lhs = value(pair)
        if plus:  # rows with terms have const 0
            rhs = value(plus[0])
            for p in plus[1:]:
                rhs += value(p)
            for p in minus:
                rhs -= value(p)
        elif const is None:  # G1: v in {0, 1}
            lhs, rhs = lhs * (lhs - ONE), ZERO
        else:
            rhs = const
        if lhs != rhs:
            return AxiomReport(_TABLES[system][0], False,
                               Violation(axiom, elems, lhs, rhs))
    return AxiomReport(_TABLES[system][0], True)


def check_s_map(P: BiMap) -> AxiomReport:
    """Exhaustive check of (s1)-(s3)."""
    return check_map("s", P)


def check_j_map(Q: BiMap) -> AxiomReport:
    """Exhaustive check of (j1)-(j3)."""
    return check_map("j", Q)


def check_d_map(D: BiMap) -> AxiomReport:
    """Exhaustive check of (d1)-(d3)."""
    return check_map("d", D)


def check_g_map(G: BiMap) -> AxiomReport:
    """Exhaustive check of (G1)-(G3)."""
    return check_map("g", G)


# -- Gamma families ------------------------------------------------------

# corner order: (G(0,0), G(0,1), G(1,0), G(1,1))
_TABLED_FAMILIES = {
    (0, 0, 0, 0): 1, (0, 0, 0, 1): 2, (0, 1, 1, 1): 3, (0, 1, 1, 0): 4,
    (1, 1, 1, 0): 5, (1, 0, 0, 0): 6, (1, 0, 0, 1): 7, (1, 1, 1, 1): 8,
    (0, 0, 1, 1): 9, (0, 1, 0, 1): 10, (1, 1, 0, 0): 11, (1, 0, 1, 0): 12,
}
# the four patterns absent from both tables, in lexicographic order
_EXTRA_FAMILIES = {
    corners: 13 + i
    for i, corners in enumerate(sorted(
        set(itertools.product((0, 1), repeat=4)) - set(_TABLED_FAMILIES)))
}
FAMILY_OF_CORNERS = {**_TABLED_FAMILIES, **_EXTRA_FAMILIES}
CORNERS_OF_FAMILY = {g: c for c, g in FAMILY_OF_CORNERS.items()}


@dataclass(frozen=True)
class FamilyTag:
    corners: tuple  # (G(0,0), G(0,1), G(1,0), G(1,1)), each 0 or 1
    gamma: int      # 1..16

    def __str__(self):
        return "Gamma%d %s" % (self.gamma, (self.corners,))


def corners_of(G: BiMap) -> tuple:
    l = G.lattice
    return (G(l.bot, l.bot), G(l.bot, l.top), G(l.top, l.bot), G(l.top, l.top))


def classify_family(G: BiMap) -> FamilyTag:
    """Read the four corners and map them to the Gamma index."""
    corners = corners_of(G)
    if any(v not in (0, 1) for v in corners):
        raise InvalidCorners("corners %s are not all in {0, 1}"
                             % ([fmt_rat(v) for v in corners],))
    key = tuple(int(v) for v in corners)
    return FamilyTag(key, FAMILY_OF_CORNERS[key])


def complement_map(G: BiMap) -> BiMap:
    """The pointwise complement 1 - G (a G-map again)."""
    return BiMap(G.lattice, tuple((p, ONE - v) for p, v in G.values))


# -- derived maps --------------------------------------------------------


def induced_state_from_smap(P: BiMap) -> StateFn:
    """m_p(a) = p(a, a), the state induced by an s-map."""
    return StateFn(tuple((a, P(a, a)) for a in P.lattice.elements))


def derive_j_from_s(P: BiMap) -> BiMap:
    """q_p(a, b) = m_p(a) + m_p(b) - p(a, b)."""
    return BiMap.from_function(
        P.lattice, lambda a, b: P(a, a) + P(b, b) - P(a, b))


def derive_d_from_s(P: BiMap) -> BiMap:
    """d_p(a, b) = p(a, b') + p(a', b)."""
    l = P.lattice
    return BiMap.from_function(
        l, lambda a, b: P(a, l.ocomp(b)) + P(l.ocomp(a), b))


def derive_pure_projection_from_s(P: BiMap) -> BiMap:
    """G_p(a, b) = p(a, b) + p(a, b') = p(a, a); a pure Gamma9 projection."""
    return BiMap.from_function(P.lattice, lambda a, b: P(a, a))


def induced_state_from_gamma9(G: BiMap, b: str) -> StateFn:
    """m_b(a) = G(a, b) for a Gamma9 map; a state for every choice of b."""
    return StateFn(tuple((a, G(a, b)) for a in G.lattice.elements))


def is_pure_projection(G: BiMap):
    """(True, None) or (False, first (a, b) with G(a, b) != G(a, 0))."""
    l = G.lattice
    for a, b in l.pairs():
        if G(a, b) != G(a, l.bot):
            return False, (a, b)
    return True, None


def build_table3_family(r1, r2, u1, u2, l: Oml | None = None) -> BiMap:
    """The parametric Gamma9 family on MO(2).

    Row of the first atom: alpha on its own block and at 0/1, r1 and r2
    against the other block's atom pair, with alpha = (r1 + r2) / 2;
    symmetrically for the second block with u1, u2, beta = (u1 + u2) / 2.
    Row of a complement is 1 minus the atom's row; the 0-row is 0 and
    the 1-row is 1.
    """
    from .lattice import mo

    r1, r2, u1, u2 = (Fraction(v) for v in (r1, r2, u1, u2))
    for name, v in (("r1", r1), ("r2", r2), ("u1", u1), ("u2", u2)):
        if not 0 <= v <= 1:
            raise ParamOutOfRange("%s = %s outside [0, 1]" % (name, fmt_rat(v)))
    if l is None:
        l = mo(2)
    if set(l.elements) != {"0", "1", "a", "a'", "b", "b'"}:
        raise BiMapError("the parametric family lives on MO(2)")
    alpha = (r1 + r2) / 2
    beta = (u1 + u2) / 2
    rows = {
        "a": {"a": alpha, "a'": alpha, "b": r1, "b'": r2, "0": alpha, "1": alpha},
        "b": {"a": u1, "a'": u2, "b": beta, "b'": beta, "0": beta, "1": beta},
        "0": {x: ZERO for x in l.elements},
        "1": {x: ONE for x in l.elements},
    }
    rows["a'"] = {x: ONE - v for x, v in rows["a"].items()}
    rows["b'"] = {x: ONE - v for x, v in rows["b"].items()}
    return BiMap.from_function(l, lambda a, b: rows[a][b])


# -- identity verification -----------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    ok: bool
    first_violation: Violation | None = None

    def __bool__(self):
        return self.ok


def _identity_report(name, checks):
    """Run (label, elements, lhs, rhs) checks; report the first mismatch."""
    for label, elems, lhs, rhs in checks:
        if lhs != rhs:
            return IdentityReport(name, False, Violation(label, elems, lhs, rhs))
    return IdentityReport(name, True)


def verify_lemma_komp(G: BiMap) -> IdentityReport:
    """For every compatible pair:
    G(a,b) = G(a^b, a^b) + G(a^b', 0) + G(0, a'^b) - 2 G(0,0)."""
    l = G.lattice

    def checks():
        for a, b in l.pairs():
            if l.compatible(a, b):
                rhs = (G(l.meet(a, b), l.meet(a, b))
                       + G(l.meet(a, l.ocomp(b)), l.bot)
                       + G(l.bot, l.meet(l.ocomp(a), b))
                       - 2 * G(l.bot, l.bot))
                yield ("compatible-pair", (a, b), G(a, b), rhs)

    return _identity_report("lemma-compatible-decomposition", checks())


def verify_gamma9_identities(G: BiMap) -> IdentityReport:
    """The four Gamma9 identities, exhaustively:

    1. G(1, a) = 1 and G(0, a) = 0;
    2. G(a, 0) = G(a, a) = G(a, 1);
    3. G(a, 0) = (G(a, b) + G(a, b')) / 2 for all pairs;
    4. G(a, 0) = (1/n) sum G(a, b_i) over every orthogonal partition
       b_1, ..., b_n of the unit.
    """
    l = G.lattice
    partitions = l.orthogonal_partitions()

    def checks():
        for a in l.elements:
            yield ("id1", (l.top, a), G(l.top, a), ONE)
            yield ("id1", (l.bot, a), G(l.bot, a), ZERO)
            yield ("id2", (a, l.bot), G(a, l.bot), G(a, a))
            yield ("id2", (a, l.top), G(a, l.top), G(a, a))
            for b in l.elements:
                yield ("id3", (a, b), 2 * G(a, l.bot),
                       G(a, b) + G(a, l.ocomp(b)))
            for part in partitions:
                yield ("id4", (a,) + part, len(part) * G(a, l.bot),
                       sum(G(a, b) for b in part))

    return _identity_report("gamma9-identities", checks())


# the connective each family's value realizes on compatible pairs, plus
# how its induced state reads off the map
def _semantic_target(G: BiMap, gamma: int, a: str, b: str) -> Fraction:
    l = G.lattice
    meet, join, oc = l.meet, l.join, l.ocomp

    def m_diag(x):       # Gamma2 / Gamma3: diagonal state
        return G(x, x)

    def m_diag_c(x):     # Gamma5 / Gamma6: diagonal of 1-G
        return ONE - G(x, x)

    def m_left(x):       # Gamma4 / Gamma9: left margin at 0
        return G(x, l.bot)

    def m_left_c(x):     # Gamma7 / Gamma11
        return ONE - G(x, l.bot)

    def m_right(x):      # Gamma10
        return G(l.bot, x)

    def m_right_c(x):    # Gamma12
        return ONE - G(l.bot, x)

    xor = join(meet(a, oc(b)), meet(oc(a), b))   # (a <=> b)'
    iff = oc(xor)
    if gamma == 1:
        return ZERO
    if gamma == 2:
        return m_diag(meet(a, b))
    if gamma == 3:
        return m_diag(join(a, b))
    if gamma == 4:
        return m_left(xor)
    if gamma == 5:
        return m_diag_c(join(oc(a), oc(b)))
    if gamma == 6:
        return m_diag_c(meet(oc(a), oc(b)))
    if gamma == 7:
        return m_left_c(iff)
    if gamma == 8:
        return ONE
    if gamma == 9:
        return m_left(a)
    if gamma == 10:
        return m_right(b)
    if gamma == 11:
        return m_left_c(oc(a))
    if gamma == 12:
        return m_right_c(oc(b))
    raise UnsupportedFamily("no connective semantics for Gamma%d" % gamma)


def semantic_check_on_compatible(G: BiMap) -> IdentityReport:
    """On every compatible pair, G equals the induced-state value of the
    family's connective (meet for Gamma2, join for Gamma3, ...).

    Raises UnsupportedFamily for Gamma 13-16.
    """
    l = G.lattice
    gamma = classify_family(G).gamma
    if gamma > 12:
        raise UnsupportedFamily("no connective semantics for Gamma%d" % gamma)

    def checks():
        for a, b in l.pairs():
            if l.compatible(a, b) and l.compatible(b, a):
                yield ("semantics-gamma%d" % gamma, (a, b), G(a, b),
                       _semantic_target(G, gamma, a, b))

    return _identity_report("semantics", checks())


# -- axiom systems as linear constraints ---------------------------------


def pair_var(a: str, b: str) -> str:
    return "%s|%s" % (a, b)


def _system(system: str, l: Oml, corners=()) -> LinSystem:
    """The unit box on every pair variable, then the system's axiom rows
    as equalities, stably grouped by axiom number.  G1 rows pin the
    corners, in order, to the given values."""
    sb = SystemBuilder([pair_var(a, b) for a, b in l.pairs()])
    for a, b in l.pairs():
        sb.add_box(pair_var(a, b))
    pins = iter(corners)
    # row[0][1] is the axiom number: "s3", "G3-row" -> "3"
    rows = sorted(_axiom_rows(system, l), key=lambda row: row[0][1])
    for _axiom, _elems, pair, plus, minus, const in rows:
        coeffs = {pair_var(*pair): 1}
        for p, sign in [(p, -1) for p in plus] + [(p, 1) for p in minus]:
            var = pair_var(*p)
            coeffs[var] = coeffs.get(var, 0) + sign
        sb.add_eq(coeffs, next(pins) if const is None else const)
    return sb.build()


def smap_system(l: Oml) -> LinSystem:
    """(s1)-(s3) as linear constraints over all |L|^2 pair variables."""
    return _system("s", l)


def jmap_system(l: Oml) -> LinSystem:
    """(j1)-(j3) as linear constraints."""
    return _system("j", l)


def dmap_system(l: Oml) -> LinSystem:
    """(d1)-(d3) as linear constraints."""
    return _system("d", l)


def gmap_system(l: Oml, corners) -> LinSystem:
    """(G1)-(G3) with the four corner values pinned to the given pattern.

    corners = (G(0,0), G(0,1), G(1,0), G(1,1)), each 0 or 1.
    """
    corners = tuple(int(v) for v in corners)
    if len(corners) != 4 or any(v not in (0, 1) for v in corners):
        raise InvalidCorners("corners must be four values in {0, 1}")
    return _system("g", l, corners)
