"""Bivariate maps on L x L: s-, j-, d- and G-map axioms, Gamma families,
derived maps, and the identities the families satisfy.

All checks are exhaustive over the finite lattice and exact.  Each map
system is one table of axiom rows; the checkers and the LP systems are
both generated from it.  The identities are rows of the same form, read
by the same checker: Gamma9's (3) and (4) as G(a, b) = 2 G(a, 0) -
G(a, b') and G(a, b_1) = n G(a, 0) - sum_{i>=2} G(a, b_i).  Checkers
return a report carrying the first violated row with both sides'
values, so every failure is independently re-checkable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Oml
from .linear import Polytope, SystemBuilder, first_violation
from .rational import as_fraction, fmt_rat, parse_rat
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
    """A total map (element, element) -> Fraction in [0, 1].

    values is the dict {(a, b): Fraction} over all ordered pairs, in
    lattice.pairs() order: the dict the checkers hand to
    linear.first_violation.  It must not be mutated.
    """

    lattice: Oml
    values: dict

    def __post_init__(self):
        if list(self.values) != list(self.lattice.pairs()):
            raise BiMapError("map is not total on L x L in pair order")
        for pair, v in self.values.items():
            if not 0 <= v.numerator <= v.denominator:
                raise BiMapError("value at %s is outside [0, 1]" % (pair,))

    def __call__(self, a: str, b: str) -> Fraction:
        return self.values[(a, b)]

    @staticmethod
    def from_dict(l: Oml, values: dict) -> "BiMap":
        return BiMap(l, {p: as_fraction(values[p]) for p in l.pairs()})

    @staticmethod
    def from_function(l: Oml, fn) -> "BiMap":
        return BiMap(l, {(a, b): as_fraction(fn(a, b)) for a, b in l.pairs()})

    @staticmethod
    def from_vector(l: Oml, vec) -> "BiMap":
        pairs = list(l.pairs())
        if len(vec) != len(pairs):
            raise BiMapError("vector has %d values for %d pairs"
                             % (len(vec), len(pairs)))
        return BiMap(l, dict(zip(pairs, map(as_fraction, vec))))

    def as_vector(self) -> tuple:
        return tuple(self.values.values())

    def replace(self, a: str, b: str, value) -> "BiMap":
        """A copy with one entry changed (used by mutation tests)."""
        return BiMap(self.lattice, {**self.values, (a, b): Fraction(value)})

    def to_json(self, lattice_path: str = "") -> str:
        return json.dumps(
            {"lattice": lattice_path,
             "values": {pair_var(*p): fmt_rat(v)
                        for p, v in self.values.items()}},
            indent=2)


def bimap_from_json(text: str, l: Oml) -> BiMap:
    """Parse the map file format against an already-loaded lattice.

    A map repeats few values, so each distinct value string is parsed
    once; any other JSON value goes to parse_rat on its own, which
    rejects all but integers (true == 1 must not share 1's entry)."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) - {"lattice", "values"}:
        raise BiMapError("map file must be {'lattice': ..., 'values': ...}")
    raw = data.get("values")
    if not isinstance(raw, dict):
        raise BiMapError("map file lacks a 'values' object")
    values = {}
    parsed = {}
    elements = set(l.elements)
    for key, v in raw.items():
        pair = tuple(key.split("|"))
        if len(pair) != 2:
            raise BiMapError("bad pair key %r (expected 'a|b')" % key)
        if not elements.issuperset(pair):
            raise BiMapError("pair key %r names no element pair" % key)
        if type(v) is str:
            if v not in parsed:
                parsed[v] = parse_rat(v)
            values[pair] = parsed[v]
        else:
            values[pair] = parse_rat(v)
    try:
        return BiMap(l, {p: values[p] for p in l.pairs()})
    except KeyError as e:
        raise BiMapError("missing pairs, e.g. %s" % (e.args[0],)) from None


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
class Report:
    """The verdict of one checker: the map system ("s-map", "j-map",
    "d-map", "G-map") or identity it checked, whether every row held,
    and the first row that did not."""

    name: str
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
          lambda l: [((l.top, l.top), 1)],
          lambda l, x, y: ((), ()),
          lambda l, c: ((), ())),
    "j": ("j-map", ("j1", "j2", "j3", "j3"),
          lambda l: [((l.bot, l.bot), 0), ((l.top, l.top), 1)],
          lambda l, x, y: (((x, x), (y, y)), ()),
          lambda l, c: (((c, c),), ((c, c),))),
    "d": ("d-map", ("d1", "d2", "d3", "d3"),
          lambda l: ([((a, a), 0) for a in l.elements]
                     + [((l.top, l.bot), 1), ((l.bot, l.top), 1)]),
          lambda l, x, y: (((x, l.bot), (l.bot, y)), ()),
          lambda l, c: (((l.bot, c),), ((c, l.bot),))),
    "g": ("G-map", ("G1", "G2", "G3-row", "G3-col"),
          lambda l: [((x, y), None) for x in (l.bot, l.top)
                     for y in (l.bot, l.top)],
          lambda l, x, y: (((x, l.bot), (l.bot, y)), ((l.bot, l.bot),)),
          lambda l, c: (((l.bot, c),), ((c, l.bot),))),
}


def _axiom_rows(system: str, l: Oml):
    """The axiom rows (see linear.first_violation) of one system on l,
    over pair keys, in checking order.  Only (x1) rows have a nonzero
    const, and they have no terms; a G1 row has const None."""
    _name, (x1, x2, row3, col3), unit, split, offset = _TABLES[system]
    for pair, const in unit(l):
        yield x1, pair, pair, (), (), const, False
    offsets = [(c, offset(l, c)) for c in l.elements]
    for a, b in l.orthogonal_pairs():
        for x, y in ((a, b), (b, a)):
            plus, minus = split(l, x, y)
            yield x2, (x, y), (x, y), plus, minus, 0, False
        j = l.join(a, b)
        for c, (row_off, col_off) in offsets:
            elems = (a, b, c)
            yield row3, elems, (j, c), ((a, c), (b, c)), row_off, 0, False
            yield col3, elems, (c, j), ((c, a), (c, b)), col_off, 0, False


def _report(name: str, rows, M: BiMap) -> Report:
    """The report of M against the rows."""
    hit = first_violation(rows, M.values)
    return Report(name, hit is None, hit and Violation(*hit))


def check_map(system: str, M: BiMap) -> Report:
    """Exhaustive check of axioms (x1)-(x3) of system "s", "j", "d" or "g":
    the first axiom row whose two sides differ on M, with both values."""
    if system not in _TABLES:
        raise BiMapError("unknown axiom system %r" % system)
    return _report(_TABLES[system][0], _axiom_rows(system, M.lattice), M)


def check_s_map(P: BiMap) -> Report:
    """Exhaustive check of (s1)-(s3)."""
    return check_map("s", P)


def check_j_map(Q: BiMap) -> Report:
    """Exhaustive check of (j1)-(j3)."""
    return check_map("j", Q)


def check_d_map(D: BiMap) -> Report:
    """Exhaustive check of (d1)-(d3)."""
    return check_map("d", D)


def check_g_map(G: BiMap) -> Report:
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
    return BiMap(G.lattice, {p: ONE - v for p, v in G.values.items()})


# -- derived maps --------------------------------------------------------


def induced_state_from_smap(P: BiMap) -> StateFn:
    """m_p(a) = p(a, a), the state induced by an s-map."""
    return StateFn({a: P(a, a) for a in P.lattice.elements})


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
    return StateFn({a: G(a, b) for a in G.lattice.elements})


def _purity_rows(l: Oml):
    """G(a, b) = G(a, 0) for every pair, in pair order."""
    for a, b in l.pairs():
        yield "pure-projection", (a, b), (a, b), ((a, l.bot),), (), 0, False


def is_pure_projection(G: BiMap):
    """(True, None) or (False, first (a, b) with G(a, b) != G(a, 0))."""
    hit = first_violation(_purity_rows(G.lattice), G.values)
    return (True, None) if hit is None else (False, hit[1])


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


def _komp_rows(l: Oml):
    """verify_lemma_komp's rows, one per compatible pair, in pair order."""
    z, oc = (l.bot, l.bot), l.ocomp
    for a, b in l.pairs():
        if l.compatible(a, b):
            m = l.meet(a, b)
            plus = ((m, m), (l.meet(a, oc(b)), l.bot),
                    (l.bot, l.meet(oc(a), b)))
            yield "compatible-pair", (a, b), (a, b), plus, (z, z), 0, False


def verify_lemma_komp(G: BiMap) -> Report:
    """For every compatible pair:
    G(a,b) = G(a^b, a^b) + G(a^b', 0) + G(0, a'^b) - 2 G(0,0)."""
    return _report("lemma-compatible-decomposition", _komp_rows(G.lattice), G)


def _gamma9_rows(l: Oml):
    """verify_gamma9_identities' rows, element by element."""
    partitions = l.orthogonal_partitions()
    for a in l.elements:
        left = (a, l.bot)
        yield "id1", (l.top, a), (l.top, a), (), (), 1, False
        yield "id1", (l.bot, a), (l.bot, a), (), (), 0, False
        yield "id2", left, left, ((a, a),), (), 0, False
        yield "id2", (a, l.top), (a, l.top), ((a, a),), (), 0, False
        for b in l.elements:
            yield ("id3", (a, b), (a, b), (left, left), ((a, l.ocomp(b)),),
                   0, False)
        for part in partitions:
            yield ("id4", (a,) + part, (a, part[0]), (left,) * len(part),
                   tuple((a, b) for b in part[1:]), 0, False)


def verify_gamma9_identities(G: BiMap) -> Report:
    """The four Gamma9 identities, exhaustively, in the row form they
    are checked and reported in:

    1. G(1, a) = 1 and G(0, a) = 0;
    2. G(a, 0) = G(a, a) = G(a, 1);
    3. G(a, b) = 2 G(a, 0) - G(a, b') for all pairs, i.e. G(a, 0) is
       the mean of G(a, b) and G(a, b');
    4. G(a, b_1) = n G(a, 0) - sum_{i>=2} G(a, b_i) over every orthogonal
       partition b_1, ..., b_n of the unit, i.e. G(a, 0) is the mean.
    """
    return _report("gamma9-identities", _gamma9_rows(G.lattice), G)


def _xor(l: Oml, a: str, b: str) -> str:
    """(a <=> b)' = (a ^ b') v (a' ^ b)."""
    return l.join(l.meet(a, l.ocomp(b)), l.meet(l.ocomp(a), b))


def _diag(l, x):
    return x, x


def _left(l, x):
    return x, l.bot


def _right(l, x):
    return l.bot, x


# Gamma -> (c, read, connective): on a compatible pair (a, b) the family
# takes the value m(connective(a, b)) for c = 0 and 1 - m(...) for c = 1,
# where m(x) = G(read(x)) is the state induced on the diagonal (Gamma2,
# 3, 5, 6), the left margin (4, 7, 9, 11) or the right margin (10, 12).
# Gamma1 and Gamma8 read nothing: they are the constants 0 and 1.
_SEMANTICS = {
    1: (0, None, None),
    2: (0, _diag, lambda l, a, b: l.meet(a, b)),
    3: (0, _diag, lambda l, a, b: l.join(a, b)),
    4: (0, _left, _xor),
    5: (1, _diag, lambda l, a, b: l.join(l.ocomp(a), l.ocomp(b))),
    6: (1, _diag, lambda l, a, b: l.meet(l.ocomp(a), l.ocomp(b))),
    7: (1, _left, lambda l, a, b: l.ocomp(_xor(l, a, b))),
    8: (1, None, None),
    9: (0, _left, lambda l, a, b: a),
    10: (0, _right, lambda l, a, b: b),
    11: (1, _left, lambda l, a, b: l.ocomp(a)),
    12: (1, _right, lambda l, a, b: l.ocomp(b)),
}


def _semantic_rows(l: Oml, gamma: int):
    """One row per compatible pair: G(a, b) equals the family's value."""
    const, read, connective = _SEMANTICS[gamma]
    label = "semantics-gamma%d" % gamma
    for a, b in l.pairs():
        if l.compatible(a, b):
            term = (read(l, connective(l, a, b)),) if read else ()
            plus, minus = ((), term) if const else (term, ())
            yield label, (a, b), (a, b), plus, minus, const, False


def semantic_check_on_compatible(G: BiMap) -> Report:
    """On every compatible pair, G equals the induced-state value of the
    family's connective (meet for Gamma2, join for Gamma3, ...).

    Raises UnsupportedFamily for Gamma 13-16.
    """
    gamma = classify_family(G).gamma
    if gamma not in _SEMANTICS:
        raise UnsupportedFamily("no connective semantics for Gamma%d" % gamma)
    return _report("semantics", _semantic_rows(G.lattice, gamma), G)


# -- axiom systems as linear constraints ---------------------------------


def pair_var(a: str, b: str) -> str:
    return "%s|%s" % (a, b)


def _system(system: str, l: Oml, corners=()) -> Polytope:
    """The unit box on every pair variable, then the system's axiom rows
    as equalities, stably grouped by axiom number.  G1 rows pin the
    corners, in order, to the given values."""
    sb = SystemBuilder([pair_var(a, b) for a, b in l.pairs()])
    for a, b in l.pairs():
        sb.add_box(pair_var(a, b))
    # row[0][1] is the axiom number: "s3", "G3-row" -> "3"
    rows = sorted(_axiom_rows(system, l), key=lambda row: row[0][1])
    sb.add_rows(rows, lambda pair: (pair_var(*pair),), corners)
    return sb.build()


def smap_system(l: Oml) -> Polytope:
    """(s1)-(s3) as linear constraints over all |L|^2 pair variables."""
    return _system("s", l)


def jmap_system(l: Oml) -> Polytope:
    """(j1)-(j3) as linear constraints."""
    return _system("j", l)


def dmap_system(l: Oml) -> Polytope:
    """(d1)-(d3) as linear constraints."""
    return _system("d", l)


def gmap_system(l: Oml, corners) -> Polytope:
    """(G1)-(G3) with the four corner values pinned to the given pattern.

    corners = (G(0,0), G(0,1), G(1,0), G(1,1)), each 0 or 1.
    """
    corners = tuple(corners)
    if len(corners) != 4 or any(v not in (0, 1) for v in corners):
        raise InvalidCorners("corners must be four values in {0, 1}")
    return _system("g", l, tuple(int(v) for v in corners))
