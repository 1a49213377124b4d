"""Finite orthomodular lattices: validation, order operations, generators.

Every lattice handled here is finite and explicitly enumerated.  All
structural questions (unique meets/joins, the orthomodular law,
compatibility) are decided by exhaustive search, which is exact and fast
at the supported sizes (default bound: 64 elements).
"""

from __future__ import annotations

import itertools
import json
import os
import string
from dataclasses import dataclass

DEFAULT_MAX_ELEMENTS = 64

_LATTICE_KEYS = {"elements", "leq", "covers", "comp", "bot", "top"}


def max_elements() -> int:
    """Size bound for lattices; override with OMLPROB_MAX_ELEMENTS."""
    raw = os.environ.get("OMLPROB_MAX_ELEMENTS")
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    return int(raw)


class LatticeError(Exception):
    """Base class for lattice construction and validation failures."""


class NotALattice(LatticeError):
    """The candidate order is not a bounded lattice."""


class ComplementAxiom(LatticeError):
    """One of the orthocomplementation axioms (i)-(iii) fails."""

    def __init__(self, axiom: str, message: str):
        self.axiom = axiom
        super().__init__("complement axiom (%s): %s" % (axiom, message))


class OrthomodularLawFailure(LatticeError):
    """Axiom (iv) fails: a <= b but b != a v (a' ^ b)."""

    def __init__(self, a: str, b: str):
        self.pair = (a, b)
        super().__init__("orthomodular law fails for %s <= %s" % (a, b))


class PartTooSmall(LatticeError):
    """Horizontal sum requires every part to have at least 4 elements."""


class Oml:
    """A verified finite orthomodular lattice.

    Immutable.  Do not call the constructor directly; use
    :func:`validate_oml` or one of the generators, which guarantee the
    axioms hold and precompute the meet/join tables.
    """

    __slots__ = ("elements", "bot", "top", "_leq", "_comp", "_meet", "_join")

    def __init__(self, elements, leq, comp, bot, top, meet_table, join_table):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "_leq", frozenset(leq))
        object.__setattr__(self, "_comp", dict(comp))
        object.__setattr__(self, "bot", bot)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_meet", dict(meet_table))
        object.__setattr__(self, "_join", dict(join_table))

    def __setattr__(self, name, value):
        raise AttributeError("Oml instances are immutable")

    def __eq__(self, other):
        if not isinstance(other, Oml):
            return NotImplemented
        return (self.elements == other.elements
                and self._leq == other._leq
                and self._comp == other._comp
                and self.bot == other.bot
                and self.top == other.top)

    def __hash__(self):
        return hash((self.elements, self._leq, self.bot, self.top,
                     tuple(sorted(self._comp.items()))))

    def __repr__(self):
        return "Oml(%d elements, bot=%r, top=%r)" % (
            len(self.elements), self.bot, self.top)

    def __contains__(self, x):
        return x in self._comp

    def __len__(self):
        return len(self.elements)

    # -- order operations ------------------------------------------------

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self._leq

    def meet(self, a: str, b: str) -> str:
        return self._meet[(a, b)]

    def join(self, a: str, b: str) -> str:
        return self._join[(a, b)]

    def ocomp(self, a: str) -> str:
        return self._comp[a]

    def orthogonal(self, a: str, b: str) -> bool:
        """a is orthogonal to b:  a <= b'."""
        return self.leq(a, self._comp[b])

    def compatible(self, a: str, b: str) -> bool:
        """a is compatible with b:  a = (a^b) v (a^b')."""
        return a == self.join(self.meet(a, b), self.meet(a, self._comp[b]))

    def atoms(self) -> list:
        """Elements covering bot."""
        out = []
        for x in self.elements:
            if x == self.bot:
                continue
            if all(y in (self.bot, x) or not self.leq(y, x)
                   for y in self.elements):
                out.append(x)
        return out

    def pairs(self):
        """All ordered pairs of elements, in element order."""
        return itertools.product(self.elements, repeat=2)

    def orthogonal_pairs(self):
        """All unordered orthogonal pairs (a, b) with a <= b', in order."""
        out = []
        for i, a in enumerate(self.elements):
            for b in self.elements[i:]:
                if self.orthogonal(a, b):
                    out.append((a, b))
        return out

    def orthogonal_partitions(self):
        """All sets of pairwise-orthogonal nonzero elements joining to top.

        Returned as tuples in element order, smallest first; includes the
        trivial partition (top,).
        """
        nonzero = [x for x in self.elements if x != self.bot]
        results = []

        def extend(start, chosen, current_join):
            if current_join == self.top:
                results.append(tuple(chosen))
                return
            for i in range(start, len(nonzero)):
                x = nonzero[i]
                if all(self.orthogonal(x, y) for y in chosen):
                    extend(i + 1, chosen + [x], self.join(current_join, x))

        extend(0, [], self.bot)
        results.sort(key=lambda p: (len(p), p))
        return results

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        leq = sorted((a, b) for (a, b) in self._leq if a != b)
        return {
            "elements": list(self.elements),
            "leq": [[a, b] for a, b in leq],
            "comp": {a: self._comp[a] for a in self.elements},
            "bot": self.bot,
            "top": self.top,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class ElemPairClass:
    """Classification of an element pair per the defining identities."""

    tag: str  # "orthogonal" | "compatible" | "incompatible"
    note: tuple | None = None  # (a^b, a^b') witnesses when not incompatible


def classify_pair(l: Oml, a: str, b: str) -> ElemPairClass:
    """Classify (a, b) as orthogonal, compatible or incompatible.

    Orthogonality is a <= b'; compatibility is the identity
    a = (a^b) v (a^b').  Orthogonal pairs satisfy the compatibility
    identity and get the stronger "orthogonal" tag.
    """
    witnesses = (l.meet(a, b), l.meet(a, l.ocomp(b)))
    if l.orthogonal(a, b):
        return ElemPairClass("orthogonal", witnesses)
    if l.compatible(a, b):
        return ElemPairClass("compatible", witnesses)
    return ElemPairClass("incompatible", None)


# -- validation ----------------------------------------------------------


def _transitive_closure(elements, rel):
    rel = set(rel)
    for x in elements:
        rel.add((x, x))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for c in elements:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def validate_oml(candidate: dict) -> Oml:
    """Verify a raw lattice description and return a verified Oml.

    The candidate maps "elements" to a list of ids, "leq" (full or
    partial order pairs) or "covers" to a list of [x, y] pairs meaning
    x <= y, "comp" to the orthocomplement map, and "bot"/"top" to the
    extremes.  The order is normalized to its reflexive-transitive
    closure.  Raises NotALattice, ComplementAxiom or
    OrthomodularLawFailure naming the first violated axiom.
    """
    unknown = set(candidate) - _LATTICE_KEYS
    if unknown:
        raise NotALattice("unknown keys in lattice description: %s"
                          % sorted(unknown))
    try:
        elements = list(candidate["elements"])
        comp = dict(candidate["comp"])
        bot = candidate["bot"]
        top = candidate["top"]
    except KeyError as e:
        raise NotALattice("missing key %s" % e) from e
    if "leq" in candidate and "covers" in candidate:
        raise NotALattice("give either 'leq' or 'covers', not both")
    raw_rel = candidate.get("leq", candidate.get("covers"))
    if raw_rel is None:
        raise NotALattice("missing order relation ('leq' or 'covers')")

    if len(elements) != len(set(elements)):
        raise NotALattice("duplicate element ids")
    if len(elements) > max_elements():
        raise NotALattice("lattice exceeds the %d-element bound"
                          % max_elements())
    if len(elements) < 2:
        raise NotALattice("need at least the two elements bot and top")
    elem_set = set(elements)
    for x in (bot, top):
        if x not in elem_set:
            raise NotALattice("bot/top %r not among the elements" % x)

    pairs = []
    for pair in raw_rel:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise NotALattice("order pair %r is not an [x, y] pair"
                              % (pair,)) from None
        if a not in elem_set or b not in elem_set:
            raise NotALattice("order pair %r mentions unknown element"
                              % (list(pair),))
        pairs.append((a, b))
    leq = _transitive_closure(elements, pairs)

    for a, b in itertools.combinations(elements, 2):
        if (a, b) in leq and (b, a) in leq:
            raise NotALattice("order is not antisymmetric: %r and %r" % (a, b))
    for x in elements:
        if (bot, x) not in leq:
            raise NotALattice("bot %r is not below %r" % (bot, x))
        if (x, top) not in leq:
            raise NotALattice("%r is not below top %r" % (x, top))

    meet_table, join_table = {}, {}
    for a in elements:
        for b in elements:
            lower = [x for x in elements if (x, a) in leq and (x, b) in leq]
            maxima = [m for m in lower if all((y, m) in leq for y in lower)]
            if len(maxima) != 1:
                raise NotALattice("meet of %r and %r is not unique" % (a, b))
            meet_table[(a, b)] = maxima[0]
            upper = [x for x in elements if (a, x) in leq and (b, x) in leq]
            minima = [j for j in upper if all((j, y) in leq for y in upper)]
            if len(minima) != 1:
                raise NotALattice("join of %r and %r is not unique" % (a, b))
            join_table[(a, b)] = minima[0]

    for x in elements:
        if x not in comp:
            raise ComplementAxiom("i", "no complement given for %r" % x)
        if comp[x] not in elem_set:
            raise ComplementAxiom("i", "complement of %r is unknown element %r"
                                  % (x, comp[x]))
    for x in elements:
        if comp[comp[x]] != x:
            raise ComplementAxiom("i", "%r'' = %r != %r"
                                  % (x, comp[comp[x]], x))
    for a in elements:
        for b in elements:
            if (a, b) in leq and (comp[b], comp[a]) not in leq:
                raise ComplementAxiom(
                    "ii", "%r <= %r but not %r <= %r" % (a, b, comp[b], comp[a]))
    for x in elements:
        if join_table[(x, comp[x])] != top:
            raise ComplementAxiom("iii", "%r v %r != top" % (x, comp[x]))
        if meet_table[(x, comp[x])] != bot:
            raise ComplementAxiom("iii", "%r ^ %r != bot" % (x, comp[x]))

    for a in elements:
        for b in elements:
            if (a, b) in leq:
                if join_table[(a, meet_table[(comp[a], b)])] != b:
                    raise OrthomodularLawFailure(a, b)

    return Oml(elements, leq, comp, bot, top, meet_table, join_table)


def lattice_from_json(text: str) -> Oml:
    """Parse the JSON lattice file format and validate it."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise NotALattice("lattice file must contain a JSON object")
    return validate_oml(data)


def load_lattice(path: str) -> Oml:
    with open(path, "r", encoding="utf-8") as f:
        return lattice_from_json(f.read())


# -- generators ----------------------------------------------------------

_ATOM_LETTERS = string.ascii_lowercase


def _subset_name(subset: frozenset, n: int) -> str:
    if not subset:
        return "0"
    if len(subset) == n:
        return "1"
    return "".join(sorted(subset))


def boolean_algebra(n_atoms: int) -> Oml:
    """The Boolean algebra 2^{n_atoms}, atoms named a, b, c, ...

    Elements are named by their atom sets ("ab" for {a, b}); the empty
    set is "0" and the full set is "1".
    """
    if not 1 <= n_atoms <= 6:
        raise LatticeError("boolean_algebra supports 1..6 atoms")
    letters = _ATOM_LETTERS[:n_atoms]
    subsets = [frozenset(c) for r in range(n_atoms + 1)
               for c in itertools.combinations(letters, r)]
    names = {s: _subset_name(s, n_atoms) for s in subsets}
    elements = [names[s] for s in subsets]
    leq = [(names[s], names[t]) for s in subsets for t in subsets if s <= t]
    full = frozenset(letters)
    comp = {names[s]: names[full - s] for s in subsets}
    return validate_oml({"elements": elements, "leq": leq, "comp": comp,
                         "bot": "0", "top": "1"})


def mo(n: int) -> Oml:
    """MO(n): the horizontal sum of n four-element Boolean blocks.

    Atoms are named a, b, c, ... with complements a', b', ...  MO(2) is
    the lattice {0, 1, a, a', b, b'} of the motivating example.
    """
    if not 2 <= n <= 26:
        raise LatticeError("mo supports 2..26 blocks")
    atoms = list(_ATOM_LETTERS[:n])
    elements = ["0"] + [x for at in atoms for x in (at, at + "'")] + ["1"]
    covers = [("0", x) for x in elements if x not in ("0", "1")]
    covers += [(x, "1") for x in elements if x not in ("0", "1")]
    comp = {"0": "1", "1": "0"}
    for at in atoms:
        comp[at] = at + "'"
        comp[at + "'"] = at
    return validate_oml({"elements": elements, "covers": covers,
                         "comp": comp, "bot": "0", "top": "1"})


def hexagon() -> Oml:
    """The benzene ring O6: an ortholattice that is NOT orthomodular.

    validate_oml raises OrthomodularLawFailure on it; kept as a
    constructor of the raw description for tests.
    """
    return validate_oml(hexagon_candidate())


def hexagon_candidate() -> dict:
    """Raw description of O6 (chain 0 < x < y < 1 plus complements)."""
    return {
        "elements": ["0", "x", "y", "y'", "x'", "1"],
        "covers": [["0", "x"], ["x", "y"], ["y", "1"],
                   ["0", "y'"], ["y'", "x'"], ["x'", "1"]],
        "comp": {"0": "1", "1": "0", "x": "x'", "x'": "x",
                 "y": "y'", "y'": "y"},
        "bot": "0", "top": "1",
    }


def horizontal_sum(parts: list) -> Oml:
    """Glue OMLs at shared bot/top, keeping interiors disjoint.

    Interior elements from different parts are incomparable; the result
    is validated.  Interior names are kept when already unique across
    parts, otherwise suffixed with "#<part index>".
    """
    if not parts:
        raise PartTooSmall("horizontal_sum needs at least one part")
    for p in parts:
        if len(p.elements) < 4:
            raise PartTooSmall("every part must have at least 4 elements")

    interiors = [[x for x in p.elements if x not in (p.bot, p.top)]
                 for p in parts]
    flat = [x for interior in interiors for x in interior]
    collision = (len(flat) != len(set(flat))
                 or bool(set(flat) & {"0", "1"}))

    def rename(i, x):
        return "%s#%d" % (x, i) if collision else x

    elements = ["0"]
    leq = []
    comp = {"0": "1", "1": "0"}
    for i, p in enumerate(parts):
        for x in interiors[i]:
            elements.append(rename(i, x))
            comp[rename(i, x)] = rename(i, p.ocomp(x))
            leq.append(("0", rename(i, x)))
            leq.append((rename(i, x), "1"))
        for x in interiors[i]:
            for y in interiors[i]:
                if p.leq(x, y):
                    leq.append((rename(i, x), rename(i, y)))
    elements.append("1")
    return validate_oml({"elements": elements, "leq": leq, "comp": comp,
                         "bot": "0", "top": "1"})


# -- blocks --------------------------------------------------------------


def _is_distributive(l: Oml, subset) -> bool:
    for a in subset:
        for b in subset:
            for c in subset:
                if l.meet(a, l.join(b, c)) != l.join(l.meet(a, b),
                                                     l.meet(a, c)):
                    return False
    return True


def blocks(l: Oml) -> list:
    """Maximal Boolean subalgebras, as sorted element tuples.

    In an OML these are exactly the maximal sets of pairwise-compatible
    elements; closure and distributivity are verified on each.
    """
    elems = list(l.elements)
    compat = {x: {y for y in elems if y != x and l.compatible(x, y)
                  and l.compatible(y, x)} for x in elems}

    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(compat[v] & p))
        for v in [v for v in elems if v in p - compat[pivot]]:
            bron_kerbosch(r | {v}, p & compat[v], x & compat[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(elems), set())

    order = {x: i for i, x in enumerate(elems)}
    result = []
    for clique in cliques:
        members = sorted(clique, key=order.get)
        for a in members:
            if l.ocomp(a) not in clique:
                raise LatticeError("block candidate not complement-closed")
            for b in members:
                if l.meet(a, b) not in clique or l.join(a, b) not in clique:
                    raise LatticeError("block candidate not closed")
        if not _is_distributive(l, members):
            raise LatticeError("maximal compatible set is not Boolean")
        result.append(tuple(members))
    result.sort()
    return result
