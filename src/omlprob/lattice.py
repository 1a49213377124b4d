"""Finite orthomodular lattices: validation, order operations, generators.

Every lattice handled here is finite and explicitly enumerated (default
bound: 64 elements).  Down- and up-sets are int bitmasks over element
positions.  Meets and joins are read off the order: the meet of a and b
is the element whose down-set is down(a) & down(b), the join likewise
from up-sets.  Blocks are generated by the sets of pairwise
orthogonal atoms that join to 1.  The axioms, the orthomodular law and
compatibility are checked exhaustively over those tables.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import string
from dataclasses import dataclass

DEFAULT_MAX_ELEMENTS = 64

_LATTICE_KEYS = {"elements", "leq", "covers", "comp", "bot", "top"}


def max_elements() -> int:
    """Size bound for lattices; override with OMLPROB_MAX_ELEMENTS.
    Raises ValueError for a value that is no integer or is below 2."""
    raw = os.environ.get("OMLPROB_MAX_ELEMENTS")
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    if int(raw) < 2:  # every lattice has bot and top
        raise ValueError("%s is below 2" % raw)
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
        trivial partition (top,).  The search is the one blocks runs over
        the atoms (see _orthogonal_sets).
        """
        results = _orthogonal_sets(
            self, [x for x in self.elements if x != self.bot])
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


def _order(elements, pairs, bot, top):
    """The reflexive-transitive closure of pairs, as the set of (x, y)
    with x <= y, and its meet and join tables.

    Down-sets are int bitmasks over element positions, bit i for
    elements[i].  Warshall's closure runs on them: each pivot k ORs
    down(k) into every down(y) that holds bit k.  Up-sets are the
    transpose.  The lower bounds of a and b form the down-closed set
    down(a) & down(b), which has a greatest element, the meet, exactly
    when it is the down-set of some element.  Joins are read likewise
    from up-sets.
    """
    n = len(elements)
    pos = {x: i for i, x in enumerate(elements)}
    down = [1 << i for i in range(n)]
    for x, y in pairs:
        down[pos[y]] |= 1 << pos[x]
    for k in range(n):
        bit, dk = 1 << k, down[k]
        down = [d | dk if d & bit else d for d in down]
    up = [0] * n
    leq = set()
    for y, mask in enumerate(down):
        while mask:
            low = mask & -mask
            x = low.bit_length() - 1
            up[x] |= 1 << y
            leq.add((elements[x], elements[y]))
            mask ^= low

    for i, a in enumerate(elements):
        later = (down[i] & up[i]) >> (i + 1)
        if later:
            b = elements[i + (later & -later).bit_length()]
            raise NotALattice("order is not antisymmetric: %r and %r" % (a, b))
    bot_bit, top_bit = 1 << pos[bot], 1 << pos[top]
    for i, x in enumerate(elements):
        if not down[i] & bot_bit:
            raise NotALattice("bot %r is not below %r" % (bot, x))
        if not up[i] & top_bit:
            raise NotALattice("%r is not below top %r" % (x, top))

    by_down = {d: y for y, d in zip(elements, down)}
    by_up = {u: x for x, u in zip(elements, up)}
    meet_table, join_table = {}, {}
    for a, da, ua in zip(elements, down, up):
        meets = [by_down.get(da & d) for d in down]
        joins = [by_up.get(ua & u) for u in up]
        if None in meets or None in joins:
            # the first failing b in element order, meet before join
            j = min(r.index(None) for r in (meets, joins) if None in r)
            b = elements[j]
            what = "meet" if meets[j] is None else "join"
            raise NotALattice("%s of %r and %r is not unique" % (what, a, b))
        keys = [(a, b) for b in elements]
        meet_table.update(zip(keys, meets))
        join_table.update(zip(keys, joins))
    return leq, meet_table, join_table


def validate_oml(candidate: dict) -> Oml:
    """Verify a raw lattice description and return a verified Oml.

    The candidate maps "elements" to a list of string ids, "leq" (full or
    partial order pairs) or "covers" to a list of [x, y] pairs meaning
    x <= y, "comp" to the orthocomplement map on exactly the elements,
    and "bot"/"top" to the extremes.  The order is normalized to its
    reflexive-transitive closure, and meets and joins are read off its
    down- and up-sets (see _order).  Raises NotALattice, ComplementAxiom
    or OrthomodularLawFailure naming the first violated axiom.
    """
    unknown = set(candidate) - _LATTICE_KEYS
    if unknown:
        raise NotALattice("unknown keys in lattice description: %s"
                          % sorted(unknown))
    try:
        elements, comp = candidate["elements"], candidate["comp"]
        bot, top = candidate["bot"], candidate["top"]
    except KeyError as e:
        raise NotALattice("missing key %s" % e) from e
    if "leq" in candidate and "covers" in candidate:
        raise NotALattice("give either 'leq' or 'covers', not both")
    raw_rel = candidate.get("leq", candidate.get("covers"))
    if raw_rel is None:
        raise NotALattice("missing order relation ('leq' or 'covers')")
    if not (isinstance(elements, (list, tuple)) and isinstance(comp, dict)
            and isinstance(raw_rel, (list, tuple))):
        raise NotALattice("elements and the order must be lists, "
                          "comp an object")

    for x in elements:
        if not isinstance(x, str) or "|" in x:
            # map files and LP variables name a pair "a|b"
            raise NotALattice("element id %r is not a string without '|'"
                              % (x,))
    elem_set = set(elements)

    def known(x):
        return isinstance(x, str) and x in elem_set

    if len(elements) != len(elem_set):
        raise NotALattice("duplicate element ids")
    if len(elements) > max_elements():
        raise NotALattice("lattice exceeds the %d-element bound"
                          % max_elements())
    if len(elements) < 2:
        raise NotALattice("need at least the two elements bot and top")
    for x in (bot, top):
        if not known(x):
            raise NotALattice("bot/top %r not among the elements" % (x,))

    pairs = []
    for pair in raw_rel:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise NotALattice("order pair %r is not an [x, y] pair"
                              % (pair,))
        if not all(map(known, pair)):
            raise NotALattice("order pair %r mentions unknown element"
                              % (list(pair),))
        pairs.append(tuple(pair))
    leq, meet_table, join_table = _order(elements, pairs, bot, top)

    for x in elements:
        if x not in comp:
            raise ComplementAxiom("i", "no complement given for %r" % x)
        if not known(comp[x]):
            raise ComplementAxiom("i", "complement of %r is unknown element %r"
                                  % (x, comp[x]))
    for x in elements:
        if comp[comp[x]] != x:
            raise ComplementAxiom("i", "%r'' = %r != %r"
                                  % (x, comp[comp[x]], x))
    rank = {x: i for i, x in enumerate(elements)}

    def first(bad):
        # the failing pair an (a, b) scan in element order meets first
        return min(bad, key=lambda p: (rank[p[0]], rank[p[1]]))

    bad = [(a, b) for a, b in leq if (comp[b], comp[a]) not in leq]
    if bad:
        a, b = first(bad)
        raise ComplementAxiom(
            "ii", "%r <= %r but not %r <= %r" % (a, b, comp[b], comp[a]))
    for x in elements:
        if join_table[(x, comp[x])] != top:
            raise ComplementAxiom("iii", "%r v %r != top" % (x, comp[x]))
        if meet_table[(x, comp[x])] != bot:
            raise ComplementAxiom("iii", "%r ^ %r != bot" % (x, comp[x]))

    bad = [(a, b) for a, b in leq
           if join_table[(a, meet_table[(comp[a], b)])] != b]
    if bad:
        raise OrthomodularLawFailure(*first(bad))
    for x in comp:
        if x not in elem_set:
            raise ComplementAxiom("i", "comp names unknown element %r" % (x,))

    return Oml(elements, leq, comp, bot, top, meet_table, join_table)


def lattice_from_json(text: str) -> Oml:
    """Parse the JSON lattice file format and validate it."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise NotALattice("lattice file must contain a JSON object")
    return validate_oml(data)


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


def hexagon_candidate() -> dict:
    """Raw description of O6 (chain 0 < x < y < 1 plus complements), an
    ortholattice on which validate_oml raises OrthomodularLawFailure."""
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


def _orthogonal_sets(l: Oml, candidates) -> list:
    """Every set of pairwise orthogonal candidates that joins to top, as
    tuples in candidate order, in search order.

    x is orthogonal to each chosen y_i iff x <= meet of the y_i' = (join
    of the y_i)', so a candidate is tested against the current join
    alone.  Once the join is top no nonzero candidate can follow.
    """
    results = []

    def extend(start, chosen, current_join):
        if current_join == l.top:
            results.append(tuple(chosen))
            return
        for i in range(start, len(candidates)):
            x = candidates[i]
            if l.orthogonal(x, current_join):
                extend(i + 1, chosen + [x], l.join(current_join, x))

    extend(0, [], l.bot)
    return results


def blocks(l: Oml) -> list:
    """Maximal Boolean subalgebras, as sorted element tuples.

    In a finite OML these are exactly the Boolean algebras generated by
    the maximal sets of pairwise orthogonal atoms (Greechie, J. Combin.
    Theory A 10, 1971; Kalmbach, Orthomodular Lattices, 1983).  Such a
    set is maximal exactly when its join is 1 (below a join j < 1 lies
    an atom of j', orthogonal to the whole set), so the sets are the
    atom sets that join to 1, found by the search orthogonal_partitions
    runs over the nonzero elements.  Each block holds the x that equal
    the join of its set's atoms below x.
    """
    result = []
    for atoms in _orthogonal_sets(l, l.atoms()):
        result.append(tuple(x for x in l.elements if x == functools.reduce(
            l.join, [p for p in atoms if l.leq(p, x)], l.bot)))
    return sorted(result)


# -- automorphisms -------------------------------------------------------


def automorphism_generators(l: Oml) -> list:
    """A strong generating set of Aut(l), the permutations of the
    elements that preserve <= both ways and commute with ', as tuples
    g of positions, g[i] the image of i; the group is never listed.

    For i from n-1 down, and each y the kept generators do not map i
    to, keep one automorphism fixing 0..i-1 that maps i to y, if any:
    |Aut(l)| is the product over i of the orbit sizes so found.  Each
    is found by backtracking over positions in order: an image keeps
    the up- and down-set sizes, x and x' are mapped together, and <=
    is checked both ways against every mapped position."""
    n = len(l.elements)
    comp = [l.elements.index(l.ocomp(x)) for x in l.elements]
    leq = [[l.leq(x, y) for y in l.elements] for x in l.elements]
    size = [(sum(leq[x]), sum(row[x] for row in leq)) for x in range(n)]

    def extend(perm, images=range(n)):
        # perm: images of a '-closed set of positions, None elsewhere
        if None not in perm:
            return tuple(perm)
        x = perm.index(None)
        for z in images:
            trial = list(perm)
            trial[x], trial[comp[x]] = z, comp[z]
            if size[z] == size[x] and z not in perm and all(
                    leq[u][w] == leq[trial[u]][trial[w]]
                    and leq[w][u] == leq[trial[w]][trial[u]]
                    for u in (x, comp[x]) for w in range(n)
                    if trial[w] is not None):
                if found := extend(trial):
                    return found
        return None

    gens = []
    for i in reversed(range(n)):
        if comp[i] < i:
            continue  # fixing comp[i] fixes i
        fixed = [x if min(x, comp[x]) < i else None for x in range(n)]
        for y in range(i + 1, n):
            if y not in _orbit(i, gens) and (g := extend(fixed, (y,))):
                gens.append(g)
    return gens


def _orbit(x: int, gens) -> set:
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        todo += {g[y] for g in gens} - orbit
        orbit.update(todo)
    return orbit


def tuple_orbits(l: Oml, k: int) -> list:
    """rep[code], the least code in the Aut(l)-orbit of each k-tuple of
    positions, coded x_0·n^(k-1) + ... + x_{k-1} (product order); each
    orbit is labelled by a search from its least code, O(n^k · |gens|)."""
    n = len(l.elements)
    images = []
    for g in automorphism_generators(l):
        image = [0]
        for _ in range(k):
            image = [c * n + y for c in image for y in g]
        images.append(image)
    rep = [-1] * n ** k
    for code in range(n ** k):
        if rep[code] < 0:
            rep[code], todo = code, [code]
            while todo:
                c = todo.pop()
                for image in images:
                    if rep[image[c]] < 0:
                        rep[image[c]] = code
                        todo.append(image[c])
    return rep
