"""The benchmark's own lattice model: horizontal sums of Boolean blocks.

Every ladder lattice of the benchmark (2^n, MO(n), 2^3 + 2^2 + 2^2, ...)
is a horizontal sum of Boolean algebras, so one small model covers them
all and gives the closed forms the answer gate uses: blocks, states and
the vertices of the state polytope.  Nothing here imports omlprob; the
program under test sees only the JSON these objects write.
"""

from __future__ import annotations

import itertools
import json
import string
from fractions import Fraction


class Ladder:
    """A horizontal sum of Boolean algebras 2^k1 + ... + 2^km (ki >= 2).

    Without random generators the elements get omlprob's generator names
    in a fixed order; otherwise `names` draws the element names and
    `order` shuffles the element order.

    Interior elements are (block, frozenset of atom indices) pairs with
    a nonempty proper atom set; bot and top are shared by all blocks.
    """

    def __init__(self, parts, names=None, order=None):
        if not parts or any(k < 2 for k in parts):
            raise ValueError("every part needs at least two atoms")
        self.parts = tuple(parts)
        keys = ["bot", "top"]
        for i, k in enumerate(parts):
            for r in range(1, k):
                keys += [(i, frozenset(s))
                         for s in itertools.combinations(range(k), r)]
        if names is None:
            labels = [_canonical_name(key, parts) for key in keys]
        else:
            labels = _random_names(names, len(keys))
        if order is not None:
            order.shuffle(keys)
        self.keys = keys
        self.name = dict(zip(keys, labels))
        self._by_name = dict(zip(labels, keys))

    # -- structure -------------------------------------------------------

    @property
    def elements(self):
        return [self.name[k] for k in self.keys]

    @property
    def bot(self):
        return self.name["bot"]

    @property
    def top(self):
        return self.name["top"]

    def __len__(self):
        return len(self.keys)

    def _comp_key(self, key):
        if key == "bot":
            return "top"
        if key == "top":
            return "bot"
        i, s = key
        return (i, frozenset(range(self.parts[i])) - s)

    def _covers(self):
        out = []
        for key in self.keys:
            if key in ("bot", "top"):
                continue
            i, s = key
            k = self.parts[i]
            if len(s) == 1:
                out.append(("bot", key))
            if len(s) == k - 1:
                out.append((key, "top"))
            else:
                out += [(key, (i, s | {a})) for a in range(k) if a not in s]
        return out

    def to_dict(self):
        return {
            "elements": self.elements,
            "covers": sorted([self.name[a], self.name[b]]
                             for a, b in self._covers()),
            "comp": {self.name[k]: self.name[self._comp_key(k)]
                     for k in self.keys},
            "bot": self.bot,
            "top": self.top,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1)

    def blocks(self):
        """Maximal Boolean subalgebras as sets of element names."""
        return [{self.bot, self.top}
                | {self.name[k] for k in self.keys
                   if k not in ("bot", "top") and k[0] == i}
                for i in range(len(self.parts))]

    def repr_text(self):
        """The text omlprob prints for this lattice in sweep reports."""
        return "Oml(%d elements, bot=%r, top=%r)" % (len(self), self.bot,
                                                     self.top)

    # -- states ----------------------------------------------------------

    def state(self, weights):
        """The state with the given atom weights (one list per block)."""
        out = {self.bot: Fraction(0), self.top: Fraction(1)}
        for key in self.keys:
            if key not in ("bot", "top"):
                i, s = key
                out[self.name[key]] = sum((weights[i][a] for a in s),
                                          Fraction(0))
        return out

    def random_state(self, rng):
        weights = []
        for k in self.parts:
            raw = [rng.randint(1, 9) for _ in range(k)]
            total = sum(raw)
            weights.append([Fraction(w, total) for w in raw])
        return self.state(weights)

    def state_vertices(self):
        """Extreme states: one atom of every block carries the mass.

        The state space is the product of one simplex per block, so
        there are prod(ki) vertices and the dimension is sum(ki - 1).
        """
        out = []
        for choice in itertools.product(*(range(k) for k in self.parts)):
            weights = [[Fraction(int(a == c)) for a in range(k)]
                       for k, c in zip(self.parts, choice)]
            out.append(self.state(weights))
        return out

    def state_dim(self):
        return sum(k - 1 for k in self.parts)

    # -- lattice operations on names (for closed-form maps) --------------

    def meet(self, x, y):
        return self._op(x, y, frozenset.__and__, "bot", "top")

    def join(self, x, y):
        return self._op(x, y, frozenset.__or__, "top", "bot")

    def ocomp(self, x):
        return self.name[self._comp_key(self._by_name[x])]

    def _op(self, x, y, setop, absorbing, neutral):
        kx, ky = self._by_name[x], self._by_name[y]
        if absorbing in (kx, ky):
            return self.name[absorbing]
        if kx == neutral:
            return y
        if ky == neutral:
            return x
        if kx[0] != ky[0]:  # different blocks meet in bot, join in top
            return self.name[absorbing]
        s = setop(kx[1], ky[1])
        if not s:
            return self.bot
        if len(s) == self.parts[kx[0]]:
            return self.top
        return self.name[(kx[0], s)]


def hexagon_dict():
    """The benzene ring O6: an ortholattice that is not orthomodular."""
    return {
        "elements": ["0", "x", "y", "y'", "x'", "1"],
        "covers": [["0", "x"], ["x", "y"], ["y", "1"],
                   ["0", "y'"], ["y'", "x'"], ["x'", "1"]],
        "comp": {"0": "1", "1": "0", "x": "x'", "x'": "x",
                 "y": "y'", "y'": "y"},
        "bot": "0", "top": "1",
    }


def _canonical_name(key, parts):
    """omlprob's names for MO(n): 0, 1, a, a', b, b', ...; other blocks
    name an element by its atom letters and the block number."""
    if key == "bot":
        return "0"
    if key == "top":
        return "1"
    i, s = key
    if parts[i] == 2:
        return string.ascii_lowercase[i] + ("" if s == {0} else "'")
    return "%s%d" % ("".join(string.ascii_lowercase[a] for a in sorted(s)), i)


def _random_names(rng, n):
    names = set()
    while len(names) < n:
        names.add(rng.choice(string.ascii_lowercase)
                  + "%d" % rng.randrange(100000))
    names = sorted(names)
    rng.shuffle(names)
    return names
