"""The row checks of the compatible-pair lemma, the Gamma9 identities and
purity against the Fraction loops they replaced (identity_reference).

Same verdict, failing label and elements on every map.  The rows of
id1, id2 and the lemma have the loops' two sides; id3 and id4 are
checked as G(a, b) = 2 G(a, 0) - G(a, b') and G(a, b_1) = n G(a, 0) -
sum_{i>=2} G(a, b_i), whose sides L', R' meet the loops' L, R in
L' - R' = R - L.
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from omlprob import lattice
from omlprob.bimaps import (
    BiMap,
    build_table3_family,
    is_pure_projection,
    verify_gamma9_identities,
    verify_lemma_komp,
)
from omlprob.states import state_vertices
from pastings import TWO, pasting_candidate
import identity_reference as reference

F = Fraction

LATTICES = {
    "MO(2)": lambda: lattice.mo(2),
    "2^3": lambda: lattice.boolean_algebra(3),
    "2^3+2^2": lambda: lattice.horizontal_sum(
        [lattice.boolean_algebra(3), lattice.boolean_algebra(2)]),
    "pasting": lambda: lattice.validate_oml(pasting_candidate(TWO)),
}


@functools.cache
def _lattice_and_vertices(name):
    l = LATTICES[name]()
    return l, state_vertices(l)


rat01 = st.sampled_from(sorted({F(n, q) for q in (1, 2, 3, 4, 6, 12)
                               for n in range(q + 1)}))


@st.composite
def identity_maps(draw):
    """A pure projection m(a), an m(b) map or (on MO(2)) a Table 3 map,
    for m a random convex combination of extreme states; then maybe one
    or two entries set to a value in [0, 1], or G(a, b) and G(a, b')
    changed by opposite amounts, which id3 does not see."""
    name = draw(st.sampled_from(sorted(LATTICES)))
    l, vertices = _lattice_and_vertices(name)
    kinds = ["pure", "m(b)"] + (["table3"] if name == "MO(2)" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "table3":
        G = build_table3_family(*(draw(rat01) for _ in range(4)), l=l)
    else:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(vertices),
                                max_size=len(vertices)))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        m = {x: sum(w * v(x) for w, v in zip(weights, vertices)) / total
             for x in l.elements}
        pick = (lambda a, b: m[a]) if kind == "pure" else (lambda a, b: m[b])
        G = BiMap.from_function(l, pick)
    mutation = draw(st.sampled_from(("none", "entries", "opposite")))
    if mutation == "entries":
        for _ in range(draw(st.integers(1, 2))):
            G = G.replace(*draw(st.sampled_from(list(l.pairs()))),
                          draw(rat01))
    elif mutation == "opposite":  # keeps G(a, b) + G(a, b')
        inner = [x for x in l.elements if x not in (l.bot, l.top)]
        a, b = draw(st.sampled_from(inner)), draw(st.sampled_from(inner))
        x, bc = draw(rat01), l.ocomp(b)
        y = G(a, b) + G(a, bc) - x
        if 0 <= y <= 1:
            G = G.replace(a, b, x).replace(a, bc, y)
    return G


def _same_failure(report, expected):
    ok, hit = expected
    assert report.ok == ok
    if ok:
        assert report.first_violation is None
        return
    got = report.first_violation
    label, elems, lhs, rhs = hit
    assert (got.axiom, got.elements) == (label, elems)
    if label in ("id3", "id4"):
        assert got.lhs - got.rhs == rhs - lhs
    else:
        assert (got.lhs, got.rhs) == (lhs, rhs)


@settings(max_examples=300, deadline=None)
@given(identity_maps())
def test_identity_rows_match_fraction_loops(G):
    _same_failure(verify_lemma_komp(G), reference.verify_lemma_komp(G))
    _same_failure(verify_gamma9_identities(G),
                  reference.verify_gamma9_identities(G))
    assert is_pure_projection(G) == reference.is_pure_projection(G)
