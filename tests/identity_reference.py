"""The Fraction loops that bimaps ran for the compatible-pair lemma, the
four Gamma9 identities and purity before they became axiom rows, kept
as the reference for the rows.

G is a BiMap, called as G(a, b), and every sum is a Fraction sum.  The
two identity checks return (ok, (label, elements, lhs, rhs) or None):
the first check whose two sides differ, with the sides as the loop
states them.
"""

from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


def _identity_report(checks):
    """Run (label, elements, lhs, rhs) checks; report the first mismatch."""
    for label, elems, lhs, rhs in checks:
        if lhs != rhs:
            return False, (label, elems, lhs, rhs)
    return True, None


def verify_lemma_komp(G):
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

    return _identity_report(checks())


def verify_gamma9_identities(G):
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

    return _identity_report(checks())


def is_pure_projection(G):
    """(True, None) or (False, first (a, b) with G(a, b) != G(a, 0))."""
    l = G.lattice
    for a, b in l.pairs():
        if G(a, b) != G(a, l.bot):
            return False, (a, b)
    return True, None
