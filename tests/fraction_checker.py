"""The Fraction loop that linear.first_violation ran before it checked
rows on integers, kept as the reference for the integer one.

value is a callable from a key to its Fraction, and every sum is a
Fraction sum.  A row with const None has no plus or minus terms.
"""

from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


def first_violation(rows, value):
    """The first row that value breaks, as (axiom, elements, lhs, rhs),
    or None when it keeps them all."""
    for axiom, elems, key, plus, minus, const, le in rows:
        lhs = value(key)
        if const is None:
            lhs, rhs = lhs * (lhs - ONE), ZERO
        elif plus:  # start from the first term: no "0 +" on most rows
            rhs = value(plus[0])
            for p in plus[1:]:
                rhs += value(p)
            if const:
                rhs += const
        else:
            rhs = const
        for p in minus:
            rhs -= value(p)
        if (lhs > rhs) if le else (lhs != rhs):
            return axiom, elems, lhs, rhs
    return None
