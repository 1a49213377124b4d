"""The Counter and Fraction version of linear._int_row that built rows
and objectives before they were summed on ints, kept as the reference
for the int one.

Every coefficient and the rhs become Fractions; a name that recurs has
its coefficients summed in a Counter.
"""

import collections
import math
from fractions import Fraction


def int_row(index, terms, rhs=0):
    """(scale, terms, rhs) of the (name, coeff) terms and rhs, scaled by
    the least positive integer that makes them whole."""
    row = collections.Counter()
    for name, c in terms:
        row[index[name]] += Fraction(c)
    rhs = Fraction(rhs)
    scale = math.lcm(rhs.denominator, *(c.denominator for c in row.values()))
    return (scale,
            tuple(sorted((j, c.numerator * (scale // c.denominator))
                         for j, c in row.items() if c)),
            rhs.numerator * (scale // rhs.denominator))
