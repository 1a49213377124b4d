"""Parsing and printing of exact rationals as "p/q" strings."""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rat(text) -> Fraction:
    """Parse "p/q" (or a plain integer string) into a Fraction.  No
    other form is read: "1e-5000" would be a 5001-digit denominator."""
    if not isinstance(text, str):
        if isinstance(text, Fraction):
            return text
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
        raise ValueError("rational must be a 'p/q' string, got %r" % (text,))
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError("bad rational %r" % text)
    p, q = match.groups()
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        return Fraction(int(p), int(q or 1))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError("bad rational %r" % text) from e


def as_fraction(value) -> Fraction:
    """value as a Fraction: a Fraction as it is, anything else through
    Fraction(value).  The test is on the exact type, as isinstance
    against Fraction's numbers ABC costs more than the copy it saves."""
    return value if type(value) is Fraction else Fraction(value)


def fmt_rat(value: Fraction) -> str:
    """Canonical text form: "p/q" in lowest terms, "p" for integers.
    A Fraction is always in lowest terms, so it is printed as it is."""
    return str(as_fraction(value))
