"""Parsing and printing of exact rationals as "p/q" strings."""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rat(text) -> Fraction:
    """Parse "p/q" (or a plain integer string) into a Fraction.  No
    other form is read: "1e-5000" would be a 5001-digit denominator."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError("rational must be a 'p/q' string, got %r" % (text,))
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError("bad rational %r" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError("bad rational %r" % text) from e


def fmt_rat(value: Fraction) -> str:
    """Canonical text form: "p/q" in lowest terms, "p" for integers."""
    return str(Fraction(value))
