"""Parsing and printing of exact rationals as "p/q" strings."""

from fractions import Fraction


def parse_rat(text) -> Fraction:
    """Parse "p/q" (or a plain integer string) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError("rational must be a 'p/q' string, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError("bad rational %r" % text) from e


def fmt_rat(value: Fraction) -> str:
    """Canonical text form: "p/q" in lowest terms, "p" for integers."""
    return str(Fraction(value))
