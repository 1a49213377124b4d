from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob.rational import fmt_rat, parse_rat


def test_parse_fraction_string():
    assert parse_rat("1/3") == Fraction(1, 3)
    assert parse_rat("-2/6") == Fraction(-1, 3)
    assert parse_rat("7") == Fraction(7)
    assert parse_rat("0") == 0


def test_parse_accepts_numbers():
    assert parse_rat(3) == Fraction(3)
    assert parse_rat(Fraction(2, 5)) == Fraction(2, 5)


def test_parse_rejects_garbage():
    # only "p/q" and integer strings: no decimal, exponent, underscore
    # or spaced forms, which Fraction itself would accept
    for bad in ("", "1/0", "a/b", "1.5.2", None, "0.5", "1e3", "1e-5000",
                "1/2e1", "1_000", "1 / 2", "inf", "nan"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_fmt_canonical():
    assert fmt_rat(Fraction(1, 3)) == "1/3"
    assert fmt_rat(Fraction(4, 2)) == "2"
    assert fmt_rat(Fraction(0)) == "0"
    assert fmt_rat(Fraction(-1, 2)) == "-1/2"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rat(fmt_rat(q)) == q
