import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omlprob.bimaps import BiMapError, bimap_from_json
from omlprob.rational import fmt_rat, parse_rat
from omlprob.states import (NotNormalized, OutOfRange, state_from_json,
                            validate_state)


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


# -- the loader's edges --------------------------------------------------

# every character str.isspace() accepts, which is what Fraction's \s
# reads around a number
SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


@st.composite
def rational_texts(draw):
    """[+-]digits[/digits] with leading zeros and surrounding white
    space; a zero denominator is drawn too."""
    space = st.text(SPACES, max_size=3)
    digits = st.text("0123456789", min_size=1, max_size=25)
    text = draw(st.sampled_from(("", "+", "-"))) + draw(digits)
    if draw(st.booleans()):
        text += "/" + draw(digits)
    return draw(space) + text + draw(space)


@given(rational_texts())
def test_parse_equals_fraction_of_the_text(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match=re.escape("bad rational %r"
                                                       % text)):
            parse_rat(text)
    else:
        assert parse_rat(text) == expected


@pytest.mark.parametrize("bad", [
    "1/0", "-3/000", "1.5", "1e3", "", "  ", "1/", "/2", "+-1",
    "1" * 5000, "1/" + "1" * 5000, "0" * 4000 + "1" * 1000,
])
def test_parse_refuses_with_the_bad_rational_message(bad):
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "bad rational %r" % bad)):
        parse_rat(bad)


@pytest.mark.parametrize("bad", [True, False, None, 0.5, [1], {"p": 1}])
def test_parse_refuses_non_strings(bad):
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "rational must be a 'p/q' string, got %r" % (bad,))):
        parse_rat(bad)


@pytest.mark.parametrize("text,ok", [
    ("0", True), ("1", True), ("0/7", True), ("7/7", True),
    ("-1/3", False), ("4/3", False),
])
def test_loaded_maps_and_states_keep_the_unit_interval(b1, text, ok):
    # a map on 2^1 with one value at text, and a state with m(0) = text
    values = {"0|0": "0", "0|1": text, "1|0": "0", "1|1": "1"}
    doc = json.dumps({"lattice": "b1.json", "values": values})
    if ok:
        assert bimap_from_json(doc, b1)("0", "1") == Fraction(text)
    else:
        with pytest.raises(BiMapError, match="outside"):
            bimap_from_json(doc, b1)
    state = state_from_json(b1, json.dumps({"0": text, "1": "1"}))
    if ok and Fraction(text) == 0:
        validate_state(b1, state)
    elif ok:  # in range, but m(0) = 1 breaks normalisation
        with pytest.raises(NotNormalized):
            validate_state(b1, state)
    else:
        with pytest.raises(OutOfRange):
            validate_state(b1, state)
