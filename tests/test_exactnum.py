from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prelie.exactnum import Rational, bernoulli, format_rational, parse_rational

# classical table, B1 = -1/2 convention
KNOWN = [
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
    Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
    Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
    Fraction(-691, 2730),
]


def test_bernoulli_table():
    assert [bernoulli(n) for n in range(len(KNOWN))] == KNOWN


def test_bernoulli_memo_is_consistent_after_out_of_order_calls():
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_rational_is_exact():
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)


@given(st.fractions())
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("q, text", [
    (0, "0"), (-12, "-12"), (10 ** 30, "1" + "0" * 30),
    (Fraction(6, -4), "-3/2"), (Fraction(8, 4), "2"), (Fraction(0), "0"),
    (True, "1"), (False, "0"), (0.5, "1/2"), (-2.0, "-2"), (0.1,
     "3602879701896397/36028797018963968"),
])
def test_format_rational_of_each_number_type(q, text):
    assert format_rational(q) == text


def test_parse_accepts_integers_and_whitespace():
    assert parse_rational(" 7 ") == 7
    assert parse_rational("-3/9") == Fraction(-1, 3)


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5.2", "2/", "1e-300000",
                                 "2E3", "1.5", ".5", "-0.25", "1/2.0", "1_000"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
