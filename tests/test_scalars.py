"""Exact scalar arithmetic: hand-derived values and field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitspace.errors import ParseError
from orbitspace.scalars import GaussianRational, parse_pairs, parse_rational, sum_by_denominator

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)
nonzero_scalars = scalars.filter(lambda z: not z.is_zero())


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_multiply_identity_case():
    z = gr(Fraction(7, 3), Fraction(-2, 5))
    assert gr(1) * z == z


def test_multiply_i_squared():
    i = gr(0, 1)
    assert i * i == gr(-1)


def test_multiply_conjugate_pair():
    # (a+bi)(a-bi) = a^2 + b^2 by hand: 1/4 + 1/4 = 1/2
    z = gr(Fraction(1, 2), Fraction(1, 2))
    assert z * z.conjugate() == gr(Fraction(1, 2))


def test_conjugate_examples():
    assert gr(3).conjugate() == gr(3)
    assert gr(0, 1).conjugate() == gr(0, -1)


def test_norm_sq_examples():
    assert gr(0).norm_sq() == 0
    # 9/25 + 16/25 = 1
    assert gr(Fraction(3, 5), Fraction(4, 5)).norm_sq() == 1


@given(scalars)
def test_conjugate_is_involution(z):
    assert z.conjugate().conjugate() == z


@given(scalars, scalars)
def test_conjugate_is_ring_involution(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars, scalars)
def test_norm_sq_multiplicative(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(scalars)
def test_norm_sq_nonnegative(z):
    n = z.norm_sq()
    assert n >= 0
    assert (n == 0) == z.is_zero()
    assert n == (z * z.conjugate()).re


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_scalars)
def test_multiplicative_inverse(z):
    assert z * z.inverse() == gr(1)
    assert z / z == gr(1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gr(0).inverse()


def test_division():
    assert gr(1) / gr(0, 1) == gr(0, -1)


def test_parse_rational_shorthand():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational(-3) == Fraction(-3)  # JSON ints are taken as they are


@pytest.mark.parametrize(
    "bad",
    ["1.5", "3/0", "a", "", "1e3", ["1", "2"], True, False, "3\n", "\u0663", " 3", "1_0", "3/-4"],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_rational(bad)
    assert exc.value.witness["value"] == bad


def test_parse_rational_refuses_more_digits_than_int_converts():
    with pytest.raises(ParseError):
        parse_rational("1" * 5000)


def test_parse_pairs_reduces_and_takes_json_ints():
    pairs = [["2/4", "0"], [-3, "+6"], ["0/7", "-10/4"]]
    assert parse_pairs(pairs) == ((1, -3, 0), (2, 1, 1), (0, 6, -5), (1, 1, 2))
    assert parse_pairs([]) == ((), (), (), ())


@pytest.mark.parametrize(
    "pairs",
    [
        [[True, "0"]],
        [["3\n", "0"]],
        [["\u0663", "0"]],
        [["1,2", "0"]],
        [["1/2,3/4", "0"]],
        [["1/0", "0"]],
        [["1/2/3", "0"]],
        [["1", "0", "0"]],
        [("1", "0")],
        [[1.5, "0"]],
        [["1" * 5000, "0"]],
    ],
)
def test_parse_pairs_leaves_values_off_the_wire_format_to_the_value_parser(pairs):
    assert parse_pairs(pairs) is None


@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)), max_size=30))
def test_sum_by_denominator_is_the_fraction_sum(terms):
    nums, dens = [n for n, _ in terms], [d for _, d in terms]
    total = sum((Fraction(n, d) for n, d in terms), Fraction(0))
    assert sum_by_denominator(nums, dens) == (total.numerator, total.denominator)


def test_pair_round_trip():
    z = gr(Fraction(1, 2), Fraction(-3, 4))
    assert z.to_pair() == ["1/2", "-3/4"]
    assert GaussianRational.from_pair(["1/2", "-3/4"]) == z
    assert GaussianRational.from_pair(["3", "0"]) == gr(3)


def test_from_pair_rejects_non_pairs():
    with pytest.raises(ParseError):
        GaussianRational.from_pair("3")
    with pytest.raises(ParseError):
        GaussianRational.from_pair(["3"])


@given(scalars)
def test_pair_round_trip_random(z):
    assert GaussianRational.from_pair(z.to_pair()) == z
