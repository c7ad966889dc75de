"""The integer-column function layer against the per-value oracles in helpers."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bessel_oracle,
    coset_unions,
    decompose_oracle,
    disjoint_union,
    fourier_coefficients_oracle,
    fourier_projection_oracle,
    induce_group_sum,
    inner_product_oracle,
    norm_squared_oracle,
    orbit_cells_oracle,
    permutation_groups,
    perp_zero_sum_oracle,
    reciprocity_oracle,
    relabel,
)
from orbitspace.actions import GroupAction
from orbitspace.errors import NotInvariant, ParseError
from orbitspace.groups import from_generators
from orbitspace.jsonio import function_from_json, subset_function_from_json
from orbitspace.resind import induce, invariant_subset, reciprocity_check
from orbitspace.scalars import GaussianRational, parse_pairs
from orbitspace.spaces import (
    PointFunction,
    act_on_function,
    bessel_check,
    decompose,
    fourier_coefficients,
    fourier_projection,
    inner_product,
    norm_squared,
    perp_zero_sum_check,
)

# coprime denominators far apart, so a sum's common denominator grows with each
LARGE_PRIMES = (998_244_353, 1_000_000_007, 2**31 - 1, 2**61 - 1, 2**89 - 1)

wire_rationals = st.one_of(
    st.integers(-40, 40),  # JSON ints
    # zero, negatives and unreduced text such as "2/4"
    st.builds(
        lambda num, den, k: f"{num * k}/{den * k}",
        st.integers(-40, 40),
        st.integers(1, 12),
        st.integers(1, 3),
    ),
    st.builds(
        lambda num, p: f"{num}/{p}", st.integers(-(10**12), 10**12), st.sampled_from(LARGE_PRIMES)
    ),
)
wire_pairs = st.lists(wire_rationals, min_size=2, max_size=2)


@st.composite
def actions(draw):
    group = draw(permutation_groups())
    action = disjoint_union(draw(coset_unions(group)))
    return relabel(action, draw(st.permutations(range(action.degree))))


def read(pairs):
    """The function the column reader builds, and the values the per-value
    parser reads from the same wire pairs."""
    return function_from_json({"values": pairs}), [GaussianRational.from_pair(p) for p in pairs]


def constant_on_cells(data, cells, points):
    """Wire pairs for ``points``, one random pair per cell."""
    pair_at = {}
    for cell in cells:
        pair = data.draw(wire_pairs)
        pair_at.update(dict.fromkeys(cell, pair))
    return [pair_at[x] for x in points]


@settings(max_examples=80, deadline=None)
@given(actions(), st.data())
def test_function_layer_matches_the_per_value_oracles(action, data):
    n = action.degree
    cells = orbit_cells_oracle(action)
    f, f_values = read(data.draw(st.lists(wire_pairs, min_size=n, max_size=n)))
    g, g_values = read(data.draw(st.lists(wire_pairs, min_size=n, max_size=n)))
    assert f.values == tuple(f_values)
    assert f == PointFunction(f_values)  # the columns are in lowest terms
    assert inner_product(f, g) == inner_product_oracle(f_values, g_values)
    assert norm_squared(f) == norm_squared_oracle(f_values)
    assert fourier_projection(action, f).values == tuple(fourier_projection_oracle(cells, f_values))
    coefficients = [(c.cell, c.raw_sum, c.coef_norm_sq) for c in fourier_coefficients(action, f)]
    assert coefficients == fourier_coefficients_oracle(cells, f_values)
    assert bessel_check(action, f) == bessel_oracle(cells, f_values)
    parts = decompose(action, f)
    got = (parts.invariant_part, parts.perp_part, parts.mean_part, parts.zero_sum_part)
    assert [part.values for part in got] == [tuple(v) for v in decompose_oracle(cells, f_values)]


@settings(max_examples=80, deadline=None)
@given(actions(), st.data())
def test_induction_and_reciprocity_match_the_per_value_oracles(action, data):
    cells = orbit_cells_oracle(action)
    chosen = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    subset = invariant_subset(action, [x for cell in chosen for x in cell])
    invariant = data.draw(st.booleans())
    if invariant:
        f_pairs = constant_on_cells(data, chosen, subset.points)
        g_pairs = constant_on_cells(data, cells, range(action.degree))
    else:
        f_pairs = data.draw(st.lists(wire_pairs, min_size=subset.size, max_size=subset.size))
        g_pairs = data.draw(st.lists(wire_pairs, min_size=action.degree, max_size=action.degree))
    f = subset_function_from_json({"values": f_pairs}, subset)
    g, g_values = read(g_pairs)
    assert induce(subset, f) == induce_group_sum(subset, f)
    lhs, rhs = reciprocity_oracle(subset, f, g_values)
    try:
        result = reciprocity_check(subset, f, g)
    except NotInvariant as exc:  # random values: both sides are still reported
        assert not invariant
        assert (exc.witness["lhs"], exc.witness["rhs"]) == (lhs.to_pair(), rhs.to_pair())
    else:
        assert result == (lhs, rhs)


@settings(max_examples=80, deadline=None)
@given(actions(), st.data())
def test_orbit_cost_checks_match_the_per_point_and_group_inverse_forms(action, data):
    assert perp_zero_sum_check(action) == perp_zero_sum_oracle(action)
    group = action.group
    a = data.draw(st.integers(0, group.order - 1))
    n = action.degree
    f = PointFunction(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    assert act_on_function(action, a, f) == f._gather(action.act[group.inv(a)])


def first_primes(count):
    sieve = bytearray([1]) * 40000  # the 4096th prime is 38873
    primes = []
    for p in range(2, len(sieve)):
        if sieve[p]:
            primes.append(p)
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return primes[:count]


def best_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_inner_product_over_4096_prime_denominators_is_no_slower_than_the_oracle():
    """Every value has its own prime denominator, so the common denominator
    of the sum has tens of thousands of bits."""
    primes = first_primes(4096)
    f_values = [
        GaussianRational(Fraction(k % 199 - 99, p), Fraction(k % 97 - 48, p))
        for k, p in enumerate(primes)
    ]
    g_values = f_values[::-1]
    f, g = PointFunction(f_values), PointFunction(g_values)
    for other, other_values in ((g, g_values), (f, f_values)):
        assert inner_product(f, other) == inner_product_oracle(f_values, other_values)
        new = best_time(lambda: inner_product(f, other))
        old = best_time(lambda: inner_product_oracle(f_values, other_values))
        assert new <= old


# ---------------------------------------------------------------------------
# documents around the slice size of 1024 values that parse_pairs reads at once

SLICE_SIZES = (1023, 1024, 1025, 2049)


def seeded_pairs(n, seed=0):
    """n wire pairs like a user's file: reduced or not, JSON ints among them."""
    rng = random.Random(seed)

    def rational():
        num, den = rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 6, 7, 9, 10, 12))
        kind = rng.randrange(3)
        return num if kind == 0 else f"{num}" if kind == 1 else f"{num * 2}/{den * 2}"

    return [[rational(), rational()] for _ in range(n)]


def read_subset_function(pairs):
    """The pairs read as a function on points 1..n of the trivial action on n + 1 points."""
    n = len(pairs)
    group, rows = from_generators(n + 1, [])
    subset = invariant_subset(GroupAction(group, rows), range(1, n + 1))
    return subset_function_from_json({"values": pairs}, subset).as_point_function()


READERS = {
    "function": lambda pairs: function_from_json({"values": pairs}),
    "subset_function": read_subset_function,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("n", SLICE_SIZES)
def test_columns_across_slices_match_the_per_value_oracle(n, reader):
    pairs = seeded_pairs(n, seed=n)
    assert parse_pairs(pairs) is not None  # the column reader, not the per-value fallback
    f = READERS[reader](pairs)
    oracle = PointFunction([GaussianRational.from_pair(p) for p in pairs])
    assert f.degree == n
    assert f._cols == oracle._cols
    assert f.values == oracle.values


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("n", SLICE_SIZES)
@pytest.mark.parametrize(
    "bad", [True, "1/0", 1.5, "1" * 5000 + "/3"], ids=["bool", "zero-den", "float", "5000-digits"]
)
def test_a_bad_value_in_the_last_slice_is_named(bad, n, reader):
    pairs = seeded_pairs(n, seed=n)
    pairs[-1] = ["1/2", bad]
    with pytest.raises(ParseError) as exc:
        READERS[reader](pairs)
    assert exc.value.witness == {"where": f"function.values[{n - 1}]", "value": bad}


def test_reading_4096_pairs_holds_one_slice_of_transients():
    pairs = seeded_pairs(4096)
    doc = {"values": pairs}
    function_from_json(doc)  # imports and first-use caches outside the trace
    tracemalloc.start()
    try:
        f = function_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.degree == 4096
    assert peak < 1.25 * 2**20, peak
