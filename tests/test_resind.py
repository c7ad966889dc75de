"""Restriction, zero-extension, induction, and the adjointness identity."""

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    induce_group_sum,
    rand_function,
    rand_invariant_values,
    rand_scalar,
    restricted_action_oracle,
)
from orbitspace import conjugation_action, cyclic_group, resind, translation_action
from orbitspace.actions import GroupAction, Partition
from orbitspace.corpus import build
from orbitspace.errors import DegreeMismatch, EmptySubset, InvariantViolated, NotInvariant
from orbitspace.groups import from_generators
from orbitspace.resind import (
    SubsetFunction,
    extend_by_zero,
    induce,
    invariant_subset,
    reciprocity_check,
    restrict,
    subset_inner_product,
)
from orbitspace.scalars import GaussianRational
from orbitspace.spaces import PointFunction, inner_product, is_invariant


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def z2_on_four():
    """Swap 0 and 1, fix 2 and 3."""
    return GroupAction(cyclic_group(2), [[0, 1, 2, 3], [1, 0, 2, 3]])


def s3_conjugation():
    group, _ = from_generators(3, [(1, 0, 2), (1, 2, 0)])
    return conjugation_action(group)


def s4_on_words(length=3):
    """S4 permuting the letters of the words of a given length over 4 letters."""
    group, perms = from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    words = list(product(range(4), repeat=length))
    index = {w: i for i, w in enumerate(words)}
    table = [[index[tuple(p[c] for c in w)] for w in words] for p in perms]
    return GroupAction(group, table)


def differential_actions():
    return (
        z2_on_four(),
        s3_conjugation(),
        translation_action(cyclic_group(5)),
        build("gl_on_vectors", n=2, q=3).action,
        s4_on_words(),
    )


def rand_union_of_orbits(rng, act):
    cells = act.orbits().cells
    chosen = rng.sample(cells, rng.randint(1, len(cells)))
    return invariant_subset(act, [x for c in chosen for x in c])


def test_invariant_subset_whole_set():
    act = z2_on_four()
    assert invariant_subset(act, range(4)).points == (0, 1, 2, 3)


def test_invariant_subset_single_orbit():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    assert y.points == (0, 1)
    restricted = restricted_action_oracle(y)
    assert restricted.degree == 2
    assert restricted.act[1] == (1, 0)


def test_invariant_subset_rejects_escaping_points():
    act = z2_on_four()
    with pytest.raises(NotInvariant) as exc:
        invariant_subset(act, [0, 2])
    w = exc.value.witness
    assert (w["element"], w["point"], w["image"]) == (1, 0, 1)


def test_invariant_subset_rejects_empty():
    with pytest.raises(EmptySubset):
        invariant_subset(z2_on_four(), [])


def test_restrict_ones():
    act = z2_on_four()
    y = invariant_subset(act, [2, 3])
    assert restrict(PointFunction.ones(4), y).values == (gr(1), gr(1))


def test_restrict_checks_degree():
    act = z2_on_four()
    y = invariant_subset(act, [2, 3])
    with pytest.raises(DegreeMismatch):
        restrict(PointFunction.ones(3), y)


def test_restrict_class_function():
    act = s3_conjugation()
    group = act.group
    cells = act.orbits().cells
    values = [None] * act.degree
    named = [gr(2), gr(3, 1), gr(-5)]
    for cell, v in zip(cells, named):
        for x in cell:
            values[x] = v
    f = PointFunction(values)
    transposition_cell = next(
        c for c in cells if group.element_order(c[0]) == 2
    )
    y = invariant_subset(act, transposition_cell)
    restricted = restrict(f, y)
    assert all(v == gr(3, 1) for v in restricted.values)
    assert is_invariant(restricted_action_oracle(y), restricted.as_point_function())


def test_extend_by_zero_examples():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    zero = SubsetFunction(y, [0, 0])
    assert extend_by_zero(zero).is_zero()

    c = gr(Fraction(2, 3))
    g = SubsetFunction(y, [c, c])
    extended = extend_by_zero(g)
    assert extended == PointFunction([c, c, 0, 0])
    assert is_invariant(act, extended) is not None

    whole = invariant_subset(act, range(4))
    h = SubsetFunction(whole, [1, 2, 3, 4])
    assert extend_by_zero(h) == PointFunction([1, 2, 3, 4])


def test_section_identities():
    rng = random.Random(31)
    act = s3_conjugation()
    for cells in ([0], [1, 3, 4], [0, 2, 5]):
        y = invariant_subset(act, cells)
        for _ in range(5):
            g = SubsetFunction(y, [rand_scalar(rng) for _ in y.points])
            assert restrict(extend_by_zero(g), y) == g
            f = rand_function(rng, act.degree)
            masked = extend_by_zero(restrict(f, y))
            for x in range(act.degree):
                expected = f.values[x] if x in y else gr(0)
                assert masked.values[x] == expected


def test_restriction_surjectivity_construction():
    rng = random.Random(33)
    for act in (z2_on_four(), s3_conjugation()):
        part = act.orbits()
        y = invariant_subset(act, part.cells[-1])
        for _ in range(5):
            g = restrict(rand_invariant_values(rng, act), y)
            lifted = extend_by_zero(g)
            assert is_invariant(act, lifted) is not None
            assert restrict(lifted, y) == g


def test_induce_z2_fixture():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    c = gr(7)
    result = induce(y, SubsetFunction(y, [c, c]))
    assert result == PointFunction([gr(14), gr(14), gr(0), gr(0)])


def test_induce_zero():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    assert induce(y, SubsetFunction(y, [0, 0])).is_zero()


def test_induce_on_whole_set_is_identity_for_invariants():
    rng = random.Random(35)
    for act in (z2_on_four(), s3_conjugation(), translation_action(cyclic_group(5))):
        whole = invariant_subset(act, range(act.degree))
        for _ in range(5):
            f = rand_invariant_values(rng, act)
            g = restrict(f, whole)
            assert induce(whole, g) == f


def test_induce_always_lands_invariant():
    rng = random.Random(37)
    for act in (z2_on_four(), s3_conjugation()):
        for cell_count in range(1, len(act.orbits().cells) + 1):
            cells = act.orbits().cells[:cell_count]
            y = invariant_subset(act, [x for c in cells for x in c])
            for _ in range(5):
                g = SubsetFunction(y, [rand_scalar(rng) for _ in y.points])
                out = induce(y, g)
                assert is_invariant(act, out) is not None


def test_induce_names_two_points_of_an_orbit_where_it_is_not_constant(monkeypatch):
    """Orbit sums over cells that are not orbits break the invariance check."""
    act = s3_conjugation()
    y = invariant_subset(act, range(act.degree))
    g = SubsetFunction(y, [gr(x) for x in y.points])

    def point_sums(action, f):
        return Partition(action.degree, [[x] for x in range(action.degree)]), f

    monkeypatch.setattr(resind, "_cell_sums", point_sums)
    with pytest.raises(InvariantViolated) as exc:
        induce(y, g)
    x, z = exc.value.witness["points"]
    assert act.orbits().cell_of[x] == act.orbits().cell_of[z] and x != z
    assert exc.value.witness["lhs"] == gr(x).to_pair() != exc.value.witness["rhs"]


def test_induce_is_linear():
    rng = random.Random(39)
    act = s3_conjugation()
    y = invariant_subset(act, act.orbits().cells[1])
    for _ in range(5):
        f = SubsetFunction(y, [rand_scalar(rng) for _ in y.points])
        g = SubsetFunction(y, [rand_scalar(rng) for _ in y.points])
        alpha = rand_scalar(rng)
        combo = SubsetFunction(y, [alpha * a + b for a, b in zip(f.values, g.values)])
        assert induce(y, combo) == induce(y, f).scale(alpha) + induce(y, g)


def test_induce_agrees_with_the_group_sum():
    """The orbit-sum form against the group sum of the definition, on
    subsets of one or more orbits, for invariant and non-invariant inputs."""
    rng = random.Random(47)
    for act in differential_actions():
        cells = act.orbits().cells
        subsets = [invariant_subset(act, cells[-1]), invariant_subset(act, range(act.degree))]
        subsets += [rand_union_of_orbits(rng, act) for _ in range(4)]
        for y in subsets:
            bumpy = SubsetFunction(y, [rand_scalar(rng) for _ in y.points])
            assert induce(y, bumpy) == induce_group_sum(y, bumpy)
            flat = restrict(rand_invariant_values(rng, act), y)
            assert induce(y, flat) == induce_group_sum(y, flat)


def test_reciprocity_against_the_group_sum_oracle():
    rng = random.Random(49)
    for act in differential_actions():
        for _ in range(4):
            y = rand_union_of_orbits(rng, act)
            f = restrict(rand_invariant_values(rng, act), y)
            g = rand_invariant_values(rng, act)
            lhs, rhs = reciprocity_check(y, f, g)
            assert lhs == rhs == inner_product(induce_group_sum(y, f), g)


def test_reciprocity_hand_fixture():
    # swap action on four points, subset the swapped pair: both sides c * conj(g0)
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    c = gr(Fraction(3, 2), 1)
    g0 = gr(2, -1)
    f = SubsetFunction(y, [c, c])
    g = PointFunction([g0, g0, gr(5), gr(7)])
    lhs, rhs = reciprocity_check(y, f, g)
    assert lhs == rhs == c * g0.conjugate()


def test_reciprocity_zero_cases():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    zero_f = SubsetFunction(y, [0, 0])
    zero_g = PointFunction.zero(4)
    assert reciprocity_check(y, zero_f, zero_g) == (gr(0), gr(0))


def test_reciprocity_on_whole_set_is_plain_inner_product():
    rng = random.Random(41)
    act = s3_conjugation()
    whole = invariant_subset(act, range(act.degree))
    for _ in range(5):
        f_full = rand_invariant_values(rng, act)
        g = rand_invariant_values(rng, act)
        lhs, rhs = reciprocity_check(whole, restrict(f_full, whole), g)
        assert lhs == rhs == inner_product(f_full, g)


def test_reciprocity_random_unions_of_orbits():
    rng = random.Random(43)
    for act in (z2_on_four(), s3_conjugation(), translation_action(cyclic_group(6))):
        cells = act.orbits().cells
        for _ in range(10):
            chosen = [c for c in cells if rng.random() < 0.6]
            if not chosen:
                chosen = [cells[0]]
            y = invariant_subset(act, [x for c in chosen for x in c])
            f = restrict(rand_invariant_values(rng, act), y)
            g = rand_invariant_values(rng, act)
            lhs, rhs = reciprocity_check(y, f, g)
            assert lhs == rhs


def test_reciprocity_on_singleton_subset():
    # a fixed point is a one-point invariant subset; normalization is 1/1
    act = z2_on_four()
    y = invariant_subset(act, [2])
    f = SubsetFunction(y, [gr(3, 2)])
    g = PointFunction([1, 1, gr(0, -1), 4])
    lhs, rhs = reciprocity_check(y, f, g)
    assert lhs == rhs == gr(3, 2) * gr(0, -1).conjugate()


def test_adjoint_pairing_linearity():
    # <Ind f, g> is linear in f and conjugate-linear in g
    rng = random.Random(45)
    act = s3_conjugation()
    y = invariant_subset(act, act.orbits().cells[1])
    for _ in range(5):
        f1 = restrict(rand_invariant_values(rng, act), y)
        f2 = restrict(rand_invariant_values(rng, act), y)
        g = rand_invariant_values(rng, act)
        alpha = rand_scalar(rng)
        combo = SubsetFunction(
            y, [alpha * a + b for a, b in zip(f1.values, f2.values)]
        )
        lhs_combo, _ = reciprocity_check(y, combo, g)
        lhs_1, _ = reciprocity_check(y, f1, g)
        lhs_2, _ = reciprocity_check(y, f2, g)
        assert lhs_combo == alpha * lhs_1 + lhs_2

        scaled_g = g.scale(alpha)
        lhs_scaled, rhs_scaled = reciprocity_check(y, f1, scaled_g)
        assert lhs_scaled == alpha.conjugate() * lhs_1
        assert rhs_scaled == lhs_scaled


def test_reciprocity_rejects_non_invariant_with_diagnostics():
    act = z2_on_four()
    y = invariant_subset(act, [0, 1])
    bumpy = SubsetFunction(y, [1, 0])
    g = PointFunction.ones(4)
    with pytest.raises(NotInvariant) as exc:
        reciprocity_check(y, bumpy, g)
    w = exc.value.witness
    assert w["side"] == "f"
    assert "lhs" in w and "rhs" in w

    flat = SubsetFunction(y, [1, 1])
    with pytest.raises(NotInvariant) as exc:
        reciprocity_check(y, flat, PointFunction([1, 0, 0, 0]))
    assert exc.value.witness["side"] == "g"


def test_subset_inner_product_mismatched_subsets():
    act = z2_on_four()
    y1 = invariant_subset(act, [0, 1])
    y2 = invariant_subset(act, [2])
    with pytest.raises(DegreeMismatch):
        subset_inner_product(SubsetFunction(y1, [1, 1]), SubsetFunction(y2, [1]))


NON_INT_POINTS = [True, 1.5, "1"]


@pytest.mark.parametrize("bad", NON_INT_POINTS, ids=["bool", "float", "numeric-string"])
def test_invariant_subset_refuses_non_int_points(bad):
    act = translation_action(cyclic_group(4))
    with pytest.raises(DegreeMismatch) as exc:
        invariant_subset(act, [0, 1, 2, 3, bad])
    assert exc.value.witness == {"point": bad}


def test_invariant_subset_truncates_nothing():
    act = translation_action(cyclic_group(4))
    with pytest.raises(DegreeMismatch) as exc:
        invariant_subset(act, [0.5, 1, 2, 3.9])
    assert exc.value.witness == {"point": 0.5}
    # a bool equal to a listed point is refused, not merged into it
    with pytest.raises(DegreeMismatch) as exc:
        invariant_subset(act, [1, 0, 2, 3, True])
    assert exc.value.witness["point"] is True


def test_not_invariant_witness_is_an_escaping_triple():
    act = s3_conjugation()
    cells = [set(c) for c in act.orbits().cells]
    refused = 0
    for mask in range(1, 2**act.degree):
        subset = {x for x in range(act.degree) if mask >> x & 1}
        try:
            invariant_subset(act, subset)
        except NotInvariant as exc:
            w = exc.witness
            assert w["point"] in subset and w["image"] not in subset
            assert act.act[w["element"]][w["point"]] == w["image"]
            refused += 1
        else:
            assert all(c <= subset for c in cells if c & subset)
    # the nonempty unions of the three classes are the only invariant subsets
    assert refused == 2**act.degree - 2**len(cells)
