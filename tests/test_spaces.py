"""Function-space operations: projections, Bessel, the sum functional."""

import random
from fractions import Fraction

import pytest

from helpers import (
    orbit_count_oracle,
    rand_function,
    rand_invariant_values,
    rand_scalar,
    rand_subgroup,
    scalar_rank,
)
from orbitspace import conjugation_action, cyclic_group, translation_action, trivial_action
from orbitspace.actions import GroupAction
from orbitspace.errors import ActionIsTrivial, DegreeMismatch, EmptyDomain
from orbitspace.groups import from_generators
from orbitspace.scalars import GaussianRational
from orbitspace.spaces import (
    Decomposition,
    FourierCoefficient,
    InvariantCertificate,
    PointFunction,
    act_on_function,
    bessel_check,
    decompose,
    fourier_coefficients,
    fourier_projection,
    indicator_basis,
    inner_product,
    is_invariant,
    norm_squared,
    perp_zero_sum_check,
    strict_bessel_witness,
    unitarity_check,
    value_sum,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def z2_swap(extra_fixed=0):
    g = cyclic_group(2)
    n = 2 + extra_fixed
    table = [list(range(n)), [1, 0] + list(range(2, n))]
    return GroupAction(g, table)


def s3_conjugation():
    group, _ = from_generators(3, [(1, 0, 2), (1, 2, 0)])
    return conjugation_action(group)


SMALL_ACTIONS = [
    z2_swap(),
    z2_swap(2),
    s3_conjugation(),
    translation_action(cyclic_group(4)),
    trivial_action(cyclic_group(3), 4),
]


def test_point_function_arithmetic():
    f = PointFunction([1, 2])
    g = PointFunction([gr(0, 1), gr(Fraction(1, 2))])
    assert (f + g).values == (gr(1, 1), gr(Fraction(5, 2)))
    assert (f - f).is_zero()
    assert f.scale(gr(2)).values == (gr(2), gr(4))
    with pytest.raises(DegreeMismatch):
        f + PointFunction([1])


def test_act_on_function_identity():
    act = z2_swap()
    f = PointFunction([gr(3), gr(0, 1)])
    assert act_on_function(act, 0, f) == f


def test_act_on_function_swap():
    act = z2_swap()
    assert act_on_function(act, 1, PointFunction([1, 0])) == PointFunction([0, 1])


def test_act_on_function_is_an_action():
    rng = random.Random(2)
    for act in SMALL_ACTIONS:
        for _ in range(5):
            a = rng.randrange(act.group.order)
            b = rng.randrange(act.group.order)
            f = rand_function(rng, act.degree)
            left = act_on_function(act, a, act_on_function(act, b, f))
            right = act_on_function(act, act.group.mul(a, b), f)
            assert left == right


def test_is_invariant_constant():
    act = s3_conjugation()
    cert = is_invariant(act, PointFunction.constant(act.degree, gr(5)))
    assert cert is not None
    assert all(v == gr(5) for v in cert.orbit_values)


def test_is_invariant_delta_on_moved_point():
    act = z2_swap()
    assert is_invariant(act, PointFunction.delta(2, 0)) is None


def test_is_invariant_class_indicator():
    act = s3_conjugation()
    transpositions = [
        a for a in range(act.group.order) if act.group.element_order(a) == 2
    ]
    f = PointFunction.indicator(act.degree, transpositions)
    cert = is_invariant(act, f)
    assert cert is not None
    assert cert.orbit_values == (gr(0), gr(1), gr(0))


def test_indicator_basis_trivial_action():
    act = trivial_action(cyclic_group(2), 3)
    assert indicator_basis(act) == [PointFunction.delta(3, x) for x in range(3)]


def test_indicator_basis_matches_dimension_and_invariance():
    for act in SMALL_ACTIONS:
        basis = indicator_basis(act)
        assert len(basis) == act.burnside_dimension()
        for f in basis:
            assert is_invariant(act, f) is not None


def test_indicator_basis_transitive_is_all_ones():
    act = translation_action(cyclic_group(5))
    assert indicator_basis(act) == [PointFunction.ones(5)]


def test_inner_product_examples():
    ones = PointFunction.ones(4)
    assert inner_product(ones, ones) == gr(1)
    act = s3_conjugation()
    basis = indicator_basis(act)
    cells = act.orbits().cells
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            if i != j:
                assert inner_product(f, g) == gr(0)
            else:
                assert inner_product(f, f) == gr(Fraction(len(cells[i]), act.degree))


def test_inner_product_orthonormal_in_squared_form():
    for act in SMALL_ACTIONS:
        cells = act.orbits().cells
        for cell, f in zip(cells, indicator_basis(act)):
            scaled = inner_product(f, f) * gr(Fraction(act.degree, len(cell)))
            assert scaled == gr(1)


def test_inner_product_hermitian_axioms():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 6)
        f, g = rand_function(rng, n), rand_function(rng, n)
        alpha = rand_scalar(rng)
        assert inner_product(f, g) == inner_product(g, f).conjugate()
        assert inner_product(f.scale(alpha), g) == alpha * inner_product(f, g)
        sq = inner_product(f, f)
        assert sq.im == 0 and sq.re >= 0
        assert (sq == gr(0)) == f.is_zero()
        assert sq.re == norm_squared(f)


def test_inner_product_empty_domain():
    with pytest.raises(EmptyDomain):
        inner_product(PointFunction([]), PointFunction([]))


def test_unitarity():
    act = z2_swap()
    lhs, rhs = unitarity_check(act, 1, PointFunction([1, 0]), PointFunction([0, 1]))
    assert lhs == rhs == gr(0)
    rng = random.Random(6)
    for action in SMALL_ACTIONS:
        for _ in range(5):
            a = rng.randrange(action.group.order)
            f = rand_function(rng, action.degree)
            g = rand_function(rng, action.degree)
            lhs, rhs = unitarity_check(action, a, f, g)
            assert lhs == rhs


def test_fourier_projection_examples():
    act = z2_swap()
    assert fourier_projection(act, PointFunction([1, 0])) == PointFunction(
        [gr(Fraction(1, 2)), gr(Fraction(1, 2))]
    )
    conj = s3_conjugation()
    delta_e = PointFunction.delta(conj.degree, conj.group.identity)
    assert fourier_projection(conj, delta_e) == delta_e


def test_fourier_projection_fixes_invariants_and_only_them():
    rng = random.Random(8)
    for act in SMALL_ACTIONS:
        for _ in range(10):
            f = rand_function(rng, act.degree)
            proj = fourier_projection(act, f)
            assert is_invariant(act, proj) is not None
            assert fourier_projection(act, proj) == proj
            assert (proj == f) == (is_invariant(act, f) is not None)


def test_fourier_projection_is_orthogonal():
    rng = random.Random(10)
    for act in SMALL_ACTIONS:
        for _ in range(5):
            f = rand_function(rng, act.degree)
            residual = f - fourier_projection(act, f)
            for h in indicator_basis(act):
                assert inner_product(residual, h) == gr(0)
            g = rand_invariant_values(rng, act)
            assert inner_product(residual, g) == gr(0)


def test_fourier_projection_from_the_coefficients_is_the_projection():
    rng = random.Random(14)
    for act in SMALL_ACTIONS:
        for _ in range(5):
            f = rand_function(rng, act.degree)
            entries = fourier_coefficients(act, f)
            assert fourier_projection(act, f, entries) == fourier_projection(act, f)


def test_pythagoras():
    rng = random.Random(12)
    for act in SMALL_ACTIONS:
        for _ in range(10):
            f = rand_function(rng, act.degree)
            proj = fourier_projection(act, f)
            assert norm_squared(f) == norm_squared(proj) + norm_squared(f - proj)


def test_fourier_coefficients_examples():
    transitive = translation_action(cyclic_group(4))
    [entry] = fourier_coefficients(transitive, PointFunction.ones(4))
    assert entry.raw_sum == gr(4)
    assert entry.coef_norm_sq == 1

    act = z2_swap()
    [entry] = fourier_coefficients(act, PointFunction([1, 0]))
    assert entry.raw_sum == gr(1)
    assert entry.coef_norm_sq == Fraction(1, 4)

    four = z2_swap(2)
    entries = fourier_coefficients(four, PointFunction([0, 0, 5, 0]))
    assert [e.coef_norm_sq for e in entries] == [0, Fraction(25, 4), 0]


def test_bessel_examples():
    act = z2_swap()
    assert bessel_check(act, PointFunction([1, 0])) == (Fraction(1, 2), Fraction(1))
    assert bessel_check(act, PointFunction.zero(2)) == (0, 0)
    invariant = PointFunction.constant(2, gr(Fraction(2, 3)))
    lhs, rhs = bessel_check(act, invariant)
    assert lhs == rhs


def test_bessel_equality_iff_invariant():
    rng = random.Random(14)
    for act in SMALL_ACTIONS:
        for _ in range(15):
            f = rand_function(rng, act.degree)
            lhs, rhs = bessel_check(act, f)
            assert lhs <= rhs
            assert (lhs == rhs) == (is_invariant(act, f) is not None)


def test_strict_bessel_witness():
    act = z2_swap()
    w = strict_bessel_witness(act)
    assert w == PointFunction.delta(2, 0)
    assert norm_squared(fourier_projection(act, w)) == Fraction(1, 4)
    assert norm_squared(w) == Fraction(1, 2)

    conj = s3_conjugation()
    w = strict_bessel_witness(conj)
    assert norm_squared(fourier_projection(conj, w)) == Fraction(1, 18)
    assert norm_squared(w) == Fraction(1, 6)

    with pytest.raises(ActionIsTrivial):
        strict_bessel_witness(trivial_action(cyclic_group(2), 3))


def test_value_sum_examples():
    assert value_sum(PointFunction.ones(5)) == gr(5)
    act = s3_conjugation()
    for cell, f in zip(act.orbits().cells, indicator_basis(act)):
        assert value_sum(f) == gr(len(cell))
    assert value_sum(PointFunction([1, -1])) == gr(0)


def test_value_sum_invariant_under_action():
    rng = random.Random(16)
    for act in SMALL_ACTIONS:
        for _ in range(10):
            a = rng.randrange(act.group.order)
            f = rand_function(rng, act.degree)
            assert value_sum(act_on_function(act, a, f)) == value_sum(f)


def test_value_sum_against_ones_inner_product():
    rng = random.Random(18)
    for n in (1, 2, 5):
        f = rand_function(rng, n)
        ones = PointFunction.ones(n)
        assert inner_product(f, ones) == value_sum(f) * gr(Fraction(1, n))


def test_decompose_ones():
    act = z2_swap()
    ones = PointFunction.ones(2)
    d = decompose(act, ones)
    assert d.invariant_part == ones
    assert d.perp_part.is_zero()
    assert d.mean_part == ones
    assert d.zero_sum_part.is_zero()


def test_decompose_z2_swap():
    act = z2_swap()
    d = decompose(act, PointFunction([1, 0]))
    half = gr(Fraction(1, 2))
    assert d.invariant_part == PointFunction([half, half])
    assert d.perp_part == PointFunction([half, -half])
    # transitive action: the perp and zero-sum parts coincide
    assert d.mean_part == d.invariant_part
    assert d.zero_sum_part == d.perp_part


def test_result_types_keep_their_fields_and_are_read_only():
    act = z2_swap()
    f = PointFunction([1, 0])
    results = [
        (is_invariant(act, PointFunction.ones(2)), ("function", "partition", "orbit_values")),
        (decompose(act, f), ("invariant_part", "perp_part", "mean_part", "zero_sum_part")),
        (fourier_coefficients(act, f)[0], ("cell", "raw_sum", "coef_norm_sq")),
    ]
    for result, fields in results:
        assert type(result) in (InvariantCertificate, Decomposition, FourierCoefficient)
        assert type(result)._fields == fields
        assert tuple(getattr(result, name) for name in fields) == tuple(result)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(result, name, None)
        with pytest.raises(AttributeError):
            result.extra = None


def test_decompose_with_fixed_points():
    act = z2_swap(2)
    d = decompose(act, PointFunction.delta(4, 2))
    quarter = gr(Fraction(1, 4))
    assert d.invariant_part == PointFunction.delta(4, 2)
    assert d.perp_part.is_zero()
    assert d.mean_part == PointFunction.constant(4, quarter)
    assert d.zero_sum_part == PointFunction.delta(4, 2) - d.mean_part


def test_decompose_reassembles_and_nests():
    rng = random.Random(20)
    for act in SMALL_ACTIONS:
        for _ in range(10):
            f = rand_function(rng, act.degree)
            d = decompose(act, f)
            assert d.invariant_part + d.perp_part == f
            assert d.mean_part + d.zero_sum_part == f
            assert value_sum(d.zero_sum_part) == gr(0)
            inner_kernel = d.invariant_part - d.mean_part
            assert is_invariant(act, inner_kernel) is not None
            assert value_sum(inner_kernel) == gr(0)
            assert inner_product(d.mean_part, inner_kernel) == gr(0)


def test_perp_zero_sum_check():
    assert perp_zero_sum_check(translation_action(cyclic_group(4))) == (True, True)
    assert perp_zero_sum_check(trivial_action(cyclic_group(2), 3)) == (True, False)
    assert perp_zero_sum_check(z2_swap(2)) == (True, False)


def test_kernel_spanning_set_has_full_rank():
    # deltas against a base point span the zero-sum hyperplane: rank n-1
    for n in (2, 3, 5):
        rows = [
            (PointFunction.delta(n, x) - PointFunction.delta(n, 0)).values
            for x in range(1, n)
        ]
        assert scalar_rank(rows) == n - 1
        for row in rows:
            assert value_sum(PointFunction(row)) == gr(0)


def test_invariant_zero_sum_spanning_count():
    # indicator differences span the zero-sum slice of the invariant space
    for act in SMALL_ACTIONS:
        cells = act.orbits().cells
        basis = indicator_basis(act)
        if len(cells) == 1:
            continue
        rows = []
        for cell, f in zip(cells[1:], basis[1:]):
            g = f - basis[0].scale(gr(Fraction(len(cell), len(cells[0]))))
            assert value_sum(g) == gr(0)
            assert is_invariant(act, g) is not None
            rows.append(g.values)
        assert scalar_rank(rows) == len(cells) - 1


def test_trivial_iff_every_basis_vector_invariant():
    for act in SMALL_ACTIONS:
        all_invariant = all(
            is_invariant(act, PointFunction.delta(act.degree, x)) is not None
            for x in range(act.degree)
        )
        singletons = all(len(c) == 1 for c in act.orbits().cells)
        assert all_invariant == singletons == act.is_trivial()


def test_transitive_iff_dimension_one_iff_ones_basis():
    for act in SMALL_ACTIONS:
        dim_one = act.burnside_dimension() == 1
        ones_basis = indicator_basis(act) == [PointFunction.ones(act.degree)]
        assert act.is_transitive() == dim_one == ones_basis


def test_automorphism_action_dimension_bound():
    # groups of automorphisms acting by evaluation never exceed dim |G|
    from orbitspace import automorphism_group, direct_product

    rng = random.Random(22)
    for g in (
        cyclic_group(6),
        direct_product(cyclic_group(2), cyclic_group(2)),
        from_generators(3, [(1, 0, 2), (1, 2, 0)])[0],
    ):
        auts = automorphism_group(g)
        aut_group, evaluation = from_generators(g.order, auts)
        assert aut_group.order == len(auts)
        action = GroupAction(aut_group, evaluation)
        for _ in range(5):
            sub = rand_subgroup(rng, aut_group)
            assert action.burnside_dimension(sub) <= g.order
            total = sum(len(action.fix(t)) for t in sub.members)
            assert total <= sub.order * g.order
