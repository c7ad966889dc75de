"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output). No tolerances appear anywhere; every comparison is an
exact equality or an exact integer/rational inequality.
"""

import functools
import random
from fractions import Fraction

from helpers import (
    count_cell_preserving,
    orbit_count_oracle,
    rand_function,
    rand_invariant_values,
    rand_subgroup,
    scalar_rank,
)
from orbitspace import conjugation_action, cyclic_group, trivial_action
from orbitspace.actions import GroupAction, Partition, are_equivalent
from orbitspace.corpus import (
    NON_FREE_FAMILIES,
    build,
    default_entries,
    small_group_catalog,
)
from orbitspace.groups import from_generators
from orbitspace.partitions import (
    group_from_partition,
    preserves_cells,
    realized_order,
)
from orbitspace.resind import SubsetFunction, invariant_subset, reciprocity_check, restrict
from orbitspace.scalars import GaussianRational
from orbitspace.spaces import (
    PointFunction,
    act_on_function,
    bessel_check,
    fourier_projection,
    indicator_basis,
    inner_product,
    is_invariant,
    norm_squared,
    perp_zero_sum_check,
    strict_bessel_witness,
    value_sum,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return run

    return wrap


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def s3_conjugation():
    group, _ = from_generators(3, [(1, 0, 2), (1, 2, 0)])
    return conjugation_action(group)


@criterion(1, "fixed-point average equals the orbit count on corpus actions")
def test_criterion_1_burnside_equals_orbit_count():
    rng = random.Random(101)
    for entry in default_entries():
        action = entry.action
        for _ in range(20):
            h = rand_subgroup(rng, action.group, max_seeds=3)
            dim = action.burnside_dimension(h)
            assert dim.denominator == 1
            assert dim == orbit_count_oracle(action, h.members)
    anchor = s3_conjugation()
    assert sum(len(anchor.fix(a)) for a in range(6)) == 18
    assert anchor.burnside_dimension() == Fraction(18, 6) == 3


@criterion(2, "order-weighted dimension difference equals the outside fixed-point sum")
def test_criterion_2_dimension_difference_identity():
    rng = random.Random(202)
    entries = default_entries()
    for i in range(50):
        action = entries[i % len(entries)].action
        h = rand_subgroup(rng, action.group, max_seeds=3)
        dim_g = orbit_count_oracle(action)
        dim_h = orbit_count_oracle(action, h.members)
        lhs = action.group.order * dim_g - h.order * dim_h
        members = set(h.members)
        rhs = sum(
            len(action.fix(a)) for a in range(action.group.order) if a not in members
        )
        assert lhs == rhs
        assert action.dimension_difference(h) == lhs


@criterion(3, "free-action dimension ratio is the subgroup index; the eight families are not free")
def test_criterion_3_free_ratio_and_nonfree_families():
    for n in range(2, 13):
        entry = build("cyclic_translation", n=n)
        action = entry.action
        assert action.burnside_dimension() == 1 == Fraction(action.degree, action.group.order)
        subgroups = {action.group.subgroup_generated([k]).members for k in range(n)}
        for members in sorted(subgroups):
            h = action.group.subgroup_generated(members)
            ratio, index = action.free_ratio_check(h)
            assert ratio == index == n // len(members)
    for family in NON_FREE_FAMILIES:
        assert build(family).action.is_free() is False


@criterion(4, "induction and restriction are exact adjoints on invariant functions")
def test_criterion_4_reciprocity():
    rng = random.Random(404)
    instances = 0
    for entry in default_entries():
        action = entry.action
        cells = action.orbits().cells
        for _ in range(20):
            chosen = [c for c in cells if rng.random() < 0.6] or [cells[0]]
            y = invariant_subset(action, [x for c in chosen for x in c])
            f = restrict(rand_invariant_values(rng, action), y)
            g = rand_invariant_values(rng, action)
            lhs, rhs = reciprocity_check(y, f, g)
            assert lhs == rhs
            instances += 1
    assert instances >= 200

    # the hand-evaluated fixture: both sides equal c * conj(g0)
    swap = GroupAction(cyclic_group(2), [[0, 1, 2, 3], [1, 0, 2, 3]])
    y = invariant_subset(swap, [0, 1])
    c, g0 = gr(Fraction(3, 2), 1), gr(2, -1)
    lhs, rhs = reciprocity_check(
        y, SubsetFunction(y, [c, c]), PointFunction([g0, g0, gr(5), gr(7)])
    )
    assert lhs == rhs == c * g0.conjugate()


@criterion(5, "projection norms obey the exact inequality with equality only on invariants")
def test_criterion_5_fourier_bessel():
    rng = random.Random(505)
    for entry in default_entries():
        action = entry.action
        for i in range(200):
            if i % 10 == 0:
                f = rand_invariant_values(rng, action)
            else:
                f = rand_function(rng, action.degree)
            lhs, rhs = bessel_check(action, f)
            assert lhs <= rhs
            assert (lhs == rhs) == (is_invariant(action, f) is not None)
            proj = fourier_projection(action, f)
            assert fourier_projection(action, proj) == proj
            assert norm_squared(f) == norm_squared(proj) + norm_squared(f - proj)
        if not action.is_trivial():
            w = strict_bessel_witness(action)
            assert norm_squared(fourier_projection(action, w)) < norm_squared(w)


@criterion(6, "the sum functional: translation invariance, kernel dimension, complement containment")
def test_criterion_6_sum_functional_structure():
    rng = random.Random(606)
    for entry in default_entries():
        action = entry.action
        n = action.degree
        for _ in range(10):
            a = rng.randrange(action.group.order)
            f = rand_function(rng, n)
            assert value_sum(act_on_function(action, a, f)) == value_sum(f)
            ones = PointFunction.ones(n)
            assert inner_product(f, ones) == value_sum(f) * gr(Fraction(1, n))
        if n > 1:
            spanners = [
                (PointFunction.delta(n, x) - PointFunction.delta(n, 0)).values
                for x in range(1, n)
            ]
            assert all(
                value_sum(PointFunction(row)) == gr(0) for row in spanners
            )
            assert scalar_rank(spanners) == n - 1
        is_subset, equality = perp_zero_sum_check(action)
        assert is_subset is True
        assert equality == action.is_transitive()


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@criterion(7, "any partition is realized as the orbits of its transposition group")
def test_criterion_7_partition_round_trip():
    for n in range(1, 7):
        for cells in set_partitions(list(range(n))):
            p = Partition(n, cells)
            group, action = group_from_partition(p)
            assert action.orbits() == p
            assert group.order == realized_order(p)
            for row in action.act:
                assert preserves_cells(p, row)
            assert count_cell_preserving(p) == group.order

    built_shapes = set()
    for cells in set_partitions(list(range(7))):
        p = Partition(7, cells)
        expected_order = realized_order(p)
        assert count_cell_preserving(p) == expected_order
        shape = tuple(sorted(len(c) for c in p.cells))
        if expected_order <= 800 and shape not in built_shapes:
            built_shapes.add(shape)
            group, action = group_from_partition(p)
            assert group.order == expected_order
            assert action.orbits() == p


@criterion(8, "trivial/transitive dimension laws, relabeling equivalence, and the one- vs two-point counterexample")
def test_criterion_8_equivalence_and_dimension_laws():
    rng = random.Random(808)
    for entry in default_entries():
        action = entry.action
        n = action.degree
        dim = action.burnside_dimension()
        assert action.is_trivial() == (dim == n)
        assert action.is_transitive() == (dim == 1) == (
            indicator_basis(action) == [PointFunction.ones(n)]
        )

        rho = list(range(n))
        rng.shuffle(rho)
        inv_rho = [0] * n
        for x, y in enumerate(rho):
            inv_rho[y] = x
        relabeled = GroupAction(
            action.group,
            [
                [rho[action.act[a][inv_rho[y]]] for y in range(n)]
                for a in range(action.group.order)
            ],
        )
        phi = are_equivalent(action, relabeled)
        assert phi is not None
        phi_inv = [0] * n
        for x, y in enumerate(phi):
            phi_inv[y] = x
        for _ in range(10):
            h = rand_subgroup(rng, action.group)
            f = rand_invariant_values(rng, action, subgroup=h)
            transported = [f.values[phi_inv[y]] for y in range(n)]
            for a in h.members:
                for y in range(n):
                    assert transported[relabeled.act[a][y]] == transported[y]

    s2, nat = from_generators(2, [(1, 0)])
    one_point = trivial_action(s2, 1)
    two_point = GroupAction(s2, nat)
    assert one_point.burnside_dimension() == 1 == two_point.burnside_dimension()
    assert are_equivalent(one_point, two_point) is None


@criterion(9, "automorphism fixed points never exceed |A| |G| on all groups of order at most 12")
def test_criterion_9_automorphism_bound():
    from orbitspace import automorphism_group

    catalog = small_group_catalog(12)
    assert len(catalog) == 24
    for name, g in catalog:
        auts = automorphism_group(g)
        assert all(g.is_automorphism(t) for t in auts)
        aut_group, evaluation = from_generators(g.order, auts)
        assert aut_group.order == len(auts)
        action = GroupAction(aut_group, evaluation)
        total = sum(len(action.fix(t)) for t in range(aut_group.order))
        assert total <= len(auts) * g.order
        assert action.burnside_dimension() <= g.order


@criterion(10, "every CLI fixture reproduces its report byte for byte")
def test_criterion_10_cli_golden_files(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    from orbitspace.cli import main
    from test_cli import EXPECTED, GOLDEN_CASES

    assert len(GOLDEN_CASES) >= 10
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, argv in GOLDEN_CASES:
            expected = (EXPECTED / f"{case_id}.json").read_bytes()
            for i in range(2):
                out = Path(tmp) / f"{case_id}_{i}.json"
                assert main(argv + ["--output", str(out)]) == 0
                assert out.read_bytes() == expected
