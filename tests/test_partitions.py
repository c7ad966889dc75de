"""Partition-to-group construction and the cell-preserving membership test."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_cell_preserving, trusted_rows_checked
from orbitspace.actions import GroupAction, Partition
from orbitspace.errors import NotAPermutation, SizeLimitExceeded
from orbitspace.groups import from_generators, group_from_table
from orbitspace.partitions import (
    cell_transpositions,
    group_from_partition,
    preserves_cells,
    realized_order,
)


def set_partitions(items):
    """All partitions of a list, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def all_partitions(n):
    return [Partition(n, cells) for cells in set_partitions(list(range(n)))]


def test_singletons_give_trivial_group():
    p = Partition(3, [[0], [1], [2]])
    group, action = group_from_partition(p)
    assert group.order == 1
    assert action.is_trivial()
    assert cell_transpositions(p) == []


def test_single_pair():
    p = Partition(2, [[0, 1]])
    group, action = group_from_partition(p)
    assert group.order == 2
    assert action.orbit(0) == (0, 1)


def test_two_cells_example():
    p = Partition(5, [[0, 1, 2], [3, 4]])
    group, action = group_from_partition(p)
    assert group.order == 12 == math.factorial(3) * math.factorial(2)
    assert action.orbits() == p


def test_round_trip_all_partitions_up_to_five():
    for n in range(1, 6):
        for p in all_partitions(n):
            group, action = group_from_partition(p)
            assert action.orbits() == p
            assert group.order == realized_order(p)
            for row in action.act:
                assert preserves_cells(p, row)


def test_minimal_generators_same_group():
    p = Partition(6, [[0, 2, 4], [1, 3], [5]])
    full_group, full_action = group_from_partition(p)
    min_group, min_action = group_from_partition(p, minimal_generators=True)
    assert full_group.order == min_group.order
    assert set(full_action.act) == set(min_action.act)
    assert len(cell_transpositions(p, minimal=True)) < len(cell_transpositions(p))


def test_generated_group_validates():
    p = Partition(4, [[0, 1], [2, 3]])
    group, _ = group_from_partition(p)
    group_from_table(group.mul_table)


def test_cap_blocks_factorial_blowup():
    p = Partition(6, [[0, 1, 2, 3, 4, 5]])
    with pytest.raises(SizeLimitExceeded) as exc:
        group_from_partition(p, cap=100)
    assert exc.value.witness["reached"] == 720


def test_preserves_cells_examples():
    p = Partition(3, [[0, 1], [2]])
    assert preserves_cells(p, [0, 1, 2])
    assert preserves_cells(p, [1, 0, 2])
    assert not preserves_cells(p, [0, 2, 1])
    with pytest.raises(NotAPermutation):
        preserves_cells(p, [0, 0, 1])


def test_counting_matches_formula_up_to_five():
    for n in range(1, 6):
        for p in all_partitions(n):
            assert count_cell_preserving(p) == realized_order(p)


def test_composition_with_dimension_count():
    for cells in ([[0, 1], [2, 3, 4]], [[0], [1, 2]], [[0, 1, 2, 3]]):
        n = sum(len(c) for c in cells)
        p = Partition(n, cells)
        _, action = group_from_partition(p)
        assert action.burnside_dimension() == len(p.cells)


@st.composite
def partitions(draw, degree):
    """A random partition of 0..degree-1, from a cell label per point."""
    labels = draw(st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree))
    cells = {}
    for x, label in enumerate(labels):
        cells.setdefault(label, []).append(x)
    return Partition(degree, list(cells.values()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_membership_on_generator_rows_matches_every_row(data):
    degree = data.draw(st.integers(1, 5))
    tested = data.draw(partitions(degree))
    if data.draw(st.booleans()):
        source = data.draw(partitions(degree))
        group, action = group_from_partition(source, minimal_generators=data.draw(st.booleans()))
        # the transpositions of the source cells keep the tested cells iff
        # every source cell lies inside one tested cell
        refines = all(len({tested.cell_of[x] for x in cell}) == 1 for cell in source.cells)
    else:
        gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
        action = GroupAction(*from_generators(degree, [tuple(p) for p in gens]))
        group, refines = action.group, None
    every_row = all(preserves_cells(tested, row) for row in action.act)
    on_generators = all(preserves_cells(tested, action.act[s]) for s in group.generators)
    assert on_generators == every_row
    assert refines is None or refines == every_row


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trusted_rows_of_a_realized_partition_pass_the_row_scan(data):
    partition = data.draw(partitions(data.draw(st.integers(1, 6))))
    with trusted_rows_checked() as seen:
        _, action = group_from_partition(partition, minimal_generators=data.draw(st.booleans()))
    assert seen == [action.act]
