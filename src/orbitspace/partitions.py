"""From a partition back to a group: realize the cells as orbits.

Any partition of a finite set is the orbit partition of a concrete
permutation group: the one generated by all transpositions of same-cell
pairs. That group is exactly the full cell-preserving group, so the
construction also gives a membership test and a counting cross-check
(product of cell factorials). It also holds the checks of untrusted cells,
which ``Partition(...)`` imports when called; the orbit partitions that
every action command builds are trusted and never load this module.
"""

from __future__ import annotations

import math
from itertools import chain

from .actions import GroupAction, Partition
from .errors import InvariantViolated, SizeLimitExceeded
from .groups import DEFAULT_CLOSURE_CAP, check_permutation, compose, from_generators


def _normal_cells(degree: int, cells) -> tuple:
    """(cells, cell_of) of ``Partition(degree, cells)``: each cell sorted, the
    cells ordered by least member, ``cell_of[x]`` the index of x's cell.

    Raises ValueError for a point that is not an int (bools, floats and
    strings are refused, never converted), an empty cell, a point out of
    range or repeated, or a point that no cell covers.
    """
    cells = [tuple(cell) for cell in cells]
    for x in chain.from_iterable(cells):
        if type(x) is not int:
            raise ValueError(f"point {x!r} is not an int")
    norm = [tuple(sorted(cell)) for cell in cells]
    for cell in norm:
        if not cell:
            raise ValueError("empty cell in partition")
    norm.sort(key=lambda c: c[0])
    cell_of = {}  # no degree-sized list before the cells are known to cover
    for i, cell in enumerate(norm):
        for x in cell:
            if x < 0 or x >= degree:
                raise ValueError(f"point {x} out of range 0..{degree - 1}")
            if x in cell_of:
                raise ValueError(f"point {x} appears more than once")
            cell_of[x] = i
    if len(cell_of) < degree:
        missing = next(x for x in range(degree) if x not in cell_of)
        raise ValueError(f"point {missing} not covered by any cell")
    return tuple(norm), tuple([cell_of[x] for x in range(degree)])


def cell_transpositions(partition: Partition, minimal: bool = False):
    """Generators for the cell-preserving group.

    All same-cell transpositions by default; with ``minimal`` only the
    adjacent ones within each sorted cell (same closure, fewer generators).
    """
    n = partition.degree
    gens = []
    for cell in partition.cells:
        if len(cell) < 2:
            continue
        if minimal:
            pairs = list(zip(cell, cell[1:]))
        else:
            pairs = [(x, y) for i, x in enumerate(cell) for y in cell[i + 1 :]]
        for x, y in pairs:
            images = list(range(n))
            images[x], images[y] = y, x
            gens.append(tuple(images))
    return gens


def realized_order(partition: Partition) -> int:
    """Product of cell factorials: the order of the full cell-preserving group."""
    out = 1
    for cell in partition.cells:
        out *= math.factorial(len(cell))
    return out


def group_from_partition(
    partition: Partition,
    minimal_generators: bool = False,
    cap: int = DEFAULT_CLOSURE_CAP,
):
    """Build the transposition-generated group whose orbits are the cells.

    Returns (group, evaluation action). The group order is the product of
    cell factorials, checked against the cap before any closure work.
    """
    predicted = realized_order(partition)
    if predicted > cap:
        raise SizeLimitExceeded(
            f"realized group would have order {predicted}, above cap {cap}",
            cap=cap,
            reached=predicted,
        )
    gens = cell_transpositions(partition, minimal=minimal_generators)
    group, act = from_generators(partition.degree, gens, cap=cap)
    action = GroupAction._trusted(group, act)
    if group.order != predicted:
        raise InvariantViolated(
            "closure order differs from the product of cell factorials",
            group.order,
            predicted,
        )
    orbits = action.orbits()
    if orbits != partition:
        raise InvariantViolated(
            "orbits of the realized group differ from the cells", orbits.cells, partition.cells
        )
    return group, action


def preserves_cells(partition: Partition, sigma) -> bool:
    """True iff sigma maps every cell onto itself."""
    sigma = check_permutation(sigma, partition.degree)
    return compose(partition.cell_of, sigma) == partition.cell_of
