"""Group actions on finite point sets.

A ``GroupAction`` is a validated m x n table act[a][x] = a.x over a
``FiniteGroup``. This module provides orbit/fixed-point/stabilizer scans,
the Cauchy-Frobenius dimension count for the space of invariant functions,
and its consequences for free actions. Code that one command alone runs is
imported when called: ``are_equivalent``'s orbit matching, which decides
whether two actions of one group are the same up to relabeling, is in
``orbitspace.equivalence``, and ``Partition``'s checks of untrusted cells
are in ``orbitspace.partitions``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import GroupMismatch, InvariantViolated, NotAnInteger, NotFree
from .groups import FiniteGroup, Subgroup, whole_group

TYPE_CHECKING = False  # the name type checkers read as typing.TYPE_CHECKING
if TYPE_CHECKING:
    from fractions import Fraction


class Partition:
    """Disjoint nonempty sorted cells covering 0..degree-1.

    Cells are ordered by smallest member; ``cell_of[x]`` gives the index of
    the cell containing x. This fixed ordering makes every downstream report
    deterministic.
    """

    __slots__ = ("degree", "cells", "cell_of")

    def __init__(self, degree: int, cells: Sequence[Sequence[int]]):
        """Check and normalize untrusted cells: ``partitions._normal_cells``."""
        from .partitions import _normal_cells

        self.cells, self.cell_of = _normal_cells(degree, cells)
        self.degree = degree

    @classmethod
    def _trusted(cls, degree: int, cells: tuple, cell_of: tuple) -> "Partition":
        """A partition already in normal form: sorted cells, ordered by least
        member, covering 0..degree-1, with ``cell_of`` to match."""
        part = cls.__new__(cls)
        part.degree, part.cells, part.cell_of = degree, cells, cell_of
        return part

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.degree == other.degree and self.cells == other.cells

    def __hash__(self):
        return hash((self.degree, self.cells))

    def __repr__(self):
        return f"Partition({list(map(list, self.cells))})"


class GroupAction:
    """A finite group acting on points 0..degree-1 via a full table.

    The constructor runs the cheap axioms of ``tables.action_rows`` (every
    row a permutation of int points, identity row); use ``validate_action``
    for untrusted tables, which adds compatibility, act[ab][x] =
    act[a][act[b][x]], checked on generators. A row that is not a
    permutation is reported at its first problem, rows in order: its wrong
    length, or the first entry that is not an int point or that repeats an
    image earlier in its row.
    """

    __slots__ = ("group", "degree", "act", "_orbits")

    def __init__(self, group: FiniteGroup, act: Sequence[Sequence[int]]):
        from .tables import action_rows

        self.group, self.act, self._orbits = group, action_rows(group, act), None
        self.degree = len(self.act[0])

    @classmethod
    def _trusted(cls, group: FiniteGroup, act: tuple) -> "GroupAction":
        """Rows known to be permutations of 0..n-1, the identity's range(n), unscanned:
        ``from_generators`` and ``_extend_rows`` rows compose checked ones, and
        each of ``corpus``'s other tables says why at its call."""
        action = cls.__new__(cls)
        action.group, action.act, action.degree, action._orbits = group, act, len(act[0]), None
        return action

    def orbit(self, x: int) -> tuple:
        """{a.x : a in G}, sorted."""
        part = self.orbits()
        return part.cells[part.cell_of[x]]

    def orbits(self, subgroup: Subgroup | None = None) -> Partition:
        """Orbit partition, optionally under a subgroup's inherited action.

        Each orbit is a closure under the generators' rows, O(n |S|) in all
        (Holt, Eick & O'Brien, Handbook of CGT, 4.1); the whole group's is kept.
        """
        if subgroup is not None and not self._subgroup(subgroup).is_whole_group():
            return self._orbit_partition(subgroup.generators)
        if self._orbits is None:
            self._orbits = self._orbit_partition(self.group.generators)
        return self._orbits

    def _orbit_partition(self, gens) -> Partition:
        rows = [self.act[s] for s in gens]
        cell_of = [-1] * self.degree
        cells = []
        for x in range(self.degree):
            if cell_of[x] < 0:
                # x is the least point of its orbit: every smaller one is placed
                i = cell_of[x] = len(cells)
                cell = [x]
                for y in cell:  # appending while iterating walks the orbit breadth-first
                    for row in rows:
                        z = row[y]
                        if cell_of[z] < 0:
                            cell_of[z] = i
                            cell.append(z)
                cells.append(tuple(sorted(cell)))
        return Partition._trusted(self.degree, tuple(cells), tuple(cell_of))

    def fix(self, a: int) -> tuple:
        """Points fixed by a single group element, sorted."""
        row = self.act[a]
        return tuple(x for x in range(self.degree) if row[x] == x)

    def stabilizer(self, x: int) -> Subgroup:
        members = [a for a in range(self.group.order) if self.act[a][x] == x]
        return Subgroup(self.group, members)

    def is_trivial(self) -> bool:
        identity_row = self.act[self.group.identity]
        return all(self.act[s] == identity_row for s in self.group.generators)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def is_free(self) -> bool:
        """True iff no element besides the identity fixes a point."""
        return self.free_witness() is None

    def free_witness(self) -> tuple | None:
        """The first (element, point) with a non-identity element fixing the
        point, or None when the action is free.

        Stab(b.x) = b Stab(x) b^-1, so the action is free exactly when each
        orbit's least point has only the identity in its column; the element
        scan runs only when one of those columns shows the action is not free.
        """
        rows = self.act
        if all([row[c[0]] for row in rows].count(c[0]) == 1 for c in self.orbits().cells):
            return None
        e = self.group.identity
        for a in range(self.group.order):
            if a == e:
                continue
            row = self.act[a]
            for x in range(self.degree):
                if row[x] == x:
                    return a, x
        return None

    def fixed_point_total(self, subgroup: Subgroup | None = None) -> int:
        """sum over a in H of |Fix a|: the numerator of the Cauchy-Frobenius count.

        It and sum_x |Stab_H(x)| both count the pairs a.x = x, and Stab_H(b.x)
        = b Stab_H(x) b^-1, so it is sum_O |O| |Stab_H(x_O)| over the H-orbits
        O, one column of H per orbit (Cameron, Permutation Groups, 1999, 1).
        Always |H| times the orbit count on a valid action: divisibility is
        checked, and the quotient checked against the direct orbit count.
        """
        h = self._subgroup(subgroup)
        part, rows = self.orbits(h), [self.act[a] for a in h.members]
        total = sum(len(c) * [row[c[0]] for row in rows].count(c[0]) for c in part.cells)
        if total % h.order:
            from fractions import Fraction

            raise NotAnInteger(
                f"fixed-point average {Fraction(total, h.order)} is not an integer",
                numerator=total,
                denominator=h.order,
            )
        if total // h.order != len(part):
            raise InvariantViolated(
                "fixed-point count disagrees with orbit scan", total // h.order, len(part)
            )
        return total

    def burnside_dimension(self, subgroup: Subgroup | None = None) -> Fraction:
        """dim of the subgroup-invariant function space: (1/|H|) sum |Fix a|."""
        from fractions import Fraction

        h = self._subgroup(subgroup)
        return Fraction(self.fixed_point_total(h), h.order)

    def dimension_difference(self, subgroup: Subgroup) -> Fraction:
        """|G| dim_G - |H| dim_H, cross-checked against sum over G minus H of |Fix a|.

        The left side counts orbits directly, so the identity is checked
        against the fixed-point sums rather than derived from them.
        """
        from fractions import Fraction

        h = self._subgroup(subgroup)
        lhs = self.group.order * len(self.orbits()) - h.order * len(self.orbits(h))
        rhs = sum(len(self.fix(a)) for a in range(self.group.order) if a not in h)
        if lhs != rhs:
            raise InvariantViolated(
                "dimension difference disagrees with direct fixed-point sum", lhs, rhs
            )
        return Fraction(lhs)

    def free_ratio_check(self, subgroup: Subgroup):
        """For free actions, dim_H / dim_G; checked equal to the index [G:H]."""
        violation = self.free_witness()
        if violation is not None:
            a, x = violation
            raise NotFree(
                f"element {a} fixes point {x}", element=a, point=x
            )
        h = self._subgroup(subgroup)
        ratio = self.burnside_dimension(h) / self.burnside_dimension()
        idx = h.index()
        if ratio != idx:
            raise InvariantViolated("dimension ratio differs from the index", ratio, idx)
        return ratio, idx

    def _subgroup(self, subgroup: Subgroup | None) -> Subgroup:
        if subgroup is None:
            return whole_group(self.group)
        _require_same_group(
            subgroup.parent, self.group, "subgroup belongs to a different group"
        )
        return subgroup

    def __eq__(self, other):
        if not isinstance(other, GroupAction):
            return NotImplemented
        return self.group == other.group and self.act == other.act

    def __hash__(self):
        return hash((self.group, self.act))

    def __repr__(self):
        return f"GroupAction(order={self.group.order}, degree={self.degree})"


def _require_same_group(g1: FiniteGroup, g2: FiniteGroup, message: str):
    mismatch = g1.table_mismatch(g2)
    if mismatch is not None:
        raise GroupMismatch(message, **mismatch)


def validate_action(group: FiniteGroup, act: Sequence[Sequence[int]]) -> GroupAction:
    """Full validation of an untrusted table: the cheap axioms of ``GroupAction``
    plus compatibility, checked on generators by ``tables.check_compatible``."""
    from .tables import check_compatible

    action = GroupAction(group, act)
    check_compatible(group, action.act)
    return action


def are_equivalent(a1: GroupAction, a2: GroupAction) -> list | None:
    """An equivariant bijection phi with phi(a.x) = a.phi(x), as a list, or None
    when the actions are not equivalent: the orbit matching by stabilizers of
    ``equivalence.equivariant_bijection``, which only this call loads."""
    from .equivalence import equivariant_bijection

    return equivariant_bijection(a1, a2)
