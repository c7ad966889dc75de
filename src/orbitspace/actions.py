"""Group actions on finite point sets.

A ``GroupAction`` is a validated m x n table act[a][x] = a.x over a
``FiniteGroup``. This module provides orbit/fixed-point/stabilizer scans,
the Cauchy-Frobenius dimension count for the space of invariant functions,
its consequences for free actions, and an orbit matching by stabilizers for
deciding when two actions of the same group are the same up to relabeling.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import GroupMismatch, InvariantViolated, NotAnInteger, NotFree
from .groups import FiniteGroup, Subgroup, _closure, whole_group

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
        cells = [tuple(cell) for cell in cells]
        for x in chain.from_iterable(cells):
            if type(x) is not int:  # bools, floats and strings are refused, never converted
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
        self.degree = degree
        self.cells = tuple(norm)
        self.cell_of = tuple([cell_of[x] for x in range(degree)])

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

    def orbits(self, subgroup: Optional[Subgroup] = None) -> Partition:
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

    def free_witness(self) -> Optional[tuple]:
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

    def fixed_point_total(self, subgroup: Optional[Subgroup] = None) -> int:
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

    def burnside_dimension(self, subgroup: Optional[Subgroup] = None) -> Fraction:
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

    def _subgroup(self, subgroup: Optional[Subgroup]) -> Subgroup:
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


def are_equivalent(a1: GroupAction, a2: GroupAction) -> Optional[list]:
    """An equivariant bijection phi with phi(a.x) = a.phi(x), or None.

    Returns the point map as a list, or None when the actions are not
    equivalent (including the degree-mismatch case). The orbit of x0 is
    isomorphic to an orbit of a2 exactly when the latter holds a y0 with the
    stabilizer of x0, and then phi(a.x0) = a.y0. Isomorphism is an equivalence
    relation, so taking the first unused such orbit finds a pairing whenever
    one exists. Orbits of one size have stabilizers of one order, so y0 needs
    only to be fixed by Stab(x0). Equivariance is checked on generators.
    """
    _require_same_group(a1.group, a2.group, "actions must share the same group")
    if a1.degree != a2.degree:
        return None
    cells1 = a1.orbits().cells
    cells2 = a2.orbits().cells
    if len(cells1) != len(cells2):
        return None
    gens = a1.group.generators
    gen_rows = [(a1.act[s], a2.act[s]) for s in gens]
    phi = [None] * a1.degree
    used = [False] * len(cells2)
    for c1 in cells1:
        x0 = c1[0]
        stab_rows = [a2.act[a] for a in a1.stabilizer(x0).members]
        candidates = (
            (j, y) for j, c2 in enumerate(cells2) if not used[j] and len(c2) == len(c1) for y in c2
        )
        match = next(((j, y) for j, y in candidates if all(r[y] == y for r in stab_rows)), None)
        if match is None:
            return None
        j, y0 = match
        used[j] = True
        # phi(s.x) = s.phi(x) carries x0 -> y0 over the orbit
        for x, y in _closure((x0, y0), gen_rows, lambda p, r: (r[0][p[0]], r[1][p[1]])):
            phi[x] = y
    if None in phi:
        raise InvariantViolated(
            "matched orbits leave a point unassigned",
            a1.degree - phi.count(None),
            a1.degree,
            point=phi.index(None),
        )
    for s, (row1, row2) in zip(gens, gen_rows):
        for x in range(a1.degree):
            lhs, rhs = phi[row1[x]], row2[phi[x]]
            if lhs != rhs:
                raise InvariantViolated(
                    f"phi({s}.{x}) != {s}.phi({x})", lhs, rhs, element=s, point=x
                )
    return phi
