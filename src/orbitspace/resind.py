"""Restriction and induction across an invariant subset of the point set.

An invariant subset is a union of orbits. Restriction copies values onto the
subset; extension by zero is its right inverse. Induction averages the
zero-extension over the group with the normalization |X| / (|G| |Y|), which
always lands in the invariant subspace and makes restriction and induction
Hermitian adjoints: <Ind f, g> = <f, Res g> for invariant f and g, with the
inner product on the subset using the same formula over its own points.

The group sum is never formed: sum over b in G of f(b^-1 . x) equals
(|G| / |Gx|) sum over y in Gx of f(y), so induction is |X| / |Y| times the
orbit average, at the cost of one orbit scan instead of |G| |X| steps.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from .actions import GroupAction
from .errors import DegreeMismatch, EmptySubset, InvariantViolated, NotInvariant
from .scalars import GaussianRational
from .spaces import (
    PointFunction,
    _cell_averages,
    _cell_sums,
    _check_shapes,
    _constant_on_cells,
    _dot,
    _same_degree,
    inner_product,
)


class InvariantSubset:
    """A validated union of orbits, with a point <-> position map.

    Positions index the sorted point list; functions on the subset store
    their values by position, so nothing silently misaligns when the subset
    is not contiguous.
    """

    __slots__ = ("action", "points", "position")

    def __init__(self, action: GroupAction, points: tuple):
        self.action = action
        self.points = points
        self.position = {x: i for i, x in enumerate(points)}

    @property
    def size(self) -> int:
        return len(self.points)

    def __contains__(self, x: int) -> bool:
        return x in self.position

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"InvariantSubset({list(self.points)})"


def invariant_subset(act: GroupAction, points: Iterable[int]) -> InvariantSubset:
    """Validate closure: every generator must map the subset into itself,
    and then so does every product. A failure names a generator."""
    pts = tuple(points)
    for x in pts:
        if type(x) is not int:  # bools, floats and strings are refused, never converted
            raise DegreeMismatch(f"point {x!r} is not an int", point=x)
    inside = set(pts)
    pts = tuple(sorted(inside))
    if not pts:
        raise EmptySubset("invariant subset must be nonempty", points=[])
    for x in pts:
        if x < 0 or x >= act.degree:
            raise DegreeMismatch(
                f"point {x} out of range 0..{act.degree - 1}", point=x
            )
    for s in act.group.generators:
        row = act.act[s]
        for y in pts:
            img = row[y]
            if img not in inside:
                raise NotInvariant(
                    f"element {s} maps point {y} to {img}, outside the subset",
                    element=s,
                    point=y,
                    image=img,
                )
    return InvariantSubset(act, pts)


class SubsetFunction:
    """A function on an invariant subset, stored by position as a
    ``PointFunction`` on positions 0..|Y|-1."""

    __slots__ = ("subset", "_by_position")

    def __init__(self, subset: InvariantSubset, values: Iterable):
        self.subset = subset
        self._by_position = PointFunction(values)
        if self._by_position.degree != subset.size:
            raise DegreeMismatch(
                f"{self._by_position.degree} values for a subset of size {subset.size}",
                values=self._by_position.degree,
                size=subset.size,
            )

    @property
    def values(self) -> tuple:
        return self._by_position.values

    def as_point_function(self) -> PointFunction:
        """The same values, viewed as a function on the subset's positions."""
        return self._by_position

    def __eq__(self, other):
        if not isinstance(other, SubsetFunction):
            return NotImplemented
        return (
            self.subset.points == other.subset.points
            and self._by_position == other._by_position
        )

    def __repr__(self):
        return f"SubsetFunction({list(map(str, self.values))})"


def restrict(f: PointFunction, subset: InvariantSubset) -> SubsetFunction:
    """Copy values at the subset's points. Sends invariant to invariant."""
    _check_shapes(subset.action, f)
    return SubsetFunction(subset, f._gather(subset.points))


def extend_by_zero(g: SubsetFunction) -> PointFunction:
    """Zero outside the subset; invariant input stays invariant."""
    points = range(g.subset.action.degree)
    return PointFunction._from_columns(
        *(
            tuple(map(dict(zip(g.subset.points, col)).get, points, repeat(fill)))
            for col, fill in zip(g._by_position._cols, (0, 1, 0, 1))
        )
    )


def induce(subset: InvariantSubset, g: SubsetFunction) -> PointFunction:
    """(|X| / (|G| |Y|)) sum over b in G of the zero-extension at b^-1 . x.

    Computed by orbit sums: b^-1 . x runs over the orbit Gx, reaching each
    point |G| / |Gx| times, so the group sum is (|G| / |Gx|) times the sum
    over Gx, and Ind g is (|X| / (|Y| |Gx|)) times the sum over Gx of the
    zero-extension: one product per orbit. Defined on all functions on the
    subset; the result is always invariant.
    """
    act = subset.action
    part, sums = _cell_sums(act, extend_by_zero(g))
    out = _cell_averages(part, sums, act.degree, subset.size)
    orbits = act.orbits().cells
    if not _constant_on_cells(orbits, out):
        x, y = next((c[0], y) for c in orbits for y in c if out[y] != out[c[0]])
        raise InvariantViolated(
            "induced function is not constant on an orbit",
            out[x],
            out[y],
            points=[x, y],
        )
    return out


def subset_inner_product(f: SubsetFunction, g: SubsetFunction) -> GaussianRational:
    """Inner product over the subset's own points: (1/|Y|) sum f conj(g)."""
    if f.subset.points != g.subset.points:
        raise DegreeMismatch(
            "functions live on different subsets",
            left=list(f.subset.points),
            right=list(g.subset.points),
        )
    return inner_product(f.as_point_function(), g.as_point_function())


def reciprocity_check(subset: InvariantSubset, f: SubsetFunction, g: PointFunction):
    """Both sides of <Ind f, g> = <f, Res g>, exactly.

    Stated for invariant f (on the subset) and invariant g; a violated
    precondition raises with both sides already computed, so the diagnostic
    still shows how far apart they land.
    """
    act = subset.action
    induced = induce(subset, f)
    _same_degree(induced, g)
    # Ind f is constant on each orbit C, so <Ind f, g> is
    # (1/n) sum over C of Ind f(C) conj(sum of g over C)
    part, g_sums = _cell_sums(act, g)
    cells = part.cells
    re, im = _dot(induced._gather([c[0] for c in cells])._cols, g_sums._cols)
    lhs = GaussianRational(re / act.degree, im / act.degree)
    rhs = subset_inner_product(f, restrict(g, subset))
    # the subset is a union of orbits, so f is invariant exactly when its
    # zero-extension is constant on every orbit
    f_ok = _constant_on_cells(cells, extend_by_zero(f))
    g_ok = _constant_on_cells(cells, g)
    if not f_ok or not g_ok:
        side = "f" if not f_ok else "g"
        raise NotInvariant(
            f"reciprocity requires invariant functions; {side} is not",
            side=side,
            lhs=lhs.to_pair(),
            rhs=rhs.to_pair(),
        )
    if lhs != rhs:
        raise InvariantViolated("adjointness identity failed on invariant inputs", lhs, rhs)
    return lhs, rhs
