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

from fractions import Fraction
from typing import Iterable

from .actions import GroupAction
from .groups import _generators, compose
from .errors import DegreeMismatch, EmptySubset, InvariantViolated, NotInvariant
from .scalars import GaussianRational, ZERO
from .spaces import PointFunction, _cell_sums, inner_product, is_invariant


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

    def restricted_action(self) -> GroupAction:
        """The same group acting on the subset's positions."""
        pos = self.position
        table = [[pos[row[x]] for x in self.points] for row in self.action.act]
        return GroupAction(self.action.group, table)

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
    for s in _generators(act.group):
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
    """A function on an invariant subset, stored by position."""

    __slots__ = ("subset", "values")

    def __init__(self, subset: InvariantSubset, values: Iterable):
        vals = []
        for v in values:
            vals.append(v if isinstance(v, GaussianRational) else GaussianRational(v))
        self.subset = subset
        self.values = tuple(vals)
        if len(self.values) != subset.size:
            raise DegreeMismatch(
                f"{len(self.values)} values for a subset of size {subset.size}",
                values=len(self.values),
                size=subset.size,
            )

    def at_point(self, x: int) -> GaussianRational:
        return self.values[self.subset.position[x]]

    def as_point_function(self) -> PointFunction:
        """The same values, viewed as a function on the subset's positions."""
        return PointFunction(self.values)

    def __eq__(self, other):
        if not isinstance(other, SubsetFunction):
            return NotImplemented
        return self.subset.points == other.subset.points and self.values == other.values

    def __repr__(self):
        return f"SubsetFunction({list(map(str, self.values))})"


def restrict(f: PointFunction, subset: InvariantSubset) -> SubsetFunction:
    """Copy values at the subset's points. Sends invariant to invariant."""
    if f.degree != subset.action.degree:
        raise DegreeMismatch(
            f"function degree {f.degree} does not match action degree "
            f"{subset.action.degree}",
            function=f.degree,
            action=subset.action.degree,
        )
    return SubsetFunction(subset, compose(f.values, subset.points))


def extend_by_zero(g: SubsetFunction) -> PointFunction:
    """Zero outside the subset; invariant input stays invariant."""
    vals = [ZERO] * g.subset.action.degree
    for x in g.subset.points:
        vals[x] = g.at_point(x)
    return PointFunction(vals)


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
    vals = [ZERO] * act.degree
    for cell, s in zip(part.cells, sums):
        value = s * GaussianRational(Fraction(act.degree, subset.size * len(cell)))
        for x in cell:
            vals[x] = value
    out = PointFunction(vals)
    if is_invariant(act, out) is None:
        x, y = next(
            (c[0], y) for c in act.orbits().cells for y in c if vals[y] != vals[c[0]]
        )
        raise InvariantViolated(
            "induced function is not constant on an orbit",
            vals[x],
            vals[y],
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
    lhs = inner_product(induce(subset, f), g)
    rhs = subset_inner_product(f, restrict(g, subset))
    # f is invariant exactly when it is constant on the orbits inside the subset
    inside = [c for c in act.orbits().cells if c[0] in subset]
    f_ok = all(f.at_point(x) == f.at_point(c[0]) for c in inside for x in c)
    g_ok = is_invariant(act, g) is not None
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
