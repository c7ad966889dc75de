"""The space of exact scalar-valued functions on an action's points.

Functions are vectors of Gaussian rationals indexed by points. The group
acts by (a * f)(x) = f(a^-1 . x); the invariant functions are exactly those
constant on orbits, with the orbit indicators as a canonical basis. The
normalized Hermitian inner product <f, g> = (1/n) sum f(x) conj(g(x)) makes
projection onto the invariant subspace an orbit-averaging operator.

Orthonormality, Fourier coefficients, and Bessel's inequality are all
checked in squared form: the scaling sqrt(n/|C|) that would normalize an
indicator is never materialized, keeping every statement exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional

from .actions import GroupAction, Partition
from .errors import ActionIsTrivial, DegreeMismatch, EmptyDomain, InvariantViolated
from .groups import compose
from .scalars import GaussianRational, ZERO, ONE


class PointFunction:
    """A function on points 0..degree-1, stored as exact scalar values."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable):
        vals = []
        for v in values:
            if isinstance(v, GaussianRational):
                vals.append(v)
            else:
                vals.append(GaussianRational(v))
        self.values = tuple(vals)

    @property
    def degree(self) -> int:
        return len(self.values)

    @classmethod
    def zero(cls, degree: int) -> "PointFunction":
        return cls([ZERO] * degree)

    @classmethod
    def constant(cls, degree: int, value) -> "PointFunction":
        return cls([value] * degree)

    @classmethod
    def ones(cls, degree: int) -> "PointFunction":
        return cls([ONE] * degree)

    @classmethod
    def delta(cls, degree: int, point: int) -> "PointFunction":
        vals = [ZERO] * degree
        vals[point] = ONE
        return cls(vals)

    @classmethod
    def indicator(cls, degree: int, points: Iterable[int]) -> "PointFunction":
        vals = [ZERO] * degree
        for x in points:
            vals[x] = ONE
        return cls(vals)

    def __getitem__(self, x: int) -> GaussianRational:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "PointFunction") -> "PointFunction":
        _same_degree(self, other)
        return PointFunction(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other: "PointFunction") -> "PointFunction":
        _same_degree(self, other)
        return PointFunction(a - b for a, b in zip(self.values, other.values))

    def __neg__(self) -> "PointFunction":
        return PointFunction(-a for a in self.values)

    def scale(self, scalar) -> "PointFunction":
        return PointFunction(scalar * v for v in self.values)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, PointFunction):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"PointFunction([{', '.join(str(v) for v in self.values)}])"


@dataclass(frozen=True)
class InvariantCertificate:
    """Witness that a function is constant on every orbit cell."""

    function: PointFunction
    partition: Partition
    orbit_values: tuple


@dataclass(frozen=True)
class Decomposition:
    """The orthogonal splittings of a function in one bundle.

    invariant_part + perp_part and mean_part + zero_sum_part both recover
    the input; invariant_part - mean_part lands in the zero-sum slice of the
    invariant subspace.
    """

    invariant_part: PointFunction
    perp_part: PointFunction
    mean_part: PointFunction
    zero_sum_part: PointFunction


def _same_degree(f: PointFunction, g: PointFunction):
    if f.degree != g.degree:
        raise DegreeMismatch(
            f"function degrees differ: {f.degree} vs {g.degree}",
            left=f.degree,
            right=g.degree,
        )


def _check_shapes(act: GroupAction, f: PointFunction):
    if f.degree != act.degree:
        raise DegreeMismatch(
            f"function degree {f.degree} does not match action degree {act.degree}",
            function=f.degree,
            action=act.degree,
        )


def act_on_function(act: GroupAction, a: int, f: PointFunction) -> PointFunction:
    """(a * f)(x) = f(a^-1 . x)."""
    _check_shapes(act, f)
    return PointFunction(compose(f.values, act.act[act.group.inv(a)]))


def is_invariant(act: GroupAction, f: PointFunction) -> Optional[InvariantCertificate]:
    """Certificate iff f is constant on each orbit; decided by an orbit scan."""
    _check_shapes(act, f)
    part = act.orbits()
    orbit_values = []
    for cell in part.cells:
        v = f.values[cell[0]]
        for x in cell[1:]:
            if f.values[x] != v:
                return None
        orbit_values.append(v)
    return InvariantCertificate(f, part, tuple(orbit_values))


def indicator_basis(act: GroupAction) -> List[PointFunction]:
    """One 0/1 indicator per orbit cell, in cell order."""
    part = act.orbits()
    return [PointFunction.indicator(act.degree, cell) for cell in part.cells]


def inner_product(f: PointFunction, g: PointFunction) -> GaussianRational:
    """<f, g> = (1/n) sum f(x) conj(g(x)): Hermitian, positive definite."""
    _same_degree(f, g)
    n = f.degree
    if n == 0:
        raise EmptyDomain("inner product needs a nonempty point set", degree=0)
    total = ZERO
    for a, b in zip(f.values, g.values):
        total = total + a * b.conjugate()
    return total * GaussianRational(Fraction(1, n))


def norm_squared(f: PointFunction) -> Fraction:
    """<f, f> as a rational."""
    n = f.degree
    if n == 0:
        raise EmptyDomain("norm needs a nonempty point set", degree=0)
    return Fraction(sum(v.norm_sq() for v in f.values), n)


def unitarity_check(act: GroupAction, a: int, f: PointFunction, g: PointFunction):
    """Both sides of <a*f, a*g> = <f, g>; checked equal, returned for inspection."""
    _check_shapes(act, f)
    _check_shapes(act, g)
    lhs = inner_product(act_on_function(act, a, f), act_on_function(act, a, g))
    rhs = inner_product(f, g)
    if lhs != rhs:
        raise InvariantViolated(
            "group translation failed to preserve the inner product", lhs, rhs, element=a
        )
    return lhs, rhs


def _cell_sums(act: GroupAction, f: PointFunction):
    part = act.orbits()
    sums = []
    for cell in part.cells:
        s = ZERO
        for x in cell:
            s = s + f.values[x]
        sums.append(s)
    return part, sums


def fourier_projection(act: GroupAction, f: PointFunction) -> PointFunction:
    """Orthogonal projection onto the invariant subspace: average over each orbit."""
    _check_shapes(act, f)
    part, sums = _cell_sums(act, f)
    vals = [ZERO] * act.degree
    for cell, s in zip(part.cells, sums):
        avg = s * GaussianRational(Fraction(1, len(cell)))
        for x in cell:
            vals[x] = avg
    return PointFunction(vals)


@dataclass(frozen=True)
class FourierCoefficient:
    """Per-cell Fourier data in square-root-free form.

    ``raw_sum`` is sum of f over the cell; ``coef_norm_sq`` is the squared
    modulus of the coefficient against the normalized indicator, i.e.
    |raw_sum|^2 / (n |C|).
    """

    cell: tuple
    raw_sum: GaussianRational
    coef_norm_sq: Fraction


def fourier_coefficients(act: GroupAction, f: PointFunction) -> List[FourierCoefficient]:
    _check_shapes(act, f)
    part, sums = _cell_sums(act, f)
    n = act.degree
    out = []
    for cell, s in zip(part.cells, sums):
        out.append(
            FourierCoefficient(
                cell=cell,
                raw_sum=s,
                coef_norm_sq=s.norm_sq() / (n * len(cell)),
            )
        )
    return out


def bessel_check(act: GroupAction, f: PointFunction):
    """Both sides of sum_i |sum_{C_i} f|^2 / |C_i|  <=  sum_x |f(x)|^2.

    Returns (lhs, rhs) exactly; checks the inequality, with equality
    exactly when f is invariant.
    """
    _check_shapes(act, f)
    part, sums = _cell_sums(act, f)
    lhs = sum(
        (s.norm_sq() / len(cell) for cell, s in zip(part.cells, sums)),
        Fraction(0),
    )
    rhs = sum((v.norm_sq() for v in f.values), Fraction(0))
    if lhs > rhs:
        raise InvariantViolated("projection norm exceeded the function norm", lhs, rhs)
    invariant = is_invariant(act, f) is not None
    if (lhs == rhs) != invariant:
        raise InvariantViolated(
            "Bessel equality disagrees with the invariance scan", lhs, rhs, invariant=invariant
        )
    return lhs, rhs


def strict_bessel_witness(act: GroupAction) -> PointFunction:
    """A function whose projection strictly shrinks: the first point in a
    nonsingleton orbit gives a delta function that averages down."""
    for cell in act.orbits().cells:
        if len(cell) > 1:
            f = PointFunction.delta(act.degree, cell[0])
            lhs, rhs = norm_squared(fourier_projection(act, f)), norm_squared(f)
            if lhs >= rhs:
                raise InvariantViolated(
                    "projection of a delta did not shrink its norm", lhs, rhs, point=cell[0]
                )
            return f
    raise ActionIsTrivial(
        "every orbit is a singleton; projection is the identity",
        degree=act.degree,
    )


def value_sum(f: PointFunction) -> GaussianRational:
    """The linear functional f -> sum of all values; its kernel is the
    orthogonal complement of the constants."""
    total = ZERO
    for v in f.values:
        total = total + v
    return total


def decompose(act: GroupAction, f: PointFunction) -> Decomposition:
    """Split f along the orthogonal decompositions of the function space.

    invariant_part is the orbit-average projection and perp_part the
    residual; mean_part is the constant with the same value sum and
    zero_sum_part the residual against it.
    """
    _check_shapes(act, f)
    invariant_part = fourier_projection(act, f)
    perp_part = f - invariant_part
    mean = value_sum(f) * GaussianRational(Fraction(1, act.degree))
    mean_part = PointFunction.constant(act.degree, mean)
    zero_sum_part = f - mean_part
    for name, part in (("zero_sum_part", zero_sum_part), ("perp_part", perp_part)):
        total = value_sum(part)
        if not total.is_zero():
            raise InvariantViolated(f"{name} has a nonzero value sum", total, ZERO, part=name)
    return Decomposition(invariant_part, perp_part, mean_part, zero_sum_part)


def perp_zero_sum_check(act: GroupAction):
    """Check the complement of the invariant subspace sits inside the
    zero-sum hyperplane, with equality exactly for transitive actions.

    The complement is spanned by the perp parts of the point deltas; each is
    verified to have value sum zero. Equality is decided by dimensions:
    n - #orbits versus n - 1.
    """
    n = act.degree
    part = act.orbits()
    is_subset = True
    for x in range(n):
        spanner = PointFunction.delta(n, x) - fourier_projection(
            act, PointFunction.delta(n, x)
        )
        if not value_sum(spanner).is_zero():
            is_subset = False
    equality = (n - len(part)) == (n - 1)
    transitive = act.is_transitive()
    if equality != transitive:
        raise InvariantViolated(
            "one orbit by count disagrees with the transitivity scan", equality, transitive
        )
    return is_subset, equality
