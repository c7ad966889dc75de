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

from fractions import Fraction
from itertools import chain
from operator import add, mul, neg, sub
from typing import Iterable, List, NamedTuple, Optional

from .actions import GroupAction, Partition
from .errors import ActionIsTrivial, DegreeMismatch, EmptyDomain, InvariantViolated
from .scalars import ZERO, GaussianRational, reduced, sum_by_denominator


def _scalar(re_num, re_den, im_num, im_den) -> GaussianRational:
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


class PointFunction:
    """A function on points 0..degree-1 with exact scalar values.

    The values are stored as four integer columns: the real numerators and
    denominators and the imaginary ones, each value in lowest terms with a
    positive denominator. Sums and inner products run on the columns;
    ``values``, the tuple of ``GaussianRational``, is built on first use.
    """

    __slots__ = ("_cols", "_values")

    def __init__(self, values: Iterable):
        if isinstance(values, PointFunction):
            self._cols, self._values = values._cols, values._values
            return
        vals = tuple(v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values)
        res, ims = [v.re for v in vals], [v.im for v in vals]
        self._cols = (
            tuple(r.numerator for r in res),
            tuple(r.denominator for r in res),
            tuple(i.numerator for i in ims),
            tuple(i.denominator for i in ims),
        )
        self._values = vals

    @classmethod
    def _from_columns(cls, re_num, re_den, im_num, im_den) -> "PointFunction":
        """From columns already in lowest terms with positive denominators."""
        f = cls.__new__(cls)
        f._cols, f._values = (re_num, re_den, im_num, im_den), None
        return f

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(map(_scalar, *self._cols))
        return self._values

    @property
    def degree(self) -> int:
        return len(self._cols[0])

    @classmethod
    def zero(cls, degree: int) -> "PointFunction":
        return cls.constant(degree, 0)

    @classmethod
    def constant(cls, degree: int, value) -> "PointFunction":
        z = value if isinstance(value, GaussianRational) else GaussianRational(value)
        parts = (z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)
        return cls._from_columns(*((part,) * degree for part in parts))

    @classmethod
    def ones(cls, degree: int) -> "PointFunction":
        return cls.constant(degree, 1)

    @classmethod
    def delta(cls, degree: int, point: int) -> "PointFunction":
        return cls.indicator(degree, (point,))

    @classmethod
    def indicator(cls, degree: int, points: Iterable[int]) -> "PointFunction":
        nums = [0] * degree
        for x in points:
            nums[x] = 1
        return cls._from_columns(tuple(nums), (1,) * degree, (0,) * degree, (1,) * degree)

    def _gather(self, points) -> "PointFunction":
        """The values at ``points``, in that order."""
        return PointFunction._from_columns(
            *(tuple(map(col.__getitem__, points)) for col in self._cols)
        )

    def __getitem__(self, x: int) -> GaussianRational:
        return self.values[x]

    def __len__(self) -> int:
        return self.degree

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "PointFunction") -> "PointFunction":
        _same_degree(self, other)
        return _combine(add, self._cols, other._cols)

    def __sub__(self, other: "PointFunction") -> "PointFunction":
        _same_degree(self, other)
        return _combine(sub, self._cols, other._cols)

    def __neg__(self) -> "PointFunction":
        rn, rd, in_, id_ = self._cols
        return PointFunction._from_columns(tuple(map(neg, rn)), rd, tuple(map(neg, in_)), id_)

    def scale(self, scalar) -> "PointFunction":
        return PointFunction(scalar * v for v in self.values)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self._cols[0]) and not any(self._cols[2])

    def __eq__(self, other):
        if not isinstance(other, PointFunction):
            return NotImplemented
        return self._cols == other._cols

    def __hash__(self):
        return hash(self._cols)

    def __repr__(self):
        return f"PointFunction([{', '.join(str(v) for v in self.values)}])"

    def to_pairs(self) -> list:
        """The wire form: one [re, im] pair of reduced "num/den" strings per point."""
        rn, rd, in_, id_ = self._cols
        return list(map(list, zip(map(_text, rn, rd), map(_text, in_, id_))))


def _text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a fraction already in lowest terms."""
    return f"{num}/{den}" if den != 1 else str(num)


def _combine(op, f_cols, g_cols) -> PointFunction:
    """f op g point by point, for op add or sub, reduced."""
    an, ad, bn, bd = f_cols
    cn, cd, en, ed = g_cols
    re = reduced(map(op, map(mul, an, cd), map(mul, cn, ad)), map(mul, ad, cd))
    im = reduced(map(op, map(mul, bn, ed), map(mul, en, bd)), map(mul, bd, ed))
    return PointFunction._from_columns(*re, *im)


def _dot(f_cols, g_cols):
    """sum f(x) conj(g(x)) over the columns of f and g, as (re, im) Fractions."""
    a, ad, b, bd = f_cols
    c, cd, e, ed = g_cols
    # (a + bi)(c - ei) = (ac + be) + (bc - ae)i
    re = _sum(
        chain(map(mul, a, c), map(mul, b, e)), chain(map(mul, ad, cd), map(mul, bd, ed))
    )
    im = _sum(
        chain(map(mul, b, c), map(neg, map(mul, a, e))), chain(map(mul, bd, cd), map(mul, ad, ed))
    )
    return re, im


def _sum(nums, dens) -> Fraction:
    return Fraction(*sum_by_denominator(nums, dens))


class InvariantCertificate(NamedTuple):
    """Witness that a function is constant on every orbit cell."""

    function: PointFunction
    partition: Partition
    orbit_values: tuple


class Decomposition(NamedTuple):
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
    return f._gather(act.act[act.group.inv(a)])


def is_invariant(act: GroupAction, f: PointFunction) -> Optional[InvariantCertificate]:
    """Certificate iff f is constant on each orbit; decided by an orbit scan."""
    _check_shapes(act, f)
    part = act.orbits()
    if not _constant_on_cells(part.cells, f):
        return None
    firsts = [cell[0] for cell in part.cells]
    return InvariantCertificate(f, part, f._gather(firsts).values)


def _constant_on_cells(cells, f: PointFunction) -> bool:
    """Whether f takes one value on each cell."""
    keys = list(zip(*f._cols))
    return all(len(set(map(keys.__getitem__, cell))) == 1 for cell in cells)


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
    re, im = _dot(f._cols, g._cols)
    return GaussianRational(re / n, im / n)


def norm_squared(f: PointFunction) -> Fraction:
    """<f, f> as a rational."""
    n = f.degree
    if n == 0:
        raise EmptyDomain("norm needs a nonempty point set", degree=0)
    return _square_sum(f) / n


def _square_sum(f: PointFunction, weights=None) -> Fraction:
    """sum of |f(x)|^2 / weights[x], the weights all 1 when not given."""
    rn, rd, in_, id_ = f._cols
    nums, dens = rn + in_, rd + id_
    squares = map(mul, dens, dens)
    if weights is not None:
        squares = map(mul, squares, weights * 2)
    return _sum(map(mul, nums, nums), squares)


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
    """The orbit partition, and the sum of f over each orbit as a function
    on the orbits."""
    part = act.orbits()
    rn, rd, in_, id_ = f._cols
    re, im = [], []
    for cell in part.cells:
        re.append(sum_by_denominator(map(rn.__getitem__, cell), map(rd.__getitem__, cell)))
        im.append(sum_by_denominator(map(in_.__getitem__, cell), map(id_.__getitem__, cell)))
    return part, PointFunction._from_columns(*zip(*re), *zip(*im))


def _cell_averages(part: Partition, sums: PointFunction, num=1, den=1) -> PointFunction:
    """The function equal to (num / den) sums[i] / |C_i| on each cell C_i."""
    rn, rd, in_, id_ = sums._cols
    dens = [den * len(cell) for cell in part.cells]
    re = reduced([num * x for x in rn], map(mul, rd, dens))
    im = reduced([num * x for x in in_], map(mul, id_, dens))
    return PointFunction._from_columns(*re, *im)._gather(part.cell_of)


def fourier_projection(act: GroupAction, f: PointFunction, coefficients=None) -> PointFunction:
    """Orthogonal projection onto the invariant subspace: average over each orbit.
    Given ``fourier_coefficients(act, f)``, it averages their raw sums, not f."""
    _check_shapes(act, f)
    if coefficients is None:
        return _cell_averages(*_cell_sums(act, f))
    return _cell_averages(act.orbits(), PointFunction(c.raw_sum for c in coefficients))


class FourierCoefficient(NamedTuple):
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
    # |a/c + (b/d)i|^2 / (n |C|) = (a^2 d^2 + b^2 c^2) / (c^2 d^2 n |C|)
    norms = [
        Fraction(a * a * d * d + b * b * c * c, c * c * d * d * n * len(cell))
        for cell, a, c, b, d in zip(part.cells, *sums._cols)
    ]
    return [
        FourierCoefficient(cell=cell, raw_sum=s, coef_norm_sq=norm)
        for cell, s, norm in zip(part.cells, sums.values, norms)
    ]


def bessel_check(act: GroupAction, f: PointFunction):
    """Both sides of sum_i |sum_{C_i} f|^2 / |C_i|  <=  sum_x |f(x)|^2.

    Returns (lhs, rhs) exactly; checks the inequality, with equality
    exactly when f is invariant.
    """
    _check_shapes(act, f)
    part, sums = _cell_sums(act, f)
    lhs = _square_sum(sums, [len(cell) for cell in part.cells])
    rhs = _square_sum(f)
    if lhs > rhs:
        raise InvariantViolated("projection norm exceeded the function norm", lhs, rhs)
    invariant = _constant_on_cells(part.cells, f)
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
    rn, rd, in_, id_ = f._cols
    return GaussianRational(_sum(rn, rd), _sum(in_, id_))


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
