"""The readers of function documents.

``jsonio.function_from_json`` and ``subset_function_from_json`` import their
readers from here when called. Only the four function commands (``fourier``,
``bessel``, ``decompose`` and ``reciprocity``) read a function document, so
the action commands never compile this module.
"""

from __future__ import annotations

from .errors import ParseError
from .jsonio import _expect, _int_list, scalar_from_json
from .scalars import parse_pairs
from .spaces import PointFunction

TYPE_CHECKING = False  # the name type checkers read as typing.TYPE_CHECKING
if TYPE_CHECKING:
    from .resind import InvariantSubset, SubsetFunction

# The induction layer is imported by the subset reader that needs it, so
# that fourier, bessel and decompose do not load it.


def _values_from_json(values) -> PointFunction:
    columns = parse_pairs(values)
    if columns is not None:
        return PointFunction._from_columns(*columns)
    # some value is off the wire format: read one by one, naming the first bad one
    return PointFunction(
        scalar_from_json(v, where=f"function.values[{i}]") for i, v in enumerate(values)
    )


def checked_function(obj, degree: int | None = None) -> PointFunction:
    """``jsonio.function_from_json``: the document's values, as many as ``degree``."""
    f = _values_from_json(_expect(obj, "values", list, "function"))
    if degree is not None and f.degree != degree:
        raise ParseError(
            f"function has {f.degree} values, expected {degree}",
            values=f.degree,
            degree=degree,
        )
    return f


def checked_subset_function(obj, subset: InvariantSubset) -> SubsetFunction:
    """``jsonio.subset_function_from_json``: one value per point of ``subset``,
    and a declared ``subset`` key, if any, equal to its points."""
    from .resind import SubsetFunction

    values = _expect(obj, "values", list, "function")
    declared = obj.get("subset")
    if declared is not None:
        declared = _int_list(declared, "function.subset")
        if tuple(sorted(declared)) != subset.points:
            raise ParseError(
                "function.subset does not match the requested subset",
                declared=sorted(declared),
                subset=list(subset.points),
            )
    f = _values_from_json(values)
    if f.degree != subset.size:
        raise ParseError(
            f"function has {f.degree} values, subset has {subset.size} points",
            values=f.degree,
            size=subset.size,
        )
    return SubsetFunction(subset, f)
