"""JSON schemas for groups, actions, functions, subsets, and partitions.

Scalars travel as pairs of reduced fraction strings, so every report stays
exact and byte-stable. Parsing is strict: anything off-schema raises
``ParseError`` with the offending location in the witness. A list of rows or
ints may also be a tuple, as the writers return stored rows.

An action document is read in three stages: ``_action_reader`` checks the
shapes of the group document, then of the action's kind, ``act`` and declared
``degree``, and builds nothing; then the group is built; then the action is
made over it. So a table without ``act``, or an evaluation action over a
table-form group, is refused before any closure or Cayley-table check runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .actions import GroupAction, Partition, validate_action
from .errors import ParseError
from .groups import DEFAULT_CLOSURE_CAP, FiniteGroup, _check_degree, from_generators
from .groups import group_from_table

if TYPE_CHECKING:
    from .resind import InvariantSubset, SubsetFunction
    from .scalars import GaussianRational
    from .spaces import PointFunction

# The scalar, function-space and induction layers are imported by the readers
# that need them, so that parsing an action alone does not load them.


def _expect(obj, key, kinds, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object", where=where)
    if key not in obj:
        raise ParseError(f"{where} is missing {key!r}", where=where, missing=key)
    value = obj[key]
    if kinds is not None and (
        not isinstance(value, kinds) or (kinds is int and type(value) is bool)
    ):
        raise ParseError(
            f"{where}.{key} has the wrong type", where=where, key=key
        )
    return value


def _int_list(value, where):
    # JSON true and false are Python bools, which isinstance counts as ints;
    # one C-level pass over the entries' types refuses them.
    if not (isinstance(value, (list, tuple)) and {int}.issuperset(map(type, value))):
        raise ParseError(f"{where} must be a list of integers", where=where)
    return value


def _int_rows(rows, where):
    """rows, each checked by ``_int_list`` and named as ``where[i]``."""
    for i, row in enumerate(rows):
        _int_list(row, f"{where}[{i}]")
    return rows


def scalar_from_json(value, where="scalar") -> GaussianRational:
    from .scalars import GaussianRational

    try:
        return GaussianRational.from_pair(value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}", where=where, **exc.witness) from None


def scalar_to_json(value: GaussianRational) -> list:
    return value.to_pair()


def rational_to_json(value) -> str:
    return str(value)


def _group_reader(obj, cap: int):
    """Check a group document's keys and degree; return the call that builds it."""
    kind = _expect(obj, "kind", str, "group")
    if kind == "table":
        mul = _int_rows(_expect(obj, "mul", (list, tuple), "group"), "group.mul")
        labels = obj.get("labels")
        if labels is not None and (
            not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels)
        ):
            raise ParseError("group.labels must be a list of strings", where="group.labels")
        return lambda: group_from_table(mul, labels=labels)
    if kind == "permutation":
        degree = _expect(obj, "degree", int, "group")
        gens = _int_rows(_expect(obj, "generators", (list, tuple), "group"), "group.generators")
        _check_degree(degree)
        return lambda: from_generators(degree, gens, cap=cap)[0]
    raise ParseError(f"unknown group kind {kind!r}", kind=kind)


def group_from_json(obj, cap: int = DEFAULT_CLOSURE_CAP):
    """Returns (group, evaluation_act_or_None)."""
    group = _group_reader(obj, cap)()
    return group, group.perms if obj["kind"] == "permutation" else None


def group_to_json(group: FiniteGroup) -> dict:
    """``mul`` holds the stored row tuples, not copies; its JSON text is a list of lists."""
    doc = {"kind": "table", "mul": group.mul_table}
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def _action_reader(obj, cap: int):
    """The checked group document, the call that builds its group, and the
    call that makes the action over a built group."""
    group_doc = _expect(obj, "group", dict, "action")
    build = _group_reader(group_doc, cap)
    kind = obj.get("kind", "table")
    if kind == "evaluation":
        if group_doc["kind"] != "permutation":
            raise ParseError("evaluation actions need a permutation-form group", kind=kind)
        width, make = group_doc["degree"], lambda group: GroupAction._trusted(group, group.perms)
    elif kind == "table":
        act = _int_rows(_expect(obj, "act", (list, tuple), "action"), "action.act")
        width, make = len(act[0]) if act else None, lambda group: validate_action(group, act)
    else:
        raise ParseError(f"unknown action kind {kind!r}", kind=kind)
    degree = _expect(obj, "degree", int, "action") if "degree" in obj else width
    if width is not None and degree != width:
        message = f"declared degree {degree} does not match table width {width}"
        raise ParseError(message, degree=degree, width=width)
    return group_doc, build, make


def action_from_json(obj, cap: int = DEFAULT_CLOSURE_CAP) -> GroupAction:
    """The three stages of the module docstring, in order."""
    _, build, make = _action_reader(obj, cap)
    return make(build())


def action_to_json(action: GroupAction) -> dict:
    """``act`` holds the stored row tuples, not copies; its JSON text is a list of lists."""
    return {
        "group": group_to_json(action.group),
        "degree": action.degree,
        "act": action.act,
    }


def _values_from_json(values) -> PointFunction:
    from .scalars import parse_pairs
    from .spaces import PointFunction

    columns = parse_pairs(values)
    if columns is not None:
        return PointFunction._from_columns(*columns)
    # some value is off the wire format: read one by one, naming the first bad one
    return PointFunction(
        scalar_from_json(v, where=f"function.values[{i}]") for i, v in enumerate(values)
    )


def function_from_json(obj, degree: Optional[int] = None) -> PointFunction:
    f = _values_from_json(_expect(obj, "values", list, "function"))
    if degree is not None and f.degree != degree:
        raise ParseError(
            f"function has {f.degree} values, expected {degree}",
            values=f.degree,
            degree=degree,
        )
    return f


def function_to_json(f: PointFunction) -> dict:
    return {"values": f.to_pairs()}


def subset_function_from_json(obj, subset: InvariantSubset) -> SubsetFunction:
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


def subset_function_to_json(g: SubsetFunction) -> dict:
    return {
        "subset": list(g.subset.points),
        "values": g.as_point_function().to_pairs(),
    }


def partition_from_json(obj) -> Partition:
    degree = _expect(obj, "degree", int, "partition")
    cells = _int_rows(_expect(obj, "cells", (list, tuple), "partition"), "partition.cells")
    try:
        return Partition(degree, cells)
    except ValueError as exc:
        raise ParseError(f"invalid partition: {exc}", degree=degree) from None


def partition_to_json(p: Partition) -> dict:
    return {"degree": p.degree, "cells": [list(c) for c in p.cells]}
