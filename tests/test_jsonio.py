"""Schema round trips and strict parsing."""

import json
import sys
from fractions import Fraction

import pytest

from helpers import count_group_builds
from orbitspace import cli, cyclic_group, trivial_action
from orbitspace.actions import Partition
from orbitspace.corpus import build, corpus_names
from orbitspace.errors import CompatibilityViolated, NotAssociative, ParseError
from orbitspace.jsonio import (
    action_from_json,
    action_to_json,
    function_from_json,
    function_to_json,
    group_from_json,
    group_to_json,
    partition_from_json,
    partition_to_json,
    scalar_from_json,
    subset_function_from_json,
    subset_function_to_json,
)
from orbitspace.resind import SubsetFunction, invariant_subset
from orbitspace.scalars import GaussianRational
from orbitspace.spaces import PointFunction


def as_text(doc):
    """doc as a user's file holds it: the writers keep stored row tuples, JSON has lists."""
    return json.loads(cli._render(doc))


@pytest.mark.parametrize("name", corpus_names())
def test_the_readers_take_what_the_writers_return(name):
    action = build(name).action
    assert action_from_json(action_to_json(action)) == action
    group, evaluation = group_from_json(group_to_json(action.group))
    assert group == action.group and evaluation is None
    assert group.labels == action.group.labels


def test_tuples_are_read_like_lists_and_checked_like_them():
    cells = ((2, 0), (1,))
    assert partition_from_json({"degree": 3, "cells": cells}) == Partition(3, [[0, 2], [1]])
    doc = {"kind": "permutation", "degree": 2, "generators": ((1, 0),)}
    assert group_from_json(doc)[0].order == 2
    with pytest.raises(ParseError, match=r"group.mul\[1\] must be a list of integers"):
        group_from_json({"kind": "table", "mul": ((0, 1), (1, True))})


def test_group_table_round_trip():
    g = cyclic_group(3)
    doc = group_to_json(g)
    assert doc["kind"] == "table"
    parsed, evaluation = group_from_json(as_text(doc))
    assert parsed.mul_table == g.mul_table
    assert evaluation is None


def test_group_permutation_form():
    doc = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    group, evaluation = group_from_json(doc)
    assert group.order == 6
    assert evaluation is not None


def test_evaluation_action_shares_the_group_rows():
    gens = [[1, 2, 3, 0], [3, 2, 1, 0]]
    doc = {"kind": "evaluation", "group": {"kind": "permutation", "degree": 4, "generators": gens}}
    action = action_from_json(doc)
    assert action.group.order == 8
    assert all(action.act[a] is action.group.perms[a] for a in range(8))


def test_group_bad_kind():
    with pytest.raises(ParseError):
        group_from_json({"kind": "words"})


def test_group_invalid_table_surfaces_module_error():
    with pytest.raises(NotAssociative):
        group_from_json(
            {
                "kind": "table",
                "mul": [
                    [0, 1, 2, 3, 4],
                    [1, 0, 3, 4, 2],
                    [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1],
                    [4, 3, 1, 2, 0],
                ],
            }
        )


@pytest.mark.parametrize(
    "mul,where",
    [
        ([5, 6], "group.mul[0]"),
        ([[0, 1], "10"], "group.mul[1]"),
        ([[0, True], [True, 0]], "group.mul[0]"),
        ([[0, 1], [1, False]], "group.mul[1]"),
    ],
)
def test_table_rows_must_be_lists_of_integers(mul, where):
    with pytest.raises(ParseError) as exc:
        group_from_json({"kind": "table", "mul": mul})
    assert exc.value.witness == {"where": where}


def test_labels_must_be_a_list_of_strings():
    for labels in (5, ["e", 1]):
        with pytest.raises(ParseError):
            group_from_json({"kind": "table", "mul": [[0, 1], [1, 0]], "labels": labels})


def test_booleans_are_not_integers():
    table = {"kind": "table", "mul": [[0, 1], [1, 0]]}
    with pytest.raises(ParseError) as exc:
        action_from_json({"group": table, "act": [[0, 1], [True, 0]]})
    assert exc.value.witness == {"where": "action.act[1]"}
    with pytest.raises(ParseError) as exc:
        group_from_json({"kind": "permutation", "degree": 2, "generators": [[True, 0]]})
    assert exc.value.witness == {"where": "group.generators[0]"}
    with pytest.raises(ParseError) as exc:
        group_from_json({"kind": "permutation", "degree": True, "generators": []})
    assert exc.value.witness == {"where": "group", "key": "degree"}


def test_action_round_trip():
    act = trivial_action(cyclic_group(2), 3)
    doc = action_to_json(act)
    parsed = action_from_json(as_text(doc))
    assert parsed == act


def test_action_evaluation_kind():
    doc = {
        "kind": "evaluation",
        "group": {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0]]},
    }
    act = action_from_json(doc)
    assert act.degree == 3
    assert act.is_transitive()


def test_action_evaluation_requires_permutation_group(monkeypatch):
    """Refused from the document, before the table is checked or built."""
    from orbitspace import jsonio

    def refuse(*args, **kwargs):
        raise AssertionError("group_from_table ran")

    monkeypatch.setattr(jsonio, "group_from_table", refuse)
    for mul in ([[0]], [[0, 1], [0, 1]]):
        with pytest.raises(ParseError) as exc:
            action_from_json({"kind": "evaluation", "group": {"kind": "table", "mul": mul}})
        assert exc.value.witness == {"kind": "evaluation"}


def test_action_degree_mismatch_detected():
    g = cyclic_group(2)
    doc = {"group": as_text(group_to_json(g)), "degree": 5, "act": [[0, 1], [1, 0]]}
    with pytest.raises(ParseError):
        action_from_json(doc)


@pytest.mark.parametrize("degree", [True, 1.0, "1"])
def test_action_degree_must_be_an_int(degree):
    doc = {"group": {"kind": "table", "mul": [[0]]}, "act": [[0]], "degree": degree}
    with pytest.raises(ParseError) as info:
        action_from_json(doc)
    assert info.value.witness == {"where": "action", "key": "degree"}


def test_function_round_trip():
    f = PointFunction([GaussianRational(Fraction(1, 2), Fraction(-3, 4)), 2])
    doc = function_to_json(f)
    assert doc == {"values": [["1/2", "-3/4"], ["2", "0"]]}
    assert function_from_json(doc) == f


def test_function_degree_check():
    with pytest.raises(ParseError):
        function_from_json({"values": [["1", "0"]]}, degree=2)


def test_scalar_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        function_from_json({"values": [["1", "0"], "oops"]})
    assert "values[1]" in str(exc.value)
    with pytest.raises(ParseError):
        scalar_from_json(["1.5", "0"])


@pytest.mark.parametrize("on_subset", [False, True])
def test_an_int_past_the_digit_limit_is_named_without_its_digits(on_subset):
    """str() refuses ints past the interpreter's digit limit, so such a value
    can be neither written back nor shown in the message."""
    doc = {"values": [["1", "0"], [10**5000, 0]]}
    group = {"kind": "permutation", "degree": 2, "generators": []}
    subset = invariant_subset(action_from_json({"kind": "evaluation", "group": group}), [0, 1])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as exc:
            if on_subset:
                subset_function_from_json(doc, subset)
            else:
                function_from_json(doc)
    finally:
        sys.set_int_max_str_digits(limit)
    assert exc.value.witness == {"where": "function.values[1]"}
    assert len(str(exc.value)) < 100


def test_subset_function_round_trip():
    act = action_from_json(
        {
            "group": as_text(group_to_json(cyclic_group(2))),
            "act": [[0, 1, 2, 3], [1, 0, 2, 3]],
        }
    )
    y = invariant_subset(act, [0, 1])
    g = SubsetFunction(y, [1, 1])
    doc = subset_function_to_json(g)
    assert doc["subset"] == [0, 1]
    assert subset_function_from_json(doc, y) == g


def test_subset_function_mismatches():
    act = action_from_json(
        {
            "group": as_text(group_to_json(cyclic_group(2))),
            "act": [[0, 1, 2, 3], [1, 0, 2, 3]],
        }
    )
    y = invariant_subset(act, [0, 1])
    with pytest.raises(ParseError):
        subset_function_from_json({"subset": [2, 3], "values": [["1", "0"], ["1", "0"]]}, y)
    with pytest.raises(ParseError):
        subset_function_from_json({"values": [["1", "0"]]}, y)


def test_partition_round_trip():
    p = Partition(4, [[0, 2], [1], [3]])
    doc = partition_to_json(p)
    assert doc == {"degree": 4, "cells": [[0, 2], [1], [3]]}
    assert partition_from_json(doc) == p


def test_partition_rejects_bad_cells():
    with pytest.raises(ParseError):
        partition_from_json({"degree": 3, "cells": [[0, 1]]})
    with pytest.raises(ParseError):
        partition_from_json({"degree": 3, "cells": [[0], [0, 1, 2]]})
    with pytest.raises(ParseError) as exc:
        partition_from_json({"degree": 3, "cells": [[0, 0, 1], [2]]})
    assert str(exc.value) == "invalid partition: point 0 appears more than once"


def test_group_permutation_respects_cap():
    from orbitspace.errors import SizeLimitExceeded

    doc = {"kind": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [0, 2, 1, 3], [1, 2, 3, 0]]}
    with pytest.raises(SizeLimitExceeded):
        group_from_json(doc, cap=5)


@pytest.mark.parametrize(
    "keys, witness",
    [
        ({}, {"where": "action", "missing": "act"}),
        ({"act": [[0, 1], [1, True]]}, {"where": "action.act[1]"}),
        ({"act": [[0, 1]], "degree": "2"}, {"where": "action", "key": "degree"}),
        ({"act": [[0, 1]], "degree": 3}, {"degree": 3, "width": 2}),
    ],
    ids=["missing-act", "bool-entry", "degree-type", "degree-width"],
)
@pytest.mark.parametrize("kind", ["permutation", "table"])
def test_action_keys_are_refused_before_the_group_is_built(kind, keys, witness, monkeypatch):
    calls = count_group_builds(monkeypatch)
    if kind == "permutation":
        group = {"kind": "permutation", "degree": 2, "generators": [[1, 0]]}
    else:
        group = {"kind": "table", "mul": [[0, 1], [1, 0]]}
    with pytest.raises(ParseError) as exc:
        action_from_json({"kind": "table", "group": group, **keys})
    assert exc.value.witness == witness
    assert calls == []
    # the same document with a valid act builds its group once
    assert action_from_json({"group": group, "act": [[0, 1], [1, 0]]}).degree == 2
    assert calls == ["from_generators" if kind == "permutation" else "group_from_table"]


S3_PERMUTATIONS = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
C2_TABLE = {"kind": "table", "mul": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("kind", ["bogus", 1, None, True, "Evaluation", ["table"]])
def test_an_unknown_action_kind_is_refused_before_the_group_is_built(kind, monkeypatch):
    calls = count_group_builds(monkeypatch)
    act = [[0, 1], [1, 0]]
    with pytest.raises(ParseError, match="unknown action kind") as exc:
        action_from_json({"kind": kind, "group": C2_TABLE, "act": act})
    assert exc.value.witness == {"kind": kind}
    # the group document's shape is checked first
    with pytest.raises(ParseError) as exc:
        action_from_json({"kind": kind, "group": {"kind": "table", "mul": [[0, True]]}, "act": act})
    assert exc.value.witness == {"where": "group.mul[0]"}
    assert calls == []
    for known in ({}, {"kind": "table"}):
        assert action_from_json({**known, "group": C2_TABLE, "act": act}).degree == 2


@pytest.mark.parametrize(
    "degree, witness",
    [
        (5, {"degree": 5, "width": 3}),
        (2, {"degree": 2, "width": 3}),
        ("3", {"where": "action", "key": "degree"}),
        (True, {"where": "action", "key": "degree"}),
        (3.0, {"where": "action", "key": "degree"}),
    ],
)
def test_an_evaluation_action_checks_its_declared_degree(degree, witness, monkeypatch):
    calls = count_group_builds(monkeypatch)
    doc = {"kind": "evaluation", "group": S3_PERMUTATIONS}
    with pytest.raises(ParseError) as exc:
        action_from_json({**doc, "degree": degree})
    assert exc.value.witness == witness
    if "width" in witness:
        assert str(exc.value) == f"declared degree {degree} does not match table width 3"
    assert calls == []
    assert action_from_json({**doc, "degree": 3}).degree == 3
    assert calls == ["from_generators"]


def test_a_table_form_action_document_never_reaches_trusted(monkeypatch):
    from orbitspace.actions import GroupAction

    def refuse(cls, group, act):
        raise AssertionError("an act read from JSON was taken on trust")

    s3_rows = [list(row) for row in group_from_json(S3_PERMUTATIONS)[1]]
    written = as_text(action_to_json(trivial_action(cyclic_group(3), 2)))
    monkeypatch.setattr(GroupAction, "_trusted", classmethod(refuse))
    for doc in [
        {"group": S3_PERMUTATIONS, "act": s3_rows},
        {"group": S3_PERMUTATIONS, "degree": 3, "act": [[0, 1, 2]] * 6},
        {"group": C2_TABLE, "act": [[0, 1, 2, 3], [1, 0, 2, 3]]},
        written,
    ]:
        action = action_from_json(doc)
        assert action.act == tuple(map(tuple, doc["act"]))
    with pytest.raises(AssertionError, match="on trust"):  # the patch is live
        action_from_json({"kind": "evaluation", "group": S3_PERMUTATIONS})


@pytest.mark.parametrize(
    "group, act, message, witness",
    [
        (
            S3_PERMUTATIONS,
            [[0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0], [2, 0, 1], [0, 2, 2]],
            "act[5][2] = 2 repeats an image",
            {"a": 5, "point": 2, "value": 2},
        ),
        (
            C2_TABLE,
            [[0, 1, 2], [1, 1, 2]],
            "act[1][1] = 1 repeats an image",
            {"a": 1, "point": 1, "value": 1},
        ),
        (C2_TABLE, [[0, 1, 2], [1, 0]], "row 1 has length 2, expected 3", {"a": 1}),
        (
            C2_TABLE,
            [[0, 1, 2], [1, 0, 3]],
            "act[1][2] = 3 is not a point 0..2",
            {"a": 1, "point": 2, "value": 3},
        ),
    ],
    ids=["repeat-over-permutations", "repeat-over-table", "short-row", "out-of-range"],
)
def test_a_bad_act_row_in_a_table_form_document_keeps_its_witness(group, act, message, witness):
    with pytest.raises(CompatibilityViolated) as exc:
        action_from_json({"group": group, "act": act})
    assert str(exc.value) == message
    assert exc.value.witness == witness
