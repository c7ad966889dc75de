"""The CLI handlers that only some commands run.

``cli.main`` imports this module when one of these commands runs: the four
function commands (``fourier``, ``bessel``, ``decompose``, ``reciprocity``),
``from-partition``, ``equivalence`` and ``corpus build``. So ``validate``,
``orbits``, ``dimension``, ``free-check``, ``corpus list``, ``--help`` and
a usage error never compile them. Each handler imports the layers it runs.
"""

from __future__ import annotations

from .cli import _integer, _load_action, _read_json
from .errors import ParseError


def _load_function(args, action):
    from .jsonio import function_from_json

    return function_from_json(_read_json(args.function[0]), degree=action.degree)


def _cmd_fourier(args):
    from .jsonio import function_to_json, rational_to_json, scalar_to_json
    from .spaces import fourier_coefficients, fourier_projection

    action = _load_action(args)
    f = _load_function(args, action)
    entries = fourier_coefficients(action, f)
    projection = fourier_projection(action, f, entries)
    return {
        "projection": function_to_json(projection),
        "coefficients": [
            {
                "cell": list(entry.cell),
                "raw_sum": scalar_to_json(entry.raw_sum),
                "coef_norm_sq": rational_to_json(entry.coef_norm_sq),
            }
            for entry in entries
        ],
        "is_invariant": projection == f,  # both reduced: f is invariant iff it is its projection
    }


def _cmd_bessel(args):
    from .jsonio import rational_to_json
    from .spaces import bessel_check

    action = _load_action(args)
    f = _load_function(args, action)
    # bessel_check raises unless equality agrees with the invariance scan
    lhs, rhs = bessel_check(action, f)
    return {
        "lhs": rational_to_json(lhs),
        "rhs": rational_to_json(rhs),
        "equal": lhs == rhs,
        "is_invariant": lhs == rhs,
    }


def _cmd_decompose(args):
    from .jsonio import function_to_json, scalar_to_json
    from .spaces import decompose, value_sum

    action = _load_action(args)
    f = _load_function(args, action)
    parts = decompose(action, f)
    return {
        "invariant_part": function_to_json(parts.invariant_part),
        "perp_part": function_to_json(parts.perp_part),
        "mean_part": function_to_json(parts.mean_part),
        "zero_sum_part": function_to_json(parts.zero_sum_part),
        "value_sum": scalar_to_json(value_sum(f)),
    }


def _cmd_reciprocity(args):
    from .jsonio import function_from_json, scalar_to_json, subset_function_from_json
    from .resind import invariant_subset, reciprocity_check

    action = _load_action(args)
    subset = invariant_subset(action, args.subset[0])
    # the first function is on the subset, the second on all points
    f = subset_function_from_json(_read_json(args.function[0]), subset)
    g = function_from_json(_read_json(args.function[1]), degree=action.degree)
    lhs, rhs = reciprocity_check(subset, f, g)
    return {
        "lhs": scalar_to_json(lhs),
        "rhs": scalar_to_json(rhs),
        "equal": lhs == rhs,
        "subset": list(subset.points),
    }


def _cmd_from_partition(args):
    """Membership reads generator rows: maps that keep each cell compose to such maps."""
    from .jsonio import partition_from_json
    from .partitions import group_from_partition, preserves_cells

    partition = partition_from_json(_read_json(args.input[0]))
    group, action = group_from_partition(
        partition, minimal_generators=args.minimal_generators, cap=args.cap
    )
    membership_ok = all(preserves_cells(partition, action.act[s]) for s in group.generators)
    return {
        "order": group.order,
        "degree": partition.degree,
        # _closure numbers the transpositions 1..k in order: distinct, and none is the identity
        "generators": [list(action.act[s]) for s in group.generators],
        "orbit_cells": [list(c) for c in action.orbits().cells],
        "round_trip": "ok",  # group_from_partition raises unless the orbits are the cells
        "cell_preserving_membership": "ok" if membership_ok else "violated",
    }


def _cmd_equivalence(args):
    from .actions import are_equivalent
    from .jsonio import _action_reader

    group_doc, build, make = _action_reader(_read_json(args.input[0]), args.cap)
    a1 = make(build())
    # after both shape checks, == no longer equates true, 1 and 1.0
    doc, build, make = _action_reader(_read_json(args.input[1]), args.cap)
    a2 = make(a1.group if doc == group_doc else build())
    phi = are_equivalent(a1, a2)
    return {"equivalent": phi is not None, "bijection": phi}


def _parse_param(text: str):
    if "=" not in text:
        raise ParseError(f"--param expects key=value, got {text!r}", param=text)
    key, raw = text.split("=", 1)
    value: object
    number, items = _integer(raw), [_integer(p) for p in raw.split(",") if p]
    if raw.lower() in ("true", "false"):
        value = raw.lower() == "true"
    elif number is not None:
        value = number
    elif "," in raw and None not in items:
        value = items
    else:
        value = raw
    return key, value


def _cmd_corpus_build(args):
    """Every --param is parsed, and a repeated key refused, before anything is built."""
    from . import corpus as corpus_mod
    from .jsonio import action_to_json

    params = {}
    for text in args.param or ():
        key, value = _parse_param(text)
        if key in params:
            raise ParseError(f"--param {key} is given more than once", param=key)
        params[key] = value
    entry = corpus_mod.build(args.name, **params)
    doc = action_to_json(entry.action)
    doc.update(
        {
            "name": entry.name,
            "params": entry.params,
            "expected": entry.expected,
            "divisibility": entry.divisibility(),
        }
    )
    return doc
