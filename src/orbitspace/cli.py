"""Command-line interface: JSON in, JSON out, deterministic byte-for-byte.

Every command reads schema-checked JSON, runs one analysis, and emits a
canonical report (sorted keys, two-space indent, trailing newline). Exit
codes: 0 success (``-h``/``--help`` writes a JSON usage report), 2 a named
invariant failed (the report carries the error kind and witness), 3
unparseable input or a usage error.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import OrbitspaceError, ParseError, SizeLimitExceeded

# Each command imports the layers it runs, so that `corpus list`, `--help` and
# a usage error load no layer beyond this module and errors.


class _Memo(dict):
    """``memo[key]`` is ``convert(key)``, computed once; one per document or report."""

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _read_json(path: str):
    """The parsed document, its equal ints one object: |G|·|X| table cells, |X| values."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read(), parse_int=_Memo(int).__getitem__)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=path) from None
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, ints past the digit limit and deep nesting too
        raise ParseError(f"{path} is not valid JSON: {exc}", path=path) from None


def _render(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The join of the chunks that ``_emit`` writes. No command calls it, so a
    tracer that spans it or counts its output sees no time and no bytes.
    """
    return "".join(_chunks(doc))


def _chunks(doc, size: int = 1 << 16):
    """The report text in chunks, trailing newline last.

    Small pieces are joined until they hold ``size`` characters; a piece of
    ``size`` or more (one long list) goes out on its own, unjoined.
    """
    batch, held = [], 0
    for piece in _write(doc, "\n", _Memo(str)):
        if len(piece) >= size:
            if batch:
                yield "".join(batch)
                batch, held = [], 0
            yield piece
            continue
        batch.append(piece)
        held += len(piece)
        if held >= size:
            yield "".join(batch)
            batch, held = [], 0
    batch.append("\n")
    yield "".join(batch)


def _write(value, newline: str, strs: _Memo):
    """Yield the indented JSON text of value in pieces; newline ends with its indent.

    json's indenting encoder is pure Python, element by element (only
    ``indent=None`` reaches the C encoder). Here a list of plain ints, or of
    ``[str, str]`` pairs, is one C-level join and one piece; ``strs`` renders
    each distinct int of the report once. In any other list, an item that is
    the object just before it, and whose text was one piece, reuses that
    text: the memo holds one row's text at most. Keys and pair
    strings go through json's own ``encode_basestring_ascii``, other scalars
    through ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                key = json.dumps(key)  # json writes number, bool and null keys as strings
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _write(item, inner, strs)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        types = set(map(type, value))
        if types == {int}:  # bools and int subclasses take the long way
            yield "[" + inner + ("," + inner).join(map(strs.__getitem__, value)) + newline + "]"
            return
        if (
            types == {list}
            and set(map(len, value)) == {2}
            and set(map(type, chain.from_iterable(value))) == {str}
        ):  # the [re, im] values of a function
            pair = "[" + inner + "  {}," + inner + "  {}" + inner + "]"
            flat = list(map(encode_basestring_ascii, chain.from_iterable(value)))
            pairs = map(pair.format, flat[::2], flat[1::2])
            yield "[" + inner + ("," + inner).join(pairs) + newline + "]"
            return
        sep, last, text = "[" + inner, None, None
        for item in value:
            yield sep
            sep = "," + inner
            if last is not None and item is last:  # one row repeated, as in a trivial action
                yield text
                continue
            pieces = _write(item, inner, strs)
            text = next(pieces)
            rest = next(pieces, None)
            last = item if rest is None else None
            yield text
            if rest is not None:
                yield rest
                yield from pieces
        yield newline + "]"
    else:
        yield json.dumps(value)


def _emit(doc, output: str | None, code: int) -> int:
    """Stream to ``output``, else stdout; an unwritable ``output`` gets a ParseError report.

    The report goes out in ``_chunks``, so the longest text held, and encoded
    by the write, is one chunk: under 128 KiB, or one long list's text. A
    failed ``output`` may be left partly written.
    """
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(_chunks(doc))
            return code
        except OSError as exc:
            error = ParseError(f"cannot write {output}: {exc}", path=output)
            return _emit(_report(error), None, 3)
    sys.stdout.writelines(_chunks(doc))
    return code


def _report(exc: OrbitspaceError) -> dict:
    return {"error": exc.kind, "message": str(exc), "witness": exc.witness}


def _default_cap() -> int:
    """The closure cap of a command given no --cap: ``ORBITSPACE_CAP`` when
    set, else ``DEFAULT_CLOSURE_CAP``. No library function reads the variable."""
    from .groups import DEFAULT_CLOSURE_CAP

    raw = os.environ.get("ORBITSPACE_CAP")
    if raw is None:
        return DEFAULT_CLOSURE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ParseError(
            f"ORBITSPACE_CAP must be a positive integer, got {raw!r}",
            variable="ORBITSPACE_CAP",
            value=raw,
        )
    return int(raw)


def _parse_int_csv(text: str, flag: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError(f"{flag} expects comma-separated integers, got {text!r}", flag=flag) from None


def _single_input(args):
    if not args.input or len(args.input) != 1:
        raise ParseError("this command takes exactly one --input file")
    return _read_json(args.input[0])


def _load_action(args):
    from .jsonio import action_from_json

    return action_from_json(_single_input(args), cap=args.cap)


def _load_subgroup(action, args):
    if args.subgroup is None:
        return None
    return action.group.subgroup_generated(_parse_int_csv(args.subgroup, "--subgroup"))


def _load_function(args, action, position: int = 0):
    from .jsonio import function_from_json

    if not args.function or len(args.function) <= position:
        raise ParseError("missing --function file")
    return function_from_json(_read_json(args.function[position]), degree=action.degree)


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args):
    action = _load_action(args)
    return {
        "valid": True,
        "group_order": action.group.order,
        "degree": action.degree,
    }


def _cmd_orbits(args):
    action = _load_action(args)
    part = action.orbits()
    return {
        "orbit_count": len(part),
        "cells": [list(c) for c in part.cells],
        "orbit_sizes": [len(c) for c in part.cells],
    }


def _cmd_dimension(args):
    action = _load_action(args)
    h = _load_subgroup(action, args)
    order = h.order if h is not None else action.group.order
    total = action.fixed_point_total(h)
    return {
        "dim": total // order,
        "burnside_sum": total,
        "group_order": action.group.order,
        "subgroup_order": order,
    }


def _cmd_free_check(args):
    from .jsonio import rational_to_json

    action = _load_action(args)
    if args.subgroup is not None:  # free_ratio_check refuses a non-free action
        ratio, index = action.free_ratio_check(_load_subgroup(action, args))
        return {"is_free": True, "ratio": rational_to_json(ratio), "index": index}
    violation = action.free_witness()
    if violation is None:
        return {"is_free": True}
    return {"is_free": False, "witness": {"element": violation[0], "point": violation[1]}}


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
    if args.subset is None:
        raise ParseError("reciprocity needs --subset")
    subset = invariant_subset(action, _parse_int_csv(args.subset, "--subset"))
    if not args.function or len(args.function) != 2:
        raise ParseError(
            "reciprocity needs two --function files: first on the subset, then on all points"
        )
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

    partition = partition_from_json(_single_input(args))
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

    if not args.input or len(args.input) != 2:
        raise ParseError("equivalence takes exactly two --input files")
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
    if raw.lower() in ("true", "false"):
        value = raw.lower() == "true"
    elif raw.removeprefix("-").isdecimal():  # isdigit passes "²", which int refuses
        value = int(raw)
    elif "," in raw and all(p.removeprefix("-").isdecimal() for p in raw.split(",") if p):
        value = [int(p) for p in raw.split(",") if p]
    else:
        value = raw
    return key, value


# corpus.corpus_names(), kept here so that `corpus list` loads no layer
_CORPUS_NAMES = (
    "conjugation",
    "coset",
    "cyclic_translation",
    "gl_on_vectors",
    "order_p",
    "subgroup_conjugates",
    "subset_action",
    "sylow",
    "symmetric",
    "trivial",
    "two_sided",
)


def _cmd_corpus_list(args):
    return {"names": _CORPUS_NAMES}


def _cmd_corpus_build(args):
    from . import corpus as corpus_mod
    from .jsonio import action_to_json

    params = dict(_parse_param(p) for p in (args.param or []))
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


# ---------------------------------------------------------------------------
# wiring

# Flag kinds: "value" (the last one given counts), "integer", "repeatable"
# (collected into a list) and "switch"; a key without dashes is positional.
_IO = {"--input": "repeatable", "--output": "value", "--cap": "integer"}
_SUBGROUP = {**_IO, "--subgroup": "value"}
_FUNCTIONS = {**_IO, "--function": "repeatable"}
_RECIPROCITY = {**_FUNCTIONS, "--subset": "value"}
_PARTITION = {**_IO, "--minimal-generators": "switch"}
_BUILD = {"name": "positional", "--param": "repeatable", "--output": "value"}

# command -> (handler, help line, flags)
_COMMANDS = {
    "validate": (_cmd_validate, "check a group action table", _IO),
    "orbits": (_cmd_orbits, "orbit partition of an action", _IO),
    "dimension": (_cmd_dimension, "invariant-space dimension by fixed-point count", _SUBGROUP),
    "free-check": (_cmd_free_check, "freeness, and the dimension ratio for a subgroup", _SUBGROUP),
    "fourier": (_cmd_fourier, "orbit-average projection and coefficients", _FUNCTIONS),
    "bessel": (_cmd_bessel, "both sides of the projection norm inequality", _FUNCTIONS),
    "decompose": (_cmd_decompose, "orthogonal splittings of a function", _FUNCTIONS),
    "reciprocity": (_cmd_reciprocity, "adjointness of induction and restriction", _RECIPROCITY),
    "from-partition": (_cmd_from_partition, "realize partition cells as orbits", _PARTITION),
    "equivalence": (_cmd_equivalence, "search for an equivariant bijection", _IO),
    "corpus list": (_cmd_corpus_list, "list corpus names", {"--output": "value"}),
    "corpus build": (_cmd_corpus_build, "build one corpus entry", _BUILD),
}


def _usage():
    commands = {name: {"help": entry[1], "flags": entry[2]} for name, entry in _COMMANDS.items()}
    return {"usage": "orbitspace COMMAND [--flag VALUE | --flag=VALUE]...", "commands": commands}


def _parse_args(argv):
    """Parse argv against ``_COMMANDS``; every usage error is a ``ParseError``.

    ``--flag value`` takes the next token unless it starts with ``--``, and
    ``--flag=value`` takes the rest of the token as it is. Flags match whole,
    never by prefix.
    """
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command not in _COMMANDS and rest and f"{command} {rest[0]}" in _COMMANDS:
        command, rest = f"{command} {rest[0]}", rest[1:]
    if command not in _COMMANDS:
        problem = f"unknown command {command!r}" if argv else "missing command"
        raise ParseError(f"{problem}; known: {', '.join(_COMMANDS)}", command=command)
    flags = _COMMANDS[command][2]
    values = {key: False if kind == "switch" else None for key, kind in flags.items()}
    positional = [key for key, kind in flags.items() if kind == "positional"]
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if not positional:
                raise ParseError(f"unexpected argument {token!r}", command=command, argument=token)
            values[positional.pop(0)] = token
            continue
        flag, has_value, value = token.partition("=")
        kind = flags.get(flag)
        if kind is None:  # --help lists the flags of every command
            raise ParseError(f"{command} has no flag {flag!r}", command=command, flag=flag)
        if kind == "switch":
            if has_value:
                raise ParseError(f"{flag} takes no value", flag=flag, value=value)
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ParseError(f"{flag} needs a value", flag=flag, value=value)
        if kind == "integer":
            try:
                value = int(value)
            except ValueError:
                message = f"{flag} expects an integer, got {value!r}"
                raise ParseError(message, flag=flag, value=value) from None
        elif kind == "repeatable":
            value = (values[flag] or []) + [value]
        values[flag] = value
    if positional:
        raise ParseError(f"{command} needs {positional[0].upper()}", command=command)
    values = {key.lstrip("-").replace("-", "_"): value for key, value in values.items()}
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    output, code = None, 0
    try:
        if "-h" in argv or "--help" in argv:
            doc = _usage()
        else:
            args = _parse_args(argv)
            output = args.output
            run, _, flags = _COMMANDS[args.command]
            # commands without --cap never read ORBITSPACE_CAP
            if "--cap" in flags and args.cap is None:
                args.cap = _default_cap()
            elif "--cap" in flags and args.cap < 1:
                message = f"--cap must be positive, got {args.cap}"
                raise ParseError(message, flag="--cap", value=args.cap)
            try:
                doc = run(args)
            except MemoryError:
                doc = None  # the handler's frames and data are freed when this block ends
            if doc is None:
                message = f"{args.command} ran out of memory"
                raise SizeLimitExceeded(message, command=args.command)
    except OrbitspaceError as exc:
        doc, code = _report(exc), 3 if isinstance(exc, ParseError) else 2
    return _emit(doc, output, code)


if __name__ == "__main__":
    raise SystemExit(main())
