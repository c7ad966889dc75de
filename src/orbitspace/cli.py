"""Command-line interface: JSON in, JSON out, deterministic byte-for-byte.

Every command reads schema-checked JSON, runs one analysis, and emits a
canonical report (sorted keys, two-space indent, trailing newline). Exit
codes: 0 success (``-h``/``--help`` writes a JSON usage report), 2 a named
invariant failed (the report carries the error kind and witness), 3
unparseable input or a usage error.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import OrbitspaceError, ParseError, SizeLimitExceeded

# Each command imports the layers it runs, so that `corpus list`, `--help` and
# a usage error load no layer beyond this module and errors. The handlers of
# the function commands, `from-partition`, `equivalence` and `corpus build`
# are in `commands`, which only those commands load.


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
    """Stream to ``output``, else stdout; an unwritable ``output`` gets a ParseError
    report on stdout, and an unwritable stdout one on stderr, with exit code 3.

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
    failure = _send(sys.stdout, doc)
    if failure is None:
        return code
    # when stderr fails too, the exit code alone carries the failure
    _send(sys.stderr, _report(ParseError(f"cannot write stdout: {failure}", stream="stdout")))
    return 3


def _send(stream, doc) -> OSError | None:
    """Write and flush ``doc`` on a standard stream; the error if that fails.

    On failure the stream's descriptor is pointed at ``os.devnull`` (as the
    note on SIGPIPE in the ``signal`` docs does), so the interpreter's flush
    at exit cannot fail on it again and turn the exit code into 120.
    """
    try:
        stream.writelines(_chunks(doc))
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def _report(exc: OrbitspaceError) -> dict:
    return {"error": exc.kind, "message": str(exc), "witness": exc.witness}


def _default_cap() -> int:
    """The closure cap of a command given no --cap: ``ORBITSPACE_CAP`` when
    set, else ``DEFAULT_CLOSURE_CAP``. No library function reads the variable."""
    raw = os.environ.get("ORBITSPACE_CAP")
    if raw is None:
        from .groups import DEFAULT_CLOSURE_CAP

        return DEFAULT_CLOSURE_CAP
    cap = _integer(raw)
    if cap is None or cap < 1:
        raise ParseError(
            f"ORBITSPACE_CAP must be a positive integer, got {raw!r}",
            variable="ORBITSPACE_CAP",
            value=raw,
        )
    return cap


def _integer(text: str):
    """The int that ASCII digits after an optional "-" spell, else None; int()
    would also take "1_000", surrounding whitespace and any Unicode digit.
    Digits past the interpreter's limit on int strings are None too."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # sys.get_int_max_str_digits()
            pass
    return None


def _load_action(args):
    from .jsonio import action_from_json

    return action_from_json(_read_json(args.input[0]), cap=args.cap)


def _load_subgroup(action, args):
    if args.subgroup is None:
        return None
    return action.group.subgroup_generated(args.subgroup)


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


# ---------------------------------------------------------------------------
# wiring

# Flag kinds: "value" (the last one given counts), "integer" (a positive one),
# "integers" (a comma list, empty items skipped), "repeatable" (collected into
# a list) and "switch"; a key without dashes is positional. A kind with a
# count, as "value x2", is collected into a list and given exactly that often.
_IO = {"--input": "value x1", "--output": "value", "--cap": "integer"}
_SUBGROUP = {**_IO, "--subgroup": "integers"}
_FUNCTIONS = {**_IO, "--function": "value x1"}
_RECIPROCITY = {**_IO, "--function": "value x2", "--subset": "integers x1"}
_PAIR = {**_IO, "--input": "value x2"}
_PARTITION = {**_IO, "--minimal-generators": "switch"}
_BUILD = {"name": "positional", "--param": "repeatable", "--output": "value"}

# command -> (handler, help line, flags); a handler given by name is in `commands`
_COMMANDS = {
    "validate": (_cmd_validate, "check a group action table", _IO),
    "orbits": (_cmd_orbits, "orbit partition of an action", _IO),
    "dimension": (_cmd_dimension, "invariant-space dimension by fixed-point count", _SUBGROUP),
    "free-check": (_cmd_free_check, "freeness, and the dimension ratio for a subgroup", _SUBGROUP),
    "fourier": ("_cmd_fourier", "orbit-average projection and coefficients", _FUNCTIONS),
    "bessel": ("_cmd_bessel", "both sides of the projection norm inequality", _FUNCTIONS),
    "decompose": ("_cmd_decompose", "orthogonal splittings of a function", _FUNCTIONS),
    "reciprocity": ("_cmd_reciprocity", "adjointness of induction and restriction", _RECIPROCITY),
    "from-partition": ("_cmd_from_partition", "realize partition cells as orbits", _PARTITION),
    "equivalence": ("_cmd_equivalence", "search for an equivariant bijection", _PAIR),
    "corpus list": (_cmd_corpus_list, "list corpus names", {"--output": "value"}),
    "corpus build": ("_cmd_corpus_build", "build one corpus entry", _BUILD),
}


def _usage():
    commands = {name: {"help": entry[1], "flags": entry[2]} for name, entry in _COMMANDS.items()}
    return {"usage": "orbitspace COMMAND [--flag VALUE | --flag=VALUE]...", "commands": commands}


def _parse_args(argv):
    """Parse argv against ``_COMMANDS``; every usage error is a ``ParseError``.

    ``--flag value`` takes the next token unless it starts with ``--``, and
    ``--flag=value`` takes the rest of the token as it is. Flags match whole,
    never by prefix. The counts are checked once every token is read.
    """
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command not in _COMMANDS and rest and f"{command} {rest[0]}" in _COMMANDS:
        command, rest = f"{command} {rest[0]}", rest[1:]
    if command not in _COMMANDS:
        problem = f"unknown command {command!r}" if argv else "missing command"
        raise ParseError(f"{problem}; known: {', '.join(_COMMANDS)}", command=command)
    flags = {key: spec.partition(" x")[::2] for key, spec in _COMMANDS[command][2].items()}
    values = {key: False if kind == "switch" else None for key, (kind, _) in flags.items()}
    positional = [key for key, (kind, _) in flags.items() if kind == "positional"]
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if not positional:
                raise ParseError(f"unexpected argument {token!r}", command=command, argument=token)
            values[positional.pop(0)] = token
            continue
        flag, has_value, value = token.partition("=")
        if flag not in flags:  # --help lists the flags of every command
            raise ParseError(f"{command} has no flag {flag!r}", command=command, flag=flag)
        kind, count = flags[flag]
        if kind == "switch":
            if has_value:
                raise ParseError(f"{flag} takes no value", flag=flag, value=value)
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ParseError(f"{flag} needs a value", flag=flag, value=value)
        if kind == "integer":
            number = _integer(value)
            if number is None:
                message = f"{flag} expects an integer, got {value!r}"
                raise ParseError(message, flag=flag, value=value)
            if number < 1:
                raise ParseError(f"{flag} must be positive, got {number}", flag=flag, value=number)
            value = number
        elif kind == "integers":
            numbers = [_integer(part) for part in value.split(",") if part]
            if None in numbers:
                message = f"{flag} expects comma-separated integers, got {value!r}"
                raise ParseError(message, flag=flag)
            value = numbers
        if count or kind == "repeatable":
            value = (values[flag] or []) + [value]
        values[flag] = value
    if positional:
        raise ParseError(f"{command} needs {positional[0].upper()}", command=command)
    for flag, (_, count) in flags.items():
        if count and (given := len(values[flag] or ())) != int(count):
            message = f"{command} needs exactly {count} {flag}, got {given}"
            raise ParseError(message, command=command, flag=flag, given=given)
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
            run, _, flags = _COMMANDS[args.command]
            if isinstance(run, str):
                from . import commands

                run = getattr(commands, run)
            # commands without --cap never read ORBITSPACE_CAP
            if "--cap" in flags and args.cap is None:
                args.cap = _default_cap()
            output = args.output  # a usage error is reported on stdout
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


def run() -> int:
    """The process entry of ``python -m orbitspace``, ``python -m orbitspace.cli``
    and the ``orbitspace`` script: ``main()``, then ``gc.freeze()``.

    At shutdown the interpreter clears every module and runs one last full
    collection, which frees the heap object by object just before the process
    drops it whole; that collection skips frozen objects. The report is
    written and flushed by then, and exit codes, the flush of the standard
    streams and atexit handlers are left to Python as before. ``main()``
    never freezes, so a caller that runs it in-process keeps its collector.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    # python -m orbitspace.cli: `commands` imports this module's readers as
    # orbitspace.cli, which is then this module rather than a second copy
    sys.modules.setdefault("orbitspace.cli", sys.modules[__name__])
    raise SystemExit(run())
