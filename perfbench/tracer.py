"""Run one orbitspace CLI command in this process with its layers traced.

Usage: python3 perfbench/tracer.py SPANS_FILE COMMAND_ID -- ARGS...

Before calling ``orbitspace.cli.main(ARGS)``, the public functions of the
layer modules (and a few named methods and private I/O helpers) are wrapped
so that each call records a span: name, start, end, parent. Every module
namespace that imported a wrapped function is patched too, so
``cli.bessel_check`` and ``resind.is_invariant`` are traced. Hot
per-element calls are only counted. Spans and counts stay in memory and are
written to SPANS_FILE as JSON when the command ends. Nothing here changes
what the command prints or its exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("groups", "actions", "spaces", "resind", "jsonio", "partitions", "corpus", "cli")

# public methods that per-layer metrics name, by module.class
METHODS = {
    "groups.FiniteGroup": ("subgroup_generated",),
    "actions.GroupAction": ("orbits", "burnside_dimension"),
}

# private functions that are the CLI's only read and render paths
PRIVATE = ("cli._read_json", "cli._render")

# per-element functions: counted, never spanned
COUNTED = ("groups.compose",)


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {
            "groups.compose": 0,
            "groups.elements": 0,
            "groups.closure_elements": 0,
            "actions.fix": 0,
            "scalars.gr_created": 0,
            "jsonio.bytes_in": 0,
            "cli.bytes_out": 0,
        }

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layers and patch every orbitspace namespace."""
        modules = {name: importlib.import_module(f"orbitspace.{name}") for name in LAYERS}
        scalars = importlib.import_module("orbitspace.scalars")
        counts = self.counts
        replace = {}  # id(original) -> wrapper

        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if key in COUNTED:
                    replace[id(obj)] = self.counter(key, obj)
                else:
                    replace[id(obj)] = self.span(key, obj)
        for key in PRIVATE:
            layer, name = key.split(".")
            obj = getattr(modules[layer], name)
            replace[id(obj)] = self.span(key, obj)

        for dotted, names in METHODS.items():
            layer, cls_name = dotted.split(".")
            cls = getattr(modules[layer], cls_name)
            for name in names:
                setattr(cls, name, self.span(f"{dotted}.{name}", getattr(cls, name)))
        action_cls = modules["actions"].GroupAction
        action_cls.fix = self.counter("actions.fix", action_cls.fix)

        group_init = modules["groups"].FiniteGroup.__init__

        def finite_group_init(group, *args, **kwargs):
            group_init(group, *args, **kwargs)
            counts["groups.elements"] += group.order

        modules["groups"].FiniteGroup.__init__ = finite_group_init

        gr_init = scalars.GaussianRational.__init__

        def gaussian_init(z, re=0, im=0):
            counts["scalars.gr_created"] += 1
            gr_init(z, re, im)

        scalars.GaussianRational.__init__ = gaussian_init

        # results that feed counters: closure size, bytes read and rendered
        from_generators = replace[id(modules["groups"].from_generators)]

        def closure_counted(*args, **kwargs):
            result = from_generators(*args, **kwargs)
            counts["groups.closure_elements"] += len(result[1])
            return result

        replace[id(modules["groups"].from_generators)] = closure_counted
        read_json = replace[id(modules["cli"]._read_json)]

        def read_counted(path):
            counts["jsonio.bytes_in"] += os.path.getsize(path)
            return read_json(path)

        replace[id(modules["cli"]._read_json)] = read_counted
        render = replace[id(modules["cli"]._render)]

        def render_counted(doc):
            text = render(doc)
            counts["cli.bytes_out"] += len(text.encode("utf-8"))
            return text

        replace[id(modules["cli"]._render)] = render_counted

        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("orbitspace"):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        return modules["cli"].main

    def dump(self, path):
        doc = {"command": self.command_id, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_FILE COMMAND_ID -- ARGS...", file=sys.stderr)
        return 2
    spans_path, command_id, args = argv[0], argv[1], argv[3:]
    tracer = Tracer(command_id)
    cli_main = tracer.install()
    try:
        return cli_main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
