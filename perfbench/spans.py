"""Span recorder for the traced run.

Each layer is an nbhdmc module.  `SpanRecorder.install` wraps the layer's
public functions listed in LAYERS and rebinds every copy that nbhdmc
modules hold under any name (the package namespace, and modules that
imported a function by name, such as `search`'s `evaluate`).  While an
op is open, each call records (name, start, end, parent span, op id);
direct self-recursion records nothing further, so `pretty`'s recursion
is one span.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

LAYERS = {
    "formula": ("parse", "pretty", "desugar"),
    "model": ("model_from_text", "model_from_json", "model_to_text",
              "model_to_json", "pmap_from_json", "check_property",
              "supplementation", "perturb", "transitive_closure",
              "intersection_submodel"),
    "semantics": ("evaluate", "extension", "frame_valid"),
    "search": ("find_countermodel", "distinguish", "fragment_representatives"),
    "announce": ("reduce", "format_trace", "replay"),
    "morphism": ("check_bullet_morphism", "check_w_morphism",
                 "verify_invariance"),
}

# functions whose result length is recorded with the span
SIZED = frozenset({"search.fragment_representatives"})


class SpanRecorder:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op, size)
        self.op: int | None = None
        self._stack: list = []  # (span index, wrapper)
        self._rebound: list = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        rec = self
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            if rec.op is None or (stack and stack[-1][1] is traced):
                return fn(*args, **kwargs)
            index = len(rec.spans)
            rec.spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, traced))
            size = -1
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if sized:
                    size = len(out)
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                rec.spans[index] = (name, start, end, parent, rec.op, size)

        return traced

    def install(self, layers=LAYERS) -> None:
        wrappers = {}
        for layer, names in layers.items():
            module = sys.modules[f"nbhdmc.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nbhdmc"
                                      or mod_name.startswith("nbhdmc.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def self_times(self):
        """(name, self ns, op, size) per span: its duration minus the time
        its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, size in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [(name, end - start - child_ns[i], op, size)
                for i, (name, start, end, parent, op, size)
                in enumerate(self.spans)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\tsize\n")
            for i, span in enumerate(self.spans):
                out.write(f"{i}\t" + "\t".join(map(str, span)) + "\n")
