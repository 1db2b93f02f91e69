"""Span tracer that wraps the public functions and methods of g2div from outside.

Installing a Tracer replaces every public module-level function, every
public method and every arithmetic dunder of the classes defined in the
g2div modules with a wrapper that records one span per call.  References a
module imported by name (``from .grouplaw import scalar_mul``) are patched
too, so calls across layers are seen wherever they are made.  Removing the
tracer restores the originals.

Per call the wrapper keeps a stack entry, so the self time of each span
(its duration minus the time its child spans cover) is summed online and
call counts are exact.  Spans outside the fields layer are also kept in
memory, up to a cap, and written out once by ``write_spans`` when the run
ends; field operations are counted and timed but not stored one by one,
because there are millions of them.
"""
from __future__ import annotations

import json
import time

LAYERS = ("fields", "unipoly", "polyring", "series", "curves", "divisors",
          "grouplaw", "torsion", "cantor", "cli")

# dunders that carry arithmetic or comparisons, so their cost lands in the
# layer that implements them rather than in the caller's self time
DUNDERS = frozenset((
    "__eq__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
    "__mod__", "__floordiv__", "__bool__", "__getitem__", "__hash__",
))

# the two dispatchers that return (divisor, branch tag)
DISPATCHERS = ("grouplaw.add_traced", "grouplaw.double_traced")

MAX_SPANS = 100_000


class Tracer:
    """Collects call counts, self time and spans for wrapped g2div callables."""

    def __init__(self, package):
        self.package = package
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.tags: dict[str, int] = {}
        self.mul_by_tag: dict[str, int] = {}
        self.inv_by_tag: dict[str, int] = {}
        self.torsion_hits = 0
        self.spans: list = []
        self.spans_dropped = 0
        self.op = -1  # the benchmark operation the current spans belong to
        self._stack: list = []
        self._patches: list = []
        self._dispatch_depth = 0
        self._mul_names: list = []
        self._inv_names: list = []

    # -- install / remove -----------------------------------------------------
    def install(self):
        import importlib
        modules = [importlib.import_module(f"{self.package}.{m}") for m in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__ \
                        and type(obj).__name__ == "function":
                    wrapper = self._wrapper(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
        # patch every module namespace that holds one of the originals,
        # including the package's own re-exports
        namespaces = modules + [importlib.import_module(self.package)]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(f"{layer}.{cls.__name__}.{attr}", raw.__func__))
            elif type(raw).__name__ == "function":
                wrapped = self._wrapper(f"{layer}.{cls.__name__}.{attr}", raw)
            else:
                continue  # properties, class attributes, __hash__ = None
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "mul" and layer == "fields":
                self._mul_names.append(name)
            if attr == "inv" and layer == "fields":
                self._inv_names.append(name)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    # -- the wrapper ------------------------------------------------------------
    def _wrapper(self, name, fn):
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        calls[name] = 0
        self_s[name] = 0.0
        incl_s[name] = 0.0
        stack = self._stack
        spans = self.spans
        keep_span = not name.startswith("fields.")
        clock = time.perf_counter
        tracer = self

        if name in DISPATCHERS:
            def traced(*args, **kwargs):
                outer = tracer._dispatch_depth == 0
                if outer:
                    m0, i0 = tracer._count(tracer._mul_names), tracer._count(tracer._inv_names)
                tracer._dispatch_depth += 1
                try:
                    result = plain(*args, **kwargs)
                finally:
                    tracer._dispatch_depth -= 1
                if outer:
                    tag = result[1]
                    tracer.tags[tag] = tracer.tags.get(tag, 0) + 1
                    tracer.mul_by_tag[tag] = (tracer.mul_by_tag.get(tag, 0)
                                              + tracer._count(tracer._mul_names) - m0)
                    tracer.inv_by_tag[tag] = (tracer.inv_by_tag.get(tag, 0)
                                              + tracer._count(tracer._inv_names) - i0)
                return result
        elif name == "torsion.is_torsion":
            def traced(*args, **kwargs):
                result = plain(*args, **kwargs)
                if result:
                    tracer.torsion_hits += 1
                return result
        else:
            traced = None

        def plain(*args, **kwargs):
            entry = [0.0, -1]
            if keep_span:
                if len(spans) < MAX_SPANS:
                    parent = stack[-1][1] if stack else -1
                    entry[1] = len(spans)
                    spans.append([tracer.op, name, parent, 0.0, 0.0])
                else:
                    tracer.spans_dropped += 1
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - entry[0]
                incl_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if entry[1] >= 0:
                    span = spans[entry[1]]
                    span[3] = start
                    span[4] = end

        out = traced or plain
        out.__name__ = getattr(fn, "__name__", name)
        out.__qualname__ = getattr(fn, "__qualname__", name)
        out.__doc__ = fn.__doc__
        out.__wrapped__ = fn
        return out

    def _count(self, names):
        calls = self.calls
        return sum(calls[n] for n in names)

    # -- results --------------------------------------------------------------
    def total(self, layer: str, suffix: str) -> int:
        """Calls of every wrapped callable in `layer` whose name ends in `suffix`."""
        return sum(c for n, c in self.calls.items()
                   if n.startswith(layer + ".") and n.endswith(suffix))

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.startswith(layer + "."))

    def write_spans(self, path):
        """Write the kept spans as JSON lines: a header, then one span per line."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names, "fields": ["op", "name", "parent", "start_us", "end_us"],
                                 "kept": len(self.spans), "dropped": self.spans_dropped}) + "\n")
            for op, name, parent, start, end in self.spans:
                fh.write(f"[{op},{index[name]},{parent},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f}]\n")
