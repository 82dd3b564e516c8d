"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public callables of each ``jumpfolio`` module from
the outside: every public function is replaced wherever a ``jumpfolio``
module binds it (module attribute or module-level dict value), and the
``expect`` / ``g`` methods are replaced on the classes that define them.
Nothing under ``src/`` is edited.

Each wrapped call records one span (name, parent span, start, end).
Spans nest, so a span's self time is its duration minus the time covered
by its direct children.  Per-name totals are kept alongside: ``calls``,
``self_s`` and ``total_s`` (outermost activations only, so recursion is
not counted twice).  Probes attached to a name compute counts from the
call's arguments or result (e.g. padded ensemble cells); they run outside
the wrapped call's own span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "config",
    "mpp",
    "distributions",
    "frictions",
    "market",
    "policy",
    "regime_value",
    "verify",
    "cli",
)

# methods traced on the classes of a layer, under the name "<layer>.<method>"
CLASS_METHODS = {"distributions": ("expect",), "frictions": ("g",)}

# spans that solve for a policy; calls of other names made inside them are
# counted separately (see Tracer.calls_inside)
SOLVE_NAMES = ("policy.log_optimal_policy", "policy.power_optimal_policy")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.calls_inside = {}  # name -> calls made while a solve span is open
        self.counters = {}  # probe-computed counts
        self._stack = []  # open frames: [span index, time covered by children]
        self._depth = {}  # name -> open activations
        self._open_solves = 0
        self._restore = []  # (namespace, key, original)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, name, fn, probe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._depth.setdefault(name, 0)
        spans, stack, depth = self.spans, self._stack, self._depth
        is_solve = name in SOLVE_NAMES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open_solves and not is_solve:
                self.calls_inside[name] = self.calls_inside.get(name, 0) + 1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            depth[name] += 1
            if is_solve:
                self._open_solves += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                if is_solve:
                    self._open_solves -= 1
                dur = t1 - t0
                spans[index] = (name, parent, t0, t1)
                stats[0] += 1
                stats[2] += dur - frame[1]
                if depth[name] == 0:
                    stats[1] += dur
                if stack:
                    stack[-1][1] += dur
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, probes=None):
        """Wrap every public callable of the layer modules; returns self."""
        probes = probes or {}
        package = importlib.import_module("jumpfolio")
        modules = {layer: importlib.import_module(f"jumpfolio.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # bound here, defined elsewhere: rebound below
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, probes.get(name))
            for method in CLASS_METHODS.get(layer, ()):
                name = f"{layer}.{method}"
                for cls in vars(mod).values():
                    if (
                        inspect.isclass(cls)
                        and cls.__module__ == mod.__name__
                        and method in vars(cls)
                    ):
                        self._set(cls, method, self.wrap(name, vars(cls)[method]))
        namespaces = [package, importlib.import_module("jumpfolio.errors")]
        namespaces += list(modules.values())
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in replaced:
                            self._set_item(obj, key, replaced[id(value)])
        return self

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def _set(self, target, attr, value):
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def top_level_s(self):
        """Summed duration of the spans that have no traced parent."""
        return sum(end - start for _, parent, start, end in self.spans if parent == -1)

    def write_spans(self, path, origin):
        """Write every span as CSV; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
