"""Per-layer tracing of fanscheme from outside the package.

The tracer wraps the public callables of the seven package modules and
rebinds each wrapper in every ``fanscheme.*`` namespace that holds the
original, so calls made inside the package go through the wrappers too.
Nothing in the package changes, and an untraced pass rebinds nothing.

Public callables are module-level functions without a leading underscore,
the class and static methods of public classes, and the hand-written
``__init__`` of public classes that are not exceptions.  A call is counted
every time.  A span (name, start, end, parent) is kept only where a call
crosses from one layer into another, which is all that layer self times
need: a call inside the same layer adds no layer boundary.  Self time is
computed as each span closes, as its duration minus the time its child
spans cover, so the self times of all layers add up to the root spans.
"""

from array import array
import importlib
import sys
import time
import types

PACKAGE = "fanscheme"
LAYERS = ("cli", "scheme", "fans", "monoid_algebra", "monoids", "cones",
          "lattice")
ROOT_LAYER = "bench"


def public_callables():
    """Yield (qualified name, owner, attribute, original) for each public
    callable of the seven layer modules; owner is the module or class
    whose attribute holds it."""
    for layer in LAYERS:
        mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                yield "%s.%s" % (layer, attr), mod, attr, obj
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield from _class_callables(layer, mod, obj)


def _class_callables(layer, mod, cls):
    for attr, raw in sorted(vars(cls).items()):
        if isinstance(raw, (classmethod, staticmethod)) and not attr.startswith("_"):
            yield "%s.%s.%s" % (layer, cls.__name__, attr), cls, attr, raw
    init = vars(cls).get("__init__")
    if (
        isinstance(init, types.FunctionType)
        and not issubclass(cls, BaseException)
        and init.__code__.co_filename == mod.__file__
    ):
        yield "%s.%s" % (layer, cls.__name__), cls, "__init__", init


class Tracer:
    """Counts and layer-boundary spans for one traced pass.

    ``measures`` maps a callable's name to a function of its result whose
    value is summed per name (sizes of what a call returns).  ``contexts``
    maps a callable's name to a context label; ``context_counts`` lists
    (label, name) pairs: calls of that name made while a call carrying the
    label is open are counted separately.  ``distinct_args`` names the
    callables whose distinct first arguments are kept.
    """

    def __init__(self, measures=None, contexts=None, context_counts=(),
                 distinct_args=()):
        self.measures = dict(measures or {})
        self.contexts = dict(contexts or {})
        self.context_counts = tuple(context_counts)
        self.distinct_args = frozenset(distinct_args)
        self.layer_names = (ROOT_LAYER,) + LAYERS
        self.names = []
        self.counts = []
        self.measured = {}
        self.in_context = {pair: 0 for pair in self.context_counts}
        self.open_contexts = {}
        self.args_seen = {name: set() for name in self.distinct_args}
        self.self_time = [0.0] * len(self.layer_names)
        # spans at layer boundaries, one entry per span in each array
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [layer index, start, time covered by children, span id]
        self.stack = []
        self._bindings = []
        self._root = self._name_index(ROOT_LAYER + ".job")

    # ----------------------------------------------------------- installing

    def install(self):
        """Wrap every public callable and rebind it everywhere it is held."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for name, owner, attr, raw in public_callables():
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
                self._bind(owner, attr, raw, wrapped)
            elif isinstance(owner, type):
                self._bind(owner, attr, raw, self._wrap(name, raw))
            else:
                wrappers[raw] = self._wrap(name, raw)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != PACKAGE:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._bind(mod, attr, obj, wrappers[obj])

    def uninstall(self):
        """Put every original back."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def _bind(self, owner, attr, original, replacement):
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _name_index(self, name):
        self.names.append(name)
        self.counts.append(0)
        return len(self.names) - 1

    def _wrap(self, name, fn):
        idx = self._name_index(name)
        layer = self.layer_names.index(name.split(".", 1)[0])
        counts = self.counts
        stack = self.stack
        enter = self._enter
        leave = self._leave
        measure = self.measures.get(name)
        context = self.contexts.get(name)
        counted_in = [c for c, n in self.context_counts if n == name]
        seen = self.args_seen.get(name)
        special = measure or context or counted_in or seen is not None

        def plain(*args, **kwargs):
            if not stack:  # outside a job: not part of the trace
                return fn(*args, **kwargs)
            counts[idx] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            enter(idx, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        def instrumented(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            for c in counted_in:
                if self.open_contexts.get(c):
                    self.in_context[(c, name)] += 1
            if seen is not None:
                seen.add(args[0])
            if context:
                self.open_contexts[context] = self.open_contexts.get(context, 0) + 1
            try:
                result = plain(*args, **kwargs)
            finally:
                if context:
                    self.open_contexts[context] -= 1
            if measure:
                self.measured[name] = self.measured.get(name, 0) + measure(result)
            return result

        wrapper = instrumented if special else plain
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ---------------------------------------------------------------- spans

    def _enter(self, idx, layer):
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self.stack.append([layer, start, 0.0, sid])

    def _leave(self):
        end = time.perf_counter()
        layer, start, covered, sid = self.stack.pop()
        self.span_end[sid] = end
        duration = end - start
        self.self_time[layer] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    def root(self, call):
        """Run call() as a root span of the harness layer; return
        (result, duration in seconds)."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        self._enter(self._root, 0)
        self.counts[self._root] += 1
        sid = self.stack[-1][3]
        try:
            result = call()
        finally:
            self._leave()
        return result, self.span_end[sid] - self.span_start[sid]

    # -------------------------------------------------------------- results

    def count(self, name):
        return self.counts[self.names.index(name)] if name in self.names else 0

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(c for n, c in zip(self.names, self.counts)
                   if n.startswith(prefix))

    def layer_self_time(self, layer):
        return self.self_time[self.layer_names.index(layer)]

    def span_count(self):
        return len(self.span_start)
