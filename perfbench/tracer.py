"""Spans and counters around the package's public functions, from outside it.

`Tracer.install()` replaces every public function and public method of the
layer modules (perm, symclasses, groups, ict_formulas, oracle, cli) with a
wrapper, at every place the package binds it: module globals (modules import
names directly, so `oracle.closure` is a second binding of `groups.closure`),
module-level dicts such as `cli.COMMANDS`, and class attributes.
`uninstall()` puts the originals back.

Functions of `perm`, and `Permutation.__init__` (the permutations built),
get counting wrappers only: they run millions of times per census and a
timed span each would swamp the timings it sits inside.
Everything else gets a timed span.  A span's self time is its duration minus
the time covered by the spans it encloses.  Generator functions are timed
across each `next()` and their yielded items are counted against the
innermost enclosing span, so `stabilizer_candidates` items consumed by
`normalizer_in_stab` are the normalizer's candidates.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("perm", "symclasses", "groups", "ict_formulas", "oracle", "cli")
COUNT_ONLY = frozenset({"perm"})
PACKAGE = "transversals"


class Tracer:
    def __init__(self):
        self.calls = Counter()  # span or counter name -> calls
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> exclusive seconds
        self.items = Counter()  # (generator name, enclosing span) -> items
        self.observed = Counter()  # counts read from arguments and results
        self._names = []  # enclosing span names, innermost last
        self._child = []  # time covered by child spans, per open span
        self._undo = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn, observe):
        calls, total, self_time = self.calls, self.total, self.self_time
        names, child = self._names, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                inner = child.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - inner
                if child:
                    child[-1] += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        items, names, child = self.items, self._names, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                consumer = names[-1] if names else ""
                names.append(name)
                child.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    names.pop()
                    inner = child.pop()
                    total[name] += dt
                    self_time[name] += dt - inner
                    if child:
                        child[-1] += dt
                items[name, consumer] += 1
                yield item

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, layer, name, fn):
        if layer in COUNT_ONLY:
            return self._counter(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)
        return self._span(name, fn, OBSERVERS.get(name))

    # ---------------------------------------------------------- install

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        replace = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            self._set_item(obj, key, replace[id(value)])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (cls.__name__ == "Permutation"
                                             and attr == "__init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(layer, name, raw)
            else:
                continue
            self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)


# ------------------------------------------------------------ observers
# Counts read from a call's arguments and result once it returns.

def _observe_normalizer(tracer, args, kwargs, result):
    tracer.observed["normalizer_found"] += result.order


def _observe_conjugacy_classes(tracer, args, kwargs, result):
    tracer.observed["conjugacy_classes"] += len(result)


def _observe_partitions(tracer, args, kwargs, result):
    tracer.observed["partitions"] += len(result)


def _observe_theorem6(tracer, args, kwargs, result):
    """Each fixed symbol beyond 1 and each long orbit of a class
    representative filters one coset of H: (k - 1 + t) * |H| tests."""
    pair = args[0] if args else kwargs["pair"]
    tracer.observed["commuting_tests"] += pair.subgroup_order * sum(
        c.k - 1 + c.t for c in result.contributions)


def _observe_conjugation(tracer, args, kwargs, result):
    tracer.observed["union_merges"] += len(result.labels) - result.class_count


def _observe_canonical_forms(name, tables):
    """Relabelings enumerated during the call times the tables each one
    rewrites: the work of a canonical-form sweep."""
    def observe(tracer, args, kwargs, result):
        seen = tracer.items["groups.stabilizer_candidates", name]
        fresh = seen - tracer.observed[f"relabelings_seen {name}"]
        tracer.observed[f"relabelings_seen {name}"] = seen
        tracer.observed["relabelings_applied"] += fresh * tables(args, result)
        if name == "oracle.census_left_loops":
            tracer.observed["tables_classified"] += len(result.labels)
    return observe


def _tables_in_result(args, result):
    return len(result.labels)


OBSERVERS = {
    "groups.normalizer_in_stab": _observe_normalizer,
    "groups.PermGroup.conjugacy_classes": _observe_conjugacy_classes,
    "symclasses.partitions": _observe_partitions,
    "ict_formulas.ict_theorem6": _observe_theorem6,
    "oracle.classify_by_conjugation": _observe_conjugation,
    "oracle.classify_by_table_iso": _observe_canonical_forms(
        "oracle.classify_by_table_iso", _tables_in_result),
    "oracle.census_left_loops": _observe_canonical_forms(
        "oracle.census_left_loops", _tables_in_result),
    "oracle.render_classes_dump": _observe_canonical_forms(
        "oracle.render_classes_dump", lambda args, result: args[0].class_count),
}
