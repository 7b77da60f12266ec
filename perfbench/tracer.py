"""Call tracer that wraps isoshare's public functions from the outside.

Nothing under src/ is edited. `Tracer.install` replaces every public
function of the traced modules wherever an isoshare module namespace holds
it (from-imports bind the same function object under several names), and
every public method plus the arithmetic operators of the classes those
modules define. Each wrapper counts calls and adds inclusive and self
time (inclusive minus the time of traced callees) to the current phase.
Properties, `__init__`, comparisons and generator functions are left
unwrapped; their time is charged to the traced caller.
"""

import importlib
import inspect
import sys
import time
from contextlib import contextmanager

MODULES = ("fields", "curves", "isogeny", "codec", "codes", "linalg", "scheme", "cli")
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__truediv__")


def _erasure_decode(tracer, args):
    """Split erasure decoding by field, GF(2) or GF(2^r), and count unknowns."""
    code, word = args[0], args[1]
    name = "codes.erasure_decode." + ("gf2" if code.field.r == 1 else "gf2r")
    tracer._stats.setdefault(name + ".erased", [0, 0, 0])[0] += sum(s is None for s in word)
    return name


def _torsion_subgroups(tracer, args):
    """Note the curve model, for the distinct j-invariants per phase."""
    e = args[0]
    tracer._curves.add((e.p, e.a.c0, e.a.c1, e.b.c0, e.b.c1))
    return "isogeny.ell_torsion_subgroups"


# Functions whose calls record more than time: key -> hook(tracer, args)
# returning the key the call is charged to.
HOOKS = {
    "codes.LinearCode.erasure_decode": _erasure_decode,
    "isogeny.ell_torsion_subgroups": _torsion_subgroups,
}


class Tracer:
    """Per-phase call statistics: key -> [calls, inclusive_ns, self_ns]."""

    def __init__(self, modules=MODULES):
        self.modules = modules
        self.phases = {}
        self.curve_sets = {}
        self._stats = self.phases.setdefault("", {})
        self._curves = set()
        self._stack = [0]
        self._undo = []

    def _record(self, key, elapsed, child):
        rec = self._stats.get(key)
        if rec is None:
            rec = self._stats[key] = [0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child

    def _wrap(self, fn, key):
        stack = self._stack
        clock = time.perf_counter_ns
        record = self._record
        hook = HOOKS.get(key)

        def traced(*args, **kwargs):
            name = key if hook is None else hook(self, args)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record(name, elapsed, child)
                stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the traced modules' public callables in every isoshare namespace."""
        replaced = {}
        for short in self.modules:
            mod = importlib.import_module(f"isoshare.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[obj] = self._wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in ARITHMETIC:
                            continue
                        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                            self._undo.append((obj, attr, fn))
                            setattr(obj, attr, self._wrap(fn, f"{short}.{obj.__name__}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "isoshare" and not modname.startswith("isoshare."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replaced[obj])
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @contextmanager
    def phase(self, name):
        """Charge calls made inside the block to phase `name`."""
        prev, prev_curves = self._stats, self._curves
        self._stats = self.phases.setdefault(name, {})
        self._curves = set()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            wall = self._stats.setdefault("@wall", [0, 0, 0])
            wall[0] += 1
            wall[1] += time.perf_counter_ns() - start
            self.curve_sets.setdefault(name, []).append(sorted(self._curves))
            self._stats, self._curves = prev, prev_curves

    def dump(self):
        return {"phases": self.phases, "curve_sets": self.curve_sets}


def add_stats(target, stats):
    """Add one phase's statistics into `target`, key by key."""
    for key, rec in stats.items():
        acc = target.setdefault(key, [0, 0, 0])
        for i in range(3):
            acc[i] += rec[i]
    return target


def merge(into, dump):
    """Add one tracer dump to another, phase by phase."""
    for phase, stats in dump["phases"].items():
        add_stats(into["phases"].setdefault(phase, {}), stats)
    for phase, sets in dump["curve_sets"].items():
        into["curve_sets"].setdefault(phase, []).extend(sets)
    return into
