"""Span tracer that wraps spinlab's layers from outside the package.

Nothing under ``src/`` is edited: ``install`` replaces functions and
methods by timing wrappers at run time, in the defining module and in
every spinlab module that imported the same object by name.  Each call
records one span (name, start, end, parent) in memory; ``dump`` writes
them in ``marshal`` format when the traced process ends, and ``summarize``
turns a span list into per-name call counts, inclusive time and self
time.  A span's self time is its duration minus the durations of its
direct children (calls are nested and single threaded, so the children
never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import marshal
import time

MODULES = ("clifford", "jets", "curvature", "spinor_fields", "quadrature",
           "asymptotics", "reduction", "dirac_torus", "cli")

# methods and foreign callables traced besides each module's public
# functions: (module, owner attribute or None, attribute, span name)
EXTRA = (
    ("dirac_torus", "SpectralBasis", "to_grid", "dirac_torus.to_grid"),
    ("dirac_torus", "SpectralBasis", "from_grid", "dirac_torus.from_grid"),
    ("asymptotics", "_AuditEngine", "terms", "asymptotics.terms"),
    ("asymptotics", "_AuditEngine", "__init__", "asymptotics.engine_init"),
    ("reduction", None, "cg", "reduction.cg"),
    ("reduction", None, "brentq", "reduction.brentq"),
)

# problem callbacks returned by ground_state_problem
CALLBACKS = ("psi", "grad_psi", "hess_psi")


class Tracer:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def wrap(self, fn, name):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path, extra=None):
        with open(path, "wb") as fh:
            marshal.dump({"counters": self.counters, "extra": extra or {},
                          "spans": self.spans}, fh)


def _rebind(modules, original, replacement):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer):
    """Wrap every traced callable of the spinlab modules in place."""
    modules = [importlib.import_module(f"spinlab.{m}") for m in MODULES]
    by_name = dict(zip(MODULES, modules))
    for short, mod in by_name.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                _rebind(modules, obj, tracer.wrap(obj, f"{short}.{attr}"))

    for short, owner, attr, name in EXTRA:
        mod = by_name[short]
        if owner is None:
            # a foreign callable is traced only where this module calls it
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
        else:
            cls = getattr(mod, owner)
            setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))

    # the solver callbacks are closures built per basis: wrap them on
    # the problem object ground_state_problem returns
    dt = by_name["dirac_torus"]
    build = dt.ground_state_problem

    def ground_state_problem(*args, **kwargs):
        problem, to_coords, from_coords = build(*args, **kwargs)
        for cb in CALLBACKS:
            object.__setattr__(problem, cb, tracer.wrap(
                getattr(problem, cb), f"dirac_torus.{cb}"))
        return problem, to_coords, from_coords

    dt.ground_state_problem = functools.wraps(build)(ground_state_problem)

    # outer descent steps are reported by the solver itself
    red = by_name["reduction"]
    minimize = red.minimize_nehari

    def minimize_nehari(*args, **kwargs):
        result = minimize(*args, **kwargs)
        tracer.count("reduction.outer_iterations", int(result.iterations))
        return result

    _rebind(modules, minimize, functools.wraps(minimize)(minimize_nehari))


def load(path):
    """Read a trace file back: (counters, extra, spans)."""
    with open(path, "rb") as fh:
        doc = marshal.load(fh)
    return doc["counters"], doc["extra"], doc["spans"]


def summarize(spans):
    """Per-name calls, inclusive seconds of outermost spans, self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[idx]
        # inclusive time counts only spans with no same-name ancestor
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += dur
    return stats
