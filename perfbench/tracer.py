"""Outside-in tracer for morphopt's layers.

The library is not edited: every traced function is replaced, in every
``morphopt`` module namespace that holds it, by a wrapper that records a
span (name, start, end, parent).  Rebinding every namespace matters because
``optimizer``, ``sensitivity`` and ``runner`` bind ``solve_state``,
``solve_adjoint``, ``minimize_stimulus_field``, ``write_vtk`` and
``composite_export`` with ``from ... import``; patching only the defining
module would silently miss those calls.

Spans are kept in memory and summarised (calls, busy time, self time) when
the run ends.  A layer the library no longer has is reported as absent.
"""

import collections
import functools
import hashlib
import importlib
import inspect
import sys
import time

# (module, attribute) of every timed layer; the metric prefix is
# "<module>.<attribute>".
LAYERS = (
    ("config", "parse_config"),
    ("config", "ProblemSpec.build_mesh"),
    ("elasticity", "assemble_stiffness"),
    ("elasticity", "assemble_stimulus_load"),
    ("elasticity", "solve_state"),
    ("elasticity", "solve_adjoint"),
    ("linsolve", "solve_spd"),
    ("sensitivity", "grad_design"),
    ("sensitivity", "grad_stimulus"),
    ("stimulus_update", "minimize_stimulus_field"),
    ("functional", "total"),
    ("optimizer", "bncg_minimize"),
    ("vtk_io", "write_vtk"),
    ("render", "composite_export"),
    ("runner", "write_history_csv"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)


def rebind(original, replacement):
    """Point every morphopt module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "morphopt"
                                  or name.startswith("morphopt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(module_name, attr):
    """(owner, leaf name, object) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(f"morphopt.{module_name}")
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


class Tracer:
    """Span recorder plus the counters measured at layer boundaries."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self._stack = []
        self.counts = collections.Counter()
        self.absent = []                 # layers or counters not found
        self._seen_designs = set()

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def wrap(self, name, fn, prepare=None):
        """Spanned wrapper; ``prepare`` may rewrite the bound arguments."""
        sig = inspect.signature(fn) if prepare else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                bound = sig.bind(*args, **kwargs)
                prepare(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer in LAYERS that the library still has."""
        hooks = {
            "elasticity.assemble_stiffness": self._count_design,
            "linsolve.solve_spd": self._count_solver_iters,
            "optimizer.bncg_minimize": self._count_line_search,
        }
        for (module_name, attr), name in zip(LAYERS, LAYER_NAMES):
            found = _lookup(module_name, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, leaf, fn = found
            prepare = hooks.get(name)
            if prepare is not None and not self._accepts(fn, name):
                prepare = None
            wrapper = self.wrap(name, fn, prepare)
            if inspect.isclass(owner):
                setattr(owner, leaf, wrapper)
            else:
                rebind(fn, wrapper)

    def _accepts(self, fn, name):
        """Whether ``fn`` still has the arguments its counters read."""
        needed = {"elasticity.assemble_stiffness": ("design",),
                  "linsolve.solve_spd": ("callback",),
                  "optimizer.bncg_minimize": ("value_fn", "post_accept")}
        params = inspect.signature(fn).parameters
        missing = [p for p in needed[name] if p not in params]
        if missing:
            self.absent.append(f"{name}({', '.join(missing)})")
        return not missing

    # -- counters ----------------------------------------------------------

    def _count_design(self, arguments):
        design = arguments["design"]
        key = hashlib.blake2b(design.rho2.tobytes() + design.rho3.tobytes(),
                              digest_size=16).digest()
        if key in self._seen_designs:
            self.counts["assemble_repeats"] += 1
        self._seen_designs.add(key)

    def _count_solver_iters(self, arguments):
        inner = arguments.get("callback")
        counts = self.counts

        def callback(it, rnorm):
            counts["solver_iters"] += 1
            if inner is not None:
                inner(it, rnorm)
        arguments["callback"] = callback

    def _count_line_search(self, arguments):
        counts = self.counts
        value_fn = arguments["value_fn"]

        def counted_value_fn(x):
            counts["ls_trials"] += 1
            return value_fn(x)
        arguments["value_fn"] = counted_value_fn

        post_accept = arguments.get("post_accept")
        if post_accept is not None:
            def counted_post_accept(x, f, g):
                revised = post_accept(x, f, g)
                counts["stimulus_updates"] += 1
                counts["stimulus_commits"] += int(revised is not None)
                return revised
            arguments["post_accept"] = counted_post_accept

    # -- summary -----------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, busy seconds, self seconds)} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        busy = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child
        return {name: (calls[name], busy[name], own[name]) for name in calls}

    def first_end(self, name):
        """End time of the first span called ``name``."""
        return next(end for span_name, _, end, _ in self.spans
                    if span_name == name)
