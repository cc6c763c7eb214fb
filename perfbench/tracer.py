"""Outside-in layer tracer.

``install()`` replaces the public functions of each ``qmono`` layer with
timing wrappers, from outside the package: nothing in ``src/`` changes.  A
span is one call of a wrapped function; its self time is its duration minus
the time of the wrapped calls it made.  Spans and counts stay in memory and
are read once at the end through ``Tracer.metrics``.

Three details make the tracer see every call:

* a function imported by value (``from .identities import
  symmetrized_side``) is a separate binding in the importing module, so the
  wrapper is bound in every ``qmono`` module that holds the original;
* ``__rmul__`` and ``__radd__`` are class attributes of their own that alias
  ``__mul__`` and ``__add__``, so each is wrapped too;
* ``FactoredFraction.sum`` is a staticmethod and is re-wrapped as one.

Pool workers are forked after ``install()`` and keep their spans in their
own memory, which is lost when they exit.  Work done inside the pool is
therefore seen only through ``RUSAGE_CHILDREN``, as ``cli.pool.busy_share``;
every other metric counts the parent process alone.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict

ALGEBRA_SPANS = {
    "mul": ("Polynomial", ("__mul__", "__rmul__")),
    "add": ("Polynomial", ("__add__", "__radd__")),
    "substitute": ("Polynomial", ("substitute",)),
    "text": ("Polynomial", ("text",)),
    "frac_init": ("FactoredFraction", ("__init__",)),
    "frac_sum": ("FactoredFraction", ("sum",)),
    "frac_eq": ("FactoredFraction", ("eq",)),
}
MATH_LAYERS = ("specialize", "identities", "positivity", "macdonald")
ENUMERATORS = ("derangements", "permutations_with_cycles", "partitions_of")
# Functions whose calls are also counted by distinct arguments.
DISTINCT_ARGS = ("specialize.monomial_spec", "identities.symmetrized_side")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _qmono_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qmono" or name.startswith("qmono."))
    ]


def rebind(original, replacement):
    """Bind ``replacement`` wherever a ``qmono`` module holds ``original``."""
    for mod in _qmono_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def public_functions(module) -> dict:
    """The public functions a module defines itself (not those it imports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Span stack and per-layer totals for one process."""

    def __init__(self):
        self._stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self.pool_wall = 0.0
        self.pool_capacity = 0.0
        self.pool_cpu = 0.0
        self.originals = []

    def wrap(self, fn, layer: str, name: str, after=None):
        """A wrapper around ``fn`` adding each call's self time to ``layer``
        and one call to ``name``; ``after(args, kwargs, result)`` records
        counts."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        self.originals.append(fn)
        return traced

    # -- count hooks -------------------------------------------------------

    def _mul_pairs(self, args, kwargs, result):
        a, b = args
        other = getattr(b, "terms", None)
        self.counts["algebra.mul.term_pairs"] += len(a.terms) * (
            len(other) if other is not None else 1
        )

    def _sum_size(self, args, kwargs, result):
        self.maxima["algebra.frac_sum.max_num_terms"] = max(
            self.maxima["algebra.frac_sum.max_num_terms"], len(result.numerator.terms)
        )
        self.maxima["algebra.frac_sum.max_den_factors"] = max(
            self.maxima["algebra.frac_sum.max_den_factors"], len(result.denominator)
        )

    def _enum_items(self, args, kwargs, result):
        self.counts["partitions.enum.items"] += len(result)

    def _distinct_args(self, key: str, fn):
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.distinct[key].add(tuple(bound.arguments.items()))

        return hook

    # -- installation ------------------------------------------------------

    def install(self):
        from qmono import algebra, cli, partitions

        for span, (cls_name, attrs) in ALGEBRA_SPANS.items():
            cls = getattr(algebra, cls_name)
            after = {"mul": self._mul_pairs, "frac_sum": self._sum_size}.get(span)
            for attr in attrs:
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(fn, f"algebra.{span}", f"algebra.{span}", after)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(cls, attr, wrapped)

        for name in ENUMERATORS:
            fn = getattr(partitions, name)
            rebind(fn, self.wrap(fn, "partitions.enum", "partitions.enum", self._enum_items))

        for layer in MATH_LAYERS:
            module = importlib.import_module(f"qmono.{layer}")
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                after = self._distinct_args(key, fn) if key in DISTINCT_ARGS else None
                rebind(fn, self.wrap(fn, layer, key, after))

        rebind(cli.execute, self.wrap(cli.execute, "cli.execute", "cli.execute"))
        rebind(cli._parallel_map, self._pool_wrapper(cli, cli._parallel_map))
        return self

    def _pool_wrapper(self, cli, fn):
        span = self.wrap(fn, "cli.pool", "cli.pool")

        def parallel_map(task_fn, items):
            items = list(items)
            workers = min(cli.thread_count(), len(items))
            if workers < 2:
                return span(task_fn, items)
            cpu = _children_cpu()
            start = time.perf_counter()
            result = span(task_fn, items)
            wall = time.perf_counter() - start
            self.pool_wall += wall
            self.pool_capacity += workers * wall
            self.pool_cpu += _children_cpu() - cpu
            self.counts["cli.pool.tasks"] += len(items)
            return result

        return parallel_map

    def unwrapped_bindings(self) -> list:
        """(module, attribute) pairs that still hold an original after
        ``install``; empty when every call goes through a wrapper."""
        originals = {id(fn) for fn in self.originals}
        found = []
        for mod in _qmono_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    found.append((mod.__name__, attr))
        return found

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of this process (units are fixed by the caller)."""
        out = {}
        for span in ALGEBRA_SPANS:
            out[f"algebra.{span}.calls"] = self.calls[f"algebra.{span}"]
            out[f"algebra.{span}.self_s"] = self.self_s[f"algebra.{span}"]
        out["algebra.mul.term_pairs"] = self.counts["algebra.mul.term_pairs"]
        out["algebra.frac_sum.max_num_terms"] = self.maxima["algebra.frac_sum.max_num_terms"]
        out["algebra.frac_sum.max_den_factors"] = self.maxima["algebra.frac_sum.max_den_factors"]
        out["partitions.enum.calls"] = self.calls["partitions.enum"]
        out["partitions.enum.items"] = self.counts["partitions.enum.items"]
        out["partitions.enum.self_s"] = self.self_s["partitions.enum"]
        for layer in MATH_LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for key in DISTINCT_ARGS:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.distinct"] = len(self.distinct[key])
        out["cli.execute.self_s"] = self.self_s["cli.execute"]
        out["cli.pool.wall_s"] = self.pool_wall
        out["cli.pool.tasks"] = self.counts["cli.pool.tasks"]
        out["cli.pool.busy_share"] = (
            self.pool_cpu / self.pool_capacity if self.pool_capacity else 0.0
        )
        return out
