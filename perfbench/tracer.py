"""Call-site tracer for the benchmark's traced runs.

The tracer wraps library functions at the module attributes their callers
look up, so ``evaluate`` calling ``_evaluate_cached`` or ``order`` calling
``evaluate_spec`` goes through a wrapper that records a span (name, start,
end, parent, request id).  Spans stay in memory until the traced round
ends; :meth:`Tracer.summary` then reduces them to additive counters that
:mod:`metrics` turns into the per-layer metrics.

Enclosure arithmetic runs far more often than any other wrapped call, so
its methods are counted and timed in aggregate instead of as spans; their
time is still subtracted from the enclosing span's self time.

A target that no longer exists (a private helper renamed or deleted) is
skipped and listed in :attr:`Tracer.absent`; the metrics that depend on it
are then reported as absent rather than crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  The attribute's current object is
# replaced wherever a ``tvals`` module binds it, so every caller's lookup
# reaches the wrapper; targets in CALLER_ONLY are replaced only in the named
# module, because the span counts that module's requests.
CALLER_ONLY = {("tvals.order", "evaluate_spec")}

TARGETS = (
    ("tvals.evaluator", "_evaluate_cached", "evaluator.evaluate"),
    ("tvals.evaluator", "_plan", "evaluator.plan"),
    ("tvals.evaluator", "_evaluate_at", "evaluator.recurrence"),
    ("tvals.evaluator", "prefix_expansion", "evaluator.expansion"),
    ("tvals.evaluator", "evaluate_direct_many", "evaluator.direct"),
    ("tvals.numerics", "base_expansion", "numerics.base_expansion"),
    ("tvals.numerics", "evaluate_expansion", "numerics.evaluate_expansion"),
    ("tvals.numerics", "const_pi", "numerics.constants"),
    ("tvals.numerics", "const_catalan", "numerics.constants"),
    ("tvals.order", "evaluate_spec", "order.evaluate"),
    ("tvals.order", "_enclose", "order.enclose"),
    ("tvals.order", "compare", "order.compare"),
    ("tvals.order", "_scalar_verdict", "order.scalar_verdict"),
    ("tvals.order", "enumerate_tails_above", "order.enumerate"),
    ("tvals.order", "beta_table", "order.beta_table"),
    ("tvals.order", "band_prefix", "order.band_prefix"),
    ("tvals.order", "band_of_value", "order.band_of_value"),
    ("tvals.order", "rank_of_tail", "order.rank_of_tail"),
    ("tvals.order", "phi", "order.phi"),
    ("tvals.verify", "verify_repeated", "verify"),
    ("tvals.verify", "verify_sum_formula", "verify"),
    ("tvals.verify", "verify_catalan", "verify"),
    ("tvals.verify", "verify_tail_recurrence", "verify"),
    ("tvals.verify", "verify_monotonicity", "verify"),
    ("tvals.verify", "verify_chain", "verify"),
    ("tvals.verify", "verify_limits", "verify"),
    ("tvals.verify", "scan_p_sets", "verify"),
    ("tvals.verify", "scan_tail_collisions", "verify"),
    ("tvals.verify", "check_phi_conjecture", "verify"),
    ("tvals.cli", "main", "cli.main"),
    ("tvals.cli", "cache_lookup", "cli.cache_lookup"),
    ("tvals.cli", "cache_store", "cli.cache_store"),
)

ENCLOSURE_OPS = (
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "__truediv__",
    "pow_int",
    "scale_pow2",
    "widen",
    "hull",
    "intersect",
)

_MODULES = ("tvals.evaluator", "tvals.numerics", "tvals.order", "tvals.verify", "tvals.cli")


class _Frame:
    __slots__ = ("index", "child")

    def __init__(self, index: int):
        self.index = index
        self.child = 0.0


class Tracer:
    """Records spans at wrapped call sites of one process."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        # span: [name, start, end, parent index or None, request id, self time]
        self.spans: list[list] = []
        self.stack: list[_Frame] = []
        self.request = None
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []  # span names (or "enclosure") not measured
        self.absent_sites: list[str] = []  # the missing module attributes
        self.caches: dict[str, object] = {}
        self._built: set = set()
        self._seeded: set = set()

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        parent = self.stack[-1].index if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, 0.0])
        frame = _Frame(len(self.spans) - 1)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        span = self.spans[frame.index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        span[5] = duration - frame.child
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += duration

    def wrap(self, name: str, fn, hook=None):
        """Span-recording wrapper.  ``hook(args, kwargs, result, missed)``
        runs after a successful call; ``missed`` says whether an
        ``lru_cache``-wrapped target computed the result (None otherwise)."""
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info().misses if cache_info is not None else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                missed = None if before is None else cache_info().misses > before
                try:
                    hook(args, kwargs, result, missed)
                except (TypeError, ValueError, IndexError, AttributeError):
                    # the target's signature changed; its derived counts
                    # are reported absent, the span itself is still kept
                    if name not in tracer.absent:
                        tracer.absent.append(name)
                        tracer.absent_sites.append(f"hook of {name}")
            return result

        return traced

    def wrap_op(self, fn):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                counters["enclosure.ops"] += 1
                counters["enclosure.self_s"] += elapsed
                if tracer.stack:
                    tracer.stack[-1].child += elapsed

        return counted

    # -- hooks that derive counts from arguments and results ---------------
    def _hooks(self) -> dict:
        counters, maxima = self.counters, self.maxima

        def expansion(args, kwargs, result, missed):
            if missed:
                self._built.add((tuple(args[0]), args[1]))
                maxima["expansion.max_order"] = max(maxima["expansion.max_order"], args[1])

        def recurrence(args, kwargs, result, missed):
            index, offset, bits, order, seed = args[:5]
            counters["recurrence.steps"] += (seed - offset) * len(index)
            maxima["recurrence.max_bits"] = max(maxima["recurrence.max_bits"], bits)
            for i in range(1, len(index) + 1):
                self._seeded.add((tuple(index[:i]), order))

        def direct(args, kwargs, result, missed):
            index, offsets = args[0], args[1]
            max_outer = args[2] if len(args) > 2 else kwargs.get("max_outer", 1_000_000)
            counters["direct.terms"] += max_outer * len(index) * len(offsets)

        def verdict(args, kwargs, result, missed):
            if getattr(result, "name", None) == "UNRESOLVED" or getattr(
                getattr(result, "verdict", None), "name", None
            ) == "UNRESOLVED":
                counters["order.unresolved"] += 1

        def lookup(args, kwargs, result, missed):
            path = args[0]
            try:
                counters["cache.bytes_read"] += path.stat().st_size
            except OSError:
                pass

        return {
            "evaluator.expansion": expansion,
            "evaluator.recurrence": recurrence,
            "evaluator.direct": direct,
            "order.compare": verdict,
            "order.scalar_verdict": verdict,
            "cli.cache_lookup": lookup,
        }

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        modules = [importlib.import_module(name) for name in _MODULES]
        hooks = self._hooks()
        for module_name, attr, span in self.targets:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(span)
                self.absent_sites.append(f"{module_name}.{attr}")
                continue
            if hasattr(original, "cache_info"):
                self.caches[span] = original
            wrapper = self.wrap(span, original, hooks.get(span))
            scope = [module] if (module_name, attr) in CALLER_ONLY else modules
            for mod in scope:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        from tvals.enclosure import Enclosure

        for op in ENCLOSURE_OPS:
            method = Enclosure.__dict__.get(op)
            if method is None:
                self.absent.append("enclosure")
                self.absent_sites.append(f"tvals.enclosure.Enclosure.{op}")
                continue
            setattr(Enclosure, op, self.wrap_op(method))
        return self

    # -- reduction ---------------------------------------------------------
    def summary(self) -> dict:
        """Additive counters for this process: per span name calls, total
        and self seconds, plus hook counts and ``lru_cache`` statistics.
        Keys starting with ``max:`` merge by maximum, the rest by sum."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, request, self_time in self.spans:
            out[f"span:{name}:calls"] += 1
            out[f"span:{name}:self_s"] += self_time
            out[f"span:{name}:total_s"] += end - start
            if parent is None:
                out["span:top:total_s"] += end - start
            elif name == "order.enclose" and self.spans[parent][0] == "order.compare":
                out["compare.enclosures"] += 1
        for key, value in self.counters.items():
            out[key] += value
        for key, value in self.maxima.items():
            out[f"max:{key}"] = value
        out["expansion.seeded_built"] = len(self._seeded & self._built)
        for span, cache in self.caches.items():
            info = cache.cache_info()
            out[f"cache:{span}:hits"] += info.hits
            out[f"cache:{span}:misses"] += info.misses
        out["absent"] = list(self.absent)
        out["absent_sites"] = list(self.absent_sites)
        return dict(out)


def merge(summaries) -> dict:
    """Combine per-process summaries (sums, maxima, union of absent names)."""
    out: dict = defaultdict(float)
    lists: dict = {"absent": set(), "absent_sites": set()}
    for summary in summaries:
        for key, value in summary.items():
            if key in lists:
                lists[key].update(value)
            elif key.startswith("max:"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    out.update({key: sorted(names) for key, names in lists.items()})
    return dict(out)
