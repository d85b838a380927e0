"""Span shim that times aztecgf's public functions from outside the package.

``Tracer.install()`` replaces every binding of each traced function -- the
defining module's attribute, every ``from .x import f`` copy in the other
aztecgf modules and the package namespace, and class-level aliases such as
``LaurentPoly2.__rmul__`` -- with a wrapper that opens a span on entry and
closes it on exit.  A span has a name, a start, an end and a parent (the span
below it on the stack).  Hot spans number in the millions per run, so spans
are folded into per-name totals as they close instead of being stored: calls,
self time (duration minus the time covered by child spans) and the work
counters named in ``COUNTERS``.  Generator functions get one span per resume,
so the time spent producing each item is charged to the generator.

Nothing here changes what a wrapped function returns or raises.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "aztecgf"

# (module, attribute path, span name).  Several region builders share one name.
TARGETS = (
    ("poly", "LaurentPoly2.__mul__", "poly.mul"),
    ("poly", "LaurentPoly2.__add__", "poly.add"),
    ("poly", "LaurentPoly2.exact_div", "poly.exact_div"),
    ("poly", "LaurentPoly2.to_text", "poly.to_text"),
    ("poly", "q_ratio_product", "poly.q_ratio_product"),
    ("engine", "tiling_genfun_dp", "engine.tiling_genfun_dp"),
    ("engine", "count_tilings", "engine.count_tilings"),
    ("engine", "enumerate_tilings", "engine.enumerate_tilings"),
    ("engine", "matching_genfun", "engine.matching_genfun"),
    ("stats", "rank_distances", "stats.rank_distances"),
    ("stats", "vstat", "stats.vstat"),
    ("stats", "genfun_bruteforce", "stats.genfun_bruteforce"),
    ("stats", "genfun_via_weights", "stats.genfun_via_weights"),
    ("formulas", "rectangle_genfun", "formulas.rectangle_genfun"),
    ("formulas", "weighted_rectangle_matching_genfun",
     "formulas.weighted_rectangle_matching_genfun"),
    ("lozenge", "semihex_q_genfun", "lozenge.semihex_q_genfun"),
    ("lozenge", "tiling_to_cspp", "lozenge.tiling_to_cspp"),
    ("lozenge", "cspp_to_tiling", "lozenge.cspp_to_tiling"),
    ("lozenge", "enumerate_cspp", "lozenge.enumerate_cspp"),
    ("rewrite", "reduce_rectangle_to_semihexagon", "rewrite.reduce_rectangle_to_semihexagon"),
    ("regions", "aztec_diamond", "regions.build"),
    ("regions", "aztec_rectangle_with_holes", "regions.build"),
    ("regions", "semihexagon_with_dents", "regions.build"),
    ("regions", "dual_graph", "regions.build"),
    ("regions", "weighted_ar_graph", "regions.build"),
    ("cli", "main", "cli.main"),
)


def _mul_pairs(args, kwargs):
    a, b = args[0], args[1]
    return len(a) * (len(b) if type(b) is type(a) else 1)


def _dp_cells(args, kwargs):
    region = args[0] if args else kwargs["region"]
    return len(region.cells)


# span name -> (counter name, function of the call arguments giving the amount)
COUNTERS = {
    "poly.mul": ("poly.mul.term_pairs", _mul_pairs),
    "engine.tiling_genfun_dp": ("engine.tiling_genfun_dp.cells", _dp_cells),
}
# generator span name -> counter of the items it yields
ITEMS = {"engine.enumerate_tilings": "engine.enumerate_tilings.tilings"}


class Tracer:
    """Aggregating span recorder: ``install()`` it, later ``uninstall()``."""

    def __init__(self):
        self.stack = [[0.0]]      # child time of each open span; [0] is the root
        self.totals = {}          # span name -> [calls, self seconds]
        self.counts = {}          # counter name -> amount
        self._undo = []           # (owner, attribute, original)
        self._rank_cache = None   # (cache_info function, info at install)

    def _total(self, name):
        return self.totals.setdefault(name, [0, 0.0])

    def _add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrappers -------------------------------------------------------

    def _wrap_call(self, name, fn):
        stack, total, clock = self.stack, self._total(name), time.perf_counter
        counter = COUNTERS.get(name)
        add = self._add

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counter is not None:
                add(counter[0], counter[1](args, kwargs))
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                total[0] += 1
                total[1] += dur - frame[0]

        return span

    def _wrap_generator(self, name, fn):
        stack, total, clock = self.stack, self._total(name), time.perf_counter
        items = ITEMS.get(name)
        add = self._add

        @functools.wraps(fn)
        def span(*args, **kwargs):
            total[0] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stack.pop()
                    stack[-1][0] += dur
                    total[1] += dur - frame[0]
                if items is not None:
                    add(items, 1)
                yield item

        return span

    def _wrap_cached(self, name, fn):
        """Span around an lru_cache wrapper; the cache itself stays in place."""
        info = fn.cache_info
        self._rank_cache = (info, info())
        inner = self._wrap_call(name, fn)
        add = self._add

        @functools.wraps(fn)
        def span(*args, **kwargs):
            misses = info().misses
            result = inner(*args, **kwargs)
            if info().misses != misses:
                add(name + ".states", len(result))
            return result

        span.cache_info = fn.cache_info
        span.cache_clear = fn.cache_clear
        return span

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every traced function wherever aztecgf holds a reference."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        classes = list(dict.fromkeys(
            v for m in modules for v in vars(m).values()
            if inspect.isclass(v) and v.__module__.startswith(PACKAGE)))
        for mod, path, name in TARGETS:
            orig = sys.modules[f"{PACKAGE}.{mod}"]
            for part in path.split("."):
                orig = inspect.getattr_static(orig, part)
            if hasattr(orig, "cache_info"):
                wrapper = self._wrap_cached(name, orig)
            elif inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(name, orig)
            else:
                wrapper = self._wrap_call(name, orig)
            rebound = len(self._undo)
            for holder in modules + classes:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self._undo.append((holder, attr, orig))
            if len(self._undo) == rebound:
                raise RuntimeError(f"no binding of {mod}.{path} found")
        return self

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def metrics(self):
        """Per-layer figures: {name: value}; counts are ints, times seconds."""
        out = {}
        for span in dict.fromkeys(name for _, _, name in TARGETS):
            calls, self_s = self.totals.get(span, (0, 0.0))
            out[span + ".calls"] = calls
            out[span + (".self_s" if span == "cli.main" else ".s")] = self_s
        counters = [c for c, _ in COUNTERS.values()] + list(ITEMS.values())
        for name in counters + ["stats.rank_distances.states"]:
            out[name] = self.counts.get(name, 0)
        if self._rank_cache is not None:
            info, start = self._rank_cache
            now = info()
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out["stats.rank_distances.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out
