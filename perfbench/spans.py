"""
Outside-in span tracer for the klimm benchmark.

The tracer never edits klimm.  It replaces each traced function, in every
klimm module namespace that binds it, with a wrapper that records a span
(id, parent id, request id, name, start, end) around the call, and it
restores the originals on exit.  Calls made inside a module through its
own globals (``minor`` calling ``det``, ``_kl`` calling ``bruhat_leq``)
go through the same wrappers, because those globals are rebound too.

Spans are properly nested (one thread), so a span's child cover is the
sum of its direct children's durations and self time is duration minus
that.  Hot leaf functions (millions of calls per run) update their
counters and their parent's child cover but are not stored one by one;
every other span is kept in memory and written out by :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (defining module, attribute) -> span name.  Both suite runners count as
# one ``suites.run`` layer entry.
TRACED_FUNCTIONS = {
    ("perm", "bruhat_leq"): "perm.bruhat_leq",
    ("perm", "avoids"): "perm.avoids",
    ("klpoly", "kl_polynomial"): "klpoly.kl_polynomial",
    ("grid", "graph_of_upper_interval"): "grid.graph_of_upper_interval",
    ("grid", "graph_of_interval_bruteforce"):
        "grid.graph_of_interval_bruteforce",
    ("grid", "largest_square"): "grid.largest_square",
    ("grid", "bounding_boxes"): "grid.bounding_boxes",
    ("grid", "is_admissible"): "grid.is_admissible",
    ("exactmat", "det"): "exactmat.det",
    ("exactmat", "minor"): "exactmat.minor",
    ("exactmat", "is_k_positive"): "exactmat.is_k_positive",
    ("exactmat", "gen_k_positive_not_higher"):
        "exactmat.gen_k_positive_not_higher",
    ("exactmat", "gen_totally_positive"): "exactmat.gen_totally_positive",
    ("immanant", "imm_definition"): "immanant.imm_definition",
    ("immanant", "imm_determinantal"): "immanant.imm_determinantal",
    ("immanant", "dual_canonical_eval"): "immanant.dual_canonical_eval",
    ("suites", "run_suite"): "suites.run",
    ("suites", "run_search"): "suites.run",
    ("cli", "main"): "cli.main",
}

# Methods of klpoly.KLCache, patched on the class itself.
TRACED_METHODS = {"load": "klpoly.KLCache.load",
                  "save": "klpoly.KLCache.save"}

# Called millions of times per run: counted, timed and charged to the
# parent's child cover, but not stored as individual spans.
LEAF_SPANS = frozenset({"perm.bruhat_leq", "perm.avoids",
                        "exactmat.det", "exactmat.minor"})

SAMPLER = "exactmat.gen_k_positive_not_higher"

# det durations are binned at 0.1 us for the p50/p99 estimates.
_DET_BIN_S = 1e-7
_DET_BINS = 200_000


class Tracer:
    """Records spans around klimm's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._next_id = 1
        self._stack: list[list] = []  # [span id, name, child cover]
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.sampler_trials = 0
        self.sampler_exhausted = 0
        self.det_hist = [0] * _DET_BINS
        self.caches: list = []
        self.cache_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0]
        stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._depth[name] -= 1
            duration = end - start
            self.calls[name] += 1
            if not self._depth[name]:
                self.busy[name] += duration
            self.self_time[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
                if parent[1] == SAMPLER and name == "exactmat.is_k_positive":
                    self.sampler_trials += 1
            if name == "exactmat.det":
                self.det_hist[min(int(duration / _DET_BIN_S),
                                  _DET_BINS - 1)] += 1
            if name not in LEAF_SPANS:
                self.spans.append((span_id, parent[0] if parent else 0,
                                   self.request, name, start, end))
        if name == SAMPLER and result is None:
            self.sampler_exhausted += 1
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded klimm namespace."""
        from klimm.klpoly import KLCache

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "klimm" or name.startswith("klimm."))}
        wrappers = {}
        for (module, attr), span in TRACED_FUNCTIONS.items():
            original = getattr(modules[f"klimm.{module}"], attr)
            wrappers[id(original)] = self._wrap(span, original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        original_init = KLCache.__init__

        def registering_init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            self.caches.append(cache)

        self._patch(KLCache, "__init__", registering_init)
        load = KLCache.__dict__["load"].__func__
        traced_load = self._wrap(TRACED_METHODS["load"], load)

        def load_counting_bytes(cls, path):
            self.cache_bytes += os.path.getsize(path)
            return traced_load(cls, path)

        self._patch(KLCache, "load", classmethod(load_counting_bytes))
        self._patch(KLCache, "save",
                    self._wrap(TRACED_METHODS["save"], KLCache.save))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def _det_percentile_us(self, q: float) -> float:
        total = self.calls["exactmat.det"]
        if not total:
            return 0.0
        rank = q * total
        seen = 0
        for index, count in enumerate(self.det_hist):
            seen += count
            if seen >= rank:
                return (index + 0.5) * _DET_BIN_S * 1e6
        return _DET_BINS * _DET_BIN_S * 1e6

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counters and times, keyed by the benchmark's names."""
        m: dict[str, float] = {}

        def calls_busy(span: str) -> None:
            m[f"{span}.calls"] = self.calls[span]
            m[f"{span}.busy_s"] = self.busy[span]

        for span in ("perm.bruhat_leq", "perm.avoids"):
            calls_busy(span)
        calls_busy("klpoly.kl_polynomial")
        m["klpoly.kl_polynomial.self_s"] = self.self_time["klpoly.kl_polynomial"]
        hits = sum(c.hits for c in self.caches)
        misses = sum(c.misses for c in self.caches)
        m["klpoly.cache.entries"] = sum(len(c) for c in self.caches)
        m["klpoly.cache.hits"] = hits
        m["klpoly.cache.misses"] = misses
        m["klpoly.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["klpoly.KLCache.load.busy_s"] = self.busy[TRACED_METHODS["load"]]
        m["klpoly.KLCache.save.busy_s"] = self.busy[TRACED_METHODS["save"]]
        m["klpoly.cache.bytes"] = self.cache_bytes
        for span in ("grid.graph_of_upper_interval",
                     "grid.graph_of_interval_bruteforce",
                     "grid.largest_square", "grid.bounding_boxes",
                     "grid.is_admissible"):
            calls_busy(span)
        calls_busy("exactmat.det")
        m["exactmat.det.p50_us"] = self._det_percentile_us(0.50)
        m["exactmat.det.p99_us"] = self._det_percentile_us(0.99)
        m["exactmat.minor.calls"] = self.calls["exactmat.minor"]
        calls_busy("exactmat.is_k_positive")
        calls_busy(SAMPLER)
        trials = self.sampler_trials
        accepted = self.calls[SAMPLER] - self.sampler_exhausted
        m[f"{SAMPLER}.exhausted"] = self.sampler_exhausted
        m[f"{SAMPLER}.accept_ratio"] = accepted / trials if trials else 0.0
        m[f"{SAMPLER}.s_per_accepted"] = (self.busy[SAMPLER] / accepted
                                          if accepted else 0.0)
        m["exactmat.sampler.trials"] = trials
        calls_busy("exactmat.gen_totally_positive")
        calls_busy("immanant.imm_definition")
        m["immanant.imm_definition.self_s"] = self.self_time["immanant.imm_definition"]
        calls_busy("immanant.imm_determinantal")
        calls_busy("immanant.dual_canonical_eval")
        m["suites.run.busy_s"] = self.busy["suites.run"]
        m["suites.self_s"] = self.self_time["suites.run"]
        m["cli.main.busy_s"] = self.busy["cli.main"]
        m["cli.self_s"] = self.self_time["cli.main"]
        return m

    def cache_stats(self) -> list[dict[str, int]]:
        return [c.stats() for c in self.caches]

    def dump(self, path: str) -> None:
        """Write the stored spans, then the per-name totals, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end}) + "\n")
            for name in sorted(self.calls):
                out.write(json.dumps({
                    "total": name, "calls": self.calls[name],
                    "busy_s": self.busy[name],
                    "self_s": self.self_time[name],
                    "stored_spans": name not in LEAF_SPANS}) + "\n")
