"""Span tracer for the benchmark's traced runs.

The wrappers are installed from the benchmark, never from the library:
each traced function is replaced, on every ``qtransversal`` module
namespace that binds it (the modules import with ``from .x import f``),
or on its class for a method, by a wrapper that records a span (name,
start, end, parent span) and exact counts.  Uninstalling restores every
binding.  Self time is a span's duration minus the time its child spans
cover.

Span records are kept in memory up to ``SPAN_CAP``; the per-name
aggregates (calls, self time, outcome counts) are exact over all spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 5_000

# (module, attribute or Class.method, span name, kind).  Kinds: "span"
# records a span, "count" only counts calls (too frequent for a span),
# "gen" records one span piece per resumption of a generator.
TARGETS = (
    ("subspaces", "Lattice.__init__", "subspaces.Lattice", "span"),
    ("subspaces", "rref", "subspaces.rref", "span"),
    ("subspaces", "enumerate_bases", "subspaces.enumerate_bases", "gen"),
    ("fields", "FieldSpec.mul_codes", "fields.mul_codes", "count"),
    ("fields", "field_make", "fields.field_make", "span"),
    ("qmatroids", "check_submodular", "qmatroids.check_submodular", "span"),
    ("qmatroids", "induce", "qmatroids.induce", "span"),
    ("qmatroids", "union", "qmatroids.union", "span"),
    ("qmatroids", "rank_one", "qmatroids.rank_one", "span"),
    ("qmatroids", "QMatroid.circuits", "qmatroids.QMatroid.circuits", "span"),
    ("qmatroids", "QMatroid.bar_nullity_idx", "qmatroids.QMatroid.bar_nullity_idx", "span"),
    ("qtransversals", "is_partial_q_transversal", "qtransversals.is_partial_q_transversal", "span"),
    ("qtransversals", "presentation_matroid", "qtransversals.presentation_matroid", "span"),
    ("qtransversals", "is_minimal_presentation", "qtransversals.is_minimal_presentation", "span"),
    ("qtransversals", "reduce_presentation", "qtransversals.reduce_presentation", "span"),
    ("qtransversals", "recheck_certificate", "qtransversals.recheck_certificate", "span"),
    ("qtransversals", "q_transversal_by_definition", "qtransversals.q_transversal_by_definition", "span"),
    ("classical", "maximum_matching", "classical.maximum_matching", "span"),
    ("representation", "represented_rank", "representation.represented_rank", "span"),
    ("representation", "verify_representation", "representation.verify_representation", "span"),
    ("representation", "find_representation", "representation.find_representation", "span"),
    ("representation", "build_aligned_representation", "representation.build_aligned_representation", "span"),
    ("conjectures", "default_matroid_source", "conjectures.default_matroid_source", "span"),
    ("conjectures", "scan_q_rado", "conjectures.scan", "span"),
    ("conjectures", "scan_minimal_uniqueness", "conjectures.scan", "span"),
    ("conjectures", "scan_representability", "conjectures.scan", "span"),
    ("cli", "main", "cli.main", "span"),
)

# Workloads on which each wrapper is predicted to fire (setup included);
# the self-check fails a traced run when one of them records no call.
PREDICTED = {
    "subspaces.Lattice": ("cli-cold", "scan", "certify"),
    "subspaces.rref": ("cli-cold", "scan", "certify"),
    "subspaces.enumerate_bases": ("cli-cold", "certify"),
    "fields.mul_codes": ("cli-cold", "certify"),
    "fields.field_make": ("cli-cold", "certify"),
    "qmatroids.check_submodular": ("cli-cold", "scan"),
    "qmatroids.induce": ("cli-cold", "scan"),
    "qmatroids.union": ("cli-cold", "scan"),
    "qmatroids.rank_one": ("cli-cold", "scan"),
    "qmatroids.QMatroid.circuits": ("cli-cold", "scan"),
    "qmatroids.QMatroid.bar_nullity_idx": ("scan",),
    "qtransversals.is_partial_q_transversal": ("cli-cold", "scan", "certify"),
    "qtransversals.presentation_matroid": ("cli-cold", "scan", "certify"),
    "qtransversals.is_minimal_presentation": ("cli-cold", "scan"),
    "qtransversals.reduce_presentation": ("cli-cold",),
    "qtransversals.recheck_certificate": ("cli-cold", "certify"),
    "qtransversals.q_transversal_by_definition": ("cli-cold",),
    "classical.maximum_matching": ("cli-cold", "certify"),
    "representation.represented_rank": ("cli-cold", "certify"),
    "representation.verify_representation": ("cli-cold", "certify"),
    "representation.find_representation": ("certify",),
    "representation.build_aligned_representation": ("cli-cold", "certify"),
    "conjectures.default_matroid_source": ("cli-cold", "scan"),
    "conjectures.scan": ("cli-cold", "scan", "certify"),
    "cli.main": ("cli-cold",),
}


def _on_found(tracer, args, result):
    tracer.counts["representation.find_representation.found"] += result is not None


def _on_pool(tracer, args, result):
    size = len(args[0])
    tracer.counts["conjectures.pool_kept"] += len(result)
    tracer.counts["conjectures.pool_candidates"] += 1 + size + size * size


HOOKS = {
    "representation.find_representation": _on_found,
    "conjectures.default_matroid_source": _on_pool,
}


class Tracer:
    """Collects spans and exact counts while its wrappers are installed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.children: list = []
        self.dropped = 0
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []
        self._cache_info = None

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    def _iterate(self, name, gen):
        while True:
            frame = self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            self.counts[name + ".yielded"] += 1
            yield item

    def _wrap(self, fn, name, kind):
        tracer = self
        counts = self.counts
        hook = HOOKS.get(name)
        if kind == "count":
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        elif kind == "gen":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return tracer._iterate(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if hook is not None:
                    hook(tracer, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target on its class or on every namespace binding it."""
        from qtransversal import subspaces

        homes = {m: importlib.import_module(f"qtransversal.{m}") for m, *_ in TARGETS}
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "qtransversal" or key.startswith("qtransversal.")
        ]
        for module_name, attr, name, kind in TARGETS:
            home = homes[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name, kind))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        self._cache_info = subspaces.get_lattice.cache_info()

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        from qtransversal import subspaces

        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        info = subspaces.get_lattice.cache_info()
        self.counts["subspaces.get_lattice.hits"] += info.hits - self._cache_info.hits
        self.counts["subspaces.get_lattice.misses"] += info.misses - self._cache_info.misses

    # -- results ----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "spans": [list(s) for s in self.spans],
            "dropped_spans": self.dropped,
            "children": self.children,
        }

    def merge(self, doc: dict) -> None:
        """Add the aggregates of another tracer (e.g. a CLI child's) and
        keep its spans as a child record."""
        self.children.append({"spans": doc["spans"], "dropped_spans": doc["dropped_spans"]})
        self.counts.update(doc["counts"])
        for name, value in doc["self_s"].items():
            self.self_s[name] += value


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, names: list[str], extra: dict) -> dict:
    """The named per-layer metrics.  ``<span>.calls`` and ``<span>.self_s``
    come from the wrappers, ratios from their counts, the rest from
    ``extra`` (values the workload measured itself)."""
    c, s = tracer.counts, tracer.self_s
    derived = {
        "subspaces.get_lattice.hit_ratio": _ratio(
            c["subspaces.get_lattice.hits"],
            c["subspaces.get_lattice.hits"] + c["subspaces.get_lattice.misses"],
        ),
        "representation.find_representation.found_ratio": _ratio(
            c["representation.find_representation.found"], c["representation.find_representation"]
        ),
        "conjectures.pool_kept_ratio": _ratio(
            c["conjectures.pool_kept"], c["conjectures.pool_candidates"]
        ),
        **extra,
    }
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "calls":
            out[name] = c[span]
        elif field == "self_s":
            out[name] = s[span]
        elif field == "yielded":
            out[name] = c[name]
        else:
            raise KeyError(f"no rule computes the per-layer metric {name}")
    return out


def missed_predictions(tracer: Tracer, workload: str) -> list[str]:
    """Wrappers predicted to fire on the workload that recorded no call."""
    return sorted(
        name
        for name, workloads in PREDICTED.items()
        if workload in workloads and not tracer.counts[name]
    )


def exact_counts(tracer: Tracer) -> dict:
    return {k: v for k, v in tracer.counts.items() if v}
