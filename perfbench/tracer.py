"""Outside-in tracing of one sweep: spans around every call into the package.

The package is not edited.  ``Tracer.install`` wraps each public function of
the layer modules under every name its callers look up: ``theorems`` binds
``q_binomial``, ``q_factorial``, ``q_int`` and ``divides`` by value, and
``sweep`` binds every ``check_*`` by value, so patching only the defining
module would miss those calls.  Kernel methods are patched on the classes.

A span is (name, start, end, parent span, instance id, work).  Spans stay in
memory and are written out once, at the end.  A span's self time is its
duration minus the time its child spans cover; calls are sequential, so that
is the sum of the children's durations.  Cache counters come from
``cache_info()`` and ``len(...)`` of the package's own caches.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

LAYERS = ("poly", "qcomb", "congruence", "theorems", "faulhaber", "sweep")

CLAIMS = ("thm1", "q1", "thm2", "sum_lemma", "chu_vandermonde", "p_minus_one",
          "residue_identity", "symmetric_identity", "qpfaff", "conjecture",
          "faulhaber")

# (module, class, span prefix, methods); ``__rmul__`` and ``__radd__`` are the
# same function objects as ``__mul__`` and ``__add__`` and share their span.
CLASS_METHODS = (
    ("poly", "IntPoly", "poly",
     ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
      "shift", "evaluate", "divrem", "exact_div")),
    ("qcomb", "LaurentPoly", "qcomb.laurent",
     ("__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__eq__", "as_poly")),
    ("qcomb", "QBinomialCache", "qcomb.binomial_cache", ("binomial",)),
)


def _coeff_count(p):
    if isinstance(p, int):
        return 1 if p else 0
    return len(p.coeffs)


def _mul_work(args, result):
    return _coeff_count(args[0]) * _coeff_count(args[1])


def _dividend_work(args, result):
    return len(args[0].coeffs)


def _len_work(args, result):
    return len(result)


WORK = {
    "poly.mul": _mul_work,
    "poly.exact_div": _dividend_work,
    "sweep.enumerate_instances": _len_work,
    "sweep.thm1_sample_instances": _len_work,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.instance = -1  # id of the instance being checked, -1 between instances
        self._instances = 0
        self._caches = {}

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """``fn`` recording one span per call under ``name``."""
        name_id = self.name_id(name)
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                w = work(args, result) if work is not None and result is not None else 0
                spans[span_id] = (name_id, start, end, parent, self.instance, w)

        return traced

    def wrap_instance(self, fn):
        """``sweep.run_instance``: one ``claim.<id>`` span per instance."""
        claim_ids = {c: self.name_id("claim." + c) for c in CLAIMS}
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(item):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            instance = self.instance = self._instances
            self._instances += 1
            start = clock()
            try:
                return fn(item)
            finally:
                end = clock()
                stack.pop()
                self.instance = -1
                spans[span_id] = (claim_ids[item[0]], start, end, parent, instance, 0)

        return traced

    def install(self):
        """Wrap the package's public functions and kernel methods in place."""
        import qcong
        import qcong.cli

        modules = {short: importlib.import_module("qcong." + short) for short in LAYERS}
        qcomb, theorems = modules["qcomb"], modules["theorems"]
        self._caches = {
            "q_factorial": qcomb.q_factorial,
            "multinom_factor": getattr(theorems, "_multinom_factor_cached", None),
            "product_cache": getattr(theorems, "_PRODUCT_CACHE", None),
        }
        wrappers = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if short == "sweep" and name == "run_instance":
                    wrappers[id(obj)] = (obj, self.wrap_instance(obj))
                else:
                    wrappers[id(obj)] = (obj, self.wrap("%s.%s" % (short, name), obj))
        for namespace in [vars(m) for m in modules.values()] + [vars(qcong), vars(qcong.cli)]:
            for name, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[name] = hit[1]
        for short, cls_name, prefix, methods in CLASS_METHODS:
            cls = getattr(modules[short], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                wrapper = self.wrap("%s.%s" % (prefix, method.strip("_")), original)
                for attr, obj in list(vars(cls).items()):
                    if obj is original:
                        setattr(cls, attr, wrapper)
        return self

    # --- analysis ---------------------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total and self seconds, summed work, durations."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
                        "durations": []} for name in self.names}
        for i, (name_id, start, end, parent, _, work) in enumerate(self.spans):
            s = stats[self.names[name_id]]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["work"] += work
            s["durations"].append(end - start)
        return stats

    def _cache_misses(self):
        """q_binomial calls made from inside QBinomialCache.binomial."""
        cache_id = self._name_ids.get("qcomb.binomial_cache.binomial")
        binom_id = self._name_ids.get("qcomb.q_binomial")
        return sum(1 for name_id, _, _, parent, _, _ in self.spans
                   if name_id == binom_id and parent >= 0
                   and self.spans[parent][0] == cache_id)

    def layer_metrics(self, kind):
        """The benchmark's per-layer metrics, as {name: (value, unit)}."""
        stats = self.aggregate()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "durations": []}

        def get(name):
            return stats.get(name, empty)

        out = {}
        for name in ("poly.mul", "poly.exact_div", "congruence.divides", "poly.add",
                     "qcomb.q_binomial"):
            out[name + ".calls"] = (get(name)["calls"], "count")
        for name in ("poly.mul", "poly.exact_div", "congruence.divides", "poly.add",
                     "qcomb.q_pochhammer_eval", "congruence.make_report",
                     "qcomb.q_binomial", "theorems.multinom_factor",
                     "theorems.weighted_sum"):
            out[name + ".self_s"] = (get(name)["self_s"], "s")
        out["poly.mul.coeff_products"] = (get("poly.mul")["work"], "count")
        out["poly.exact_div.dividend_coeffs"] = (get("poly.exact_div")["work"], "count")
        out["qcomb.laurent.self_s"] = (
            sum(s["self_s"] for n, s in stats.items() if n.startswith("qcomb.laurent.")), "s")
        out["sweep.render_report.s"] = (get("sweep.render_report")["total_s"], "s")
        enum = get("sweep.enumerate_instances" if kind == "cli"
                   else "sweep.thm1_sample_instances")
        out["sweep.enumerate_instances.s"] = (enum["total_s"], "s")
        out["sweep.enumerate_instances.instances"] = (enum["work"], "count")

        binomial_calls = get("qcomb.binomial_cache.binomial")["calls"]
        out["qcomb.binomial_cache.hit_ratio"] = (
            (binomial_calls - self._cache_misses()) / binomial_calls
            if binomial_calls else 0.0, "ratio")
        for metric, cache in (("qcomb.q_factorial.hit_ratio", "q_factorial"),
                              ("theorems.multinom_factor.hit_ratio", "multinom_factor")):
            info = self._caches[cache].cache_info() if self._caches[cache] else None
            lookups = info.hits + info.misses if info else 0
            out[metric] = (info.hits / lookups if lookups else 0.0, "ratio")
        product_cache = self._caches["product_cache"]
        out["theorems.product_cache.entries"] = (
            len(product_cache) if product_cache is not None else 0, "count")

        for claim in CLAIMS:
            s = get("claim." + claim)
            out["claim.%s.calls" % claim] = (s["calls"], "count")
            out["claim.%s.total_s" % claim] = (s["total_s"], "s")
            p99 = (statistics.quantiles(s["durations"], n=100, method="inclusive")[98]
                   if len(s["durations"]) > 1 else sum(s["durations"]))
            out["claim.%s.p99_ms" % claim] = (p99 * 1000.0, "ms")
        return out

    def write(self, directory, kind):
        """Write every span and the per-layer metrics into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.tsv"), "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tinstance\twork\n")
            for i, (name_id, start, end, parent, instance, work) in enumerate(self.spans):
                fh.write("%d\t%s\t%r\t%r\t%d\t%d\t%d\n" % (
                    i, self.names[name_id], start, end, parent, instance, work))
        with open(os.path.join(directory, "layers.json"), "w") as fh:
            json.dump(self.layer_metrics(kind), fh)
