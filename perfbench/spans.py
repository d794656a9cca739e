"""Outside-in tracing of the toricmld layers for the traced benchmark pass.

``Tracer.install`` replaces selected library functions with timing wrappers,
without editing the library: a module-level function is rebound in every
``toricmld`` module that imported it (so calls between modules, and calls
inside ``exactmath`` itself, go through the wrapper), and a method is
replaced on its class.  Hot helpers such as ``vec_mat`` and ``xgcd`` stay
unwrapped, because a wrapper would cost more than they do.

Each wrapped call records one span: name, start, end, busy time, parent span
and the benchmark instance it ran for.  For an ordinary call the busy time is
end - start.  ``QuotientGroup.reps_scaled`` is a generator that the ``mld``
loop resumes once per coset, so its span times every resumption and its busy
time is their sum.  A span's self time is its busy time minus the busy time
of its wrapped children.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (metric prefix, module, attribute, kind); kind is "function", "method",
# "classmethod" or "generator".
TARGETS = (
    ("exactmath.hnf", "toricmld.exactmath", "hnf", "function"),
    ("exactmath.snf", "toricmld.exactmath", "snf", "function"),
    ("exactmath.solve_exact", "toricmld.exactmath", "solve_exact", "function"),
    ("exactmath.inverse", "toricmld.exactmath", "inverse", "function"),
    ("exactmath.det", "toricmld.exactmath", "det", "function"),
    ("lattice.from_generators", "toricmld.lattice", "Lattice.from_generators", "classmethod"),
    ("lattice.quotient_group", "toricmld.lattice", "Lattice.quotient_group", "method"),
    ("lattice.reps_scaled", "toricmld.lattice", "QuotientGroup.reps_scaled", "generator"),
    ("toric.fan_build", "toricmld.toric", "Fan.build", "classmethod"),
    ("toric.find_containing_cone", "toricmld.toric", "find_containing_cone", "function"),
    ("toric.log_discrepancy", "toricmld.toric", "log_discrepancy", "function"),
    ("mld.mld", "toricmld.mld", "mld", "function"),
    ("mld.mld_bruteforce", "toricmld.mld", "mld_bruteforce", "function"),
    ("mfs.make_mfs", "toricmld.mfs", "make_mfs", "function"),
    ("mfs.validate", "toricmld.mfs", "validate", "function"),
    ("mfs.generic_fiber", "toricmld.mfs", "generic_fiber", "function"),
    ("witness.find_witness", "toricmld.witness", "find_witness", "function"),
    ("witness.lift_to_X", "toricmld.witness", "lift_to_X", "function"),
    ("witness.effective_delta", "toricmld.witness", "effective_delta", "function"),
    ("cli.main", "toricmld.cli", "main", "function"),
    ("cli.load_instance", "toricmld.cli", "load_instance", "function"),
)

SELF_TIMED = ("mld.mld", "witness.find_witness")
SELF_TIMED_LAYERS = ("exactmath", "mfs", "cli")
COUNTERS = (
    "lattice.reps_scaled.cosets",
    "mld.group_order_total",
    "witness.multiples_total",
    "witness.k_star_total",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for prefix, *_ in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.s"]
    names += [f"{name}.self_s" for name in SELF_TIMED]
    names += [f"{layer}.self_s" for layer in SELF_TIMED_LAYERS]
    names += list(COUNTERS) + ["mld.cosets_per_order"]
    return names


class Tracer:
    """Span recorder for one benchmark process (single-threaded)."""

    def __init__(self):
        self.enabled = False
        self.instance = None
        self.spans: list = []  # per span: (name, start, end, busy, parent, instance)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.finished_passes: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the already-imported toricmld modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "toricmld" or n.startswith("toricmld.")]
        for prefix, module_name, attr, kind in TARGETS:
            module = sys.modules[module_name]
            if kind == "function":
                orig = getattr(module, attr)
                wrapper = self._wrap(prefix, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, name, wrapper)
                continue
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if kind == "classmethod":
                new = classmethod(self._wrap(prefix, raw.__func__))
            elif kind == "generator":
                new = self._wrap_generator(prefix, raw)
            else:
                new = self._wrap(prefix, raw)
            self._set(cls, meth, new)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- wrappers -----------------------------------------------------------

    def _open(self):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        return sid, parent

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        on_result = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            tracer._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, end - start, parent, tracer.instance)
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def timed(gen, spans, counters, sid, parent, start):
            busy = 0.0
            count = 0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    count += 1
                    yield item
            finally:
                gen.close()
                spans[sid] = (name, start, clock(), busy, parent, tracer.instance)
                counters["lattice.reps_scaled.cosets"] += count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            gen = fn(*args, **kwargs)
            return timed(gen, tracer.spans, tracer.counters, sid, parent, clock())

        return wrapper

    # -- per-pass aggregation -----------------------------------------------

    def start_pass(self) -> None:
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def finish_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``start_pass``."""
        spans = self.spans
        self.finished_passes.append(spans)
        closed = [(sid, s) for sid, s in enumerate(spans) if s is not None]
        child_busy: dict[int, float] = {}
        for _, (_, _, _, busy, parent, _) in closed:
            if parent is not None:
                child_busy[parent] = child_busy.get(parent, 0.0) + busy
        metrics: dict[str, float] = dict.fromkeys(layer_metric_names(), 0)
        for sid, (name, _, _, busy, _, _) in closed:
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.s"] += busy
            self_s = busy - child_busy.get(sid, 0.0)
            if name in SELF_TIMED:
                metrics[f"{name}.self_s"] += self_s
            layer = name.split(".")[0]
            if layer in SELF_TIMED_LAYERS:
                metrics[f"{layer}.self_s"] += self_s
        metrics.update(self.counters)
        order = self.counters["mld.group_order_total"]
        cosets = self.counters["lattice.reps_scaled.cosets"]
        metrics["mld.cosets_per_order"] = cosets / order if order else 0.0
        return metrics

    def write(self, path) -> None:
        """Write every finished pass's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, spans in enumerate(self.finished_passes):
                for sid, span in enumerate(spans):
                    if span is None:
                        continue
                    name, start, end, busy, parent, instance = span
                    fh.write(json.dumps([index, sid, name, start, end, busy, parent, instance]) + "\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes; counts repeat exactly pass to pass."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def _count_group_order(counters, qg) -> None:
    counters["mld.group_order_total"] += qg.order


def _count_witness(counters, report) -> None:
    counters["witness.multiples_total"] += int(report.t) + 1
    counters["witness.k_star_total"] += report.pair[1] - report.pair[0]


_RESULT_COUNTERS = {
    "lattice.quotient_group": _count_group_order,
    "witness.find_witness": _count_witness,
}
