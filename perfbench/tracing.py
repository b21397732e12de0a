"""Span tracing of gridsweep's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules by a
wrapper that records a span (name, start, end, parent, pid).  The wrapper is
set on the defining module and on every gridsweep module that imported the
function by name, so calls made inside the package (``integrate`` from
``run_tensile``, ``fit_weibull`` from ``ks_test``) are caught as well.

Spans and counts stay in memory.  Pool workers forked by ``sweep run`` start
with an empty tracer and write their spans to ``<out_dir>/spans-*.json`` when
the worker process exits; `Tracer.collect()` merges them with the spans of
the calling process.  Times come from ``time.perf_counter``, which on Linux
is CLOCK_MONOTONIC and therefore comparable across processes.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import json
import multiprocessing.util
import os
import pkgutil
import time
from collections import Counter
from pathlib import Path

LAYERS = ("md", "cna", "sweep", "stats", "gridsim", "scenario", "hosts")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_integrate(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = int(a["n_steps"])
    return {"md.steps": steps, "md.atom_steps": steps * a["crystal"].n_atoms}


def _count_cna(fn, args, kwargs, result):
    return {"cna.atoms": len(_bound(fn, args, kwargs)["positions"])}


def _count_sim(fn, args, kwargs, result):
    kinds = Counter(e.kind for e in result.events)
    return {"gridsim.events": len(result.events),
            "gridsim.dispatches": kinds["dispatch"],
            "gridsim.completions": kinds["complete"]}


def _count_hosts(fn, args, kwargs, result):
    return {"hosts.n_hosts": len(result)}


# span name -> extra counts taken from a call's arguments and result
COUNTERS = {
    "md.integrate": _count_integrate,
    "cna.cna_labels": _count_cna,
    "gridsim.run_scenario": _count_sim,
    "hosts.sample_hosts": _count_hosts,
}


def _ks_span_name(fn, args, kwargs):
    return f"stats.ks_test[{_bound(fn, args, kwargs)['mode']}]"


# function -> span name that depends on the call's arguments
SPAN_NAMERS = {"stats.ks_test": _ks_span_name}


class Tracer:
    """In-memory spans and counts for one benchmark process and its pool workers."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        namer = SPAN_NAMERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(fn, args, kwargs) if namer else name
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, t0, t1, parent, self.pid)
            self.counts[span_name + ".calls"] += 1
            if counter:
                self.counts.update(counter(fn, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere they are bound."""
        import gridsweep

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gridsweep.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for info in pkgutil.iter_modules(gridsweep.__path__):
            mod = importlib.import_module(f"gridsweep.{info.name}")
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # a forked pool worker keeps only its own spans and writes them at exit
        self.pid = os.getpid()
        self.spans, self.counts, self._stack = [], Counter(), []
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.pid}-{time.monotonic_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        os.replace(tmp, path)

    def collect(self) -> tuple[list[list], Counter]:
        """Span lists (one per process) and summed counts: this process plus flushed workers."""
        groups = [self.spans]
        counts = Counter(self.counts)
        for path in sorted(self.out_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            groups.append(data["spans"])
            counts.update(data["counts"])
        return groups, counts


def write_spans_csv(groups, path) -> None:
    """All spans, one row each; ``parent`` indexes the same pid's rows (-1: root)."""
    with gzip.open(path, "wt", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pid", "index", "parent", "name", "start_s", "end_s"])
        for spans in groups:
            for idx, s in enumerate(spans):
                if s is not None:
                    w.writerow([s[4], idx, s[3], s[0], repr(s[1]), repr(s[2])])


def span_times(groups) -> tuple[Counter, Counter]:
    """(inclusive seconds per span name, self seconds per layer).

    A span's self time is its duration minus the durations of its direct
    children.  Parent links are indices into the span list of the same
    process, so a worker's root spans have no parent in the calling process.
    """
    inclusive, self_time = Counter(), Counter()
    for spans in groups:
        child_time = Counter()
        for s in spans:
            if s is not None and s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        for idx, s in enumerate(spans):
            if s is None:
                continue
            name, t0, t1 = s[0], s[1], s[2]
            inclusive[name] += t1 - t0
            self_time[name.split(".")[0]] += t1 - t0 - child_time[idx]
    return inclusive, self_time
