"""In-memory tracing of gravcat's public functions, for benchmarks/child.py."""

import functools
import importlib
import inspect
import json
import pkgutil
import time
import tracemalloc
from pathlib import Path

# Functions whose peak traced allocation is recorded.  tracemalloc slows
# every allocation, so it is switched on only around these calls.
ALLOC_TRACED = {"measurement.sample_trajectories", "measurement.estimate_force_statistics"}


class Tracer:
    """Spans (name, start, end, parent index) kept in memory; counters by name.

    Wraps each public function defined in a gravcat module, in every gravcat
    namespace that holds it (`gravcat.jc.displacement` is the same object
    as `gravcat.fock.displacement`), so calls are seen whichever name the
    caller reads.  Calls are assumed to come from one thread.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []
        self.counters = {}
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        alloc = self.alloc and name in ALLOC_TRACED
        is_writer = name == "harness.write_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = name + ".peak_alloc_mb"
                    counters[key] = max(counters.get(key, 0.0), peak / 2**20)
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if is_writer:
                counters[name + ".bytes"] = counters.get(name + ".bytes", 0) + result.stat().st_size
            return result

        return wrapper

    def install(self, package):
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(package.__name__ + ".")
                        and obj not in wrapped):
                    layer = obj.__module__[len(package.__name__) + 1:]
                    wrapped[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def dump(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans, "counters": self.counters}))
