"""Spans around qs4's public functions, recorded from outside the program.

`Tracer.install` wraps every public function (module-level, no leading
underscore) of the qs4 modules and rebinds the wrapper wherever the original is bound in any
qs4 namespace, because the modules import each other's functions by name.
The scipy.fft module bound as `sfft` in `qs4.grid` and `qs4.functional` is
replaced by a proxy whose transforms record an `fft` span each.

A span is [name, start, end, parent index].  Spans stay in memory; `metrics`
reduces them per name to calls, busy time (spans not nested in a span of the
same name) and self time (duration minus the direct children's durations),
plus a few work counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict
_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
               "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"}
# file arguments of the container and report writers, for cli.io.bytes
_IO_PATH_ARG = {"cli.emit_results": 2, "cli.write_field": 1, "cli.read_field": 0}


class _FFTProxy:
    """Stands in for scipy.fft: transforms are traced, the rest passes through."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name in _TRANSFORMS:
            fn = self._tracer.wrap("fft", fn, "fft.points", lambda a, k: a[0].size)
        setattr(self, name, fn)
        return fn


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, key=None, amount=None):
        """Return fn recording a span `name`; after each call that returns,
        `amount(args, kwargs)` is added to the counter `key`."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if key is not None:
                counters[key] += amount(args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every qs4 module in place."""
        import qs4
        import scipy.fft

        modules = {m.name: importlib.import_module(f"qs4.{m.name}")
                   for m in pkgutil.iter_modules(qs4.__path__)}
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn, *_counter(f"{short}.{attr}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        proxy = _FFTProxy(self, scipy.fft)
        for short in ("grid", "functional"):
            modules[short].sfft = proxy

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def metrics(self) -> dict:
        """Per-name calls, busy_s and self_s, the counters, and the cli.io sum."""
        out = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            out[f"{name}.calls"] += 1
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.busy_s"] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.self_s"] += (end - start) - inner
        out.update(self.counters)
        out["cli.io.busy_s"] = sum(out[f"{n}.busy_s"] for n in _IO_PATH_ARG)
        return dict(out)


def _counter(name: str) -> tuple:
    """(counter name, amount function) for the functions whose work is
    counted beyond their calls."""
    if name == "functional.spacetime_slices":
        # spacetime_slices(F, symbol, w, p, ...): one padded slice per node
        return f"{name}.nodes", lambda a, k: (a[2] if len(a) > 2 else k["w"]).n_t
    if name == "propagator.resample_linear":
        # every output lattice point is a resampling target
        return f"{name}.points", lambda a, k: a[0].grid.n ** 2
    if name in _IO_PATH_ARG:
        i = _IO_PATH_ARG[name]
        return "cli.io.bytes", lambda a, k: os.path.getsize(a[i] if len(a) > i else k["path"])
    return None, None
