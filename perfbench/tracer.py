"""Spans around calls into wllnlab, recorded from outside the package.

The tracer replaces each traced function at the name its callers look up
(a module attribute such as ``wllnlab.cli.greedy_extract`` or a method on a
model or distribution class) with a wrapper that records a span: name,
start, end and parent span.  Spans stay in memory; ``write`` stores them once
at the end.  A span's self time is its duration minus the time its child
spans cover.

Oracle methods on distribution classes call one another (``band_moment``
calls ``trunc_moment``, ``tau_integral`` calls ``survival`` up to M times),
so only the outermost oracle call gets a span.  Inside ``tau_integral`` the
instance's ``survival`` is pointed at the unwrapped method for the duration
of the call, so the M inner calls do not pay for a wrapper either.
"""

from __future__ import annotations

import types
from array import array
from collections import defaultdict
from time import perf_counter

ORACLE_METHODS = ("survival", "trunc_moment", "band_moment", "tau_integral",
                  "quantile_array")

# layers whose nested calls are folded into the outermost call's span
_FLAT_LAYERS = ("distributions",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []          # [span id, child time]
        self.layer_depth = defaultdict(int)
        self._name_depth = defaultdict(int)
        self.calls = defaultdict(int)         # name -> calls
        self.total = defaultdict(float)       # name -> time in outermost spans of that name
        self.layer_calls = defaultdict(int)   # layer -> outermost calls
        self.layer_total = defaultdict(float)  # layer -> time in outermost spans of the layer
        self.layer_self = defaultdict(float)  # layer -> self time of all its spans
        self.units = defaultdict(int)         # name -> summed work units
        self.by_key = defaultdict(lambda: defaultdict(float))  # name -> key -> time
        self.sampling_in_verify = 0.0         # models/streams time inside verify spans
        self._originals: dict = {}            # (class, method) -> unwrapped function
        self._wrapped: dict = {}              # id(original) -> wrapper

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, layer: str, fn, args, kwargs, units, key):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        entry = [sid, 0.0]
        self._stack.append(entry)
        self.layer_depth[layer] += 1
        self._name_depth[name] += 1
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.span_end[sid] = end
            dur = end - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            self.layer_depth[layer] -= 1
            self._name_depth[name] -= 1
            self.calls[name] += 1
            self.layer_self[layer] += dur - entry[1]
            if not self._name_depth[name]:
                self.total[name] += dur
            if not self.layer_depth[layer]:
                self.layer_total[layer] += dur
                self.layer_calls[layer] += 1
                if (layer in ("models", "streams")
                        and not self.layer_depth["models"]
                        and not self.layer_depth["streams"]
                        and self.layer_depth["verify"]):
                    self.sampling_in_verify += dur
            if units is not None:
                self.units[name] += units(args, kwargs)
            if key is not None:
                self.by_key[name][key(args, kwargs)] += dur

    def wrap(self, name: str, layer: str, fn, units=None, key=None):
        """A traced stand-in for ``fn``; one wrapper per original function,
        so a function exposed under several module names is one span name."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        tracer = self
        flat = layer in _FLAT_LAYERS

        def traced(*args, **kwargs):
            if flat and tracer.layer_depth[layer]:
                return fn(*args, **kwargs)
            return tracer._span(name, layer, fn, args, kwargs, units, key)

        self._wrapped[id(fn)] = traced
        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, layer: str) -> None:
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.wrap(name, layer, fn))

    def patch_method(self, cls, meth: str, name: str, layer: str,
                     units=None) -> None:
        fn = cls.__dict__.get(meth)
        if fn is not None:
            setattr(cls, meth, self.wrap(name, layer, fn, units))

    def raw_method(self, obj, meth: str):
        for cls in type(obj).__mro__:
            if (cls, meth) in self._originals:
                return types.MethodType(self._originals[(cls, meth)], obj)
        return getattr(obj, meth)

    def patch_oracles(self, cls) -> None:
        for meth in ORACLE_METHODS:
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            self._originals[(cls, meth)] = fn
            name = f"distributions.{cls.__name__}.{meth}"
            if meth == "tau_integral":
                fn = self._bypass_survival(fn)
                key = _first_arg
            else:
                key = None
            setattr(cls, meth, self.wrap(name, "distributions", fn, key=key))

    def _bypass_survival(self, fn):
        tracer = self

        def tau_integral(obj, *args, **kwargs):
            obj.survival = tracer.raw_method(obj, "survival")
            try:
                return fn(obj, *args, **kwargs)
            finally:
                del obj.survival

        return tau_integral

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Stores every span as columns: name id, parent span id (-1 for
        none), start and end in seconds on the perf_counter clock."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def _first_arg(args, kwargs):
    return float(args[1]) if len(args) > 1 else None


def all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(all_subclasses(sub))
    return out
