"""Per-module span tracer for the gnp benchmark.

The tracer instruments the package from outside: it replaces every public
function of the eight gnp modules, and every public method of their
classes, by a wrapper that records a span for the function's home module.
A function is replaced under every name a gnp module binds it to, including
the values of module-level dispatch tables (`kernels._CONVERTERS`,
`dynamics._RHS`), because `matcore` and the converters are reached only
through other modules.  Nothing under src/gnp is edited.

A call that stays inside its own module opens no new span, so a module's
self time is the time spent in its spans minus the time of the spans of
other modules they caused.  Properties are not wrapped: they are attribute
reads, evaluated in their caller's module.
"""

from __future__ import annotations

import functools
import os
import time
import types
from collections import Counter

LAYERS = ("matcore", "kernels", "dynamics", "phasespace", "fockoracle",
          "bridge", "stateio", "cli")

CONVERTERS = ("g_to_sigma", "sigma_to_g", "sigma_to_r", "r_to_sigma",
              "g_to_r", "sigma_to_c", "c_to_sigma", "c_from_g")

_MARK = "__gnp_bench_traced__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _quad_gflop(tracer, args, kwargs, result):
    # quad_operator forms one dense dim x dim complex product per nonzero
    # kernel entry: 8 dim^3 real flops each, computed from the sizes.
    M = _arg(args, kwargs, 0, "M")
    cutoff = _arg(args, kwargs, 1, "cutoff")
    dim = cutoff ** (len(M) // 2)
    nonzero = sum(1 for row in M for v in row if v != 0)
    tracer.counts["fockoracle.quad_gflop"] += nonzero * 8.0 * dim ** 3 / 1e9


def _file_size(key, index, name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return hook


def _points(tracer, args, kwargs, result):
    tracer.counts["phasespace.points"] += len(getattr(result, "values", ()))


def _csv_written(tracer, args, kwargs, result):
    tracer.counts["stateio.bytes_written"] += len(result.encode())


def _csv_read(tracer, args, kwargs, result):
    tracer.counts["stateio.bytes_read"] += len(_arg(args, kwargs, 0, "text").encode())


HOOKS = {
    "fockoracle.quad_operator": _quad_gflop,
    "phasespace.grid_eval": _points,
    "stateio.write_state": _file_size("stateio.bytes_written", 0, "path"),
    "stateio.write_hamiltonian": _file_size("stateio.bytes_written", 0, "path"),
    "stateio.read_state": _file_size("stateio.bytes_read", 0, "path"),
    "stateio.read_hamiltonian": _file_size("stateio.bytes_read", 0, "path"),
    "stateio.trajectory_to_csv": _csv_written,
    "stateio.trajectory_from_csv": _csv_read,
}


class Tracer:
    """Span and count collector; inactive until `active` is set."""

    def __init__(self):
        self.active = False
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = Counter()        # layer -> spans opened
        self.calls = Counter()        # "layer.function" -> calls
        self.inclusive_s = Counter()  # "layer.function" -> wall time
        self.counts = Counter()       # hook-computed quantities
        self._stack = []              # open spans: [layer, child seconds]

    def wrap(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            nested = bool(stack) and stack[-1][0] == layer
            if not nested:
                frame = [layer, 0.0]
                stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.inclusive_s[key] += dt
                if not nested:
                    stack.pop()
                    self.spans[layer] += 1
                    self.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of `modules` ({layer: module})."""
        homes = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers = {}

        def wrapped(fn):
            if getattr(fn, _MARK, False):
                raise RuntimeError("gnp modules are already instrumented")
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(homes[fn.__module__], fn)
            return wrappers[id(fn)]

        def is_target(obj):
            return (isinstance(obj, types.FunctionType)
                    and obj.__module__ in homes
                    and obj.__name__.isidentifier()
                    and not obj.__name__.startswith("_"))

        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if is_target(obj) and not name.startswith("_"):
                    setattr(mod, name, wrapped(obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if is_target(val):
                            obj[key] = wrapped(val)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if isinstance(member, staticmethod) and is_target(member.__func__):
                            setattr(obj, attr, staticmethod(wrapped(member.__func__)))
                        elif is_target(member):
                            setattr(obj, attr, wrapped(member))

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer figures per operation over `ops` traced operations."""
        per = 1.0 / ops
        calls = self.calls
        conversions = sum(calls[f"kernels.{name}"] for name in CONVERTERS)
        points = self.counts["phasespace.points"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] * per, "s")
        out.update({
            "matcore.calls": (self.spans["matcore"] * per, "count"),
            "matcore.structured_calls": (calls["matcore.structured"] * per, "count"),
            "matcore.eig_calls": (calls["matcore.eig_decomp"] * per, "count"),
            "matcore.expm_calls": (calls["matcore.mat_exp"] * per, "count"),
            "kernels.calls": (self.spans["kernels"] * per, "count"),
            "kernels.conversions": (conversions * per, "count"),
            "kernels.conversions_per_point": (conversions / points if points else 0.0, "count"),
            "dynamics.rhs_calls": ((calls["dynamics.normal_rhs"]
                                    + calls["dynamics.covariance_rhs"]) * per, "count"),
            "phasespace.points": (points * per, "count"),
            "fockoracle.quad_operator_s": (self.inclusive_s["fockoracle.quad_operator"] * per, "s"),
            "fockoracle.quad_gflop": (self.counts["fockoracle.quad_gflop"] * per, "GFLOP"),
            "bridge.calls": (self.spans["bridge"] * per, "count"),
            "stateio.bytes_written": (self.counts["stateio.bytes_written"] * per, "B"),
            "stateio.bytes_read": (self.counts["stateio.bytes_read"] * per, "B"),
            "cli.commands": (calls["cli.main"] * per, "count"),
        })
        return out
