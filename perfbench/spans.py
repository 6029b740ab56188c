"""Spans around calls into atomlaser's modules, recorded from outside the package.

Every public function of the six layer modules, and every public plain method
of their public classes, is replaced by a timing wrapper at each place it is
bound: the defining module, every module that imported it by name, and the
package namespace.  Spans stay in memory as flat arrays and are written out
once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "verify", "oracle", "observables", "propagator", "fock")


def _public_callables(modules: dict) -> dict:
    """Map each public function or method object to its span name.

    The span name is ``<layer>.<function>`` or ``<layer>.<Class>.<method>``,
    with the layer being the module that defines the object.
    """
    layer_of = {module.__name__: layer for layer, module in modules.items()}
    names = {}
    for module in modules.values():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            layer = layer_of[module.__name__]
            if inspect.isfunction(obj):
                names[obj] = f"{layer}.{obj.__name__}"
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        names[meth] = f"{layer}.{obj.__name__}.{meth_name}"
    return names


class Patch:
    """Rebinds chosen callables to wrappers everywhere they are bound; undoes it on exit."""

    def __init__(self, namespaces: list, wrappers: dict) -> None:
        self._bindings = []
        for owner in namespaces:
            targets = [owner]
            if inspect.ismodule(owner):
                targets += [v for v in vars(owner).values()
                            if inspect.isclass(v) and v.__module__ == owner.__name__]
            for target in targets:
                for attr, obj in list(vars(target).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._bindings.append((target, attr, obj, wrappers[obj]))

    def __enter__(self) -> "Patch":
        for target, attr, _, wrapper in self._bindings:
            setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original, _ in self._bindings:
            setattr(target, attr, original)


class Tracer:
    """In-memory span recorder: name, start, end, parent span and command id per span."""

    def __init__(self, package, modules: dict) -> None:
        callables = _public_callables(modules)
        self.names = sorted(set(callables.values()))
        ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._command = array("i")
        self._stack = [-1]
        self.command_id = -1
        wrappers = {f: self._wrap(f, ids[name]) for f, name in callables.items()}
        self._patch = Patch([package, *modules.values()], wrappers)

    def __len__(self) -> int:
        return len(self._start)

    def __enter__(self) -> "Tracer":
        self._patch.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.__exit__(*exc)

    def _wrap(self, func, name_id: int):
        name, start, end = self._name, self._start, self._end
        parent, command, stack = self._parent, self._command, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            command.append(self.command_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays, one entry per span."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "command": np.frombuffer(self._command, dtype=np.int32).copy(),
        }

    def save(self, path) -> dict:
        """Write the spans and their names to ``path`` (.npz); return the arrays."""
        recorded = self.arrays()
        np.savez(path, names=np.array(self.names), **recorded)
        return recorded


def self_times(recorded: dict, n_names: int, lo: int = 0, hi: int | None = None):
    """Per-name (self seconds, calls) over recorded[lo:hi].

    A span's self time is its duration minus the time its child spans cover.
    Calls are strictly nested, so the children's coverage is the sum of their
    durations.
    """
    duration = recorded["end"] - recorded["start"]
    parent = recorded["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    own = (duration - covered)[lo:hi]
    names = recorded["name"][lo:hi]
    seconds = np.bincount(names, weights=own, minlength=n_names)
    calls = np.bincount(names, minlength=n_names)
    return seconds, calls


class PeakAlloc:
    """Largest tracemalloc peak, in bytes, over the calls of one function."""

    def __init__(self, func) -> None:
        self.peak = 0
        self.wrappers = {func: self._wrap(func)}

    def _wrap(self, func):
        @functools.wraps(func)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured
