"""Outside-in tracing of the oddballoon layers.

Every public function of a layer module is replaced, in every oddballoon
module that holds it under any name, by a wrapper that records one span:
function, start, end, parent span, a per-span value (the answer of an
embedding query, the nodes of an ex_exact run, the classes or members
returned) and the wrapper's own time outside the span, which Tracer.arrays
takes out of the callers.  Spans live in flat arrays and are written out at
the end.
The `graphs` kernel and `balloon` are not wrapped: their calls are too many
and too small, so their cost lands in the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from types import ModuleType

import numpy as np

PACKAGE = "oddballoon"
LAYERS = ("embed", "canon", "generate", "oracle", "decomp", "matching", "construct", "formulas")
METHODS = (("decomp", "GraphFamily", "add"), ("decomp", "GraphFamily", "prune_non_minimal"))


def import_package() -> list[ModuleType]:
    """Import the package and every submodule; return them all, the package
    first."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def find_caches(modules: list[ModuleType]) -> dict[str, object]:
    """Every functools cache bound as a module attribute, by qualified name."""
    found: dict[int, tuple[str, object]] = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                qual = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                found.setdefault(id(obj), (qual, obj))
    return dict(sorted(found.values()))


def _count_classes(out) -> int:
    if isinstance(out, (list, tuple)):
        if out and isinstance(out[0], (list, tuple)):
            return sum(len(level) for level in out)
        return len(out)
    return 0


def _value_fn(layer: str, name: str):
    if layer == "embed":
        return int
    if layer == "oracle" and name == "ex_exact":
        return lambda r: r.nodes_explored
    if layer == "generate":
        return _count_classes
    if name in ("decomposition_family", "decomposition_oracle", "b_family"):
        return len
    return None


class Tracer:
    """Patches every binding of every layer's public functions; records
    spans while patched."""

    def __init__(self, modules: list[ModuleType]):
        by_name = {m.__name__: m for m in modules}
        self.fn_names: list[str] = []
        self.fn_layers: list[int] = []
        self.bindings: list[tuple[object, str, object, object]] = []  # (owner, attr, original, wrapper)
        wrapper_of: dict[int, object] = {}
        for lid, layer in enumerate(LAYERS):
            mod = by_name[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper_of[id(obj)] = self._wrap(f"{layer}.{name}", lid, obj, _value_fn(layer, name))
        for mod in modules:
            for attr, obj in sorted(vars(mod).items()):
                w = wrapper_of.get(id(obj))
                if w is not None:
                    self.bindings.append((mod, attr, obj, w))
        for layer, cls_name, meth in METHODS:
            cls = getattr(by_name[f"{PACKAGE}.{layer}"], cls_name)
            orig = vars(cls)[meth]
            wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", LAYERS.index(layer), orig, None)
            self.bindings.append((cls, meth, orig, wrapper))
        self.clear()

    def clear(self) -> None:
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("q")
        self.cost = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.fid)

    def _wrap(self, qual: str, layer: int, fn, value_fn):
        fid = len(self.fn_names)
        self.fn_names.append(qual)
        self.fn_layers.append(layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            idx = len(tracer.fid)
            stack = tracer._stack
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1])
            tracer.value.append(0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.cost.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if value_fn is not None:
                tracer.value[idx] = value_fn(out)
            tracer.cost[idx] = t0 - t_in + clock() - t1
            return out

        return wrapper

    def patch(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, orig, _ in self.bindings:
            setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with duration, self time, layer and whether
        the span is a layer entry (its parent is in another layer).

        A wrapper's bookkeeping runs outside its own span but inside its
        caller's, so `dur` is the measured duration less the bookkeeping
        time of every span under it, and `self` is `dur` less the `dur` of
        the span's children.  Spans are stored in call order, so a span's
        descendants are the spans after it that start before it ends.
        """
        fid = np.array(self.fid, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        value = np.array(self.value, dtype=np.int64)
        cum = np.concatenate(([0.0], np.cumsum(np.array(self.cost, dtype=np.float64))))
        last = np.searchsorted(start, end, side="left")
        dur = end - start - (cum[last] - cum[np.arange(len(fid)) + 1])
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fid))
        layer = np.array(self.fn_layers, dtype=np.int64)[fid]
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        return {
            "fid": fid,
            "start": start,
            "end": end,
            "parent": parent,
            "value": value,
            "dur": dur,
            "self": dur - covered,
            "layer": layer,
            "entry": parent_layer != layer,
        }
