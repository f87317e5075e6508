"""Spans around liechar's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces every binding of a layer's public functions in
liechar's module namespaces (``from .linalg import solve_linear`` leaves one
binding in ``characteristic`` and one in ``extensions``, and both are
wrapped), plus a few hot methods, with a wrapper that records a span: name,
layer, start, end and parent.  ``Tracer.uninstall`` puts back the original
objects.  Spans stay in memory until ``take`` reduces them to per-layer self
time, call counts and the named counters of one job.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from collections import Counter
from math import comb, prod
from time import perf_counter

LAYERS = ("scalars", "linalg", "liealg", "cochains", "extensions",
          "characteristic", "workspace", "cli", "catalog")

# Methods wrapped on their classes, by defining layer.
METHODS = {
    "scalars": {"MultiPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                              "__rmul__", "__neg__", "__truediv__")},
    "cochains": {"Cochain": ("evaluate",), "SymMultiMap": ("evaluate",)},
}

ELIMINATION = ("rref", "rank", "nullspace", "column_space_basis", "solve_linear")


class Tracer:
    def __init__(self):
        self.names = []        # span name id -> (layer, qualified name)
        self._name_ids = {}
        self._saved = []       # (owner, attribute, original object)
        self._stack = []       # indices of the open spans
        self._active = []      # per name id: how many spans of that name are open
        self.clear()

    def clear(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 when no enclosing span has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()

    # ------------------------------------------------------------------
    # recording

    def _intern(self, layer, name):
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
            self._active.append(0)
        return self._name_ids[key]

    def caller_layer(self):
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1]]][0]

    def wrap(self, fn, layer, name, hook=None):
        nid = self._intern(layer, name)
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_outer.append(active[nid] == 0)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self.span_start[idx] = start
                stack.pop()
                active[nid] -= 1

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self, package_name="liechar"):
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module(package_name)
        modules = {layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(obj, layer, name, HOOKS.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    if id(original) not in wrappers:
                        qual = f"{cls_name}.{original.__name__}"
                        wrappers[id(original)] = (
                            original, self.wrap(original, layer, qual, HOOKS.get(qual)))
                    self._patch(cls, meth, wrappers[id(original)][1])
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # reduction

    def take(self):
        """Reduce the recorded spans to one job's figures, then forget them."""
        if self._stack:
            raise RuntimeError("spans still open")
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = Counter(self.counters)
        for i in range(n):
            layer, name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            out[f"{layer}.self_s"] += duration - child[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.{name}.calls"] += 1
            if self.span_outer[i]:
                out[f"{layer}.{name}.s"] += duration
        self.clear()
        return out


# ----------------------------------------------------------------------
# counters taken at the boundaries

def _elimination_hook(tracer, args, kwargs):
    if tracer.caller_layer() == "linalg":
        return
    matrix = args[0] if args else kwargs.get("a", [])
    tracer.counters["linalg.matrix_entries"] += sum(len(row) for row in matrix)
    tracer.counters["linalg.matrix_nonzeros"] += sum(
        1 for row in matrix for x in row if x != 0)


def _solve_hook(tracer, args, kwargs):
    _elimination_hook(tracer, args, kwargs)
    rhs = args[1] if len(args) > 1 else kwargs.get("b", [])
    if any(type(x).__name__ == "MultiPoly" for x in rhs):
        tracer.counters["linalg.poly_rhs.calls"] += 1


def _sym_evaluate_hook(tracer, args, kwargs):
    f, vectors = args[0], args[1]
    tracer.counters["cochains.sym_evaluate.useful"] += prod(
        sum(1 for x in v if x) for v in vectors)
    tracer.counters["cochains.sym_evaluate.visited"] += f.source.dim ** f.degree


def _integrate_hook(tracer, args, kwargs):
    tracer.counters["scalars.integrated_terms"] += len(args[0].terms)


def _parse_hook(tracer, args, kwargs):
    text = args[0] if args else kwargs["text"]
    tracer.counters["workspace.bytes_parsed"] += len(text.encode("utf-8"))


def _cohomology_hook(tracer, args, kwargs):
    algebra, rep, degree = args[:3]
    if isinstance(degree, int) and degree >= 0:
        tracer.counters["characteristic.cochain_dim"] += comb(algebra.dim, degree) * rep.space_dim


HOOKS = {name: _elimination_hook for name in ELIMINATION}
HOOKS.update({
    "solve_linear": _solve_hook,
    "SymMultiMap.evaluate": _sym_evaluate_hook,
    "integrate_poly_simplex": _integrate_hook,
    "parse_workspace": _parse_hook,
    "cohomology_space": _cohomology_hook,
})
