"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps every public function of the seven ``pabraid``
modules, plus ``IntPolynomial.sign_at``, and rebinds every name that refers
to one of them in every ``pabraid.*`` namespace (``families.largest_real_root``
and ``cli.mahler_measure`` are the same function as their ``spectral``
originals).  ``missed_bindings`` then asks the garbage collector for any
remaining reference to an unwrapped original, so a binding added later to
the program cannot silently escape the trace.

A span's self time is its duration minus the durations of the wrapped
calls it made.  Calls are counted exactly; for very hot functions such as
``sign_at`` the count is the trustworthy figure and the self time carries
the wrapper's own cost.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
import types

MODULES = ("cli", "families", "spectral", "poly", "linalg", "horseshoe", "verify")

#: inner function -> outer function: calls of inner made while outer is active.
_NESTED = {
    "spectral.largest_real_root": "families.dilatation",
    "families.dilatation": "families.minimizer",
    "poly.squarefree_decomposition": "spectral.all_roots",
}

#: function -> size of its input, summed over calls.
_AMOUNTS = {
    "spectral.all_roots": lambda f, *args, **kwargs: f.degree,
    "linalg.char_poly": lambda m, *args, **kwargs: m.dim,
    "horseshoe.code_to_family": lambda word, *args, **kwargs: len(word),
}


def _discover() -> dict[str, types.FunctionType]:
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"pabraid.{short}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[f"{short}.{name}"] = obj
    found["poly.sign_at"] = importlib.import_module("pabraid.poly").IntPolynomial.sign_at
    return found


def _pabraid_namespaces():
    """Every module and class namespace of the package, as (label, owner) pairs."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pabraid" and not mod_name.startswith("pabraid."):
            continue
        yield mod_name, module
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == mod_name:
                yield f"{mod_name}.{name}", obj


def _describe(ref, fn, owners: dict[int, str]) -> str:
    where = owners.get(id(ref), type(ref).__name__)
    if isinstance(ref, dict):
        where += "." + next((k for k, v in ref.items() if v is fn), "?")
    return where


class Tracer:
    def __init__(self):
        self.originals = _discover()
        names = list(self.originals)
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.amount = dict.fromkeys(names, 0)
        self.nested = dict.fromkeys(names, 0)
        self._active = dict.fromkeys(names, 0)
        self._stack = [[0.0]]
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}

    def _wrap(self, name: str, fn):
        calls, self_s, active, stack = self.calls, self.self_s, self._active, self._stack
        amount, nested = self.amount, self.nested
        size = _AMOUNTS.get(name)
        outer = _NESTED.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if size is not None:
                amount[name] += size(*args, **kwargs)
            if outer is not None and active[outer]:
                nested[name] += 1
            active[name] += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                self_s[name] += elapsed - children[0]
                stack[-1][0] += elapsed

        wrapper.__name__, wrapper.__qualname__, wrapper.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return wrapper

    def install(self) -> None:
        by_id = {id(fn): name for name, fn in self.originals.items()}
        for _, owner in _pabraid_namespaces():
            for attr, obj in list(vars(owner).items()):
                if id(obj) in by_id:
                    setattr(owner, attr, self._wrappers[by_id[id(obj)]])

    def missed_bindings(self) -> list[str]:
        """Places that still refer to an unwrapped original, by name where known."""
        allowed = {id(self.originals)}
        for wrapper in self._wrappers.values():
            allowed.update(id(cell) for cell in wrapper.__closure__)
        owners = {id(vars(owner)): label for label, owner in _pabraid_namespaces()}
        missed = []
        for name in list(self.originals):
            fn = self.originals[name]
            for ref in gc.get_referrers(fn):
                if id(ref) not in allowed and not isinstance(ref, types.FrameType):
                    missed.append(f"{name} still bound at {_describe(ref, fn, owners)}")
        return missed

    def report(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name], "count")

        def self_time(name):
            out[f"{name}.self_s"] = (self.self_s[name], "s")

        def ratio(metric, numerator, denominator):
            out[metric] = (numerator / denominator if denominator else 0.0, "ratio")

        for name in ("cli.main", "families.dilatation", "families.minimizer",
                     "spectral.largest_real_root", "spectral.sturm_chain", "spectral.all_roots",
                     "poly.sign_at", "poly.pseudo_rem", "poly.squarefree_decomposition",
                     "linalg.char_poly", "linalg.bareiss_determinant", "linalg.perron_root",
                     "horseshoe.code_to_family"):
            calls(name)
            self_time(name)
        calls("spectral.count_roots_between")
        for name in ("spectral.mahler_measure", "spectral.count_outside_unit",
                     "horseshoe.canonicalize", "verify.run_verify"):
            self_time(name)
        ratio("families.isolations_per_dilatation",
              self.nested["spectral.largest_real_root"], self.calls["families.dilatation"])
        ratio("families.dilatations_per_minimizer",
              self.nested["families.dilatation"], self.calls["families.minimizer"])
        ratio("spectral.all_roots.attempts_per_call",
              self.nested["poly.squarefree_decomposition"], self.calls["spectral.all_roots"])
        out["spectral.all_roots.degree_sum"] = (self.amount["spectral.all_roots"], "count")
        out["linalg.char_poly.dim_sum"] = (self.amount["linalg.char_poly"], "count")
        out["horseshoe.code_chars"] = (self.amount["horseshoe.code_to_family"], "count")
        return out
