"""Spans around every public ``fttlab`` function, recorded from outside ``src/``.

``Tracer.install`` replaces each public function in every ``fttlab`` module
namespace that binds it (and ``SplitMix64.vector``) with one shared wrapper,
so calls between layers, such as ``check_dissipative`` -> ``eig_sturm``,
become nested spans.  ``uninstall`` puts the originals back.  Wrappers record
only while ``active`` is set, that is inside a timed case; oracle checks and
set-up run untraced.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  A span's self time is its duration minus the time its child spans
cover; the program is single-threaded, so children never overlap and that
cover is the sum of their durations.

For the layers whose accuracy the benchmark reports, the wrapper also keeps a
bounded, deterministic reservoir of (arguments, result) pairs; their errors
against an independent route are computed after the run, untimed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import time

MODULES = ("chebyshev", "tridiagonal", "inequalities", "semigroup", "bessel", "rng", "cli")
METHODS = (("rng", "SplitMix64", "vector"),)
CAPTURE = ("tridiagonal.eig_sturm", "tridiagonal.eigvec_inverse_iteration",
           "semigroup.operator_norm", "semigroup.expm_oracle")
RESERVOIR = 128


def layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('fttlab.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.active = False
        self.captured: dict[str, list] = {name: [] for name in CAPTURE}
        self._seen = dict.fromkeys(CAPTURE, 0)
        self._stack: list[int] = []
        self._pick = random.Random(0)
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        capture = name in CAPTURE
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if capture:
                self._keep(name, signature, args, kwargs, result)
            return result

        return traced

    def _keep(self, name, signature, args, kwargs, result) -> None:
        # reservoir sampling: every call is kept with equal probability
        self._seen[name] += 1
        seen, kept = self._seen[name], self.captured[name]
        item = (signature.bind(*args, **kwargs).arguments, result)
        if len(kept) < RESERVOIR:
            kept.append(item)
        else:
            slot = self._pick.randrange(seen)
            if slot < RESERVOIR:
                kept[slot] = item

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fttlab.{name}") for name in MODULES}
        namespaces = [importlib.import_module("fttlab"), *modules.values()]
        wrappers: dict[object, object] = {}
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("fttlab."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer_name(value))
                self._restore.append((namespace, attr, value))
                setattr(namespace, attr, wrappers[value])
        for module, cls_name, method in METHODS:
            cls = getattr(modules[module], cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, layer_name(original)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
