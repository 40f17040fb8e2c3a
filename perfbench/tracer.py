"""Span tracer that wraps a package's public functions from the outside.

Every public function of the given modules, and every public method of the
given classes, is replaced by a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  A function is
rebound in every module namespace that holds it, so a name imported with
`from .arith import kloosterman_table` is traced at its internal call sites
too.  `uninstall` puts every original back.

Spans live in flat arrays in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# hook(args, kwargs, result) -> a replacement span name, or None
Hook = Callable[[tuple, dict, object], "str | None"]


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap each
    other and their durations add up to the time they cover.
    """
    dur = ends - starts
    covered = np.zeros(len(dur))
    kids = parents >= 0
    np.add.at(covered, parents[kids], dur[kids])
    return dur - covered


class Tracer:
    def __init__(self, modules, classes=(), hooks: dict[str, Hook] | None = None):
        self.modules = list(modules)
        self.classes = list(classes)
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]  # indices of the open spans; -1 is the root
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _short(self, module_name: str) -> str:
        return module_name.rsplit(".", 1)[-1]

    def targets(self):
        """(span name, owner, attribute, original) for everything traced."""
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    yield f"{self._short(mod.__name__)}.{attr}", mod, attr, obj
        for cls in self.classes:
            for attr, obj in vars(cls).items():
                if attr.startswith("_"):
                    continue
                fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
                if inspect.isfunction(fn):
                    yield f"{self._short(cls.__module__)}.{cls.__name__}.{attr}", cls, attr, obj

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = self._package()
        namespaces = [m for name, m in list(sys.modules.items()) if name == pkg or name.startswith(pkg + ".")]
        for name, owner, attr, obj in list(self.targets()):
            if inspect.isclass(owner):
                if isinstance(obj, (classmethod, staticmethod)):
                    wrapped = type(obj)(self._wrap(name, obj.__func__))
                else:
                    wrapped = self._wrap(name, obj)
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, obj)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        self._restore.append((ns, key, obj))
                        setattr(ns, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _package(self) -> str:
        first = (self.modules or self.classes)[0]
        mod = first.__name__ if inspect.ismodule(first) else first.__module__
        return mod.split(".", 1)[0]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = self.hooks.get(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                renamed = hook(args, kwargs, result)
                if renamed is not None:
                    name_ids[idx] = self._id(renamed)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def arrays(self):
        """(name_id, parent, start, end) of every span, as numpy arrays."""
        return (
            np.array(self.name_ids, dtype=np.int64),
            np.array(self.parents, dtype=np.int64),
            np.array(self.starts),
            np.array(self.ends),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: number of calls and total self time in seconds."""
        ids, parents, starts, ends = self.arrays()
        own = self_times(parents, starts, ends)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, n in enumerate(self.names)}

    def write(self, path, run_id: str) -> None:
        """Save the spans as .npz: span i is named names[name_id[i]]."""
        ids, parents, starts, ends = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=ids, parent=parents,
            start=starts, end=ends, run_id=np.array(run_id),
        )
