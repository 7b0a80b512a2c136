"""In-memory spans around nosigchan's public functions, for the traced run.

``Tracer.install`` wraps every public function and every public method of
the package's classes, module by module, and rebinds each wrapper in every
module that holds the original by name (``from .channels import apply`` in
``nosignal``, for example), so calls made inside the package are seen too.
Spans are recorded only between ``begin`` and ``end``; set-up done outside
them and the benchmark's output checks leave no spans.

A span is (name, start, end, parent, op id, count); the op id of a root
span is the number passed to ``begin``.  ``count`` is a unit of
work computed from the call's arguments at the boundary, for the three
functions in ``COUNTERS``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("tensor", "channels", "nosignal", "counterexample", "analysis", "choifile", "cli")

# Label bookkeeping inside the tensor layer: its methods run some 10^4 times
# per op, so wrapping them would double the spans and the tracing overhead.
# Their time counts as the self time of the functions that call them.
UNWRAPPED_CLASSES = ("SystemLayout",)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Span name -> (counter name, unit, count from the call's arguments).
COUNTERS = {
    # d_in^2: the map evaluations over matrix units.
    "channels.choi_from_map": ("map_evals", "count", lambda a, k: _arg(a, k, 1, "in_layout").total_dim ** 2),
    # Bytes of the full-space complex operator that embed materialises.
    "tensor.embed": ("bytes", "B", lambda a, k: _arg(a, k, 2, "lay").total_dim ** 2 * 16),
    "choifile.load_channel": ("bytes", "B", lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))),
}


class Tracer:
    """Records nested spans in memory and restores the package on ``uninstall``."""

    def __init__(self):
        self.names = []  # span name table; spans refer to it by index
        self._name_ids = {}
        # One column per span field; arrays keep a million spans small and
        # out of the garbage collector's way.
        self._cols = (array("q"), array("d"), array("d"), array("q"), array("q"), array("d"))
        self._stack = []
        self._op = -1
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, count) -> int:
        name, start, end, parent, op, cnt = self._cols
        idx = len(name)
        name.append(name_id)
        start.append(time.perf_counter())
        end.append(0.0)
        parent.append(self._stack[-1] if self._stack else -1)
        op.append(self._op)
        cnt.append(count)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._cols[2][idx] = time.perf_counter()
        self._stack.pop()

    def begin(self, root: str, op_id: int) -> None:
        """Open a root span; wrapped calls record spans until ``end``."""
        if self._stack:
            raise RuntimeError("begin() inside an open root span")
        self._op = op_id
        self._open(self._name_id(root), 0)

    def end(self) -> None:
        self._close(self._stack[-1])
        if self._stack:
            raise RuntimeError("end() left spans open")
        self._op = -1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS[name][2] if name in COUNTERS else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id, counter(args, kwargs) if counter else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, package_name: str = "nosigchan") -> None:
        """Wrap the public functions of every module in ``MODULES``."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"{package_name}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and attr not in UNWRAPPED_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, fn, self._wrap(f"{short}.{obj.__name__}.{meth}", fn))
        prefix = package_name + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, obj, wrappers[obj])

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self):
        """The spans as NumPy columns: name id, start, end, parent, op id, count."""
        return tuple(np.array(c) for c in self._cols)

    def save(self, path) -> None:
        """Write the spans and the name table as one .npz file."""
        name, start, end, parent, op, count = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, op=op, count=count)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover."""
    own = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        clipped = sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids)
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


def summarize(names, name, start, end, parent, count, root: str):
    """Per-name totals over the spans under root spans called ``root``.

    Returns (number of roots, totals, summed root durations in seconds,
    consistency error).  ``totals`` maps a span name to [calls, self seconds,
    count]; the root's own entry holds the time no wrapped function covers.
    The error is the largest, over roots, of |sum of self times - root
    duration| in seconds.
    """
    own = self_times(start, end, parent)
    top = np.arange(len(parent))
    for i, p in enumerate(parent):
        if p >= 0:
            top[i] = top[p]  # parents are recorded before their children
    labels = np.asarray(names, dtype=object)[name]
    roots = np.flatnonzero((parent < 0) & (labels == root))
    keep = np.flatnonzero(np.isin(top, roots))
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i in keep:
        t = totals[labels[i]]
        t[0] += 1
        t[1] += own[i]
        t[2] += count[i]
    covered = np.zeros(len(parent))
    np.add.at(covered, top[keep], own[keep])
    wall = end[roots] - start[roots]
    err = float(np.max(np.abs(covered[roots] - wall), initial=0.0))
    return len(roots), dict(totals), float(wall.sum()), err
