"""Outside-in span tracer for the ifslab library.

The tracer wraps the public functions of each library module from here,
without editing the source.  Three places need care:

* modules import each other with ``from .x import y``, so a wrapper is
  installed in the namespace of every module that holds the function;
* ``Phi.floor`` and ``Phi.ceil`` are methods and are wrapped on the class;
* ``enumerate_restricted_words`` is a generator, so its span times the
  iteration (the ``next`` calls), not the creation, and counts the words.

Every wrapped call records one span: name, start, duration, parent span and
the id of the experiment (op) it belongs to.  Spans live in flat arrays so a
pass with millions of ``Phi.floor`` calls stays affordable; ``summary``
turns them into per-function counts and self times.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

from ifslab.systems import NumericFailure, PreconditionError

MODULES = ("powersum", "systems", "restrictions", "families", "dimension", "measures", "cli")

# Sizes recorded from a call's return value: the base counts of the ratios.
_SIZE_OF = {
    "restrictions.build_ladder": lambda r: len(r.values) - 1,
    "measures.local_dim_estimate": lambda r: r.diagnostics["samples"],
    "measures.verify_frostman": lambda r: r.checked,
}


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.op = 0
        self.name_ids = array.array("i")
        self.op_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.durs = array.array("d")
        self.errors: set[int] = set()
        self.sizes: dict[int, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.name_ids)
        self.name_ids.append(name_id)
        self.op_ids.append(self.op)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.durs.append(0.0)
        return sid

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        stack, starts, durs = self._stack, self.starts, self.durs
        counted = (PreconditionError, NumericFailure)
        errors, clock = self.errors, time.perf_counter
        size_of, sizes = _SIZE_OF.get(name), self.sizes
        open_span = self._open

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                sid = open_span(name_id)
                it = fn(*args, **kwargs)
                busy = 0.0
                first = None
                items = 0
                try:
                    while True:
                        stack.append(sid)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except counted:
                            errors.add(sid)
                            raise
                        finally:
                            busy += clock() - t0
                            stack.pop()
                            if first is None:
                                first = t0
                        items += 1
                        yield item
                finally:
                    it.close()
                    starts[sid] = first if first is not None else clock()
                    durs[sid] = busy
                    sizes[sid] = items

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_span(name_id)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except counted:
                errors.add(sid)
                raise
            finally:
                durs[sid] = clock() - t0
                starts[sid] = t0
                stack.pop()
            if size_of is not None:
                sizes[sid] = size_of(result)
            return result

        return traced

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the library modules, in every
        module namespace that holds it, plus ``Phi.floor``/``Phi.ceil``."""
        if self._patches:
            return
        modules = {m: importlib.import_module(f"ifslab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        holders = [importlib.import_module("ifslab"), *modules.values()]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        phi = modules["restrictions"].Phi
        for meth in ("floor", "ceil"):
            orig = phi.__dict__[meth]
            self._patches.append((phi, meth, orig, self._wrap(f"restrictions.Phi.{meth}", orig)))
        for holder, attr, _orig, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig, _wrapper in self._patches:
            setattr(holder, attr, orig)
        self._patches = []

    # -- span buffers ----------------------------------------------------

    def clear(self) -> None:
        for buf in (self.name_ids, self.op_ids, self.parents, self.starts, self.durs):
            del buf[:]
        self.errors.clear()
        self.sizes.clear()

    def mark(self) -> int:
        return len(self.name_ids)

    def export_since(self, mark: int) -> dict:
        """Spans recorded after ``mark``, for a forked child to send home."""
        return {
            "names": list(self.names),
            "name_ids": self.name_ids[mark:].tobytes(),
            "op_ids": self.op_ids[mark:].tobytes(),
            "parents": self.parents[mark:].tobytes(),
            "starts": self.starts[mark:].tobytes(),
            "durs": self.durs[mark:].tobytes(),
            "errors": sorted(s for s in self.errors if s >= mark),
            "sizes": {s: n for s, n in self.sizes.items() if s >= mark},
        }

    def merge(self, mark: int, data: dict) -> None:
        """Append a child's spans; ids line up because the parent recorded
        nothing while it waited for the child."""
        if self.mark() != mark:
            raise RuntimeError("spans recorded while a forked child ran")
        remap = array.array("i", (self._name_id(n) for n in data["names"]))
        ids = array.array("i")
        ids.frombytes(data["name_ids"])
        self.name_ids.extend(remap[i] for i in ids)
        for buf, key in (
            (self.op_ids, "op_ids"),
            (self.parents, "parents"),
            (self.starts, "starts"),
            (self.durs, "durs"),
        ):
            buf.frombytes(data[key])
        self.errors.update(data["errors"])
        self.sizes.update(data["sizes"])

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "dur": np.frombuffer(self.durs, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per function: calls, self_s, errors and size; plus the span
        arrays and a nearest-ancestor helper for the ratio metrics."""
        a = self.arrays()
        n_names = len(self.names)
        parent, dur, name = a["parent"], a["dur"], a["name"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        err = np.zeros(len(dur), dtype=bool)
        err[list(self.errors)] = True
        size = np.zeros(len(dur), dtype=np.int64)
        if self.sizes:
            size[list(self.sizes)] = list(self.sizes.values())
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        errors = np.bincount(name, weights=err, minlength=n_names)
        sizes = np.bincount(name, weights=size, minlength=n_names)
        per_fn = {
            nm: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "errors": int(errors[i]),
                "size": int(sizes[i]),
            }
            for i, nm in enumerate(self.names)
        }
        return {"functions": per_fn, "arrays": a}

    def nearest_ancestor(self, arrays: dict, fn_name: str) -> np.ndarray:
        """For every span, the id of its nearest strict ancestor named
        ``fn_name``, or -1 (pointer jumping over the parent links)."""
        name, parent = arrays["name"], arrays["parent"]
        if fn_name not in self._name_index:
            return np.full(len(name), -1, dtype=np.int64)
        target = self._name_index[fn_name]
        p = parent.copy()
        safe = np.where(p >= 0, p, 0)
        anc = np.where((p >= 0) & (name[safe] == target), p, -1)
        while True:
            todo = (anc < 0) & (p >= 0)
            if not todo.any():
                return anc
            idx = np.nonzero(todo)[0]
            up = p[idx]
            new_anc = anc.copy()
            new_p = p.copy()
            new_anc[idx] = anc[up]
            new_p[idx] = p[up]
            anc, p = new_anc, new_p
