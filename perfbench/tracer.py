"""Outside-in span tracer for the ``aregularity`` package.

The package is not instrumented.  ``Tracer.install`` wraps the public
function of each layer listed in ``TARGETS`` and rebinds the wrapper at
every binding site: modules bind functions by name (``from .exact_linalg
import rref``), so wrapping only the defining module would miss every call
made through another module's copy of the name.  After rebinding, the
tracer scans every loaded ``aregularity`` module (module namespaces, class
namespaces, module-level containers, function defaults and closures) and
refuses to run if an unwrapped original is still reachable.

Spans are kept in memory as ``[name, start, end, parent, request, extra]``
lists and written out by ``dump``.  ``aggregate`` derives per-name call
counts and self time (a span's duration minus the durations of its direct
children) plus the exact work counts the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter

# (module under aregularity, attribute path).  The span name is the module
# plus the last path component: "lie_core.bracket", "catalog.lookup".
TARGETS = (
    ("exact_linalg", "bareiss_echelon"),
    ("exact_linalg", "rref"),
    ("exact_linalg", "left_kernel"),
    ("lie_core", "build_algebra"),
    ("lie_core", "LieAlgebra.bracket"),
    ("lie_core", "LieAlgebra.is_regular"),
    ("subalgebras", "perp"),
    ("subalgebras", "generic_stabilizer"),
    ("subalgebras", "cartan_subspace_stabilizer"),
    ("subalgebras", "decompose_reductive"),
    ("subalgebras", "embed"),
    ("constructors", "embed"),
    ("criteria", "find_regular_witness"),
    ("criteria", "decide_regular_element"),
    ("criteria", "satake_route"),
    ("criteria", "decide"),
    ("decomposition", "split_pair"),
    ("catalog", "Catalog.load"),
    ("catalog", "Catalog.lookup"),
    ("catalog", "verify_row"),
    ("slodowy", "slodowy_slice"),
    ("slodowy", "slice_nonempty"),
    ("cli", "load_pair"),
    ("cli", "main"),
)

NAME, START, END, PARENT, REQ, EXTRA = range(6)


class TracerIncomplete(RuntimeError):
    """An aregularity module still reaches an unwrapped traced function."""


def _bareiss_work(args, kwargs, out):
    """(cell updates, largest pivot bit length) of one Bareiss call.

    The elimination at pivot k (column c) rewrites every cell of the rows
    below it from column c on, so the count follows from the input shape
    and the returned pivot columns alone."""
    rows = args[0] if args else kwargs["rows"]
    ech, pivots = out
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    cells = sum((nr - k - 1) * (nc - c) for k, c in enumerate(pivots))
    bits = max((abs(ech[k][c]).bit_length() for k, c in enumerate(pivots)),
               default=0)
    return cells, bits


def _witness_found(args, kwargs, out):
    return out is not None


HOOKS = {
    "exact_linalg.bareiss_echelon": _bareiss_work,
    "criteria.find_regular_witness": _witness_found,
}


def _namespaces():
    """(dotted name, namespace) of every loaded package module and of every
    class defined in one."""
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "aregularity"
                               or name.startswith("aregularity.")):
            continue
        yield name, mod
        for v in list(vars(mod).values()):
            if isinstance(v, type) and v.__module__ == name:
                yield f"{name}.{v.__name__}", v


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.on = True
        self.request = 0
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._top = -1
        self._wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = tracer._top
            rec = [name, 0.0, 0.0, parent, tracer.request, None]
            tracer._top = len(tracer.spans)
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._top = parent
            if hook is not None:
                rec[EXTRA] = hook(args, kwargs, out)
            return out

        traced.__traced_name__ = name
        return traced

    def _wrapper_for(self, value):
        """The wrapper replacing ``value`` if it is a traced original (or a
        classmethod or staticmethod of one), else None."""
        kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
        fn = value.__func__ if kind else value
        hit = self._wrappers.get(id(fn))
        if hit is None or hit[0] is not fn:
            return None
        return kind(hit[1]) if kind else hit[1]

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package binds it."""
        importlib.import_module("aregularity")
        for mod_name, path in TARGETS:
            owner = importlib.import_module(f"aregularity.{mod_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not isinstance(fn, types.FunctionType):
                self.missing.append(f"{mod_name}.{path}")
                continue
            self._wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{attr}", fn))
        for where, ns in _namespaces():
            for key, value in list(vars(ns).items()):
                new = self._wrapper_for(value)
                if new is not None:
                    setattr(ns, key, new)
                    self.bindings.append(f"{where}.{key}")
        leftover = self.unwrapped_sites()
        if leftover:
            raise TracerIncomplete("unwrapped traced functions at: "
                                   + ", ".join(leftover))

    def unwrapped_sites(self) -> list[str]:
        """Places in the package that still reach an original function:
        namespace entries, entries of module-level containers, and the
        defaults and closures of the package's own functions."""
        def original(v):
            return self._wrapper_for(v) is not None

        found = []
        for where, ns in _namespaces():
            for key, value in vars(ns).items():
                if original(value):
                    found.append(f"{where}.{key}")
                elif isinstance(value, dict):
                    found += [f"{where}.{key}[{k!r}]"
                              for k, v in value.items() if original(v)]
                elif isinstance(value, (list, tuple)):
                    found += [f"{where}.{key}[{i}]"
                              for i, v in enumerate(value) if original(v)]
                fn = getattr(value, "__func__", value)
                if isinstance(fn, types.FunctionType) and \
                        not hasattr(fn, "__traced_name__"):
                    held = list(fn.__defaults__ or ())
                    held += list((fn.__kwdefaults__ or {}).values())
                    for cell in fn.__closure__ or ():
                        try:
                            held.append(cell.cell_contents)
                        except ValueError:  # empty cell
                            pass
                    if any(original(v) for v in held):
                        found.append(f"{where}.{key} (default or closure)")
        return found


def dump(path, spans: list[list], header: dict) -> None:
    """Write the spans as JSON lines after one header line."""
    with open(path, "w") as fh:
        fh.write(json.dumps({**header, "fields": ["name", "start", "end", "parent",
                                                  "request", "extra"]}) + "\n")
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def aggregate(spans: list[list], group_of) -> dict:
    """Per-group, per-name counts and self time.

    ``group_of`` maps a span's request id to a group label, or to None to
    leave the span out.  Returns {group: {name: {"calls", "self_s", "cells",
    "bits", "hits", "leaves", "samples"}}}, where ``leaves`` counts calls that
    reached no traced function below them (a cache hit, for a cached
    function) and ``samples`` counts the ``is_regular`` calls a span made
    directly (one per witness sample)."""
    child_time = [0.0] * len(spans)
    n_children = [0] * len(spans)
    regular_children = [0] * len(spans)
    for rec in spans:
        p = rec[PARENT]
        if p >= 0:
            child_time[p] += rec[END] - rec[START]
            n_children[p] += 1
            if rec[NAME] == "lie_core.is_regular":
                regular_children[p] += 1
    out: dict = {}
    for i, rec in enumerate(spans):
        group = group_of(rec[REQ])
        if group is None:
            continue
        names = out.setdefault(group, {})
        a = names.get(rec[NAME])
        if a is None:
            a = names[rec[NAME]] = {"calls": 0, "self_s": 0.0, "cells": 0,
                                    "bits": 0, "hits": 0, "leaves": 0,
                                    "samples": 0}
        a["calls"] += 1
        a["self_s"] += rec[END] - rec[START] - child_time[i]
        a["leaves"] += n_children[i] == 0
        a["samples"] += regular_children[i]
        extra = rec[EXTRA]
        if isinstance(extra, (list, tuple)):
            a["cells"] += extra[0]
            a["bits"] = max(a["bits"], extra[1])
        elif extra:
            a["hits"] += 1
    return out
