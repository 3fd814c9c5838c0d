"""Spans around the public functions of ncplane's modules.

The tracer wraps functions from outside the package: it replaces a
module function in every ncplane module that imported it, or a method on
its class, and puts the originals back on `uninstall`.  Spans (name,
start, end, parent) stay in memory until the run writes them out.  Work
counts are taken at the same boundaries from the call's arguments.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict


def _size(bound) -> int:
    import numpy as np
    a = bound.arguments
    return int(np.broadcast(a["x"], a["y"], a["px"], a["py"]).size)


def _steps(bound) -> int:
    a = bound.arguments
    return max(1, round((a["t1"] - a["t0"]) / a["dt"]))


def _rows(bound) -> int:
    a = bound.arguments
    return len(a["temps"]) * (len(a["thetas"]) if a["thetas"] else 1)


def _cells(bound) -> int:
    return math.prod(len(ax) for ax in bound.arguments["axes"])


def _samples(bound) -> int:
    s = bound.arguments["samples"]
    return 100 if s is None else len(s)   # verify_algebra's own default


def _transform_name(bound) -> str:
    a = bound.arguments
    return f"spectra.transform.{a['psi'].basis}-{a['to_basis']}"


# (module, owner inside the module or None, attribute, counters by suffix,
#  span name override); spans are named "<module>.<owner>.<attribute>"
TARGETS = (
    ("thermo", None, "partition_single_direct",
     {"calls": lambda b: 1}, None),
    ("thermo", None, "entropy_sweep", {"rows": _rows}, None),
    ("wigner", None, "wigner_table", {"cells": _cells}, None),
    ("wigner", "QuadratureWigner", "at", {"points": _size}, None),
    ("wigner", "EvolvedWigner", "at", {}, None),
    ("dynamics", None, "hamiltonian_flow", {"steps": _steps}, None),
    ("dynamics", None, "noether_charges", {}, None),
    ("phasespace", None, "verify_algebra", {"points": _samples}, None),
    ("symmetries", None, "conserved_bilinears", {}, None),
    ("spectra", None, "eigenfunction", {}, None),
    ("spectra", None, "apply_hamiltonian", {}, None),
    ("spectra", None, "apply_angular_momentum", {}, None),
    ("spectra", None, "transform", {}, _transform_name),
)
# called about a million times per run: counted, never spanned
COUNTED = (("phasespace", "ScalarField", "partials"),)


# the basis pairs of `transform` that some workload runs
TRANSFORM_PAIRS = ("p-xpy", "xpy-ypx", "xpy-p")


def _span_name(mod, cls, attr) -> str:
    return ".".join(n for n in (mod, cls, attr) if n)


def spans():
    """(span name, count suffixes) for every wrapped function."""
    out = []
    for mod, cls, attr, counters, namer in TARGETS:
        name = _span_name(mod, cls, attr)
        if namer is None:
            out.append((name, tuple(counters)))
        else:
            out.extend((f"{name}.{pair}", ()) for pair in TRANSFORM_PAIRS)
    return out


def counted():
    return [f"{mod}.{cls}.{attr}.calls" for mod, cls, attr in COUNTED]


class Tracer:
    """In-memory span recorder; `install` wraps ncplane, `uninstall` undoes it."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, fn, name, counters, namer):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for suffix, count in counters.items():
                tracer.counts[f"{name}.{suffix}"] += count(bound)
            with tracer.span(namer(bound) if namer else name):
                return fn(*args, **kwargs)
        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import ncplane  # noqa: F401
        mods = {k: v for k, v in sys.modules.items()
                if k == "ncplane" or k.startswith("ncplane.")}
        for mod, cls, attr, counters, namer in TARGETS:
            owner = mods[f"ncplane.{mod}"]
            if cls is not None:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            new = self._wrap(orig, _span_name(mod, cls, attr), counters,
                             namer)
            if cls is not None:
                self._patch(owner, attr, new)
                continue
            # every module that did `from .mod import attr` holds its own name
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, new)
        for mod, cls, attr in COUNTED:
            owner = getattr(mods[f"ncplane.{mod}"], cls)
            self._patch(owner, attr,
                        self._count(getattr(owner, attr),
                                    f"{mod}.{cls}.{attr}.calls"))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> dict:
        """Total self time by span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return dict(out)

    def totals(self) -> dict:
        out = defaultdict(float)
        for name, t0, t1, _ in self.spans:
            out[name] += t1 - t0
        return dict(out)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False
