"""Outside-in tracing of the solver's layers.

The benchmark does not edit the package.  Instead, :func:`instrument`
replaces the public entry points of each layer with wrappers that record a
span (name, start, end, parent) and a few counts, and puts the originals
back on exit.  A function imported by name into another module is wrapped
where that module looks it up, so ``eval_basis_many`` is traced whether
``assembly`` or ``geometry`` calls it.  Names that a later version of the
package no longer has are skipped.

Self time of a span is its duration minus the durations of its direct
children; the wrappers run in one thread, so children nest and never
overlap.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from nitsche_iga import analysis, assembly, geometry, linalg, splines, timestepping

# (home module, attribute, span name); the function is wrapped in every
# package module that holds a reference to it
FUNCTIONS = [
    (splines, "eval_basis_many", "splines.eval_basis_many"),
    (geometry, "uniform_space", "geometry.uniform_space"),
    (geometry, "build_mesh", "geometry.build_mesh"),
    (assembly, "trace_constant", "assembly.trace_constant"),
    (assembly, "penalty_floor", "assembly.penalty_floor"),
    (assembly, "assemble_mass", "assembly.assemble_mass"),
    (assembly, "assemble_functional", "assembly.assemble_functional"),
    (assembly, "assemble_vh_gram", "assembly.assemble_vh_gram"),
    (assembly, "assemble_stiffness", "assembly.assemble_stiffness"),
    (assembly, "assemble_load", "assembly.assemble_load"),
    (assembly, "inflow_mask", "assembly.inflow_mask"),
    (linalg, "solve_sparse", "linalg.solve_sparse"),
    (linalg, "generalized_symmetric_eig", "linalg.generalized_symmetric_eig"),
    (timestepping, "project_initial", "timestepping.project_initial"),
    (timestepping, "march", "timestepping.march"),
    (analysis, "space_time_errors", "analysis.space_time_errors"),
    (analysis, "coercivity_audit", "analysis.coercivity_audit"),
]

# (class, method, span name); patching the class reaches every caller
METHODS = [
    (geometry.GeometryMap, "evaluate_many", "geometry.evaluate_many"),
    (assembly.Discretization, "__init__", "assembly.Discretization"),
    (assembly.AssembledForms, "__init__", "assembly.AssembledForms"),
    (linalg.SparseFactor, "__init__", "linalg.SparseFactor"),
    (linalg.SparseFactor, "solve", "linalg.SparseFactor.solve"),
]

COEFFICIENTS = ("mu", "b", "c", "f", "g")


def _len_second(args):
    # eval_basis_many(kv, xs, ...) and GeometryMap.evaluate_many(self, x_hat, ...)
    return len(args[1])


def _len_first(args):
    # coefficient closures take (x, y, t)
    return len(np.atleast_1d(args[0]))


POINTS = {
    "splines.eval_basis_many": _len_second,
    "geometry.evaluate_many": _len_second,
    "problem.coefficients": _len_first,
}


class Tracer:
    """Spans and counts recorded in memory; summarised by :meth:`table`."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.points = defaultdict(int)
        self.max_nnz = 0
        self._stack = []

    def wrap(self, name, fn):
        points = POINTS.get(name)
        factor = name == "linalg.SparseFactor"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
                if points is not None:
                    self.points[name] += points(args)
                if factor:  # SparseFactor(self, matrix, ...)
                    self.max_nnz = max(self.max_nnz, args[1].nnz)

        return traced

    def trace_case(self, case):
        """The case with its coefficient closures wrapped as one span name."""
        p = case.problem
        wrapped = {
            key: self.wrap("problem.coefficients", getattr(p, key))
            for key in COEFFICIENTS
        }
        return replace(case, problem=replace(p, **wrapped))

    def self_within(self, name, ancestors):
        """Calls and self seconds of ``name`` spans nested in any of ``ancestors``."""
        child = self._child_seconds()
        calls, seconds = 0, 0.0
        for i, (span, start, end, parent) in enumerate(self.spans):
            if span != name:
                continue
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            if parent >= 0:
                calls += 1
                seconds += end - start - child[i]
        return calls, seconds

    def _child_seconds(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def table(self):
        """Per span name: calls, points, inclusive seconds and self seconds."""
        child = self._child_seconds()
        out = defaultdict(lambda: {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, n in self.points.items():
            out[name]["points"] = n
        return dict(out)


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "nitsche_iga" or name.startswith("nitsche_iga.")
    ]


@contextmanager
def instrument(tracer):
    """Patch the layers' entry points to record into ``tracer``; undo on exit."""
    saved = []
    try:
        modules = _package_modules()
        for home, attr, name in FUNCTIONS:
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = tracer.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for cls, attr, name in METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
