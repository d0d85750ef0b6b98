"""Span tracing of confdim's layers from outside the package.

`install` wraps the public functions listed in TARGETS.  A wrapper records
one span per call (name, start, end, parent span, run id) in memory, and the
spans are saved once, when the traced process ends.  Because modules import
each other's functions by name, a wrapper must replace the original in
every confdim namespace that binds it, not only in its home module.

Some functions also feed computed counts: sizes read off their arguments or
return values, which repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _levels_count(counts, out, args):
    counts["cantor.intervals_built"] += sum(lv.count for lv in out.levels)
    counts["cantor.bytes_built"] += sum(
        lv.lefts.nbytes + lv.log_lengths.nbytes + lv.parent_index.nbytes
        for lv in out.levels)


def _image_bytes(counts, out, args):
    counts["qsmaps.push_intervals.bytes"] += (
        out.lefts.nbytes + out.rights.nbytes + out.parent_index.nbytes)


def _nodes_massed(counts, out, args):
    counts["qsmass.nodes_massed"] += sum(len(m) for m in out.masses)


def _raster_cells(counts, out, args):
    counts["modulus.raster_cells"] += out.geometry["n_rows"] * out.geometry["n_cols"]


def _solve(nnz):
    def count(counts, out, args):
        counts["modulus.program_nnz"] += nnz(args[0])
        counts["modulus.solver_iterations"] += out.iterations
        counts["modulus.kkt_max"] = max(counts["modulus.kkt_max"], out.kkt_residual)
        counts["modulus.gap_max"] = max(counts["modulus.gap_max"], out.duality_gap_bound)
    return count


# (layer, module, attribute path, computed-count hook)
TARGETS = [
    ("cantor", "confdim.cantor", "build_system", _levels_count),
    ("qsmaps", "confdim.qsmaps", "push_intervals", _image_bytes),
    ("dimension", "confdim.dimension", "DiscreteMeasure.window_mass", None),
    ("qsmass", "confdim.qsmass", "build_image_tree", None),
    ("qsmass", "confdim.qsmass", "build_recursive_measure", _nodes_massed),
    ("qsmass", "confdim.qsmass", "certificate", None),
    ("modulus", "confdim.modulus", "product_system", _raster_cells),
    ("modulus", "confdim.modulus", "DiscreteModulusProblem.from_intervals_1d", None),
    ("modulus", "confdim.modulus", "solve_discrete",
     _solve(lambda problem: int(np.count_nonzero(problem.incidence)))),
    ("modulus", "confdim.modulus", "solve_fuglede",
     _solve(lambda system: sum(int(np.count_nonzero(m)) for m in system.members))),
    ("cli", "confdim.cli", "main", None),
]

COMPUTED_COUNTS = [
    "cantor.intervals_built", "cantor.bytes_built", "qsmaps.push_intervals.bytes",
    "qsmass.nodes_massed", "modulus.raster_cells", "modulus.program_nnz",
    "modulus.solver_iterations", "modulus.kkt_max", "modulus.gap_max",
]


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.stack: list = []
        self.run_id = 0
        self.counts = dict.fromkeys(COMPUTED_COUNTS, 0)

    def wrap(self, name: str, fn, count=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, runs, stack = self.parents, self.runs, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, out, args)
            return out

        return traced

    def save(self, path: str):
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            table=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            run=np.array(self.runs, dtype=np.int64),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=float),
        )


def install(tracer: Tracer):
    """Wrap every target in place, in every confdim namespace that binds it."""
    confdim_modules = [m for name, m in list(sys.modules.items())
                       if (name == "confdim" or name.startswith("confdim.")) and m]
    for layer, module_name, attr, count in TARGETS:
        owner = sys.modules[module_name]
        name = span_name(layer, attr)
        if "." in attr:  # a method or classmethod on a class of the module
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, count))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, count)
        for module in confdim_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def self_times(spans) -> dict:
    """Per span name: (self seconds, calls) of one traced process.

    Self time is a span's duration minus the time its child spans cover.
    """
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    own = dur - covered
    table = spans["table"]
    per_name = np.bincount(spans["name"], weights=own, minlength=len(table))
    calls = np.bincount(spans["name"], minlength=len(table))
    return {str(n): (float(per_name[i]), int(calls[i])) for i, n in enumerate(table)}


def root_seconds(spans) -> float:
    """Total duration of the spans that have no parent."""
    roots = spans["parent"] < 0
    return float(np.sum(spans["end"][roots] - spans["start"][roots]))
