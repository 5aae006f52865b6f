"""Outside-in tracer: times the public callables of every twotime module.

The tracer changes no file of the package. ``install`` replaces, from the
benchmark's own process, every public function of each layer module with a
timing wrapper, in every twotime namespace that bound it (``from .qcore
import binary_entropy`` in ``spinlab`` makes a second binding). Classes are
not replaced, because the package tests ``isinstance`` against them; their
``__init__``, public methods and classmethods are wrapped in place instead.
It also wraps numpy's eigen-solvers (counting the matrices stacked in each
call) and the random-stream constructors. ``uninstall`` puts every original
back.

Spans are kept in flat arrays (name, parent, start, end, error) so a pass
with a few hundred thousand calls stays small in memory, and are written out
only when the benchmark ends.
"""

import functools
import gzip
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("qcore", "dynamics", "correlators", "realism", "spinlab", "gaussian", "cli")
EIGEN_SOLVERS = ("eigh", "eigvalsh")
STREAM_CONSTRUCTORS = ("SeedSequence", "default_rng")


class Tracer:
    def __init__(self, package):
        self.package = package
        self._ids = {}
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_error = array("b")
        self.matrices = defaultdict(int)
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends, errors = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.span_error,
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            errors.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _count_matrices(self, name, fn):
        matrices = self.matrices

        def counted(a, *args, **kwargs):
            matrices[name] += math.prod(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)

        return functools.wraps(fn)(counted)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap_class(self, name, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(f"{name}.{attr}", member))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{name}.{attr}", member.__func__)))

    def install(self):
        package = self.package
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for namespace in (package, *modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        for attr in EIGEN_SOLVERS:
            name = f"numpy.{attr}"
            self._patch(np.linalg, attr, self._wrap(name, self._count_matrices(name, getattr(np.linalg, attr))))
        for attr in STREAM_CONSTRUCTORS:
            self._patch(np.random, attr, self._wrap(f"stream.{attr}", getattr(np.random, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per-name calls, inclusive and self seconds, errors; plus top-level time.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the workload runs on one thread.
        """
        n = len(self.span_name)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent < 0:
                top += duration
            else:
                child[parent] += duration
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            duration = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
            entry["errors"] += self.span_error[i]
        return stats, top

    def write(self, path, origin):
        """Write every span as TSV (gzip): index, name, parent, start, end, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\terror\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\t{self.span_error[i]}\n"
                )
