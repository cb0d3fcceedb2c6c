"""Spans around the package's layer boundaries, installed from outside.

Each traced function is replaced, wherever a module of the package holds a
reference to it (including the ``SOLVERS`` dispatch table), by a wrapper
that records calls, total time and the time covered by nested traced calls.
Callers therefore hit the span through the name they actually look up.
Aggregates live in memory; nothing is written to disk.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

MODULES = (
    "tagselect",
    "tagselect.bench",
    "tagselect.cli",
    "tagselect.coverage",
    "tagselect.datagen",
    "tagselect.model",
    "tagselect.relevance",
    "tagselect.rules_io",
    "tagselect.solvers",
)

# (module, attribute) of each traced function and the span name it gets.
SPANS = (
    ("coverage", "theta_dc", "coverage.theta_dc"),
    ("coverage", "cov_dc", "coverage.cov_dc"),
    ("coverage", "cov_ic", "coverage.cov_ic"),
    ("coverage", "build_dc_graph", "coverage.build_dc_graph"),
    ("relevance", "stepwise_rel_max", "relevance.stepwise_rel_max"),
    ("relevance", "rel_max", "relevance.rel_max"),
    ("solvers", "exact_ic", "solvers.e-ic"),
    ("solvers", "bnb_ic", "solvers.bnb-ic"),
    ("solvers", "greedy_ic", "solvers.a-ic"),
    ("solvers", "exact_dc", "solvers.e-dc"),
    ("solvers", "bnb_dc", "solvers.bnb-dc"),
    ("solvers", "greedy_dc", "solvers.a-dc"),
    ("rules_io", "load", "rules_io.load"),
    ("model", "build_instance", "model.build_instance"),
    ("model", "make_params", "model.make_params"),
    ("datagen", "gen_matrix", "datagen.gen_matrix"),
    ("datagen", "extract_rules", "datagen.extract_rules"),
    ("datagen", "sample_instance", "datagen.sample_instance"),
    ("datagen", "random_instance", "datagen.random_instance"),
    ("bench", "run_sweep", "bench.run_sweep"),
    ("bench", "summarize", "bench.summarize"),
    ("cli", "main", "cli.main"),
)
# Classmethod spans, patched on the class itself.
CLASS_SPANS = (("relevance", "RelBenchmark", "from_instance", "relevance.RelBenchmark.from_instance"),)

SPAN_NAMES = tuple(s[-1] for s in SPANS) + tuple(s[-1] for s in CLASS_SPANS)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    nodes: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Installs the wrappers on ``install`` and removes them on ``remove``."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in SPAN_NAMES}

    def _wrap(self, fn, name):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = self.stats[name]
                s.calls += 1
                s.total_s += dt
                s.child_s += frame[0]
            nodes = getattr(result, "nodes_explored", None)
            if nodes is not None:
                self.stats[name].nodes += nodes
            return result

        return span

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        solvers = importlib.import_module("tagselect.solvers")
        for mod_name, attr, name in SPANS:
            orig = getattr(importlib.import_module(f"tagselect.{mod_name}"), attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, orig))
            for key, value in list(solvers.SOLVERS.items()):
                if value is orig:
                    solvers.SOLVERS[key] = wrapper
                    self._undo.append((dict.__setitem__, solvers.SOLVERS, key, orig))
        for mod_name, cls_name, attr, name in CLASS_SPANS:
            cls = getattr(importlib.import_module(f"tagselect.{mod_name}"), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, classmethod(self._wrap(orig.__func__, name)))
            self._undo.append((setattr, cls, attr, orig))

    def remove(self) -> None:
        for setter, target, key, orig in reversed(self._undo):
            setter(target, key, orig)
        self._undo.clear()
