"""Span recorder for the traced benchmark run.

Tracing wraps public functions by replacing the module attribute that each
caller looks up: every module of the precubical package that holds the
function under some name gets the wrapper, so a nested call such as the
validate inside parse, or the enumerate_path_classes inside
count_flow_morphisms, opens a child span.  Spans (name, start, end, parent,
job id, counters) are kept in a list in memory and turned into per-layer
figures once, when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: object
    counters: dict = field(default_factory=dict)


def _cell_total(K):
    return sum(K.cell_counts())


def _snf_counters(args, result):
    matrix = args[0]
    rows = len(matrix)
    out = {"entries": rows * len(matrix[0]) if rows else 0}
    if result is not None:
        out["rank"] = len(result)
        out["torsion"] = sum(1 for f in result if f > 1)
    return out


def _class_counters(classes):
    return {"classes": len(classes), "paths": sum(len(c.members) for c in classes)}


# (module, attribute, span name, counters(args, result) -> dict).  result is
# None when the call raised.
TRACED = [
    ("core", "standard_cube", "core.build", None),
    ("core", "boundary_cube", "core.build", None),
    ("core", "skeleton", "core.build", None),
    ("core", "tensor", "core.build", None),
    ("core", "pushout", "core.build", None),
    ("core", "validate", "core.validate", lambda a, r: {"cells": _cell_total(a[0])}),
    ("document", "serialize", "document.serialize",
     lambda a, r: {"bytes": len(r)} if r is not None else {}),
    ("document", "parse", "document.parse", lambda a, r: {"bytes": len(a[0])}),
    ("homology", "chain_complex", "homology.chain_complex", None),
    ("homology", "smith_normal_form", "homology.smith_normal_form", _snf_counters),
    ("homology", "homology", "homology.homology", None),
    ("flow", "enumerate_path_classes", "flow.enumerate_path_classes",
     lambda a, r: _class_counters(r) if r is not None else {}),
    ("flow", "count_flow_morphisms", "flow.count_flow_morphisms", None),
    ("flow", "state_order", "flow.state_order", None),
    ("globular", "globular_decomposition", "globular.decomposition",
     lambda a, r: {"cells": len(r.cells())} if r is not None else {}),
]


class Recorder:
    """Collects spans while installed; install() and uninstall() patch and
    restore the traced module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself, such as a gluing built
        from several library calls; records nothing unless installed."""
        if not self._patches:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index)
                if count is not None:
                    self.spans[index].counters = count(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name, count in TRACED:
            original = getattr(sys.modules[f"precubical.{module_name}"], attr)
            self._patches += patch_everywhere(original, self._wrap(original, name, count))

    def uninstall(self):
        restore(self._patches)
        self._patches.clear()


def patch_everywhere(original, replacement) -> list:
    """Point every precubical module attribute that holds original at
    replacement; returns what restore() needs to undo it."""
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "precubical" and not module_name.startswith("precubical."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                patches.append((module, key, original))
                setattr(module, key, replacement)
    return patches


def restore(patches):
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def growth(points) -> float:
    """Least-squares slope of log y against log x; 0.0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer self times and counters of one set-up plus one pass of the
    job list: spans of the set-up (job "setup") count once, job spans are
    divided by the number of traced passes."""
    own = self_times(spans)
    time_by: dict[str, float] = {}
    count_by: dict[str, float] = {}
    per_job: dict[tuple[str, str], dict[object, list[float]]] = {}
    growth_of = {
        "core.validate": "cells",
        "document.parse": "bytes",
        "homology.smith_normal_form": "entries",
        "flow.enumerate_path_classes": "paths",
    }
    for span, t in zip(spans, own):
        weight = 1.0 if span.job == "setup" else 1.0 / passes
        time_by[span.name] = time_by.get(span.name, 0.0) + t * weight
        for key, value in span.counters.items():
            name = f"{span.name}.{key}"
            count_by[name] = count_by.get(name, 0.0) + value * weight
        counter = growth_of.get(span.name)
        if counter is not None and span.job != "setup":
            acc = per_job.setdefault((span.name, counter), {}).setdefault(span.job, [0.0, 0.0])
            acc[0] += span.counters.get(counter, 0)
            acc[1] += t
    slopes = {
        name: growth([tuple(v) for v in jobs.values()])
        for (name, _), jobs in per_job.items()
    }
    t = time_by.get
    c = count_by.get
    classes = c("flow.enumerate_path_classes.classes", 0.0)
    return {
        "core.build_s": t("core.build", 0.0),
        "core.validate_s": t("core.validate", 0.0),
        "core.cells_validated": c("core.validate.cells", 0.0),
        "core.validate.growth": slopes.get("core.validate", 0.0),
        "document.serialize_s": t("document.serialize", 0.0),
        "document.parse_s": t("document.parse", 0.0),
        "document.bytes": c("document.serialize.bytes", 0.0) + c("document.parse.bytes", 0.0),
        "document.parse.growth": slopes.get("document.parse", 0.0),
        "homology.chain_complex_s": t("homology.chain_complex", 0.0),
        "homology.smith_normal_form_s": t("homology.smith_normal_form", 0.0),
        "homology.snf_entries": c("homology.smith_normal_form.entries", 0.0),
        "homology.snf_rank": c("homology.smith_normal_form.rank", 0.0),
        "homology.torsion_factors": c("homology.smith_normal_form.torsion", 0.0),
        "homology.snf.growth": slopes.get("homology.smith_normal_form", 0.0),
        "flow.enumerate_path_classes_s": t("flow.enumerate_path_classes", 0.0),
        "flow.count_flow_morphisms_s": t("flow.count_flow_morphisms", 0.0),
        "flow.state_order_s": t("flow.state_order", 0.0),
        "flow.paths": c("flow.enumerate_path_classes.paths", 0.0),
        "flow.classes": classes,
        "flow.paths_per_class": c("flow.enumerate_path_classes.paths", 0.0) / classes if classes else 0.0,
        "flow.enumerate.growth": slopes.get("flow.enumerate_path_classes", 0.0),
        "globular.decomposition_s": t("globular.decomposition", 0.0),
        "globular.cells": c("globular.decomposition.cells", 0.0),
    }
