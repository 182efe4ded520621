"""Span recorder that wraps zxdj's public functions from outside the package.

Each wrapped call records one span: name, label, parent span, op id, start
and end (``time.perf_counter_ns``).  Spans live in flat integer arrays in
memory and are written out once, after the timed loop.  The recorder
patches every ``zxdj`` namespace that binds a wrapped function object, so
``zxdj.mbqc.evaluate`` is wrapped as well as ``zxdj.tensor.evaluate``, and
methods are wrapped on the class.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from array import array

import numpy as np

# run_postselected labels its subtree by pattern size; tensor spans inherit
# the label of their nearest labelled ancestor.
SHAPE_LABELS = {36: "lattice", 11: "pattern"}
LABELS = ["", "lattice", "pattern", "other"]

# Every rule simplify_mbqc and reduce_lattice can emit.
REWRITE_RULES = ["color_change", "fuse_spiders", "hadamard_cancel",
                 "decouple_x_state", "local_complement", "hopf_pair",
                 "plug_plus_state"]

UNITS = {"self_ms": "ms", "total_ms": "ms", "ms": "ms", "calls": "count",
         "steps": "count", "spiders_in": "count", "edges_in": "count",
         "spiders_out": "count", "edges_out": "count", "peak_rank": "count",
         "peak_bytes": "B-computed", "shots_per_s": "1/s",
         "agree_ratio": "ratio", "overhead_ratio": "ratio"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    parts = metric.split(".")
    if parts[:2] == ["rewrite", "steps"]:
        return "count"
    return next(UNITS[p] for p in reversed(parts) if p in UNITS)


def _pattern_label(args, kwargs):
    p = args[0] if args else kwargs["p"]
    return SHAPE_LABELS.get(len(p.angles), "other")


def _rule_counts(steps) -> dict:
    return {"rules": collections.Counter(s.rule for s in steps),
            "steps": len(steps)}


def _simplify_extra(args, kwargs, result) -> dict:
    d = args[0] if args else kwargs["d"]
    reduced, steps = result
    return {"spiders_in": len(d.spiders), "edges_in": len(d.edges),
            "spiders_out": len(reduced.spiders),
            "edges_out": len(reduced.edges), **_rule_counts(steps)}


def _reduce_extra(args, kwargs, result) -> dict:
    return _rule_counts(result[1])


def _sampled_extra(args, kwargs, result) -> dict:
    return {"shots": result.shots, "agreeing": result.agreeing_shots}


# (module, attribute, span name, label function, result hook); a dotted
# attribute names a method on a class of that module.
TARGETS = [
    ("zxdj.oracle", "oracle_circuit_3q", "oracle.oracle_circuit_3q", None, None),
    ("zxdj.oracle", "phase_polynomial", "oracle.phase_polynomial", None, None),
    ("zxdj.circuit", "dj_run_circuit", "circuit.dj_run_circuit", None, None),
    ("zxdj.circuit", "to_zx_tracked", "circuit.to_zx_tracked", None, None),
    ("zxdj.diagram", "ZxDiagram.edges_at", "diagram.edges_at", None, None),
    ("zxdj.diagram", "ZxDiagram.add_edge", "diagram.add_edge", None, None),
    ("zxdj.diagram", "ZxDiagram.remove_edge", "diagram.remove_edge", None, None),
    ("zxdj.rewrite", "simplify_mbqc", "rewrite.simplify_mbqc", None,
     _simplify_extra),
    ("zxdj.tensor", "elimination_order", "tensor.elimination_order", None, None),
    ("zxdj.tensor", "evaluate", "tensor.evaluate", None, None),
    ("zxdj.tensor", "collapse_floor", "tensor.collapse_floor", None, None),
    ("zxdj.mbqc", "run_postselected", "mbqc.run_postselected",
     _pattern_label, None),
    ("zxdj.mbqc", "pattern_to_diagram", "mbqc.pattern_to_diagram", None, None),
    ("zxdj.mbqc", "reduce_lattice", "mbqc.reduce_lattice", None, _reduce_extra),
    ("zxdj.mbqc", "run_sampled", "mbqc.run_sampled", None, _sampled_extra),
]


class Recorder:
    """Holds the spans of one traced run; one caller, one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("q")
        self.label_of: array = array("q")
        self.parent_of: array = array("q")
        self.op_of: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.extra: dict[int, dict] = {}
        self.op: int | None = None  # None: calls pass through unrecorded
        self.ops = 0  # op ids handed out so far
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zxdj" or name.startswith("zxdj.")]
        for module_name, attr, span_name, label_fn, extra_fn in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                places = [owner]
            else:
                places = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, label_fn, extra_fn)
            for place in places:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._undo.append((place, key, value))
                        setattr(place, key, wrapper)

    def uninstall(self) -> None:
        for place, key, value in reversed(self._undo):
            setattr(place, key, value)
        self._undo.clear()

    def _wrap(self, fn, span_name: str, label_fn, extra_fn):
        name_id = len(self.names)
        self.names.append(span_name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else -1
            if label_fn is not None:
                label = LABELS.index(label_fn(args, kwargs))
            else:
                label = self.label_of[parent] if parent >= 0 else 0
            idx = len(self.start)
            self.name_of.append(name_id)
            self.label_of.append(label)
            self.parent_of.append(parent)
            self.op_of.append(self.op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if extra_fn is not None:
                self.extra[idx] = extra_fn(args, kwargs, result)
            return result

        return traced

    def begin_op(self) -> None:
        self.op = self.ops
        self.ops += 1

    def end_op(self) -> None:
        self.op = None

    # -- output -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64)
                for key in ("name_of", "label_of", "parent_of", "op_of",
                            "start", "end")}

    def save(self, path, op_ranges: dict[str, range]) -> None:
        """Write every span, and which op ids belong to which workload."""
        np.savez_compressed(
            path, names=np.array(self.names), labels=np.array(LABELS),
            workloads=np.array(list(op_ranges)),
            op_ranges=np.array([(r.start, r.stop) for r in op_ranges.values()]),
            **self.columns())


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(rec: Recorder, ops: range) -> dict[str, float]:
    """Per-layer figures from the spans of the ops with ids in ``ops``.

    ``<span>.self_ms[.<label>]`` is the median self time per call (span
    duration minus the time its direct children cover).  ``.calls`` and
    ``.total_ms`` are per op: the median over ops of the call count and of
    the summed inclusive time.  A function an op never calls reads 0.
    """
    cols = rec.columns()
    name, label, parent, op = (cols["name_of"], cols["label_of"],
                               cols["parent_of"], cols["op_of"])
    dur = (cols["end"] - cols["start"]).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_ms = (dur - covered) / 1e6
    in_ops = (op >= ops.start) & (op < ops.stop)
    op = op - ops.start
    n_ops = len(ops)
    out: dict[str, float] = {}

    def mask(span_name, label_name=None):
        m = in_ops & (name == rec.names.index(span_name))
        if label_name is not None:
            m &= label == LABELS.index(label_name)
        return m

    def self_p50(span_name, label_name=None):
        return _median(self_ms[mask(span_name, label_name)])

    def per_op(span_name, weights=None):
        m = mask(span_name)
        w = None if weights is None else weights[m]
        return _median(np.bincount(op[m], weights=w, minlength=n_ops)[:n_ops])

    def extras(span_name):
        return [rec.extra[i] for i in np.flatnonzero(mask(span_name))]

    out["oracle.oracle_circuit_3q.self_ms"] = self_p50("oracle.oracle_circuit_3q")
    out["oracle.phase_polynomial.calls"] = per_op("oracle.phase_polynomial")
    out["circuit.dj_run_circuit.self_ms"] = self_p50("circuit.dj_run_circuit")
    out["circuit.to_zx_tracked.self_ms"] = self_p50("circuit.to_zx_tracked")
    out["diagram.edges_at.calls"] = per_op("diagram.edges_at")
    out["diagram.edges_at.total_ms"] = per_op("diagram.edges_at", dur / 1e6)
    out["diagram.add_edge.calls"] = per_op("diagram.add_edge")
    out["diagram.remove_edge.calls"] = per_op("diagram.remove_edge")

    out["rewrite.simplify_mbqc.self_ms"] = self_p50("rewrite.simplify_mbqc")
    simplify = extras("rewrite.simplify_mbqc")
    for key in ("spiders_in", "edges_in", "spiders_out", "edges_out"):
        out[f"rewrite.simplify_mbqc.{key}"] = _median([x[key] for x in simplify])
    # rule counts per op, read from the traces simplify_mbqc and
    # reduce_lattice return
    traced = (list(zip(op[mask("rewrite.simplify_mbqc")], simplify))
              + list(zip(op[mask("mbqc.reduce_lattice")],
                         extras("mbqc.reduce_lattice"))))
    for rule in REWRITE_RULES:
        counts = np.zeros(n_ops)
        for op_id, x in traced:
            counts[op_id] += x["rules"][rule]
        out[f"rewrite.steps.{rule}"] = _median(counts)

    for fn in ("elimination_order", "evaluate", "collapse_floor"):
        for shape in ("lattice", "pattern"):
            out[f"tensor.{fn}.self_ms.{shape}"] = self_p50(f"tensor.{fn}", shape)
    out["tensor.evaluate.calls"] = per_op("tensor.evaluate")

    for shape in ("lattice", "pattern"):
        out[f"mbqc.run_postselected.total_ms.{shape}"] = _median(
            dur[mask("mbqc.run_postselected", shape)] / 1e6)
    out["mbqc.pattern_to_diagram.self_ms"] = self_p50("mbqc.pattern_to_diagram")
    out["mbqc.reduce_lattice.self_ms"] = self_p50("mbqc.reduce_lattice")
    out["mbqc.reduce_lattice.steps"] = _median(
        [x["steps"] for x in extras("mbqc.reduce_lattice")])
    out["mbqc.run_sampled.self_ms"] = self_p50("mbqc.run_sampled")
    sampled = mask("mbqc.run_sampled")
    shots = np.array([x["shots"] for x in extras("mbqc.run_sampled")])
    agreeing = np.array([x["agreeing"] for x in extras("mbqc.run_sampled")])
    out["mbqc.run_sampled.shots_per_s"] = _median(
        shots / (self_ms[sampled] / 1e3))
    out["mbqc.run_sampled.agree_ratio"] = (
        float(agreeing.sum() / shots.sum()) if shots.sum() else 0.0)
    return out


def fill_idle(own: dict, companions: list[dict]) -> dict:
    """Fill the times of functions the workload's op never calls.

    Counts keep their 0, which shows the layer is idle.  Any other figure
    reads 0 only when there was no call to measure; it is taken from the
    first companion workload whose op makes that call.
    """
    out = dict(own)
    for key, value in own.items():
        if value == 0 and unit(key) != "count":
            out[key] = next((c[key] for c in companions if c[key]), 0.0)
    return out
