"""Diagram rewrite rules and the simplification pipeline to MBQC form.

Every rule mutates its diagram in place and returns a :class:`RewriteStep`
describing what happened.  All rules preserve the diagram's tensor up to a
nonzero scalar; the test suite certifies this against the dense evaluator
rather than trusting the derivations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .errors import (
    KindMismatchError,
    NotAdjacentError,
    PreconditionFailed,
    UnknownNodeError,
    WouldSelfLoopError,
)
from .phase import HALF_PI, MINUS_HALF_PI, ZERO


@dataclass
class RewriteStep:
    rule: str
    before: tuple[int, ...]
    after: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "before": list(self.before),
            "after": list(self.after),
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionFailed(message)


def color_change(d: ZxDiagram, v: int) -> RewriteStep:
    """Toggle a spider's kind along with the kind of every incident edge.

    Dangling boundary legs cannot carry the toggled Hadamard, so each
    boundary occurrence of ``v`` is first detached onto a fresh phase-0
    Z spider joined by a plain edge (the stub then absorbs the toggle).
    """
    if v not in d.spiders:
        raise UnknownNodeError(f"unknown node {v}")
    created = []
    if d.boundary_legs(v):
        for boundary in (d.inputs, d.outputs):
            for i, b in enumerate(boundary):
                if b == v:
                    stub = d.add_spider(SpiderKind.Z, ZERO)
                    d.add_edge(stub, v, EdgeKind.PLAIN)
                    boundary[i] = stub
                    created.append(stub)
    s = d.spiders[v]
    s.kind = s.kind.toggled()
    for eid in d.edges_at(v):
        e = d.edges[eid]
        d.replace_edge(eid, e.a, e.b, e.kind.toggled())
    return RewriteStep("color_change", (v,), (v, *created))


def fuse_spiders(d: ZxDiagram, a: int, b: int) -> RewriteStep:
    """Merge two like-kind spiders joined by at least one plain edge."""
    for v in (a, b):
        if v not in d.spiders:
            raise UnknownNodeError(f"unknown node {v}")
    _require(a != b, "cannot fuse a spider with itself")
    if d.spiders[a].kind is not d.spiders[b].kind:
        raise KindMismatchError(f"{a} and {b} have different kinds")
    between = d.edges_between(a, b)
    plain = [e for e in between if d.edges[e].kind is EdgeKind.PLAIN]
    if not plain:
        raise NotAdjacentError(f"{a} and {b} share no plain edge")
    if len(plain) != len(between):
        raise WouldSelfLoopError(
            f"Hadamard edge between {a} and {b} would become a self-loop")
    for eid in between:
        d.remove_edge(eid)
    d.spiders[a].phase = d.spiders[a].phase + d.spiders[b].phase
    for eid in d.edges_at(b):
        e = d.edges[eid]
        d.replace_edge(eid, a if e.a == b else e.a,
                       a if e.b == b else e.b, e.kind)
    d.inputs = [a if v == b else v for v in d.inputs]
    d.outputs = [a if v == b else v for v in d.outputs]
    d.remove_spider(b)
    return RewriteStep("fuse_spiders", (a, b), (a,))


def hadamard_cancel(d: ZxDiagram, v: int) -> RewriteStep:
    """Remove a phase-0 degree-2 spider whose two edges are both Hadamard."""
    if v not in d.spiders:
        raise UnknownNodeError(f"unknown node {v}")
    s = d.spiders[v]
    _require(s.phase.is_zero(), f"node {v} has nonzero phase")
    _require(d.boundary_legs(v) == 0, f"node {v} is a boundary spider")
    eids = d.edges_at(v)
    _require(len(eids) == 2, f"node {v} has degree {len(eids)}")
    _require(all(d.edges[e].kind is EdgeKind.HADAMARD for e in eids),
             "both edges must be Hadamard")
    n1, n2 = (d.edges[e].other(v) for e in eids)
    _require(n1 != n2, "cancelling would create a self-loop")
    d.remove_spider(v)
    d.add_edge(n1, n2, EdgeKind.PLAIN)
    return RewriteStep("hadamard_cancel", (v, n1, n2), (n1, n2))


def expand_hadamard_edge(d: ZxDiagram, eid: int) -> RewriteStep:
    """Replace a Hadamard edge with the Z(pi/2)-X(pi/2)-Z(pi/2) chain."""
    _require(eid in d.edges, f"unknown edge {eid}")
    e = d.edges[eid]
    _require(e.kind is EdgeKind.HADAMARD, "edge is not Hadamard")
    d.remove_edge(eid)
    z1 = d.add_spider(SpiderKind.Z, HALF_PI)
    x = d.add_spider(SpiderKind.X, HALF_PI)
    z2 = d.add_spider(SpiderKind.Z, HALF_PI)
    d.add_edge(e.a, z1, EdgeKind.PLAIN)
    d.add_edge(z1, x, EdgeKind.PLAIN)
    d.add_edge(x, z2, EdgeKind.PLAIN)
    d.add_edge(z2, e.b, EdgeKind.PLAIN)
    return RewriteStep("expand_hadamard_edge", (e.a, e.b), (z1, x, z2))


def collapse_hadamard_chain(d: ZxDiagram, v1: int, v2: int, v3: int) -> RewriteStep:
    """Inverse of :func:`expand_hadamard_edge`."""
    for v in (v1, v2, v3):
        if v not in d.spiders:
            raise UnknownNodeError(f"unknown node {v}")
    _require(d.spiders[v1].kind is SpiderKind.Z
             and d.spiders[v3].kind is SpiderKind.Z
             and d.spiders[v2].kind is SpiderKind.X, "chain must be Z-X-Z")
    _require(all(d.spiders[v].phase == HALF_PI for v in (v1, v2, v3)),
             "all three phases must be pi/2")
    _require(all(d.boundary_legs(v) == 0 and len(d.edges_at(v)) == 2
                 for v in (v1, v2, v3)), "chain spiders must have degree 2")
    for a, b in ((v1, v2), (v2, v3)):
        link = d.edges_between(a, b)
        _require(len(link) == 1 and d.edges[link[0]].kind is EdgeKind.PLAIN,
                 "chain must be joined by single plain edges")
    (outer1,) = d.neighbors(v1) - {v2}
    (outer3,) = d.neighbors(v3) - {v2}
    for e in (d.edges_between(v1, outer1) + d.edges_between(v3, outer3)):
        _require(d.edges[e].kind is EdgeKind.PLAIN, "outer edges must be plain")
    _require(outer1 != outer3, "collapse would create a self-loop")
    for v in (v1, v2, v3):
        d.remove_spider(v)
    d.add_edge(outer1, outer3, EdgeKind.HADAMARD)
    return RewriteStep("collapse_hadamard_chain", (v1, v2, v3), (outer1, outer3))


def decouple_x_state(d: ZxDiagram, x: int) -> RewriteStep:
    """Absorb a plain-attached phase-0 X state, erasing its Z neighbor.

    The Z neighbor's phase is discarded (it multiplies a basis weight the
    projection kills).  Each of the neighbor's remaining plain legs receives
    a fresh phase-0 X state; a Hadamard leg receives a phase-0 Z state
    instead (the X state pushed through the Hadamard).
    """
    if x not in d.spiders:
        raise UnknownNodeError(f"unknown node {x}")
    s = d.spiders[x]
    _require(s.kind is SpiderKind.X and s.phase.is_zero(),
             f"node {x} is not a phase-0 X spider")
    _require(d.boundary_legs(x) == 0, f"node {x} is a boundary spider")
    eids = d.edges_at(x)
    _require(len(eids) == 1, f"node {x} has degree {len(eids)}")
    edge = d.edges[eids[0]]
    _require(edge.kind is EdgeKind.PLAIN,
             "the X state must be attached by a plain edge")
    z = edge.other(x)
    _require(d.spiders[z].kind is SpiderKind.Z, "neighbor must be a Z spider")
    _require(d.boundary_legs(z) == 0, f"node {z} is a boundary spider")
    created = []
    for eid in d.edges_at(z):
        e = d.edges[eid]
        if eid == eids[0]:
            continue
        n = e.other(z)
        kind = SpiderKind.X if e.kind is EdgeKind.PLAIN else SpiderKind.Z
        cap = d.add_spider(kind, ZERO)
        d.add_edge(cap, n, EdgeKind.PLAIN)
        created.append(cap)
    d.remove_spider(x)
    d.remove_spider(z)
    return RewriteStep("decouple_x_state", (x, z), tuple(created))


def local_complement(d: ZxDiagram, v: int) -> RewriteStep:
    """Remove a +-pi/2 spider, complementing its neighborhood's edge set.

    The removed spider's phase sign is paid back with the opposite sign on
    every neighbor.
    """
    if v not in d.spiders:
        raise UnknownNodeError(f"unknown node {v}")
    s = d.spiders[v]
    _require(s.kind is SpiderKind.Z, f"node {v} is not a Z spider")
    _require(s.phase in (HALF_PI, MINUS_HALF_PI),
             f"node {v} phase must be +-pi/2")
    _require(d.boundary_legs(v) == 0, f"node {v} is a boundary spider")
    eids = d.edges_at(v)
    _require(all(d.edges[e].kind is EdgeKind.HADAMARD for e in eids),
             "all incident edges must be Hadamard")
    nbrs = sorted({d.edges[e].other(v) for e in eids})
    _require(len(nbrs) == len(eids), "parallel edges at the pivot")
    _require(all(d.spiders[n].kind is SpiderKind.Z for n in nbrs),
             "all neighbors must be Z spiders")
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1:]:
            between = d.edges_between(u, w)
            _require(len(between) <= 1, "parallel edges in the neighborhood")
            _require(all(d.edges[e].kind is EdgeKind.HADAMARD for e in between),
                     "plain edge in the neighborhood")
    delta = MINUS_HALF_PI if s.phase == HALF_PI else HALF_PI
    d.remove_spider(v)
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1:]:
            between = d.edges_between(u, w)
            if between:
                d.remove_edge(between[0])
            else:
                d.add_edge(u, w, EdgeKind.HADAMARD)
    for n in nbrs:
        d.spiders[n].phase = d.spiders[n].phase + delta
    return RewriteStep("local_complement", (v,), tuple(nbrs))


def _reduce_parallel_hadamard(d: ZxDiagram, steps: list[RewriteStep]) -> bool:
    """Delete parallel Hadamard edges between Z pairs two at a time."""
    changed = False
    seen: set[tuple[int, int]] = set()
    for eid in sorted(d.edges):
        e = d.edges.get(eid)
        if e is None:
            continue
        pair = (min(e.a, e.b), max(e.a, e.b))
        if pair in seen:
            continue
        seen.add(pair)
        hadamards = [x for x in d.edges_between(*pair)
                     if d.edges[x].kind is EdgeKind.HADAMARD]
        while len(hadamards) >= 2:
            d.remove_edge(hadamards.pop())
            d.remove_edge(hadamards.pop())
            steps.append(RewriteStep("hopf_pair", pair, pair))
            changed = True
    return changed


def _fuse_all_plain(d: ZxDiagram, protected: set[int],
                    steps: list[RewriteStep]) -> None:
    while True:
        target = None
        for eid in sorted(d.edges):
            e = d.edges[eid]
            if (e.kind is EdgeKind.PLAIN
                    and d.spiders[e.a].kind is d.spiders[e.b].kind):
                target = (min(e.a, e.b), max(e.a, e.b))
                break
        if target is None:
            return
        a, b = target
        steps.append(fuse_spiders(d, a, b))
        if b in protected:
            protected.discard(b)
            protected.add(a)


def _to_graph_like_inplace(d: ZxDiagram, protected: set[int],
                           steps: list[RewriteStep]) -> None:
    for v in sorted(d.spiders):
        if d.spiders[v].kind is SpiderKind.X:
            steps.append(color_change(d, v))
    _fuse_all_plain(d, protected, steps)
    _reduce_parallel_hadamard(d, steps)


def to_graph_like(d: ZxDiagram) -> ZxDiagram:
    """Equivalent diagram with only Z spiders and simple Hadamard edges."""
    result = d.copy()
    _to_graph_like_inplace(result, set(), [])
    return result


def plug_plus_states(d: ZxDiagram) -> ZxDiagram:
    """Cap every boundary leg with a phase-0 Z state, closing the diagram."""
    result = d.copy()
    _plug_inplace(result, [])
    return result


def _plug_inplace(d: ZxDiagram, steps: list[RewriteStep]) -> None:
    for boundary in (d.inputs, d.outputs):
        for v in boundary:
            cap = d.add_spider(SpiderKind.Z, ZERO)
            d.add_edge(cap, v, EdgeKind.PLAIN)
            steps.append(RewriteStep("plug_plus_state", (v,), (cap,)))
    d.inputs = []
    d.outputs = []


def _decouple_trailing_cap(d: ZxDiagram, protected: set[int],
                           steps: list[RewriteStep]) -> bool:
    """Remove one unprotected degree-1 phase-0 spider along with its
    unprotected neighbor, re-capping the neighbor's other legs."""
    for v in sorted(d.spiders):
        s = d.spiders[v]
        if (v in protected or s.kind is not SpiderKind.Z
                or not s.phase.is_zero() or d.boundary_legs(v)):
            continue
        eids = d.edges_at(v)
        if len(eids) != 1 or d.edges[eids[0]].kind is not EdgeKind.HADAMARD:
            continue
        z = d.edges[eids[0]].other(v)
        if z in protected or z == v:
            continue
        steps.append(color_change(d, v))
        steps.append(decouple_x_state(d, v))
        # caps emitted on Hadamard legs are plain-attached Z states: fuse them
        _fuse_all_plain(d, protected, steps)
        return True
    return False


def _cancel_one_hadamard_pair(d: ZxDiagram, protected: set[int],
                              steps: list[RewriteStep]) -> bool:
    for v in sorted(d.spiders):
        s = d.spiders[v]
        if (v in protected or not s.phase.is_zero() or d.boundary_legs(v)
                or s.kind is not SpiderKind.Z):
            continue
        eids = d.edges_at(v)
        if len(eids) != 2:
            continue
        if not all(d.edges[e].kind is EdgeKind.HADAMARD for e in eids):
            continue
        n1, n2 = (d.edges[e].other(v) for e in eids)
        if n1 == n2:
            continue
        steps.append(hadamard_cancel(d, v))
        _fuse_all_plain(d, protected, steps)
        _reduce_parallel_hadamard(d, steps)
        return True
    return False


def simplify_mbqc(d: ZxDiagram, protected=frozenset()):
    """Reduce a (closable) circuit translation to a graph-like closed diagram.

    ``protected`` spiders are the oracle's parameter carriers: they survive
    the cleanup so that every oracle variant compiles to the same graph
    shape regardless of which phases happen to vanish.  Returns the reduced
    diagram and the full step trace.
    """
    result = d.copy()
    live_protected = set(protected)
    steps: list[RewriteStep] = []
    if not result.is_closed():
        _plug_inplace(result, steps)
    _to_graph_like_inplace(result, live_protected, steps)
    while True:
        if _decouple_trailing_cap(result, live_protected, steps):
            continue
        if _cancel_one_hadamard_pair(result, live_protected, steps):
            continue
        break
    return result, steps
