"""Diagram rewrite rules and the simplification pipeline to MBQC form.

Every rule mutates its diagram in place and returns a :class:`RewriteStep`
describing what happened.  All rules preserve the diagram's tensor up to a
nonzero scalar; the test suite certifies this against the dense evaluator
rather than trusting the derivations.

Every memo in the package is a ``functools.lru_cache`` of ``MEMO_SHAPES``
keys on a builder whose arguments are its whole key, so a builder cannot
read what its key leaves out, and a build that raises stores nothing.

:func:`simplify_mbqc` of a ``diagram._View`` whose carriers are all
protected reads its record, not its state.  No rule reads a protected
phase, so the record's diagram and the view have the same trace and
reduced graph, and each survivor's phase is its phase in the reduced
record plus the values of the sources of the carriers fused into it.  So
the reduced record's carriers are the survivors, in the view's own
format, and the view's values pass through unchanged.  Which survivor
holds which protected spider is tracked in one place: each fusion in
:func:`simplify_core` hands them on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .diagram import EdgeKind, SpiderKind, ZxDiagram, _Record, _View
from .errors import (
    KindMismatchError,
    NotAdjacentError,
    PreconditionFailed,
    UnknownNodeError,
    WouldSelfLoopError,
)
from .phase import HALF_PI, MINUS_HALF_PI, PI, ZERO


@dataclass(frozen=True)
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


def _require_spiders(d: ZxDiagram, *vs: int) -> None:
    for v in vs:
        if v not in d.spiders:
            raise UnknownNodeError(f"unknown node {v}")


def color_change(d: ZxDiagram, v: int) -> RewriteStep:
    """Toggle a spider's kind along with the kind of every incident edge.

    Dangling boundary legs cannot carry the toggled Hadamard, so each
    boundary occurrence of ``v`` is first detached onto a fresh phase-0
    Z spider joined by a plain edge (the stub then absorbs the toggle).
    """
    _require_spiders(d, v)
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
    _require_spiders(d, a, b)
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
    _require_spiders(d, v)
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
    _require_spiders(d, v1, v2, v3)
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
    _require_spiders(d, x)
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
    _require_spiders(d, v)
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


def _reduce_parallel_hadamard(d: ZxDiagram, eids,
                              steps: list[RewriteStep]) -> None:
    """Delete parallel Hadamard edges two at a time, each spider pair at its
    lowest id in the ascending ``eids``."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in eids:
        e = d.edges[eid]
        if e.kind is EdgeKind.HADAMARD:
            by_pair.setdefault((min(e.a, e.b), max(e.a, e.b)), []).append(eid)
    for pair, hadamards in by_pair.items():
        while len(hadamards) >= 2:
            d.remove_edge(hadamards.pop())
            d.remove_edge(hadamards.pop())
            steps.append(RewriteStep("hopf_pair", pair, pair))


def _fuse(d: ZxDiagram, a: int, b: int, held: dict[int, list[int]],
          steps: list[RewriteStep]) -> None:
    """Fuse ``b`` into ``a``, which takes over the protected inputs ``b``
    holds.  A Hadamard edge between them would become a self-loop, which is
    a pi phase up to a 1/sqrt(2) scalar, so ``a`` absorbs each one as pi
    first."""
    try:
        step = fuse_spiders(d, a, b)
    except WouldSelfLoopError:
        for eid in d.edges_between(a, b):
            if d.edges[eid].kind is EdgeKind.HADAMARD:
                d.remove_edge(eid)
                d.spiders[a].phase = d.spiders[a].phase + PI
                steps.append(RewriteStep("hadamard_loop", (a, b), (a,)))
        step = fuse_spiders(d, a, b)
    steps.append(step)
    if b in held:
        held.setdefault(a, []).extend(held.pop(b))


def _fuse_all_plain(d: ZxDiagram, held: dict[int, list[int]],
                    steps: list[RewriteStep]) -> None:
    """Fuse along each like-kind plain edge, lowest id first.  One pass is
    enough: a fusion changes no edge's kind or far end's kind."""
    for eid in sorted(d.edges):
        e = d.edges.get(eid)
        if (e is not None and e.kind is EdgeKind.PLAIN
                and d.spiders[e.a].kind is d.spiders[e.b].kind):
            _fuse(d, min(e.a, e.b), max(e.a, e.b), held, steps)


def _to_graph_like_inplace(d: ZxDiagram, held: dict[int, list[int]],
                           steps: list[RewriteStep]) -> None:
    for v in sorted(d.spiders):
        if d.spiders[v].kind is SpiderKind.X:
            steps.append(color_change(d, v))
    _fuse_all_plain(d, held, steps)
    _reduce_parallel_hadamard(d, sorted(d.edges), steps)


def to_graph_like(d: ZxDiagram) -> ZxDiagram:
    """Equivalent diagram with only Z spiders and simple Hadamard edges."""
    result = d.copy()
    _to_graph_like_inplace(result, {}, [])
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


# A simplifier rule looks at one spider.  If it applies there, it rewrites,
# appends its steps and returns True, else None.  Rules read a spider's
# kind, phase and legs, its neighbors' kind and protection, and whether a
# wire's ends share an edge; none fires on a protected spider.  A spider is
# protected while it holds a protected input (a key of ``held``).  Rules
# run only in simplify_core, after the boundary is plugged, so no spider
# has a boundary leg.

def _state_rule(d, v, held, steps):
    """Decouple a phase-0 state on an unprotected Z spider: an X state on a
    plain leg, or a Z state on a Hadamard leg (a trailing cap, color-changed
    first).  The caps this leaves on like-kind neighbors fuse at once."""
    s = d.spiders[v]
    if v in held or d.degree(v) != 1 or not s.phase.is_zero():
        return None
    e = d.edges[d.edges_at(v)[0]]
    z = e.other(v)
    if (z in held or d.spiders[z].kind is not SpiderKind.Z
            or (s.kind is SpiderKind.X) != (e.kind is EdgeKind.PLAIN)):
        return None
    if s.kind is SpiderKind.Z:
        steps.append(color_change(d, v))
    step = decouple_x_state(d, v)
    steps.append(step)
    for cap in step.after:
        (n,) = d.neighbors(cap)
        if d.spiders[n].kind is d.spiders[cap].kind:
            _fuse(d, n, cap, held, steps)
    return True


def _wire_ends(d: ZxDiagram, v: int, held: dict[int, list[int]]):
    """The ends of an unprotected degree-2 Z spider with two Hadamard legs."""
    if (v in held or d.degree(v) != 2
            or d.spiders[v].kind is not SpiderKind.Z):
        return None
    e1, e2 = (d.edges[eid] for eid in d.edges_at(v))
    hadamard = e1.kind is EdgeKind.HADAMARD and e2.kind is EdgeKind.HADAMARD
    return (e1.other(v), e2.other(v)) if hadamard else None


def _hadamard_wire_rule(d, v, held, steps):
    """Cancel a phase-0 wire and fuse its ends, unless they share an edge,
    which the fusion would make a self-loop."""
    ends = d.spiders[v].phase.is_zero() and _wire_ends(d, v, held)
    if not ends or d.edges_between(*ends):
        return None
    steps.append(hadamard_cancel(d, v))
    a, b = sorted(ends)
    _fuse(d, a, b, held, steps)
    _reduce_parallel_hadamard(d, d.edges_at(a), steps)
    return True


def _clifford_wire_rule(d, v, held, steps):
    """Local-complement a +-pi/2 wire away (Duncan, Kissinger, Perdrix &
    van de Wetering, Quantum 4, 279, 2020)."""
    if (d.spiders[v].phase not in (HALF_PI, MINUS_HALF_PI)
            or not _wire_ends(d, v, held)):
        return None
    steps.append(local_complement(d, v))
    return True


def _drive(d: ZxDiagram, held: dict[int, list[int]],
           steps: list[RewriteStep], rules) -> None:
    """Apply the (degree, rule) pairs until none applies: each step applies
    the first rule in list order that applies at a spider of its degree,
    at the lowest such id, and the next step scans the diagram afresh."""
    while any(rule(d, v, held, steps) for k, rule in rules
              for v in sorted(d.spiders) if d.degree(v) == k):
        pass


_RULES = ((1, _state_rule), (2, _hadamard_wire_rule), (2, _clifford_wire_rule))


# Keys a memo holds (see the module docstring).
MEMO_SHAPES = 64


def simplify_core(d: ZxDiagram, protected) -> tuple[list[RewriteStep], tuple]:
    """The simplifier core, unmemoized: plug the boundary, decouple X
    states (before the graph-like pass color-changes them), then remove
    trailing caps, phase-0 and +-pi/2 wires in that priority, all in place.
    A fusion hands the ``protected`` inputs its spider holds to the
    survivor; ``protected`` itself is left as it was.  Returns the trace
    and the pairs ``(survivor, inputs)`` of each survivor that absorbed
    protected inputs, by lowest input, inputs ascending."""
    held = {p: [p] for p in protected if p in d.spiders}
    steps: list[RewriteStep] = []
    if not d.is_closed():
        _plug_inplace(d, steps)
    _drive(d, held, steps, _RULES[:1])
    _to_graph_like_inplace(d, held, steps)
    _drive(d, held, steps, _RULES)
    return steps, tuple([(v, tuple(ps)) for ps, v in
                         sorted((sorted(ps), v) for v, ps in held.items())])


@functools.lru_cache(MEMO_SHAPES)
def _rewrite(record: _Record, protected: frozenset) -> tuple[_Record, tuple]:
    """The record of ``record.diagram`` reduced, whose carriers must all be
    ``protected``, and the trace.  The reduced record's carriers are the
    survivors, each at its reduced phase, with the sources of the carriers
    fused into it.  It keeps a copy of the reduced diagram, whose dicts the
    deletions left sparse and slow to copy on each build of a view."""
    reduced = record.diagram.copy()
    steps, survivors = simplify_core(reduced, protected)
    sources = {v: s for v, _, s in record.carriers}
    return _Record(reduced.copy(), tuple([
        (v, reduced.spiders[v].phase,
         tuple([s for p in inputs for s in sources.get(p, ())]))
        for v, inputs in survivors])), tuple(steps)


def simplify_mbqc(d: ZxDiagram, protected=frozenset()):
    """Reduce a (closable) circuit translation to a graph-like closed diagram.

    ``protected`` spiders are the oracle's parameter carriers: they
    survive the cleanup so that every oracle variant compiles to the same
    graph shape regardless of which phases happen to vanish, and it is
    their phases alone that vary between variants.  Returns the reduced
    diagram and a fresh list of the full step trace.

    A view (``diagram._View``) whose carriers are all protected takes the
    rewrite of its record by the protected set (:func:`_rewrite`), and
    returns a view of the reduced record with the same values: only a miss
    runs the rules.  Any other diagram is simplified on a copy.
    """
    protected = frozenset(protected)
    if d.__class__ is _View and all(
            v in protected for v, _, _ in d._record.carriers):
        reduced, steps = _rewrite(d._record, protected)
        return _View(reduced, d._values), list(steps)
    d = d.copy()
    return d, simplify_core(d, protected)[0]
