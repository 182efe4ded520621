"""Open multigraphs of Z/X spiders with plain or Hadamard edges.

A diagram is a plain value: spiders live in a dict keyed by stable NodeIds
(never reused within a diagram's lifetime), edges in a dict keyed by EdgeIds.
Boundaries are ordered lists of spider ids; a spider listed in ``inputs`` or
``outputs`` carries one dangling tensor leg per occurrence.  Incident edges
are indexed per spider, so only diagram methods may change the two dicts.

A memo hands out a :class:`_View`: the diagram of a :class:`_Record`
with some spiders' phases replaced, which holds no state until it is
first read or written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import SelfLoopError, UnknownNodeError
from .phase import Phase, ZERO


class SpiderKind(Enum):
    Z = "Z"
    X = "X"

    def toggled(self) -> "SpiderKind":
        return SpiderKind.X if self is SpiderKind.Z else SpiderKind.Z


class EdgeKind(Enum):
    PLAIN = "plain"
    HADAMARD = "h"

    def toggled(self) -> "EdgeKind":
        return EdgeKind.HADAMARD if self is EdgeKind.PLAIN else EdgeKind.PLAIN


@dataclass
class Spider:
    kind: SpiderKind
    phase: Phase


class Edge(NamedTuple):  # twice as fast to build as a frozen dataclass
    a: int
    b: int
    kind: EdgeKind

    def other(self, v: int) -> int:
        return self.b if v == self.a else self.a


class ZxDiagram:
    def __init__(self) -> None:
        self.spiders: dict[int, Spider] = {}
        self.edges: dict[int, Edge] = {}
        self._incident: dict[int, set[int]] = {}
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self._next_node = 0
        self._next_edge = 0

    # -- construction -----------------------------------------------------

    def add_spider(self, kind: SpiderKind, phase: Phase = ZERO) -> int:
        nid = self._next_node
        self._next_node += 1
        self.spiders[nid] = Spider(kind, phase)
        self._incident[nid] = set()
        return nid

    def add_edge(self, a: int, b: int, kind: EdgeKind = EdgeKind.PLAIN) -> int:
        eid = self._next_edge
        self._link(eid, a, b, kind)
        self._next_edge += 1
        return eid

    def remove_edge(self, eid: int) -> None:
        self._unlink(eid)

    def replace_edge(self, eid: int, a: int, b: int, kind: EdgeKind) -> None:
        """Give an existing edge new endpoints and kind, keeping its id."""
        old = self.edges[eid]
        self._link(eid, a, b, kind)
        for v in {old.a, old.b} - {a, b}:
            self._incident[v].discard(eid)

    def _link(self, eid: int, a: int, b: int, kind: EdgeKind) -> None:
        """Check the endpoints, then store the edge and index it."""
        if a == b:
            raise SelfLoopError(f"self-loop on node {a}")
        for v in (a, b):
            if v not in self.spiders:
                raise UnknownNodeError(f"unknown node {v}")
        self.edges[eid] = Edge(a, b, kind)
        self._incident[a].add(eid)
        self._incident[b].add(eid)

    def _unlink(self, eid: int) -> None:
        e = self.edges.pop(eid)
        self._incident[e.a].discard(eid)
        self._incident[e.b].discard(eid)

    def remove_spider(self, v: int) -> None:
        """Remove a spider together with its incident edges.

        The spider must not be referenced by the boundary lists.
        """
        if v in self.inputs or v in self.outputs:
            raise ValueError(f"cannot remove boundary spider {v}")
        for eid in list(self._incident[v]):
            self._unlink(eid)
        del self._incident[v]
        del self.spiders[v]

    # -- queries ----------------------------------------------------------

    def edges_at(self, v: int) -> list[int]:
        return sorted(self._incident.get(v, ()))

    def degree(self, v: int) -> int:
        return len(self._incident.get(v, ()))

    def neighbors(self, v: int) -> set[int]:
        return {self.edges[eid].other(v) for eid in self._incident.get(v, ())}

    def edges_between(self, a: int, b: int) -> list[int]:
        at_a, at_b = self._incident.get(a, ()), self._incident.get(b, ())
        if len(at_b) < len(at_a):
            a, b, at_a = b, a, at_b
        return sorted(eid for eid in at_a if self.edges[eid].other(a) == b)

    def boundary_legs(self, v: int) -> int:
        return self.inputs.count(v) + self.outputs.count(v)

    def is_closed(self) -> bool:
        return not self.inputs and not self.outputs

    def node_ids(self) -> Iterator[int]:
        return iter(sorted(self.spiders))

    # -- structural operations -------------------------------------------

    def copy(self) -> "ZxDiagram":
        """An independent copy, next ids included."""
        d = ZxDiagram()
        d.spiders = {v: Spider(s.kind, s.phase) for v, s in self.spiders.items()}
        d.edges = dict(self.edges)
        d._incident = {v: set(ids) for v, ids in self._incident.items()}
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d._next_node = self._next_node
        d._next_edge = self._next_edge
        return d

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "spiders": [
                {"id": v, "kind": s.kind.value, "phase": str(s.phase)}
                for v, s in sorted(self.spiders.items())
            ],
            "edges": [
                {"a": e.a, "b": e.b, "kind": e.kind.value}
                for _, e in sorted(self.edges.items())
            ],
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ZxDiagram":
        d = cls()
        remap: dict[int, int] = {}
        for rec in doc["spiders"]:
            nid = d.add_spider(SpiderKind(rec["kind"]), Phase.parse(rec["phase"]))
            remap[rec["id"]] = nid
        for rec in doc["edges"]:
            d.add_edge(remap[rec["a"]], remap[rec["b"]], EdgeKind(rec["kind"]))
        d.inputs = [remap[v] for v in doc["inputs"]]
        d.outputs = [remap[v] for v in doc["outputs"]]
        return d

    @classmethod
    def from_json(cls, text: str) -> "ZxDiagram":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        """Z spiders as ellipses, X spiders as boxes, Hadamard edges dashed."""
        lines = ["graph zx {"]
        for v, s in sorted(self.spiders.items()):
            shape = "ellipse" if s.kind is SpiderKind.Z else "box"
            label = str(s.phase) if not s.phase.is_zero() else ""
            lines.append(f'  n{v} [shape={shape}, label="{label}"];')
        for _, e in sorted(self.edges.items()):
            style = " [style=dashed]" if e.kind is EdgeKind.HADAMARD else ""
            lines.append(f"  n{e.a} -- n{e.b}{style};")
        lines.append("}")
        return "\n".join(lines)


# The attributes a diagram's state is made of, which a view lacks.
_STATE = frozenset(vars(ZxDiagram()))


@dataclass(frozen=True, eq=False)
class _Record:
    """A memo's diagram, which nothing writes once it is stored, and the
    spiders whose phases each view of it sets (``phased``).  It hashes by
    identity, so a memo of what is built from it (``rewrite._rewrite``,
    ``mbqc._view_template``) keys on the record itself.  A record that
    keeps what its builder found besides subclasses this one."""

    diagram: ZxDiagram
    phased: tuple[int, ...]


class _View(ZxDiagram):
    """``record.diagram`` with ``phases`` (by spider id, over
    ``record.phased``), as a memo hands it out.  It holds no state of its
    own: its first read or write of any (``_STATE``) copies the record's
    diagram, sets the phases and makes it an ordinary :class:`ZxDiagram`.
    Python calls ``__getattr__`` only for a missing attribute, so an
    ordinary diagram pays nothing for this.  Until then a consumer may
    read the record rather than the state (``rewrite.simplify_mbqc``,
    ``mbqc.pattern_from_graph_like``)."""

    def __init__(self, record: _Record, phases: dict) -> None:
        vars(self).update(_record=record, _phases=phases)

    def __getattr__(self, name: str):
        if name not in _STATE:
            raise AttributeError(
                f"'ZxDiagram' object has no attribute {name!r}")
        self._build()
        return getattr(self, name)

    def __setattr__(self, name: str, value) -> None:
        self._build()
        setattr(self, name, value)

    def _build(self) -> None:
        state = vars(self)
        record, phases = state.pop("_record"), state.pop("_phases")
        object.__setattr__(self, "__class__", ZxDiagram)
        state.update(vars(record.diagram.copy()))
        for v, phase in phases.items():
            self.spiders[v].phase = phase

    def copy(self) -> "ZxDiagram":
        """Another view of the same record and phases."""
        return _View(self._record, self._phases)

    def __reduce_ex__(self, protocol):
        # copy, deepcopy and pickle take the state, not the record
        self._build()
        return self.__reduce_ex__(protocol)


def new_diagram(n_in: int, n_out: int) -> ZxDiagram:
    """A bare diagram whose boundary wires are phase-0 Z spiders.

    ``new_diagram(1, 1)`` is an identity wire; ``new_diagram(0, 0)`` is the
    empty scalar diagram with value 1.
    """
    d = ZxDiagram()
    ins = [d.add_spider(SpiderKind.Z, ZERO) for _ in range(n_in)]
    outs = [d.add_spider(SpiderKind.Z, ZERO) for _ in range(n_out)]
    for a, b in zip(ins, outs):
        d.add_edge(a, b, EdgeKind.PLAIN)
    d.inputs = ins
    d.outputs = outs
    return d
