"""Measurement patterns: representation, extraction, execution, lattice.

A pattern is a cluster-state graph plus an XY-plane measurement angle per
qubit.  Post-selected execution contracts the equivalent closed diagram;
sampled execution (path graphs only) simulates the cluster state shot by
shot with adaptive byproduct corrections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .errors import (
    NotChainError,
    NotGraphLikeError,
    NotPromiseError,
    ReductionStuckError,
)
from .oracle import (
    BooleanFunction,
    Verdict,
    classify,
    one_qubit_spider_angles,
    phase_polynomial,
    two_qubit_spider_angles,
)
from .phase import HALF_PI, MINUS_HALF_PI, Phase, ZERO
from .rewrite import decouple_x_state, fuse_spiders, local_complement
from .tensor import collapse_floor, evaluate


@dataclass
class MeasurementPattern:
    """Cluster graph + measurement angles.

    ``angles`` maps qubit id to its XY-plane angle (0 = x basis).  Qubits in
    ``z_basis`` are instead measured in the computational basis (used by the
    lattice embedding's removed spares); their angle entry must be 0.
    """

    angles: dict[int, Phase]
    edges: set[frozenset]
    order: list[int]
    readouts: list[int]
    z_basis: set[int] = field(default_factory=set)

    def qubits(self) -> list[int]:
        return sorted(self.angles)

    def neighbors(self, q: int) -> set[int]:
        return {next(iter(e - {q})) for e in self.edges if q in e}

    def validate(self) -> None:
        for e in self.edges:
            if len(e) != 2:
                raise NotGraphLikeError(f"self-edge {set(e)}")
            if not e <= set(self.angles):
                raise NotGraphLikeError(f"edge {set(e)} references unknown qubit")
        qubits = self.qubits()
        if sorted(self.order) != qubits:
            raise NotGraphLikeError("order must enumerate every qubit once")
        unknown = [q for q in self.readouts if q not in qubits]
        if unknown:
            raise NotGraphLikeError(f"readouts {unknown} are not qubits")
        for q in self.z_basis:
            if not self.angles[q].is_zero():
                raise NotGraphLikeError(f"z-basis qubit {q} carries an angle")

    def to_json_dict(self) -> dict:
        qubits = []
        for q in self.qubits():
            rec = {"id": q, "angle": str(self.angles[q])}
            if q in self.z_basis:
                rec["basis"] = "z"
            qubits.append(rec)
        return {
            "qubits": qubits,
            "edges": sorted(sorted(e) for e in self.edges),
            "order": list(self.order),
            "readouts": list(self.readouts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementPattern":
        angles = {rec["id"]: Phase.parse(rec["angle"]) for rec in doc["qubits"]}
        z_basis = {rec["id"] for rec in doc["qubits"] if rec.get("basis") == "z"}
        edges = {frozenset(e) for e in doc["edges"]}
        return cls(angles, edges, list(doc["order"]), list(doc["readouts"]), z_basis)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementPattern":
        return cls.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        lines = ["graph pattern {"]
        for q in self.qubits():
            angle = self.angles[q]
            label = "z" if q in self.z_basis else (
                "" if angle.is_zero() else str(angle))
            lines.append(f'  q{q} [shape=ellipse, label="{label}"];')
        for e in sorted(sorted(x) for x in self.edges):
            lines.append(f"  q{e[0]} -- q{e[1]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class PatternOutcome:
    verdict: Verdict
    amplitude: complex
    shots: int = 0
    agreeing_shots: int = 0


def pattern_from_graph_like(d: ZxDiagram) -> MeasurementPattern:
    """Read a closed graph-like diagram as a measurement pattern."""
    if not d.is_closed():
        raise NotGraphLikeError("diagram has open boundary legs")
    for v, s in d.spiders.items():
        if s.kind is not SpiderKind.Z:
            raise NotGraphLikeError(f"node {v} is an X spider")
    edges = set()
    for e in d.edges.values():
        if e.kind is not EdgeKind.HADAMARD:
            raise NotGraphLikeError("plain edge in graph-like diagram")
        pair = frozenset((e.a, e.b))
        if pair in edges:
            raise NotGraphLikeError(f"parallel edge {set(pair)}")
        edges.add(pair)
    angles = {v: d.spiders[v].phase for v in d.spiders}
    order = sorted(angles)
    return MeasurementPattern(angles, edges, order, list(order[-1:]))


def pattern_to_diagram(p: MeasurementPattern) -> ZxDiagram:
    """Closed diagram of the fully measured (outcome-0) pattern.

    A z-basis qubit becomes a phase-0 spider capped by a plain-attached
    phase-0 X state, which is exactly the computational-basis projector.
    """
    p.validate()
    d = ZxDiagram()
    ids = {}
    for q in p.qubits():
        ids[q] = d.add_spider(SpiderKind.Z, p.angles[q])
    for e in p.edges:
        a, b = sorted(e)
        d.add_edge(ids[a], ids[b], EdgeKind.HADAMARD)
    for q in sorted(p.z_basis):
        cap = d.add_spider(SpiderKind.X, ZERO)
        d.add_edge(cap, ids[q], EdgeKind.PLAIN)
    return d


def patterns_isomorphic(p1: MeasurementPattern, p2: MeasurementPattern,
                        with_angles: bool = True) -> bool:
    def graph(p):
        g = nx.Graph()
        for q in p.qubits():
            g.add_node(q, angle=str(p.angles[q]) if with_angles else "")
        for e in p.edges:
            g.add_edge(*sorted(e))
        return g

    match = nx.algorithms.isomorphism.categorical_node_match("angle", "")
    return nx.is_isomorphic(graph(p1), graph(p2), node_match=match)


# Golden eleven-qubit pattern.  Node order: T1..T5 (top chain), M1..M3
# (middle chain), B1..B3 (bottom chain), ids 0..10.  The labels below
# were certified against the dense evaluator over all 72 oracle variants:
# the chain-end qubit T5 carries the three-way parity coefficient and B3
# the {1,2} parity coefficient.
_3Q_NAMES = ["T1", "T2", "T3", "T4", "T5", "M1", "M2", "M3", "B1", "B2", "B3"]
_3Q_EDGES = [
    ("T1", "T2"), ("T2", "T3"), ("T2", "B1"), ("T3", "M2"), ("T3", "T4"),
    ("T4", "T5"), ("T4", "B3"), ("M1", "M2"), ("M2", "M3"), ("M3", "B2"),
    ("B1", "B2"), ("B2", "B3"),
]


def dj_pattern_3q(f: BooleanFunction) -> MeasurementPattern:
    if f.n != 3:
        raise NotPromiseError("three-qubit pattern needs n = 3")
    pp = phase_polynomial(f)
    get = lambda *q: pp.coeffs.get(frozenset(q), ZERO)
    labels = {
        "T1": get(2), "T2": ZERO, "T3": get(0), "T4": ZERO, "T5": get(0, 1, 2),
        "M1": get(1), "M2": ZERO, "M3": get(0, 1),
        "B1": get(0, 2), "B2": ZERO, "B3": get(1, 2),
    }
    index = {name: i for i, name in enumerate(_3Q_NAMES)}
    angles = {index[name]: labels[name] for name in _3Q_NAMES}
    edges = {frozenset((index[a], index[b])) for a, b in _3Q_EDGES}
    order = sorted(angles)
    readouts = [index["T5"], index["M3"], index["B3"]]
    return MeasurementPattern(angles, edges, order, readouts)


def _chain_pattern(chains) -> MeasurementPattern:
    angles = {}
    edges = set()
    order = []
    readouts = []
    next_id = 0
    for chain in chains:
        ids = []
        for angle in chain:
            angles[next_id] = angle
            ids.append(next_id)
            next_id += 1
        for a, b in zip(ids, ids[1:]):
            edges.add(frozenset((a, b)))
        order.extend(ids)
        readouts.append(ids[-1])
    return MeasurementPattern(angles, edges, order, readouts)


def dj_pattern_2q(f: BooleanFunction) -> MeasurementPattern:
    """Two disjoint three-qubit chains measured at (0, x-angle, z-angle)."""
    a0, a1, a2, a3 = two_qubit_spider_angles(f)
    return _chain_pattern([(ZERO, a0, a1), (ZERO, a2, a3)])


def dj_pattern_1q(f: BooleanFunction) -> MeasurementPattern:
    x_angle, z_angle = one_qubit_spider_angles(f)
    return _chain_pattern([(ZERO, x_angle, z_angle)])


def run_postselected(p: MeasurementPattern) -> PatternOutcome:
    """Contract the all-outcomes-zero diagram; a surviving (nonzero) scalar
    means every measurement can succeed, i.e. the function is constant."""
    d = pattern_to_diagram(p)
    amplitude = evaluate(d).scalar()
    floor = collapse_floor(d)
    verdict = Verdict.CONSTANT if abs(amplitude) > floor else Verdict.BALANCED
    return PatternOutcome(verdict, amplitude)


def _chains_of(p: MeasurementPattern):
    """Split a path-graph pattern into measurement-ordered chains."""
    g = nx.Graph()
    g.add_nodes_from(p.qubits())
    for e in p.edges:
        g.add_edge(*sorted(e))
    position = {q: i for i, q in enumerate(p.order)}
    chains = []
    for comp in nx.connected_components(g):
        sub = g.subgraph(comp)
        degrees = sorted(d for _, d in sub.degree())
        if len(comp) > 1 and (degrees[-1] > 2 or degrees.count(1) != 2):
            raise NotChainError("pattern component is not a path")
        walk = sorted(comp, key=position.get)
        for a, b in zip(walk, walk[1:]):
            if not sub.has_edge(a, b):
                raise NotChainError(
                    "measurement order must follow the chain")
        chains.append(walk)
    chains.sort(key=lambda walk: position[walk[0]])
    return chains


def _measure_chain(angles, rng) -> int:
    """Simulate one shot of an adaptively measured linear cluster state.

    Returns the corrected readout bit of the final qubit.  The angle of
    qubit j is adapted by the two preceding raw outcomes: the immediate
    predecessor flips the sign (X byproduct), the one before adds pi
    (Z byproduct folded into the basis label).
    """
    k = len(angles)
    state = np.full((2,) * k, 2 ** (-k / 2), dtype=complex)
    for i in range(k - 1):  # CZ between consecutive qubits
        idx = [slice(None)] * k
        idx[i] = 1
        idx[i + 1] = 1
        state[tuple(idx)] *= -1
    outcomes = []
    for j in range(k):
        theta = angles[j].radians
        if j >= 1 and outcomes[j - 1]:
            theta = -theta
        if j >= 2 and outcomes[j - 2]:
            theta += math.pi
        # project qubit axis 0 (measured qubits are dropped as we go)
        bra0 = np.array([1, np.exp(-1j * theta)]) / math.sqrt(2)
        branch0 = np.tensordot(bra0, state, axes=([0], [0]))
        p0 = float(np.vdot(branch0, branch0).real)
        if rng.random() < p0:
            outcomes.append(0)
            state = branch0 / math.sqrt(max(p0, 1e-300))
        else:
            bra1 = np.array([1, -np.exp(-1j * theta)]) / math.sqrt(2)
            branch1 = np.tensordot(bra1, state, axes=([0], [0]))
            p1 = float(np.vdot(branch1, branch1).real)
            outcomes.append(1)
            state = branch1 / math.sqrt(max(p1, 1e-300))
    return outcomes[-1]


def run_sampled(p: MeasurementPattern, seed: int = 2024,
                shots: int = 1000) -> PatternOutcome:
    """Shot-by-shot execution of a chain pattern with byproduct correction.

    Each chain's corrected final outcome contributes one answer bit; a shot
    reads Constant exactly when every bit is zero.
    """
    p.validate()
    if p.z_basis:
        raise NotChainError("z-basis qubits are not supported in sampling")
    chains = _chains_of(p)
    rng = np.random.default_rng(seed)
    constant_shots = 0
    last_verdict = Verdict.CONSTANT
    for _ in range(shots):
        bits = [_measure_chain([p.angles[q] for q in walk], rng)
                for walk in chains]
        last_verdict = Verdict.CONSTANT if not any(bits) else Verdict.BALANCED
        if last_verdict is Verdict.CONSTANT:
            constant_shots += 1
    majority = Verdict.CONSTANT if constant_shots * 2 >= shots else Verdict.BALANCED
    agreeing = constant_shots if majority is Verdict.CONSTANT else shots - constant_shots
    return PatternOutcome(majority, complex(0), shots, agreeing)


# ---------------------------------------------------------------------------
# Rectangular 6x6 lattice embedding of the eleven-qubit pattern.
# Grid positions are (row, col), 1-based; qubit id = (row-1)*6 + (col-1).
# "z" marks a computational-basis spare (decoupled away); +-pi/2 spares are
# removed by neighborhood complementation.  Every complementation pays
# -+pi/2 onto the removed qubit's neighbors, so the surviving pattern
# qubits carry pre-compensations chosen so the residues cancel exactly:
#   - a lone pi/2 spare between two survivors leaves -pi/2 on both ends,
#   - a (spare, 0-spare) pair leaves +-pi/2 on the far end only,
#   - a triple of pi/2 spares (ends removed first) leaves no residue.
# ---------------------------------------------------------------------------

def _lattice_layout(pp):
    get = lambda *q: pp.coeffs.get(frozenset(q), ZERO)
    half = HALF_PI
    mhalf = MINUS_HALF_PI
    return {
        (1, 1): get(2), (1, 2): "z", (1, 3): "z", (1, 4): "z", (1, 5): "z",
        (1, 6): get(0, 1, 2),
        (2, 1): half, (2, 2): ZERO, (2, 3): mhalf, (2, 4): get(0),
        (2, 5): mhalf, (2, 6): mhalf,
        (3, 1): half, (3, 2): "z", (3, 3): "z", (3, 4): half,
        (3, 5): "z", (3, 6): half,
        (4, 1): half, (4, 2): "z", (4, 3): get(1), (4, 4): half,
        (4, 5): "z", (4, 6): half,
        (5, 1): half, (5, 2): "z", (5, 3): "z", (5, 4): get(0, 1),
        (5, 5): "z", (5, 6): half,
        (6, 1): get(0, 2) + half, (6, 2): ZERO, (6, 3): mhalf,
        (6, 4): half, (6, 5): half, (6, 6): get(1, 2) + half,
    }


_LATTICE_CARRIERS = {(1, 1), (1, 6), (2, 4), (4, 3), (5, 4), (6, 1), (6, 6)}

# Complementation order for reduce_lattice.  Within each spare run the order
# matters (ends of a triple before its middle; the +-pi/2 member of a pair
# before its 0 member); distinct runs are independent.
_LATTICE_REDUCTION_ORDER = [
    (3, 1), (5, 1), (4, 1),      # triple between (2,1) and (6,1)
    (3, 6), (5, 6), (4, 6),      # triple between (2,6) and (6,6)
    (2, 3), (2, 2),              # pair between (2,4) and (2,1)
    (2, 5),                      # single between (2,4) and (2,6)
    (3, 4),                      # single between (2,4) and (4,4)
    (6, 3), (6, 2),              # pair between (6,4) and (6,1)
    (6, 5),                      # single between (6,4) and (6,6)
]


def _grid_id(pos) -> int:
    r, c = pos
    return (r - 1) * 6 + (c - 1)


def lattice_pattern_3q(f: BooleanFunction) -> MeasurementPattern:
    if f.n != 3:
        raise NotPromiseError("lattice pattern needs n = 3")
    layout = _lattice_layout(phase_polynomial(f))
    angles = {}
    z_basis = set()
    for pos, entry in layout.items():
        q = _grid_id(pos)
        if entry == "z":
            angles[q] = ZERO
            z_basis.add(q)
        else:
            angles[q] = entry
    edges = set()
    for r in range(1, 7):
        for c in range(1, 7):
            if c < 6:
                edges.add(frozenset((_grid_id((r, c)), _grid_id((r, c + 1)))))
            if r < 6:
                edges.add(frozenset((_grid_id((r, c)), _grid_id((r + 1, c)))))
    order = sorted(angles)
    readouts = [_grid_id((1, 6)), _grid_id((5, 4)), _grid_id((6, 6))]
    return MeasurementPattern(angles, edges, order, readouts, z_basis)


def reduce_lattice(p: MeasurementPattern):
    """Shrink the lattice to its embedded eleven-qubit pattern.

    Computational-basis spares are decoupled away; the remaining spares are
    removed by neighborhood complementation in the fixed segment order of
    ``_LATTICE_REDUCTION_ORDER``, whose pre-compensated phases make every
    residue cancel.  Returns the reduced pattern and the rewrite trace.
    """
    if not p.angles:
        return p, []
    d = pattern_to_diagram(p)
    # pattern_to_diagram assigns diagram ids in ascending qubit order,
    # then one cap per z-basis qubit
    qubits = p.qubits()
    node_of = {q: i for i, q in enumerate(qubits)}
    cap_of = {q: len(qubits) + i for i, q in enumerate(sorted(p.z_basis))}
    steps = []
    for q in sorted(p.z_basis):
        step = decouple_x_state(d, cap_of[q])
        steps.append(step)
        # plain-attached caps produced on the Hadamard legs fuse back in
        for cap in step.after:
            (eid,) = d.edges_at(cap)
            steps.append(fuse_spiders(d, d.edges[eid].other(cap), cap))
    for pos in _LATTICE_REDUCTION_ORDER:
        q = _grid_id(pos)
        if q not in node_of or node_of[q] not in d.spiders:
            raise ReductionStuckError(f"expected spare qubit {q} is missing")
        v = node_of[q]
        if d.spiders[v].phase not in (HALF_PI, MINUS_HALF_PI):
            raise ReductionStuckError(
                f"spare qubit {q} stuck at angle {d.spiders[v].phase}")
        steps.append(local_complement(d, v))
    return pattern_from_graph_like(d), steps
