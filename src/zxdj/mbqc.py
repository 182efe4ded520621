"""Measurement patterns: representation, extraction, execution, lattice.

A pattern is a cluster-state graph plus an XY-plane measurement angle per
qubit.  Post-selected execution contracts the equivalent closed diagram;
sampled execution runs any pattern with an XY-plane gflow, all shots at
once, measuring in gflow order with adaptive byproduct corrections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .errors import (
    NoFlowError,
    NotGraphLikeError,
    NotPromiseError,
    ReductionStuckError,
    WidthTooLargeError,
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
        if len(set(self.readouts)) != len(self.readouts):
            raise NotGraphLikeError("readouts name a qubit twice")
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


def _adjacency(p: MeasurementPattern) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {q: set() for q in p.angles}
    for a, b in p.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _odd(adj: dict[int, set[int]], k) -> set[int]:
    """Odd(K): the qubits with an odd number of neighbours in K."""
    odd: set[int] = set()
    for q in k:
        odd ^= adj[q]
    return odd


def _solve_layer(adj, solved: list[int], todo: list[int]) -> dict:
    """Map every u in ``todo`` that has a K within ``solved`` whose Odd(K)
    meets ``todo`` in {u} alone to one such K.

    One GF(2) elimination of the todo x solved adjacency matrix M serves
    every u: each row holds its solved-column bits and, as a mask over the
    original rows, the row operations that made it.  M x = e_u is solvable
    iff no row reduced to zero took in row u.
    """
    column = {q: j for j, q in enumerate(solved)}
    rows = [[sum(1 << column[q] for q in adj[u] if q in column), 1 << i]
            for i, u in enumerate(todo)]
    pivots: list[int] = []
    for j in range(len(solved)):
        r = len(pivots)
        hit = next((k for k in range(r, len(rows)) if rows[k][0] >> j & 1), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        for k, row in enumerate(rows):
            if k != r and row[0] >> j & 1:
                row[0] ^= rows[r][0]
                row[1] ^= rows[r][1]
        pivots.append(j)
    unsolvable = 0
    for row in rows[len(pivots):]:
        unsolvable |= row[1]
    return {u: frozenset(solved[j] for j, row in zip(pivots, rows)
                         if row[1] >> i & 1)
            for i, u in enumerate(todo) if not unsolvable >> i & 1}


def find_gflow(p: MeasurementPattern):
    """XY-plane gflow ``(g, layer)`` of the pattern's open graph, with no
    inputs and the readouts as outputs.

    The layer-by-layer search of Mhalla & Perdrix ("Finding optimal flows
    efficiently", ICALP 2008): the outputs form layer 0, and layer d holds
    every unlayered qubit u with a K among the layered qubits whose Odd(K)
    meets the unlayered qubits in {u} alone; then g(u) = K.  Higher layers
    are measured first.  Raises ``NoFlowError`` when a layer comes out
    empty, and on computational-basis qubits, which would need Pauli flow.
    """
    p.validate()
    if p.z_basis:
        raise NoFlowError("z-basis qubits need Pauli flow, not XY gflow")
    adj = _adjacency(p)
    solved = sorted(set(p.readouts))
    layer = dict.fromkeys(solved, 0)
    g: dict[int, frozenset] = {}
    todo = [q for q in p.qubits() if q not in layer]
    depth = 0
    while todo:
        found = _solve_layer(adj, solved, todo)
        if not found:
            raise NoFlowError(f"no XY gflow: qubits {todo} cannot be corrected")
        depth += 1
        g.update(found)
        layer.update(dict.fromkeys(found, depth))
        solved += found
        todo = [q for q in todo if q not in found]
    return g, layer


# Widest open frontier run_sampled simulates: 2^12 amplitudes per shot.
MAX_FRONTIER = 12
# Amplitudes held in one state array; more shots than fit run in blocks.
_BLOCK_AMPLITUDES = 1 << 18


@dataclass
class _Step:
    """One measurement: add ``added`` qubits as |+>, multiply by the CZ
    ``signs`` (or none), then measure frontier bit ``bit``."""

    added: int
    signs: np.ndarray | None
    bit: int
    row: int            # the qubit's row in the signal array
    bras: np.ndarray    # <+_phi| weight on |1>, indexed by the signal
    x_rows: list[int]   # g(v): X byproduct on outcome 1
    z_rows: list[int]   # Odd(g(v)) \ {v}: Z byproduct on outcome 1
    readout: bool


def _cz_signs(width: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """(-1)^(number of CZ pairs both 1) over the 2^width frontier states;
    bit 0 is the most significant."""
    index = np.arange(1 << width)
    parity = np.zeros(1 << width, dtype=np.int64)
    for a, b in pairs:
        parity ^= (index >> (width - 1 - a)) & (index >> (width - 1 - b)) & 1
    return 1.0 - 2.0 * parity


def _sampling_plan(p: MeasurementPattern, g, layer) -> tuple[list[_Step], int]:
    """The measurement schedule of the gflow and the widest frontier.

    Non-outputs go in descending layer, then the readouts.  A qubit joins
    the frontier just before its first neighbour is measured; every edge
    is applied when its second end joins.  Raises ``WidthTooLargeError``
    before building any sign vector wider than ``MAX_FRONTIER``.
    """
    adj = _adjacency(p)
    row = {q: i for i, q in enumerate(p.qubits())}
    readouts = set(p.readouts)
    joined: set[int] = set()
    front: list[int] = []
    steps = []
    width = 0
    for v in sorted(g, key=lambda u: (-layer[u], u)) + list(p.readouts):
        pairs = []
        added = 0
        for q in (v, *sorted(adj[v])):
            if q not in joined:
                joined.add(q)
                pairs += [(front.index(r), len(front))
                          for r in sorted(adj[q]) if r in front]
                front.append(q)
                added += 1
        width = max(width, len(front))
        if len(front) > MAX_FRONTIER:
            raise WidthTooLargeError(
                f"sampling needs a {len(front)}-qubit frontier; "
                f"the cap is {MAX_FRONTIER}")
        c = p.angles[v].phase_factor()
        k = g.get(v, frozenset())
        steps.append(_Step(
            added, _cz_signs(len(front), pairs) if pairs else None,
            front.index(v), row[v],
            np.array([c.conjugate(), -c.conjugate(), c, -c]),
            [row[q] for q in sorted(k)],
            [row[q] for q in sorted(_odd(adj, k) - {v})],
            v in readouts))
        front.remove(v)
    return steps, width


def _squared_norms(b: np.ndarray) -> np.ndarray:
    """Per-shot squared norm of a contiguous (shots, ...) complex array."""
    flat = b.reshape(len(b), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _sample_block(steps: list[_Step], n_qubits: int, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Run ``shots`` shots of the schedule at once; True where a shot read
    some readout bit as 1 (a Balanced answer).

    The state is a (shots, 2^w) array over the w frontier qubits.  Byproduct
    signals are per-shot bits, 2 for X and 1 for Z, so the adapted angle
    (-1)^sX * theta + sZ * pi picks its bra weight from ``_Step.bras``.
    """
    state = np.ones((shots, 1), dtype=complex)
    signals = np.zeros((n_qubits, shots), dtype=np.uint8)
    balanced = np.zeros(shots, dtype=bool)
    for s in steps:
        if s.added:
            state = np.repeat(state, 1 << s.added, axis=1)
        if s.signs is not None:
            state *= s.signs
        halves = state.reshape(shots, 1 << s.bit, 2, -1)
        lifted = s.bras[signals[s.row]][:, None, None] * halves[:, :, 1]
        b0 = halves[:, :, 0] + lifted
        b1 = halves[:, :, 0] - lifted
        n0, n1 = _squared_norms(b0), _squared_norms(b1)
        one = rng.random(shots) >= n0 / (n0 + n1)
        state = np.where(one[:, None, None], b1, b0).reshape(shots, -1)
        state /= np.sqrt(np.where(one, n1, n0))[:, None]
        signals[s.x_rows] ^= one.astype(np.uint8) << 1
        signals[s.z_rows] ^= one.astype(np.uint8)
        if s.readout:
            balanced |= one
    return balanced


def run_sampled(p: MeasurementPattern, seed: int = 2024,
                shots: int = 1000) -> PatternOutcome:
    """Sample the adaptively corrected pattern ``shots`` times.

    Measures in the order of the XY gflow from :func:`find_gflow`, all shots
    at once (in blocks of ``_BLOCK_AMPLITUDES`` amplitudes), each outcome
    drawn from its shot's Born probability.  An outcome 1 at v pushes an X
    byproduct onto g(v) and a Z byproduct onto Odd(g(v)) \\ {v}
    (Browne, Kashefi, Mhalla & Perdrix, NJP 9, 250, 2007), which later
    measurements absorb into their angles; readouts are measured the same
    way.  A shot reads Constant exactly when every readout bit is zero.
    ``verdict`` is the majority, with ``agreeing_shots`` the shots behind it.
    Raises ``NoFlowError`` without a gflow and ``WidthTooLargeError`` when
    the frontier would exceed ``MAX_FRONTIER`` qubits.
    """
    g, layer = find_gflow(p)
    steps, width = _sampling_plan(p, g, layer)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_AMPLITUDES >> width)
    constant_shots = 0
    for start in range(0, shots, block):
        n = min(block, shots - start)
        balanced = _sample_block(steps, len(p.angles), n, rng)
        constant_shots += n - int(np.count_nonzero(balanced))
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
