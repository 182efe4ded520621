"""Measurement patterns: representation, extraction, execution, lattice.

A pattern is a cluster-state graph plus an XY-plane measurement angle per
qubit.  Post-selected execution sums a Clifford pattern's amplitude
exactly (:func:`_sum_exact`) and contracts any other pattern's closed
diagram.  Sampled execution (:func:`run_sampled`) runs any pattern with
an XY-plane gflow (:func:`find_gflow`): each shot is Constant with
probability |S|^2 * 2^-(n + r), for the sum S behind the post-selected
amplitude, and the count of Constant shots is drawn from that law.  numpy
is imported only by the contraction (``tensor.evaluate``), so the exact
routes load none of it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass
from types import MappingProxyType

from .diagram import EdgeKind, SpiderKind, ZxDiagram, _Record, _View
from .errors import (
    ArityMismatchError,
    NoFlowError,
    NotGraphLikeError,
    ReductionStuckError,
)
from .oracle import (
    BooleanFunction,
    Verdict,
    _READOUT_PARITIES,
    one_qubit_spider_angles,
    phase_polynomial,
    two_qubit_spider_angles,
)
from .phase import HALF_PI, MINUS_HALF_PI, Phase, ZERO
from .rewrite import MEMO_SHAPES, _carrier_sum, simplify_core
from .tensor import collapse_floor, evaluate


def _qubit_id(q) -> int:
    if isinstance(q, bool) or not isinstance(q, int):
        raise ValueError(f"qubit id {q!r} is not an int")
    return q


_Shape = namedtuple("_Shape", "qubits edges readouts z_basis")


@dataclass(frozen=True)
class MeasurementPattern:
    """Cluster graph + measurement angles: an immutable value, checked once
    when it is built, so no consumer checks it again.

    ``angles`` maps qubit id to its XY-plane angle (0 = x basis), as a
    read-only view of the pattern's own copy.  Qubits in ``z_basis`` are
    instead measured in the computational basis (used by the lattice
    embedding's removed spares); their angle entry must be 0.  ``edges``
    and ``z_basis`` are frozensets and ``readouts`` is a tuple; with the ids,
    sorted once, they are its ``_shape``, the key of each per-shape memo.
    Every qubit id, wherever it is named, is an int (a bool is not one).
    """

    angles: MappingProxyType[int, Phase]
    edges: frozenset[frozenset]
    readouts: tuple[int, ...]
    z_basis: frozenset[int] = frozenset()

    def __post_init__(self):
        angles = MappingProxyType(dict(self.angles))
        edges, readouts = frozenset(self.edges), tuple(self.readouts)
        z_basis = frozenset(self.z_basis)
        for q in itertools.chain(angles, readouts, z_basis, *edges):
            _qubit_id(q)
        for e in edges:
            if len(e) == 1:
                raise NotGraphLikeError(f"self-edge {set(e)}")
            if len(e) != 2:
                raise NotGraphLikeError(
                    f"edge {set(e)} joins {len(e)} qubits, not 2")
            if not e <= angles.keys():
                raise NotGraphLikeError(f"edge {set(e)} references unknown qubit")
        listed = tuple(sorted(angles))
        unknown = [q for q in readouts if q not in listed]
        if unknown:
            raise NotGraphLikeError(f"readouts {unknown} are not qubits")
        if len(set(readouts)) != len(readouts):
            raise NotGraphLikeError("readouts name a qubit twice")
        for q in z_basis:
            if q not in angles:
                raise NotGraphLikeError(f"z-basis id {q!r} is not a qubit")
            if not angles[q].is_zero():
                raise NotGraphLikeError(f"z-basis qubit {q} carries an angle")
        vars(self).update(angles=angles, edges=edges, readouts=readouts,
                          z_basis=z_basis,
                          _shape=_Shape(listed, edges, readouts, z_basis))

    def qubits(self) -> tuple[int, ...]:
        return self._shape.qubits

    def _sorted_edges(self) -> list[list[int]]:
        """The edges as ascending pairs in ascending order."""
        return sorted(map(sorted, self.edges))

    def to_json_dict(self) -> dict:
        qubits = []
        for q in self.qubits():
            rec = {"id": q, "angle": str(self.angles[q])}
            if q in self.z_basis:
                rec["basis"] = "z"
            qubits.append(rec)
        return {
            "qubits": qubits,
            "edges": self._sorted_edges(),
            "readouts": list(self.readouts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementPattern":
        """Load a pattern document; a legacy ``"order"`` key is ignored.
        Raises ``ValueError`` where a qubit id in the qubits, edges or
        readouts is not an int (a bool is not one), a ``"basis"`` is other
        than ``"z"``, a qubit record or an edge repeats, or ``"qubits"``,
        ``"edges"`` or ``"readouts"`` is not a list."""
        for key in ("qubits", "edges", "readouts"):
            if not isinstance(doc[key], list):
                raise ValueError(f"{key} must be a list")
        angles, z_basis, edges = {}, set(), set()
        for rec in doc["qubits"]:
            q = _qubit_id(rec["id"])
            if q in angles:
                raise ValueError(f"qubit {q} is listed twice")
            angles[q] = Phase.parse(rec["angle"])
            if "basis" in rec:
                if rec["basis"] != "z":
                    raise ValueError(f"qubit {q} has basis {rec['basis']!r}; "
                                     f"only \"z\" is known")
                z_basis.add(q)
        for e in doc["edges"]:
            pair = frozenset(map(_qubit_id, e))
            if pair in edges:
                raise ValueError(f"edge {sorted(pair)} is listed twice")
            edges.add(pair)
        return cls(angles, edges, doc["readouts"], z_basis)

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
        for a, b in self._sorted_edges():
            lines.append(f"  q{a} -- q{b} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class PatternOutcome:
    verdict: Verdict
    amplitude: complex
    shots: int = 0
    agreeing_shots: int = 0


def pattern_from_graph_like(d: ZxDiagram,
                            readouts: list[int] | None = None) -> MeasurementPattern:
    """Read a closed graph-like diagram as a measurement pattern.

    Qubit ids are the spider ids.  ``readouts`` names the readout qubits;
    without it the single highest id is read out, which need not leave the
    pattern an XY gflow (:func:`find_gflow`), so ``run_sampled`` may refuse it.
    A readout that is no int raises ``ValueError`` (a bool is not one), and
    the pattern's constructor refuses a repeated or unknown one.

    A view (``diagram._View``) is read through its record: the record's
    diagram is read once per readout choice, into the
    :func:`_view_template` whose carriers are the spiders the view sets,
    and :func:`_fill` gives them the view's phases.
    """
    if readouts is not None:
        readouts = tuple(map(_qubit_id, readouts))
    if d.__class__ is _View:
        return _fill(_view_template(d._record, readouts), d._phases)
    return _read(d, readouts)


@functools.lru_cache(MEMO_SHAPES)
def _view_template(record: _Record, readouts: tuple | None) -> _Template:
    """The template of ``record``'s diagram read out at ``readouts``, whose
    carriers are the spiders its views set."""
    return _Template(_read(record.diagram, readouts),
                     tuple([(v, ZERO, (v,)) for v in record.phased]))


def _read(d: ZxDiagram, readouts) -> MeasurementPattern:
    """The pattern of ``d`` (see :func:`pattern_from_graph_like`)."""
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
    if readouts is None:
        readouts = [max(angles)] if angles else []
    return MeasurementPattern(angles, edges, readouts)


def pattern_to_diagram(p: MeasurementPattern) -> ZxDiagram:
    """Closed diagram of the fully measured (outcome-0) pattern, with its
    edges added in ascending ``(a, b)`` order.

    A z-basis qubit becomes a phase-0 spider capped by a plain-attached
    phase-0 X state, which is exactly the computational-basis projector.
    """
    d = ZxDiagram()
    ids = {q: d.add_spider(SpiderKind.Z, p.angles[q]) for q in p.qubits()}
    for a, b in p._sorted_edges():
        d.add_edge(ids[a], ids[b], EdgeKind.HADAMARD)
    for q in sorted(p.z_basis):
        cap = d.add_spider(SpiderKind.X, ZERO)
        d.add_edge(cap, ids[q], EdgeKind.PLAIN)
    return d


def patterns_isomorphic(p1: MeasurementPattern,
                        p2: MeasurementPattern) -> bool:
    """Whether the two cluster graphs are isomorphic, matching how each
    qubit is measured (in the z basis, or in XY at its angle).

    Colour refinement runs on both graphs at once.  Where a colour still
    holds several qubits, one of them is given a colour of its own together
    with each candidate of the other pattern in turn, and refinement runs
    again (individualisation and backtracking: McKay & Piperno, J. Symb.
    Comput. 60, 2014).
    """
    n = len(p1.angles)
    if n != len(p2.angles) or len(p1.edges) != len(p2.edges):
        return False
    # one graph on 2n nodes: p1's qubits in id order, then p2's
    nbrs: list[list[int]] = []
    labels = []
    for p in (p1, p2):
        index = {q: len(nbrs) + i for i, q in enumerate(p.qubits())}
        nbrs.extend([] for _ in index)
        for a, b in p.edges:
            nbrs[index[a]].append(index[b])
            nbrs[index[b]].append(index[a])
        labels += [(q in p.z_basis, p.angles[q]) for q in index]
    return _extends(nbrs, n, _renumber(labels))


def _renumber(keys: list) -> list[int]:
    """Equal keys to equal colours 0, 1, ... in order of first appearance."""
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def _refine(nbrs: list[list[int]], n: int,
            colours: list[int]) -> list[int] | None:
    """Split colours by the sorted colours of each node's neighbours until
    no colour splits; None as soon as nodes [0, n) and [n, 2n) hold some
    colour a different number of times."""
    count = len(set(colours))
    while True:
        colours = _renumber([(c, tuple(sorted([colours[u] for u in nb])))
                             for c, nb in zip(colours, nbrs)])
        if sorted(colours[:n]) != sorted(colours[n:]):
            return None
        new_count = len(set(colours))
        if new_count == count:
            return colours
        count = new_count


def _extends(nbrs: list[list[int]], n: int, colours: list[int]) -> bool:
    """Whether some isomorphism from nodes [0, n) to [n, 2n) keeps
    ``colours``."""
    colours = _refine(nbrs, n, colours)
    if colours is None:
        return False
    sizes = Counter(colours[:n])
    colour = min((c for c, k in sizes.items() if k > 1), key=sizes.get,
                 default=None)
    if colour is None:
        # every colour is one node a side, which fixes the bijection; a
        # stable refinement already implies that it keeps every edge, and
        # the check keeps the verdict from resting on that argument alone
        image = {colours[w]: w for w in range(n, 2 * n)}
        mapped = [image[c] for c in colours[:n]]
        return all(mapped[u] in nbrs[mapped[v]]
                   for v in range(n) for u in nbrs[v])
    # the smallest such colour leaves the fewest candidates to try
    v = colours.index(colour)
    fresh = max(colours) + 1
    for w in range(n, 2 * n):
        if colours[w] == colour:
            trial = list(colours)
            trial[v] = trial[w] = fresh
            if _extends(nbrs, n, trial):
                return True
    return False


@dataclass(frozen=True)
class _Slot:
    """A carrier in a layout table: its angle is ``offset`` plus the value
    of ``source``."""

    source: object
    offset: Phase = ZERO


@dataclass(frozen=True)
class _Template:
    """A checked pattern whose carriers' angles are left open: :func:`_fill`
    sets each carrier to its offset plus the values of its sources.  The
    constructor raises ``ValueError`` unless each carrier is a qubit outside
    the z basis, so the pattern stays well formed at any carrier angles."""

    pattern: MeasurementPattern
    carriers: tuple[tuple[int, Phase, tuple], ...]  # qubit, offset, sources

    def __post_init__(self):
        bad = [q for q, _, _ in self.carriers
               if q not in self.pattern.angles or q in self.pattern.z_basis]
        if bad:
            raise ValueError(f"carriers {bad} name no qubit or a z-basis one")


def _template(layout: dict, edges, readout_sources) -> _Template:
    """The template of a layout table by qubit id, whose entries are fixed
    angles, slots, or "z" for a computational-basis qubit, and of its
    ``edges`` as id pairs.  The readouts are the carriers whose sources are
    ``readout_sources``, in that order."""
    angles, carriers, z_basis, carrier_of = {}, [], [], {}
    for q, entry in layout.items():
        if isinstance(entry, _Slot):
            carriers.append((q, entry.offset, (entry.source,)))
            carrier_of[entry.source] = q
        elif entry == "z":
            z_basis.append(q)
        angles[q] = entry if isinstance(entry, Phase) else ZERO
    return _Template(MeasurementPattern(
        angles, map(frozenset, edges),
        [carrier_of[s] for s in readout_sources], z_basis), tuple(carriers))


def _fill(t: _Template, values: dict) -> MeasurementPattern:
    """The pattern of template ``t`` with each carrier's angle given by
    ``rewrite._carrier_sum`` over ``values``: a phase polynomial's
    ``coeffs`` by parity set, spider angles by index, or a lattice's angles
    by qubit.  It shares the template's checked shape and checks nothing,
    since ``_Template`` checked its carriers."""
    angles = t.pattern.angles.copy()
    for q, offset, sources in t.carriers:
        angles[q] = _carrier_sum(offset, sources, values)
    p = object.__new__(MeasurementPattern)
    vars(p).update(vars(t.pattern), angles=MappingProxyType(angles))
    return p


def _parity(*bits: int, offset: Phase = ZERO) -> _Slot:
    """The slot of the phase polynomial's coefficient of parity ``bits``."""
    return _Slot(frozenset(bits), offset)


# Golden eleven-qubit pattern.  Ids 0..10 are T1..T5 (top chain), M1..M3
# (middle chain) and B1..B3 (bottom chain).  The labels below were
# certified against the dense evaluator over all 72 oracle variants: the
# chain-end qubit T5 carries the three-way parity coefficient and B3 the
# {1,2} parity coefficient.
_DJ_3Q = _template(
    {0: _parity(2), 1: ZERO, 2: _parity(0), 3: ZERO, 4: _parity(0, 1, 2),
     5: _parity(1), 6: ZERO, 7: _parity(0, 1),
     8: _parity(0, 2), 9: ZERO, 10: _parity(1, 2)},
    # T1-T2, T2-T3, T2-B1, T3-M2, T3-T4, T4-T5, T4-B3, M1-M2, M2-M3,
    # M3-B2, B1-B2, B2-B3
    [(0, 1), (1, 2), (1, 8), (2, 6), (2, 3), (3, 4), (3, 10), (5, 6),
     (6, 7), (7, 9), (8, 9), (9, 10)],
    _READOUT_PARITIES)
# The one- and two-bit patterns: chains of three qubits measured at
# (0, x-angle, z-angle), whose slots index the angles of
# oracle.one_qubit_spider_angles and two_qubit_spider_angles; each chain's
# end is read out.
_CHAIN_1Q = _template({0: ZERO, 1: _Slot(0), 2: _Slot(1)},
                      [(0, 1), (1, 2)], (1,))
_CHAIN_2Q = _template(
    {0: ZERO, 1: _Slot(0), 2: _Slot(1), 3: ZERO, 4: _Slot(2), 5: _Slot(3)},
    [(0, 1), (1, 2), (3, 4), (4, 5)], (1, 3))


def dj_pattern_3q(f: BooleanFunction) -> MeasurementPattern:
    """The eleven-qubit pattern of ``f``, filled into the template
    ``_DJ_3Q``."""
    if f.n != 3:
        raise ArityMismatchError("three-qubit pattern needs n = 3")
    return _fill(_DJ_3Q, phase_polynomial(f).coeffs)


def dj_pattern_2q(f: BooleanFunction) -> MeasurementPattern:
    """Two disjoint three-qubit chains measured at (0, x-angle, z-angle),
    filled into the template ``_CHAIN_2Q``."""
    return _fill(_CHAIN_2Q, dict(enumerate(two_qubit_spider_angles(f))))


def dj_pattern_1q(f: BooleanFunction) -> MeasurementPattern:
    """One three-qubit chain, filled into the template ``_CHAIN_1Q``."""
    return _fill(_CHAIN_1Q, dict(enumerate(one_qubit_spider_angles(f))))


def run_postselected(p: MeasurementPattern) -> PatternOutcome:
    """The all-outcomes-zero amplitude; a nonzero one means every
    measurement can succeed, i.e. the function is constant.

    A Clifford pattern (every angle a multiple of pi/2) is Constant exactly
    when :func:`_sum_exact`'s S is nonzero.  Any other pattern's closed
    diagram is contracted and judged against ``tensor.collapse_floor``;
    that raises ``WidthTooLargeError`` before building any tensor when the
    contraction plan peaks above ``tensor.MAX_PEAK_RANK``."""
    turns = _clifford_turns(p)
    if turns is not None:
        s = _sum_exact(p, turns)
        if s is None:
            return PatternOutcome(Verdict.BALANCED, complex(0))
        e, h = s
        return PatternOutcome(Verdict.CONSTANT, _amplitude(
            e, h + 2 * len(p.z_basis) - len(p.edges)))
    d = pattern_to_diagram(p)
    amplitude = complex(evaluate(d))
    floor = collapse_floor(d)
    verdict = Verdict.CONSTANT if abs(amplitude) > floor else Verdict.BALANCED
    return PatternOutcome(verdict, amplitude)


# The quarter turns of each multiple of pi/2: a normalized phase is one
# exactly when it is a key here.
_QUARTER_TURNS = {Phase(k, 2): Phase(k, 2).turns(2) for k in range(4)}


def _clifford_turns(p: MeasurementPattern) -> list[int] | None:
    """The quarter turns of the qubits in :func:`_prelude`'s order, or None
    if some angle is no multiple of pi/2, which builds no prelude."""
    if not all(map(_QUARTER_TURNS.__contains__, p.angles.values())):
        return None
    return list(map(_QUARTER_TURNS.__getitem__,
                    map(p.angles.__getitem__, _prelude(p._shape)[0])))


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(MEMO_SHAPES)
def _prelude(s: _Shape) -> tuple:
    """The qubits outside the z basis in ascending order, and each one's
    adjacency row among them as a bitset over their indices; a z-basis
    qubit has x_v = 0, which drops it and its edges from S."""
    qubits = [q for q in s.qubits if q not in s.z_basis]
    index = {q: i for i, q in enumerate(qubits)}
    adj = [0] * len(qubits)
    for q, r in s.edges:
        if q in index and r in index:
            u, v = index[q], index[r]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(qubits), tuple(adj)


def _sum_exact(p: MeasurementPattern,
               turns: list[int]) -> tuple[int, int] | None:
    """S of a valid pattern from its :func:`_clifford_turns`, which it
    consumes: ``(e, h)`` for S = omega^e * sqrt(2)^h, omega = e^(i pi/4),
    or None for S = 0.

    With l_v = angle_v / (pi/2) and x_v = 0 on z-basis qubits, the closed
    diagram of :func:`pattern_to_diagram` is S * 2^|Z| * 2^(-|E|/2) for
    S = sum over the free bits x of i^(sum l_v x_v) * (-1)^(sum over edges
    uv of x_u x_v).  S is summed out one bit at a time on the bitset rows
    of :func:`_prelude`, in O(degree) row operations per step (Clifford ZX
    simplification in integer arithmetic: Duncan, Kissinger, Perdrix & van
    de Wetering, Quantum 4, 279, 2020; Amy, arXiv:1805.06908):

    - odd l_v: x_v sums to (1 + i) or (1 - i) times i^(-l_v * parity of
      the neighbours), so each neighbour's l shifts by -l_v and the
      neighbourhood is complemented (local complementation);
    - even l_v with a neighbour w: x_v sums to 2 times the constraint that
      the neighbours' parity is l_v / 2, which fixes x_w as a parity of the
      other neighbours (a pivot) and removes v and w;
    - even l_v with no neighbour: 2 for l_v = 0, and S = 0 for l_v = 2.
    """
    qubits, rows = _prelude(p._shape)
    adj, live = list(rows), [True] * len(qubits)
    e = h = 0
    for v in range(len(qubits)):
        if not live[v]:
            continue
        live[v] = False
        nbrs, lv = adj[v], turns[v]
        if lv & 1:
            e += 1 - (lv & 2)  # 1 +- i = sqrt(2) * omega^(+-1)
            h += 1
            rest = nbrs
            while rest:
                u = (low := rest & -rest).bit_length() - 1
                rest ^= low
                adj[u] ^= nbrs ^ low ^ (1 << v)
                turns[u] = (turns[u] - lv) % 4
        elif nbrs:
            h += 2
            w = (nbrs & -nbrs).bit_length() - 1
            live[w] = False
            lw, c = turns[w], lv >> 1
            m = nbrs ^ (1 << w)          # v's other neighbours
            t = adj[w] ^ (1 << v)        # w's other neighbours
            gone = ~((1 << v) | (1 << w))
            # x_w = c + sum over m of x_u (mod 2): l_w x_w turns into
            # c l_w + (-1)^c l_w (sum - 2 * pairs), and 2 x_w x_t into
            # 2 c x_t + 2 x_t x_u over u in m, where x_t x_t = x_t
            e += 2 * c * lw
            shift = -lw if c else lw
            rest = m | t
            while rest:
                x = (low := rest & -rest).bit_length() - 1
                rest ^= low
                row = adj[x] & gone
                if m & low:
                    turns[x] += shift
                    row ^= t
                    if lw & 1:
                        row ^= m ^ low
                if t & low:
                    turns[x] += 2 * c
                    row ^= m
                    if m & low:
                        turns[x] += 2
                turns[x] %= 4
                adj[x] = row
        elif lv:
            return None
        else:
            h += 2
    return e % 8, h


def _amplitude(e: int, h: int) -> complex:
    """omega^e * sqrt(2)^h for e in 0..7 as one complex number, written as
    i^(e >> 1) * (1 + i)^(e & 1) * sqrt(2)^(h - (e & 1))."""
    unit = (1, 1j, -1, -1j)[e >> 1] * (1 + 1j if e & 1 else 1)
    h -= e & 1  # 1 + i holds one sqrt(2)
    return complex(unit) * math.ldexp(math.sqrt(2) if h & 1 else 1.0, h >> 1)


def _solve_layer(rows: tuple, solved_mask: int, todo: list[int]) -> dict:
    """Map every index u in ``todo`` that has a K within ``solved_mask``
    whose Odd(K) meets ``todo`` in {u} alone to one such K, as a bitset.

    One GF(2) elimination of the todo x solved adjacency matrix M serves
    every u: each row holds its solved-column bits and, as a mask over the
    original rows, the row operations that made it.  Each row that is not
    zero by its turn pivots on its lowest bit.  M x = e_u is solvable iff no
    row reduced to zero took in row u, and then x is the pivots whose rows
    took in row u.
    """
    matrix = [[rows[u] & solved_mask, 1 << i] for i, u in enumerate(todo)]
    pivots = []
    for row in matrix:
        if row[0]:
            j = (row[0] & -row[0]).bit_length() - 1
            for other in matrix:
                if other is not row and other[0] >> j & 1:
                    other[0] ^= row[0]
                    other[1] ^= row[1]
            pivots.append((j, row))
    unsolvable = 0
    for bits, made in matrix:
        if not bits:
            unsolvable |= made
    return {u: sum(1 << j for j, row in pivots if row[1] >> i & 1)
            for i, u in enumerate(todo) if not unsolvable >> i & 1}


def find_gflow(p: MeasurementPattern):
    """XY-plane gflow ``(g, layer)`` of the pattern's open graph, with no
    inputs and the readouts as outputs.

    The layer-by-layer search of Mhalla & Perdrix ("Finding optimal flows
    efficiently", ICALP 2008): the outputs form layer 0, and layer d holds
    every unlayered qubit u with a K among the layered qubits whose Odd(K)
    meets the unlayered qubits in {u} alone; then g(u) = K.  Higher layers
    are measured first.  Raises ``NoFlowError`` when a layer comes out
    empty, and on z-basis qubits, which would need Pauli flow.  The search
    (:func:`_gflow`) reads only the pattern's shape and is memoized by it;
    each call returns fresh dicts.
    """
    g, layer = _gflow(p._shape)
    return dict(g), dict(layer)


@functools.lru_cache(MEMO_SHAPES)
def _gflow(s: _Shape) -> tuple[dict, dict]:
    """:func:`find_gflow` of the patterns of shape ``s``, on
    :func:`_prelude`'s bitset rows."""
    if s.z_basis:
        raise NoFlowError("z-basis qubits need Pauli flow, not XY gflow")
    qubits, rows = _prelude(s)
    outputs = set(s.readouts)
    layer = dict.fromkeys(sorted(outputs), 0)
    g: dict[int, frozenset] = {}
    solved = sum(1 << i for i, q in enumerate(qubits) if q in outputs)
    todo = [i for i, q in enumerate(qubits) if q not in outputs]
    depth = 0
    while todo:
        found = _solve_layer(rows, solved, todo)
        if not found:
            raise NoFlowError(f"no XY gflow: qubits "
                              f"{[qubits[i] for i in todo]} cannot be corrected")
        depth += 1
        for u, k in found.items():
            g[qubits[u]] = frozenset(qubits[j] for j in _bits(k))
            layer[qubits[u]] = depth
            solved |= 1 << u
        todo = [i for i in todo if i not in found]
    return g, layer


# The seed of a run_sampled call that names none, and the CLI's default.
DEFAULT_SEED = 2024
# run_sampled draws its count in blocks of at most _BLOCK_SHOTS shots, one
# bit each per word.  Each block draws its own words, so the block size is
# part of what a seed's output depends on.
_BLOCK_SHOTS = 1 << 18


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int, or ``ValueError`` when it is no integer
    (a bool is not one; a numpy integer is) or is below ``least``.  A numpy
    bool exists only once numpy is loaded, so this loads none."""
    np = sys.modules.get("numpy")
    bools = (bool,) if np is None else (bool, np.bool_)
    if isinstance(value, bools) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value}")
    return value


def run_sampled(p: MeasurementPattern, seed: int = DEFAULT_SEED,
                shots: int = 1000) -> PatternOutcome:
    """Sample the adaptively corrected pattern ``shots`` times.

    The pattern needs an XY gflow (:func:`find_gflow`).  An outcome 1 at v
    pushes an X byproduct onto g(v) and a Z byproduct onto Odd(g(v)) \\ {v}
    (Browne, Kashefi, Mhalla & Perdrix, NJP 9, 250, 2007), which later
    measurements absorb into their angles; readouts are measured the same
    way.  A shot reads Constant exactly when every readout bit is zero.
    With a gflow every branch of non-output outcomes is equally likely and
    the corrected readouts are distributed as on the all-zero branch, so
    each shot is Constant with probability |S|^2 * 2^-(n + r), for the sum
    S behind the post-selected amplitude, n qubits and r readouts
    (:func:`_constant_law`), and the count is drawn from that law with
    ``random.Random(seed)`` (:func:`_drawn_count`).  ``verdict`` is the
    majority, and a tie reads Constant; ``agreeing_shots`` counts the shots
    behind the verdict.  Both counts are Python ints.

    The gflow search is memoized by the pattern's shape, all that it reads
    (:func:`_gflow`).  Raises ``NoFlowError`` without a gflow,
    and ``WidthTooLargeError``, before building any tensor, when a pattern
    with an angle that is no multiple of pi/2 would contract with a peak
    rank above ``tensor.MAX_PEAK_RANK``.  Raises ``ValueError`` when
    ``shots`` or ``seed`` is no integer (a bool or None is not one; a numpy
    integer is), when ``shots`` is below 1, since no shot gives no
    majority, and when ``seed`` is negative.  Every run is seeded, so a
    repeat call gives the same output.
    """
    shots = _integer("shots", shots, 1)
    seed = _integer("seed", seed, 0)
    _gflow(p._shape)
    constant_shots = _drawn_count(*_constant_law(p), seed, shots)
    majority = Verdict.CONSTANT if constant_shots * 2 >= shots else Verdict.BALANCED
    agreeing = constant_shots if majority is Verdict.CONSTANT else shots - constant_shots
    return PatternOutcome(majority, complex(0), shots, agreeing)


def _constant_law(p: MeasurementPattern) -> tuple[int, int]:
    """P(Constant) of a valid gflow pattern as ``(num, bits)``, for
    P = num / 2^bits exactly.

    A Clifford pattern's S = omega^e * sqrt(2)^h (:func:`_sum_exact`) gives
    |S|^2 = 2^h, so P = 2^-(n + r - h), or 0 when S = 0, with no tensor and
    no numpy.  Any other pattern's closed diagram is contracted, as
    :func:`run_postselected` does; its amplitude is S * 2^(-|E|/2), so
    P = |amplitude|^2 * 2^(|E| - n - r), and the float's ``as_integer_ratio``
    gives num / 2^bits.  A P that round-off lifts above 1 draws every shot
    Constant (:func:`_drawn_count`)."""
    exponent = len(p.angles) + len(p.readouts)
    turns = _clifford_turns(p)
    if turns is not None:
        s = _sum_exact(p, turns)
        if s is None:
            return 0, 0
        return 1, exponent - s[1]
    amplitude = complex(evaluate(pattern_to_diagram(p)))
    num, den = math.ldexp(abs(amplitude) ** 2,
                          len(p.edges) - exponent).as_integer_ratio()
    return num, den.bit_length() - 1


def _drawn_count(num: int, bits: int, seed: int, shots: int) -> int:
    """A Binomial(shots, num / 2^bits) count of Constant shots, drawn from
    ``random.Random(seed)``.

    In blocks of at most ``_BLOCK_SHOTS`` shots, one word of
    ``getrandbits(block)`` is drawn per binary digit of num / 2^bits, most
    significant first, so bit j of the words spells shot j's uniform number
    in [0, 2^bits), and the shot is Constant where that number is below
    ``num``.  All shots of a block are compared at once: ``equal`` holds the
    shots whose digits so far are num's, and ``below`` those already
    smaller.  Every block draws all ``bits`` words, so with num = 1 and
    bits = d a shot is Constant where its bit is 0 in all d words.  P >= 1
    returns ``shots`` without seeding a generator, and P = 0 returns 0."""
    if num >> bits:
        return shots
    if not num:
        return 0
    rng = random.Random(seed)
    digits = [num >> k & 1 for k in reversed(range(bits))]
    constant_shots = 0
    for start in range(0, shots, _BLOCK_SHOTS):
        n = min(_BLOCK_SHOTS, shots - start)
        below, equal = 0, (1 << n) - 1
        for digit in digits:
            word = rng.getrandbits(n)
            if digit:
                below |= equal & ~word
                equal &= word
            else:
                equal &= ~word
        constant_shots += below.bit_count()
    return constant_shots


# ---------------------------------------------------------------------------
# Rectangular 6x6 lattice embedding of the eleven-qubit pattern.
# Grid positions are (row, col), 1-based; qubit id = (row-1)*6 + (col-1).
# "z" marks a computational-basis spare (decoupled away); the other spares
# are removed by the general simplifier (reduce_lattice).  Removing a spare
# pays its phase onto its neighbors, so the surviving pattern qubits carry
# pre-compensations chosen so the residues cancel exactly:
#   - a lone pi/2 spare between two survivors leaves -pi/2 on both ends,
#   - a (spare, 0-spare) pair leaves +-pi/2 on the far end only,
#   - a triple of pi/2 spares leaves no residue.
# ---------------------------------------------------------------------------

def _grid_id(pos) -> int:
    r, c = pos
    return (r - 1) * 6 + (c - 1)


# Each grid position's angle, in row-major order, or "z" for a
# computational-basis spare.  The grid is the same for every variant; only
# the carrier angles vary.
_LATTICE_LAYOUT = {
    (1, 1): _parity(2), (1, 2): "z", (1, 3): "z", (1, 4): "z", (1, 5): "z",
    (1, 6): _parity(0, 1, 2),
    (2, 1): HALF_PI, (2, 2): ZERO, (2, 3): MINUS_HALF_PI, (2, 4): _parity(0),
    (2, 5): MINUS_HALF_PI, (2, 6): MINUS_HALF_PI,
    (3, 1): HALF_PI, (3, 2): "z", (3, 3): "z", (3, 4): HALF_PI,
    (3, 5): "z", (3, 6): HALF_PI,
    (4, 1): HALF_PI, (4, 2): "z", (4, 3): _parity(1), (4, 4): HALF_PI,
    (4, 5): "z", (4, 6): HALF_PI,
    (5, 1): HALF_PI, (5, 2): "z", (5, 3): "z", (5, 4): _parity(0, 1),
    (5, 5): "z", (5, 6): HALF_PI,
    (6, 1): _parity(0, 2, offset=HALF_PI), (6, 2): ZERO,
    (6, 3): MINUS_HALF_PI, (6, 4): HALF_PI, (6, 5): HALF_PI,
    (6, 6): _parity(1, 2, offset=HALF_PI),
}
_LATTICE = _template(
    {_grid_id(pos): entry for pos, entry in _LATTICE_LAYOUT.items()},
    [(_grid_id((r, c)), _grid_id(nbr)) for r, c in _LATTICE_LAYOUT
     for nbr in ((r, c + 1), (r + 1, c)) if nbr in _LATTICE_LAYOUT],
    _READOUT_PARITIES)
# The parameter carriers, which reduce_lattice protects.
_LATTICE_CARRIER_IDS = frozenset(q for q, _, _ in _LATTICE.carriers)


def lattice_pattern_3q(f: BooleanFunction) -> MeasurementPattern:
    """The 6x6 lattice embedding of the eleven-qubit pattern of ``f``,
    filled into the template ``_LATTICE``, which ``_LATTICE_LAYOUT``
    gives."""
    if f.n != 3:
        raise ArityMismatchError("lattice pattern needs n = 3")
    return _fill(_LATTICE, phase_polynomial(f).coeffs)


@functools.lru_cache(MEMO_SHAPES)
def _reduction(s: _Shape, spare_angles: tuple) -> tuple[_Template, tuple]:
    """The reduced pattern's template, whose sources are lattice carrier
    qubits, and the rewrite trace of the pattern of shape ``s`` whose qubits
    outside the carriers take ``spare_angles`` in order and whose carriers
    are at angle 0; or ``ReductionStuckError`` naming stuck spiders."""
    spares = iter(spare_angles)
    qubits = s.qubits
    p = MeasurementPattern(
        {q: ZERO if q in _LATTICE_CARRIER_IDS else next(spares)
         for q in qubits}, s.edges, s.readouts, s.z_basis)
    d = pattern_to_diagram(p)  # diagram ids in ascending qubit order
    steps, formulas = simplify_core(
        d, {v for v, q in enumerate(qubits) if q in _LATTICE_CARRIER_IDS})
    survivors = {v for v, _, _ in formulas}
    stuck = sorted(v for v in d.spiders
                   if v not in survivors and d.degree(v) <= 2)
    if stuck:
        raise ReductionStuckError(
            f"spiders {stuck} outside the carriers survive with degree <= 2")
    r = pattern_from_graph_like(d, [qubits.index(q) for q in s.readouts])
    return _Template(r, tuple((v, const, tuple(qubits[c] for c in inputs))
                              for v, const, inputs in formulas)), tuple(steps)


def reduce_lattice(p: MeasurementPattern):
    """Shrink the lattice to its embedded eleven-qubit pattern by the
    simplifier core, with the parameter carriers protected.  Returns the
    reduced pattern, in the diagram's ids (qubit ranks), with the lattice's
    readouts, and a fresh list of the rewrite trace.  Raises
    ``ReductionStuckError`` when a spider holding no carrier (the survivors
    ``simplify_core``'s formulas name hold them) survives with degree at
    most 2, as a missing spare or a tampered angle can leave.

    The reduction (:func:`_reduction`) is built from the pattern's shape
    and its non-carrier angles in qubit order alone, with the carriers at
    angle 0, and memoized by them: no rule reads a carrier's angle, so all
    72 variants share a key.  It stores the reduced pattern as a template
    whose carriers are the survivors the lattice carriers fused into, and
    :func:`_fill` sets each to a stored constant plus their angles."""
    template, steps = _reduction(p._shape, tuple([
        p.angles[q] for q in p.qubits() if q not in _LATTICE_CARRIER_IDS]))
    return _fill(template, p.angles), list(steps)
