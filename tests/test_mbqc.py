"""Measurement patterns: serialization, extraction, execution, lattice."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxdj import mbqc
from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram, new_diagram
from zxdj.errors import (
    NoFlowError,
    NotGraphLikeError,
    NotPromiseError,
    ReductionStuckError,
    WidthTooLargeError,
)
from zxdj.mbqc import (
    MeasurementPattern,
    dj_pattern_1q,
    dj_pattern_2q,
    dj_pattern_3q,
    find_gflow,
    lattice_pattern_3q,
    pattern_from_graph_like,
    pattern_to_diagram,
    patterns_isomorphic,
    reduce_lattice,
    run_postselected,
    run_sampled,
)
from zxdj.oracle import BooleanFunction, classify, enumerate_promise
from zxdj.phase import HALF_PI, PI, Phase, ZERO
from zxdj.tensor import equivalent_up_to_scalar, evaluate


def _triangle_pattern():
    angles = {0: ZERO, 1: HALF_PI, 2: PI}
    edges = {frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}
    return MeasurementPattern(angles, edges, [0, 1, 2], [2])


# -- representation ----------------------------------------------------------

def test_validate_guards():
    p = _triangle_pattern()
    p.validate()
    bad = MeasurementPattern({0: ZERO}, {frozenset((0, 1))}, [0], [0])
    with pytest.raises(NotGraphLikeError):
        bad.validate()
    bad = MeasurementPattern({0: ZERO, 1: ZERO}, set(), [0], [0])
    with pytest.raises(NotGraphLikeError):
        bad.validate()  # order misses a qubit
    bad = MeasurementPattern({0: PI}, set(), [0], [0], z_basis={0})
    with pytest.raises(NotGraphLikeError):
        bad.validate()  # z-basis qubit with a nonzero angle
    for readouts in ([0, 5], [[0]]):  # JSON may give an unhashable one
        bad = MeasurementPattern({0: ZERO}, set(), [0], readouts)
        with pytest.raises(NotGraphLikeError):
            bad.validate()  # readout names no qubit
    bad = MeasurementPattern({0: ZERO}, set(), [0], [0, 0])
    with pytest.raises(NotGraphLikeError):
        bad.validate()  # readout named twice


def test_json_round_trip_keeps_z_basis():
    p = MeasurementPattern(
        {0: ZERO, 1: Phase(1, 4), 2: ZERO},
        {frozenset((0, 1)), frozenset((1, 2))},
        [0, 1, 2], [2], z_basis={0})
    p2 = MeasurementPattern.from_json(p.to_json())
    assert p2.angles == p.angles
    assert p2.edges == p.edges
    assert p2.order == p.order
    assert p2.readouts == p.readouts
    assert p2.z_basis == {0}


def test_to_dot():
    dot = _triangle_pattern().to_dot()
    assert dot.startswith("graph pattern {") and dot.endswith("}")
    assert dot.count("--") == 3


# -- extraction from diagrams ------------------------------------------------

def test_pattern_from_graph_like():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.Z, ZERO)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    p = pattern_from_graph_like(d)
    assert p.angles == {a: HALF_PI, b: ZERO}
    assert p.edges == {frozenset((a, b))}


def test_pattern_from_graph_like_guards():
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(new_diagram(1, 1))  # open boundary
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.X)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(d)  # X spider
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z)
    b = d.add_spider(SpiderKind.Z)
    d.add_edge(a, b, EdgeKind.PLAIN)
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(d)  # plain edge
    d.remove_edge(0)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(d)  # parallel edge


def test_pattern_to_diagram_round_trip():
    p = _triangle_pattern()
    d = pattern_to_diagram(p)
    assert patterns_isomorphic(pattern_from_graph_like(d), p)


def test_pattern_to_diagram_z_basis_cap():
    p = MeasurementPattern({0: ZERO, 1: ZERO}, {frozenset((0, 1))},
                           [0, 1], [1], z_basis={0})
    d = pattern_to_diagram(p)
    # two pattern spiders plus one X cap on the z-basis qubit
    kinds = sorted(s.kind.value for s in d.spiders.values())
    assert kinds == ["X", "Z", "Z"]


def test_patterns_isomorphic_negative_cases():
    p = _triangle_pattern()
    q = _triangle_pattern()
    q.angles[1] = PI
    assert not patterns_isomorphic(p, q)
    assert patterns_isomorphic(p, q, with_angles=False)
    r = _triangle_pattern()
    r.edges.discard(frozenset((0, 2)))
    assert not patterns_isomorphic(p, r, with_angles=False)


# -- promise patterns --------------------------------------------------------

def test_dj_pattern_shapes():
    f = BooleanFunction(3, 0b01101001)
    p = dj_pattern_3q(f)
    assert len(p.qubits()) == 11
    assert len(p.edges) == 12
    assert len(p.readouts) == 3
    p2 = dj_pattern_2q(BooleanFunction(2, 6))
    assert len(p2.qubits()) == 6 and len(p2.edges) == 4
    p1 = dj_pattern_1q(BooleanFunction(1, 2))
    assert len(p1.qubits()) == 3 and len(p1.edges) == 2
    with pytest.raises(NotPromiseError):
        dj_pattern_3q(BooleanFunction(2, 6))


def test_run_postselected_verdicts_match_classification():
    for f in enumerate_promise(3)[::7]:  # spread of variants; full sweep in
        p = dj_pattern_3q(f)             # the acceptance suite
        assert run_postselected(p).verdict is classify(f)
    for f in enumerate_promise(2):
        assert run_postselected(dj_pattern_2q(f)).verdict is classify(f)
    for f in enumerate_promise(1):
        assert run_postselected(dj_pattern_1q(f)).verdict is classify(f)


# -- gflow --------------------------------------------------------------------

def _open_graph(n, pairs, outputs):
    angles = {q: ZERO for q in range(n)}
    return MeasurementPattern(angles, {frozenset(e) for e in pairs},
                              list(range(n)), sorted(outputs))


@st.composite
def open_graphs(draw, max_qubits=7):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    pairs = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    outputs = [q for q in range(n) if draw(st.booleans())]
    return _open_graph(n, pairs, outputs)


def _adjacency(p):
    adj = {q: set() for q in p.angles}
    for a, b in p.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _odd(adj, k):
    return {w for w in adj if len(adj[w] & set(k)) % 2}


def _assert_xy_gflow(p, g, layer):
    adj = _adjacency(p)
    outputs = set(p.readouts)
    assert set(layer) == set(p.angles)
    assert set(g) == set(p.angles) - outputs
    assert all(layer[q] == 0 for q in outputs)
    for v, k in g.items():
        assert v not in k                                   # XY plane
        assert v in _odd(adj, k)                            # g2
        assert all(layer[w] < layer[v] for w in k)          # g1
        assert all(layer[w] < layer[v] for w in _odd(adj, k) - {v})  # g3


def _gflow_exists_brute_force(p):
    """Some total order of the non-outputs, outputs last, where each v has a
    K among the later qubits with v in Odd(K) and no earlier qubit in it."""
    adj = _adjacency(p)
    outputs = set(p.readouts)
    inner = [q for q in p.qubits() if q not in outputs]
    for order in itertools.permutations(inner):
        if all(_correctable(adj, set(order[:i]), v,
                            list(order[i + 1:]) + sorted(outputs))
               for i, v in enumerate(order)):
            return True
    return False


def _correctable(adj, earlier, v, later):
    for r in range(1, len(later) + 1):
        for k in itertools.combinations(later, r):
            odd = _odd(adj, k)
            if v in odd and not odd & earlier:
                return True
    return False


@given(open_graphs())
@settings(max_examples=150, deadline=None)
def test_found_gflows_meet_the_xy_conditions(p):
    try:
        g, layer = find_gflow(p)
    except NoFlowError:
        if len(p.angles) <= 5:
            assert not _gflow_exists_brute_force(p)
        return
    _assert_xy_gflow(p, g, layer)


def test_gflow_of_promise_patterns():
    for p, depth in ((dj_pattern_1q(BooleanFunction(1, 0)), 2),
                     (dj_pattern_2q(BooleanFunction(2, 0)), 2),
                     (dj_pattern_3q(BooleanFunction(3, 0)), 4)):
        g, layer = find_gflow(p)
        _assert_xy_gflow(p, g, layer)
        assert max(layer.values()) == depth


def test_no_gflow():
    # a path read out in the middle: no end qubit can be corrected
    p = _open_graph(3, [(0, 1), (1, 2)], [1])
    with pytest.raises(NoFlowError):
        find_gflow(p)
    assert not _gflow_exists_brute_force(p)
    with pytest.raises(NoFlowError):  # z-basis spares would need Pauli flow
        find_gflow(lattice_pattern_3q(BooleanFunction(3, 0)))


# -- sampling ----------------------------------------------------------------

def test_run_sampled_agrees_and_is_deterministic():
    for f in enumerate_promise(2):
        p = dj_pattern_2q(f)
        out1 = run_sampled(p, seed=2024, shots=50)
        out2 = run_sampled(p, seed=2024, shots=50)
        assert out1.verdict is classify(f)
        assert out1.agreeing_shots == out2.agreeing_shots == 50
        assert out1.verdict is out2.verdict


def test_run_sampled_rejects_pattern_without_gflow():
    with pytest.raises(NoFlowError):
        run_sampled(lattice_pattern_3q(BooleanFunction(3, 0)), shots=1)
    with pytest.raises(NoFlowError):
        run_sampled(_open_graph(3, [(0, 1), (1, 2)], [1]), shots=1)


def test_run_sampled_ignores_listed_order():
    # the gflow fixes the measurement order, not ``order``
    f = BooleanFunction(1, 0b01)
    p = dj_pattern_1q(f)
    p.order = [0, 2, 1]
    out = run_sampled(p, shots=20)
    assert out.verdict is classify(f) and out.agreeing_shots == 20


def _star(leaves):
    return _open_graph(leaves + 1, [(0, q) for q in range(1, leaves + 1)],
                       range(1, leaves + 1))


def test_frontier_cap_raises_before_allocating(monkeypatch):
    widths = []
    real_signs = mbqc._cz_signs
    monkeypatch.setattr(mbqc, "_cz_signs", lambda w, pairs: (
        widths.append(w), real_signs(w, pairs))[1])
    out = run_sampled(_star(mbqc.MAX_FRONTIER - 1), shots=3)
    assert out.shots == 3 and max(widths) == mbqc.MAX_FRONTIER
    widths.clear()
    monkeypatch.setattr(mbqc, "_sample_block", None)  # must not be reached
    with pytest.raises(WidthTooLargeError):
        run_sampled(_star(30), shots=1000)
    assert widths == []


def test_run_sampled_in_blocks(monkeypatch):
    monkeypatch.setattr(mbqc, "_BLOCK_AMPLITUDES", 8)  # one 3-qubit shot each
    for f in enumerate_promise(2):
        out = run_sampled(dj_pattern_2q(f), shots=30)
        assert out.verdict is classify(f) and out.agreeing_shots == 30


def _constant_probability(p):
    """P(every readout 0), from the dense graph state: with a gflow every
    non-output outcome is a fair coin and the corrected readouts are
    distributed as on the all-zero branch, so this is 2^(non-outputs) times
    |<+_theta...|G>|^2."""
    n = len(p.angles)
    qubits = p.qubits()
    amp = 0j
    for bits in itertools.product((0, 1), repeat=n):
        x = dict(zip(qubits, bits))
        sign = (-1) ** sum(x[a] & x[b] for a, b in p.edges)
        phase = np.exp(-1j * sum(p.angles[q].radians for q in qubits if x[q]))
        amp += sign * phase
    amp /= 2 ** n
    return abs(amp) ** 2 * 2 ** (n - len(p.readouts))


def test_run_sampled_follows_born_probabilities():
    rng = random.Random(5)
    shots = 4000
    checked = 0
    while checked < 12:
        n = rng.randint(1, 6)
        pairs = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        outputs = [q for q in range(n) if rng.random() < 0.4]
        p = _open_graph(n, pairs, outputs)
        p.angles = {q: Phase(rng.randrange(8), 4) for q in range(n)}
        try:
            find_gflow(p)
        except NoFlowError:
            continue
        checked += 1
        out = run_sampled(p, seed=checked, shots=shots)
        constant = (out.agreeing_shots if out.verdict.value == "constant"
                    else shots - out.agreeing_shots)
        prob = _constant_probability(p)
        sigma = (prob * (1 - prob) / shots) ** 0.5
        assert abs(constant / shots - prob) <= 5 * sigma + 1e-9, (p, prob)


# -- lattice embedding -------------------------------------------------------

def test_lattice_pattern_shape():
    p = lattice_pattern_3q(BooleanFunction(3, 0b01101001))
    assert len(p.qubits()) == 36
    assert len(p.edges) == 2 * 6 * 5  # grid adjacency
    assert len(p.z_basis) == 12
    assert len(p.readouts) == 3
    with pytest.raises(NotPromiseError):
        lattice_pattern_3q(BooleanFunction(2, 6))


def test_reduce_lattice_reaches_compact_pattern():
    # sweep of variants; the full 72-case certification is in acceptance
    for f in enumerate_promise(3)[::11]:
        p = lattice_pattern_3q(f)
        reduced, steps = reduce_lattice(p)
        assert steps
        assert patterns_isomorphic(reduced, dj_pattern_3q(f)), f.table
        # the reduction preserves the closed diagram up to a nonzero scalar
        ok, _ = equivalent_up_to_scalar(
            evaluate(pattern_to_diagram(p)),
            evaluate(pattern_to_diagram(reduced)))
        assert ok, f.table


def test_reduce_lattice_verdict_agreement():
    for table in (0, 0b01101001, 0b11110000, 0b11111111):
        f = BooleanFunction(3, table)
        assert run_postselected(lattice_pattern_3q(f)).verdict is classify(f)


def test_reduce_lattice_empty_pattern():
    p = MeasurementPattern({}, set(), [], [])
    reduced, steps = reduce_lattice(p)
    assert reduced is p and steps == []


def test_reduce_lattice_stuck_on_tampered_angle():
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    p.angles[12] = PI  # grid position (3, 1) must hold a quarter turn
    with pytest.raises(ReductionStuckError):
        reduce_lattice(p)


def test_reduce_lattice_stuck_on_missing_spare():
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    gone = 12  # grid position (3, 1)
    del p.angles[gone]
    p.edges = {e for e in p.edges if gone not in e}
    p.order = [q for q in p.order if q != gone]
    with pytest.raises(ReductionStuckError):
        reduce_lattice(p)
