"""Measurement patterns: serialization, extraction, execution, lattice."""

import pytest

from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram, new_diagram
from zxdj.errors import (
    NotChainError,
    NotGraphLikeError,
    NotPromiseError,
    ReductionStuckError,
)
from zxdj.mbqc import (
    MeasurementPattern,
    dj_pattern_1q,
    dj_pattern_2q,
    dj_pattern_3q,
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


# -- sampling ----------------------------------------------------------------

def test_run_sampled_agrees_and_is_deterministic():
    for f in enumerate_promise(2):
        p = dj_pattern_2q(f)
        out1 = run_sampled(p, seed=2024, shots=50)
        out2 = run_sampled(p, seed=2024, shots=50)
        assert out1.verdict is classify(f)
        assert out1.agreeing_shots == out2.agreeing_shots == 50
        assert out1.verdict is out2.verdict


def test_run_sampled_rejects_non_chain():
    p = dj_pattern_3q(BooleanFunction(3, 0))
    with pytest.raises(NotChainError):
        run_sampled(p, shots=1)
    with pytest.raises(NotChainError):
        run_sampled(lattice_pattern_3q(BooleanFunction(3, 0)), shots=1)


def test_run_sampled_requires_chain_order():
    p = dj_pattern_1q(BooleanFunction(1, 0))
    p.order = [0, 2, 1]  # hops over the middle qubit
    with pytest.raises(NotChainError):
        run_sampled(p, shots=1)


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
