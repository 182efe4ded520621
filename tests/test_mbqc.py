"""Measurement patterns: serialization, extraction, execution, lattice."""

import cmath
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zxdj
from zxdj import circuit, cli, mbqc, rewrite, tensor
from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram, _View, new_diagram
from zxdj.errors import (
    ArityMismatchError,
    NoFlowError,
    NotGraphLikeError,
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
from zxdj.circuit import to_zx_tracked
from zxdj.oracle import (
    BooleanFunction, Verdict, classify, enumerate_promise, oracle_circuit_3q,
    phase_polynomial)
from zxdj.phase import HALF_PI, MINUS_HALF_PI, PI, Phase, QUARTER_PI, ZERO
from zxdj.rewrite import (
    MEMO_SHAPES, decouple_x_state, fuse_spiders, local_complement,
    simplify_mbqc)
from zxdj.tensor import collapse_floor, equivalent_up_to_scalar, evaluate


def _triangle_pattern():
    angles = {0: ZERO, 1: HALF_PI, 2: PI}
    edges = {frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}
    return MeasurementPattern(angles, edges, [2])


# -- representation ----------------------------------------------------------

def _reangled(p, changes):
    """``p`` rebuilt through its constructor with the angles of
    ``changes`` over its own."""
    return replace(p, angles={**p.angles, **changes})


# Malformed patterns as constructor arguments, by id, each with the message
# the constructor refuses it with.  They stay arguments: a malformed
# pattern cannot be built, at collection time or any other.
_MALFORMED = {
    "edge-to-no-qubit": (({0: ZERO}, {frozenset((0, 1))}, [0]),
                         "edge {0, 1} references unknown qubit"),
    "self-edge": (({0: ZERO}, {frozenset((0,))}, [0]), "self-edge {0}"),
    "hyperedge": ((dict.fromkeys(range(3), ZERO), {frozenset((0, 1, 2))},
                   [0]), "edge {0, 1, 2} joins 3 qubits, not 2"),
    "readout-of-no-qubit": (({0: ZERO}, set(), [0, 5]),
                            "readouts [5] are not qubits"),
    # the angles of a malformed pattern are never read
    "readout-of-no-qubit-at-a-quarter-turn": (
        ({0: QUARTER_PI}, set(), [5]), "readouts [5] are not qubits"),
    "repeated-readout": (({0: ZERO}, set(), [0, 0]),
                         "readouts name a qubit twice"),
    "z-basis-angle": (({0: PI}, set(), [0], {0}),
                      "z-basis qubit 0 carries an angle"),
    "z-basis-id-of-no-qubit": (({0: ZERO}, set(), [0], {5}),
                               "z-basis id 5 is not a qubit"),
}


# Constructor arguments that name a qubit by other than an int (a bool is
# not one), each with the id the constructor refuses.  JSON may give an
# unhashable readout.
_NOT_INT_IDS = {
    "unhashable-readout": (({0: ZERO}, set(), [[0]]), [0]),
    "bool-qubit": (({True: ZERO}, set(), []), True),
    "bool-readout": (({0: ZERO, 1: ZERO}, [frozenset((0, 1))], [True]),
                     True),
    "bool-edge-end": (({0: ZERO, 1: ZERO}, [frozenset((0, True))], []), True),
    "bool-z-basis-id": (({0: ZERO, 1: ZERO}, set(), [0], {True}), True),
    "str-qubit": (({"0": ZERO}, set(), []), "0"),
}


@pytest.mark.parametrize("case", [*_MALFORMED, *_NOT_INT_IDS])
def test_the_constructor_refuses_a_malformed_pattern(case):
    if case in _MALFORMED:
        (args, message), error = _MALFORMED[case], NotGraphLikeError
    else:
        args, q = _NOT_INT_IDS[case]
        message, error = f"qubit id {q!r} is not an int", ValueError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        MeasurementPattern(*args)


def test_a_pattern_to_json_writes_from_json_reads_back():
    p = MeasurementPattern({0: ZERO, 1: HALF_PI}, [frozenset((0, 1))], [1],
                           {0})
    assert MeasurementPattern.from_json(p.to_json()) == p
    # JSON would write a bool id as true, which the reader refuses, so the
    # constructor refuses it first
    for case in ("bool-readout", "bool-qubit"):
        with pytest.raises(ValueError, match="^qubit id True is not an int$"):
            MeasurementPattern(*_NOT_INT_IDS[case][0])


def test_z_basis_id_that_names_no_qubit_is_not_graph_like():
    # the constructor refuses it, also as an edit of a good pattern, so
    # run_postselected never sees one
    with pytest.raises(NotGraphLikeError):
        MeasurementPattern({0: ZERO}, set(), [0], {5})
    good = MeasurementPattern({0: ZERO}, set(), [0])
    with pytest.raises(NotGraphLikeError):
        run_postselected(replace(good, z_basis={5}))


def _assert_refuses_edits(p):
    """Try to edit each container of ``p``; each edit must raise."""
    edits = (lambda: p.angles.__setitem__(min(p.angles), PI),
             lambda: p.edges.clear(), lambda: p.readouts.append(0),
             lambda: p.z_basis.add(0))
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()


def test_a_built_pattern_refuses_edits():
    angles, edges = {0: ZERO, 1: HALF_PI}, {frozenset((0, 1))}
    p = MeasurementPattern(angles, edges, [1])
    with pytest.raises(FrozenInstanceError):
        p.angles = {}
    with pytest.raises(FrozenInstanceError):
        p.readouts = (0,)
    with pytest.raises(TypeError):
        p.angles[0] = PI
    with pytest.raises(AttributeError):
        p.edges.add(frozenset((1, 2)))
    _assert_refuses_edits(p)
    # the pattern holds its own copy of the angles it was given
    angles[0] = PI
    edges.clear()
    assert p.angles == {0: ZERO, 1: HALF_PI} and p.edges
    assert (type(p.edges), type(p.z_basis), p.readouts) == (
        frozenset, frozenset, (1,))


def test_json_round_trip_keeps_z_basis():
    p = MeasurementPattern(
        {0: ZERO, 1: Phase(1, 4), 2: ZERO},
        {frozenset((0, 1)), frozenset((1, 2))},
        [2], z_basis={0})
    p2 = MeasurementPattern.from_json(p.to_json())
    assert p2.angles == p.angles
    assert p2.edges == p.edges
    assert p2.readouts == p.readouts
    assert p2.z_basis == {0}
    assert p2 == p
    assert "order" not in p.to_json_dict()


@pytest.mark.parametrize("bad", ["a", 1.0, True, None, [1]])
def test_json_rejects_a_qubit_id_that_is_not_an_int(bad):
    docs = [
        {"qubits": [{"id": bad, "angle": "0"}, {"id": 1, "angle": "0"}],
         "edges": [], "readouts": []},
        {"qubits": [{"id": 0, "angle": "0"}, {"id": 1, "angle": "0"}],
         "edges": [[0, bad]], "readouts": []},
        {"qubits": [{"id": 0, "angle": "0"}, {"id": 1, "angle": "0"}],
         "edges": [], "readouts": [bad]},
    ]
    for doc in docs:
        with pytest.raises(ValueError):
            MeasurementPattern.from_json_dict(doc)


@pytest.mark.parametrize("basis", ["y", "x", "Z", "", None, ["z"]])
def test_json_rejects_an_unknown_basis(basis):
    doc = {"qubits": [{"id": 0, "angle": "1", "basis": basis}],
           "edges": [], "readouts": [0]}
    with pytest.raises(ValueError, match="basis"):
        MeasurementPattern.from_json_dict(doc)


def test_json_rejects_a_repeated_qubit_or_edge():
    two = [{"id": 0, "angle": "0"}, {"id": 1, "angle": "0"}]
    docs = [
        {"qubits": [{"id": 0, "angle": "0"}, {"id": 0, "angle": "1"}],
         "edges": [], "readouts": [0]},
        {"qubits": two, "edges": [[0, 1], [1, 0]], "readouts": [1]},
        {"qubits": two, "edges": [[0, 1], [0, 1]], "readouts": [1]},
    ]
    for doc in docs:
        with pytest.raises(ValueError, match="listed twice"):
            MeasurementPattern.from_json_dict(doc)


def test_json_ignores_a_legacy_order_key():
    doc = dj_pattern_2q(BooleanFunction(2, 6)).to_json_dict()
    legacy = MeasurementPattern.from_json_dict({**doc, "order": [5, 4, 3]})
    assert legacy.to_json_dict() == doc


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


def test_pattern_from_graph_like_readouts():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, HALF_PI)
    b = d.add_spider(SpiderKind.Z, ZERO)
    d.add_edge(a, b, EdgeKind.HADAMARD)
    assert pattern_from_graph_like(d).readouts == (b,)
    assert pattern_from_graph_like(d, [a]).readouts == (a,)
    # an unknown id and a repeat: the constructor refuses each
    for readouts in ([a, 7], [b, b]):
        with pytest.raises(NotGraphLikeError):
            pattern_from_graph_like(d, readouts)
    # an unhashable id and a bool are no ints
    for readouts in ([[a]], [True]):
        with pytest.raises(ValueError, match="is not an int"):
            pattern_from_graph_like(d, readouts)


# -- a compile through views --------------------------------------------------

_GATE_KINDS = ("phase", "z", "y", "h", "cnot")


@st.composite
def _circuits(draw, max_width=4, max_gates=12):
    """A circuit of every gate kind, phases at multiples of pi/4."""
    w = draw(st.integers(1, max_width))
    gates = []
    for kind in draw(st.lists(st.sampled_from(
            _GATE_KINDS if w > 1 else _GATE_KINDS[:4]), max_size=max_gates)):
        q = draw(st.integers(0, w - 1))
        if kind == "phase":
            gates.append(circuit.phase_gate(q, Phase(draw(st.integers(0, 7)), 4)))
        elif kind == "cnot":
            gates.append(circuit.cnot(q, draw(st.sampled_from(
                [t for t in range(w) if t != q]))))
        else:
            gates.append(circuit.Gate(kind, (q,)))
    return circuit.Circuit(w, gates)


def _rephased(c, phases):
    """``c`` with its phase gates at ``phases`` (multiples of pi/4), in
    order, cycling through them."""
    gates, k = [], 0
    for g in c.gates:
        if g.op == "phase":
            g = circuit.phase_gate(g.qubits[0], Phase(phases[k % len(phases)], 4))
            k += 1
        gates.append(g)
    return circuit.Circuit(c.width, gates)


def _touch(d, how):
    """Read or write ``d``'s state, or leave it: a write turns the lowest
    spider's phase a quarter."""
    if how == "read":
        len(d.spiders)
    elif how == "write" and d.spiders:
        s = d.spiders[min(d.spiders)]
        s.phase = s.phase + QUARTER_PI


def _outcome(call):
    """What ``call()`` gives: its pattern's JSON, or its error."""
    try:
        return call().to_json()
    except NotGraphLikeError as error:
        return repr(error)


@given(_circuits(), st.lists(st.integers(0, 7), min_size=1, max_size=4),
       st.sampled_from(["none", "read", "write"]),
       st.sampled_from(["none", "read", "write"]), st.data())
@settings(max_examples=150, deadline=None)
def test_the_view_route_equals_a_cold_run(c, phases, touch_d, touch_reduced,
                                          data):
    """to_zx_tracked, simplify_mbqc and pattern_from_graph_like give what
    simplify_core and the reader give on built copies: warm (the shape was
    compiled at other phases) or cold, with or without readouts, and with
    a read or a write of the diagrams between the steps."""
    if data.draw(st.booleans()):  # warm the records of the shape
        d, carriers = to_zx_tracked(c)
        pattern_from_graph_like(simplify_mbqc(d, frozenset(carriers))[0])
    d, carriers = to_zx_tracked(_rephased(c, phases))
    protected = frozenset(data.draw(st.sampled_from(
        [carriers, carriers[1:], []])))
    _touch(d, touch_d)
    ref = d.copy()
    ref_steps, _ = rewrite.simplify_core(ref, protected)
    reduced, steps = simplify_mbqc(d, protected)
    assert steps == ref_steps
    _touch(reduced, touch_reduced)
    _touch(ref, touch_reduced)
    ids = sorted(ref.spiders)
    readouts = data.draw(st.none() | st.lists(
        st.sampled_from(ids + [-1]) if ids else st.just(-1), max_size=3))
    assert _outcome(lambda: pattern_from_graph_like(reduced, readouts)) == \
        _outcome(lambda: pattern_from_graph_like(ref, readouts))
    assert (reduced.to_json(), reduced._next_node, reduced._next_edge) == (
        ref.to_json(), ref._next_node, ref._next_edge)


def test_a_view_reads_out_what_it_is_asked(cold_memos):
    # the templates of a reduced diagram are kept per readout choice
    for f in enumerate_promise(3)[::9]:
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        reduced, _ = simplify_mbqc(d, frozenset(carriers))
        cold = reduced.copy()
        len(cold.spiders)  # build the copy: the reader's route
        parities = [carriers[i] for i in cli._ORACLE_READOUT_GATES]
        for readouts in (None, parities, parities[::-1], parities[:1]):
            expected = pattern_from_graph_like(cold, readouts)
            got = pattern_from_graph_like(reduced, readouts)
            assert got.to_json() == expected.to_json()
            assert got.readouts == expected.readouts
        assert pattern_from_graph_like(reduced, iter(parities)).readouts == \
            tuple(parities)
        assert type(reduced) is not ZxDiagram  # read through its record
    # one template per readout choice; the iterator's is the parities'
    assert mbqc._view_template.cache_info()[:2] == (36, 4)


def test_a_view_refuses_readouts_that_are_not_ints(cold_memos):
    # True equals 1 and hashes alike, so a warm template of readout 1 would
    # read it out as 1; like the reader, a view refuses it, cold and warm
    c = circuit.Circuit(2, [circuit.phase_gate(0, QUARTER_PI),
                            circuit.phase_gate(1, QUARTER_PI)])
    d, carriers = to_zx_tracked(c)
    reduced, _ = simplify_mbqc(d, frozenset(carriers))
    assert 1 in reduced.copy().spiders
    for warm in (False, True):
        for readouts in ([True], [[1]]):
            with pytest.raises(ValueError, match="is not an int"):
                pattern_from_graph_like(reduced, readouts)
        with pytest.raises(ValueError, match="is not an int"):
            pattern_from_graph_like(reduced.copy(), [True])  # the reader
        p = pattern_from_graph_like(reduced, [1])
        assert p.readouts[0] is not True
        assert MeasurementPattern.from_json(p.to_json()) == p


def test_a_warm_compile_copies_simplifies_and_checks_nothing(monkeypatch):
    """Every oracle circuit shares one shape: once it is compiled, a
    compile builds no diagram state, runs no rule and checks no pattern."""
    for f in enumerate_promise(3)[:1]:
        cli._compile(oracle_circuit_3q(f), oracle=True)
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        pattern_from_graph_like(simplify_mbqc(d, frozenset(carriers))[0])
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: (
            calls.append(name), real(*args, **kwargs))[1])

    spy(ZxDiagram, "copy")
    spy(_View, "copy")
    spy(rewrite, "simplify_core")
    spy(MeasurementPattern, "__init__")
    patterns = []
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        reduced, _ = simplify_mbqc(d, frozenset(carriers))
        patterns.append((pattern_from_graph_like(reduced),
                         cli._compile(oracle_circuit_3q(f), oracle=True)[0]))
    assert calls == []
    # and each pattern is the compiled one
    for f, (plain, oracle) in zip(enumerate_promise(3), patterns):
        assert patterns_isomorphic(plain, dj_pattern_3q(f))
        assert patterns_isomorphic(oracle, dj_pattern_3q(f))
        assert run_postselected(oracle).verdict is classify(f)


def test_reduced_lattice_keeps_the_lattice_readouts():
    for f in enumerate_promise(3)[::9]:
        lattice = lattice_pattern_3q(f)
        reduced, _ = reduce_lattice(lattice)
        # pattern_to_diagram numbers the qubits in ascending order
        node_of = {q: i for i, q in enumerate(lattice.qubits())}
        assert reduced.readouts == tuple(node_of[q] for q in lattice.readouts)


def test_pattern_to_diagram_round_trip():
    p = _triangle_pattern()
    d = pattern_to_diagram(p)
    assert patterns_isomorphic(pattern_from_graph_like(d), p)


def test_pattern_to_diagram_z_basis_cap():
    p = MeasurementPattern({0: ZERO, 1: ZERO}, {frozenset((0, 1))},
                           [1], z_basis={0})
    d = pattern_to_diagram(p)
    # two pattern spiders plus one X cap on the z-basis qubit
    kinds = sorted(s.kind.value for s in d.spiders.values())
    assert kinds == ["X", "Z", "Z"]


def _plain_graph(n, pairs):
    return MeasurementPattern({q: ZERO for q in range(n)},
                              {frozenset(e) for e in pairs}, [])


def _relabelled(p, rng):
    """``p`` with its qubits renamed by a random injection into 100..199."""
    name = dict(zip(p.qubits(), rng.sample(range(100, 200), len(p.angles))))
    return MeasurementPattern(
        {name[q]: a for q, a in p.angles.items()},
        {frozenset(name[q] for q in e) for e in p.edges},
        [name[q] for q in p.readouts], {name[q] for q in p.z_basis})


def _bare(p):
    """The same qubits, edges and readouts, every angle zero and no z basis,
    so that every qubit is measured alike."""
    return MeasurementPattern(dict.fromkeys(p.angles, ZERO), p.edges,
                              p.readouts)


def _three_cube():
    return _plain_graph(8, [(a, a | bit) for a in range(8) for bit in (1, 2, 4)
                            if not a & bit])


def _moebius_ladder():
    return _plain_graph(8, [(q, (q + 1) % 8) for q in range(8)]
                        + [(q, q + 4) for q in range(4)])


def test_patterns_isomorphic_negative_cases():
    triangle = _triangle_pattern()
    path = MeasurementPattern(triangle.angles,
                              {frozenset((0, 1)), frozenset((1, 2))}, [2])
    pairs = [
        (triangle, path),
        # both 2-regular on six qubits: refinement alone leaves one colour
        (_plain_graph(6, [(q, (q + 1) % 6) for q in range(6)]),
         _plain_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])),
        # both 3-regular on eight qubits; only the cube is bipartite
        (_three_cube(), _moebius_ladder()),
    ]
    for pair in pairs:
        for p, q in (pair, tuple(map(_bare, pair))):
            assert not patterns_isomorphic(p, q)
            assert not patterns_isomorphic(q, p)
            assert patterns_isomorphic(q, q)


def test_patterns_isomorphic_backtracks():
    # every qubit has degree 2, so refinement alone leaves one colour; qubit
    # 0 lies on the hexagon in p but on a triangle in q, so matching the
    # first candidate fails and the search must try the next ones
    hexagon = [(q, (q + 1) % 6) for q in range(6)]
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    shifted = lambda pairs: [(a + 6, b + 6) for a, b in pairs]
    p = _plain_graph(12, hexagon + shifted(triangles))
    q = _plain_graph(12, triangles + shifted(hexagon))
    assert patterns_isomorphic(p, q)
    assert patterns_isomorphic(q, p)


def test_patterns_isomorphic_ignores_angles_on_request():
    p = _triangle_pattern()
    q = _reangled(_triangle_pattern(), {1: PI})
    assert not patterns_isomorphic(p, q)
    assert patterns_isomorphic(_bare(p), _bare(q))


def test_lattice_is_isomorphic_to_a_relabelled_copy():
    rng = random.Random(13)
    for f in (BooleanFunction(3, 0), BooleanFunction(3, 0b01101001)):
        p = lattice_pattern_3q(f)
        q = _relabelled(p, rng)
        assert patterns_isomorphic(p, q)
        assert patterns_isomorphic(_bare(q), _bare(p))


def test_patterns_isomorphic_tells_the_z_basis_from_xy_at_zero():
    p = MeasurementPattern({0: ZERO, 1: ZERO, 2: HALF_PI},
                           {frozenset((0, 1)), frozenset((1, 2))}, [2], {0})
    q = MeasurementPattern(p.angles, p.edges, [2])
    assert not patterns_isomorphic(p, q)
    assert patterns_isomorphic(_bare(p), _bare(q))
    assert patterns_isomorphic(p, _relabelled(p, random.Random(0)))


@pytest.mark.parametrize("bad", [
    ({0: ZERO, 1: ZERO, 2: ZERO}, {frozenset((0, 1)), frozenset((1, 5))},
     [0]),
    ({0: ZERO, 1: ZERO, 2: ZERO}, {frozenset((0, 1))}, [7]),
    ({0: ZERO, 1: ZERO, 2: ZERO}, set(), [0], {4}),
], ids=["edge", "readout", "z-basis"])
def test_patterns_isomorphic_validates_both_patterns(bad):
    """Both sides are checked when they are built, so a malformed pattern
    reaches patterns_isomorphic from neither side."""
    good = _triangle_pattern()
    assert patterns_isomorphic(good, good)
    with pytest.raises(NotGraphLikeError):
        patterns_isomorphic(MeasurementPattern(*bad), good)
    with pytest.raises(NotGraphLikeError):
        patterns_isomorphic(good, MeasurementPattern(*bad))


def _vf2_isomorphic(p1, p2, with_angles):
    """The reference verdict: networkx's VF2++ on the same qubit labels.
    Plain VF2 can run for minutes on some 9- to 12-qubit pairs."""
    nx = pytest.importorskip("networkx")

    def graph(p):
        g = nx.Graph()
        for q in p.qubits():
            g.add_node(q, label=(q in p.z_basis, str(p.angles[q]))
                       if with_angles else None)
        g.add_edges_from(tuple(e) for e in p.edges)
        return g

    if not p1.angles and not p2.angles:
        return True  # VF2++ calls two empty graphs not isomorphic
    return nx.vf2pp_is_isomorphic(graph(p1), graph(p2), node_label="label")


@st.composite
def small_patterns(draw, n, angles):
    """A pattern on qubits 0..n-1 with its angles drawn from ``angles``;
    about one qubit in five is measured in the z basis."""
    z_basis = {q for q in range(n) if draw(st.integers(0, 4)) == 0}
    density = draw(st.floats(0, 1))
    return MeasurementPattern(
        {q: ZERO if q in z_basis else draw(st.sampled_from(angles))
         for q in range(n)},
        {frozenset(e) for e in itertools.combinations(range(n), 2)
         if draw(st.floats(0, 1)) < density}, [], z_basis)


# few distinct angles make equal colour counts, and so deeper searches, likely
_ANGLE_SETS = [(ZERO,), (ZERO, PI), (ZERO, HALF_PI, PI, QUARTER_PI)]


@given(st.integers(0, 12), st.sampled_from(_ANGLE_SETS), st.data())
@settings(max_examples=300, deadline=None)
def test_patterns_isomorphic_matches_vf2(n, angles, data):
    p = data.draw(small_patterns(n, angles))
    copy = _relabelled(p, random.Random(data.draw(st.integers(0, 2**32))))
    other = data.draw(small_patterns(n, angles))
    for with_angles, view in ((True, lambda p: p), (False, _bare)):
        assert patterns_isomorphic(view(p), view(copy))
        assert (patterns_isomorphic(view(p), view(other))
                == _vf2_isomorphic(p, other, with_angles))


def _in_fresh_process(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports zxdj from this
    checkout; returns its stdout."""
    src = str(Path(mbqc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_networkx_unloaded():
    """zxdj never imports networkx: with every import of it failing, the
    isomorphism check and ``lattice --reduce`` still run."""
    code = """if True:
        import contextlib, io, json, sys
        import zxdj, zxdj.cli
        assert "networkx" not in sys.modules
        sys.modules["networkx"] = None  # an import of it now raises
        f = zxdj.BooleanFunction(3, 0b01101001)
        assert zxdj.patterns_isomorphic(zxdj.dj_pattern_3q(f),
                                        zxdj.dj_pattern_3q(f))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = zxdj.cli.main(
                ["lattice", "--n", "3", "--table", "01101001", "--reduce"])
        assert code == 0, code
        assert json.loads(out.getvalue())["isomorphic_to_compiled"] is True
    """
    _in_fresh_process(code)


def test_exact_commands_leave_numpy_unloaded(tmp_path, capsys):
    """``import zxdj`` and every command that builds no array load no numpy,
    sampling a Clifford pattern included: with every import of it failing,
    each still exits 0 and prints what it prints in a process that has
    numpy."""
    f = BooleanFunction(3, 0b01101001)
    pattern = tmp_path / "lattice.json"
    pattern.write_text(lattice_pattern_3q(f).to_json())
    dot = tmp_path / "lattice.dot"
    fn = ["--n", "3", "--table", "01101001"]
    oracle = tmp_path / "oracle.json"
    assert cli.main(["synth-circuit", *fn, "--out", str(oracle)]) == 0
    compiled = tmp_path / "compiled.json"
    assert cli.main(["compile-mbqc", *fn, "--out", str(compiled)]) == 0
    capsys.readouterr()
    commands = [["classify", *fn], ["synth-circuit", *fn],
                ["compile-mbqc", *fn, "--trace"],
                ["lattice", *fn, "--reduce", "--trace"],
                ["simulate", *fn], ["simulate", "--pattern", str(pattern)],
                ["simulate", "--circuit", str(oracle)],
                ["export-dot", "--pattern", str(pattern), "--out", str(dot)],
                ["verify-all", "--n", "3"],
                ["verify-all", "--n", "1"], ["verify-all", "--n", "2"],
                ["simulate", "--n", "2", "--table", "0110", "--shots", "1000"],
                ["simulate", "--pattern", str(compiled), "--shots", "100"]]
    code = """if True:
        import contextlib, io, json, sys
        import zxdj, zxdj.cli
        assert "numpy" not in sys.modules
        sys.modules["numpy"] = None  # an import of it now raises
        runs = []
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runs.append(zxdj.cli.main(argv))
            runs.append(out.getvalue())
        print(json.dumps(runs))
    """
    bare = json.loads(_in_fresh_process(code, json.dumps(commands)))
    bare_dot = dot.read_text()
    dot.unlink()
    normal = []
    for argv in commands:
        normal += [cli.main(argv), capsys.readouterr().out]
    assert bare == normal
    assert bare[0::2] == [0] * len(commands)
    assert dot.read_text() == bare_dot


def test_promise_patterns_sample_without_numpy():
    """Every promise pattern is Clifford, so all 84 sample their verdict on
    all 1000 shots with every import of numpy failing."""
    code = """if True:
        import sys
        sys.modules["numpy"] = None  # an import of it now raises
        import zxdj
        makers = {1: zxdj.dj_pattern_1q, 2: zxdj.dj_pattern_2q,
                  3: zxdj.dj_pattern_3q}
        runs = 0
        for n, make in makers.items():
            for f in zxdj.enumerate_promise(n):
                out = zxdj.run_sampled(make(f), shots=1000)
                assert out.verdict is zxdj.classify(f), f
                assert out.agreeing_shots == 1000, f
                runs += 1
        print(runs)
    """
    assert _in_fresh_process(code) == "84\n"


def test_lazy_names_resolve_and_run():
    """The names whose functions import numpy resolve on the package, are
    listed by ``dir(zxdj)`` and run, though ``import zxdj`` loads no numpy."""
    code = """if True:
        import sys
        import zxdj
        assert "numpy" not in sys.modules
        names = dir(zxdj)
        assert {"evaluate", "run_sampled", "unitary"} <= set(names), names
        f = zxdj.BooleanFunction(2, 0b0110)
        out = zxdj.run_sampled(zxdj.dj_pattern_2q(f), shots=20)
        assert out.verdict is zxdj.Verdict.BALANCED and out.shots == 20
        assert zxdj.mbqc.run_sampled is zxdj.run_sampled
        c = zxdj.oracle_circuit_3q(zxdj.BooleanFunction(3, 0b01101001))
        assert zxdj.unitary(c).shape == (8, 8)
        p = zxdj.dj_pattern_3q(zxdj.BooleanFunction(3, 0))
        assert abs(complex(zxdj.evaluate(zxdj.pattern_to_diagram(p)))) > 0
        for module in (zxdj, zxdj.mbqc):
            try:
                module.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError(module)
        print("ok")
    """
    assert _in_fresh_process(code) == "ok\n"


def test_sampler_is_an_ordinary_name_of_mbqc():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("zxdj.sampling")
    assert "run_sampled" in vars(mbqc)
    assert zxdj.run_sampled is mbqc.run_sampled


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
    with pytest.raises(ArityMismatchError):
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
                              sorted(outputs))


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


def test_run_sampled_rejects_fewer_than_one_shot():
    p = dj_pattern_2q(BooleanFunction(2, 0b0110))
    for shots in (0, -5):
        with pytest.raises(ValueError, match="shots"):
            run_sampled(p, shots=shots)
    assert run_sampled(p, shots=1).shots == 1


def test_run_sampled_rejects_shots_that_are_not_integers():
    p = dj_pattern_2q(BooleanFunction(2, 0b0110))
    for shots in (True, False, 2.5, 5.0, "5", None, np.float64(5)):
        with pytest.raises(ValueError, match="shots"):
            run_sampled(p, shots=shots)
    out = run_sampled(p, shots=np.int64(5))
    assert out == run_sampled(p, shots=5)
    assert type(out.shots) is int and type(out.agreeing_shots) is int


def test_run_sampled_rejects_seeds_that_are_not_non_negative_integers():
    p = dj_pattern_2q(BooleanFunction(2, 0b0110))
    for seed in (None, True, False, 2.5, 7.0, "7", np.float64(7), np.True_,
                 -1, np.int64(-1)):
        with pytest.raises(ValueError, match="seed"):
            run_sampled(p, seed=seed, shots=3)
    assert run_sampled(p, seed=np.int64(7), shots=50) == run_sampled(
        p, seed=7, shots=50)
    assert run_sampled(p, seed=0, shots=50) == run_sampled(p, seed=0, shots=50)


def test_run_sampled_rejects_pattern_without_gflow():
    with pytest.raises(NoFlowError):
        run_sampled(lattice_pattern_3q(BooleanFunction(3, 0)), shots=1)
    with pytest.raises(NoFlowError):
        run_sampled(_open_graph(3, [(0, 1), (1, 2)], [1]), shots=1)


def _star(leaves, angle=ZERO):
    p = _open_graph(leaves + 1, [(0, q) for q in range(1, leaves + 1)],
                    range(1, leaves + 1))
    return replace(p, angles=dict.fromkeys(p.angles, angle))


def _non_clifford(p):
    """A copy of ``p`` with pi/4 added to every angle that is a multiple of
    pi/2, so that no angle is one and run_sampled contracts its diagram."""
    angles = {q: a + QUARTER_PI if a.turns(2) is not None else a
              for q, a in p.angles.items()}
    return MeasurementPattern(angles, p.edges, p.readouts)


def _tensor_ranks(monkeypatch):
    """The rank of every spider tensor built from now on."""
    ranks = []
    real = tensor.spider_tensor
    monkeypatch.setattr(tensor, "spider_tensor", lambda kind, z, rank: (
        ranks.append(rank), real(kind, z, rank))[1])
    return ranks


def test_frontier_cap_raises_before_allocating(monkeypatch):
    # the width cap is tensor.MAX_PEAK_RANK, the most open legs a partial
    # contraction may hold; a pi/4 star peaks at its hub, one leg per leaf
    monkeypatch.setattr(tensor, "MAX_PEAK_RANK", 6)
    ranks = _tensor_ranks(monkeypatch)
    out = run_sampled(_star(6, QUARTER_PI), shots=3)
    assert out.shots == 3 and max(ranks) == 6
    ranks.clear()
    with pytest.raises(WidthTooLargeError):
        run_sampled(_star(7, QUARTER_PI), shots=1000)
    assert ranks == []


def test_clifford_star_samples_past_the_frontier_cap(monkeypatch):
    # the exact law contracts no diagram, so no width cap binds it
    monkeypatch.setattr(mbqc, "evaluate", None)  # must not be reached
    p = _star(30)
    out = run_sampled(p, shots=1000)
    # the hub pivots on one leaf and the other 29 leaves are free at angle
    # 0, so S = 2^30 = sqrt(2)^60 and P(Constant) = |S|^2 / 2^(31 + 30) = 1/2
    assert mbqc._sum_exact(p, mbqc._clifford_turns(p)) == (0, 60)
    assert out.shots == 1000 and abs(out.agreeing_shots - 500) <= 80  # 5 sigma


def test_pi_4_twin_of_the_clifford_star_raises_before_any_tensor(
        monkeypatch):
    ranks = _tensor_ranks(monkeypatch)
    with pytest.raises(WidthTooLargeError):
        run_sampled(_star(30, QUARTER_PI), shots=1000)
    assert ranks == []


def test_zero_amplitude_pi_4_pattern_draws_no_constant_shot():
    # a lone qubit at pi reads 1 for sure; its spider 1 + e^(i pi) is zero
    # up to round-off, so P(Constant) is a tiny float, not 0
    p = MeasurementPattern({0: PI, 1: QUARTER_PI}, set(), [0, 1])
    num, bits = mbqc._constant_law(p)
    assert 0 < math.ldexp(num, -bits) < 1e-30
    for seed in (0, 7, 2024):
        out = run_sampled(p, seed=seed, shots=1000)
        assert out.verdict is Verdict.BALANCED and out.agreeing_shots == 1000


def test_a_tied_count_reads_constant():
    # one qubit at pi/2, read out: S = 1 + i, so P(Constant) = 2 / 2^2
    p = MeasurementPattern({0: HALF_PI}, set(), [0])
    assert mbqc._constant_law(p) == (1, 1)
    out = run_sampled(p, seed=5, shots=2)
    assert out.verdict is Verdict.CONSTANT and out.agreeing_shots == 1


def test_a_law_of_one_or_more_draws_every_shot():
    # num == 2^bits, and a float law that round-off lifts one ulp above 1,
    # as _constant_law hands it on: neither needs a clamp
    above_one = 1.0000000000000002
    assert above_one == math.nextafter(1.0, 2.0)
    ulp_num, ulp_den = above_one.as_integer_ratio()
    for num, bits in ((1, 0), (1 << 7, 7),
                      (ulp_num, ulp_den.bit_length() - 1)):
        for seed, shots in ((0, 1), (5, 1000)):
            assert mbqc._drawn_count(num, bits, seed, shots) == shots


def test_run_sampled_in_blocks(monkeypatch):
    monkeypatch.setattr(mbqc, "_BLOCK_SHOTS", 8)  # 30 shots in four blocks
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
        p = replace(_open_graph(n, pairs, outputs),
                    angles={q: Phase(rng.randrange(8), 4) for q in range(n)})
        try:
            find_gflow(p)
        except NoFlowError:
            continue
        checked += 1
        constant = _constant_shots(run_sampled(p, seed=checked, shots=shots))
        prob = _constant_probability(p)
        sigma = (prob * (1 - prob) / shots) ** 0.5
        assert abs(constant / shots - prob) <= 5 * sigma + 1e-9, (p, prob)


def _constant_shots(out):
    return (out.agreeing_shots if out.verdict is Verdict.CONSTANT
            else out.shots - out.agreeing_shots)


def _adaptive_constant_probability(p, corrected=True):
    """P(every readout 0) of the adaptively corrected pattern, summed
    exactly over every outcome string, straight from the gflow.

    The qubits are measured in gflow order: descending layer, then the
    readouts.  An outcome 1 at v gives each qubit of g(v) an X byproduct
    and each of Odd(g(v)) minus v a Z byproduct, so a qubit with byproduct
    parities sX and sZ is measured at (-1)^sX * theta + sZ * pi.  A string
    of outcomes o has probability |<b|G>|^2, for the graph state |G> and
    the bras <b| = <0| + (-1)^o e^(-i phi) <1| (over sqrt 2) at the
    corrected angles phi.  ``corrected=False`` drops the byproducts."""
    g, layer = find_gflow(p)
    adj = _adjacency(p)
    order = sorted(g, key=lambda v: (-layer[v], v)) + list(p.readouts)
    step = {q: i for i, q in enumerate(order)}
    n = len(order)
    # the graph state's sign on each basis string, bit i for qubit order[i]
    signs = [(-1) ** sum(x[step[a]] & x[step[b]] for a, b in p.edges)
             for x in itertools.product((0, 1), repeat=n)]
    total = 0.0
    for outcomes in itertools.product((0, 1), repeat=n - len(p.readouts)):
        outcomes += (0,) * len(p.readouts)
        flips = dict.fromkeys(order, 0)  # 2 * sX + sZ
        weights = []
        for v, o in zip(order, outcomes):
            theta = p.angles[v].radians
            phi = (-theta if flips[v] & 2 else theta) + math.pi * (flips[v] & 1)
            weights.append((-1) ** o * cmath.exp(-1j * phi))
            if o and corrected:
                k = g.get(v, frozenset())
                for w, bit in ([(w, 2) for w in k]
                               + [(w, 1) for w in _odd(adj, k) - {v}]):
                    assert step[w] > step[v]  # only later qubits
                    flips[w] ^= bit
        amp = 0j
        for x, sign in zip(itertools.product((0, 1), repeat=n), signs):
            term = complex(sign)
            for i in range(n):
                if x[i]:
                    term *= weights[i]
            amp += term
        total += abs(amp / 2 ** n) ** 2
    return total


def test_exact_law_matches_the_adaptive_reference():
    # the one law run_sampled draws from, against every outcome string
    random_outcomes = non_clifford = uncorrected_differs = 0
    for p in _random_flow_patterns(47, 60, max_qubits=6):
        num, bits = mbqc._constant_law(p)
        prob = _adaptive_constant_probability(p)
        assert abs(math.ldexp(num, -bits) - prob) <= 1e-12, p
        random_outcomes += 1e-9 < prob < 1 - 1e-9
        non_clifford += mbqc._clifford_turns(p) is None
        uncorrected_differs += abs(
            _adaptive_constant_probability(p, corrected=False) - prob) > 1e-6
    assert random_outcomes >= 20 and non_clifford >= 40
    assert uncorrected_differs >= 5  # the byproducts matter


def _random_flow_patterns(seed, count, max_qubits=8, denominator=4):
    """Seeded random open graphs that have an XY gflow, with readouts in a
    random order and angles drawn from the multiples of pi/denominator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_qubits)
        pairs = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        outputs = [q for q in range(n) if rng.random() < 0.4]
        rng.shuffle(outputs)
        p = MeasurementPattern(
            {q: Phase(rng.randrange(2 * denominator), denominator)
             for q in range(n)},
            {frozenset(e) for e in pairs}, outputs)
        try:
            find_gflow(p)
        except NoFlowError:
            continue
        out.append(p)
    return out


def _clifford_flow_patterns():
    """300 seeded Clifford gflow patterns of at most 8 qubits."""
    return _random_flow_patterns(61, 300, denominator=2)


def _drawn_exponent(p):
    """d = n + r - h of a Clifford gflow pattern with S = omega^e *
    sqrt(2)^h, whose drawn route reads Constant with probability 2^-d;
    None when S = 0."""
    s = mbqc._sum_exact(p, mbqc._clifford_turns(p))
    if s is None:
        return None
    return len(p.angles) + len(p.readouts) - s[1]


def _drawn_probability(p):
    d = _drawn_exponent(p)
    return 0.0 if d is None else 2.0 ** -d


def test_exact_law_matches_the_dense_probability():
    exponents = []
    for p in _clifford_flow_patterns():
        d = _drawn_exponent(p)
        assert d is None or d >= 0
        assert abs(_drawn_probability(p) - _constant_probability(p)) <= 1e-12
        exponents.append(d)
    assert None in exponents and len(set(exponents)) > 3


def test_drawn_counts_follow_the_exact_law():
    shots = 2000
    for i, p in enumerate(_clifford_flow_patterns()):
        prob = _drawn_probability(p)
        constant = _constant_shots(run_sampled(p, seed=i, shots=shots))
        sigma = (shots * prob * (1 - prob)) ** 0.5
        assert abs(constant - shots * prob) <= 5 * sigma, (i, p)


def _recomputed_draw(num, bits, seed, shots, block):
    """The documented draw, digit by digit: per block, one word of
    getrandbits(block) per binary digit of num / 2^bits, most significant
    first, and a shot is Constant where the number its bit spells across
    the words is below num."""
    rng = random.Random(seed)
    constant = 0
    for start in range(0, shots, block):
        n = min(block, shots - start)
        words = [rng.getrandbits(n) for _ in range(bits)]
        for j in range(n):
            u = 0
            for w in words:
                u = 2 * u + (w >> j & 1)
            constant += u < num
    return constant


def test_drawn_route_repeats_across_blocks(monkeypatch):
    monkeypatch.setattr(mbqc, "_BLOCK_SHOTS", 64)
    clifford = next(p for p in _clifford_flow_patterns()
                    if (_drawn_exponent(p) or 0) >= 2)
    pi_4 = next(p for p in _random_flow_patterns(19, 40)
                if mbqc._clifford_turns(p) is None
                and 0.2 < _constant_probability(p) < 0.8)
    assert mbqc._constant_law(clifford) == (1, _drawn_exponent(clifford))
    for p in (clifford, pi_4):
        num, bits = mbqc._constant_law(p)
        shots = 1000  # 16 blocks, the last of 40 shots
        out = run_sampled(p, seed=5, shots=shots)
        assert run_sampled(p, seed=5, shots=shots) == out
        assert _constant_shots(out) == _recomputed_draw(num, bits, 5, shots, 64)


def _promise_patterns():
    return ([dj_pattern_1q(f) for f in enumerate_promise(1)]
            + [dj_pattern_2q(f) for f in enumerate_promise(2)]
            + [dj_pattern_3q(f) for f in enumerate_promise(3)])


# SHA-256 of (verdict, agreeing_shots) over 60 seeded runs on non-promise
# patterns, each drawn from its exact law with random.Random.
# _CLIFFORD_DIGEST pins the records of the 9 Clifford ones (16, 21, 23, 24,
# 26, 29, 45, 57 and 59) alone.
_SAMPLED_DIGEST = (
    "c45133789b6ca6850cfc1115f6847126ca3170187be6e68c19ab33e4d3c2eae2")
_CLIFFORD_DIGEST = (
    "4d1fc3e45b3de4c77dced11642394af612b42084a2b6be3ba665f07e12aeaa93")


def test_sampled_outcomes_keep_the_pinned_digest():
    record, clifford_records, clifford = [], [], []
    for i, p in enumerate(_random_flow_patterns(31, 60)):
        out = run_sampled(p, seed=1000 + i, shots=300 + 7 * i)
        record.append([out.verdict.value, out.agreeing_shots])
        if mbqc._clifford_turns(p) is not None:
            clifford_records.append(record[-1])
            clifford.append(i)
    assert clifford == [16, 21, 23, 24, 26, 29, 45, 57, 59]
    for pinned, records in ((_SAMPLED_DIGEST, record),
                            (_CLIFFORD_DIGEST, clifford_records)):
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == pinned


def _flow_searches():
    return mbqc._gflow.cache_info().misses


def test_flow_memo_hit_equals_a_cold_run(cold_memos):
    for p in _random_flow_patterns(41, 10) + _promise_patterns()[::9]:
        p = _non_clifford(p)
        mbqc._gflow.cache_clear()
        cold = run_sampled(p, seed=3, shots=400)
        warm = run_sampled(p, seed=3, shots=400)
        assert (warm.verdict, warm.agreeing_shots) == (
            cold.verdict, cold.agreeing_shots)
        assert mbqc._gflow.cache_info()[:2] == (1, 1)


def test_find_gflow_hands_out_fresh_dicts(cold_memos):
    p = dj_pattern_3q(BooleanFunction(3, 0))
    g, layer = find_gflow(p)
    expected = (dict(g), dict(layer))
    g.clear()
    layer[min(layer)] = 99
    run_sampled(p, shots=10)
    assert find_gflow(p) == expected
    assert find_gflow(p)[0] is not find_gflow(p)[0]
    assert _flow_searches() == 1


def test_flow_memo_keys_on_shape_not_angles(cold_memos):
    run_sampled(_non_clifford(dj_pattern_2q(BooleanFunction(2, 0))), shots=10)
    assert _flow_searches() == 1
    # all eight two-bit variants share one shape; a new angle hits
    twins = [_non_clifford(dj_pattern_2q(f)) for f in enumerate_promise(2)]
    warm = [run_sampled(p, seed=9, shots=200) for p in twins]
    assert _flow_searches() == 1
    cold = []
    for p in twins:
        mbqc._gflow.cache_clear()
        cold.append(run_sampled(p, seed=9, shots=200))
    assert warm == cold
    mbqc._gflow.cache_clear()
    run_sampled(twins[0], shots=10)
    p = _non_clifford(dj_pattern_2q(BooleanFunction(2, 6)))
    # the readouts in another order are another shape
    run_sampled(replace(p, readouts=p.readouts[::-1]), shots=10)
    assert _flow_searches() == 2
    p = replace(p, edges=p.edges | {frozenset((0, 3))})
    run_sampled(p, shots=10)
    p = replace(p, angles={**p.angles, 6: ZERO},
                edges=p.edges | {frozenset((5, 6))})
    run_sampled(p, shots=10)
    assert _flow_searches() == 4
    assert mbqc._gflow.cache_info().currsize == 4


def test_flow_memo_stores_no_failure(cold_memos):
    no_flow = _non_clifford(_open_graph(3, [(0, 1), (1, 2)], [1]))
    # the too-wide star has a gflow, which is kept; its contraction raises
    too_wide = _star(tensor.MAX_PEAK_RANK + 1, QUARTER_PI)
    for p, error, flows in ((no_flow, NoFlowError, 0),
                            (too_wide, WidthTooLargeError, 1)):
        for _ in range(3):
            with pytest.raises(error):
                run_sampled(p, shots=5)
        assert mbqc._gflow.cache_info().currsize == flows


def test_flow_memo_keys_on_the_z_basis_set(cold_memos):
    chain = _open_graph(3, [(0, 1), (1, 2)], [2])
    run_sampled(chain, shots=5)
    # the same ids, edges and readouts: a z-basis qubit needs Pauli flow,
    # so the warm memo must not hand the twin the chain's gflow
    twin = replace(_open_graph(3, [(0, 1), (1, 2)], [2]), z_basis={0})
    with pytest.raises(NoFlowError):
        run_sampled(twin, shots=5)


# -- lattice embedding -------------------------------------------------------

def test_lattice_pattern_shape():
    p = lattice_pattern_3q(BooleanFunction(3, 0b01101001))
    assert len(p.qubits()) == 36
    assert len(p.edges) == 2 * 6 * 5  # grid adjacency
    assert len(p.z_basis) == 12
    assert len(p.readouts) == 3
    with pytest.raises(ArityMismatchError):
        lattice_pattern_3q(BooleanFunction(2, 6))



# How lattice_pattern_3q built the grid before it became a module
# constant, kept as the reference: it sweeps the whole grid on every call.
def _swept_lattice_pattern(f):
    coeffs = phase_polynomial(f).coeffs
    angles = {}
    z_basis = set()
    for pos, entry in mbqc._LATTICE_LAYOUT.items():
        q = mbqc._grid_id(pos)
        if entry == "z":
            angles[q] = ZERO
            z_basis.add(q)
        elif isinstance(entry, mbqc._Slot):
            angles[q] = entry.offset + coeffs.get(entry.source, ZERO)
        else:
            angles[q] = entry
    edges = set()
    for r in range(1, 7):
        for c in range(1, 7):
            if c < 6:
                edges.add(frozenset((mbqc._grid_id((r, c)),
                                     mbqc._grid_id((r, c + 1)))))
            if r < 6:
                edges.add(frozenset((mbqc._grid_id((r, c)),
                                     mbqc._grid_id((r + 1, c)))))
    readouts = [mbqc._grid_id((1, 6)), mbqc._grid_id((5, 4)),
                mbqc._grid_id((6, 6))]
    return MeasurementPattern(angles, edges, readouts, z_basis)


def test_lattice_pattern_matches_the_grid_sweep():
    for f in enumerate_promise(3):
        p, ref = lattice_pattern_3q(f), _swept_lattice_pattern(f)
        assert p == ref, f.table
        # the template fills its containers in the sweep's order; no result
        # reads that order, since pattern_to_diagram sorts the edges
        assert list(p.edges) == list(ref.edges), f.table
        assert list(p.angles) == list(ref.angles), f.table


def _refilled(p, reorder):
    """A copy of ``p`` whose edge set was filled in the order that
    ``reorder`` leaves the ascending edge list in."""
    edges = sorted(map(sorted, p.edges))
    reorder(edges)
    return replace(p, edges={frozenset(e) for e in edges})


def test_equal_lattices_reduce_alike_however_their_edges_were_filled(
        cold_memos):
    rng = random.Random(7)
    for f in enumerate_promise(3):
        p = lattice_pattern_3q(f)
        expected = reduce_lattice(p)
        for q in (_refilled(p, list.reverse), _refilled(p, rng.shuffle)):
            assert q == p and list(q.edges) != list(p.edges), f.table
            assert reduce_lattice(q) == expected, f.table
            assert mbqc._reduction.cache_info().misses == 1
            assert mbqc._reduction.__wrapped__(*_reduction_key(q)) == \
                mbqc._reduction(*_reduction_key(p)), f.table


_EIGHTHS = tuple(Phase(k, 4) for k in range(8))


@given(st.integers(0, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_equal_patterns_give_equal_diagrams_and_amplitudes(n, data):
    p = data.draw(small_patterns(n, _EIGHTHS))
    q = _refilled(p, random.Random(data.draw(st.integers(0, 2**32))).shuffle)
    assert q == p
    d, e = pattern_to_diagram(p), pattern_to_diagram(q)
    assert d.to_json() == e.to_json()
    assert evaluate(d).tobytes() == evaluate(e).tobytes()


def test_lattice_patterns_own_their_containers():
    """A built lattice shares only frozen containers with its template, so
    no caller can change the next one."""
    f = BooleanFunction(3, 0b01101001)
    _assert_refuses_edits(lattice_pattern_3q(f))
    assert lattice_pattern_3q(f) == _swept_lattice_pattern(f)


def test_dj_patterns_own_their_containers():
    f = BooleanFunction(3, 0b01101001)
    p = dj_pattern_3q(f)
    _assert_refuses_edits(p)
    assert dj_pattern_3q(f).angles is not p.angles
    assert dj_pattern_3q(f).to_json() == p.to_json()
    assert dj_pattern_3q(f).z_basis == set()


def _reduction_key(p):
    """The arguments of ``mbqc._reduction`` for the pattern ``p``."""
    return p._shape, tuple([p.angles[q] for q in p.qubits()
                            if q not in mbqc._LATTICE_CARRIER_IDS])


def _templates():
    """Every template by name, the reduced lattice's from a cold reduction."""
    lattice = lattice_pattern_3q(BooleanFunction(3, 0))
    reduced, _ = mbqc._reduction.__wrapped__(*_reduction_key(lattice))
    return {"dj-3q": mbqc._DJ_3Q, "chain-1q": mbqc._CHAIN_1Q,
            "chain-2q": mbqc._CHAIN_2Q, "lattice": mbqc._LATTICE,
            "reduced-lattice": reduced}


@pytest.mark.parametrize("name", list(_templates()))
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_a_filled_template_is_the_pattern_the_constructor_builds(name, data):
    t = _templates()[name]
    sources = sorted({s for _, _, ss in t.carriers for s in ss}, key=repr)
    values = {s: data.draw(st.sampled_from(_EIGHTHS)) for s in sources}
    angles = dict(t.pattern.angles)
    for q, offset, ss in t.carriers:
        angles[q] = sum((values[s] for s in ss), offset)
    built = MeasurementPattern(angles, t.pattern.edges, t.pattern.readouts,
                               t.pattern.z_basis)
    filled = mbqc._fill(t, values)
    assert filled == built
    assert list(filled.angles.items()) == list(built.angles.items())
    # the fill shares the template's frozen containers rather than copy them
    assert filled.edges is t.pattern.edges
    assert filled.readouts is t.pattern.readouts
    assert filled.z_basis is t.pattern.z_basis
    # and its shape, which the constructor computes alike
    assert filled._shape is t.pattern._shape
    assert filled._shape == built._shape


@given(st.lists(st.integers(-50, 50), unique=True))
def test_qubits_ascend_however_the_angles_were_listed(ids):
    p = MeasurementPattern(dict.fromkeys(ids, ZERO), set(), ids[:1])
    assert p.qubits() == tuple(sorted(ids))
    assert list(p.angles) == ids


@pytest.mark.parametrize("carrier", [5, 1], ids=["no-qubit", "z-basis"])
def test_a_template_carrier_is_a_qubit_outside_the_z_basis(carrier):
    pattern = MeasurementPattern({0: ZERO, 1: ZERO}, {frozenset((0, 1))},
                                 [0], {1})
    with pytest.raises(ValueError, match=rf"carriers \[{carrier}\] name no"):
        mbqc._Template(pattern, ((carrier, ZERO, (0,)),))
    assert mbqc._Template(pattern, ((0, ZERO, (0,)),)).pattern is pattern


def _builder_record(f):
    """Every byte the templated builders hand on for ``f``: the oracle
    circuit, both three-qubit patterns with their edges in set iteration
    order (which the templates' tuples fix, though no result reads it), and
    the circuit's translation with its carriers and next ids."""
    c = oracle_circuit_3q(f)
    d, carriers = to_zx_tracked(c)
    record = [c.to_json()]
    for p in (dj_pattern_3q(f), lattice_pattern_3q(f)):
        record += [p.to_json(), [sorted(e) for e in p.edges]]
    return record + [d.to_json_dict(), carriers, d._next_node, d._next_edge]


# SHA-256 of _builder_record over the 72 three-bit variants, recorded with
# the builders that rebuilt every artifact on each call.
BUILDER_DIGEST = (
    "254450a4469779c83c7d635413ef54b695199b687014cad5f79e1bad53ddaa67")


def test_templated_builders_keep_the_pinned_digest():
    records = [_builder_record(f) for f in enumerate_promise(3)]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == BUILDER_DIGEST


# SHA-256 of the JSON, angle order and edge iteration order of
# dj_pattern_1q and dj_pattern_2q over the 4 + 8 promise tables, recorded
# with the builders that chained the angles into a fresh pattern per call.
CHAIN_BUILDER_DIGEST = (
    "3e2abb7340f1defe67967ea2d552698739d3c47c7175ceb862e096e565369e1a")


def test_chain_builders_keep_the_pinned_digest():
    records = [[p.to_json(), list(p.angles), [sorted(e) for e in p.edges]]
               for n, build in ((1, dj_pattern_1q), (2, dj_pattern_2q))
               for p in map(build, enumerate_promise(n))]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == CHAIN_BUILDER_DIGEST


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


def test_only_the_angle_aware_isomorphism_catches_a_tampered_carrier():
    """No rule reads a carrier's angle, so pi added to the three-way parity
    carrier at grid (1, 6) reduces to the compiled shape without getting
    stuck, and the lattice gives the wrong verdict.  Only the isomorphism
    that matches angles (``isomorphic_to_compiled``) tells it apart."""
    f = BooleanFunction(3, 0b01101001)
    p = lattice_pattern_3q(f)
    carrier = mbqc._grid_id((1, 6))
    p = _reangled(p, {carrier: p.angles[carrier] + PI})
    reduced, _ = reduce_lattice(p)
    assert len(reduced.angles) == 11
    compiled = dj_pattern_3q(f)
    assert patterns_isomorphic(_bare(reduced), _bare(compiled))
    assert not patterns_isomorphic(reduced, compiled)
    assert classify(f) is Verdict.BALANCED
    assert run_postselected(p).verdict is Verdict.CONSTANT


# The hand-ordered reduction reduce_lattice ran before it became the general
# simplifier, kept as the reference: decouple the z-basis spares in
# ascending order, fusing the caps each leaves, then complement the +-pi/2
# spares run by run, the ends of a triple before its middle and the +-pi/2
# member of a pair before its 0 member.
_FIXED_ORDER = [(3, 1), (5, 1), (4, 1), (3, 6), (5, 6), (4, 6), (2, 3), (2, 2),
                (2, 5), (3, 4), (6, 3), (6, 2), (6, 5)]


def _fixed_order_reduction(p):
    d = pattern_to_diagram(p)
    qubits = p.qubits()
    node_of = {q: i for i, q in enumerate(qubits)}
    for i, q in enumerate(sorted(p.z_basis)):
        step = decouple_x_state(d, len(qubits) + i)
        for cap in step.after:
            (eid,) = d.edges_at(cap)
            fuse_spiders(d, d.edges[eid].other(cap), cap)
    for r, c in _FIXED_ORDER:
        local_complement(d, node_of[(r - 1) * 6 + (c - 1)])
    return pattern_from_graph_like(d, [node_of[q] for q in p.readouts])


def test_reduce_lattice_matches_the_fixed_order_reduction():
    for f in enumerate_promise(3):
        p = lattice_pattern_3q(f)
        reduced, _ = reduce_lattice(p)
        ref = _fixed_order_reduction(p)
        assert reduced.angles == ref.angles, f.table
        assert reduced.edges == ref.edges, f.table
        assert reduced.readouts == ref.readouts, f.table


def test_reduce_lattice_runs_the_general_rules():
    _, steps = reduce_lattice(lattice_pattern_3q(BooleanFunction(3, 0)))
    assert {s.rule for s in steps} == {
        "decouple_x_state", "fuse_spiders", "hadamard_cancel",
        "local_complement"}


def test_reduce_lattice_verdict_agreement():
    for table in (0, 0b01101001, 0b11110000, 0b11111111):
        f = BooleanFunction(3, table)
        assert run_postselected(lattice_pattern_3q(f)).verdict is classify(f)


def test_reduce_lattice_empty_pattern():
    p = MeasurementPattern({}, set(), [])
    reduced, steps = reduce_lattice(p)
    assert reduced == p and reduced is not p and steps == []


def _diagram_builds(monkeypatch):
    """Record the patterns reduce_lattice builds a diagram of; the test
    takes cold_memos, so the memos start empty."""
    calls = []
    real = mbqc.pattern_to_diagram
    monkeypatch.setattr(mbqc, "pattern_to_diagram",
                        lambda p: (calls.append(p), real(p))[1])
    return calls


def test_reduce_lattice_stuck_on_tampered_angle(monkeypatch, cold_memos):
    builds = _diagram_builds(monkeypatch)
    # grid position (2, 5) must hold -pi/2; at pi it survives with degree 2
    p = _reangled(lattice_pattern_3q(BooleanFunction(3, 0)),
                  {mbqc._grid_id((2, 5)): PI})
    # a build that raises stores nothing, so each repeat reduces afresh
    messages = []
    for _ in range(3):
        with pytest.raises(ReductionStuckError) as error:
            reduce_lattice(p)
        messages.append(str(error.value))
    assert len(builds) == 3
    assert messages == messages[:1] * 3
    assert mbqc._reduction.cache_info()[1:] == (3, MEMO_SHAPES, 0)
    assert circuit._translate.cache_info().misses == 0


@pytest.mark.parametrize("table", [0, 0b01101001])
def test_a_carrier_fused_into_a_spare_leaves_no_stuck_spider(table):
    """pi at grid (3, 1) lets the carrier at (6, 1) fuse into that spare,
    whose survivor holds the carrier: the reduction is not stuck.  Its
    shape is the compiled one; only the angles tell it apart."""
    f = BooleanFunction(3, table)
    p = _reangled(lattice_pattern_3q(f), {mbqc._grid_id((3, 1)): PI})
    reduced, _ = reduce_lattice(p)
    assert len(reduced.angles) == 11
    compiled = dj_pattern_3q(f)
    assert patterns_isomorphic(_bare(reduced), _bare(compiled))
    assert not patterns_isomorphic(reduced, compiled)
    assert run_postselected(p).verdict is classify(f)


def test_warm_reduce_lattice_runs_no_rule(monkeypatch, cold_memos):
    calls = []

    def counting(rule):
        def counted(*args):
            calls.append(rule.__name__)
            return rule(*args)
        return counted

    monkeypatch.setattr(rewrite, "_RULES", tuple(
        (k, counting(rule)) for k, rule in rewrite._RULES))
    first, second = BooleanFunction(3, 0), BooleanFunction(3, 0b01101001)
    reduce_lattice(lattice_pattern_3q(first))
    assert calls
    calls.clear()
    warm, warm_steps = reduce_lattice(lattice_pattern_3q(second))
    assert not calls
    mbqc._reduction.cache_clear()
    cold, cold_steps = reduce_lattice(lattice_pattern_3q(second))
    assert warm.to_json() == cold.to_json()
    assert warm_steps == cold_steps


def test_lattice_memo_hit_equals_a_cold_run(monkeypatch, cold_memos):
    builds = _diagram_builds(monkeypatch)
    reduce_lattice(lattice_pattern_3q(BooleanFunction(3, 0)))
    for f in enumerate_promise(3):
        # each hit replays the reduction stored by the previous table
        builds.clear()
        warm, warm_steps = reduce_lattice(lattice_pattern_3q(f))
        assert not builds, f.table
        mbqc._reduction.cache_clear()
        cold, cold_steps = reduce_lattice(lattice_pattern_3q(f))
        assert len(builds) == 1, f.table
        assert warm.to_json() == cold.to_json(), f.table
        assert list(warm.angles.items()) == list(cold.angles.items())
        assert list(warm.edges) == list(cold.edges), f.table
        assert warm_steps == cold_steps, f.table
    # the lattice's simplifier run is memoized here alone
    assert mbqc._reduction.cache_info().currsize == 1
    assert circuit._translate.cache_info().misses == 0


def test_lattice_memo_hands_out_fresh_containers(monkeypatch, cold_memos):
    """The trace is a fresh list, and the reduced pattern refuses edits."""
    _diagram_builds(monkeypatch)
    f = BooleanFunction(3, 0b11110000)
    first, first_steps = reduce_lattice(lattice_pattern_3q(f))
    expected, expected_steps = first.to_json(), list(first_steps)
    for reduced, steps in (
            (first, first_steps), reduce_lattice(lattice_pattern_3q(f))):
        _assert_refuses_edits(reduced)
        steps.clear()
        again, again_steps = reduce_lattice(lattice_pattern_3q(f))
        assert again.to_json() == expected
        assert again_steps == expected_steps


def test_lattice_memo_keys_on_non_carrier_angles_and_readouts(monkeypatch,
                                                              cold_memos):
    builds = _diagram_builds(monkeypatch)
    f = BooleanFunction(3, 0b01101001)
    reduce_lattice(lattice_pattern_3q(f))
    reduce_lattice(lattice_pattern_3q(BooleanFunction(3, 0b10010110)))
    assert len(builds) == 1  # the carriers alone changed
    p = lattice_pattern_3q(f)
    reversed_readouts, _ = reduce_lattice(replace(p, readouts=p.readouts[::-1]))
    assert len(builds) == 2
    assert reversed_readouts.readouts == reduce_lattice(
        lattice_pattern_3q(f))[0].readouts[::-1]
    # at a non-carrier spare
    reduce_lattice(_reangled(p, {mbqc._grid_id((2, 2)): PI}))  # not stuck: the key stores its reduction
    assert len(builds) == 3
    assert mbqc._reduction.cache_info()[1:] == (3, MEMO_SHAPES, 3)


def test_a_reduction_reads_no_carrier_angle(cold_memos):
    # _reduction runs the rules with the carriers at angle 0; its template,
    # filled with a lattice's carrier angles, is what the rules give on
    # that lattice
    for f in enumerate_promise(3)[::9]:
        p = lattice_pattern_3q(f)
        qubits = p.qubits()
        d = pattern_to_diagram(p)
        steps, _ = rewrite.simplify_core(d, {
            v for v, q in enumerate(qubits) if q in mbqc._LATTICE_CARRIER_IDS})
        cold = pattern_from_graph_like(d, [qubits.index(q) for q in p.readouts])
        reduced, trace = reduce_lattice(p)
        assert (reduced, trace) == (cold, steps), f.table
        assert list(reduced.angles.items()) == list(cold.angles.items())
    assert mbqc._reduction.cache_info()[:2] == (7, 1)


def test_reduce_lattice_stuck_on_missing_spare():
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    gone = 12  # grid position (3, 1)
    p = replace(p, angles={q: a for q, a in p.angles.items() if q != gone},
                edges={e for e in p.edges if gone not in e})
    with pytest.raises(ReductionStuckError):
        reduce_lattice(p)


# -- exact Clifford amplitudes ------------------------------------------------

def _repo_patterns():
    """Every pattern the repo builds: 72 x (hand-built, compiled, lattice,
    reduced lattice), then the 8 two-bit and 4 one-bit patterns."""
    out = []
    for f in enumerate_promise(3):
        d, carriers = to_zx_tracked(oracle_circuit_3q(f))
        compiled = pattern_from_graph_like(
            simplify_mbqc(d, frozenset(carriers))[0])
        lattice = lattice_pattern_3q(f)
        out += [dj_pattern_3q(f), compiled, lattice, reduce_lattice(lattice)[0]]
    out += [dj_pattern_2q(f) for f in enumerate_promise(2)]
    out += [dj_pattern_1q(f) for f in enumerate_promise(1)]
    return out


def _assert_exact_matches_dense(p):
    """Same verdict as the dense contraction and its floor; amplitudes
    within 1e-12 of the floor's scale (the product of the spider norms),
    and an exact 0 wherever the dense verdict is Balanced."""
    d = pattern_to_diagram(p)
    dense, floor = complex(evaluate(d)), collapse_floor(d)
    exact = run_postselected(p)
    constant = abs(dense) > floor
    assert exact.verdict is (Verdict.CONSTANT if constant else Verdict.BALANCED)
    assert abs(exact.amplitude - dense) <= floor * 1e-3
    if not constant:
        assert exact.amplitude == 0
    return constant


def test_the_exact_sum_matches_dense_on_every_repo_pattern():
    patterns = _repo_patterns()
    assert len(patterns) == 300
    constant = [_assert_exact_matches_dense(p) for p in patterns]
    assert sum(constant) == 2 * 4 + 2 + 2


@st.composite
def clifford_patterns(draw, max_qubits=9):
    n = draw(st.integers(min_value=0, max_value=max_qubits))
    z_basis = {q for q in range(n) if draw(st.integers(0, 4)) == 0}
    angles = {q: ZERO if q in z_basis else Phase(draw(st.integers(0, 3)), 2)
              for q in range(n)}
    density = draw(st.floats(0, 1))
    edges = {frozenset(e) for e in itertools.combinations(range(n), 2)
             if draw(st.floats(0, 1)) < density}
    return MeasurementPattern(angles, edges, [], z_basis)


@given(clifford_patterns())
@settings(max_examples=200, deadline=None)
def test_the_exact_sum_matches_dense_on_clifford_patterns(p):
    _assert_exact_matches_dense(p)


def _prelude_builds():
    return mbqc._prelude.cache_info().misses


def test_gflow_and_exact_sum_share_one_prelude(cold_memos):
    p = dj_pattern_3q(BooleanFunction(3, 0))
    run_sampled(p, seed=1, shots=10)  # the gflow search, then the exact sum
    assert _prelude_builds() == 1
    run_sampled(p, seed=1, shots=10)
    assert _prelude_builds() == 1


def test_exact_memo_hit_equals_a_cold_run(cold_memos):
    for build in (dj_pattern_3q, lattice_pattern_3q):
        run_postselected(build(BooleanFunction(3, 0)))
        for f in enumerate_promise(3):
            # each hit reuses the prelude stored by the previous table
            builds = _prelude_builds()
            warm = run_postselected(build(f))
            assert _prelude_builds() == builds, f.table
            mbqc._prelude.cache_clear()
            cold = run_postselected(build(f))
            assert _prelude_builds() == 1, f.table
            assert warm == cold, f.table
    assert mbqc._prelude.cache_info().currsize == 1


@given(clifford_patterns(), st.data())
@settings(max_examples=100, deadline=None)
def test_exact_memo_hit_equals_a_cold_run_on_clifford_patterns(p, data):
    assume(p.z_basis)
    # the same shape at new angles
    q = MeasurementPattern(
        {v: a if v in p.z_basis else Phase(data.draw(st.integers(0, 3)), 2)
         for v, a in p.angles.items()}, p.edges, [], p.z_basis)
    mbqc._prelude.cache_clear()
    run_postselected(p)
    warm = run_postselected(q)
    assert mbqc._prelude.cache_info()[1:] == (1, MEMO_SHAPES, 1)
    mbqc._prelude.cache_clear()
    assert run_postselected(q) == warm


def _cold_run(p):
    """run_postselected on a prelude built afresh, outside the memo."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mbqc, "_prelude", mbqc._prelude.__wrapped__)
        return run_postselected(p)


def test_exact_memo_keeps_no_part_of_the_pattern(cold_memos):
    f = BooleanFunction(3, 0b00001111)
    p = lattice_pattern_3q(f)
    first = run_postselected(p)
    p = replace(p, z_basis=set())  # the same ids and edges, no z-basis qubit
    assert run_postselected(p) == _cold_run(p) != first
    p = replace(p, angles={**p.angles, 0: PI},
                edges=p.edges - set(list(p.edges)[::2]))
    assert run_postselected(p) == _cold_run(p)
    assert _prelude_builds() == 3
    assert run_postselected(lattice_pattern_3q(f)) == first
    assert _prelude_builds() == 3


def test_the_exact_sum_on_small_cases():
    assert run_postselected(MeasurementPattern({}, set(), [])).amplitude == 1
    # an isolated qubit at pi sums to 1 - 1 = 0
    lone = run_postselected(MeasurementPattern({0: PI}, set(), [0]))
    assert lone.verdict is Verdict.BALANCED and lone.amplitude == 0
    # the z-basis qubit 1 fixes its bit to 0, which leaves qubit 0 alone
    pair = MeasurementPattern({0: PI, 1: ZERO}, {frozenset((0, 1))}, [0], {1})
    assert run_postselected(pair).amplitude == 0
    # x_0 sums to 2, the cap pays 2 and the edge 1/sqrt(2)
    pair = _reangled(pair, {0: ZERO})
    assert run_postselected(pair).amplitude == pytest.approx(2 * 2 / 2 ** 0.5)


def test_a_clifford_run_converts_no_angle(monkeypatch, cold_memos):
    # the quarter turns are read from a table built at import, so neither
    # a cold run (a memo miss) nor a warm one (a hit) calls Phase.turns
    calls = []
    real = Phase.turns
    monkeypatch.setattr(Phase, "turns",
                        lambda a, half: (calls.append(a), real(a, half))[1])
    f = BooleanFunction(3, 0b01101001)
    for warm in (False, True):
        for p in (lattice_pattern_3q(f), dj_pattern_3q(f)):
            assert run_postselected(p).verdict is Verdict.BALANCED
        out = run_sampled(dj_pattern_3q(f), shots=100)
        assert out.verdict is Verdict.BALANCED
        assert calls == [], warm


@given(st.integers(-2 ** 12, 2 ** 12),
       st.integers(-2 ** 10, 2 ** 10).filter(bool))
@example(-6, -4)  # 3pi/2, negative and unreduced
@example(12, 8)   # 3pi/2, unreduced
@example(-1, 2)   # 3pi/2
@example(3, 4)    # no multiple of pi/2
def test_the_quarter_turn_table_agrees_with_phase_turns(n, d):
    # a normalized phase is a key exactly when it is a multiple of pi/2,
    # so the table answers None for every other phase
    a = Phase(n, d)
    assert mbqc._QUARTER_TURNS.get(a) == a.turns(2)
    assert len(mbqc._QUARTER_TURNS) == 4


def test_non_clifford_pattern_stores_no_exact_prelude(cold_memos):
    run_postselected(dj_pattern_3q(BooleanFunction(3, 0)))
    saved = mbqc._prelude.cache_info()
    p = _reangled(_triangle_pattern(), {0: QUARTER_PI})
    run_postselected(p)
    assert mbqc._prelude.cache_info() == saved


def test_non_clifford_pattern_keeps_the_dense_route():
    p = _reangled(_triangle_pattern(), {0: QUARTER_PI})
    dense = complex(evaluate(pattern_to_diagram(p)))
    assert repr(run_postselected(p).amplitude) == repr(dense)


def test_clifford_pattern_skips_the_dense_route(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(mbqc, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    f = BooleanFunction(3, 0b01101001)
    triangle = _triangle_pattern()
    cliffords = (dj_pattern_3q(f), lattice_pattern_3q(f), triangle,
                 _reangled(triangle, {0: MINUS_HALF_PI}))
    # each quarter turn sits in some pattern here, so a table without one
    # would send a pattern down the dense route, with the same verdict
    assert {a for p in cliffords for a in p.angles.values()} == {
        ZERO, HALF_PI, PI, MINUS_HALF_PI}
    for name in ("evaluate", "collapse_floor", "pattern_to_diagram"):
        monkeypatch.setattr(mbqc, name, counting(name))
    for p in cliffords[:2]:
        assert run_postselected(p).verdict is Verdict.BALANCED
    for p in cliffords:  # checked against this module's unpatched names
        _assert_exact_matches_dense(p)
    assert calls == []
    p = _reangled(_triangle_pattern(), {0: QUARTER_PI})
    run_postselected(p)
    assert calls == ["pattern_to_diagram", "evaluate", "collapse_floor"]


def test_the_exact_sum_beyond_the_dense_cap(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(tensor, "spider_tensor", unreachable)
    n = 40  # the complete graph: dense planning would peak far above the cap
    p = MeasurementPattern({q: HALF_PI for q in range(n)},
                           {frozenset(e) for e in
                            itertools.combinations(range(n), 2)}, [0])
    out = run_postselected(p)
    # the first bit sums to (1 + i) and empties the graph at angle 0, which
    # leaves 39 factors of 2; each of the 780 edges carries 1/sqrt(2)
    assert out.verdict is Verdict.CONSTANT
    assert out.amplitude == (1 + 1j) * 2.0 ** (39 - 390)


def test_exact_judge_agrees_across_reduce_lattice():
    """Random quarter turns on the lattice's carriers: the lattice and its
    reduction get the same exact verdict, and their |amplitude| ratio is
    one fixed power of sqrt(2) (the scalars the reduction drops)."""
    rng = random.Random(11)
    carriers = sorted(mbqc._LATTICE_CARRIER_IDS)
    ratios, verdicts = set(), set()
    for _ in range(60):
        p = _reangled(lattice_pattern_3q(BooleanFunction(3, 0)),
                      {q: Phase(rng.randrange(4), 2) for q in carriers})
        reduced, _ = reduce_lattice(p)
        big, small = run_postselected(p), run_postselected(reduced)
        assert big.verdict is small.verdict
        verdicts.add(big.verdict)
        if big.verdict is Verdict.CONSTANT:
            ratio = 2 * math.log2(abs(big.amplitude) / abs(small.amplitude))
            assert ratio == pytest.approx(round(ratio), abs=1e-9)
            ratios.add(round(ratio))
    assert verdicts == {Verdict.CONSTANT, Verdict.BALANCED}
    assert len(ratios) == 1
