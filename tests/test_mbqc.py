"""Measurement patterns: serialization, extraction, execution, lattice."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxdj import mbqc, rewrite, tensor
from zxdj.diagram import EdgeKind, SpiderKind, ZxDiagram, new_diagram
from zxdj.errors import (
    NoFlowError,
    NotGraphLikeError,
    NotPromiseError,
    PreconditionFailed,
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
    run_exact,
    run_postselected,
    run_sampled,
)
from zxdj.circuit import to_zx_tracked
from zxdj.oracle import (
    BooleanFunction, Verdict, classify, enumerate_promise, oracle_circuit_3q,
    phase_polynomial)
from zxdj.phase import HALF_PI, PI, Phase, QUARTER_PI, ZERO
from zxdj.rewrite import (
    decouple_x_state, fuse_spiders, local_complement, simplify_mbqc)
from zxdj.tensor import collapse_floor, equivalent_up_to_scalar, evaluate


def _triangle_pattern():
    angles = {0: ZERO, 1: HALF_PI, 2: PI}
    edges = {frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}
    return MeasurementPattern(angles, edges, [2])


# -- representation ----------------------------------------------------------

def test_validate_guards():
    p = _triangle_pattern()
    p.validate()
    bad = MeasurementPattern({0: ZERO}, {frozenset((0, 1))}, [0])
    with pytest.raises(NotGraphLikeError):
        bad.validate()
    bad = MeasurementPattern({0: PI}, set(), [0], z_basis={0})
    with pytest.raises(NotGraphLikeError):
        bad.validate()  # z-basis qubit with a nonzero angle
    for readouts in ([0, 5], [[0]]):  # JSON may give an unhashable one
        bad = MeasurementPattern({0: ZERO}, set(), readouts)
        with pytest.raises(NotGraphLikeError):
            bad.validate()  # readout names no qubit
    bad = MeasurementPattern({0: ZERO}, set(), [0, 0])
    with pytest.raises(NotGraphLikeError):
        bad.validate()  # readout named twice


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
    assert pattern_from_graph_like(d).readouts == [b]
    assert pattern_from_graph_like(d, [a]).readouts == [a]
    with pytest.raises(NotGraphLikeError):
        pattern_from_graph_like(d, [a, 7])


def test_reduced_lattice_keeps_the_lattice_readouts():
    for f in enumerate_promise(3)[::9]:
        lattice = lattice_pattern_3q(f)
        reduced, _ = reduce_lattice(lattice)
        # pattern_to_diagram numbers the qubits in ascending order
        node_of = {q: i for i, q in enumerate(lattice.qubits())}
        assert reduced.readouts == [node_of[q] for q in lattice.readouts]


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


def test_patterns_isomorphic_negative_cases():
    p = _triangle_pattern()
    q = _triangle_pattern()
    q.angles[1] = PI
    assert not patterns_isomorphic(p, q)
    assert patterns_isomorphic(p, q, with_angles=False)
    r = _triangle_pattern()
    r.edges.discard(frozenset((0, 2)))
    assert not patterns_isomorphic(p, r, with_angles=False)


def test_import_leaves_networkx_unloaded():
    """Only patterns_isomorphic needs networkx, and it imports it itself."""
    src = str(Path(mbqc.__file__).resolve().parents[1])
    code = ("import sys, zxdj, zxdj.cli; "
            "assert 'networkx' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


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


def test_run_sampled_rejects_pattern_without_gflow():
    with pytest.raises(NoFlowError):
        run_sampled(lattice_pattern_3q(BooleanFunction(3, 0)), shots=1)
    with pytest.raises(NoFlowError):
        run_sampled(_open_graph(3, [(0, 1), (1, 2)], [1]), shots=1)


def _star(leaves):
    return _open_graph(leaves + 1, [(0, q) for q in range(1, leaves + 1)],
                       range(1, leaves + 1))


def test_frontier_cap_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(mbqc, "_plan_memo", {})  # a cold plan builds signs
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


# The per-shot sampler that branch merging replaced, kept as the reference:
# one state row, signal column and balanced flag per shot.
def _per_shot_sample_block(steps, bras, n_qubits, shots, rng):
    state = np.ones((shots, 1), dtype=complex)
    signals = np.zeros((n_qubits, shots), dtype=np.uint8)
    balanced = np.zeros(shots, dtype=bool)
    for s, bra in zip(steps, bras):
        if s.added:
            state = np.repeat(state, 1 << s.added, axis=1)
        if s.signs is not None:
            state *= s.signs
        halves = state.reshape(shots, 1 << s.bit, 2, -1)
        lifted = bra[signals[s.row]][:, None, None] * halves[:, :, 1]
        b0 = halves[:, :, 0] + lifted
        b1 = halves[:, :, 0] - lifted
        n0, n1 = mbqc._squared_norms(b0), mbqc._squared_norms(b1)
        one = rng.random(shots) >= n0 / (n0 + n1)
        state = np.where(one[:, None, None], b1, b0).reshape(shots, -1)
        state /= np.sqrt(np.where(one, n1, n0))[:, None]
        signals[s.x_rows] ^= one.astype(np.uint8) << 1
        signals[s.z_rows] ^= one.astype(np.uint8)
        if s.readout:
            balanced |= one
    return balanced


def _sampled_outcomes(block_sampler, p, seed, shots):
    """Every shot's Balanced bit, drawn block by block as run_sampled does."""
    g, layer = find_gflow(p)
    steps, width = mbqc._sampling_plan(p, g, layer)
    bras = mbqc._bras(p, steps)
    rng = np.random.default_rng(seed)
    block = max(1, mbqc._BLOCK_AMPLITUDES >> width)
    return np.concatenate([
        block_sampler(steps, bras, len(p.angles), min(block, shots - start),
                      rng)
        for start in range(0, shots, block)])


def _random_flow_patterns(seed, count, max_qubits=8):
    """Seeded random open graphs that have an XY gflow, with readouts in a
    random order and angles drawn from the multiples of pi/4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_qubits)
        pairs = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        outputs = [q for q in range(n) if rng.random() < 0.4]
        rng.shuffle(outputs)
        p = MeasurementPattern({q: Phase(rng.randrange(8), 4) for q in range(n)},
                               {frozenset(e) for e in pairs}, outputs)
        try:
            find_gflow(p)
        except NoFlowError:
            continue
        out.append(p)
    return out


def _promise_patterns():
    return ([dj_pattern_1q(f) for f in enumerate_promise(1)]
            + [dj_pattern_2q(f) for f in enumerate_promise(2)]
            + [dj_pattern_3q(f) for f in enumerate_promise(3)])


def test_branch_merged_sampler_matches_per_shot_on_promise_patterns():
    patterns = _promise_patterns()
    assert len(patterns) == 4 + 8 + 72
    for i, p in enumerate(patterns):
        for seed in (i, 2024):
            want = _sampled_outcomes(_per_shot_sample_block, p, seed, 1000)
            got = _sampled_outcomes(mbqc._sample_block, p, seed, 1000)
            assert np.array_equal(got, want), (i, seed)


def test_branch_merged_sampler_matches_per_shot_on_random_patterns():
    for i, p in enumerate(_random_flow_patterns(17, 150)):
        want = _sampled_outcomes(_per_shot_sample_block, p, i, 777)
        got = _sampled_outcomes(mbqc._sample_block, p, i, 777)
        assert np.array_equal(got, want), p


def test_branch_merged_sampler_matches_per_shot_across_blocks(monkeypatch):
    monkeypatch.setattr(mbqc, "_BLOCK_AMPLITUDES", 1 << 9)
    blocks = 0
    for i, p in enumerate(_random_flow_patterns(23, 20)):
        want = _sampled_outcomes(_per_shot_sample_block, p, i, 777)
        got = _sampled_outcomes(mbqc._sample_block, p, i, 777)
        assert np.array_equal(got, want), p
        out = run_sampled(p, seed=i, shots=777)
        constant = 777 - int(np.count_nonzero(want))
        assert out.agreeing_shots == max(constant, 777 - constant)
        _, width = mbqc._sampling_plan(p, *find_gflow(p))
        blocks += 777 > (1 << 9) >> width
    assert blocks  # some runs take more than one block


# SHA-256 of (verdict, agreeing_shots) over 60 seeded runs on non-promise
# patterns, recorded with the per-shot sampler.
_SAMPLED_DIGEST = (
    "a3c958bf6a8e32a96aeb47a4f6139c4b2df265e9d1584fac0c44fe6b8d8ddf13")


def test_sampled_outcomes_keep_the_pinned_digest():
    record = []
    for i, p in enumerate(_random_flow_patterns(31, 60)):
        out = run_sampled(p, seed=1000 + i, shots=300 + 7 * i)
        record.append([out.verdict.value, out.agreeing_shots])
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == _SAMPLED_DIGEST


def test_branches_never_outnumber_shots_or_histories(monkeypatch):
    rows = []
    real = mbqc._squared_norms
    monkeypatch.setattr(mbqc, "_squared_norms",
                        lambda b: (rows.append(len(b) // 2), real(b))[1])
    for shots in (1, 5, 1000):
        for p in (dj_pattern_3q(BooleanFunction(3, 0b01101001)),
                  *_random_flow_patterns(5, 10)):
            rows.clear()
            _sampled_outcomes(mbqc._sample_block, p, 7, shots)
            # one _squared_norms call per step, on both outcomes of each row
            assert rows
            assert all(r <= min(shots, 2 ** k) for k, r in enumerate(rows))
    assert max(rows) > 1


def _flow_calls(monkeypatch):
    calls = []
    real = mbqc.find_gflow
    monkeypatch.setattr(mbqc, "find_gflow",
                        lambda p: (calls.append(p), real(p))[1])
    return calls


def test_plan_memo_hit_equals_a_cold_run(monkeypatch):
    monkeypatch.setattr(mbqc, "_plan_memo", {})
    calls = _flow_calls(monkeypatch)
    for p in _random_flow_patterns(41, 10) + _promise_patterns()[::9]:
        mbqc._plan_memo.clear()
        cold = run_sampled(p, seed=3, shots=400)
        warm = run_sampled(p, seed=3, shots=400)
        assert (warm.verdict, warm.agreeing_shots) == (
            cold.verdict, cold.agreeing_shots)
    assert len(calls) == 10 + len(_promise_patterns()[::9])


def test_plan_memo_keys_on_shape_not_angles(monkeypatch):
    monkeypatch.setattr(mbqc, "_plan_memo", {})
    calls = _flow_calls(monkeypatch)
    run_sampled(dj_pattern_2q(BooleanFunction(2, 0)), shots=10)
    assert len(calls) == 1
    # all eight two-bit variants share one shape; a new angle hits
    warm = [run_sampled(dj_pattern_2q(f), seed=9, shots=200)
            for f in enumerate_promise(2)]
    assert len(calls) == 1
    cold = []
    for f in enumerate_promise(2):
        mbqc._plan_memo.clear()
        cold.append(run_sampled(dj_pattern_2q(f), seed=9, shots=200))
    assert warm == cold
    calls.clear()
    p = dj_pattern_2q(BooleanFunction(2, 6))
    p.readouts.reverse()  # the readout order is part of the schedule
    run_sampled(p, shots=10)
    p.edges.add(frozenset((0, 3)))
    run_sampled(p, shots=10)
    p.angles[6] = ZERO
    p.edges.add(frozenset((5, 6)))
    run_sampled(p, shots=10)
    assert len(calls) == 3
    assert len(mbqc._plan_memo) == 4


def test_plan_memo_stores_no_failure(monkeypatch):
    monkeypatch.setattr(mbqc, "_plan_memo", {})
    for p, error in ((_open_graph(3, [(0, 1), (1, 2)], [1]), NoFlowError),
                     (_star(mbqc.MAX_FRONTIER + 1), WidthTooLargeError)):
        for _ in range(3):
            with pytest.raises(error):
                run_sampled(p, shots=5)
        assert mbqc._plan_memo == {}


def test_plan_memo_stays_within_memo_shapes(monkeypatch):
    monkeypatch.setattr(mbqc, "_plan_memo", {})
    monkeypatch.setattr(tensor, "MEMO_SHAPES", 4)
    for n in range(1, 11):
        run_sampled(_open_graph(n, [(q, q + 1) for q in range(n - 1)],
                                [n - 1]), shots=5)
        assert len(mbqc._plan_memo) <= 4
    assert len(mbqc._plan_memo) == 4


# -- lattice embedding -------------------------------------------------------

def test_lattice_pattern_shape():
    p = lattice_pattern_3q(BooleanFunction(3, 0b01101001))
    assert len(p.qubits()) == 36
    assert len(p.edges) == 2 * 6 * 5  # grid adjacency
    assert len(p.z_basis) == 12
    assert len(p.readouts) == 3
    with pytest.raises(NotPromiseError):
        lattice_pattern_3q(BooleanFunction(2, 6))



# How lattice_pattern_3q built the grid before it became a module
# constant, kept as the reference: it sweeps the whole grid on every call.
def _swept_lattice_pattern(f):
    layout = mbqc._lattice_layout(phase_polynomial(f).coeffs)
    angles = {}
    z_basis = set()
    for pos, entry in layout.items():
        q = mbqc._grid_id(pos)
        if entry == "z":
            angles[q] = ZERO
            z_basis.add(q)
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
        # the same iteration order, so pattern_to_diagram numbers the
        # edges as before and the rewrite traces stay the same
        assert list(p.edges) == list(ref.edges), f.table
        assert list(p.angles) == list(ref.angles), f.table


def test_lattice_patterns_own_their_containers():
    f = BooleanFunction(3, 0b01101001)
    p = lattice_pattern_3q(f)
    p.angles[12] = PI
    p.edges.clear()
    p.readouts.append(0)
    p.z_basis.add(0)
    assert lattice_pattern_3q(f) == _swept_lattice_pattern(f)

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
    assert reduced is p and steps == []


def test_reduce_lattice_stuck_on_tampered_angle(monkeypatch):
    monkeypatch.setattr(rewrite, "_rewrite_memo", {})
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    p.angles[12] = PI  # grid position (3, 1) must hold a quarter turn
    # the second call replays the memoized stuck reduction
    for _ in range(2):
        with pytest.raises(ReductionStuckError):
            reduce_lattice(p)


def test_warm_reduce_lattice_runs_no_rule(monkeypatch):
    monkeypatch.setattr(rewrite, "_rewrite_memo", {})
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
    rewrite._rewrite_memo.clear()
    cold, cold_steps = reduce_lattice(lattice_pattern_3q(second))
    assert warm.to_json() == cold.to_json()
    assert warm_steps == cold_steps


def test_reduce_lattice_stuck_on_missing_spare():
    p = lattice_pattern_3q(BooleanFunction(3, 0))
    gone = 12  # grid position (3, 1)
    del p.angles[gone]
    p.edges = {e for e in p.edges if gone not in e}
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
    dense, floor = evaluate(d).scalar(), collapse_floor(d)
    exact = run_exact(p)
    constant = abs(dense) > floor
    assert exact.verdict is (Verdict.CONSTANT if constant else Verdict.BALANCED)
    assert abs(exact.amplitude - dense) <= floor * 1e-3
    if not constant:
        assert exact.amplitude == 0
    return constant


def test_run_exact_matches_dense_on_every_repo_pattern():
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
def test_run_exact_matches_dense_on_clifford_patterns(p):
    _assert_exact_matches_dense(p)


def test_run_exact_small_cases():
    assert run_exact(MeasurementPattern({}, set(), [])).amplitude == 1
    # an isolated qubit at pi sums to 1 - 1 = 0
    lone = run_exact(MeasurementPattern({0: PI}, set(), [0]))
    assert lone.verdict is Verdict.BALANCED and lone.amplitude == 0
    # the z-basis qubit 1 fixes its bit to 0, which leaves qubit 0 alone
    pair = MeasurementPattern({0: PI, 1: ZERO}, {frozenset((0, 1))}, [0], {1})
    assert run_exact(pair).amplitude == 0
    # x_0 sums to 2, the cap pays 2 and the edge 1/sqrt(2)
    pair.angles[0] = ZERO
    assert run_exact(pair).amplitude == pytest.approx(2 * 2 / 2 ** 0.5)


def test_run_exact_refuses_a_quarter_turn():
    with pytest.raises(PreconditionFailed):
        run_exact(MeasurementPattern({0: QUARTER_PI}, set(), [0]))


def test_non_clifford_pattern_keeps_the_dense_route():
    p = _triangle_pattern()
    p.angles[0] = QUARTER_PI
    dense = evaluate(pattern_to_diagram(p)).scalar()
    assert repr(run_postselected(p).amplitude) == repr(dense)


def test_clifford_pattern_skips_the_dense_route(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(mbqc, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("evaluate", "collapse_floor", "pattern_to_diagram"):
        monkeypatch.setattr(mbqc, name, counting(name))
    f = BooleanFunction(3, 0b01101001)
    for p in (dj_pattern_3q(f), lattice_pattern_3q(f)):
        assert run_postselected(p).verdict is Verdict.BALANCED
    assert calls == []
    p = _triangle_pattern()
    p.angles[0] = QUARTER_PI
    run_postselected(p)
    assert calls == ["pattern_to_diagram", "evaluate", "collapse_floor"]


def test_run_exact_beyond_the_dense_cap(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(tensor, "_execute", unreachable)
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
    carriers = [mbqc._grid_id(pos) for pos in sorted(mbqc._LATTICE_CARRIERS)]
    ratios, verdicts = set(), set()
    for _ in range(60):
        p = lattice_pattern_3q(BooleanFunction(3, 0))
        for q in carriers:
            p.angles[q] = Phase(rng.randrange(4), 2)
        reduced, _ = reduce_lattice(p)
        big, small = run_exact(p), run_exact(reduced)
        assert big.verdict is small.verdict
        verdicts.add(big.verdict)
        if big.verdict is Verdict.CONSTANT:
            ratio = 2 * math.log2(abs(big.amplitude) / abs(small.amplitude))
            assert ratio == pytest.approx(round(ratio), abs=1e-9)
            ratios.add(round(ratio))
    assert verdicts == {Verdict.CONSTANT, Verdict.BALANCED}
    assert len(ratios) == 1
