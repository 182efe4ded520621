"""Circuit IR: gate guards, dense unitaries, ZX translation, promise runs."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxdj import circuit
from zxdj.circuit import (
    MAX_WIDTH,
    Circuit,
    Gate,
    _apply_gates,
    cnot,
    dj_run_circuit,
    dj_verdict,
    hadamard,
    pauli_y,
    pauli_z,
    phase_gate,
    plus_amplitude,
    to_zx,
    to_zx_tracked,
    unitary,
)
from zxdj.diagram import SpiderKind
from zxdj.errors import ArityMismatchError, NotPromiseError, WidthTooLargeError
from zxdj.oracle import Verdict, classify, enumerate_promise, oracle_circuit_3q
from zxdj.phase import HALF_PI, PI, Phase, QUARTER_PI, ZERO
from zxdj.tensor import equivalent_up_to_scalar, evaluate

# -- independent matrix oracle ----------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_Z = np.diag([1, -1]).astype(complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _embed_1q(mat, qubit, width):
    """Kron the single-qubit matrix onto the given wire (qubit 0 = MSB)."""
    out = np.eye(1, dtype=complex)
    for q in range(width):
        out = np.kron(out, mat if q == qubit else np.eye(2, dtype=complex))
    return out


def _embed_cnot(control, target, width):
    dim = 2 ** width
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        c = (col >> (width - 1 - control)) & 1
        row = col ^ (c << (width - 1 - target))
        out[row, col] = 1
    return out


def _reference_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(2 ** c.width, dtype=complex)
    for g in c.gates:
        if g.op == "phase":
            m = _embed_1q(np.diag([1, g.phase.phase_factor()]), g.qubits[0],
                          c.width)
        elif g.op == "z":
            m = _embed_1q(_Z, g.qubits[0], c.width)
        elif g.op == "y":
            m = _embed_1q(_Y, g.qubits[0], c.width)
        elif g.op == "h":
            m = _embed_1q(_H, g.qubits[0], c.width)
        else:
            m = _embed_cnot(g.qubits[0], g.qubits[1], c.width)
        u = m @ u
    return u


def _random_circuit(rng, width, depth, kinds=("phase", "z", "y", "h", "cnot"),
                    half=4):
    """A circuit of ``depth`` gates drawn from ``kinds``, with phases at
    multiples of pi/half."""
    one_qubit = [k for k in kinds if k != "cnot"]
    gates = []
    for _ in range(depth):
        kind = rng.choice(kinds if width > 1 else one_qubit)
        if kind == "phase":
            gates.append(phase_gate(rng.randrange(width),
                                    Phase(rng.randrange(2 * half), half)))
        elif kind == "cnot":
            a, b = rng.sample(range(width), 2)
            gates.append(cnot(a, b))
        else:
            ctor = {"z": pauli_z, "y": pauli_y, "h": hadamard}[kind]
            gates.append(ctor(rng.randrange(width)))
    return Circuit(width, gates)


# -- gate and circuit guards -------------------------------------------------

def test_gate_guards():
    with pytest.raises(ArityMismatchError):
        Gate("h", (0, 1))
    with pytest.raises(ArityMismatchError):
        Gate("cnot", (0, 0))
    with pytest.raises(ArityMismatchError):
        Gate("cnot", (0,))
    with pytest.raises(ArityMismatchError):
        Gate("swap", (0, 1))
    with pytest.raises(ArityMismatchError):
        Gate("h", (0,), PI)  # angle only belongs on the phase op
    with pytest.raises(ArityMismatchError):
        Gate("phase", (0,))  # phase op requires an angle


def test_circuit_range_guard():
    with pytest.raises(ArityMismatchError):
        Circuit(1, [hadamard(1)])


def test_width_guard():
    with pytest.raises(WidthTooLargeError):
        unitary(Circuit(11, []))
    with pytest.raises(WidthTooLargeError):
        plus_amplitude(Circuit(11, []))


@pytest.mark.parametrize("width", [-1, 2.0, "3", True, None])
def test_width_must_be_a_non_negative_int(width):
    with pytest.raises(ValueError):
        Circuit(width, [])


def test_qubits_must_be_ints():
    for qubits in ((0.0,), (True,), ("0",)):
        with pytest.raises(ValueError):
            Gate("h", qubits)


# -- unitary semantics -------------------------------------------------------

def test_single_gate_matrices():
    cases = [
        (hadamard(0), _H),
        (pauli_z(0), _Z),
        (pauli_y(0), _Y),
        (phase_gate(0, QUARTER_PI), np.diag([1, np.exp(1j * math.pi / 4)])),
    ]
    for gate, expected in cases:
        u = unitary(Circuit(1, [gate]))
        assert np.allclose(u, expected), gate.op


def test_cnot_qubit_order():
    # qubit 0 is the most significant bit: cnot(0, 1) flips the low bit
    # exactly on inputs |10> and |11>
    u = unitary(Circuit(2, [cnot(0, 1)]))
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.allclose(u, expected)
    # and cnot(1, 0) flips the high bit on inputs with low bit set
    u = unitary(Circuit(2, [cnot(1, 0)]))
    expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert np.allclose(u, expected)


def test_unitary_matches_reference_composition():
    rng = random.Random(7)
    for _ in range(30):
        c = _random_circuit(rng, rng.randint(1, 3), rng.randint(0, 8))
        u = unitary(c)
        assert np.allclose(u, _reference_unitary(c), atol=1e-12)


def test_unitary_is_unitary():
    rng = random.Random(13)
    for _ in range(10):
        c = _random_circuit(rng, 3, 6)
        u = unitary(c)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


# -- serialization -----------------------------------------------------------

def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        c = _random_circuit(rng, 3, 6)
        c2 = Circuit.from_json(c.to_json())
        assert c2 == c


# -- ZX translation ----------------------------------------------------------

def test_to_zx_matches_unitary():
    rng = random.Random(21)
    for _ in range(30):
        c = _random_circuit(rng, rng.randint(1, 3), rng.randint(0, 8))
        m = evaluate(to_zx(c)).reshape(2 ** c.width, -1)
        ok, _ = equivalent_up_to_scalar(m, _reference_unitary(c))
        assert ok


def test_to_zx_tracked_carriers():
    c = Circuit(2, [phase_gate(0, HALF_PI), pauli_z(1), pauli_y(0),
                    hadamard(1), cnot(0, 1)])
    d, carriers = to_zx_tracked(c)
    # phase -> 1 carrier, z -> 1, y -> 2 (X then Z); h and cnot -> none
    assert len(carriers) == 4
    assert d.spiders[carriers[0]].phase == HALF_PI
    assert d.spiders[carriers[1]].phase == PI
    assert d.spiders[carriers[2]].kind is SpiderKind.X
    assert d.spiders[carriers[3]].kind is SpiderKind.Z
    assert all(v in d.spiders for v in carriers)


def _translation(c):
    """Everything of to_zx_tracked's result a later stage may read: the
    document, the carriers, the next ids, and the dict and incidence
    orders that a copy keeps."""
    d, carriers = to_zx_tracked(c)
    return (d.to_json_dict(), carriers, d._next_node, d._next_edge,
            list(d.spiders), list(d.edges),
            [list(ids) for ids in d._incident.values()])


# one shape with every gate kind: a phase gate and Z take one carrier, Y
# takes two, H and CNOT none; one phase gate is at angle 0
def _mixed_circuit(phases):
    a, b, c = phases
    return Circuit(3, [phase_gate(0, a), pauli_z(1), pauli_y(2), hadamard(0),
                       cnot(0, 1), phase_gate(1, ZERO), hadamard(2),
                       phase_gate(2, b), cnot(2, 0), pauli_y(0),
                       phase_gate(0, c), hadamard(1)])


_MIXED_PHASES = [(ZERO, ZERO, ZERO), (HALF_PI, PI, QUARTER_PI),
                 (Phase(3, 4), ZERO, Phase(7, 4)), (PI, HALF_PI, ZERO)]


def test_zx_memo_hit_equals_a_cold_run(cold_memos):
    circuits = ([oracle_circuit_3q(f) for f in enumerate_promise(3)]
                + [_mixed_circuit(phases) for phases in _MIXED_PHASES])
    for c in circuits:
        warm = _translation(c)  # a hit after the first of each shape
        circuit._translate.cache_clear()
        assert _translation(c) == warm
    assert circuit._translate.cache_info().currsize == 1


def test_zx_memo_keys_on_shape_not_phases(cold_memos):
    for phases in _MIXED_PHASES:
        to_zx_tracked(_mixed_circuit(phases))
    assert circuit._translate.cache_info().misses == 1
    shapes = [Circuit(3, [cnot(0, 1)]), Circuit(3, [cnot(1, 0)]),
              Circuit(2, [cnot(0, 1)]), Circuit(3, [pauli_z(0)]),
              Circuit(3, [pauli_y(0)]), Circuit(3, [phase_gate(0, PI)])]
    for c in shapes:
        to_zx_tracked(c)
    assert circuit._translate.cache_info().misses == 1 + len(shapes)
    assert to_zx_tracked(Circuit(3, [phase_gate(0, HALF_PI)]))[0].spiders[
        3].phase == HALF_PI
    assert circuit._translate.cache_info()[:2] == (
        len(_MIXED_PHASES), 1 + len(shapes))


def test_translate_reads_only_the_memo_key():
    """``_translate`` of to_zx_tracked's key is the translation of the
    circuit with every phase gate at phase 0."""
    circuits = ([oracle_circuit_3q(f) for f in enumerate_promise(3)[::9]]
                + [_mixed_circuit(phases) for phases in _MIXED_PHASES])
    for c in circuits:
        record = circuit._translate.__wrapped__(
            c.width, tuple([(g.op, tuple(g.qubits)) for g in c.gates]))
        d, carriers, phased = record.diagram, record.carriers, record.phased
        zeroed = Circuit(c.width, [phase_gate(g.qubits[0], ZERO)
                                   if g.op == "phase" else g for g in c.gates])
        e, expected = to_zx_tracked(zeroed)
        assert d.to_json_dict() == e.to_json_dict()
        assert (list(carriers), d._next_node, d._next_edge) == (
            expected, e._next_node, e._next_edge)
        # the phase gates' spiders take their phases back
        for v, g in zip(phased, [g for g in c.gates if g.op == "phase"],
                        strict=True):
            d.spiders[v].phase = g.phase
        assert d.to_json_dict() == to_zx_tracked(c)[0].to_json_dict()


def test_zx_memo_hands_out_fresh_diagrams(cold_memos):
    c = _mixed_circuit(_MIXED_PHASES[1])
    expected = _translation(c)
    circuit._translate.cache_clear()
    for _ in range(2):  # the cold result, then a hit
        d, carriers = to_zx_tracked(c)
        for v in carriers:
            d.spiders[v].phase = QUARTER_PI
            d.spiders[v].kind = SpiderKind.X
        d.remove_edge(min(d.edges))
        d.add_spider(SpiderKind.X, PI)
        d.inputs.reverse()
        d.outputs.clear()
        carriers.append(99)
        assert _translation(c) == expected


# -- promise runs ------------------------------------------------------------

def test_plus_amplitude_identity():
    assert plus_amplitude(Circuit(2, [])) == pytest.approx(1)


def test_plus_amplitude_phase_flip():
    # Z on one wire sends |+> to |->: overlap with |+> is 0
    assert plus_amplitude(Circuit(1, [pauli_z(0)])) == pytest.approx(0)


@given(st.randoms(use_true_random=False), st.integers(0, 4),
       st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_plus_amplitude_matches_the_unitary(rng, width, depth):
    c = _random_circuit(rng, width, depth) if width else Circuit(0, [])
    expected = unitary(c).sum() / 2 ** width
    assert abs(plus_amplitude(c) - expected) <= 1e-12


@given(st.randoms(use_true_random=False), st.integers(1, 5),
       st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_gatewise_updates_match_the_reference_composition(rng, width, depth):
    # plus_amplitude and unitary apply every gate by the one slice rule of
    # _apply_gates, in place on the target qubit's 0 and 1 slices; the
    # reference is the product of kron-embedded gate matrices
    c = _random_circuit(rng, width, depth)
    ref = _reference_unitary(c)
    assert abs(plus_amplitude(c) - ref.sum() / 2 ** width) <= 1e-12
    assert np.allclose(unitary(c), ref, atol=1e-12)


def _one_gate_cases(width):
    """Every gate kind on every qubit of ``width`` wires, each CNOT in both
    qubit orders, so its control sits above and below its target."""
    for q in range(width):
        yield phase_gate(q, Phase(1, 8))
        yield phase_gate(q, Phase(3, 4))
        yield pauli_z(q)
        yield pauli_y(q)
        yield hadamard(q)
    for control, target in itertools.permutations(range(width), 2):
        yield cnot(control, target)


@pytest.mark.parametrize("width", range(1, 5))
def test_every_gate_rewrites_the_state_in_place(width):
    # the slice rule's contract: each gate updates the very array it is
    # given, on a plain state and with unitary's trailing column axis
    rng = np.random.default_rng(width)
    dim = 2 ** width
    for g in _one_gate_cases(width):
        c = Circuit(width, [g])
        ref = _reference_unitary(c)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = psi.reshape((2,) * width).copy()
        assert _apply_gates(c, state) is state
        assert np.allclose(state.reshape(dim), ref @ psi, atol=1e-12)
        columns = np.eye(dim, dtype=complex).reshape((2,) * width + (dim,))
        assert _apply_gates(c, columns) is columns
        assert np.allclose(columns.reshape(dim, dim), ref, atol=1e-12)


def test_cnot_updates_in_either_qubit_order():
    for control, target in itertools.permutations(range(3), 2):
        c = Circuit(3, [hadamard(control), cnot(control, target),
                        phase_gate(target, HALF_PI)])
        assert np.allclose(unitary(c), _reference_unitary(c))


def test_dj_run_circuit_verdicts():
    assert dj_run_circuit(Circuit(2, [])) is Verdict.CONSTANT
    assert dj_run_circuit(Circuit(2, [pauli_z(0)])) is Verdict.BALANCED


def test_dj_run_circuit_rejects_non_promise():
    # a Hadamard is not a phase oracle for any promise function
    with pytest.raises(NotPromiseError):
        dj_run_circuit(Circuit(1, [hadamard(0)]))


def _judge(route, c):
    """The verdict of ``route`` on ``c``, or its ``NotPromiseError``
    message."""
    try:
        return route(c)
    except NotPromiseError as exc:
        return str(exc)


def _state_vector_verdict(c):
    return dj_verdict(plus_amplitude(c))


@given(st.randoms(use_true_random=False), st.integers(0, 5),
       st.integers(0, 16))
@settings(max_examples=200, deadline=None)
def test_exact_route_matches_the_state_vector(rng, width, depth):
    # every gate kind but H, at phases that are multiples of pi/32 (six
    # bit-planes, so a carry ripples through several): the path sum decides
    # every circuit, and must give the verdict, or the message, that the
    # state vector gives
    c = (_random_circuit(rng, width, depth, ("phase", "z", "y", "cnot"), 32)
         if width else Circuit(0, []))
    assert _judge(dj_run_circuit, c) == _judge(_state_vector_verdict, c)


def _refuse_the_state_vector(monkeypatch):
    def refuse(c):
        raise AssertionError("the state vector was built")

    monkeypatch.setattr(circuit, "plus_amplitude", refuse)
    monkeypatch.delattr(circuit, "_TOL")


def test_exact_route_builds_no_state_vector(monkeypatch):
    _refuse_the_state_vector(monkeypatch)
    for f in enumerate_promise(3):
        assert dj_run_circuit(oracle_circuit_3q(f)) is classify(f)


@pytest.mark.parametrize("c", [
    Circuit(1, [phase_gate(0, Phase(1, 8))]),
    Circuit(2, [phase_gate(0, Phase(1, 8)), phase_gate(0, Phase(15, 8)),
                pauli_y(1)]),
], ids=["eighth-pi", "eighth-pi-undone"])
def test_dyadic_phase_circuits_build_no_state_vector(monkeypatch, c):
    # |<+|U|+>| = cos(pi/16) is no promise magnitude; pi/8 then 15pi/8 is
    # the identity, and Y on wire 1 makes the circuit balanced
    dense = _judge(_state_vector_verdict, c)
    _refuse_the_state_vector(monkeypatch)
    assert _judge(dj_run_circuit, c) == dense


def test_a_phase_the_float_judge_misreads_is_no_promise():
    # |<+|U|+>| = cos(pi/2^17) is within _TOL of 1, so the state vector
    # reads Constant; the path sum counts a_0 = a_1 = 1 at half = 2^16,
    # which is neither a zero sum nor one |a_j| = 2
    c = Circuit(1, [phase_gate(0, Phase(1, 2 ** 16))])
    assert dj_verdict(plus_amplitude(c)) is Verdict.CONSTANT
    with pytest.raises(NotPromiseError, match="neither 0 nor 1"):
        dj_run_circuit(c)


def test_the_not_promise_message_never_reads_0_or_1():
    # cos(pi/2^17) rounds to 1.000000 at six decimals, so it is printed in
    # full; cos(pi/4) keeps its six decimals
    with pytest.raises(NotPromiseError) as fine:
        dj_run_circuit(Circuit(1, [phase_gate(0, Phase(1, 2 ** 16))]))
    assert "neither 0 nor 1" in str(fine.value)
    assert "= 1.000000" not in str(fine.value)
    assert "= 0.99999999971" in str(fine.value)  # cos(pi/2^17) in full
    with pytest.raises(NotPromiseError, match=r"= 0\.707107 is neither"):
        dj_run_circuit(Circuit(1, [phase_gate(0, HALF_PI)]))
    assert "= 1e-09 is" in str(circuit._not_promise(1e-9))


def test_verdict_is_one_class():
    import zxdj
    from zxdj import oracle

    assert zxdj.Verdict is oracle.Verdict is circuit.Verdict


def test_a_fine_dyadic_phase_takes_as_many_planes_as_it_needs():
    # 201 bit-planes: the paths are split one plane at a time, never
    # counted over all 2^201 values of k
    rng = random.Random(200)
    half = 2 ** 200
    c = Circuit(MAX_WIDTH, [
        phase_gate(rng.randrange(MAX_WIDTH),
                   Phase(rng.randrange(2 * half), half))
        for _ in range(20)])
    undone = Circuit(MAX_WIDTH, c.gates + [
        phase_gate(g.qubits[0], -g.phase) for g in c.gates])
    start = time.perf_counter()
    with pytest.raises(NotPromiseError):
        dj_run_circuit(c)
    assert dj_run_circuit(undone) is Verdict.CONSTANT
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("c", [
    Circuit(1, [hadamard(0)]),
    Circuit(1, [hadamard(0), pauli_z(0), hadamard(0)]),
    Circuit(2, [cnot(0, 1), hadamard(1), hadamard(1), pauli_z(0)]),
    Circuit(1, [phase_gate(0, Phase(1, 3))]),
    Circuit(2, [phase_gate(1, Phase(1, 3)), pauli_y(0),
                phase_gate(1, Phase(5, 3))]),
], ids=["h", "h-z-h", "h-h-z", "third-pi", "third-pi-undone"])
def test_hadamard_and_eighth_pi_circuits_take_the_state_vector(monkeypatch,
                                                                c):
    # only an H gate or a non-dyadic phase takes the state vector
    calls = []
    real = circuit.plus_amplitude
    monkeypatch.setattr(circuit, "plus_amplitude",
                        lambda c: (calls.append(c), real(c))[1])
    assert _judge(dj_run_circuit, c) == _judge(_state_vector_verdict, c)
    assert calls[0] is c


@pytest.mark.parametrize("kinds", [
    ("cnot",), ("z", "cnot"), ("phase", "cnot"), ("phase", "z", "y", "cnot"),
], ids=["constant", "balanced", "neither", "every-kind"])
def test_a_full_width_hadamard_pair_takes_the_state_vector(monkeypatch,
                                                           kinds):
    # an H.H pair inserted into a MAX_WIDTH circuit at multiples of pi/4
    # sends it to the state vector, which must judge it as the exact route
    # judges the circuit without the pair: with these seeds and kinds the
    # verdicts are constant, balanced, a NotPromiseError and balanced
    rng = random.Random(MAX_WIDTH)
    c = _random_circuit(rng, MAX_WIDTH, 60, kinds)
    at, q = rng.randrange(len(c.gates) + 1), rng.randrange(MAX_WIDTH)
    padded = Circuit(MAX_WIDTH,
                     c.gates[:at] + [hadamard(q), hadamard(q)] + c.gates[at:])
    calls = []
    real = circuit.plus_amplitude
    monkeypatch.setattr(circuit, "plus_amplitude",
                        lambda c: (calls.append(c), real(c))[1])
    exact = _judge(dj_run_circuit, c)
    assert not calls
    assert _judge(dj_run_circuit, padded) == exact
    assert len(calls) == 1 and calls[0] is padded
