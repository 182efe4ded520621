"""Gate-list circuit IR, dense unitary simulation, and ZX translation."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .diagram import EdgeKind, SpiderKind, ZxDiagram, _Record, _View
from .errors import ArityMismatchError, NotPromiseError, WidthTooLargeError
from .phase import Phase, PI, ZERO
from .rewrite import MEMO_SHAPES
from .tensor import _TOL

if TYPE_CHECKING:
    import numpy as np

# ops: "phase" (1q, carries an angle), "cnot" (control, target),
#      "z", "y", "h" (1q)
_ONE_QUBIT_OPS = {"phase", "z", "y", "h"}


class Verdict(Enum):
    """The promise verdict; ``dj_run_circuit`` and ``dj_verdict`` return it."""

    CONSTANT = "constant"
    BALANCED = "balanced"


@dataclass(frozen=True)
class Gate:
    op: str
    qubits: tuple[int, ...]
    phase: Phase | None = None

    def __post_init__(self):
        if not all(isinstance(q, int) and not isinstance(q, bool)
                   for q in self.qubits):
            raise ValueError(f"qubits {self.qubits!r} are not all ints")
        if self.op in _ONE_QUBIT_OPS:
            if len(self.qubits) != 1:
                raise ArityMismatchError(f"{self.op} acts on one qubit")
        elif self.op == "cnot":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ArityMismatchError("cnot needs two distinct qubits")
        else:
            raise ArityMismatchError(f"unknown op {self.op!r}")
        if (self.phase is not None) != (self.op == "phase"):
            raise ArityMismatchError("exactly the phase op carries an angle")


def phase_gate(qubit: int, angle: Phase) -> Gate:
    return Gate("phase", (qubit,), angle)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def pauli_z(qubit: int) -> Gate:
    return Gate("z", (qubit,))


def pauli_y(qubit: int) -> Gate:
    return Gate("y", (qubit,))


def hadamard(qubit: int) -> Gate:
    return Gate("h", (qubit,))


@dataclass
class Circuit:
    width: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if (isinstance(self.width, bool) or not isinstance(self.width, int)
                or self.width < 0):
            raise ValueError(f"width {self.width!r} is not a non-negative int")
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise ArityMismatchError(
                    f"gate {g.op} out of range for width {self.width}")

    def to_json_dict(self) -> dict:
        gates = []
        for g in self.gates:
            rec = {"op": g.op, "qubits": list(g.qubits)}
            if g.phase is not None:
                rec["phase"] = str(g.phase)
            gates.append(rec)
        return {"width": self.width, "gates": gates}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Circuit":
        """Load a circuit document; ``ValueError`` where ``"gates"`` is not
        a list."""
        if not isinstance(doc["gates"], list):
            raise ValueError("gates must be a list")
        gates = [
            Gate(rec["op"], tuple(rec["qubits"]),
                 Phase.parse(rec["phase"]) if "phase" in rec else None)
            for rec in doc["gates"]
        ]
        return cls(doc["width"], gates)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_json_dict(json.loads(text))


# Widest circuit simulated densely.
MAX_WIDTH = 10


def _apply_gates(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the gates to ``state`` in place and return it.  Its axes 0..w-1
    are the qubits; further axes, like :func:`unitary`'s columns, ride along.

    Every gate rewrites its target qubit's ``0`` and ``1`` slices s0, s1,
    a CNOT only where its control is ``1``: a phase or Z gate multiplies
    s1 by its factor, a CNOT swaps s0 and s1, Y sets them to
    (-i s1, i s0) and H to ((s0 + s1)/sqrt(2), (s0 - s1)/sqrt(2)).
    """
    for g in c.gates:
        q = g.qubits[-1]
        # the trailing Ellipsis keeps s0 and s1 views even where every axis
        # is indexed, so each branch writes through them
        at = [slice(None)] * (max(g.qubits) + 1) + [...]
        if g.op == "cnot":
            at[g.qubits[0]] = 1
        at[q] = 0
        s0 = state[tuple(at)]
        at[q] = 1
        s1 = state[tuple(at)]
        if g.op in ("phase", "z"):
            s1 *= -1 if g.op == "z" else g.phase.phase_factor()
        elif g.op == "cnot":
            s0[...], s1[...] = s1, s0.copy()
        elif g.op == "y":
            s0[...], s1[...] = -1j * s1, 1j * s0
        else:
            # one temporary: at MAX_WIDTH a unitary's slice is 8 MiB
            diff = s0 - s1
            s0 += s1
            s0 *= math.sqrt(0.5)
            diff *= math.sqrt(0.5)
            s1[...] = diff
    return state


def _check_width(c: Circuit) -> None:
    if c.width > MAX_WIDTH:
        raise WidthTooLargeError(f"width {c.width} exceeds {MAX_WIDTH}")


def unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit as a 2^w x 2^w matrix, output index by
    input index; qubit 0 is the most significant bit of each."""
    import numpy as np

    _check_width(c)
    w = c.width
    # row axes 0..w-1 are the output qubits; the flat column axis is last
    state = np.eye(2 ** w, dtype=complex).reshape((2,) * w + (2 ** w,))
    return _apply_gates(c, state).reshape(2 ** w, 2 ** w)


def to_zx_tracked(c: Circuit):
    """Translate a circuit to a diagram, reporting parameter spider ids.

    Returns ``(diagram, carriers)`` where ``carriers`` lists the node ids of
    phase-carrying spiders (phase gates and Pauli Z/Y translations) in gate
    order.

    The diagram is built from the circuit's shape alone, its width and each
    gate's op and qubits (:func:`_translate`).  Every call returns a fresh
    list and a view (``diagram._View``) of the stored diagram whose values
    are the phase gates' phases by index, which copies the diagram on its
    first read or write.
    """
    record, carriers = _translate(c.width, tuple([(g.op, tuple(g.qubits))
                                                  for g in c.gates]))
    return _View(record, dict(enumerate(
        [g.phase for g in c.gates if g.op == "phase"]))), list(carriers)


@functools.lru_cache(MEMO_SHAPES)
def _translate(width: int, ops: tuple) -> tuple[_Record, tuple]:
    """The translation record of a circuit of ``width`` and gates ``ops``,
    as (op, qubits) pairs, and the ids of all its carriers.  The record's
    carriers are its phase gates' spiders, the i-th at phase 0 with the
    source i."""
    d = ZxDiagram()
    last = [d.add_spider(SpiderKind.Z, ZERO) for _ in range(width)]
    d.inputs = list(last)
    pending = [EdgeKind.PLAIN] * width
    carriers: list[int] = []
    phased: list[tuple[int, Phase, tuple]] = []

    def extend(wire: int, kind: SpiderKind, phase: Phase) -> int:
        v = d.add_spider(kind, phase)
        d.add_edge(last[wire], v, pending[wire])
        pending[wire] = EdgeKind.PLAIN
        last[wire] = v
        return v

    for op, qubits in ops:
        if op == "phase":
            carriers.append(extend(qubits[0], SpiderKind.Z, ZERO))
            phased.append((carriers[-1], ZERO, (len(phased),)))
        elif op == "z":
            carriers.append(extend(qubits[0], SpiderKind.Z, PI))
        elif op == "y":
            carriers.append(extend(qubits[0], SpiderKind.X, PI))
            carriers.append(extend(qubits[0], SpiderKind.Z, PI))
        elif op == "h":
            pending[qubits[0]] = pending[qubits[0]].toggled()
        elif op == "cnot":
            ctrl, tgt = qubits
            zc = extend(ctrl, SpiderKind.Z, ZERO)
            xt = extend(tgt, SpiderKind.X, ZERO)
            d.add_edge(zc, xt, EdgeKind.PLAIN)
    outs = []
    for wire in range(width):
        v = d.add_spider(SpiderKind.Z, ZERO)
        d.add_edge(last[wire], v, pending[wire])
        outs.append(v)
    d.outputs = outs
    return _Record(d, tuple(phased)), tuple(carriers)


def to_zx(c: Circuit) -> ZxDiagram:
    """Translate a circuit to an equivalent diagram (up to scalar)."""
    return to_zx_tracked(c)[0]


def plus_amplitude(c: Circuit) -> complex:
    """<+...+|U|+...+> for the circuit's unitary U, from U applied to the
    unnormalized |+...+> state vector (2^w work per gate)."""
    import numpy as np

    _check_width(c)
    state = _apply_gates(c, np.ones((2,) * c.width, dtype=complex))
    return complex(state.sum()) / 2 ** c.width


def _bit_tables(n: int) -> tuple[int, ...]:
    """The truth tables of the input bits x_0..x_{n-1}: bit 2^n - 1 - x of
    table i holds bit n - 1 - i of x, as in ``oracle.BooleanFunction``."""
    size = 1 << n
    return tuple(((1 << size) - 1) // ((1 << 2 * h) - 1) * ((1 << h) - 1)
                 for h in (1 << (n - 1 - i) for i in range(n)))


# the initial wire tables of a circuit, per width up to MAX_WIDTH
_wire_tables = functools.cache(_bit_tables)


def dj_run_circuit(oracle: Circuit):
    """Run the deterministic promise test: amplitude of |+...+> after the
    oracle decides constant (magnitude 1) versus balanced (magnitude 0).

    A circuit of CNOT, Z, Y and phase gates at dyadic multiples of pi maps
    each input x to one output with a phase of k(x) units of pi/half, for
    ``half`` the lcm (the largest) of the phase denominators, so 2^w times
    the amplitude is the exact path sum of zeta^k(x), zeta = e^(i pi/half)
    (Amy, arXiv:1805.06908).  Each wire is a 2^w-bit truth table over the
    inputs and k(x) mod 2*half sits in half.bit_length() bit-planes, so one
    ripple-carry add on the paths where a wire is 1 moves every path: Z
    adds ``half`` units, a phase gate ``Phase.turns(half)``, and Y = iXZ
    adds ``half`` and flips its wire (a global i moves no magnitude).
    Splitting the paths by the lower planes gives at most 2^w groups, one
    per j = k mod half, and the top plane then gives a_j = c_j - c_(j+half)
    for c_k paths at k, so the sum is that of a_j zeta^j over j < half.
    Those powers of zeta are independent over the rationals and no two
    point the same way, while the |a_j| sum to at most 2^w: the sum is 0
    (balanced) iff every a_j is, and of magnitude 2^w (constant) iff some
    |a_j| is 2^w.  A circuit with an H gate or a non-dyadic phase is
    judged by ``dj_verdict`` on ``plus_amplitude`` before any gate runs.
    """
    _check_width(oracle)
    half = math.lcm(*[g.phase.denominator for g in oracle.gates
                      if g.phase is not None])
    if half & (half - 1) or any(g.op == "h" for g in oracle.gates):
        return dj_verdict(plus_amplitude(oracle))
    w = oracle.width
    full = (1 << (1 << w)) - 1
    wires = list(_wire_tables(w))
    planes = [0] * half.bit_length()
    for g in oracle.gates:
        if g.op == "cnot":
            wires[g.qubits[1]] ^= wires[g.qubits[0]]
            continue
        m = wires[g.qubits[0]]
        k = half if g.phase is None else g.phase.turns(half)
        if not k:
            continue
        carry = 0
        for i, p in enumerate(planes):
            b = m if k >> i & 1 else 0
            planes[i] = p ^ b ^ carry
            carry = p & b | carry & (p ^ b)
        if g.op == "y":
            wires[g.qubits[0]] = m ^ full
    *low, top = planes
    groups = {0: full}  # the paths at each j = k mod half
    for i, p in enumerate(low):
        groups = {key: part for j, paths in groups.items()
                  for key, part in ((j, paths & ~p), (j | 1 << i, paths & p))
                  if part}
    a = {j: paths.bit_count() - 2 * (paths & top).bit_count()
         for j, paths in groups.items()}
    if not any(a.values()):
        return Verdict.BALANCED
    if (1 << w) in map(abs, a.values()):
        return Verdict.CONSTANT
    total = sum(a_j * Phase(j, half).phase_factor() for j, a_j in a.items())
    raise _not_promise(abs(total) / (1 << w))


def _not_promise(magnitude: float) -> NotPromiseError:
    """The error for a magnitude neither 0 nor 1, printed with six decimals
    unless they would round it to 0 or 1, when it is printed in full."""
    text = f"{magnitude:.6f}"
    if text in ("0.000000", "1.000000"):
        text = repr(magnitude)
    return NotPromiseError(f"|<+...+|U|+...+>| = {text} is neither 0 nor 1")


def dj_verdict(amplitude: complex):
    """The promise verdict of a |+...+> amplitude: Constant at magnitude 1,
    Balanced at 0, each within _TOL, ``NotPromiseError`` otherwise."""
    if abs(abs(amplitude) - 1.0) <= _TOL:
        return Verdict.CONSTANT
    if abs(amplitude) <= _TOL:
        return Verdict.BALANCED
    raise _not_promise(abs(amplitude))
