"""Boolean promise functions, classification, and phase-oracle synthesis."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .circuit import Circuit, Gate, Verdict, _bit_tables, cnot, phase_gate
from .errors import ArityMismatchError, NotPromiseError, WidthTooLargeError
from .phase import Phase, PI, ZERO


# Most input bits a BooleanFunction takes: its table is a 2^n-bit integer,
# 128 KiB at n = 20.
MAX_INPUT_BITS = 20


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1}.

    The table is a bitmask over the outputs with bit (2^n - 1 - i) holding
    f(i); i.e. reading the mask's binary digits left to right spells
    f(0), f(1), ..., f(2^n - 1).
    """

    n: int
    table: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n={self.n} is negative")
        if self.n > MAX_INPUT_BITS:
            raise WidthTooLargeError(
                f"n={self.n} exceeds the cap of {MAX_INPUT_BITS} input bits")
        if not 0 <= self.table < (1 << (1 << self.n)):
            raise ValueError(f"table {self.table} out of range for n={self.n}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, i: int) -> int:
        return (self.table >> (self.size - 1 - i)) & 1

    def values(self) -> list[int]:
        return [self.value(i) for i in range(self.size)]

    def popcount(self) -> int:
        return self.table.bit_count()

    @classmethod
    def from_values(cls, values) -> "BooleanFunction":
        n = (len(values) - 1).bit_length()
        if len(values) != 1 << n:
            raise ValueError("truth table length must be a power of two")
        table = 0
        for v in values:
            table = (table << 1) | (int(v) & 1)
        return cls(n, table)

    @classmethod
    def parse(cls, n: int, text: str) -> "BooleanFunction":
        """Accepts a decimal table value or a binary output string."""
        text = text.strip()
        if (set(text) <= {"0", "1"} and 0 <= n <= MAX_INPUT_BITS
                and len(text) == 1 << n):
            return cls(n, int(text, 2))
        return cls(n, int(text, 10))


def classify(f: BooleanFunction) -> Verdict:
    ones = f.popcount()
    if ones in (0, f.size):
        return Verdict.CONSTANT
    if 2 * ones == f.size:
        return Verdict.BALANCED
    raise NotPromiseError(
        f"table {f.table} has {ones} ones out of {f.size}: "
        "neither constant nor balanced")


def count_balanced(n: int) -> int:
    """The number of balanced functions on n bits; 0 at n = 0, where no
    function is balanced."""
    if n < 0:
        raise ValueError(f"n={n} is negative")
    return math.comb(1 << n, 1 << (n - 1)) if n else 0


def enumerate_promise(n: int) -> list[BooleanFunction]:
    """All constant and balanced functions, ascending by table value."""
    out = []
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        ones = f.popcount()
        if ones in (0, f.size) or 2 * ones == f.size:
            out.append(f)
    return out


@dataclass(frozen=True)
class PhasePolynomial:
    """theta(x) = constant + sum_S coeff[S] * (XOR of x_i for i in S)."""

    constant: Phase
    coeffs: dict  # frozenset[int] -> Phase

    def value(self, x: int, n: int) -> Phase:
        total = self.constant
        for subset, coeff in self.coeffs.items():
            parity = 0
            for i in subset:
                parity ^= (x >> (n - 1 - i)) & 1
            if parity:
                total = total + coeff
        return total


# Widest n whose parity data phase_polynomial keeps: 2^8 - 1 sets and
# masks at most, so a wide call keeps none of its 2^n sets or masks alive
# after it returns.
_PARITY_TABLE_BITS = 8
_parity_table: dict[int, tuple] = {}


def _parity_masks(n: int):
    """Yield the truth table M_S of every nonempty parity S, in table-bit
    order, for S in mask order 1..2^n - 1, with one XOR per set: going from
    S - 1 to S flips a run of low mask bits, whose parity is in ``runs``."""
    runs = list(itertools.accumulate(reversed(_bit_tables(n)), operator.xor))
    m = 0
    for mask in range(1, 1 << n):
        m ^= runs[(mask ^ (mask - 1)).bit_length() - 1]
        yield m


class _Phases(dict):
    """The phases 2*pi*k/size by k, each built on its first lookup."""

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size

    def __missing__(self, k: int) -> Phase:
        phase = self[k] = Phase(2 * k, self.size)
        return phase


def _parity_data(n: int):
    """``(sets, masks, phases)`` for every nonempty parity S in mask order
    1..2^n - 1, bit i of the input being mask bit n - 1 - i: the input bits
    of S, its truth table M_S (from ``_parity_masks``), and the phases
    2*pi*k/2^n by k.  Each set is the set of ``mask & (mask - 1)`` plus
    the input of the mask's lowest bit.  Kept per n up to
    ``_PARITY_TABLE_BITS``; a wider n gets its masks as an iterator and
    its phases as they are looked up (:class:`_Phases`)."""
    data = _parity_table.get(n)
    if data is None:
        size = 1 << n
        sets = [frozenset()]
        for mask in range(1, size):
            sets.append(sets[mask & (mask - 1)]
                        | {n - (mask & -mask).bit_length()})
        if n > _PARITY_TABLE_BITS:
            return sets[1:], _parity_masks(n), _Phases(size)
        data = _parity_table[n] = (
            tuple(sets[1:]), tuple(_parity_masks(n)),
            tuple(Phase(2 * k, size) for k in range(size)))
    return data


def phase_polynomial(f: BooleanFunction) -> PhasePolynomial:
    """Exact parity-term decomposition of theta(x) = pi*f(x).

    For nonempty S the coefficient is -2*pi*W(S)/2^n, where
    W(S) = sum_x f(x) * (-1)^(x . S) = ones - 2*popcount(table & M_S)
    counts the ones of f off and on the parity's truth table M_S, so the
    coefficient is the phase 2*pi*k/2^n at k = -W(S) mod 2^n; the constant
    is pi*f(0).  The sets, masks and phases come from ``_parity_data``.
    """
    classify(f)
    sets, masks, phases = _parity_data(f.n)
    table, ones, size = f.table, f.popcount(), f.size
    coeffs = {subset: phases[(2 * (table & mask).bit_count() - ones) % size]
              for subset, mask in zip(sets, masks)}
    return PhasePolynomial(PI if f.value(0) else ZERO, coeffs)


# The oracle circuit's gates: a shared CNOT, or (wire, parity) for a phase
# gate taking that parity's coefficient.  Each phase gate fires on a wire
# holding its parity at that point of the ladder.
_ORACLE_3Q = (
    (0, frozenset({0})),
    (1, frozenset({1})),
    (2, frozenset({2})),
    cnot(0, 1),                       # q1 = x0 ^ x1
    cnot(0, 2),                       # q2 = x0 ^ x2
    (1, frozenset({0, 1})),
    (2, frozenset({0, 2})),
    cnot(1, 2),                       # q2 = x1 ^ x2
    (2, frozenset({1, 2})),
    cnot(0, 2),                       # q2 = x0 ^ x1 ^ x2
    (2, frozenset({0, 1, 2})),
    cnot(1, 2),                       # q2 = x2 (q1 still x0 ^ x1)
    cnot(0, 1),                       # q1 = x1
)

# The parities whose carriers every three-bit pattern reads out, in order,
# and the indices of their gates among _ORACLE_3Q's phase gates.
_READOUT_PARITIES = (frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({1, 2}))
_ORACLE_READOUT_GATES = tuple(
    [entry[1] for entry in _ORACLE_3Q if not isinstance(entry, Gate)].index(s)
    for s in _READOUT_PARITIES)


# The oracle circuit at phase 0, built and checked once by the public
# constructors, and the index and parity of each of its phase gates.
_ORACLE_CIRCUIT = Circuit(3, [entry if isinstance(entry, Gate)
                              else phase_gate(entry[0], ZERO)
                              for entry in _ORACLE_3Q])
_ORACLE_SLOTS = tuple((i, entry[1]) for i, entry in enumerate(_ORACLE_3Q)
                      if not isinstance(entry, Gate))


def oracle_circuit_3q(f: BooleanFunction) -> Circuit:
    """Three-qubit phase-oracle circuit over single-qubit phases and CNOTs.

    Each phase gate fires on a wire currently holding the parity its
    coefficient belongs to; the CNOT ladder computes every parity of the
    three inputs and restores the wires afterwards.  All seven phase gates
    are always emitted (possibly with angle 0) so that every variant
    compiles to the same diagram shape.  A call fills the checked template
    ``_ORACLE_CIRCUIT``, checking nothing again: a fresh list holds its six
    frozen CNOTs and a fresh phase gate on each of its phase gates' wires.
    """
    if f.n != 3:
        raise ArityMismatchError("three-qubit synthesis needs n = 3")
    coeffs = phase_polynomial(f).coeffs
    gates = _ORACLE_CIRCUIT.gates.copy()
    for i, parity in _ORACLE_SLOTS:
        gates[i] = g = object.__new__(Gate)
        vars(g).update(vars(_ORACLE_CIRCUIT.gates[i]), phase=coeffs[parity])
    c = object.__new__(Circuit)
    vars(c).update(vars(_ORACLE_CIRCUIT), gates=gates)
    return c


def two_qubit_spider_angles(f: BooleanFunction):
    """Per-wire spider angles (x-spider, z-spider) x 2 realizing the oracle.

    A Pauli-Z gate on a wire contributes pi to that wire's z-spider angle;
    a Pauli-Y contributes pi to both.  Derived from the affine form
    c XOR a0*x0 XOR a1*x1 that every two-bit promise function has: linear
    terms take Z gates, and a constant term of 1 upgrades the Z gates to Y
    gates (global phase aside).
    """
    if f.n != 2:
        raise ArityMismatchError("angle table needs n = 2")
    classify(f)
    c = f.value(0)
    coeffs = (f.value(0b10) ^ c, f.value(0b01) ^ c)
    use_y = c == 1 and any(coeffs)
    angles = []
    for coeff in coeffs:
        x_angle = PI if (use_y and coeff) else ZERO
        z_angle = PI if coeff else ZERO
        angles.extend((x_angle, z_angle))
    return tuple(angles)


def one_qubit_spider_angles(f: BooleanFunction):
    """Per-wire (x-spider, z-spider) angles for the one-qubit oracle."""
    if f.n != 1:
        raise ArityMismatchError("angle pair needs n = 1")
    flip = f.value(0) ^ f.value(1)
    return (ZERO, PI if flip else ZERO)


# Control-angle table as printed in the source material, one row per angle
# (alpha_0..alpha_3), one column per variant (i)..(viii).  Columns (iv) and
# (v) are retained verbatim even though they fail the oracle tensor check;
# the derived angles from two_qubit_spider_angles are the certified ones.
TABLE2_AS_PRINTED = {
    "i": ((0, 0, 0, 0), ZERO, ZERO, ZERO, ZERO),
    "ii": ((1, 1, 1, 1), ZERO, ZERO, ZERO, ZERO),
    "iii": ((0, 0, 1, 1), ZERO, PI, ZERO, ZERO),
    "iv": ((0, 1, 0, 1), ZERO, ZERO, PI, ZERO),
    "v": ((0, 1, 1, 0), PI, ZERO, PI, ZERO),
    "vi": ((1, 0, 0, 1), PI, PI, PI, PI),
    "vii": ((1, 0, 1, 0), ZERO, ZERO, PI, PI),
    "viii": ((1, 1, 0, 0), PI, PI, ZERO, ZERO),
}


def table2_function(variant: str) -> BooleanFunction:
    values, *_ = TABLE2_AS_PRINTED[variant]
    return BooleanFunction.from_values(values)


def table2_printed_angles(variant: str):
    return tuple(TABLE2_AS_PRINTED[variant][1:])
