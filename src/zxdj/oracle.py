"""Boolean promise functions, classification, and phase-oracle synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .circuit import Circuit, cnot, phase_gate
from .errors import NotPromiseError, WidthTooLargeError
from .phase import Phase, PI, ZERO


# Most input bits a BooleanFunction takes: its table is a 2^n-bit integer,
# 128 KiB at n = 20.
MAX_INPUT_BITS = 20


class Verdict(Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"


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
        return bin(self.table).count("1")

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
    return math.comb(1 << n, 1 << (n - 1))


def enumerate_promise(n: int) -> list[BooleanFunction]:
    """All constant and balanced functions, ascending by table value."""
    out = []
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        ones = f.popcount()
        if ones in (0, f.size) or 2 * ones == f.size:
            out.append(f)
    return out


def delta_polynomial(point, n: int) -> dict[frozenset, int]:
    """Multilinear expansion of the indicator of ``point`` over x monomials.

    Returns a map monomial -> integer coefficient, where a monomial is the
    frozenset of participating variable indices.
    """
    poly: dict[frozenset, int] = {frozenset(): 1}
    for i in range(n):
        term: dict[frozenset, int] = {}
        if point[i]:
            factors = [(frozenset([i]), 1)]          # x_i
        else:
            factors = [(frozenset(), 1), (frozenset([i]), -1)]  # 1 - x_i
        for mono, coeff in poly.items():
            for fmono, fcoeff in factors:
                key = mono | fmono
                term[key] = term.get(key, 0) + coeff * fcoeff
        poly = {k: v for k, v in term.items() if v}
    return poly


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


def phase_polynomial(f: BooleanFunction) -> PhasePolynomial:
    """Exact parity-term decomposition of theta(x) = pi*f(x).

    Uses the Walsh transform over exact rationals: for nonempty S the
    coefficient is -2*pi*fhat(S), and the constant is pi*f(0).
    """
    classify(f)
    n = f.n
    coeffs = {}
    for mask in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if mask & (1 << (n - 1 - i)))
        total = sum(f.value(x) * (-1) ** bin(x & mask).count("1")
                    for x in range(f.size))
        fhat = Fraction(total, f.size)
        coeffs[subset] = Phase.from_fraction(-2 * fhat)
    return PhasePolynomial(Phase(f.value(0)), coeffs)


def _coeff(pp: PhasePolynomial, *qubits: int) -> Phase:
    return pp.coeffs.get(frozenset(qubits), ZERO)


def oracle_circuit_3q(f: BooleanFunction) -> Circuit:
    """Three-qubit phase-oracle circuit over single-qubit phases and CNOTs.

    Each phase gate fires on a wire currently holding the parity its
    coefficient belongs to; the CNOT ladder computes every parity of the
    three inputs and restores the wires afterwards.  All seven phase gates
    are always emitted (possibly with angle 0) so that every variant
    compiles to the same diagram shape.
    """
    if f.n != 3:
        raise NotPromiseError("three-qubit synthesis needs n = 3")
    pp = phase_polynomial(f)
    gates = [
        phase_gate(0, _coeff(pp, 0)),
        phase_gate(1, _coeff(pp, 1)),
        phase_gate(2, _coeff(pp, 2)),
        cnot(0, 1),                       # q1 = x0 ^ x1
        cnot(0, 2),                       # q2 = x0 ^ x2
        phase_gate(1, _coeff(pp, 0, 1)),
        phase_gate(2, _coeff(pp, 0, 2)),
        cnot(1, 2),                       # q2 = x1 ^ x2
        phase_gate(2, _coeff(pp, 1, 2)),
        cnot(0, 2),                       # q2 = x0 ^ x1 ^ x2
        phase_gate(2, _coeff(pp, 0, 1, 2)),
        cnot(1, 2),                       # q2 = x2 (q1 still x0 ^ x1)
        cnot(0, 1),                       # q1 = x1
    ]
    return Circuit(3, gates)


def _affine_form(f: BooleanFunction) -> tuple[int, list[int]]:
    """Write a 1- or 2-bit promise function as c XOR sum(a_i * x_i).

    Every constant or balanced function on at most two bits is affine.
    """
    c = f.value(0)
    coeffs = [f.value(1 << (f.n - 1 - i)) ^ c for i in range(f.n)]
    check = BooleanFunction.from_values([
        c ^ (bin(x & sum(a << (f.n - 1 - i) for i, a in enumerate(coeffs)))
             .count("1") & 1)
        for x in range(f.size)
    ])
    if check.table != f.table:
        raise NotPromiseError(f"table {f.table} is not affine")
    return c, coeffs


def two_qubit_spider_angles(f: BooleanFunction):
    """Per-wire spider angles (x-spider, z-spider) x 2 realizing the oracle.

    A Pauli-Z gate on a wire contributes pi to that wire's z-spider angle;
    a Pauli-Y contributes pi to both.  Derived from the affine form of f:
    linear terms take Z gates, and a constant term of 1 upgrades the Z
    gates to Y gates (global phase aside).
    """
    if f.n != 2:
        raise NotPromiseError("angle table needs n = 2")
    classify(f)
    c, (a0, a1) = _affine_form(f)
    use_y = c == 1 and (a0 or a1)
    angles = []
    for coeff in (a0, a1):
        x_angle = PI if (use_y and coeff) else ZERO
        z_angle = PI if coeff else ZERO
        angles.extend((x_angle, z_angle))
    return tuple(angles)


def one_qubit_spider_angles(f: BooleanFunction):
    """Per-wire (x-spider, z-spider) angles for the one-qubit oracle."""
    if f.n != 1:
        raise NotPromiseError("angle pair needs n = 1")
    classify(f)
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
