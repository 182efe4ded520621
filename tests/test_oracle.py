"""Promise functions and oracle synthesis, checked against brute force."""

import itertools
import math

import numpy as np
import pytest

from zxdj.circuit import unitary
from zxdj.errors import NotPromiseError, WidthTooLargeError
from zxdj.oracle import (
    MAX_INPUT_BITS,
    BooleanFunction,
    PhasePolynomial,
    TABLE2_AS_PRINTED,
    Verdict,
    classify,
    count_balanced,
    delta_polynomial,
    enumerate_promise,
    one_qubit_spider_angles,
    oracle_circuit_3q,
    phase_polynomial,
    table2_function,
    table2_printed_angles,
    two_qubit_spider_angles,
)
from zxdj.phase import PI, Phase, ZERO
from zxdj.tensor import Tensor, equivalent_up_to_scalar


# -- truth tables ------------------------------------------------------------

def test_value_bit_convention():
    # table digits read left to right spell f(0), f(1), ...
    f = BooleanFunction.from_values([0, 1, 1, 0])
    assert f.values() == [0, 1, 1, 0]
    assert f.table == 0b0110
    assert f.value(1) == 1 and f.value(3) == 0


def test_from_values_guard():
    with pytest.raises(ValueError):
        BooleanFunction.from_values([0, 1, 1])
    with pytest.raises(ValueError):
        BooleanFunction(2, 16)


def test_width_cap_precedes_the_table_shift():
    # 1 << (1 << 40) would need 128 GiB
    with pytest.raises(WidthTooLargeError):
        BooleanFunction(40, 1)
    with pytest.raises(WidthTooLargeError):
        BooleanFunction.parse(40, "1")
    with pytest.raises(ValueError):
        BooleanFunction(-1, 0)
    assert BooleanFunction(MAX_INPUT_BITS, 1).size == 1 << MAX_INPUT_BITS


def test_parse_binary_and_decimal():
    assert BooleanFunction.parse(2, "0110") == BooleanFunction(2, 6)
    assert BooleanFunction.parse(2, "6") == BooleanFunction(2, 6)
    assert BooleanFunction.parse(1, "10") == BooleanFunction(1, 2)
    # a two-digit binary-looking string is decimal when the width demands
    # four outputs
    assert BooleanFunction.parse(2, "10") == BooleanFunction(2, 10)


# -- classification ----------------------------------------------------------

def _brute_classify(f):
    ones = sum(f.value(i) for i in range(f.size))
    if ones in (0, f.size):
        return Verdict.CONSTANT
    if ones * 2 == f.size:
        return Verdict.BALANCED
    return None


def test_classify_against_brute_force():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            expected = _brute_classify(f)
            if expected is None:
                with pytest.raises(NotPromiseError):
                    classify(f)
            else:
                assert classify(f) is expected


def test_count_balanced_values():
    # oracle: count tables whose popcount is half the size
    for n in (1, 2, 3):
        brute = sum(
            1 for t in range(1 << (1 << n))
            if bin(t).count("1") * 2 == (1 << n))
        assert count_balanced(n) == brute
    assert [count_balanced(n) for n in (1, 2, 3)] == [2, 6, 70]


def test_enumerate_promise():
    for n in (1, 2, 3):
        fs = enumerate_promise(n)
        assert len(fs) == count_balanced(n) + 2
        tables = [f.table for f in fs]
        assert tables == sorted(tables)
        assert all(_brute_classify(f) is not None for f in fs)


# -- polynomial machinery ----------------------------------------------------

def test_delta_polynomial_is_indicator():
    # evaluating the multilinear expansion at y recovers [y == point]
    for point in itertools.product((0, 1), repeat=3):
        poly = delta_polynomial(point, 3)
        for y in itertools.product((0, 1), repeat=3):
            val = sum(c * math.prod(y[i] for i in mono)
                      for mono, c in poly.items())
            assert val == (1 if y == point else 0)


def test_phase_polynomial_defining_property():
    # theta(x) == pi * f(x) exactly (as phases mod 2 pi) on every input
    for n in (1, 2, 3):
        for f in enumerate_promise(n):
            pp = phase_polynomial(f)
            for x in range(f.size):
                expected = PI if f.value(x) else ZERO
                assert pp.value(x, n) == expected, (f.table, x)


def test_phase_polynomial_rejects_non_promise():
    with pytest.raises(NotPromiseError):
        phase_polynomial(BooleanFunction(3, 1))


def test_phase_polynomial_value_parity():
    pp = PhasePolynomial(ZERO, {frozenset([0, 1]): PI})
    # contributes only when x0 xor x1 is odd
    assert pp.value(0b00, 2) == ZERO
    assert pp.value(0b10, 2) == PI
    assert pp.value(0b01, 2) == PI
    assert pp.value(0b11, 2) == ZERO


# -- three-qubit oracle circuits ---------------------------------------------

def test_oracle_circuit_3q_shape():
    for f in enumerate_promise(3):
        c = oracle_circuit_3q(f)
        assert c.width == 3
        ops = [g.op for g in c.gates]
        assert ops.count("phase") == 7
        assert ops.count("cnot") == 6
        assert len(ops) == 13


def test_oracle_circuit_3q_is_diagonal_oracle():
    # the full 72-variant sweep lives in the acceptance suite; spot-check a
    # constant, a linear, and a nonlinear balanced table here
    for table in (0, 0b01101001, 0b01111000):
        f = BooleanFunction(3, table)
        u = unitary(oracle_circuit_3q(f)).as_matrix(3)
        diag = np.diag([(-1.0) ** f.value(i) for i in range(8)]).astype(complex)
        ok, _ = equivalent_up_to_scalar(Tensor(u), Tensor(diag), tol=1e-9)
        assert ok, table


def test_oracle_circuit_3q_guard():
    with pytest.raises(NotPromiseError):
        oracle_circuit_3q(BooleanFunction(2, 6))


# -- small-width spider angle tables -----------------------------------------

def _wire_matrix(x_angle, z_angle):
    """Unitary of one wire: an x-basis rotation followed by a z phase."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    xmat = h @ np.diag([1, x_angle.phase_factor()]) @ h
    return np.diag([1, z_angle.phase_factor()]).astype(complex) @ xmat


def _angles_realize_oracle(f, angles):
    """Do the per-wire (x, z) angle pairs send |+>^n to the oracle state?"""
    n = f.n
    op = np.eye(1, dtype=complex)
    for w in range(n):
        op = np.kron(op, _wire_matrix(angles[2 * w], angles[2 * w + 1]))
    plus = np.full(2 ** n, 1 / math.sqrt(2 ** n), dtype=complex)
    target = np.array([(-1.0) ** f.value(i) for i in range(2 ** n)],
                      dtype=complex) / math.sqrt(2 ** n)
    got = op @ plus
    ok, _ = equivalent_up_to_scalar(Tensor(got), Tensor(target), tol=1e-9)
    return ok


def test_two_qubit_angles_realize_every_promise_function():
    for f in enumerate_promise(2):
        assert _angles_realize_oracle(f, two_qubit_spider_angles(f)), f.table


def test_one_qubit_angles_realize_every_promise_function():
    for f in enumerate_promise(1):
        assert _angles_realize_oracle(f, one_qubit_spider_angles(f)), f.table


def test_two_qubit_angles_guards():
    with pytest.raises(NotPromiseError):
        two_qubit_spider_angles(BooleanFunction(1, 0))
    with pytest.raises(NotPromiseError):
        two_qubit_spider_angles(BooleanFunction(2, 1))
    with pytest.raises(NotPromiseError):
        one_qubit_spider_angles(BooleanFunction(2, 6))


def test_printed_angle_table_rows():
    assert set(TABLE2_AS_PRINTED) == {
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii"}
    variants_ok = []
    for variant in TABLE2_AS_PRINTED:
        f = table2_function(variant)
        assert classify(f) in (Verdict.CONSTANT, Verdict.BALANCED)
        variants_ok.append(
            _angles_realize_oracle(f, table2_printed_angles(variant)))
    # the printed table is wrong for exactly the (iv) and (v) rows; the
    # derived angles (checked above) cover all eight variants
    by_variant = dict(zip(TABLE2_AS_PRINTED, variants_ok))
    assert by_variant["iv"] is False
    assert by_variant["v"] is False
    assert all(ok for v, ok in by_variant.items() if v not in ("iv", "v"))
