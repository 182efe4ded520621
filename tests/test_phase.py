"""Exact angle arithmetic in units of pi."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zxdj.phase import HALF_PI, MINUS_HALF_PI, PI, Phase, QUARTER_PI, ZERO

phases = st.builds(
    Phase,
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=1, max_value=16),
)


def test_normalization_mod_two_pi():
    assert Phase(2) == ZERO
    assert Phase(5, 2) == HALF_PI
    assert Phase(-1, 2) == MINUS_HALF_PI
    assert Phase(3, 2) == MINUS_HALF_PI
    assert Phase(2, 128) == Phase(1, 64)


def test_constants():
    assert ZERO.is_zero()
    assert PI.fraction == Fraction(1)
    assert HALF_PI.fraction == Fraction(1, 2)
    assert QUARTER_PI.fraction == Fraction(1, 4)
    assert MINUS_HALF_PI.fraction == Fraction(3, 2)


def test_radians_and_factor():
    assert PI.radians == pytest.approx(math.pi)
    assert abs(PI.phase_factor() + 1) < 1e-12
    assert abs(HALF_PI.phase_factor() - 1j) < 1e-12
    assert ZERO.phase_factor() == 1


def test_parse_round_trip():
    for text in ["0", "1", "1/2", "3/2", "1/4", "7/4"]:
        assert str(Phase.parse(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Phase.parse("one half")
    for text in (["1/2"], ["/"], {"/": 1}, 1, None):  # JSON that is no string
        with pytest.raises(ValueError):
            Phase.parse(text)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        Phase(1, 0)
    with pytest.raises(ValueError):
        Phase.parse("1/0")


wide = st.integers(min_value=-10**6, max_value=10**6)
nonzero = wide.filter(bool)


@given(wide, nonzero)
def test_normalization_matches_fraction(n, d):
    ref = Fraction(n, d) % 2
    p = Phase(n, d)
    assert (p.numerator, p.denominator) == (ref.numerator, ref.denominator)
    assert p.radians == float(ref) * math.pi


@given(wide, nonzero, wide, nonzero)
def test_arithmetic_matches_fraction(n1, d1, n2, d2):
    a, b = Phase(n1, d1), Phase(n2, d2)
    assert (a + b).fraction == (a.fraction + b.fraction) % 2
    assert (a - b).fraction == (a.fraction - b.fraction) % 2
    assert (-a).fraction == -a.fraction % 2


@given(phases, phases, phases)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(phases, phases)
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(phases)
def test_identity_and_inverse(a):
    assert a + ZERO == a
    assert a + (-a) == ZERO
    assert a - a == ZERO


@given(phases)
def test_double_negation(a):
    assert -(-a) == a


@given(phases)
def test_factor_matches_radians(a):
    import cmath

    assert abs(a.phase_factor() - cmath.exp(1j * a.radians)) < 1e-12


@given(phases)
def test_str_round_trip(a):
    assert Phase.parse(str(a)) == a


# -- a phase is the immutable pair (numerator, denominator) -------------------


@given(phases)
def test_hash_is_the_pairs(p):
    # a set of phases iterates in the order its pairs' hashes give
    assert hash(p) == hash((p.numerator, p.denominator))
    assert p == (p.numerator, p.denominator)


@given(phases)
def test_a_zero_operand_returns_the_other(p):
    # when both are zero either one is returned, so only equality holds
    assert ZERO + p == p == p + ZERO
    if not p.is_zero():
        assert ZERO + p is p
        assert p + ZERO is p


@given(st.lists(phases))
def test_phases_sort_as_their_pairs(ps):
    assert ([(p.numerator, p.denominator) for p in sorted(ps)]
            == sorted((p.numerator, p.denominator) for p in ps))


@given(phases)
def test_phases_are_immutable(p):
    with pytest.raises(AttributeError):
        p.numerator = 1
    with pytest.raises(AttributeError):
        p.turn = 1


def test_repr_names_the_fields():
    assert repr(HALF_PI) == "Phase(numerator=1, denominator=2)"


# -- but not a sequence -------------------------------------------------------

def test_a_phase_times_an_int_raises():
    with pytest.raises(TypeError, match="not a sequence"):
        HALF_PI * 2


def test_an_int_times_a_phase_raises():
    with pytest.raises(TypeError, match="not a sequence"):
        2 * HALF_PI


def test_a_tuple_plus_a_phase_raises():
    with pytest.raises(TypeError, match="not a sequence"):
        (0, 1) + HALF_PI


def test_a_phase_plus_a_pair_raises():
    with pytest.raises(TypeError, match=r"adds only a Phase, not \(1, 2\)"):
        HALF_PI + (1, 2)


def test_a_phase_plus_a_list_raises():
    with pytest.raises(TypeError, match=r"adds only a Phase, not \[1, 2\]"):
        HALF_PI + [1, 2]


def test_a_phase_plus_an_int_raises():
    with pytest.raises(TypeError, match="adds only a Phase, not 1"):
        HALF_PI + 1


def test_a_phase_minus_a_pair_raises():
    with pytest.raises(TypeError):
        HALF_PI - (1, 2)


def test_membership_in_a_phase_raises():
    with pytest.raises(TypeError, match="not a container"):
        2 in HALF_PI


@given(phases)
def test_a_phase_unpacks_as_its_pair(p):
    numerator, denominator = p
    assert (numerator, denominator) == tuple(p) == (p.numerator,
                                                   p.denominator)
    assert type(tuple(p)) is tuple
