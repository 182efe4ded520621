"""Exact phases as rational multiples of pi, normalized into [0, 2*pi)."""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction


class Phase(namedtuple("Phase", "numerator denominator")):
    """A phase angle (numerator/denominator)*pi with the fraction reduced
    and normalized into [0, 2).

    Addition is modulo 2*pi.  All angles used by the compiler are dyadic
    multiples of pi, but any rational multiple is representable.

    A phase is the immutable pair ``(numerator, denominator)``, so its
    hash, equality and order are the tuple's, run in C: it hashes as that
    pair, orders as pairs do, and equals the plain tuple ``(n, d)``.  Its
    own methods index ``self[0]``/``self[1]``, which CPython specializes,
    rather than read the named fields, which it does not.  It unpacks as
    the pair, but ``*``, ``in`` and ``+`` a non-phase raise ``TypeError``.
    """

    __slots__ = ()
    __contains__ = None

    def __new__(cls, numerator: int, denominator: int = 1):
        if denominator == 0:
            raise ValueError("phase denominator must be nonzero")
        # dividing by the signed gcd leaves a positive denominator, and
        # reducing before the modulus keeps the fraction reduced after it
        g = math.gcd(numerator, denominator) * (-1 if denominator < 0 else 1)
        denominator //= g
        return tuple.__new__(
            cls, (numerator // g % (2 * denominator), denominator))

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "Phase":
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def parse(cls, text: str) -> "Phase":
        """Parse a reduced-fraction-of-pi string such as "1/2" (= pi/2)."""
        if not isinstance(text, str):
            raise ValueError(f"phase {text!r} is not a string")
        if "/" in text:
            num, den = text.split("/", 1)
            return cls(int(num), int(den))
        return cls(int(text))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self[0], self[1])

    @property
    def radians(self) -> float:
        return self[0] / self[1] * cmath.pi

    def phase_factor(self) -> complex:
        """exp(i * angle) by ``cmath.exp``, rounded to double precision.
        Exact only at angle 0: ``Phase(1, 2)`` gives 6.12e-17+1j and
        ``Phase(1)`` gives -1+1.22e-16j.  Seeded sampler output and the
        pinned tensor digest depend on these bits."""
        return cmath.exp(1j * self.radians)

    def turns(self, half: int) -> int | None:
        """The angle in units of pi/half, in 0..2*half - 1, or None when it
        is no whole number of them."""
        if half % self[1]:
            return None  # reduced, so den | num * half iff den | half
        return half // self[1] * self[0]

    def is_zero(self) -> bool:
        return self[0] == 0

    def __add__(self, other: "Phase") -> "Phase":
        """The sum mod 2*pi; a zero operand returns the other one."""
        if other.__class__ is not Phase:
            raise TypeError(f"a Phase adds only a Phase, not {other!r}")
        if not other[0]:
            return self
        if not self[0]:
            return other
        return Phase(self[0] * other[1] + other[0] * self[1],
                     self[1] * other[1])

    def __radd__(self, other):
        raise TypeError("a Phase is an angle, not a sequence")

    __mul__ = __rmul__ = __radd__  # NotImplemented would fall back to tuple's

    def __sub__(self, other: "Phase") -> "Phase":
        return self + -other

    def __neg__(self) -> "Phase":
        return Phase(-self[0], self[1])

    def __str__(self) -> str:
        if self[1] == 1:
            return str(self[0])
        return f"{self[0]}/{self[1]}"


ZERO = Phase(0)
PI = Phase(1)
HALF_PI = Phase(1, 2)
MINUS_HALF_PI = Phase(3, 2)
QUARTER_PI = Phase(1, 4)
