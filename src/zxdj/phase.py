"""Exact phases as rational multiples of pi, normalized into [0, 2*pi)."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class Phase:
    """A phase angle (numerator/denominator)*pi with the fraction reduced
    and normalized into [0, 2).

    Addition is modulo 2*pi.  All angles used by the compiler are dyadic
    multiples of pi, but any rational multiple is representable.
    """

    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int = 1):
        if denominator == 0:
            raise ValueError("phase denominator must be nonzero")
        # dividing by the signed gcd leaves a positive denominator, and
        # reducing before the modulus keeps the fraction reduced after it
        g = math.gcd(numerator, denominator) * (-1 if denominator < 0 else 1)
        denominator //= g
        object.__setattr__(self, "numerator", numerator // g % (2 * denominator))
        object.__setattr__(self, "denominator", denominator)

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
        return Fraction(self.numerator, self.denominator)

    @property
    def radians(self) -> float:
        return self.numerator / self.denominator * cmath.pi

    def phase_factor(self) -> complex:
        """exp(i * angle) by ``cmath.exp``, rounded to double precision.
        Exact only at angle 0: ``Phase(1, 2)`` gives 6.12e-17+1j and
        ``Phase(1)`` gives -1+1.22e-16j.  Seeded sampler output and the
        pinned tensor digest depend on these bits."""
        return cmath.exp(1j * self.radians)

    def turns(self, half: int) -> int | None:
        """The angle in units of pi/half, in 0..2*half - 1, or None when it
        is no whole number of them."""
        if half % self.denominator:
            return None  # reduced, so den | num * half iff den | half
        return half // self.denominator * self.numerator

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __add__(self, other: "Phase") -> "Phase":
        if not other.numerator:
            return self
        return Phase(self.numerator * other.denominator
                     + other.numerator * self.denominator,
                     self.denominator * other.denominator)

    def __sub__(self, other: "Phase") -> "Phase":
        return self + -other

    def __neg__(self) -> "Phase":
        return Phase(-self.numerator, self.denominator)

    def __str__(self) -> str:
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


ZERO = Phase(0)
PI = Phase(1)
HALF_PI = Phase(1, 2)
MINUS_HALF_PI = Phase(3, 2)
QUARTER_PI = Phase(1, 4)
