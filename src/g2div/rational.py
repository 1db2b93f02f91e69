"""The rational field Q.  Loaded on first use (by make_field, behind QQ and a
rational FieldSpec), so a computation over F_p never compiles it; the name
resolves through g2div.fields too (PEP 562).  An element's value is its
reduced native, an int while integral and else a Fraction, so Field's element
arithmetic serves Q as it serves F_p."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero
from .fields import Field, FieldElement, FieldSpec


class _RationalModulus(Fraction):
    """Q's native modulus (see Field._native): v % it is v, an integral
    Fraction as its int (faster to compute on), else the Fraction.  No
    native path divides (int / int gives a float): inverses use _invert.

    A Fraction subclass, so that Python calls its reflected __rmod__ before
    Fraction.__mod__, whose operand type checks would make a Fraction's
    reduction about three times slower; its own value, 0, is never read."""

    __slots__ = ()

    def __rmod__(self, v):
        if type(v) is int:
            return v
        return v.numerator if v.denominator == 1 else v


class RationalField(Field):
    characteristic = 0

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._modulus = _RationalModulus(0)
        self._native_zero, self._native_one = 0, 1

    def short_name(self):
        return "Q"

    def _invert(self, v):
        if not v:
            raise DivisionByZero("1/0 in Q")
        return (1 / Fraction(v)) % self._modulus

    def sqrt(self, a):
        v = a.value
        if v < 0:
            return ()
        if v == 0:
            return (self.zero,)
        rn, rd = isqrt(v.numerator), isqrt(v.denominator)
        if rn * rn != v.numerator or rd * rd != v.denominator:
            return ()
        r = Fraction(rn, rd) % self._modulus
        return (FieldElement(self, -r), FieldElement(self, r))

    def is_square(self, a):
        return bool(self.sqrt(a))

    def sort_key(self, a):
        return (a.value.numerator, a.value.denominator)
