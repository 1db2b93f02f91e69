"""The rational field Q.  Loaded on first use (by make_field, behind QQ and a
rational FieldSpec), so a computation over F_p never compiles it; the name
resolves through g2div.fields too (PEP 562)."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, MixedFields, SerializationError
from .fields import _RATIONALS, Field, FieldElement, FieldSpec


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

    def element(self, raw):
        if not isinstance(raw, _RATIONALS):
            raise MixedFields(f"cannot build {self} element from {raw!r}")
        return FieldElement(self, Fraction(raw))

    def add(self, a, b):
        return FieldElement(self, a.value + b.value)

    def sub(self, a, b):
        return FieldElement(self, a.value - b.value)

    def mul(self, a, b):
        return FieldElement(self, a.value * b.value)

    def neg(self, a):
        return FieldElement(self, -a.value)

    def inv(self, a):
        if not a.value:
            raise DivisionByZero("1/0 in Q")
        return FieldElement(self, 1 / a.value)

    def _invert(self, v):
        if not v:
            raise DivisionByZero("1/0 in Q")
        return (1 / Fraction(v)) % self._modulus

    def is_zero(self, a):
        return not a.value

    def _native(self, a):
        return a.value % self._modulus

    def sqrt(self, a):
        v = a.value
        if v < 0:
            return ()
        if v == 0:
            return (self.zero,)
        rn, rd = isqrt(v.numerator), isqrt(v.denominator)
        if rn * rn != v.numerator or rd * rd != v.denominator:
            return ()
        r = Fraction(rn, rd)
        return (FieldElement(self, -r), FieldElement(self, r))

    def is_square(self, a):
        return bool(self.sqrt(a))

    def sort_key(self, a):
        return (a.value.numerator, a.value.denominator)

    def to_str(self, a):
        v = a.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def from_str(self, s):
        try:
            return self.element(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad rational {s!r}") from exc
