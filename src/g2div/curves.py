"""The canonical genus-2 model and the JSON form of every curve model.

The canonical model is -y^2 + x^5 + l2*x^4 + l4*x^3 + l6*x^2 + l8*x + l10
with nonzero quintic discriminant.  The general forms I/II/III and their
reduction to it live in models.py, which curve_from_json imports only for
a file in one of those forms; the expansion at infinity lives in series.py.
"""
from __future__ import annotations

from collections import namedtuple

from . import unipoly
from .errors import DegenerateCurve, SerializationError
from .fields import Field, FieldElement, FieldSpec, make_field
from .unipoly import UniPoly

# the names of CanonicalCurve.lam and their Sato weights (each its index)
LAMBDA_NAMES = ("l2", "l4", "l6", "l8", "l10")
LAMBDA_WEIGHTS = (2, 4, 6, 8, 10)


# P(x) and P'(x) by Horner's rule in plain ring arithmetic, so natives,
# elements and torsion's weighted polynomials all go through this one
# transcription; lam = (l2, l4, l6, l8, l10)

def _p_of(x, lam):
    l2, l4, l6, l8, l10 = lam
    return ((((x + l2) * x + l4) * x + l6) * x + l8) * x + l10


def _dp_of(x, lam):
    l2, l4, l6, l8, _ = lam
    return (((5 * x + 4 * l2) * x + 3 * l4) * x + 2 * l6) * x + l8


class CanonicalCurve(namedtuple("CanonicalCurve", "field lam native")):
    """lam: (l2, l4, l6, l8, l10) as FieldElements, native: as reduced natives
    (Field._native), built once; built, compared and pickled by (field, lam)."""

    __slots__ = ()

    def __new__(cls, field: Field, lam: tuple):
        if len(lam) != 5:
            raise DegenerateCurve("expected 5 curve coefficients")
        lam = tuple(map(field.coerce, lam))
        self = super().__new__(cls, field, lam, tuple(map(field._native, lam)))
        if field.is_zero(self.discriminant()):
            raise DegenerateCurve("quintic has a repeated root")
        return self

    def __getnewargs__(self):
        return self.field, self.lam

    # -- polynomial views ------------------------------------------------------
    def px(self) -> UniPoly:
        return UniPoly._make(self.field, [*reversed(self.native), self.field._native_one])

    def _native_at(self, poly, x):
        """The reduced native of poly (_p_of or _dp_of) at x."""
        F = self.field
        return poly(F._native(F.coerce(x)), self.native) % F._modulus

    def p_at(self, x) -> FieldElement:
        return self.field._from_native(self._native_at(_p_of, x))

    def dp_at(self, x) -> FieldElement:
        return self.field._from_native(self._native_at(_dp_of, x))

    def discriminant(self) -> FieldElement:
        p = self.px()
        return unipoly.resultant(p, p.derivative())

    def on_curve(self, point) -> bool:
        F = self.field
        return self._on_curve_native(*(F._native(F.coerce(c)) for c in point))

    def _on_curve_native(self, x, y) -> bool:
        """Whether the point of reduced natives (x, y) lies on the curve."""
        return not (y * y - _p_of(x, self.native)) % self.field._modulus

    def branch_points(self) -> list:
        """x-coordinates with y = 0 that lie in the base field, sorted."""
        from .roots import roots_in_field
        return roots_in_field(self.px())

    def __repr__(self):
        ls = ", ".join(self.field.to_str(c) for c in self.lam)
        return f"CanonicalCurve({self.field.short_name()}; {ls})"


# ---------------------------------------------------------------------------
# serialization

def curve_to_json(c) -> dict:
    F = c.field
    if isinstance(c, CanonicalCurve):
        return {"field": F.spec.to_json(), "form": "canonical",
                "lambda": [F.to_str(v) for v in c.lam]}
    if c.form == "I":
        return {"field": F.spec.to_json(), "form": "I",
                "nu": [F.to_str(v) for v in c.nu]}
    if c.form == "II":
        return {"field": F.spec.to_json(), "form": "II",
                "a": [F.to_str(v) for v in c.a]}
    return {"field": F.spec.to_json(), "form": "III",
            "b": [F.to_str(v) for v in c.b],
            "a": [F.to_str(v) for v in c.a]}


def curve_from_json(obj: dict):
    try:
        F = make_field(FieldSpec.from_json(obj["field"]))
        form = obj["form"]
        if form == "canonical":
            lam = tuple(F.from_str(s) for s in obj["lambda"])
            return CanonicalCurve(F, lam)
        if form not in ("I", "II", "III"):
            raise SerializationError(f"unknown curve form {form!r}")
        from .models import GeneralCurve  # only the general forms load models
        if form == "I":
            return GeneralCurve(F, "I", nu=tuple(F.from_str(s) for s in obj["nu"]))
        if form == "II":
            return GeneralCurve(F, "II", a=tuple(F.from_str(s) for s in obj["a"]))
        return GeneralCurve(F, "III",
                            a=tuple(F.from_str(s) for s in obj["a"]),
                            b=tuple(F.from_str(s) for s in obj["b"]))
    except KeyError as exc:
        raise SerializationError(f"missing curve key: {exc}") from exc
