"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error JSON without inspecting exception types.
"""
from __future__ import annotations


class G2DivError(Exception):
    """Base class for all domain errors raised by this library."""

    code = "domain-error"

    def payload(self) -> dict:
        return {"error": self.code, "detail": str(self)}


class DivisionByZero(G2DivError):
    code = "division-by-zero"


class MixedFields(G2DivError):
    code = "mixed-fields"


class NoSquareRoot(G2DivError):
    code = "no-square-root"


class UnsupportedField(G2DivError):
    code = "unsupported-field"


class InexactDivision(G2DivError):
    code = "inexact-division"


class NoRationalRoot(G2DivError):
    code = "no-rational-root"


class DegenerateCurve(G2DivError):
    code = "degenerate-curve"


class CharacteristicTooSmall(G2DivError):
    code = "characteristic-too-small"


class InvolutionPair(G2DivError):
    code = "involution-pair"


class OffCurve(G2DivError):
    code = "off-curve"


class SingularInterpolation(G2DivError):
    code = "singular-interpolation"


class BranchPointInSupport(G2DivError):
    code = "branch-point-in-support"


class SameDivisor(G2DivError):
    code = "same-divisor"


class SupportOverlap(G2DivError):
    code = "support-overlap"


class QInSupport(G2DivError):
    code = "q-in-support"


class ConditionViolated(G2DivError):
    code = "condition-violated"


class GammaUndefined(G2DivError):
    code = "gamma-undefined"


class SerializationError(G2DivError):
    code = "bad-input"
