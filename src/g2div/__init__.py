"""Exact genus-2 Jacobian arithmetic in Mumford coordinates, with division
polynomials for 2-, 3-, and 4-torsion divisors and an independent Cantor
oracle for verification.

The names in __all__ resolve on access through their home module (PEP 562),
so ``import g2div`` or ``import g2div.cli`` loads only the modules used."""

_EXPORTS = {
    "curves": ("CanonicalCurve",),
    "divisors": ("MumfordDivisor", "mumford_from_points", "points_from_mumford", "negate"),
    "fields": ("GF", "QQ", "FieldElement", "FieldSpec"),
    "grouplaw": ("add", "double", "scalar_mul"),
    "models": ("GeneralCurve", "PointMap", "to_canonical"),
    "torsion": ("is_torsion", "two_torsion_divisors", "find_three_torsion",
                "find_four_torsion", "emit_division_polynomials"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
