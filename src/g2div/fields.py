"""Exact field arithmetic over F_p; the FieldSpec of Q, F_p and F_{p^k}, k <= 4.

Every other module is generic over the (Field, FieldElement) pair defined
here.  Characteristics 2 and 5 are rejected: the hyperelliptic involution
y -> -y degenerates in characteristic 2, and the quintic leading term plus
the 1/10 denominators of the birational transformations misbehave in
characteristic 5.

F_{p^k} arithmetic, moduli and embeddings live in g2div.extension and Q in
g2div.rational, each loaded on first use; their public names resolve here
too (PEP 562).  rational imports fractions, so F_p code loads neither.
"""
from __future__ import annotations

from collections import namedtuple
from numbers import Rational

from .errors import DivisionByZero, MixedFields, NoSquareRoot, SerializationError, UnsupportedField

EXCLUDED_CHARACTERISTICS = (2, 5)
MAX_EXTENSION_DEGREE = 4
_RATIONALS = (int, Rational)  # int first: the Rational ABC's isinstance is slower


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases.

    A proof of primality for n < 3.3 * 10^24 (every composite below that
    bound fails one of these bases); above it a strong probable-prime test.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# field specification

class FieldSpec(namedtuple("FieldSpec", "kind p k modulus")):
    """Serializable description of a coefficient field.

    kind is "rational", "prime" or "extension"; an extension's modulus is
    ascending, monic and of length k+1."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None, k: int | None = None,
                modulus: tuple[int, ...] | None = None):
        if kind != "rational":
            if kind not in ("prime", "extension"):
                raise UnsupportedField(f"unknown field kind {kind!r}")
            if p is None or not is_prime(p):
                raise UnsupportedField(f"p={p} is not prime")
            if p in EXCLUDED_CHARACTERISTICS:
                raise UnsupportedField(f"characteristic {p} is excluded")
        if kind == "extension":
            if k is None or not 2 <= k <= MAX_EXTENSION_DEGREE:
                raise UnsupportedField(f"extension degree {k} outside 2..{MAX_EXTENSION_DEGREE}")
            if modulus is None or len(modulus) != k + 1:
                raise UnsupportedField("modulus length must be k+1")
            modulus = tuple(m % p for m in modulus)
            if modulus[-1] % p != 1:
                raise UnsupportedField("modulus must be monic")
            from .extension import is_irreducible_mod_p
            if not is_irreducible_mod_p(list(modulus), p):
                raise UnsupportedField("modulus is reducible")
        return super().__new__(cls, kind, p, k, modulus)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "extension", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        try:
            kind = obj["kind"]
            if kind == "rational":
                return FieldSpec("rational")
            if kind == "prime":
                return FieldSpec("prime", p=int(obj["p"]))
            if kind == "extension":
                return FieldSpec("extension", p=int(obj["p"]), k=int(obj["k"]),
                                 modulus=tuple(int(c) for c in obj["modulus"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad field spec: {exc}") from exc
        raise SerializationError(f"unknown field kind {kind!r}")

    def build(self) -> "Field":
        return make_field(self)


# ---------------------------------------------------------------------------
# elements

def _uncoercible(a: "FieldElement", other):
    """The result of an operator on a and an operand its field cannot coerce:
    NotImplemented for a type no field knows, so that Python runs the
    operand's reflected operator (a polynomial's, say); an element of
    another field still raises MixedFields."""
    if isinstance(other, FieldElement):
        raise MixedFields(f"{a.field} vs {other.field}")
    return NotImplemented


class FieldElement:
    """Immutable element of a Field; arithmetic delegates to the field.

    An element compares equal to the rationals it represents (over F_7,
    e == 3 and e == 10 both hold) but hashes with its field, so
    3 in {e} is False: a set or dict key must hold elements of one field,
    not plain numbers.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    def __add__(self, other):
        try:
            return self.field.add(self, self.field.coerce(other))
        except MixedFields:
            return _uncoercible(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            return self.field.sub(self, self.field.coerce(other))
        except MixedFields:
            return _uncoercible(self, other)

    def __rsub__(self, other):
        try:
            return self.field.sub(self.field.coerce(other), self)
        except MixedFields:
            return _uncoercible(self, other)

    def __mul__(self, other):
        try:
            return self.field.mul(self, self.field.coerce(other))
        except MixedFields:
            return _uncoercible(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            return self.field.div(self, self.field.coerce(other))
        except MixedFields:
            return _uncoercible(self, other)

    def __rtruediv__(self, other):
        try:
            return self.field.div(self.field.coerce(other), self)
        except MixedFields:
            return _uncoercible(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, e: int, mod=None):
        # pow(v, e, F._modulus) on F_{p^k}'s natives, already reduced (Field.sqrt)
        if mod is not None and mod is not self.field._modulus:
            return NotImplemented
        return self.field.pow(self, e)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return self.value == other.value
        if isinstance(other, _RATIONALS):
            try:
                return self.value == self.field.coerce(other).value
            except DivisionByZero:  # a rational whose denominator p divides
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self)

    def __repr__(self):
        return f"{self.field.short_name()}({self.field.to_str(self)})"


class Field:
    """Common interface; subclasses implement raw arithmetic on .value.

    Fields are interned: make_field (behind GF, QQ and FieldSpec.build) returns
    one object per spec, so equality is identity.
    """

    spec: FieldSpec

    # -- identification -----------------------------------------------------
    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def __reduce__(self):
        return make_field, (self.spec,)

    def short_name(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.short_name()

    # -- characteristic / size ----------------------------------------------
    characteristic: int = 0

    def order(self) -> int | None:
        """Number of elements, or None for Q."""
        return None

    # -- construction ---------------------------------------------------------
    def element(self, raw) -> FieldElement:
        raise NotImplementedError

    def coerce(self, v) -> FieldElement:
        if isinstance(v, FieldElement):
            if v.field is not self:
                raise MixedFields(f"{self} vs {v.field}")
            return v
        if isinstance(v, _RATIONALS):
            return self.element(v)
        raise MixedFields(f"cannot coerce {v!r} into {self}")

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    # -- arithmetic ----------------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero(f"division by zero in {self}")
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    # -- native values --------------------------------------------------------
    # The group law's hot branches (the generic sum and doubling kernels),
    # UniPoly, the polynomial ring and the Cantor oracle compute on native
    # values: int for F_p, an int or a Fraction for Q, and the element itself
    # for F_{p^k}.  v % F._modulus reduces one.  For F_p _modulus is the int
    # p, so a reduction is one C-level %; for Q it is an object whose
    # __rmod__ turns an integral Fraction into its int (faster to compute
    # on), and for F_{p^k} one whose __rmod__ returns v.  _from_native turns
    # a reduced native back into an element (over F_p without a second %,
    # elsewhere by coerce); _invert takes one, reduced or not, to its
    # reduced native inverse (over F_p one pow, no element built; over Q a
    # Fraction) and is the kernels' zero test.  Each field sets _modulus,
    # _native_zero and _native_one (and a finite field the _nonresidue cache
    # of _non_residue) in __init__: an attribute added later (as by
    # functools.cached_property) moves the instance's attributes out of
    # CPython's inline-values layout and slows every self.p and F._modulus.
    # _modulus and _native_one have no class default, so a field without
    # them fails at once instead of building a polynomial whose None
    # coefficient _make strips as zero.
    _native_zero = None

    def _native(self, a):
        return a.value

    def _from_native(self, v) -> FieldElement:
        """The element of the reduced native v."""
        return self.coerce(v)

    def _invert(self, v):
        """The reduced native 1/v; DivisionByZero when v is zero."""
        return self._native(self.inv(self._from_native(v)))

    # -- square roots ---------------------------------------------------------
    # For the finite fields; RationalField overrides sqrt and is_square.
    def sqrt(self, a) -> tuple:
        """All square roots of a, sorted by sort_key; () is the no-root marker.

        When q = 3 mod 4, r = a^((q+1)/4) is a root exactly when r*r == a
        (else r*r == -a), so one power decides and finds it.  Otherwise
        Tonelli-Shanks on q - 1 = 2^s * t with t odd: one power x =
        a^((t-1)/2) gives r = a*x and a^t = r*x, a^t of order 2^s marks a
        non-square, and the first step raises the cached _non_residue() z
        to t*2^k directly, so z^t is never formed on its own.  On natives:
        pow(v, e, m) is the built-in one over F_p, an element's over F_{p^k}."""
        v = self._native(a)
        if not v:
            return (self.zero,)
        q, m, one = self.order(), self._modulus, self._native_one
        if q % 4 == 3:
            r = pow(v, (q + 1) // 4, m)
            if r * r % m != v:
                return ()
        else:
            s, t = 0, q - 1
            while t % 2 == 0:
                s += 1
                t //= 2
            x = pow(v, (t - 1) // 2, m)
            r = v * x % m
            tt, k, c, e = r * x % m, s, self._native(self._non_residue()), t  # c^e = z^t
            while tt != one:
                i, t2 = 0, tt
                while t2 != one:
                    t2 = t2 * t2 % m
                    i += 1
                if i == k:
                    return ()  # a^((q-1)/2) = -1
                b = pow(c, e << (k - i - 1), m)
                k, c, e = i, b * b % m, 1
                tt, r = tt * c % m, r * b % m
        r, n = self._from_native(r), self._from_native(-r % m)
        return (r, n) if self.sort_key(r) < self.sort_key(n) else (n, r)

    def _non_residue(self) -> FieldElement:
        """The first quadratic non-residue in elements() order, found on first
        use without enumerating the field.  Elements 0 and 1 are squares, and
        for even k so is all of the prime subfield (the first p elements), so
        the scan starts at element p there and at element 2 otherwise."""
        if self._nonresidue is None:
            start = self.p if (self.spec.k or 1) % 2 == 0 else 2
            self._nonresidue = next(z for z in map(self._element_at, range(start, self.order()))
                                    if not self.is_square(z))
        return self._nonresidue

    def sqrt_exact(self, a) -> FieldElement:
        roots = self.sqrt(a)
        if not roots:
            raise NoSquareRoot(f"{self.to_str(a)} is not a square in {self}")
        return roots[0]

    def is_square(self, a) -> bool:
        """Euler's criterion: a^((q-1)/2) is 0 or 1."""
        return self.is_zero(a) or self.pow(a, (self.order() - 1) // 2) == self.one

    # -- order / serialization -------------------------------------------------
    def sort_key(self, a):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def from_str(self, s: str) -> FieldElement:
        raise NotImplementedError

    def elements(self):
        """Iterate all elements (finite fields only), deterministic order."""
        if self.order() is None:
            raise UnsupportedField(f"{self} is not finite")
        return map(self._element_at, range(self.order()))


class PrimeField(Field):
    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._modulus = self.p = self.characteristic = spec.p
        self._native_zero, self._native_one = 0, 1
        self._nonresidue = None  # see _non_residue

    def short_name(self):
        return f"F{self.p}"

    def order(self):
        return self.p

    def element(self, raw):
        if isinstance(raw, int):  # before the slower isinstance against the Rational ABC
            v = raw % self.p
        elif isinstance(raw, Rational):
            if raw.denominator % self.p == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            v = raw.numerator * pow(raw.denominator, -1, self.p) % self.p
        else:
            raise MixedFields(f"cannot build {self} element from {raw!r}")
        return FieldElement(self, v)

    def add(self, a, b):
        return FieldElement(self, (a.value + b.value) % self.p)

    def sub(self, a, b):
        return FieldElement(self, (a.value - b.value) % self.p)

    def mul(self, a, b):
        return FieldElement(self, (a.value * b.value) % self.p)

    def neg(self, a):
        return FieldElement(self, -a.value % self.p)

    def inv(self, a):
        return FieldElement(self, self._invert(a.value))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return FieldElement(self, pow(a.value, e, self.p))

    def is_zero(self, a):
        return a.value == 0

    def _from_native(self, v):
        return FieldElement(self, v)

    def _invert(self, v):
        try:
            return pow(v, -1, self.p)
        except ValueError:  # v is a multiple of p
            raise DivisionByZero(f"1/0 in {self}") from None

    def sort_key(self, a):
        return a.value

    def to_str(self, a):
        return str(a.value)

    def from_str(self, s):
        if "_" not in s:  # Fraction takes "1_000" only from Python 3.11
            try:
                return self.element(int(s))
            except ValueError:  # "3/4", "1.5" or malformed: Fraction decides
                pass
        from fractions import Fraction
        try:
            return self.element(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad element {s!r} for {self}") from exc

    def _element_at(self, n: int) -> FieldElement:
        return FieldElement(self, n)


_FIELD_CACHE: dict = {}


def make_field(spec: FieldSpec) -> Field:
    keyed = (spec.kind, spec.p, spec.k, spec.modulus)
    if keyed not in _FIELD_CACHE:
        if spec.kind == "rational":
            from .rational import RationalField
            _FIELD_CACHE[keyed] = RationalField(spec)
        elif spec.kind == "prime":
            _FIELD_CACHE[keyed] = PrimeField(spec)
        else:
            from .extension import ExtensionField
            _FIELD_CACHE[keyed] = ExtensionField(spec)
    return _FIELD_CACHE[keyed]


def QQ() -> Field:
    return make_field(FieldSpec("rational"))


_GF_CACHE: dict = {}


def GF(p: int, k: int = 1, modulus=None) -> Field:
    """F_p, or F_{p^k} over the given modulus (default: find_irreducible's).

    Memoized on the arguments, so a repeated call neither re-tests p nor
    re-searches and re-tests the modulus."""
    args = (p, k, None if modulus is None or k == 1 else tuple(modulus))
    if args not in _GF_CACHE:
        if k == 1:
            spec = FieldSpec("prime", p=p)
        else:
            from .extension import find_irreducible
            spec = FieldSpec("extension", p=p, k=k,
                             modulus=tuple(find_irreducible(p, k)) if modulus is None else args[2])
        _GF_CACHE[args] = make_field(spec)
    return _GF_CACHE[args]


def __getattr__(name):
    if name == "RationalField":
        from .rational import RationalField
        return RationalField
    if name not in ("ExtensionField", "FieldEmbedding", "embedding", "find_irreducible",
                    "is_irreducible_mod_p"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import extension
    return getattr(extension, name)
