"""Exact field arithmetic over Q, F_p, and extension fields F_{p^k}, k <= 4.

Every other module is generic over the (Field, FieldElement) pair defined
here.  Characteristics 2 and 5 are rejected: the hyperelliptic involution
y -> -y degenerates in characteristic 2, and the quintic leading term plus
the 1/10 denominators of the birational transformations misbehave in
characteristic 5.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import isqrt

from .errors import (
    DivisionByZero,
    MixedFields,
    NoSquareRoot,
    SerializationError,
    UnsupportedField,
)

EXCLUDED_CHARACTERISTICS = (2, 5)
MAX_EXTENSION_DEGREE = 4


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


def is_irreducible_mod_p(coeffs, p: int) -> bool:
    """Rabin test for a monic polynomial (ascending coefficients) over F_p."""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] % p != 1:
        return False
    if k == 1:
        return True
    # the Field classes are defined below and unipoly imports them
    from .unipoly import UniPoly, gcd, powmod
    x, m = UniPoly.x(GF(p)), UniPoly(GF(p), coeffs)
    # x^(p^k) == x mod m, and x^(p^(k/l)) - x coprime to m for each prime l | k
    if powmod(x, p ** k, m) != x:
        return False
    return all(gcd(powmod(x, p ** (k // ell), m) - x, m).degree() == 0
               for ell in (2, 3) if k % ell == 0)


def find_irreducible(p: int, k: int) -> list[int]:
    """First monic irreducible of degree k over F_p in lexicographic scan.

    Coefficients returned ascending, length k+1.  Deterministic, so the
    extension field built from (p, k) is reproducible across runs.
    """
    if not is_prime(p) or p in EXCLUDED_CHARACTERISTICS:
        raise UnsupportedField(f"p={p} is not an admissible odd prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise UnsupportedField(f"extension degree {k} outside 1..{MAX_EXTENSION_DEGREE}")
    if k == 1:
        return [0, 1]
    for counter in range(p ** k):
        # digits give (c_{k-1}, ..., c_1, c_0), most significant varying slowest
        digits = []
        n = counter
        for _ in range(k):
            digits.append(n % p)
            n //= p
        coeffs = digits + [1]  # ascending with leading 1
        if is_irreducible_mod_p(coeffs, p):
            return coeffs
    raise UnsupportedField("no irreducible found (unreachable)")


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
    """Immutable element of a Field; arithmetic delegates to the field."""

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

    def __pow__(self, e: int):
        return self.field.pow(self, e)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
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
    def key(self):
        raise NotImplementedError

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
        if isinstance(v, (int, Fraction)):
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
    # The group law's hot branches (the generic sum and the single-pass
    # doubling) compute on native values: int for F_p (reduced only by
    # _reduce), an int or a Fraction for Q, and the element itself for
    # F_{p^k}.  coerce turns any of them back into an element; _invert takes
    # one, reduced or not, to its reduced native inverse (over F_p one pow,
    # no element built; over Q a Fraction) and is the doubling's zero test.
    # Each field sets _native_zero in __init__: an attribute added later (as
    # by functools.cached_property) moves the instance's attributes out of
    # CPython's inline-values layout and slows every self.p and self._reduce.
    _native_zero = None

    def _native(self, a):
        return a.value

    def _reduce(self, v):
        return v

    def _invert(self, v):
        """The reduced native 1/v; DivisionByZero when v is zero."""
        return self._native(self.inv(self.coerce(v)))

    # -- square roots ---------------------------------------------------------
    def sqrt(self, a) -> tuple:
        """All square roots of a, deterministically sorted; () is the no-root marker."""
        raise NotImplementedError

    def sqrt_exact(self, a) -> FieldElement:
        roots = self.sqrt(a)
        if not roots:
            raise NoSquareRoot(f"{self.to_str(a)} is not a square in {self}")
        return roots[0]

    def is_square(self, a) -> bool:
        return bool(self.sqrt(a))

    # -- order / serialization -------------------------------------------------
    def sort_key(self, a):
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def from_str(self, s: str) -> FieldElement:
        raise NotImplementedError

    def elements(self):
        """Iterate all elements (finite fields only), deterministic order."""
        raise UnsupportedField(f"{self} is not finite")


class RationalField(Field):
    characteristic = 0

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._native_zero = 0

    def key(self):
        return ("rational",)

    def short_name(self):
        return "Q"

    def element(self, raw):
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

    def is_zero(self, a):
        return not a.value

    def _native(self, a):
        return self._reduce(a.value)

    def _reduce(self, v):
        # an int while integral (faster than Fraction), else a Fraction; no
        # native path divides (int / int gives a float): inverses use _invert
        if type(v) is int:
            return v
        return v.numerator if v.denominator == 1 else v

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


class PrimeField(Field):
    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.characteristic = spec.p
        self._native_zero = 0

    def key(self):
        return ("prime", self.p)

    def short_name(self):
        return f"F{self.p}"

    def order(self):
        return self.p

    def element(self, raw):
        if isinstance(raw, int):  # before the slower isinstance against Fraction's ABC
            v = raw % self.p
        elif isinstance(raw, Fraction):
            if raw.denominator % self.p == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            v = raw.numerator * pow(raw.denominator, -1, self.p) % self.p
        else:
            v = raw % self.p
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

    def _reduce(self, v):
        return v % self.p

    def _invert(self, v):
        try:
            return pow(v, -1, self.p)
        except ValueError:  # v is a multiple of p
            raise DivisionByZero(f"1/0 in {self}") from None

    def sqrt(self, a):
        v = a.value
        if v == 0:
            return (self.zero,)
        if pow(v, (self.p - 1) // 2, self.p) != 1:
            return ()
        r = tonelli_shanks(v, self.p)
        pair = sorted((r, self.p - r))
        return tuple(FieldElement(self, x) for x in pair)

    def sort_key(self, a):
        return a.value

    def to_str(self, a):
        return str(a.value)

    def from_str(self, s):
        try:
            return self.element(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise SerializationError(f"bad element {s!r} for {self}") from exc

    def _element_at(self, n: int) -> FieldElement:
        return FieldElement(self, n)

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)


def tonelli_shanks(n: int, p: int) -> int:
    """A square root of n mod p for an odd prime p; n must be a QR."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    s, q = 0, p - 1
    while q % 2 == 0:
        s += 1
        q //= 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class ExtensionField(Field):
    """F_{p^k} as F_p[t]/(m(t)); values are reduced coefficient tuples."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = p = spec.p
        self.k = k = spec.k
        self.characteristic = p
        self.modulus = spec.modulus
        self._nonresidue = None  # see _non_residue
        self._native_zero = FieldElement(self, (0,) * k)
        # reduction table: _red[i] represents t^(k+i) as a degree < k vector
        self._red = [tuple((-m) % p for m in self.modulus[:-1])]
        for _ in range(k - 2):
            rep = [0] + list(self._red[-1])
            lead = rep.pop()
            if lead:
                rep = [(a + lead * b) % p for a, b in zip(rep, self._red[0])]
            self._red.append(tuple(rep))
        # Frobenius matrix: _frob[i] represents t^(i*p) as a degree < k vector
        from .unipoly import UniPoly, powmod
        t, m = UniPoly.x(GF(p)), UniPoly(GF(p), self.modulus)
        self._frob = [tuple(powmod(t, i * p, m)[j].value for j in range(k)) for i in range(k)]

    def key(self):
        return ("extension", self.p, self.k, self.modulus)

    def short_name(self):
        return f"F{self.p}^{self.k}"

    def order(self):
        return self.p ** self.k

    def element(self, raw):
        if isinstance(raw, Fraction):
            if raw.denominator % self.p == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            v = raw.numerator * pow(raw.denominator, self.p - 2, self.p) % self.p
            return FieldElement(self, (v,) + (0,) * (self.k - 1))
        if isinstance(raw, int):
            return FieldElement(self, (raw % self.p,) + (0,) * (self.k - 1))
        raise MixedFields(f"cannot build {self} element from {raw!r}")

    def from_coeffs(self, coeffs) -> FieldElement:
        c = [int(x) % self.p for x in coeffs]
        if len(c) > self.k:
            raise SerializationError("too many coefficients")
        c += [0] * (self.k - len(c))
        return FieldElement(self, tuple(c))

    def gen(self) -> FieldElement:
        """The residue class of t."""
        return self.from_coeffs([0, 1])

    def add(self, a, b):
        p = self.p
        return FieldElement(self, tuple((x + y) % p for x, y in zip(a.value, b.value)))

    def sub(self, a, b):
        p = self.p
        return FieldElement(self, tuple((x - y) % p for x, y in zip(a.value, b.value)))

    def neg(self, a):
        p = self.p
        return FieldElement(self, tuple(-x % p for x in a.value))

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        av, bv = a.value, b.value
        for i, x in enumerate(av):
            if x:
                for j, y in enumerate(bv):
                    prod[i + j] += x * y
        out = [c % p for c in prod[:k]]
        for i in range(k, 2 * k - 1):
            c = prod[i] % p
            if c:
                red = self._red[i - k]
                for j in range(k):
                    out[j] = (out[j] + c * red[j]) % p
        return FieldElement(self, tuple(out))

    def inv(self, a):
        """a^-1 = r / N(a) with r = a^p * a^(p^2) * ... * a^(p^(k-1)).  The
        norm N(a) = a * r lies in F_p: k - 2 field products build r and one
        more gives N(a)."""
        if self.is_zero(a):
            raise DivisionByZero(f"1/0 in {self}")
        p = self.p
        conj = r = self.frobenius(a)
        for _ in range(self.k - 2):
            conj = self.frobenius(conj)
            r = self.mul(r, conj)
        n_inv = pow(self.mul(a, r).value[0], -1, p)
        return FieldElement(self, tuple(c * n_inv % p for c in r.value))

    def is_zero(self, a):
        return not any(a.value)

    def _native(self, a):
        return a

    def frobenius(self, a: FieldElement) -> FieldElement:
        """a^p, one product of the coefficient vector with the Frobenius matrix."""
        p = self.p
        out = [0] * self.k
        for c, row in zip(a.value, self._frob):
            if c:
                for j, m in enumerate(row):
                    out[j] += c * m
        return FieldElement(self, tuple(x % p for x in out))

    def sqrt(self, a):
        if self.is_zero(a):
            return (self.zero,)
        q = self.order()
        if self.pow(a, (q - 1) // 2) != self.one:
            return ()
        if q % 4 == 3:
            r = self.pow(a, (q + 1) // 4)
        else:
            r = self._tonelli(a)
        pair = sorted((r, self.neg(r)), key=self.sort_key)
        return tuple(pair)

    def _tonelli(self, a):
        if self.is_zero(a):
            return self.zero
        q = self.order()
        s, t = 0, q - 1
        while t % 2 == 0:
            s += 1
            t //= 2
        m, c = s, self.pow(self._non_residue(), t)
        tt, r = self.pow(a, t), self.pow(a, (t + 1) // 2)
        while tt != self.one:
            i, t2 = 0, tt
            while t2 != self.one:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m, c = i, self.mul(b, b)
            tt, r = self.mul(tt, c), self.mul(r, b)
        return r

    def _non_residue(self):
        """The first quadratic non-residue in elements() order, found once per
        field without enumerating the field.  For odd k an element of F_p is a
        square in F_{p^k} exactly when it is one in F_p, so this is the least
        non-residue mod p.  For even k the prime subfield (the first p
        elements) consists of squares, so the Euler test starts at element p,
        which is t."""
        if self._nonresidue is None:
            p = self.p
            if self.k % 2:
                c = next(c for c in count(2) if pow(c, (p - 1) // 2, p) == p - 1)
                self._nonresidue = self.element(c)
            else:
                e = (self.order() - 1) // 2
                self._nonresidue = next(z for z in map(self._element_at, count(p))
                                        if self.pow(z, e) != self.one)
        return self._nonresidue

    def sort_key(self, a):
        return tuple(reversed(a.value))

    def to_str(self, a):
        return ",".join(str(c) for c in a.value)

    def from_str(self, s):
        try:
            return self.from_coeffs([int(c) for c in s.split(",")])
        except ValueError as exc:
            raise SerializationError(f"bad element {s!r} for {self}") from exc

    def _element_at(self, n: int) -> FieldElement:
        """Element n of elements(): the base-p digits of n, lowest first."""
        coeffs = []
        for _ in range(self.k):
            n, c = divmod(n, self.p)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        return map(self._element_at, range(self.order()))


_FIELD_CACHE: dict = {}


def make_field(spec: FieldSpec) -> Field:
    keyed = (spec.kind, spec.p, spec.k, spec.modulus)
    if keyed not in _FIELD_CACHE:
        if spec.kind == "rational":
            _FIELD_CACHE[keyed] = RationalField(spec)
        elif spec.kind == "prime":
            _FIELD_CACHE[keyed] = PrimeField(spec)
        else:
            _FIELD_CACHE[keyed] = ExtensionField(spec)
    return _FIELD_CACHE[keyed]


def QQ() -> RationalField:
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
            spec = FieldSpec("extension", p=p, k=k,
                             modulus=tuple(find_irreducible(p, k)) if modulus is None else args[2])
        _GF_CACHE[args] = make_field(spec)
    return _GF_CACHE[args]


_EMBEDDING_CACHE: dict = {}


def embedding(small: Field, big: "ExtensionField") -> "FieldEmbedding":
    """The FieldEmbedding of small into big, built once per pair of fields."""
    if (small, big) not in _EMBEDDING_CACHE:
        _EMBEDDING_CACHE[small, big] = FieldEmbedding(small, big)
    return _EMBEDDING_CACHE[small, big]


class FieldEmbedding:
    """Embedding of a prime or extension field into a larger extension field.

    The image of the small field's generator is the least root (in sort_key
    order) of its modulus in the big field, found by roots_in_field; pullback
    solves the resulting linear system over F_p.
    """

    def __init__(self, small: Field, big: ExtensionField):
        if small.characteristic != big.characteristic:
            raise MixedFields("characteristic mismatch")
        self.small = small
        self.big = big
        p = big.p
        if isinstance(small, PrimeField):
            self._basis = [big.one]
        elif isinstance(small, ExtensionField):
            if big.k % small.k != 0:
                raise UnsupportedField(f"degree {small.k} does not divide {big.k}")
            from .unipoly import UniPoly, roots_in_field
            roots = roots_in_field(UniPoly(big, small.modulus))
            if not roots:
                raise UnsupportedField("modulus has no root in target field")
            root = roots[0]
            self._basis = [big.one]
            for _ in range(small.k - 1):
                self._basis.append(big.mul(self._basis[-1], root))
        else:
            raise UnsupportedField("can only embed finite fields")
        # pullback matrix: columns are basis vectors over F_p
        self._cols = [b.value for b in self._basis]
        self.p = p

    def embed(self, a: FieldElement) -> FieldElement:
        if isinstance(self.small, PrimeField):
            return self.big.element(a.value)
        acc = self.big.zero
        for c, b in zip(a.value, self._basis):
            if c:
                acc = self.big.add(acc, self.big.mul(self.big.element(c), b))
        return acc

    def pullback(self, a: FieldElement) -> FieldElement:
        """Inverse image in the small field; raises if a is not in the image."""
        p, n = self.p, self.big.k
        m = len(self._cols)
        # solve sum c_j * col_j = a.value over F_p by Gaussian elimination
        rows = [[self._cols[j][i] for j in range(m)] + [a.value[i]] for i in range(n)]
        piv = []
        r = 0
        for col in range(m):
            sel = next((i for i in range(r, n) if rows[i][col] % p), None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = pow(rows[r][col], p - 2, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][col] % p:
                    f = rows[i][col]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
            piv.append(col)
            r += 1
        sol = [0] * m
        for i, col in enumerate(piv):
            sol[col] = rows[i][-1] % p
        for i in range(r, n):
            if rows[i][-1] % p:
                raise MixedFields("element is not in the embedded subfield")
        # verify (guards non-pivot columns)
        cand = (self.small.element(sol[0]) if isinstance(self.small, PrimeField)
                else self.small.from_coeffs(sol))
        if self.embed(cand) != a:
            raise MixedFields("element is not in the embedded subfield")
        return cand
