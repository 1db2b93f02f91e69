"""Extension fields F_{p^k}, 2 <= k <= 4, their irreducible moduli and field
embeddings.  Loaded on first use, so a computation over F_p or Q never
compiles it: by fields for an extension FieldSpec or GF(p, k > 1), and by
divisors for a support irreducible over its base field."""
from __future__ import annotations

from numbers import Rational

from .errors import DivisionByZero, MixedFields, SerializationError, UnsupportedField
from .fields import (EXCLUDED_CHARACTERISTICS, MAX_EXTENSION_DEGREE, GF, Field, FieldElement,
                     FieldSpec, PrimeField, is_prime)
from .roots import powmod, roots_in_field
from .unipoly import UniPoly, gcd


def is_irreducible_mod_p(coeffs, p: int) -> bool:
    """Rabin test for a monic polynomial (ascending coefficients) over F_p."""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] % p != 1:
        return False
    if k == 1:
        return True
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


class _ElementModulus:
    """F_{p^k}'s native modulus: its natives are reduced elements, so v % it
    is v (see Field._native)."""

    __slots__ = ()

    def __rmod__(self, v):
        return v


class ExtensionField(Field):
    """F_{p^k} as F_p[t]/(m(t)); values are reduced coefficient tuples."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = p = spec.p
        self.k = k = spec.k
        self.characteristic = p
        self.modulus = spec.modulus
        self._nonresidue = None  # see _non_residue
        self._modulus = _ElementModulus()
        self._native_zero = FieldElement(self, (0,) * k)
        self._native_one = FieldElement(self, (1,) + (0,) * (k - 1))
        # reduction table: _red[i] represents t^(k+i) as a degree < k vector
        self._red = [tuple((-m) % p for m in self.modulus[:-1])]
        for _ in range(k - 2):
            rep = [0] + list(self._red[-1])
            lead = rep.pop()
            if lead:
                rep = [(a + lead * b) % p for a, b in zip(rep, self._red[0])]
            self._red.append(tuple(rep))
        # Frobenius matrix: _frob[i] represents t^(i*p) as a degree < k vector
        t, m = UniPoly.x(GF(p)), UniPoly(GF(p), self.modulus)
        self._frob = [tuple(powmod(t, i * p, m)[j].value for j in range(k)) for i in range(k)]

    def short_name(self):
        return f"F{self.p}^{self.k}"

    def order(self):
        return self.p ** self.k

    def element(self, raw):
        if isinstance(raw, int):  # before the slower isinstance against the Rational ABC
            return FieldElement(self, (raw % self.p,) + (0,) * (self.k - 1))
        if isinstance(raw, Rational):
            return FieldElement(self, (GF(self.p).element(raw).value,) + (0,) * (self.k - 1))
        raise MixedFields(f"cannot build {self} element from {raw!r}")

    def from_coeffs(self, coeffs) -> FieldElement:
        c = [int(x) % self.p for x in coeffs]
        if len(c) > self.k:
            raise SerializationError("too many coefficients")
        c += [0] * (self.k - len(c))
        return FieldElement(self, tuple(c))

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

    def _from_native(self, v):
        return self.coerce(v)  # callers pass plain ints such as 0 too

    def _invert(self, v):
        return self.inv(self.coerce(v))

    def frobenius(self, a: FieldElement) -> FieldElement:
        """a^p, one product of the coefficient vector with the Frobenius matrix."""
        p = self.p
        out = [0] * self.k
        for c, row in zip(a.value, self._frob):
            if c:
                for j, m in enumerate(row):
                    out[j] += c * m
        return FieldElement(self, tuple(x % p for x in out))

    def sort_key(self, a):
        return tuple(reversed(a.value))

    def to_str(self, a):
        return ",".join(str(c) for c in a.value)

    def from_str(self, s):
        """The element of "c0,c1,...": at most k comma-separated coefficients,
        each an optional sign and ASCII digits, as in Field.from_str;
        SerializationError for any other string."""
        cs = s.split(",")
        if s.isascii() and len(cs) <= self.k and all(
                (c[1:] if c[:1] in ("+", "-") else c).isdecimal() for c in cs):
            try:
                return self.from_coeffs([int(c) for c in cs])
            except ValueError:  # past int's digit limit
                pass
        raise SerializationError(f"bad element {s!r} for {self}")

    def _element_at(self, n: int) -> FieldElement:
        """Element n of elements(): the base-p digits of n, lowest first."""
        coeffs = []
        for _ in range(self.k):
            n, c = divmod(n, self.p)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))


_EMBEDDING_CACHE: dict = {}


def embedding(small: Field, big: ExtensionField) -> "FieldEmbedding":
    """The FieldEmbedding of small into big, built once per pair of fields."""
    if (small, big) not in _EMBEDDING_CACHE:
        _EMBEDDING_CACHE[small, big] = FieldEmbedding(small, big)
    return _EMBEDDING_CACHE[small, big]


class FieldEmbedding:
    """Embedding of a prime or extension field into a larger extension field.

    The image of the small field's generator is the least root (in sort_key
    order) of its modulus in the big field, found by roots_in_field.
    """

    def __init__(self, small: Field, big: ExtensionField):
        if small.characteristic != big.characteristic:
            raise MixedFields("characteristic mismatch")
        self.small = small
        self.big = big
        if isinstance(small, PrimeField):
            self._basis = [big.one]
        elif isinstance(small, ExtensionField):
            if big.k % small.k != 0:
                raise UnsupportedField(f"degree {small.k} does not divide {big.k}")
            roots = roots_in_field(UniPoly(big, small.modulus))
            if not roots:
                raise UnsupportedField("modulus has no root in target field")
            root = roots[0]
            self._basis = [big.one]
            for _ in range(small.k - 1):
                self._basis.append(big.mul(self._basis[-1], root))
        else:
            raise UnsupportedField("can only embed finite fields")

    def embed(self, a: FieldElement) -> FieldElement:
        if isinstance(self.small, PrimeField):
            return self.big.element(a.value)
        acc = self.big.zero
        for c, b in zip(a.value, self._basis):
            if c:
                acc = self.big.add(acc, self.big.mul(self.big.element(c), b))
        return acc
