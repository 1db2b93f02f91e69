"""Sparse multivariate polynomials graded by Sato weights, the ring in which
`divpoly emit` builds and prints the division polynomials.

The grading assigns every variable a nonnegative integer weight (x has
weight 2, y weight 5, the curve coefficients their index); all formulas
transcribed from the addition/duplication laws are homogeneous in this
grading, and ``is_homogeneous`` is the standing sanity check after any
transcription.

Terms live in a dict {packed exponent: native coefficient}.  The packed
exponent of prod x_i^e_i is sum(e_i << SLOT*i) + (sum(e_i*w_i) << SLOT*n):
each slot holds an exponent below 2^EXP_BITS under a guard bit, and the
weight sits on top, so a monomial product is one int addition and an
exponent reaching 2^EXP_BITS sets a guard bit (OverflowError) instead of
spilling over.  Coefficients are Field._native values reduced by
% Field._modulus; sorted_terms(), the display (by weight, then exponent
vector) and JSON present exponent tuples and FieldElements.  Exact
division runs on a mutable remainder whose terms leave a heap in packed
order, a monomial order (cf. the heap division of M. Monagan and R.
Pearce, J. Symbolic Comput. 46, 2011).
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import itemgetter, or_
from struct import Struct

from .errors import DivisionByZero, InexactDivision, MixedFields
from .fields import Field, FieldElement

NEG_INF = float("-inf")
EXP_BITS = 15
SLOT = EXP_BITS + 1
_SCALARS = (int, Fraction, FieldElement)


def _product(a: dict, b: dict) -> dict:
    """The product of two term dicts, sums unreduced."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (eb, cb), = b.items()
        return {ea + eb: ca * cb for ea, ca in a.items()}
    out: dict = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


class PolyRing:
    """Fixed variable set with per-variable Sato weights over a Field.
    Rings compare by identity: polynomials of two rings never mix."""

    def __init__(self, field: Field, variables, weights):
        variables = tuple(variables)
        weights = tuple(int(w) for w in weights)
        if len(variables) != len(weights) or len(set(variables)) != len(variables):
            raise ValueError("variables/weights mismatch")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        self.field = field
        self.variables = variables
        self.weights = weights
        self.index = {v: i for i, v in enumerate(variables)}
        self._shifts = tuple(SLOT * i for i in range(len(variables)))
        self._guard = sum(1 << (s + EXP_BITS) for s in self._shifts)
        self._top = SLOT * len(variables)  # where the weight starts
        self._low = (1 << self._top) - 1
        self._slots = Struct(f"<{len(variables)}H")  # SLOT is 16 bits

    def __repr__(self):
        ws = ",".join(f"{v}:{w}" for v, w in zip(self.variables, self.weights))
        return f"PolyRing({self.field.short_name()}; {ws})"

    # -- packed exponents -----------------------------------------------------
    def _unpack(self, key: int) -> tuple:
        return self._slots.unpack((key & self._low).to_bytes(self._slots.size, "little"))

    def _finish(self, sums: dict) -> "WeightedPoly":
        """The polynomial of unreduced native sums keyed by packed exponents."""
        if reduce(or_, sums, 0) & self._guard:
            raise OverflowError(f"an exponent reaches 2^{EXP_BITS}")
        m = self.field._modulus
        return WeightedPoly._make(self, {k: r for k, c in sums.items() if (r := c % m)})

    # -- construction --------------------------------------------------------
    def zero(self) -> "WeightedPoly":
        return WeightedPoly._make(self, {})

    def one(self) -> "WeightedPoly":
        return self.const(1)

    def const(self, c) -> "WeightedPoly":
        c = self.field._native(self.field.coerce(c))
        return WeightedPoly._make(self, {0: c} if c else {})

    def var(self, name: str) -> "WeightedPoly":
        i = self.index[name]
        key = (1 << self._shifts[i]) + (self.weights[i] << self._top)
        return WeightedPoly._make(self, {key: self.field._native(self.field.one)})

    def gens(self) -> dict:
        return {v: self.var(v) for v in self.variables}


class WeightedPoly:
    """A polynomial of a PolyRing, built by the ring's const and var and by
    arithmetic: _terms maps packed exponents to reduced natives."""

    __slots__ = ("ring", "_terms")

    @staticmethod
    def _make(ring: PolyRing, terms: dict) -> "WeightedPoly":  # {packed: reduced native}
        p = WeightedPoly.__new__(WeightedPoly)
        p.ring, p._terms = ring, terms
        return p

    # -- inspection ------------------------------------------------------------
    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def weighted_degree(self):
        return max(self._terms) >> self.ring._top if self._terms else NEG_INF

    def is_homogeneous(self) -> bool:
        top = self.ring._top
        return len({k >> top for k in self._terms}) <= 1

    # -- arithmetic --------------------------------------------------------------
    def _check(self, other):
        """other as a polynomial of this ring; NotImplemented for an operand
        type this class does not know, so the other operand's reflected
        operator runs."""
        if isinstance(other, WeightedPoly):
            if other.ring is not self.ring:
                raise MixedFields("polynomials from different rings")
            return other
        if isinstance(other, _SCALARS):
            return self.ring.const(other)
        return NotImplemented

    def _plus(self, terms):
        m, zero = self.ring.field._modulus, self.ring.field._native_zero
        out = dict(self._terms)
        for k, c in terms:
            c = (out.pop(k, zero) + c) % m
            if c:
                out[k] = c
        return WeightedPoly._make(self.ring, out)

    def __add__(self, other):
        other = self._check(other)
        return NotImplemented if other is NotImplemented else self._plus(other._terms.items())

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        other = self._check(other)
        return NotImplemented if other is NotImplemented else self._plus(
            (k, -c) for k, c in other._terms.items())

    def __rsub__(self, other):
        other = self._check(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring._finish(_product(self._terms, other._terms))

    __rmul__ = __mul__

    def scale(self, c) -> "WeightedPoly":
        F = self.ring.field
        c = F._native(F.coerce(c))
        if not c:
            return self.ring.zero()
        m = F._modulus
        return WeightedPoly._make(self.ring, {k: v * c % m for k, v in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def exact_div(self, g: "WeightedPoly") -> "WeightedPoly":
        """Quotient self/g; raises InexactDivision unless g divides exactly.
        Each step costs one pass over g, not over the remainder."""
        g = self._check(g)
        if g is NotImplemented:
            raise MixedFields("divisor is not a polynomial of this ring")
        if g.is_zero():
            raise DivisionByZero("division by zero polynomial")
        F, guard = self.ring.field, self.ring._guard
        m, zero = F._modulus, F._native_zero
        ge = max(g._terms)
        g_inv = F._invert(g._terms[ge])
        tail = [(k, -c % m) for k, c in g._terms.items() if k != ge]
        rem = dict(self._terms)
        heap = [-k for k in rem]
        heapify(heap)
        quotient: dict = {}
        while heap:
            re = -heappop(heap)
            rc = rem.pop(re) % m
            if not rc:
                continue
            # slot by slot re - ge; a slot below zero clears its guard bit
            qe = (re | guard) - ge
            if qe & guard != guard:
                raise InexactDivision("leading term not divisible")
            qe ^= guard
            qc = quotient[qe] = rc * g_inv % m
            for k, c in tail:
                k += qe
                if k not in rem:
                    heappush(heap, -k)
                rem[k] = rem.get(k, zero) + qc * c
        return WeightedPoly._make(self.ring, quotient)

    # -- substitution -----------------------------------------------------------
    def compose(self, images: dict, den=1, over=()) -> "WeightedPoly":
        """self with each variable named in images replaced by its image, a
        polynomial of the ring of the first image or an int, and each other
        variable by its namesake there.  The images of the variables in over
        stand over den: the result is den^B * self(images), B the largest
        degree of a term in those variables.  Each power is built once."""
        ring, names = next(iter(images.values())).ring, self.ring.variables
        images = [images[v] if v in images else ring.var(v) for v in names]
        rows = [[ring.one()] for _ in names]
        sums: dict = {}  # per degree in over, unreduced native sums
        for key, c in self._terms.items():
            t, s = {0: c}, 0
            for row, image, v, e in zip(rows, images, names, self.ring._unpack(key)):
                if e:
                    while len(row) <= e:
                        row.append(row[-1] * image)
                    t, s = _product(t, row[e]._terms), s + (v in over) * e
            acc = sums.setdefault(s, {})
            for k, x in t.items():
                acc[k] = acc.get(k, 0) + x
        top = max(sums, default=0)
        return sum((ring._finish(acc) * den ** (top - s) for s, acc in sums.items()), ring.zero())

    def reduce_squares(self, squares: dict) -> "WeightedPoly":
        """self rewritten by v^2 = squares[v] for each variable v named, by
        Horner's rule in v^2, so those variables' exponents fall below 2."""
        ring, out = self.ring, self
        for v, square in squares.items():
            i = ring.index[v]
            step = (2 << ring._shifts[i]) + (2 * ring.weights[i] << ring._top)
            parts: dict = {}
            for key, c in out._terms.items():
                q = ring._unpack(key)[i] >> 1
                parts.setdefault(q, {})[key - q * step] = c
            out = ring.zero()
            for q in range(max(parts, default=0), -1, -1):
                out = out * square + WeightedPoly._make(ring, parts.get(q, {}))
        return out

    def __eq__(self, other):
        if isinstance(other, WeightedPoly):
            if other.ring is not self.ring:
                raise MixedFields("polynomials from different rings")
            return self._terms == other._terms
        if isinstance(other, _SCALARS):
            try:
                return self._terms == self.ring.const(other)._terms
            except DivisionByZero:  # a rational whose denominator p divides
                return False
        return NotImplemented

    __hash__ = None

    # -- evaluation -------------------------------------------------------------
    def evaluate(self, values: dict) -> FieldElement:
        """Full numeric evaluation; values maps every occurring var to a field element."""
        ring = self.ring
        F = ring.field
        m = F._modulus
        base = {ring.index[name]: F._native(F.coerce(v)) for name, v in values.items()}
        exps = list(map(ring._unpack, self._terms))
        # per variable, its powers up to the degree that occurs, by repeated products
        powers = []
        for i, degree in enumerate(map(max, zip(*exps))):
            row = [F._native(F.one)]
            for _ in range(degree):
                row.append(row[-1] * base[i] % m)
            powers.append(row)
        # the first variable's powers scale the coefficients, summed per
        # monomial in the other variables, which then multiplies once
        zero = F._native_zero
        groups: dict = {}
        for e, c in zip(exps, self._terms.values()):
            if e and e[0]:
                c = c * powers[0][e[0]]
            groups[e[1:]] = groups.get(e[1:], zero) + c
        acc = zero
        for rest, c in groups.items():
            for i, k in enumerate(rest, 1):
                if k:
                    c = c * powers[i][k]
            acc += c
        return F._from_native(acc % m)

    # -- display --------------------------------------------------------------
    def sorted_terms(self) -> list:
        ring = self.ring
        keyed = sorted(((k >> ring._top, ring._unpack(k), c) for k, c in self._terms.items()),
                       key=itemgetter(0, 1), reverse=True)
        return [(e, ring.field._from_native(c)) for _, e, c in keyed]

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        F = self.ring.field
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, ei in zip(self.ring.variables, e):
                if ei == 1:
                    factors.append(name)
                elif ei > 1:
                    factors.append(f"{name}^{ei}")
            cs = F.to_str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        F = self.ring.field
        return {
            "vars": list(self.ring.variables),
            "weights": list(self.ring.weights),
            "terms": [{"exps": list(e), "coeff": F.to_str(c)} for e, c in self.sorted_terms()],
        }

    def __repr__(self):
        text = self.to_text()
        if len(text) > 160:
            text = text[:157] + "..."
        return f"Poly({text})"

