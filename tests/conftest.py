import random

import pytest

from g2div.curves import CanonicalCurve
from g2div.divisors import mumford_from_points
from g2div.errors import MixedFields
from g2div.fields import GF, PrimeField


def random_point(curve, rng, nonzero_y=False):
    """A random affine point; x is drawn from the whole field, F_{p^k}
    included."""
    F = curve.field
    q = F.order()
    while True:
        x = F._element_at(rng.randrange(q))
        roots = F.sqrt(curve.p_at(x))
        if not roots:
            continue
        y = roots[rng.randrange(len(roots))]
        if nonzero_y and F.is_zero(y):
            continue
        return (x, y)


def random_divisor(curve, rng):
    """Random degree-2 divisor with distinct rational support."""
    while True:
        p1 = random_point(curve, rng)
        p2 = random_point(curve, rng)
        if p1[0] == p2[0]:
            continue
        return mumford_from_points(curve, p1, p2)


def pullback(emb, a):
    """The inverse image of a under the FieldEmbedding emb, by Gaussian
    elimination over F_p on the embedded basis; MixedFields if a is not in
    the image."""
    p, n = emb.big.p, emb.big.k
    cols = [b.value for b in emb._basis]
    m = len(cols)
    rows = [[cols[j][i] for j in range(m)] + [a.value[i]] for i in range(n)]
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
    # embedding the candidate back also guards the non-pivot columns
    cand = (emb.small.element(sol[0]) if isinstance(emb.small, PrimeField)
            else emb.small.from_coeffs(sol))
    if any(rows[i][-1] % p for i in range(r, n)) or emb.embed(cand) != a:
        raise MixedFields("element is not in the embedded subfield")
    return cand


@pytest.fixture
def f7():
    return GF(7)


@pytest.fixture
def c7(f7):
    return CanonicalCurve(f7, (0, 0, 0, 0, 1))


@pytest.fixture
def f1009():
    return GF(1009)


@pytest.fixture
def c1009(f1009):
    return CanonicalCurve(f1009, (1, 2, 3, 4, 5))


@pytest.fixture
def rng():
    return random.Random(20240817)
