import random

import pytest

from g2div.curves import CanonicalCurve
from g2div.divisors import mumford_from_points
from g2div.fields import GF


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
