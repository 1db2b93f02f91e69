"""Polynomial-ring cross-check helpers that only the tests use."""
from g2div.polyring import PolyRing, WeightedPoly


def partial_derivative(poly: WeightedPoly, name: str) -> WeightedPoly:
    """d poly / d name, term by term."""
    ring = poly.ring
    i = ring.index[name]
    F = ring.field
    out: dict = {}
    for e, c in poly.terms():
        if e[i] == 0:
            continue
        ne = e[:i] + (e[i] - 1,) + e[i + 1:]
        nc = F.add(out.get(ne, F.zero), F.mul(c, F.element(e[i])))
        if F.is_zero(nc):
            out.pop(ne, None)
        else:
            out[ne] = nc
    return WeightedPoly(ring, out)


def sylvester_resultant(p: WeightedPoly, q: WeightedPoly, name: str) -> WeightedPoly:
    """Resultant via Bareiss elimination on the Sylvester matrix (small cases),
    the cross-check of polyring.resultant."""
    ring = p.ring
    A = p.coeffs_in(name)
    B = q.coeffs_in(name)
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return ring.zero()
    if m == 0 and n == 0:
        return ring.one()
    rows = []
    desc_a = list(reversed(A))
    desc_b = list(reversed(B))
    for i in range(n):
        rows.append([ring.zero()] * i + desc_a + [ring.zero()] * (n - 1 - i))
    for i in range(m):
        rows.append([ring.zero()] * i + desc_b + [ring.zero()] * (m - 1 - i))
    return det_bareiss(rows, ring)


def det_bareiss(rows: list, ring: PolyRing) -> WeightedPoly:
    """Fraction-free determinant over the polynomial ring."""
    n = len(rows)
    if n == 0:
        return ring.one()
    M = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not M[i][k].is_zero()), None)
            if swap is None:
                return ring.zero()
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = num.exact_div(prev)
            M[i][k] = ring.zero()
        prev = M[k][k]
    return M[n - 1][n - 1].scale(sign)
