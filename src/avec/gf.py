"""Addition and multiplication tables of GF(p^k) for small prime powers.

Element i is the polynomial over GF(p) whose little-endian coefficients
(index s is the coefficient of x^s) are the base-p digits of i, reduced
modulo a canonical irreducible monic modulus; so 0 and 1 are the
field's zero and one.  The modulus is the lexicographically smallest
monic irreducible of degree k when candidates are ordered by ascending
coefficient tuple, i.e. by the integer value sum(a_i * p^i).  For k = 1
the modulus is x and arithmetic is plain mod p.
"""

from collections import namedtuple
from math import isqrt

from .errors import InvalidArgument, NotPrimePower, OutOfRange
from .graph import MAX_ORDER


def _divides(den, num, p):
    # Whether monic den divides num over GF(p); both little-endian.
    num = list(num)
    while len(num) >= len(den):
        lead = num.pop()
        shift = len(num) - len(den) + 1
        for i, c in enumerate(den[:-1]):
            num[shift + i] = (num[shift + i] - lead * c) % p
    return not any(num)


def _digits(t, p, k):
    return [t // p**s % p for s in range(k)]


def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k over GF(p), as coefficients.

    Candidates x^k + c are scanned in ascending order of the integer
    value of c's coefficient tuple; each winner is certified by trial
    division.
    """
    if k < 1:
        raise InvalidArgument(f"degree must be >= 1, got {k}")
    if k == 1:
        return (0, 1)
    for t in range(p**k):
        cand = _digits(t, p, k) + [1]
        # Trial division by every monic polynomial of degree 1..k/2.
        if not any(
            _divides(_digits(u, p, d) + [1], cand, p)
            for d in range(1, k // 2 + 1)
            for u in range(p**d)
        ):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def _factor_prime_power(q):
    if q >= 2:
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        k = 1
        while p**k < q:
            k += 1
        if p**k == q:
            return p, k
    raise NotPrimePower(f"{q} is not a prime power")


class FiniteField(namedtuple("FiniteField", "p k q modulus add mul")):
    """GF(p^k) as two q x q tables of element indices.

    `add[i][j]` and `mul[i][j]` are the indices of the sum and the
    product of elements i and j.  Construct through `make_field`.
    """

    __slots__ = ()


def make_field(q: int) -> FiniteField:
    """Field with q elements; q must be a prime power >= 2.

    Refuses a q > 1 whose `reiman(q)` would exceed `graph.MAX_ORDER` vertices
    before factoring q or building any table.
    """
    order = 2 * (q * q + q + 1)
    if q > 1 and order > MAX_ORDER:
        raise OutOfRange(
            f"a field of order {q} would serve reiman({q}), which has {order} vertices,"
            f" more than MAX_ORDER={MAX_ORDER}"
        )
    p, k = _factor_prime_power(q)
    modulus = find_irreducible(p, k)
    # Digit 0 of i + j is (i + j) mod p, and the digits above it are
    # those of (i // p) + (j // p), an earlier row.
    add = [range(q)]
    for i in range(1, q):
        up = add[i // p]
        add.append([(i + j) % p + p * up[j // p] for j in range(q)])
    # x * e shifts e's digits up one place; its top digit t comes back
    # as t * (x^k mod modulus), which is -modulus without its x^k term.
    top = q // p
    xk = sum((-c) % p * p**s for s, c in enumerate(modulus[:-1]))
    carry = [0]
    for _ in range(p - 1):
        carry.append(add[carry[-1]][xk])
    times_x = [add[p * (e % top)][carry[e // top]] for e in range(q)]
    # i * j is (i - 1) * j + j when digit 0 of i is nonzero, and
    # x * ((i // p) * j) when it is zero.
    mul = [[0] * q]
    for i in range(1, q):
        if i % p:
            mul.append([add[a][j] for j, a in enumerate(mul[i - 1])])
        else:
            mul.append([times_x[a] for a in mul[i // p]])
    return FiniteField(p, k, q, modulus, tuple(map(tuple, add)), tuple(map(tuple, mul)))
