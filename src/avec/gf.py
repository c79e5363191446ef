"""Arithmetic in GF(p^k) for small prime powers.

Elements are coefficient vectors over GF(p), little-endian (index i is
the coefficient of x^i), reduced modulo a canonical irreducible monic
modulus.  The modulus is the lexicographically smallest monic
irreducible of degree k when candidates are ordered by ascending
coefficient tuple, i.e. by the integer value sum(a_i * p^i).  For k = 1
the modulus is x and arithmetic is plain mod p.
"""

from dataclasses import dataclass

from .errors import DivisionByZero, InvalidArgument, NotPrimePower


def _poly_mod(num, den, p):
    # Remainder of num by monic den over GF(p); both little-endian lists.
    num = list(num)
    dd = len(den) - 1
    while len(num) - 1 >= dd and len(num) > 0:
        lead = num[-1]
        if lead == 0:
            num.pop()
            continue
        shift = len(num) - 1 - dd
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        while num and num[-1] == 0:
            num.pop()
    return num


def _is_irreducible(poly, p):
    # Trial division by every monic polynomial of degree 1..deg/2.
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            den = _digits(t, p, d) + [1]
            if not _poly_mod(poly, den, p):
                return False
    return True


def _digits(t, p, k):
    out = []
    for _ in range(k):
        out.append(t % p)
        t //= p
    return out


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
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def _factor_prime_power(q):
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = None
    for d in range(2, q + 1):
        if d * d > q:
            p = q if p is None else p
            break
        if q % d == 0:
            p = d
            break
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, k


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(p^k): canonical coefficient tuple plus its field."""

    field: "FiniteField"
    coeffs: tuple

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = [0] * (2 * f.k - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        rem = _poly_mod([c % f.p for c in prod], list(f.modulus), f.p)
        rem += [0] * (f.k - len(rem))
        return FieldElement(f, tuple(rem))

    def inverse(self):
        if not any(self.coeffs):
            raise DivisionByZero("zero has no multiplicative inverse")
        # a^(q-2) = a^(-1) in GF(q)*
        result = self.field.one()
        base = self
        e = self.field.q - 2
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __int__(self):
        p = self.field.p
        val = 0
        for c in reversed(self.coeffs):
            val = val * p + c
        return val

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise InvalidArgument("operands belong to different fields")

    def __repr__(self):
        return f"FieldElement({int(self)} in GF({self.field.q}))"


@dataclass(frozen=True)
class FiniteField:
    """GF(p^k) with its canonical modulus.

    Construct through `make_field`; arithmetic lives on the elements.
    """

    p: int
    k: int
    q: int
    modulus: tuple

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise InvalidArgument(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_int(self, value: int) -> FieldElement:
        if not (0 <= value < self.q):
            raise InvalidArgument(f"element index {value} outside 0..{self.q - 1}")
        return FieldElement(self, tuple(_digits(value, self.p, self.k)))

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.k)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def elements(self):
        """All q elements in ascending integer order."""
        return [self.from_int(i) for i in range(self.q)]


def make_field(q: int) -> FiniteField:
    """Field with q elements; q must be a prime power >= 2."""
    p, k = _factor_prime_power(q)
    return FiniteField(p=p, k=k, q=q, modulus=find_irreducible(p, k))
