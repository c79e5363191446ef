import itertools

import pytest

from avec.errors import DivisionByZero, InvalidArgument, NotPrimePower
from avec.gf import FieldElement, find_irreducible, make_field

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


def poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def monic_polys(p, deg):
    for coeffs in itertools.product(range(p), repeat=deg):
        yield coeffs + (1,)


class TestFactorisation:
    def test_not_prime_power(self):
        for q in (-3, 0, 1, 6, 10, 12, 15, 18, 20, 24, 26):
            with pytest.raises(NotPrimePower):
                make_field(q)

    def test_decomposition(self):
        f = make_field(9)
        assert (f.p, f.k, f.q) == (3, 2, 9)
        f = make_field(27)
        assert (f.p, f.k, f.q) == (3, 3, 27)
        f = make_field(13)
        assert (f.p, f.k, f.q) == (13, 1, 13)


class TestIrreducible:
    def test_frozen_moduli(self):
        # smallest-by-integer-value convention
        assert find_irreducible(2, 2) == (1, 1, 1)
        assert find_irreducible(2, 3) == (1, 1, 0, 1)
        assert find_irreducible(3, 2) == (1, 0, 1)
        assert find_irreducible(5, 1) == (0, 1)

    def test_no_nontrivial_factorisation(self):
        for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
            modulus = find_irreducible(p, k)
            assert len(modulus) == k + 1 and modulus[-1] == 1
            for a in range(1, k // 2 + 1):
                for f1 in monic_polys(p, a):
                    for f2 in monic_polys(p, k - a):
                        assert poly_mul_mod(f1, f2, p) != modulus


class TestArithmetic:
    def test_gf4_frozen(self):
        f = make_field(4)
        x = f.from_int(2)
        assert int(x * x) == 3  # x^2 = x + 1
        assert int(x * x * x) == 1
        assert int(x + x) == 0  # characteristic 2

    def test_gf5_frozen(self):
        f = make_field(5)
        assert int(f.from_int(2).inverse()) == 3
        assert int(f.from_int(4) + f.from_int(3)) == 2
        assert int(-f.from_int(1)) == 4

    def test_int_round_trip(self):
        for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
            f = make_field(q)
            for t in range(q):
                assert int(f.from_int(t)) == t
            els = f.elements()
            assert [int(e) for e in els] == list(range(q))

    def test_axioms_sampled_fields(self):
        for q in (4, 8, 9):
            f = make_field(q)
            els = f.elements()
            zero, one = f.zero(), f.one()
            for a in els:
                assert a + zero == a and a * one == a
                assert a + (-a) == zero
                assert a * zero == zero
                if a:
                    assert a * a.inverse() == one
            for a, b, c in itertools.product(els, repeat=3):
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
            for a, b in itertools.product(els, repeat=2):
                assert a + b == b + a and a * b == b * a
                assert a - b == a + (-b)

    def test_nonzero_products_nonzero(self):
        # no zero divisors
        for q in (4, 9, 8):
            f = make_field(q)
            els = f.elements()
            for a in els[1:]:
                for b in els[1:]:
                    assert bool(a * b)

    def test_zero_inverse_raises(self):
        f = make_field(7)
        with pytest.raises(DivisionByZero):
            f.zero().inverse()

    def test_cross_field_mix_raises(self):
        a = make_field(4).one()
        b = make_field(8).one()
        with pytest.raises(InvalidArgument):
            a + b
        with pytest.raises(InvalidArgument):
            a * b

    def test_element_validation(self):
        f = make_field(4)
        with pytest.raises(InvalidArgument):
            f.element((1,))
        assert f.element((1, 2)) == f.element((1, 0))  # coefficients reduce mod p
        with pytest.raises(InvalidArgument):
            f.from_int(4)
        with pytest.raises(InvalidArgument):
            f.from_int(-1)

    def test_operators(self):
        # GF(9) = GF(3)[x]/(x^2 + 1); 5 = 2 + x and 7 = 1 + 2x
        f = make_field(9)
        a, b = f.from_int(5), f.from_int(7)
        assert a + b == f.element((0, 0))
        assert a * b == f.element((0, 2))
        assert -a == f.element((1, 2))
        assert a.inverse() == f.element((1, 1))
        assert a * a.inverse() == f.one()

    def test_repr_and_value_semantics(self):
        f = make_field(4)
        a = f.from_int(3)
        assert isinstance(a, FieldElement)
        assert a == f.element((1, 1))
        assert repr(a)
