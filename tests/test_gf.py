import itertools

import pytest

import avec.generators
import avec.gf
from avec import cli
from avec.errors import InvalidArgument, NotPrimePower, OutOfRange
from avec.gf import find_irreducible, make_field
from avec.graph import MAX_ORDER

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


def poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_rem(a, modulus, p):
    # Remainder of a by the monic modulus, by long division.
    out = list(a)
    deg = len(modulus) - 1
    for top in range(len(out) - 1, deg - 1, -1):
        lead = out[top]
        for s, c in enumerate(modulus):
            out[top - deg + s] = (out[top - deg + s] - lead * c) % p
    return out[:deg]


def to_poly(i, f):
    return [i // f.p**s % f.p for s in range(f.k)]


def from_poly(coeffs, f):
    return sum(c * f.p**s for s, c in enumerate(coeffs))


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

    def test_degree_below_one_rejected(self):
        with pytest.raises(InvalidArgument, match="degree must be >= 1, got 0"):
            find_irreducible(2, 0)

    def test_no_nontrivial_factorisation(self):
        for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
            modulus = find_irreducible(p, k)
            assert len(modulus) == k + 1 and modulus[-1] == 1
            for a in range(1, k // 2 + 1):
                for f1 in monic_polys(p, a):
                    for f2 in monic_polys(p, k - a):
                        assert poly_mul_mod(f1, f2, p) != modulus


class TestArithmetic:
    """The tables against polynomial arithmetic done here: element i has
    the base-p digits of i as little-endian coefficients."""

    def test_gf4_frozen(self):
        f = make_field(4)
        x = 2
        assert f.mul[x][x] == 3  # x^2 = x + 1
        assert f.mul[f.mul[x][x]][x] == 1
        assert f.add[x][x] == 0  # characteristic 2

    def test_gf5_frozen(self):
        f = make_field(5)
        assert f.mul[2][3] == 1  # 2^-1 = 3
        assert f.add[4][3] == 2
        assert f.add[1][4] == 0  # -1 = 4

    def test_operators(self):
        # GF(9) = GF(3)[x]/(x^2 + 1); 5 = 2 + x, 7 = 1 + 2x, 6 = 2x, 4 = 1 + x
        f = make_field(9)
        assert f.add[5][7] == 0  # so -5 = 7
        assert f.mul[5][7] == 6
        assert f.mul[5][4] == 1  # so 5^-1 = 4

    def test_int_round_trip(self):
        # 0 and 1 are the identities, and x = element p satisfies the modulus
        for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
            f = make_field(q)
            assert f.add[0] == tuple(range(q)) and f.mul[1] == tuple(range(q))
            if f.k > 1:
                power = 1
                for _ in range(f.k):
                    power = f.mul[power][f.p]
                lower = sum((-c) % f.p * f.p**s for s, c in enumerate(f.modulus[:-1]))
                assert power == lower

    def test_add_is_digitwise(self):
        for q in PRIME_POWERS:
            f = make_field(q)
            for i in range(q):
                for j in range(q):
                    digits = [(a + b) % f.p for a, b in zip(to_poly(i, f), to_poly(j, f))]
                    assert f.add[i][j] == from_poly(digits, f)

    def test_mul_is_polynomial_product(self):
        for q in PRIME_POWERS:
            f = make_field(q)
            for i in range(q):
                for j in range(q):
                    prod = poly_mul_mod(to_poly(i, f), to_poly(j, f), f.p)
                    rem = poly_rem(prod, f.modulus, f.p)
                    assert f.mul[i][j] == from_poly(rem, f)

    def test_axioms_sampled_fields(self):
        for q in (4, 8, 9):
            f = make_field(q)
            add, mul = f.add, f.mul
            els = range(q)
            for a in els:
                assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
                assert 0 in add[a]
                if a:
                    assert 1 in mul[a]
            for a, b, c in itertools.product(els, repeat=3):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            for a, b in itertools.product(els, repeat=2):
                assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]

    def test_nonzero_products_nonzero(self):
        # no zero divisors
        for q in (4, 9, 8):
            mul = make_field(q).mul
            for a in range(1, q):
                assert 0 not in mul[a][1:]


class TestOrderBound:
    def test_largest_field_is_built(self):
        # 2(q^2 + q + 1) passes MAX_ORDER between q = 723 and q = 724
        assert 2 * (723 * 723 + 723 + 1) <= MAX_ORDER < 2 * (724 * 724 + 724 + 1)
        f = make_field(719)
        assert len(f.mul) == 719 and f.mul[718][718] == 1

    @pytest.mark.parametrize("q", [727, 729, 10**6 + 3])
    def test_refused_before_any_table(self, q, monkeypatch):
        def no_modulus(p, k):
            raise AssertionError("field built")

        monkeypatch.setattr(avec.gf, "find_irreducible", no_modulus)
        with pytest.raises(OutOfRange, match="MAX_ORDER"):
            make_field(q)

    @pytest.mark.parametrize("q", [10**14 + 31, 10**18 + 9])
    def test_refused_before_factoring(self, q, monkeypatch):
        # Trial division up to sqrt(q) would take up to 10^9 steps here.
        def no_factoring(q):
            raise AssertionError("q factored")

        monkeypatch.setattr(avec.gf, "_factor_prime_power", no_factoring)
        with pytest.raises(OutOfRange, match="MAX_ORDER"):
            make_field(q)

    def test_follows_max_order(self, monkeypatch):
        # reiman(2) has 14 vertices and reiman(3) has 26
        monkeypatch.setattr(avec.gf, "MAX_ORDER", 14)
        assert make_field(2).q == 2
        with pytest.raises(OutOfRange, match=r"reiman\(3\), which has 26 vertices"):
            make_field(3)
        # The order is tested first, so a non-prime-power above the
        # bound is refused as too large; one within it as no prime power.
        with pytest.raises(OutOfRange, match=r"reiman\(6\), which has 86 vertices"):
            make_field(6)
        monkeypatch.setattr(avec.gf, "MAX_ORDER", 86)
        with pytest.raises(NotPrimePower):
            make_field(6)

    def test_cli_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(avec.gf, "MAX_ORDER", 14)
        monkeypatch.setattr(avec.generators, "MAX_ORDER", 26)
        assert cli.main(["gen", "reiman", "--q", "3"]) == 2
        assert "MAX_ORDER=14" in capsys.readouterr().err
