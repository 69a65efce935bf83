import math
import random

import pytest

from sintdyn import intmath
from sintdyn.ffpoly import PrimeField, is_irreducible, poly_divmod
from sintdyn.orders import (
    _divides_t_power_minus_1,
    multiplicative_order,
    ord_brute,
    ord_in_tn_minus_1,
    poly_order,
)
from sintdyn.system import OmegaSource, SystemSpec, periodic_exponent

from oracles import inverted_places_dividing, sieve_irreducibles


def _divides_exactly(g, f):
    return poly_divmod(f, g)[1].is_zero


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(1, 9) == 1
        assert multiplicative_order(3, 19) == 18

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)
        with pytest.raises(ValueError):
            multiplicative_order(2, 1)

    def test_definition_and_totient_divisibility(self):
        rng = random.Random(9)
        for _ in range(200):
            m = rng.randrange(2, 400)
            a = rng.randrange(1, m)
            if math.gcd(a, m) != 1:
                continue
            r = multiplicative_order(a, m)
            assert pow(a, r, m) == 1
            assert all(pow(a, k, m) != 1 for k in range(1, min(r, 80)))
            assert intmath.euler_phi(m) % r == 0


class TestPolyOrder:
    def test_examples(self, F2):
        assert poly_order(F2.from_string("t+1")) == 1
        assert poly_order(F2.from_string("t^2+t+1")) == 3
        # (t+1)^2 = t^2+1: order of the base times p^d with p^d >= 2
        assert poly_order(F2.from_string("t^2+1")) == 2

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            poly_order(F2.t)  # g(0) = 0
        with pytest.raises(ValueError):
            poly_order(F2.one)
        with pytest.raises(ValueError):
            poly_order(F2.zero)

    @pytest.mark.parametrize("p", (2, 3))
    def test_definition_exhaustively(self, p):
        # g divides t^order - 1 and no earlier t^e - 1 (checked for order <= 64)
        field = PrimeField(p)
        for v in sieve_irreducibles(field, 6):
            if v == field.t:
                continue
            e = poly_order(v)
            if e > 64:
                continue
            assert _divides_exactly(v, field.tn_minus_1(e))
            for k in range(1, e):
                assert not _divides_exactly(v, field.tn_minus_1(k))

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_order_divides_group_order(self, p):
        field = PrimeField(p)
        for v in sieve_irreducibles(field, 4):
            if v == field.t:
                continue
            assert (p ** v.degree - 1) % poly_order(v) == 0

    def test_power_rule_against_definition(self, F2, F3):
        # order(v^b) = order(v) * p^d with d minimal such that p^d >= b
        cases = [
            (F2, "t+1", 2, 2),
            (F2, "t+1", 3, 4),
            (F2, "t^2+t+1", 2, 6),
            (F3, "t+2", 2, 3),
            (F3, "t+2", 3, 3),
            (F3, "t+2", 4, 9),
        ]
        for field, text, b, expected in cases:
            v = field.from_string(text)
            g = field.one
            for _ in range(b):
                g = g * v
            assert poly_order(g) == expected
            assert _divides_exactly(g, field.tn_minus_1(expected))
            for k in range(1, expected):
                assert not _divides_exactly(g, field.tn_minus_1(k))

    def test_coprime_product_lcm(self, F2):
        g = F2.from_string("t^2+t+1") * F2.from_string("t^4+t^3+t^2+t+1")
        assert poly_order(g) == 15  # lcm(3, 5)


class TestOrdInTnMinus1:
    def test_spec_examples(self, F2):
        assert ord_in_tn_minus_1(F2.from_string("t+1"), 6) == 2
        assert ord_in_tn_minus_1(F2.from_string("t^2+t+1"), 5) == 0
        assert ord_in_tn_minus_1(F2.from_string("t^4+t^3+t^2+t+1"), 15) == 1

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            ord_in_tn_minus_1(F2.t, 4)
        with pytest.raises(ValueError):
            ord_in_tn_minus_1(F2.from_string("t^2+1"), 4)  # reducible
        with pytest.raises(ValueError):
            ord_in_tn_minus_1(F2.from_string("t+1"), 0)
        with pytest.raises(ValueError):
            ord_in_tn_minus_1(F2.from_string("t+1"), 2**31)

    @pytest.mark.parametrize("p", (2, 3))
    def test_oracle_equivalence_small(self, p):
        # the full degree <= 6, n <= 100 sweep runs in the acceptance suite
        field = PrimeField(p)
        for v in sieve_irreducibles(field, 4):
            if v == field.t:
                continue
            for n in range(1, 61):
                assert ord_in_tn_minus_1(v, n) == ord_brute(v, field.tn_minus_1(n)), (
                    str(v), n,
                )


def _rule_places(field):
    # every monic irreducible of degree <= 10 at p = 2; at p = 3 every one of
    # degree <= 4 plus two seeded ones of each degree 5..10 (all 6.6k of
    # degree <= 10 would take minutes of repeated division)
    if field.p == 2:
        return sieve_irreducibles(field, 10)
    places = sieve_irreducibles(field, 4)
    rng = random.Random(300)
    for degree in range(5, 11):
        found = 0
        while found < 2:
            v = field.poly([rng.randrange(3) for _ in range(degree)] + [1])
            if v.constant_term and is_irreducible(v):
                places.append(v)
                found += 1
    return places


class TestDivisibilityRule:
    """ord_in_tn_minus_1 and the explicit places of system decide v | t**m - 1
    by one modular power, t**m = 1 mod v, and never compute the order of v;
    both are checked against repeated division for every n <= 300, the
    explicit places through periodic_exponent of the system {v}.
    inverted_places_dividing (oracles), which reads the factors of
    factor_tn_minus_1, is checked against repeated division too."""

    @pytest.mark.parametrize("p", (2, 3))
    def test_matches_ord_brute(self, p):
        field = PrimeField(p)
        tn = [None] + [field.tn_minus_1(n) for n in range(1, 301)]
        dividing = 0
        for v in _rule_places(field):
            if v == field.t:
                continue
            spec = SystemSpec(field, OmegaSource.explicit([v]))
            brute = [None] + [ord_brute(v, tn[n]) for n in range(1, 301)]
            for n in range(1, 301):
                assert _divides_t_power_minus_1(v, n) == (brute[n] > 0), (str(v), n)
                assert bool(inverted_places_dividing(spec, n)) == (brute[n] > 0), (str(v), n)
                assert periodic_exponent(spec, n) == n - brute[n] * v.degree, (str(v), n)
                if brute[n]:
                    dividing += 1
                    assert ord_in_tn_minus_1(v, n) == brute[n], (str(v), n)
        assert dividing > 300

    def test_place_of_degree_1018(self, F2):
        # pi = 1 + t + ... + t^1018 is irreducible (2 is primitive mod 1019)
        # and has order 1019; finding that order by factoring 2^1018 - 1 with
        # Pollard rho does not finish in minutes
        pi = F2.poly([1] * 1019)
        assert ord_in_tn_minus_1(pi, 3 * 1019 * 4) == 4
        assert ord_in_tn_minus_1(pi, 3 * 1018) == 0
        spec = SystemSpec(F2, OmegaSource.explicit([pi]))
        assert periodic_exponent(spec, 1019) == 1
        assert periodic_exponent(spec, 3 * 1018) == 3054


class TestOrdBrute:
    def test_examples(self, F2):
        assert ord_brute(F2.from_string("t+1"), F2.from_string("t^6+1")) == 2
        assert ord_brute(F2.from_string("t^2+t+1"), F2.from_string("t+1")) == 0
        assert ord_brute(F2.t, F2.from_string("t^3")) == 3

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            ord_brute(F2.from_string("t+1"), F2.zero)
        with pytest.raises(ValueError):
            ord_brute(F2.one, F2.from_string("t+1"))
