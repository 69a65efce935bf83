import random
import re
import time

import pytest

from sintdyn.ffpoly import PrimeField, is_irreducible
from sintdyn.places import MAX_CANDIDATES, Place, enumerate_places

from oracles import all_monic, irreducible_count, product_formula_sum, valuation_exponent


def _random_nonzero(field, rng, max_degree):
    while True:
        f = field.poly([rng.randrange(field.p) for _ in range(rng.randrange(max_degree + 1) + 1)])
        if not f.is_zero:
            return f


class TestPlace:
    def test_finite_requires_monic_irreducible(self, F2, F5):
        with pytest.raises(ValueError):
            Place.finite(F2.from_string("t^2+1"))  # reducible
        with pytest.raises(ValueError):
            Place.finite(F5.poly([4, 2]))  # not monic
        with pytest.raises(ValueError):
            Place.finite(F2.one)

    def test_str(self, F2):
        assert str(Place.infinite()) == "infinity"
        assert str(Place.finite(F2.from_string("t+1"))) == "t+1"


class TestEnumeratePlaces:
    def test_examples(self, F2, F3):
        assert [str(pl) for pl in enumerate_places(F2, 2)] == [
            "infinity", "t", "t+1", "t^2+t+1",
        ]
        # degree-3 irreducibles appear with canonical code 11 before 13
        assert [str(pl) for pl in enumerate_places(F2, 3)] == [
            "infinity", "t", "t+1", "t^2+t+1", "t^3+t+1", "t^3+t^2+1",
        ]
        assert [str(pl) for pl in enumerate_places(F3, 1)] == [
            "infinity", "t", "t+1", "t+2",
        ]

    def test_max_degree_validation(self, F2):
        with pytest.raises(ValueError):
            enumerate_places(F2, 0)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_counts_match_necklace_formula(self, p):
        field = PrimeField(p)
        max_degree = {2: 14, 3: 5, 5: 5, 7: 4}[p]
        places = enumerate_places(field, max_degree)
        assert places[0].is_infinite
        assert places[1].poly == field.t
        finite = places[1:]
        for m in range(1, max_degree + 1):
            observed = sum(1 for pl in finite if pl.degree == m)
            assert observed == irreducible_count(p, m)

    @pytest.mark.parametrize(
        "p, max_degree", ((2, 10), (3, 5), (5, 3), (2, 12), (3, 6), (7, 3))
    )
    def test_matches_rabin_on_every_candidate(self, p, max_degree):
        # no candidate skipped: the Rabin test on every monic polynomial
        field = PrimeField(p)
        brute = [Place.infinite(), Place(field.t)] + [
            Place(v)
            for degree in range(1, max_degree + 1)
            for v in all_monic(field, degree)
            if v != field.t and is_irreducible(v)
        ]
        for k in range(1, max_degree + 1):
            expected = [pl for pl in brute if pl.is_infinite or pl.degree <= k]
            assert enumerate_places(field, k) == expected, k

    def test_no_irreducibility_test(self, monkeypatch):
        # the sieve decides every candidate from products of smaller places
        def fail(f):
            raise AssertionError(f"is_irreducible called on {f}")

        cases = ((2, 10), (3, 5), (5, 3))
        expected = [enumerate_places(PrimeField(p), k) for p, k in cases]
        monkeypatch.setattr("sintdyn.places.is_irreducible", fail)
        monkeypatch.setattr("sintdyn.ffpoly.is_irreducible", fail)
        assert [enumerate_places(PrimeField(p), k) for p, k in cases] == expected

    @pytest.mark.parametrize(
        "p, max_degree",
        ((2147483647, 1), (2147483647, 2), (2, 19), (3, 12), (2, 10**18)),
    )
    def test_oversized_request_refused_up_front(self, p, max_degree):
        message = re.escape(f"at most {MAX_CANDIDATES}: got {p}**{max_degree}")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            enumerate_places(PrimeField(p), max_degree)
        assert time.perf_counter() - start < 1

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("sintdyn.places.MAX_CANDIDATES", 27)
        assert len(enumerate_places(PrimeField(3), 3)) == 1 + 3 + 3 + 8
        for p, max_degree in ((3, 4), (29, 1), (2, 5)):
            with pytest.raises(ValueError, match="at most 27"):
                enumerate_places(PrimeField(p), max_degree)

    def test_codes_ascending_within_degree(self, F5):
        places = enumerate_places(F5, 3)[2:]  # beyond the pinned infinity, t
        keys = [(pl.degree, pl.poly.code) for pl in places]
        assert keys == sorted(keys)


class TestValuationExponent:
    def test_finite_place_multiplicity(self, F2):
        place = Place.finite(F2.from_string("t+1"))
        assert valuation_exponent(place, F2.from_string("t^6+1"), F2.one) == 2

    def test_infinite_place_of_tn_minus_1(self, F2, F3):
        # |t^n - 1| at infinity is p^n
        for field in (F2, F3):
            for n in (1, 4, 9):
                assert valuation_exponent(Place.infinite(), field.tn_minus_1(n), field.one) == -n

    def test_constants_have_zero_exponent(self, F5):
        one = F5.one
        c = F5.poly([3])
        for place in (Place.infinite(), Place.finite(F5.from_string("t+1"))):
            assert valuation_exponent(place, c, one) == 0

    def test_denominator_side(self, F2):
        place = Place.finite(F2.from_string("t+1"))
        assert valuation_exponent(place, F2.one, F2.from_string("t^2+1")) == -2
        assert valuation_exponent(Place.infinite(), F2.one, F2.from_string("t^3+t")) == 3

    def test_degree_of_place_scales_exponent(self, F2):
        v = F2.from_string("t^2+t+1")
        f = v * v * v
        assert valuation_exponent(Place.finite(v), f, F2.one) == 6  # 3 * deg 2

    def test_rejects_zero(self, F2):
        with pytest.raises(ValueError):
            valuation_exponent(Place.infinite(), F2.zero, F2.one)
        with pytest.raises(ValueError):
            valuation_exponent(Place.infinite(), F2.one, F2.zero)

    @pytest.mark.parametrize("p", (2, 3))
    def test_multiplicative_in_f(self, p):
        field = PrimeField(p)
        rng = random.Random(50 + p)
        places = [Place.infinite()] + [
            pl for pl in enumerate_places(field, 2)[1:]
        ]
        one = field.one
        for _ in range(60):
            f = _random_nonzero(field, rng, 5)
            g = _random_nonzero(field, rng, 5)
            for place in places:
                assert valuation_exponent(place, f * g, one) == valuation_exponent(
                    place, f, one
                ) + valuation_exponent(place, g, one)


class TestProductFormula:
    def test_spec_examples(self, F2, F3):
        assert product_formula_sum(F2.from_string("t^2+t"), F2.one) == 0
        assert product_formula_sum(F3.poly([2]), F3.one) == 0
        assert product_formula_sum(F3.from_string("t^3-t"), F3.one) == 0

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_random_sweep(self, p):
        field = PrimeField(p)
        rng = random.Random(1234 + p)
        for i in range(1000):
            num = _random_nonzero(field, rng, 8)
            den = field.one if i % 2 else _random_nonzero(field, rng, 8)
            assert product_formula_sum(num, den) == 0

    def test_rejects_zero(self, F2):
        with pytest.raises(ValueError):
            product_formula_sum(F2.zero, F2.one)
