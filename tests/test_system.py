import random
from fractions import Fraction

import pytest

from sintdyn.ffpoly import PrimeField, factorize
from sintdyn.places import Place
from sintdyn.system import (
    OmegaSource,
    SystemSpec,
    example85_system,
    full_shift,
    inverted_places_dividing,
    periodic_count,
    periodic_exponent,
    preset_system,
    random_system,
    trivial_system,
)

from oracles import sieve_irreducibles


def brute_exponent(spec, n):
    """Independent route: full factorization of t^n - 1 (generic machinery,
    no cyclotomic structure), multiplicities straight from the factor list,
    marks straight from the source."""
    field = spec.field
    total = 0
    for v, mult in factorize(field.tn_minus_1(n)):
        if spec.omega.mark(v) == 1:
            total += mult * v.degree
    return n - total


class TestOmegaMark:
    def test_constant_sources(self, F2):
        v = F2.from_string("t^2+t+1")
        assert OmegaSource.all_zero().mark(v) == 0
        assert OmegaSource.all_one().mark(v) == 1

    def test_explicit_membership(self, F3):
        v = F3.from_string("t+2")
        source = OmegaSource.explicit([v])
        assert source.mark(v) == 1
        assert source.mark(F3.from_string("t+1")) == 0

    def test_t_is_excluded(self, F2):
        for source in (OmegaSource.all_zero(), OmegaSource.all_one()):
            with pytest.raises(ValueError):
                source.mark(F2.t)
        with pytest.raises(ValueError):
            OmegaSource.explicit([F2.t])

    def test_explicit_requires_irreducible(self, F2):
        with pytest.raises(ValueError):
            OmegaSource.explicit([F2.from_string("t^2+1")])

    def test_random_source_validation(self):
        with pytest.raises(ValueError):
            OmegaSource.random_marks(Fraction(1), 1)
        with pytest.raises(ValueError):
            OmegaSource.random_marks(Fraction(0), 1)
        with pytest.raises(ValueError):
            OmegaSource.random_marks(Fraction(1, 2), -1)
        with pytest.raises(ValueError):
            OmegaSource.random_marks(Fraction(1, 2), 2**64)

    def test_random_marks_frozen_regression(self, F2, F3):
        # pinned once from the reference keyed-hash mark function; these bits
        # must never change across runs, platforms, or backends
        source = OmegaSource.random_marks(Fraction(1, 2), 42)
        expected = {
            "t+1": 0,
            "t^2+t+1": 0,
            "t^3+t+1": 1,
            "t^3+t^2+1": 0,
            "t^4+t+1": 0,
            "t^4+t^3+1": 0,
            "t^4+t^3+t^2+t+1": 1,
        }
        for text, bit in expected.items():
            assert source.mark(F2.from_string(text)) == bit, text
        expected_f3 = {"t+1": 1, "t+2": 0, "t^2+1": 0, "t^2+t+2": 1}
        for text, bit in expected_f3.items():
            assert source.mark(F3.from_string(text)) == bit, text
        # a different seed flips draws
        assert OmegaSource.random_marks(Fraction(1, 2), 43).mark(
            F2.from_string("t^3+t+1")
        ) in (0, 1)

    def test_random_mark_frequencies_frozen(self, F2):
        # deterministic counts over the 70 non-t irreducibles of degree <= 8;
        # close to (1 - rho) * 70 as the product measure prescribes
        places = [v for v in sieve_irreducibles(F2, 8) if v != F2.t]
        assert len(places) == 70
        observed = {}
        for num, den in ((1, 4), (1, 2), (3, 4)):
            source = OmegaSource.random_marks(Fraction(num, den), 1)
            observed[(num, den)] = sum(source.mark(v) for v in places)
        assert observed == {(1, 4): 49, (1, 2): 34, (3, 4): 16}

    def test_random_marks_deterministic_across_instances(self, F2):
        a = OmegaSource.random_marks(Fraction(2, 7), 9)
        b = OmegaSource.random_marks(Fraction(2, 7), 9)
        for v in sieve_irreducibles(F2, 6):
            if v != F2.t:
                assert a.mark(v) == b.mark(v)


class TestSpecJson:
    def test_round_trips(self, F2):
        specs = [
            full_shift(F2),
            trivial_system(F2),
            example85_system(F2),
            SystemSpec(F2, OmegaSource.explicit([F2.from_string("t^2+t+1")]), "x"),
            random_system(F2, Fraction(1, 3), 7, "r"),
        ]
        for spec in specs:
            assert SystemSpec.from_json(spec.to_json()) == spec

    def test_preset_names(self, F3):
        assert preset_system(F3, "full").omega.mode == "all_zero"
        assert preset_system(F3, "trivial").omega.mode == "all_one"
        assert preset_system(F3, "example85").omega.places == frozenset(
            [F3.from_string("t+2")]
        )
        with pytest.raises(ValueError):
            preset_system(F3, "bogus")


class TestPeriodicCounts:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_full_shift(self, p):
        spec = full_shift(PrimeField(p))
        for n in (1, 7, 23):
            assert periodic_exponent(spec, n) == (n, n)
            assert periodic_count(spec, n) == p**n

    @pytest.mark.parametrize("p", (2, 5))
    def test_trivial_system(self, p):
        spec = trivial_system(PrimeField(p))
        for n in (1, 9, 40):
            assert periodic_exponent(spec, n).e == 0
            assert periodic_count(spec, n) == 1

    def test_explicit_t_plus_1_spec_example(self, F2):
        spec = SystemSpec(F2, OmegaSource.explicit([F2.from_string("t+1")]), "x")
        assert periodic_exponent(spec, 6).e == 4
        assert periodic_count(spec, 6) == 16

    def test_example85_counts_p2(self, F2):
        spec = example85_system(F2)
        assert [periodic_count(spec, n) for n in range(1, 7)] == [1, 1, 4, 1, 16, 16]

    def test_n_validation(self, F2):
        spec = full_shift(F2)
        with pytest.raises(ValueError):
            periodic_exponent(spec, 0)
        with pytest.raises(ValueError):
            periodic_exponent(spec, 2**31)

    # explicit places of degree 2-4, and periods with a p-power part
    _SEVERAL = {
        2: (("t^2+t+1", "t^3+t+1", "t^4+t+1", "t^4+t^3+t^2+t+1"), (24, 48, 64, 96)),
        3: (("t^2+1", "t^2+t+2", "t^3+2*t+1", "t^4+t+2"), (27, 54, 72, 81)),
    }

    @pytest.mark.parametrize("p", (2, 3))
    def test_all_modes_match_brute_oracle(self, p):
        field = PrimeField(p)
        v1 = field.from_string("t+1")
        places, p_power_ns = self._SEVERAL[p]
        several = OmegaSource.explicit(field.from_string(v) for v in places)
        specs = [
            full_shift(field),
            trivial_system(field),
            example85_system(field),
            SystemSpec(field, OmegaSource.explicit([v1]), "one"),
            SystemSpec(field, several, "several"),
            random_system(field, Fraction(1, 2), 11),
            random_system(field, Fraction(1, 4), 5),
        ]
        for spec in specs:
            for n in list(range(1, 41)) + list(p_power_ns):
                assert periodic_exponent(spec, n).e == brute_exponent(spec, n), (
                    spec.label, n,
                )

    @pytest.mark.parametrize("p", (2, 3))
    def test_exponent_bounds_and_consistency(self, p):
        field = PrimeField(p)
        specs = [
            full_shift(field),
            trivial_system(field),
            example85_system(field),
            random_system(field, Fraction(1, 2), 1),
            random_system(field, Fraction(3, 4), 2),
        ]
        for spec in specs:
            for n in list(range(1, 60)) + [81, 128, 250, 500]:
                e = periodic_exponent(spec, n).e
                assert 0 <= e <= n
                contributions = inverted_places_dividing(spec, n)
                assert e == n - sum(mult * deg for _, mult, deg in contributions)

    def test_monotone_coupling(self, F2):
        # growing the inverted set can only shrink the exponent
        rng = random.Random(21)
        pool = [v for v in sieve_irreducibles(F2, 5) if v != F2.t]
        for _ in range(20):
            chosen = rng.sample(pool, 5)
            small = OmegaSource.explicit(chosen[:2])
            large = OmegaSource.explicit(chosen)
            for n in (6, 12, 30, 60):
                e_small = periodic_exponent(SystemSpec(F2, small, "s"), n).e
                e_large = periodic_exponent(SystemSpec(F2, large, "l"), n).e
                assert e_large <= e_small

    def test_contributions_nondecreasing_along_divisibility(self, F3):
        spec = trivial_system(F3)
        for n in (12, 20, 45):
            for m in range(1, n):
                if n % m:
                    continue
                contrib_m = {
                    pl: mult for pl, mult, _ in inverted_places_dividing(spec, m)
                }
                contrib_n = {
                    pl: mult for pl, mult, _ in inverted_places_dividing(spec, n)
                }
                for pl, mult in contrib_m.items():
                    assert contrib_n.get(pl, 0) >= mult

    def test_determinism(self, F2):
        spec = random_system(F2, Fraction(2, 5), 77)
        first = [periodic_exponent(spec, n).e for n in range(1, 30)]
        again = [periodic_exponent(spec, n).e for n in range(1, 30)]
        assert first == again


class TestInvertedPlaces:
    @pytest.mark.parametrize("p", (2, 3))
    def test_all_modes_match_factorization(self, p):
        # rows straight from the generic factorization of t^n - 1, marks
        # straight from the source; factorize sorts like the rows do
        field = PrimeField(p)
        pi7 = field.from_string("t^3+t+1" if p == 2 else "t^3+2*t+1")
        specs = [
            full_shift(field),
            trivial_system(field),
            SystemSpec(field, OmegaSource.explicit([field.from_string("t+1"), pi7]), "x"),
            random_system(field, Fraction(1, 2), 3),
        ]
        for spec in specs:
            for n in list(range(1, 31)) + [36, 54, 63, 64, 81]:
                expected = [
                    (Place.finite(v), mult, v.degree)
                    for v, mult in factorize(field.tn_minus_1(n))
                    if spec.omega.mark(v) == 1
                ]
                assert inverted_places_dividing(spec, n) == expected, (spec.label, n)

    def test_full_shift_empty(self, F5):
        assert inverted_places_dividing(full_shift(F5), 30) == []

    def test_explicit_spec_examples(self, F2):
        spec = SystemSpec(F2, OmegaSource.explicit([F2.from_string("t+1")]), "x")
        assert inverted_places_dividing(spec, 6) == [
            (Place.finite(F2.from_string("t+1")), 2, 1)
        ]
        pi5 = F2.from_string("t^4+t^3+t^2+t+1")
        spec5 = SystemSpec(F2, OmegaSource.explicit([pi5]), "pi5")
        assert inverted_places_dividing(spec5, 15) == [(Place.finite(pi5), 1, 4)]

    def test_trivial_lists_all_factors(self, F2):
        rows = inverted_places_dividing(trivial_system(F2), 6)
        assert [(str(pl), mult, deg) for pl, mult, deg in rows] == [
            ("t+1", 2, 1),
            ("t^2+t+1", 2, 2),
        ]
