import hashlib
import math
import random
from fractions import Fraction

import pytest

from sintdyn.cyclofactor import _cyclotomic_factors, factor_tn_minus_1
from sintdyn.ffpoly import PrimeField, factorize, is_irreducible
from sintdyn.limitset import growth_sequence, verify_construction
from sintdyn.places import Place
from sintdyn.system import (
    OmegaSource,
    SystemSpec,
    example85_system,
    full_shift,
    periodic_count,
    periodic_exponent,
    periodic_exponents,
    preset_system,
    random_system,
    trivial_system,
)
from sintdyn.zeta import zeta_for_system

from oracles import inverted_places_dividing, sieve_irreducibles


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
        # all-zero marks as the explicit source without places does
        for w in sieve_irreducibles(F2, 6)[1:]:
            assert OmegaSource.all_zero().mark(w) == OmegaSource.explicit([]).mark(w) == 0

    @pytest.mark.parametrize("mode", ("all_zero", "all_one", "random"))
    def test_only_explicit_takes_places(self, F2, mode):
        with pytest.raises(ValueError, match=f"^{mode} marks take no places$"):
            OmegaSource(mode, places=frozenset([F2.from_string("t+1")]),
                        rho=Fraction(1, 2), seed=1)

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


    def test_random_marks_keep_equality_after_use(self, F2, F3):
        # the threshold and hash key are cached on the source; a used source
        # still equals, and hashes as, a fresh one with the same rho and seed
        used = OmegaSource.random_marks(Fraction(2, 7), 9)
        marks = [used.mark(v) for v in sieve_irreducibles(F2, 5) if v != F2.t]
        fresh = OmegaSource.random_marks(Fraction(2, 7), 9)
        assert used == fresh and hash(used) == hash(fresh)
        assert marks == [fresh.mark(v) for v in sieve_irreducibles(F2, 5) if v != F2.t]
        assert used != OmegaSource.random_marks(Fraction(2, 7), 10)
        with pytest.raises(ValueError, match="the place t is excluded"):
            used.mark(F3.t)

    @pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
    def test_random_marks_match_hashlib_blake2b(self, p):
        # hashlib is the oracle of the keyed draw: key the 8-byte seed,
        # message p in 4 bytes and then the code sum(c_i * p**i) in
        # big-endian bytes, mark 1 when the 8-byte digest is below
        # floor((1 - rho) * 2**64)
        field = PrimeField(p)
        rng = random.Random(p)
        places = [
            field.poly([rng.randrange(p) for _ in range(degree)] + [1])
            for degree in range(1, 9)
            for _ in range(8)
        ]
        marks = []
        for rho, seed in ((Fraction(1, 2), 0), (Fraction(1, 3), 42), (Fraction(9, 10), 2**64 - 1)):
            source = OmegaSource.random_marks(rho, seed)
            threshold = math.floor((1 - rho) * 2**64)
            for v in places:
                if v == field.t:
                    continue
                code = sum(c * p**i for i, c in enumerate(v.coeffs))
                message = p.to_bytes(4, "big") + code.to_bytes((code.bit_length() + 7) // 8, "big")
                key = seed.to_bytes(8, "big")
                digest = hashlib.blake2b(message, digest_size=8, key=key).digest()
                expected = int(int.from_bytes(digest, "big") < threshold)
                assert source.mark(v) == expected, (rho, seed, str(v))
                marks.append(expected)
        assert 0 < sum(marks) < len(marks)


class TestSpecJson:
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
            assert periodic_exponent(spec, n) == n
            assert periodic_count(spec, n) == p**n
        # all-zero marks are the explicit rule with no places
        none = SystemSpec(spec.field, OmegaSource.explicit([]))
        for n in (1, 12, 81, 4096):
            assert periodic_exponent(spec, n) == periodic_exponent(none, n) == n
        assert periodic_exponents(spec, 300) == periodic_exponents(none, 300) == list(range(1, 301))

    @pytest.mark.parametrize("p", (2, 5))
    def test_trivial_system(self, p):
        spec = trivial_system(PrimeField(p))
        for n in (1, 9, 40):
            assert periodic_exponent(spec, n) == 0
            assert periodic_count(spec, n) == 1
        assert periodic_exponents(spec, 300) == [0] * 300

    def test_explicit_t_plus_1_spec_example(self, F2):
        spec = SystemSpec(F2, OmegaSource.explicit([F2.from_string("t+1")]), "x")
        assert periodic_exponent(spec, 6) == 4
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

    # a place of degree >= 7 and its order: most n <= 40 are coprime to
    # p**deg - 1 (127, and 6560 = 2**5 * 5 * 41), where the divisibility
    # test answers without a modular power
    _HIGH_DEGREE = {
        2: ("t^7+t+1", 127),
        3: ("t^8+t^6+t^5+2*t^4+t^3+t^2+1", 41),
    }

    @pytest.mark.parametrize("p", (2, 3))
    def test_all_modes_match_brute_oracle(self, p):
        field = PrimeField(p)
        v1 = field.from_string("t+1")
        places, p_power_ns = self._SEVERAL[p]
        several = OmegaSource.explicit(field.from_string(v) for v in places)
        high, order = self._HIGH_DEGREE[p]
        specs = [
            full_shift(field),
            trivial_system(field),
            example85_system(field),
            SystemSpec(field, OmegaSource.explicit([v1]), "one"),
            SystemSpec(field, several, "several"),
            SystemSpec(field, OmegaSource.explicit([field.from_string(high)]), "high"),
            random_system(field, Fraction(1, 2), 11),
            random_system(field, Fraction(1, 4), 5),
        ]
        for spec in specs:
            for n in list(range(1, 41)) + list(p_power_ns) + [order, p * order]:
                assert periodic_exponent(spec, n) == brute_exponent(spec, n), (
                    spec.label, n,
                )

    @pytest.mark.parametrize("p", (2, 3))
    def test_exponent_bounds_and_consistency(self, p):
        field = PrimeField(p)
        specs = [
            full_shift(field),
            trivial_system(field),
            example85_system(field),
            SystemSpec(field, OmegaSource.explicit([])),
            SystemSpec(field, OmegaSource.explicit(_one_place_per_degree(field, 8))),
            random_system(field, Fraction(1, 2), 1),
            random_system(field, Fraction(3, 4), 2),
        ]
        for spec in specs:
            for n in list(range(1, 60)) + [81, 128, 250, 500]:
                e = periodic_exponent(spec, n)
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
                e_small = periodic_exponent(SystemSpec(F2, small, "s"), n)
                e_large = periodic_exponent(SystemSpec(F2, large, "l"), n)
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
        first = [periodic_exponent(spec, n) for n in range(1, 30)]
        again = [periodic_exponent(spec, n) for n in range(1, 30)]
        assert first == again


def _one_place_per_degree(field, max_degree):
    # a seeded monic irreducible other than t of each degree 1..max_degree
    rng = random.Random(field.p)
    places = []
    for degree in range(1, max_degree + 1):
        while True:
            v = field.poly([rng.randrange(field.p) for _ in range(degree)] + [1])
            if v != field.t and is_irreducible(v):
                places.append(v)
                break
    return places


def _table_specs(field):
    return [
        full_shift(field),
        trivial_system(field),
        example85_system(field),
        SystemSpec(field, OmegaSource.explicit(_one_place_per_degree(field, 8)), "deg1-8"),
        random_system(field, Fraction(1, 2), 11),
        random_system(field, Fraction(1, 4), 5),
    ]


class TestPeriodicExponents:
    """The table e_1..e_N against the single-n path."""

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_matches_single_n(self, p):
        # N = 300 covers n with p-power parts up to 256, 243 and 125
        for spec in _table_specs(PrimeField(p)):
            expected = [periodic_exponent(spec, n) for n in range(1, 301)]
            assert periodic_exponents(spec, 300) == expected, spec.label

    @pytest.mark.parametrize("p", (2, 3))
    def test_max_n_one(self, p):
        for spec in _table_specs(PrimeField(p)):
            assert periodic_exponents(spec, 1) == [periodic_exponent(spec, 1)]

    def test_max_n_refused_up_front(self, F2):
        # the table allocates O(max_n), so the limit is checked before any work
        spec = random_system(F2, Fraction(1, 2), 11)
        limit = r"n must be in \[1, 2\*\*31 - 1\]: got "
        for bad in (0, -1, 2**31):
            with pytest.raises(ValueError, match=f"{limit}{bad}$"):
                periodic_exponents(spec, bad)
        for build in (growth_sequence, zeta_for_system):
            with pytest.raises(ValueError, match=f"{limit}{2**31}$"):
                build(spec, 2**31)

    def test_callers_keep_their_messages(self, F2):
        spec = random_system(F2, Fraction(1, 2), 11)
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"max_n must be positive: got {bad}"):
                growth_sequence(spec, bad)
            with pytest.raises(ValueError, match=f"n_terms must be positive: got {bad}"):
                zeta_for_system(spec, bad)

    def test_out_of_range_reported_at_smallest_coprime_n(self, F2, monkeypatch):
        # a table with impossible marked degrees at m = 3 and m = 5: the
        # first failure is n = 3 itself, not its multiple 6 or 12
        spec = full_shift(F2)
        table = [0, 0, 0, 5, 0, 9, 0, 0, 0, 0, 0, 0, 0]
        monkeypatch.setattr("sintdyn.system._marked_degrees", lambda spec, max_n: table)
        with pytest.raises(ArithmeticError, match=r"^periodic exponent out of range: n=3, e=-2$"):
            periodic_exponents(spec, 12)
        table[3] = -1
        with pytest.raises(ArithmeticError, match=r"^periodic exponent out of range: n=3, e=4$"):
            periodic_exponents(spec, 12)
        table[3] = 0
        with pytest.raises(ArithmeticError, match=r"^periodic exponent out of range: n=5, e=-4$"):
            periodic_exponents(spec, 12)

    def test_explicit_property(self):
        # drawn irreducibles of order up to 63 (p = 2), 80 (p = 3) and 124
        # (p = 5), with N below and above their orders
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        places = {
            p: [v for v in sieve_irreducibles(PrimeField(p), degree) if v.constant_term]
            for p, degree in ((2, 6), (3, 4), (5, 3))
        }

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
        @hypothesis.given(
            p=st.sampled_from((2, 3, 5)),
            picks=st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
            max_n=st.integers(min_value=1, max_value=150),
        )
        def check(p, picks, max_n):
            marked = [places[p][i % len(places[p])] for i in picks]
            spec = SystemSpec(PrimeField(p), OmegaSource.explicit(marked))
            expected = [periodic_exponent(spec, n) for n in range(1, max_n + 1)]
            assert periodic_exponents(spec, max_n) == expected

        check()

    def test_explicit_order_above_max_n(self, F2):
        # 1 + t + ... + t^316 has order 317: nothing below it, then t - 1
        # and it together at n = 317
        ones = F2.poly([1] * 317)
        spec = SystemSpec(F2, OmegaSource.explicit([F2.poly([1, 1]), ones]))
        table = periodic_exponents(spec, 300)
        assert table == [periodic_exponent(spec, n) for n in range(1, 301)]
        assert table[:3] == [0, 0, 2]  # e_n = n - p**k for t - 1 alone
        assert periodic_exponents(spec, 317)[-1] == 0 == periodic_exponent(spec, 317)

    @pytest.mark.parametrize("p, max_n", ((2, 120), (3, 80), (5, 60)))
    def test_random_growth_marks_each_factor_once(self, monkeypatch, p, max_n):
        spec = random_system(PrimeField(p), Fraction(1, 3), 8)
        # the table marks through _mark, which skips the checks of mark
        calls = []
        mark = OmegaSource._mark

        def counted(source, v):
            calls.append(v)
            return mark(source, v)

        monkeypatch.setattr(OmegaSource, "_mark", counted)
        growth_sequence(spec, max_n)
        expected = sum(len(_cyclotomic_factors(p, d)) for d in range(1, max_n + 1) if d % p)
        assert len(calls) == expected
        assert len(set(calls)) == expected

    def test_random_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
        @hypothesis.given(
            p=st.sampled_from((2, 3, 5)),
            rho=st.fractions(min_value=0, max_value=1, max_denominator=64).filter(
                lambda r: 0 < r < 1
            ),
            seed=st.integers(min_value=0, max_value=2**64 - 1),
            max_n=st.integers(min_value=1, max_value=72),
        )
        def check(p, rho, seed, max_n):
            spec = random_system(PrimeField(p), rho, seed)
            table = periodic_exponents(spec, max_n)
            assert all(0 <= e <= n for n, e in enumerate(table, 1))
            assert table == [periodic_exponent(spec, n) for n in range(1, max_n + 1)]

        check()


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


# one value of each record type the library returns, with a field to assign
RECORDS = {
    "CycloPart": (lambda: factor_tn_minus_1(PrimeField(2), 15).parts[0], "d"),
    "CycloFactorization": (lambda: factor_tn_minus_1(PrimeField(2), 15), "n"),
    "Place": (Place.infinite, "poly"),
    "OmegaSource": (lambda: OmegaSource.random_marks(Fraction(1, 2), 1), "seed"),
    "SystemSpec": (lambda: full_shift(PrimeField(2)), "label"),
    "ZetaSeries": (lambda: zeta_for_system(full_shift(PrimeField(2)), 5), "counts"),
    "ConstructionReport": (lambda: verify_construction(2, 3, 11), "pi_irreducible"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    make, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before
    assert record == make() and hash(record) == hash(make())
