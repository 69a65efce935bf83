from fractions import Fraction

import pytest

from sintdyn.ffpoly import PrimeField
from sintdyn.system import example85_system, full_shift, random_system, trivial_system
from sintdyn.zeta import (
    InvalidCountsError,
    ZetaSeries,
    counts_from_series,
    find_linear_recurrence,
    orbit_counts,
    zeta_coefficients,
    zeta_for_system,
)

from oracles import exact_period_orbits, series_exponential


class TestZetaCoefficients:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_full_shift_closed_form(self, p):
        # exp(sum p^n z^n / n) = 1 / (1 - p z)
        series = zeta_coefficients([p**n for n in range(1, 31)])
        assert series.terms == tuple(p**m for m in range(31))

    def test_trivial_closed_form(self):
        series = zeta_coefficients([1] * 25)
        assert series.terms == tuple([1] * 26)

    def test_example85_first_terms_match_exponential_oracle(self, F2):
        counts = [1, 1, 4, 1, 16, 16]
        series = zeta_coefficients(counts)
        assert series.terms[:4] == (1, 1, 1, 2)
        oracle = series_exponential(counts, 6)
        assert all(x.denominator == 1 for x in oracle)
        assert series.terms == tuple(int(x) for x in oracle)

    @pytest.mark.parametrize("p", (2, 3))
    def test_matches_exponential_oracle_random_specs(self, p):
        field = PrimeField(p)
        spec = random_system(field, Fraction(1, 2), 3)
        series = zeta_for_system(spec, 12)
        counts = [int(x) for x in counts_from_series(series)]
        oracle = series_exponential(counts, 12)
        assert series.terms == tuple(int(x) for x in oracle)

    def test_rejects_invalid_sequences(self):
        with pytest.raises(InvalidCountsError, match="a_2 = 5/2"):
            zeta_coefficients([2, 1])
        with pytest.raises(InvalidCountsError):
            zeta_coefficients([0, 1])
        with pytest.raises(InvalidCountsError):
            zeta_coefficients([1, -1])

    def test_round_trip_counts(self, F3):
        spec = example85_system(F3)
        series = zeta_for_system(spec, 30)
        from sintdyn.system import periodic_count

        assert counts_from_series(series) == [
            periodic_count(spec, n) for n in range(1, 31)
        ]

    def test_series_keeps_its_counts(self, F3):
        spec = random_system(F3, Fraction(1, 2), 5)
        series = zeta_for_system(spec, 30)
        assert list(series.counts) == counts_from_series(series)
        # the counts follow from the terms and take no part in equality
        assert ZetaSeries(series.terms, spec) == series
        assert ZetaSeries(series.terms).counts is None

    @pytest.mark.parametrize("p", (2, 3))
    def test_radius_bound(self, p):
        # counts are at most p^n, so a_m is at most p^m (radius >= 1/p)
        field = PrimeField(p)
        for spec in (example85_system(field), random_system(field, Fraction(1, 3), 8)):
            series = zeta_for_system(spec, 25)
            assert all(a <= p**m for m, a in enumerate(series.terms))

    def test_json(self, F2):
        series = zeta_for_system(full_shift(F2), 5)
        doc = series.to_json()
        assert doc == {
            "p": 2,
            "label": "full",
            "N": 5,
            "coefficients": ["1", "2", "4", "8", "16", "32"],
        }


class TestOrbitCounts:
    def test_full_shift_p2_against_enumeration(self):
        counts = [2**n for n in range(1, 11)]
        expected = tuple(exact_period_orbits(2, n) for n in range(1, 11))
        assert orbit_counts(counts) == expected
        assert expected[:4] == (2, 1, 2, 3)

    def test_full_shift_p3_against_enumeration(self):
        counts = [3**n for n in range(1, 8)]
        assert orbit_counts(counts) == tuple(
            exact_period_orbits(3, n) for n in range(1, 8)
        )

    def test_trivial(self):
        assert orbit_counts([1] * 10) == (1,) + (0,) * 9

    def test_example85_orbit_example(self, F2):
        from sintdyn.system import periodic_count

        spec = example85_system(F2)
        counts = [periodic_count(spec, n) for n in range(1, 4)]
        assert orbit_counts(counts)[2] == 1  # (4 - 1) / 3

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(InvalidCountsError):
            orbit_counts([1, 1, 1, 2])  # period-4 points not a multiple of 4
        with pytest.raises(InvalidCountsError):
            orbit_counts([2, 1])  # fewer period-2 than period-1 points


class TestFindLinearRecurrence:
    def test_full_shift_order_one(self, F5):
        series = zeta_for_system(full_shift(F5), 12)
        assert find_linear_recurrence(series, 3) == (Fraction(5),)

    def test_trivial_order_one(self, F2):
        series = zeta_for_system(trivial_system(F2), 12)
        assert find_linear_recurrence(series, 3) == (Fraction(1),)

    def test_synthetic_order_two(self):
        # a_m = 3 a_{m-1} - 2 a_{m-2} generates 2^m + 1
        series = ZetaSeries(tuple(2**m + 1 for m in range(20)))
        assert find_linear_recurrence(series, 4) == (Fraction(3), Fraction(-2))

    def test_example85_has_no_low_order_recurrence(self, F2):
        series = zeta_for_system(example85_system(F2), 60)
        assert find_linear_recurrence(series, 5) is None

    def test_rejects_short_series(self, F2):
        series = zeta_for_system(full_shift(F2), 8)  # 9 terms a_0..a_8
        with pytest.raises(ValueError):
            find_linear_recurrence(series, 4)  # needs 2*4+2 = 10 terms
        assert find_linear_recurrence(series, 3) == (Fraction(2),)

    def test_recurrence_must_hold_on_all_terms(self):
        # geometric except for a corrupted tail term
        terms = [2**m for m in range(14)]
        terms[-1] += 1
        assert find_linear_recurrence(ZetaSeries(tuple(terms)), 5) is None
