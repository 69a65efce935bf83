import random
from fractions import Fraction

import pytest

from sintdyn.ffpoly import PrimeField
from sintdyn.system import (
    OmegaSource,
    SystemSpec,
    example85_system,
    full_shift,
    random_system,
    trivial_system,
)
from sintdyn.zeta import (
    InvalidCountsError,
    ZetaSeries,
    _geometric_split,
    counts_from_series,
    find_linear_recurrence,
    orbit_counts,
    zeta_coefficients,
    zeta_for_system,
)

from oracles import (
    exact_period_orbits,
    minimal_recurrence,
    orbit_counts_by_mobius,
    series_exponential,
    zeta_by_convolution,
)


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
        assert hash(ZetaSeries(series.terms, spec)) == hash(series)
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


def _counts_from_orbits(orbits):
    # c_n = sum of d * O_d over d | n
    return [
        sum(d * orbits[d - 1] for d in range(1, n + 1) if n % d == 0)
        for n in range(1, len(orbits) + 1)
    ]


def _agrees_with_convolution(counts):
    # the same terms, or InvalidCountsError with the oracle's message
    try:
        expected = zeta_by_convolution(counts)
    except ValueError as exc:
        with pytest.raises(InvalidCountsError) as raised:
            zeta_coefficients(counts)
        assert str(raised.value) == str(exc)
        return False
    assert zeta_coefficients(counts).terms == expected
    return True


class TestZetaAgainstConvolution:
    """zeta_coefficients, geometric part summed by Horner, against the plain
    convolution of the oracle, on drawn count sequences."""

    def _settings(self, hypothesis):
        return hypothesis.settings(
            max_examples=60, derandomize=True, deadline=None, database=None
        )

    def test_counts_from_drawn_orbits(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @self._settings(hypothesis)
        @hypothesis.given(
            orbits=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=60)
            .filter(lambda o: o[0] > 0)
        )
        def check(orbits):
            assert _agrees_with_convolution(_counts_from_orbits(orbits))

        check()

    def test_geometric_except_on_a_sparse_set(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @self._settings(hypothesis)
        @hypothesis.given(
            base=st.integers(min_value=1, max_value=2**31 - 1),
            n_terms=st.integers(min_value=1, max_value=80),
            changes=st.dictionaries(
                st.integers(min_value=1, max_value=80),
                st.integers(min_value=-(2**20), max_value=2**20),
                max_size=6,
            ),
        )
        def check(base, n_terms, changes):
            counts = [base**k for k in range(1, n_terms + 1)]
            for k, delta in changes.items():
                if k <= n_terms:
                    counts[k - 1] = max(1, counts[k - 1] + delta)
            _agrees_with_convolution(counts)

        check()

    def test_first_count_one(self):
        # b = 1: orbits of length one only at the fixed point, plus a few
        # drawn longer orbits
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @self._settings(hypothesis)
        @hypothesis.given(
            n_terms=st.integers(min_value=1, max_value=80),
            orbits=st.dictionaries(
                st.integers(min_value=2, max_value=80),
                st.integers(min_value=1, max_value=2**64),
                max_size=5,
            ),
        )
        def check(n_terms, orbits):
            drawn = [1] + [orbits.get(d, 0) for d in range(2, n_terms + 1)]
            counts = _counts_from_orbits(drawn)
            assert counts[0] == 1
            assert _agrees_with_convolution(counts)

        check()

    def test_full_shift_is_geometric(self):
        # exp(sum p^n z^n / n) = 1 / (1 - p z)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @self._settings(hypothesis)
        @hypothesis.given(
            p=st.integers(min_value=1, max_value=2**61 - 1),
            n_terms=st.integers(min_value=0, max_value=300),
        )
        def check(p, n_terms):
            series = zeta_coefficients([p**n for n in range(1, n_terms + 1)])
            assert series.terms == tuple(p**m for m in range(n_terms + 1))

        check()

    def test_drawn_sequences_agree_or_fail_alike(self):
        # mostly invalid: the first failing a_m and its message must match
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @self._settings(hypothesis)
        @hypothesis.given(
            counts=st.lists(st.integers(min_value=-2, max_value=40), max_size=12)
        )
        def check(counts):
            _agrees_with_convolution(counts)

        check()

    def test_empty_counts(self):
        assert zeta_coefficients([]).terms == (1,)
        assert zeta_by_convolution([]) == (1,)

    def test_split_choice(self, F2):
        # b = c_1 when the residues carry under half the bits of the counts
        full = [2**n for n in range(1, 50)]
        assert _geometric_split(full) == (2, [0] * 49)
        assert _geometric_split([1] * 9) == (1, [0] * 9)
        explicit = SystemSpec(
            F2, OmegaSource.explicit([F2.poly([1, 1, 1]), F2.poly([1, 1, 0, 1])])
        )
        base, residues = _geometric_split(zeta_for_system(explicit, 200).counts)
        assert base == 2 and 0 < sum(map(bool, residues)) < 100
        for spec in (example85_system(F2), random_system(F2, Fraction(1, 2), 1)):
            counts = list(zeta_for_system(spec, 200).counts)
            assert _geometric_split(counts) == (0, counts)


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

    def test_sieve_against_mobius_oracle(self):
        # drawn orbits, then the same counts with one entry moved: the same
        # orbits, or InvalidCountsError with the oracle's message at the
        # same first bad period
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, derandomize=True, deadline=None, database=None)
        @hypothesis.given(
            orbits=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=60)
            .filter(lambda o: o[0] > 0),
            index=st.integers(min_value=0, max_value=59),
            delta=st.integers(min_value=-(2**20), max_value=2**20),
        )
        def check(orbits, index, delta):
            counts = _counts_from_orbits(orbits)
            assert orbit_counts(counts) == orbit_counts_by_mobius(counts) == tuple(orbits)
            counts[index % len(counts)] += delta
            try:
                expected = orbit_counts_by_mobius(counts)
            except ValueError as exc:
                with pytest.raises(InvalidCountsError) as raised:
                    orbit_counts(counts)
                assert str(raised.value) == str(exc)
            else:
                assert orbit_counts(counts) == expected

        check()


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


def _recurrent_terms(rng, order, n_terms):
    # a_n = sum c_i a_{n-i} with c_order != 0 and random initial terms
    coeffs = [rng.randint(-4, 4) for _ in range(order)]
    if order:
        coeffs[-1] = rng.choice((-3, -1, 1, 2))
    terms = [rng.randint(-9, 9) for _ in range(order)]
    while len(terms) < n_terms:
        terms.append(sum(c * terms[-i] for i, c in enumerate(coeffs, start=1)))
    return terms[:n_terms]


class TestRecurrenceAgainstOracle:
    """find_linear_recurrence against the Hankel-elimination oracle."""

    @pytest.mark.parametrize("order", range(9))
    def test_seeded_recurrences(self, order):
        rng = random.Random(9000 + order)
        for trial in range(8):
            max_order = rng.randint(max(order, 1), 10)
            terms = _recurrent_terms(rng, order, 2 * max_order + 2 + rng.randrange(12))
            if trial % 2:
                terms[rng.randrange(len(terms))] += rng.choice((-5, -1, 1, 3))
            found = find_linear_recurrence(ZetaSeries(tuple(terms)), max_order)
            assert found == minimal_recurrence(terms, max_order)
            if trial % 2 == 0:
                assert found is not None and len(found) <= order

    @pytest.mark.parametrize("order", range(1, 9))
    def test_early_stop_boundary(self, order):
        # exactly 2 * max_order + 2 terms, max_order just below, at and above L
        rng = random.Random(9100 + order)
        below = []
        for _ in range(6):
            for max_order in range(max(order - 1, 1), order + 2):
                terms = _recurrent_terms(rng, order, 2 * max_order + 2)
                found = find_linear_recurrence(ZetaSeries(tuple(terms)), max_order)
                assert found == minimal_recurrence(terms, max_order)
                if max_order < order:
                    below.append(found)
                else:
                    assert found is not None
        assert order == 1 or None in below

    @pytest.mark.parametrize(
        "p, places, n_terms, max_order",
        [
            (3, ((-1, 1),), 110, 20),
            (2, ((1, 1, 1), (1, 1, 0, 1)), 130, 30),
            (2, ((1, 1, 1), (1, 0, 1, 1)), 130, 30),
        ],
    )
    def test_no_short_recurrence(self, p, places, n_terms, max_order):
        # example85 at p = 3 and explicit {t^2+t+1, one cubic} at p = 2
        field = PrimeField(p)
        spec = SystemSpec(field, OmegaSource.explicit(field.poly(v) for v in places))
        series = zeta_for_system(spec, n_terms)
        assert find_linear_recurrence(series, max_order) is None
        assert minimal_recurrence(series.terms, max_order) is None
