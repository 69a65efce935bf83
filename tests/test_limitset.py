from fractions import Fraction

import pytest

from sintdyn import intmath, limitset
from sintdyn.cyclofactor import cyclotomic_poly
from sintdyn.ffpoly import PrimeField, is_irreducible
from sintdyn.limitset import (
    ConstructionRejected,
    GrowthPoint,
    artin_primes,
    cluster_limits,
    growth_sequence,
    verify_construction,
)
from sintdyn.orders import multiplicative_order, ord_brute
from sintdyn.system import example85_system, full_shift, random_system, trivial_system

from oracles import clusters_by_fraction, example85_reference, primes_upto


class TestGrowthSequence:
    def test_full_shift_rate_one(self, F2):
        points = growth_sequence(full_shift(F2), 40)
        assert all(gp.rate == 1 for gp in points)
        assert all(gp.e == gp.n for gp in points)

    def test_trivial_rate_zero(self, F3):
        assert all(gp.rate == 0 for gp in growth_sequence(trivial_system(F3), 40))

    def test_example85_p3_n6(self, F3):
        gp = growth_sequence(example85_system(F3), 6)[-1]
        assert (gp.n, gp.e, gp.rate) == (6, 3, Fraction(1, 2))

    @pytest.mark.parametrize("p", (2, 3))
    def test_example85_exact_law(self, p):
        # rate_n = 1 - 1/n' with n' the p-coprime part of n
        field = PrimeField(p)
        for gp in growth_sequence(example85_system(field), 200):
            n_coprime, _ = intmath.coprime_part(gp.n, p)
            assert gp.rate == 1 - Fraction(1, n_coprime)

    def test_rate_times_n_is_e(self, F2):
        for gp in growth_sequence(example85_system(F2), 50):
            assert gp.rate * gp.n == gp.e
            assert 0 <= gp.rate <= 1

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            growth_sequence(full_shift(F2), 0)


class TestExample85Reference:
    def test_spec_examples(self, F2, F3):
        assert example85_reference(F3, 4) == {
            Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1),
        }
        assert example85_reference(F2, 3) == {
            Fraction(0), Fraction(2, 3), Fraction(1),
        }

    def test_q_bound_one(self, F2, F5):
        assert example85_reference(F2, 1) == {Fraction(0), Fraction(1)}
        assert example85_reference(F5, 1) == {Fraction(0), Fraction(1)}

    def test_limit_is_inclusive(self, F3, monkeypatch):
        monkeypatch.setattr("sintdyn.limitset.MAX_Q_BOUND", 4)
        assert len(example85_reference(F3, 4)) == 4
        with pytest.raises(ValueError, match="q_bound must be at most 4: got 5"):
            example85_reference(F3, 5)

    def test_multiples_of_p_excluded(self, F3):
        rates = example85_reference(F3, 12)
        assert 1 - Fraction(1, 3) not in rates
        assert 1 - Fraction(1, 9) not in rates
        assert 1 - Fraction(1, 12) not in rates
        assert 1 - Fraction(1, 10) in rates
        assert 1 - Fraction(1, 11) in rates

    def test_matches_observed_rates(self, F2, F3):
        # every rate reached by n <= 300 lies in the reference set, and the
        # reference below the bound is exhausted (1 is the adjoined limit)
        for field in (F2, F3):
            observed = {gp.rate for gp in growth_sequence(example85_system(field), 300)}
            reference = example85_reference(field, 300)
            assert observed == reference - {Fraction(1)}


class TestClusterLimits:
    def test_full_shift_single_cluster(self, F2):
        points = growth_sequence(full_shift(F2), 80)
        assert cluster_limits(points, Fraction(1, 100)) == [(Fraction(1), 80)]

    def test_trivial_single_cluster(self, F3):
        points = growth_sequence(trivial_system(F3), 60)
        assert cluster_limits(points, Fraction(1, 100), Fraction(1, 2)) == [
            (Fraction(0), 30)
        ]

    def test_example85_p3_representatives(self, F3):
        points = growth_sequence(example85_system(F3), 2000)
        clusters = cluster_limits(points, Fraction(1, 100), Fraction(1))
        reps = [rate for rate, _ in clusters]
        assert reps == sorted(reps)
        for expected in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            assert expected in reps
        assert max(reps) > Fraction(99, 100)  # accumulation toward rate 1

    def test_tail_restriction(self, F2):
        points = growth_sequence(example85_system(F2), 100)
        # rate 0 occurs only at n = 2^k; none of those lie in the last tenth
        clusters = cluster_limits(points, Fraction(1, 1000), Fraction(1, 10))
        assert all(rate > 0 for rate, _ in clusters)

    def test_matches_fraction_oracle(self):
        # drawn (n, e) with repeated rates (e k / n k) and, half the time,
        # epsilon equal to the gap between two drawn rates
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        point = st.integers(min_value=1, max_value=400).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        )

        @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
        @hypothesis.given(
            pairs=st.lists(point, min_size=1, max_size=60),
            repeats=st.lists(st.integers(min_value=2, max_value=5), max_size=8),
            epsilon=st.fractions(min_value=0, max_value=1, max_denominator=5000).filter(
                lambda x: x > 0
            ),
            gap_epsilon=st.booleans(),
            tail_fraction=st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(2, 3))),
        )
        def check(pairs, repeats, epsilon, gap_epsilon, tail_fraction):
            pairs = pairs + [(n * k, e * k) for (n, e), k in zip(pairs, repeats)]
            points = [GrowthPoint(n, e, Fraction(e, n)) for n, e in pairs]
            rates = sorted({gp.rate for gp in points})
            if gap_epsilon and len(rates) > 1:
                epsilon = rates[1] - rates[0]
            tail_size = int(len(points) * tail_fraction)
            hypothesis.assume(tail_size > 0)
            expected = clusters_by_fraction([gp.rate for gp in points], epsilon, tail_size)
            # the same points as GrowthPoints and as plain (n, e) pairs
            assert cluster_limits(points, epsilon, tail_fraction) == expected
            assert cluster_limits(pairs, epsilon, tail_fraction) == expected

        check()

    def test_example85_and_random_match_fraction_oracle(self, F2, F3):
        cases = ((example85_system(F2), 3000), (random_system(F3, Fraction(1, 2), 1), 400))
        for spec, max_n in cases:
            points = growth_sequence(spec, max_n)
            rates = [gp.rate for gp in points]
            for epsilon, tail in ((Fraction(1, 100), Fraction(1, 2)), (Fraction(1, 1000), 1)):
                tail_size = int(len(points) * tail)
                expected = clusters_by_fraction(rates, epsilon, tail_size)
                assert cluster_limits(points, epsilon, tail) == expected

    def test_validation(self, F2):
        points = growth_sequence(full_shift(F2), 10)
        with pytest.raises(ValueError):
            cluster_limits(points, Fraction(0))
        with pytest.raises(ValueError):
            cluster_limits(points, Fraction(1, 10), Fraction(0))
        with pytest.raises(ValueError):
            cluster_limits([], Fraction(1, 10))


class TestArtinPrimes:
    def test_p2_upto_30(self, F2):
        assert artin_primes(F2, 30) == [3, 5, 11, 13, 19, 29]

    def test_p3_upto_20_from_brute_orders(self, F3):
        # frozen from the brute-force order check below (19 qualifies:
        # 3 has order 18 mod 19)
        assert artin_primes(F3, 20) == [2, 5, 7, 17, 19]

    def test_p3_bound_3(self, F3):
        assert artin_primes(F3, 3) == [2]

    def test_limit_is_inclusive(self, F2, monkeypatch):
        monkeypatch.setattr("sintdyn.limitset.MAX_ARTIN_BOUND", 30)
        assert artin_primes(F2, 30) == [3, 5, 11, 13, 19, 29]
        for bound in (31, 10**18):
            with pytest.raises(ValueError, match=f"bound must be at most 30: got {bound}"):
                artin_primes(F2, bound)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_against_brute_force_orders(self, p):
        field = PrimeField(p)
        result = artin_primes(field, 120)
        for q in primes_upto(120):
            if q == p:
                assert q not in result
                continue
            order = next(
                r for r in range(1, q) if pow(p, r, q) == 1
            )
            assert (q in result) == (order == q - 1)

    def test_density_sanity(self, F2):
        assert len(artin_primes(F2, 1000)) >= 60

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 2**31 - 1))
    def test_matches_multiplicative_order(self, p):
        # bounds around p itself only where a sieve to p + 1 is small; every
        # bound to 64 at the smallest p, which covers the edges of the
        # ell = 2 pass and of the least-prime-factor table; and 20000 at
        # p = 2, the request of the construction benchmark
        bounds = {3, 4, 3000} | ({p - 1, p, p + 1} if p < 3000 else set())
        if p in (2, 3, 5):
            bounds |= set(range(3, 65))
        if p == 2:
            bounds.add(20000)
        field = PrimeField(p)
        expected = [
            q for q in primes_upto(max(bounds))
            if q != p and multiplicative_order(p, q) == q - 1
        ]
        for bound in sorted(b for b in bounds if b >= 3):
            assert artin_primes(field, bound) == [q for q in expected if q <= bound], bound

    def test_p2_matches_sympy_primitive_roots(self, F2):
        # an oracle outside the sieve; q = +-1 mod 8 has 2 as a square, so
        # never as a primitive root
        sympy = pytest.importorskip("sympy")
        result = artin_primes(F2, 10**5)
        expected = [q for q in sympy.primerange(3, 10**5) if sympy.is_primitive_root(2, q)]
        assert len(expected) == 3603
        assert result == expected
        assert not [q for q in result if q % 8 in (1, 7)]

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            artin_primes(F2, 2)


class TestVerifyConstruction:
    def test_spec_example_p2_q3_nj5(self):
        report = verify_construction(2, 3, 5)
        assert report.pi_irreducible
        assert report.multiplicity_in_qnj == 1
        assert report.qnj_split_count == 2
        assert report.qnj_min_factor_degree == 4
        assert report.e_qnj == 11
        assert report.b_exponent == 1
        assert report.rate_gap == Fraction(1, 15)
        assert report.all_checks_pass
        assert report.failed_checks() == []

    def test_spec_example_p3_q2_nj5(self):
        report = verify_construction(3, 2, 5)
        assert report.e_qnj == 6
        assert report.e_qnj == (report.q - 1) * report.nj + 1
        assert report.rate_gap == Fraction(1, 10)
        assert report.all_checks_pass

    def test_rejects_non_artin_prime(self):
        with pytest.raises(ConstructionRejected):
            verify_construction(2, 3, 7)  # ord_7(2) = 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConstructionRejected):
            verify_construction(2, 3, 9)  # nj not prime
        with pytest.raises(ConstructionRejected):
            verify_construction(2, 2, 5)  # q = p
        with pytest.raises(ConstructionRejected):
            verify_construction(2, 5, 3)  # nj <= q
        with pytest.raises(ConstructionRejected):
            verify_construction(4, 3, 5)  # p not prime

    def test_marked_variant_shifts_offset_to_zero(self):
        report = verify_construction(2, 3, 5, mark_t_minus_1=True)
        assert report.b_exponent == 0
        assert report.e_qnj == 10
        assert report.rate_gap == 0
        assert report.all_checks_pass

    def test_rate_gap_formula(self):
        report = verify_construction(2, 5, 11)
        assert report.rate_gap == Fraction(
            abs(report.e_qnj - (report.q - 1) * report.nj), report.q * report.nj
        )
        assert report.rate_gap <= Fraction(1, report.nj)

    def test_json_fields(self):
        doc = verify_construction(2, 3, 5).to_json()
        assert doc["pass"] is True
        assert doc["rate_gap"] == {"num": 1, "den": 15}
        assert set(doc["checks"]) == {
            "pi_irreducible",
            "multiplicity_one",
            "split_count",
            "min_factor_degree",
            "squarefree",
            "exponent_consistent",
            "exponent_value",
            "b_exponent",
            "rate_gap",
        }

    @pytest.mark.parametrize("q", (3, 5))
    def test_first_artin_primes_pass(self, q):
        field = PrimeField(2)
        njs = [a for a in artin_primes(field, 100) if a > q][:3]
        for nj in njs:
            report = verify_construction(2, q, nj)
            assert report.all_checks_pass, (q, nj, report.failed_checks())
            assert report.multiplicity_in_qnj == 1
            assert report.b_exponent == 1
            assert report.rate_gap <= Fraction(1, nj)

    @pytest.mark.parametrize("mark_t_minus_1, polys", ((False, 1), (True, 2)))
    def test_each_polynomial_tested_once(self, mark_t_minus_1, polys):
        # the report's own pi_irreducible check is the one real Rabin test of
        # pi; ord_in_tn_minus_1 and the explicit omega source validate it
        # again through the memo, as they do t - 1 when it is marked
        is_irreducible.cache_clear()
        report = verify_construction(2, 3, 101, mark_t_minus_1=mark_t_minus_1)
        assert report.all_checks_pass
        info = is_irreducible.cache_info()
        assert (info.misses, info.currsize, info.hits) == (polys, polys, 2)
        is_irreducible.cache_clear()

    def test_multiplicity_against_brute_oracle(self):
        field = PrimeField(2)
        pi = field.poly([1] * 11)
        assert ord_brute(pi, field.tn_minus_1(33)) == 1
        report = verify_construction(2, 3, 11)
        assert report.multiplicity_in_qnj == 1


def _shift_exponent(monkeypatch, by):
    real = limitset.periodic_exponent
    monkeypatch.setattr(limitset, "periodic_exponent", lambda spec, n: real(spec, n) + by)


def _overcount_t_minus_1(monkeypatch):
    # ord_brute counts t - 1 once too often and pi (degree nj - 1) rightly
    real = limitset.ord_brute
    monkeypatch.setattr(limitset, "ord_brute", lambda v, f: real(v, f) + (v.degree == 1))


def _split_with(monkeypatch, change):
    real = limitset._cyclotomic_factors
    monkeypatch.setattr(limitset, "_cyclotomic_factors", lambda p, d: change(p, list(real(p, d))))


def _squared_cyclotomic(field, n):
    pi = cyclotomic_poly(field, n)
    return pi * pi


def _consistent_but_wrong(monkeypatch):
    # both routes to e agree on a value one too low
    _overcount_t_minus_1(monkeypatch)
    _shift_exponent(monkeypatch, -1)


# check -> (fault in the layer it reads, mark_t_minus_1, the checks that fail)
FAULTS = {
    "pi_irreducible": (
        lambda mp: mp.setattr(limitset, "is_irreducible", lambda v: False),
        False,
        ["pi_irreducible"],
    ),
    "multiplicity_one": (
        lambda mp: mp.setattr(limitset, "ord_in_tn_minus_1", lambda v, n: 2),
        False,
        ["multiplicity_one"],
    ),
    # a factor listed twice: three quartics where q - 1 = 2 is the most
    "split_count": (
        lambda mp: _split_with(mp, lambda p, factors: factors + factors[:1]),
        False,
        ["split_count"],
    ),
    # t + 1 in place of a quartic
    "min_factor_degree": (
        lambda mp: _split_with(mp, lambda p, factors: [PrimeField(p).poly([1, 1])] + factors[1:]),
        False,
        ["min_factor_degree"],
    ),
    "squarefree": (
        lambda mp: mp.setattr(limitset, "cyclotomic_poly", _squared_cyclotomic),
        False,
        ["squarefree"],
    ),
    "exponent_consistent": (_overcount_t_minus_1, True, ["exponent_consistent"]),
    # exponent_value and b_exponent both say b = 1 - offset, so they fail
    # together; only a rate gap above 1/nj also fails rate_gap
    "exponent_value": (
        lambda mp: _shift_exponent(mp, 1),
        False,
        ["exponent_consistent", "exponent_value", "b_exponent"],
    ),
    "b_exponent": (_consistent_but_wrong, True, ["exponent_value", "b_exponent"]),
    "rate_gap": (
        lambda mp: _shift_exponent(mp, 4),
        False,
        ["exponent_consistent", "exponent_value", "b_exponent", "rate_gap"],
    ),
}


class TestEveryCheckCanFail:
    """Each of the nine construction checks fails when the layer it reads
    is faulted, so none of them passes whatever the layers compute.
    p = 2, q = 3, nj = 5: pi_15 splits into two quartics, and e_15 = 11
    (10 with t - 1 marked)."""

    def test_faults_cover_every_check(self):
        assert set(FAULTS) == set(verify_construction(2, 3, 5).to_json()["checks"])

    @pytest.mark.parametrize("check", FAULTS)
    def test_check_fails(self, monkeypatch, check):
        fault, mark_t_minus_1, failed = FAULTS[check]
        assert verify_construction(2, 3, 5, mark_t_minus_1=mark_t_minus_1).all_checks_pass
        fault(monkeypatch)
        report = verify_construction(2, 3, 5, mark_t_minus_1=mark_t_minus_1)
        assert check in failed
        assert report.failed_checks() == failed
        assert not report.all_checks_pass
