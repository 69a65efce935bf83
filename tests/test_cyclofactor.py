import pytest

from sintdyn import cyclofactor, intmath
from sintdyn.cyclofactor import (
    CycloFactorization,
    _cyclotomic_factors,
    cyclotomic_poly,
    factor_tn_minus_1,
    splitting_count,
)
from sintdyn.ffpoly import PrimeField, factorize, poly_divmod
from sintdyn.orders import multiplicative_order


class TestCyclotomicPoly:
    def test_index_one_is_t_minus_1(self, F2, F3, F5):
        assert cyclotomic_poly(F2, 1) == F2.from_string("t+1")
        assert cyclotomic_poly(F3, 1) == F3.from_string("t+2")
        assert cyclotomic_poly(F5, 1) == F5.from_string("t+4")

    def test_prime_index_over_f2(self, F2):
        assert cyclotomic_poly(F2, 5) == F2.from_string("t^4+t^3+t^2+t+1")

    def test_index_15_by_division_oracle(self, F2):
        # (t^15 - 1) / ((t-1) pi_3 pi_5), divided out directly
        numerator = F2.tn_minus_1(15)
        for divisor in ("t+1", "t^2+t+1", "t^4+t^3+t^2+t+1"):
            numerator, r = poly_divmod(numerator, F2.from_string(divisor))
            assert r.is_zero
        pi15 = cyclotomic_poly(F2, 15)
        assert pi15 == numerator
        assert pi15.degree == 8

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_degree_is_totient(self, p):
        field = PrimeField(p)
        for n in range(1, 101):
            if n % p == 0:
                continue
            assert cyclotomic_poly(field, n).degree == intmath.euler_phi(n)

    def test_rejects_index_divisible_by_p(self, F3):
        with pytest.raises(ValueError):
            cyclotomic_poly(F3, 6)
        with pytest.raises(ValueError):
            cyclotomic_poly(F3, 0)

    @pytest.mark.parametrize("p", (2, 3))
    def test_product_over_divisors_is_tn_minus_1(self, p):
        field = PrimeField(p)
        for n in range(1, 40):
            if n % p == 0:
                continue
            product = field.one
            for d in intmath.divisors(n):
                product = product * cyclotomic_poly(field, d)
            assert product == field.tn_minus_1(n)


class TestSplittingCount:
    def test_spec_examples(self, F2):
        assert splitting_count(F2, 7) == (2, 3)
        assert splitting_count(F2, 5) == (1, 4)
        assert splitting_count(F2, 15) == (2, 4)

    def test_validation(self, F2, F3):
        with pytest.raises(ValueError):
            splitting_count(F2, 1)
        with pytest.raises(ValueError):
            splitting_count(F3, 9)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_law_matches_brute_factorization(self, p):
        field = PrimeField(p)
        for n in range(2, 41):
            if n % p == 0:
                continue
            count, degree = splitting_count(field, n)
            assert degree == multiplicative_order(p, n)
            assert count * degree == intmath.euler_phi(n)
            pairs = factorize(cyclotomic_poly(field, n))
            assert len(pairs) == count
            assert all(v.degree == degree and mult == 1 for v, mult in pairs)


MERSENNE_31 = 2**31 - 1


class TestCyclotomicSplit:
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_structure_upto_300(self, p):
        # every irreducible factor of pi_d has degree r = ord_d(p), so
        # phi(d)/r distinct monic factors of degree r multiplying to pi_d
        # are its factorization
        field = PrimeField(p)
        for d in range(2, 301):
            if d % p == 0:
                continue
            count, degree = splitting_count(field, d)
            factors = _cyclotomic_factors(p, d)
            assert len(factors) == count, (p, d)
            assert len(set(factors)) == count, (p, d)
            assert all(v.is_monic and v.degree == degree for v in factors), (p, d)
            product = field.one
            for v in factors:
                product = product * v
            assert product == cyclotomic_poly(field, d), (p, d)

    @pytest.mark.parametrize("p", (2, 3))
    def test_equals_factorize_upto_100(self, p):
        field = PrimeField(p)
        for d in range(1, 101):
            if d % p == 0:
                continue
            pairs = factorize(cyclotomic_poly(field, d))
            assert _cyclotomic_factors(p, d) == tuple(v for v, _ in pairs), (p, d)

    @pytest.mark.parametrize("d", (7, 9, 13, 16, 27, 29, 35, 41))
    def test_equals_factorize_large_p(self, d):
        # ord_d(2**31 - 1) is 1, 1, 6, 2, 3, 7, 4, 8 for these d
        pairs = factorize(cyclotomic_poly(PrimeField(MERSENNE_31), d))
        assert _cyclotomic_factors(MERSENNE_31, d) == tuple(v for v, _ in pairs)

    @pytest.mark.parametrize(
        "p, d", ((2, 105), (3, 91), (5, 62), (7, 48), (MERSENNE_31, 13))
    )
    def test_matches_sympy(self, p, d):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        field = PrimeField(p)
        pi = cyclotomic_poly(field, d)
        expr = sum(c * t**i for i, c in enumerate(pi.coeffs))
        _, pairs = sympy.Poly(expr, t, modulus=p).factor_list()
        expected = sorted(
            field.poly(reversed([int(c) for c in v.all_coeffs()])).monic() for v, _ in pairs
        )
        assert all(mult == 1 for _, mult in pairs)
        assert list(_cyclotomic_factors(p, d)) == expected

    def test_wrong_count_raises(self, monkeypatch):
        count, degree = splitting_count(PrimeField(2), 21)
        monkeypatch.setattr(cyclofactor, "splitting_count", lambda field, d: (count + 1, degree))
        _cyclotomic_factors.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="pi_21 mod 2"):
                _cyclotomic_factors(2, 21)
        finally:
            _cyclotomic_factors.cache_clear()


class TestFactorTnMinus1:
    def test_spec_example_n15(self, F2):
        fct = factor_tn_minus_1(F2, 15)
        assert [part.d for part in fct.parts] == [1, 3, 5, 15]
        assert all(part.multiplicity == 1 for part in fct.parts)
        by_d = {part.d: part.factors for part in fct.parts}
        assert by_d[1] == (F2.from_string("t+1"),)
        assert by_d[3] == (F2.from_string("t^2+t+1"),)
        assert by_d[5] == (F2.from_string("t^4+t^3+t^2+t+1"),)
        assert len(by_d[15]) == 2
        assert all(v.degree == 4 for v in by_d[15])

    def test_spec_example_n6(self, F2):
        fct = factor_tn_minus_1(F2, 6)
        assert [(part.d, part.multiplicity) for part in fct.parts] == [(1, 2), (3, 2)]
        assert fct.parts[0].factors == (F2.from_string("t+1"),)
        assert fct.parts[1].factors == (F2.from_string("t^2+t+1"),)

    def test_n1(self, F3):
        fct = factor_tn_minus_1(F3, 1)
        assert len(fct.parts) == 1
        assert fct.parts[0].d == 1
        assert fct.parts[0].multiplicity == 1
        assert fct.parts[0].factors == (F3.from_string("t+2"),)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_reconstruction_upto_200(self, p):
        field = PrimeField(p)
        for n in range(1, 201):
            fct = factor_tn_minus_1(field, n)
            assert fct.product() == field.tn_minus_1(n), (p, n)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_multiplicities_are_p_power_part(self, p):
        field = PrimeField(p)
        for n in range(1, 80):
            n_coprime, e = intmath.coprime_part(n, p)
            fct = factor_tn_minus_1(field, n)
            assert all(part.multiplicity == p**e for part in fct.parts)
            assert [part.d for part in fct.parts] == intmath.divisors(n_coprime)

    def test_part_degrees_uniform(self, F3):
        fct = factor_tn_minus_1(F3, 80)
        for part in fct.parts:
            if part.d == 1:
                continue
            count, degree = splitting_count(F3, part.d)
            assert len(part.factors) == count
            assert all(v.degree == degree for v in part.factors)

    def test_json_round_trip(self, F2):
        fct = factor_tn_minus_1(F2, 12)
        assert CycloFactorization.from_json(F2, fct.to_json()) == fct

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            factor_tn_minus_1(F2, 0)
