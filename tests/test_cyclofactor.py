import hashlib
from fractions import Fraction

import pytest

from sintdyn import cyclofactor, intmath
from sintdyn._kernel import _f2, _fp
from sintdyn.cyclofactor import (
    _cyclotomic_factors,
    cyclotomic_poly,
    factor_tn_minus_1,
    splitting_count,
)
from sintdyn.ffpoly import PrimeField, factorize, is_irreducible, poly_divmod
from sintdyn.limitset import verify_construction
from sintdyn.orders import multiplicative_order
from sintdyn.system import periodic_exponent, random_system

from oracles import cyclotomic_by_division, factorization_product

MERSENNE_31 = 2**31 - 1


@pytest.fixture
def cold_split_cache():
    _cyclotomic_factors.cache_clear()
    cyclofactor._route.cache_clear()
    yield
    _cyclotomic_factors.cache_clear()
    cyclofactor._route.cache_clear()


@pytest.fixture(scope="session")
def factorizations():
    # (p, d) -> the factors of pi_d mod p by ffpoly.factorize, for every
    # (p, d) that a split is compared with it below.  The table is filled
    # once, when a test first asks for it: session fixtures are set up before
    # a test's monkeypatch and body, so the kernel is never patched here, and
    # _cyclotomic_factors is never called
    cases = {(p, d) for p in (2, 3) for d in range(1, 101) if d % p}
    cases |= {(p, d) for p in (2, 3, 5) for d in range(2, 301) if d % p}
    for p, bound in TestTwistAndQuotient.BOUNDS:
        cases |= {(p, d) for d in TestTwistAndQuotient._taken(p, bound)}
    return {(p, d): tuple(v for v, _ in factorize(cyclotomic_poly(PrimeField(p), d)))
            for p, d in sorted(cases)}


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

    @pytest.mark.parametrize("p", (2, 3, 5, 7, MERSENNE_31))
    def test_product_over_divisors_is_tn_minus_1(self, p):
        # by induction on n this pins every pi_n with n <= 300
        field = PrimeField(p)
        for n in range(1, 301):
            if n % p == 0:
                continue
            product = field.one
            for d in intmath.divisors(n):
                product = product * cyclotomic_poly(field, d)
            assert product == field.tn_minus_1(n), (p, n)

    @pytest.mark.parametrize("p, bound", ((2, 1000), (3, 400), (5, 400), (7, 400)))
    def test_equals_division_oracle(self, p, bound):
        field = PrimeField(p)
        for n in range(1, bound + 1):
            if n % p:
                assert cyclotomic_poly(field, n) == cyclotomic_by_division(field, n), (p, n)

    @pytest.mark.parametrize("p", (2, 3, 5, 7, MERSENNE_31))
    def test_matches_sympy_mod_p(self, p):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        field = PrimeField(p)
        # 105 is the first index whose integer coefficients leave {-1, 0, 1}
        for n in [*range(1, 101), 105, 165, 195, 385]:
            if n % p == 0:
                continue
            expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
            assert cyclotomic_poly(field, n) == field.poly(reversed(expected)), (p, n)


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
    def test_equals_factorize_upto_100(self, p, factorizations):
        for d in range(1, 101):
            if d % p == 0:
                continue
            assert _cyclotomic_factors(p, d) == factorizations[p, d], (p, d)

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

    def test_wrong_count_raises(self, monkeypatch, cold_split_cache):
        count, degree = splitting_count(PrimeField(2), 21)
        monkeypatch.setattr(cyclofactor, "splitting_count", lambda field, d: (count + 1, degree))
        with pytest.raises(ArithmeticError, match="pi_21 mod 2"):
            _cyclotomic_factors(2, 21)

    def test_no_splitting_element_raises(self, monkeypatch, cold_split_cache):
        # pi_21 mod 2 (two factors of degree 6) stays one pending piece
        monkeypatch.setattr(cyclofactor, "_frobenius_fixed", lambda *args: iter(()))
        with pytest.raises(ArithmeticError, match="pi_21 mod 2 did not split into 2 "):
            _cyclotomic_factors(2, 21)

    def test_shift_splits_where_coset_sums_cannot(self, monkeypatch, cold_split_cache):
        # pi_17 mod 13 (four factors of degree 4, split from pi_17 itself):
        # at the fixed seed the unshifted powers g^6 - 1 of its coset sums
        # leave a piece whole, so only the seeded shift a of (g + a)^6 - 1
        # splits it without the combinations
        monkeypatch.setattr(cyclofactor, "_COMBINATION_ROUNDS", 0)
        F13 = PrimeField(13)
        assert cyclofactor._route(13, 17) == (4, 4, 16, None, "coset sums")
        assert _cyclotomic_factors(13, 17) == tuple(
            v for v, _ in factorize(cyclotomic_poly(F13, 17))
        )

    def test_coset_sums_alone_can_run_out(self, monkeypatch, cold_split_cache):
        # pi_31 mod 7 (two factors of degree 15) takes neither the twist nor
        # the quotient pieces, and at the fixed seed the shifted powers of its
        # coset sums leave it whole; the combinations would split it
        monkeypatch.setattr(cyclofactor, "_COMBINATION_ROUNDS", 0)
        assert cyclofactor._route(7, 31) == (2, 15, 30, None, "coset sums")
        with pytest.raises(ArithmeticError, match="pi_31 mod 7 did not split into 2 "):
            _cyclotomic_factors(7, 31)

    def test_class_split_needs_no_combinations(self, F5, monkeypatch, cold_split_cache):
        # pi_51 mod 5 (two factors of degree 16), which Cantor-Zassenhaus on
        # its coset sums alone left whole at the fixed seed: a coset sum
        # that takes two values at the two factors separates them
        monkeypatch.setattr(cyclofactor, "_COMBINATION_ROUNDS", 0)
        assert cyclofactor._route(5, 51) == (2, 16, 32, None, "coset sums")
        assert _cyclotomic_factors(5, 51) == tuple(
            v for v, _ in factorize(cyclotomic_poly(F5, 51))
        )

    def test_twist_needs_no_combinations(self, monkeypatch, cold_split_cache):
        # pi_3 mod 7 (3 | p - 1), which the coset sums alone leave whole at
        # the fixed seed, is the twists of pi_1 = t - 1 by the cube roots of
        # unity, with no coset sum
        monkeypatch.setattr(cyclofactor, "_COMBINATION_ROUNDS", 0)
        F7 = PrimeField(7)
        assert cyclofactor._route(7, 3) == (2, 1, 1, 3, "twist")
        assert _cyclotomic_factors(7, 3) == (F7.from_string("t+3"), F7.from_string("t+5"))


class TestClassSplit:
    """At p <= 5 a coset sum g cuts a piece u into the classes of its
    values: gcd(rest, g - c) for c = 0, ..., p - 2 and the rest, with no
    randomness, no modular power and no combination of coset sums."""

    ROUTES = {2: {"lift", "coset sums", "one factor"},
              3: {"lift", "coset sums", "twist", "quotient"},
              5: {"lift", "coset sums", "twist", "quotient"}}

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_equals_factorize_upto_300(self, p, factorizations, cold_split_cache):
        routes = set()
        for d in range(2, 301):
            if d % p:
                routes.add(cyclofactor._route(p, d).name)
                assert _cyclotomic_factors(p, d) == factorizations[p, d], (p, d)
        assert routes == self.ROUTES[p]

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_no_rng_and_no_pow_mod(self, p, monkeypatch, cold_split_cache):
        def refused(*args):
            raise AssertionError("the class split drew a random number or took a power")

        monkeypatch.setattr(cyclofactor.random, "Random", refused)
        monkeypatch.setattr(cyclofactor._kernel, "pow_mod", refused)
        monkeypatch.setattr(_f2, "pow_mod", refused)
        for d in range(2, 201):
            if d % p:
                _cyclotomic_factors(p, d)


class TestLift:
    """When q**2 | d, pi_d(t) = pi_{d/q}(t**q), and the factors of pi_{d/q}
    lifted to t**q either are the factors of pi_d or start its split."""

    @staticmethod
    def _gcd_args(monkeypatch):
        # the first operand of every gcd over F_2, as a packed int: the
        # split takes its gcds on _f2 directly
        calls = []
        gcd = _f2.gcd

        def counted(a, b, p=2):
            calls.append(a)
            return gcd(a, b, p)

        monkeypatch.setattr(_f2, "gcd", counted)
        return calls

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_identity_below_400(self, p):
        field = PrimeField(p)
        for d in range(2, 400):
            for q in intmath.factorint(d):
                if d % p and d % (q * q) == 0:
                    small = cyclotomic_poly(field, d // q).coeffs
                    lifted = field.poly(c for a in small for c in [a] + [0] * (q - 1))
                    assert lifted == cyclotomic_poly(field, d), (p, d, q)

    @pytest.mark.parametrize("d, small", ((45, 15), (49, 7)))
    def test_degree_jump_needs_no_gcd(self, cold_split_cache, monkeypatch, d, small):
        # ord_45(2) = 12 = 3 * ord_15(2) and ord_49(2) = 21 = 7 * ord_7(2):
        # every lifted factor already has the degree of a factor of pi_d
        _cyclotomic_factors(2, small)
        calls = self._gcd_args(monkeypatch)
        factors = _cyclotomic_factors(2, d)
        assert calls == []
        assert factors == tuple(v for v, _ in factorize(cyclotomic_poly(PrimeField(2), d)))

    def test_lift_without_split_is_preferred(self, cold_split_cache, monkeypatch):
        # 441 = 3**2 * 7**2 and ord_441(2) = 42 = ord_147(2) = 7 * ord_63(2):
        # the lift from pi_147 (t**3) would leave pieces of 3 factors, the
        # lift from pi_63 (t**7) gives the factors, and it is the one taken
        assert cyclofactor._route(2, 441) == (6, 42, 42, 7, "lift")
        _cyclotomic_factors(2, 63)
        calls = self._gcd_args(monkeypatch)
        factors = _cyclotomic_factors(2, 441)
        assert calls == []
        assert factors == tuple(v for v, _ in factorize(cyclotomic_poly(PrimeField(2), 441)))

    def test_same_order_splits_the_lifted_pieces(self, F2, cold_split_cache, monkeypatch):
        # ord_63(2) = ord_21(2) = 6: the two factors of pi_21, lifted to
        # t**3, are the first pieces the split takes, not pi_63 itself
        small = _cyclotomic_factors(2, 21)
        calls = self._gcd_args(monkeypatch)
        factors = _cyclotomic_factors(2, 63)
        lifted = [F2.poly([c for a in v.coeffs for c in (a, 0, 0)]) for v in small]
        assert len(lifted) == 2 and all(u.degree == 18 for u in lifted)
        assert calls[:2] == [u.bits for u in lifted]
        assert cyclotomic_poly(F2, 63).bits not in calls
        pairs = factorize(cyclotomic_poly(F2, 63))
        assert len(factors) == 6
        assert factors == tuple(v for v, _ in pairs)

    @pytest.mark.parametrize("p, d, q", ((2, 63, 3), (3, 20, 2)))
    def test_cosets_of_multiples_of_q_are_skipped(self, p, d, q):
        # a coset C of multiples of q sums to E(t**q), a constant modulo
        # every lifted piece f(t**q), and is the one kind left out
        field = PrimeField(p)
        kept = list(cyclofactor._splitting_cosets(p, d, q))
        assert sorted(i for coset in kept for i in coset) == [j for j in range(1, d) if j % q]
        pieces = [field.poly(c for a in f.coeffs for c in [a] + [0] * (q - 1))
                  for f in _cyclotomic_factors(p, d // q)]
        for coset in cyclofactor._cosets(p, d):
            if coset[0] % q == 0:
                e = field.poly(int(i in coset) for i in range(d))
                assert all(len((e % u).coeffs) <= 1 for u in pieces), coset

    def test_squarefree_d_keeps_every_coset(self):
        assert list(cyclofactor._splitting_cosets(2, 63, None)) == list(cyclofactor._cosets(2, 63))


class TestOddPFactorLists:
    """At odd p the split runs on the coefficient lists of the kernel: the
    factor lists are pinned to the output of the split on Poly values, on
    both kernels that serve the library."""

    @pytest.mark.parametrize("backend", ("packed", "cython"))
    def test_factor_lists_pinned(self, kernel_modules, monkeypatch, cold_split_cache, backend):
        # one line "p:d:code code ..." per d coprime to p, codes in hex
        module = _fp if backend == "packed" else kernel_modules.get("cython")
        if module is None:
            pytest.skip("compiled backend not built")
        monkeypatch.setattr(cyclofactor, "_kernel", module)
        digest = hashlib.sha256()
        for p, bound in ((3, 400), (5, 300), (7, 250), (MERSENNE_31, 60)):
            for d in range(1, bound + 1):
                if d % p:
                    codes = " ".join(format(v.code, "x") for v in _cyclotomic_factors(p, d))
                    digest.update(f"{p}:{d}:{codes}\n".encode())
        assert digest.hexdigest() == (
            "d40aa51bde7605e9c65b4353b40f82edc918747a0c13724d3b7b296d03e3e76e"
        )


class TestPackedF2:
    """At p = 2, pi_n is built on the packed int and split from packed coset
    sums: the factor lists are pinned to the output of the coefficient-list
    code, and pi_n is checked against t^n - 1 = prod over d | n of pi_d and
    against sympy."""

    def test_factor_lists_pinned(self, cold_split_cache):
        # every odd d <= 3000, one line "d:code code ..." per d, codes in hex
        digest = hashlib.sha256()
        for d in range(1, 3001, 2):
            codes = " ".join(format(v.code, "x") for v in _cyclotomic_factors(2, d))
            digest.update(f"{d}:{codes}\n".encode())
        assert digest.hexdigest() == (
            "73964f6b626b66b2d9326c25667f0b4d3641567f5e7edf144c38dc91b49a1b4b"
        )

    def test_product_over_divisors_upto_5000(self, F2):
        pi = {}
        for n in range(1, 5001, 2):
            pi[n] = cyclotomic_poly(F2, n)
            product = F2.one
            for d in intmath.divisors(n):
                product = product * pi[d]
            assert product == F2.tn_minus_1(n), n

    def test_six_prime_factors(self, F2):
        # 255255 = 3 * 5 * 7 * 11 * 13 * 17: 32 multiplications by t^d + 1
        # and 32 exact divisions form pi_255255
        n = 255255
        product = F2.one
        for d in intmath.divisors(n):
            product = product * cyclotomic_poly(F2, d)
        assert product == F2.tn_minus_1(n)

    def test_matches_sympy_upto_400(self, F2):
        sympy = pytest.importorskip("sympy")
        for n in range(1, 401, 2):
            expected = sympy.cyclotomic_poly(n, polys=True).all_coeffs()
            assert cyclotomic_poly(F2, n) == F2.poly(reversed(expected)), n


class TestOneFactorRoute:
    """At p = 2 a pi_d with at least _BM_MIN_FACTORS factors is split from
    one factor: a descent of coset-sum gcds to a factor f, then
    Berlekamp-Massey on the powers of t mod f for every other factor."""

    @staticmethod
    def _route_calls(monkeypatch):
        calls = []
        real = cyclofactor._berlekamp_massey_f2

        def spied(d, f, r):
            calls.append(d)
            return real(d, f, r)

        monkeypatch.setattr(cyclofactor, "_berlekamp_massey_f2", spied)
        return calls

    # 4095 = 3**2 * 5 * 7 * 13 starts from the lifted factors of pi_1365
    @pytest.mark.parametrize("d", (1023, 2047, 4095, 8191))
    def test_factorization(self, F2, cold_split_cache, monkeypatch, d):
        calls = self._route_calls(monkeypatch)
        factors = _cyclotomic_factors(2, d)
        assert d in calls
        count, degree = splitting_count(F2, d)
        assert count >= cyclofactor._BM_MIN_FACTORS
        assert len(factors) == intmath.euler_phi(d) // multiplicative_order(2, d) == count
        assert all(v.degree == degree and is_irreducible(v) for v in factors)
        product = F2.one
        for v in factors:
            product = product * v
        assert product == cyclotomic_poly(F2, d)

    def test_equals_the_coset_split(self, monkeypatch):
        # every pi_d that splits at all takes the route at threshold 2, and
        # none at a threshold above every count
        routed, split = {}, {}
        for threshold, out in ((2, routed), (10**9, split)):
            monkeypatch.setattr(cyclofactor, "_BM_MIN_FACTORS", threshold)
            _cyclotomic_factors.cache_clear()
            cyclofactor._route.cache_clear()
            for d in range(1, 1501, 2):
                out[d] = _cyclotomic_factors(2, d)
        _cyclotomic_factors.cache_clear()
        cyclofactor._route.cache_clear()
        assert routed == split

    def test_threshold_is_inclusive(self, F2, cold_split_cache, monkeypatch):
        # pi_273 mod 2: 12 factors of degree 12, the fewest that take the route
        count, _ = splitting_count(F2, 273)
        assert count == cyclofactor._BM_MIN_FACTORS == 12
        calls = self._route_calls(monkeypatch)
        factors = _cyclotomic_factors(2, 273)
        assert calls == [273]
        monkeypatch.setattr(cyclofactor, "_BM_MIN_FACTORS", count + 1)
        _cyclotomic_factors.cache_clear()
        cyclofactor._route.cache_clear()
        assert _cyclotomic_factors(2, 273) == factors
        assert calls == [273]

    def test_no_factor_found_raises(self, monkeypatch, cold_split_cache):
        monkeypatch.setattr(cyclofactor, "_cosets", lambda *args: iter(()))
        with pytest.raises(ArithmeticError, match="pi_1023 mod 2 did not split into 60 "):
            _cyclotomic_factors(2, 1023)


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
            assert factorization_product(fct) == field.tn_minus_1(n), (p, n)

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

    def test_validation(self, F2):
        with pytest.raises(ValueError):
            factor_tn_minus_1(F2, 0)


class TestFactorWork:
    def test_refused_before_any_pi_d_is_built(self, F2, F3, monkeypatch):
        def built(*args):
            raise AssertionError("pi_d was built")

        monkeypatch.setattr(cyclofactor, "cyclotomic_poly", built)
        monkeypatch.setattr(cyclofactor, "_cyclotomic_factors", built)
        # at p = 3, n' = 2**23 alone is charged exactly the limit, 16384 * 2**23,
        # and its other divisors take the work over it
        for field, n in ((F2, 262657), (F2, 2**31 - 1), (F2, 10**30), (F3, 2**23)):
            with pytest.raises(ValueError, match=r"^factor: factor_work\(p, n\) must be at most "):
                factor_tn_minus_1(field, n)

    def test_every_request_of_the_suite_is_admitted(self):
        # the tests factor t^n - 1 up to n = 500 (p = 2, 3) and 200 (p = 5);
        # the benchmark asks for n = 1023 at p = 2, the acceptance suite 50 at
        # p = 5; the README's factor examples are n = 8191, 45045 and 200689
        # at p = 2 (pi_200689 has 12 factors of degree 16724 and splits in
        # 2.5-3.2 s with start-up), and 247687 = 11**2 * 23 * 89, whose route
        # descends from a lifted piece of degree 1210 (0.3-0.4 s)
        for p, top in ((2, 500), (3, 500), (5, 200)):
            assert all(cyclofactor.factor_work(p, n) <= cyclofactor.MAX_FACTOR_WORK
                       for n in range(1, top + 1))
        for n in (1023, 8191, 45045, 200689, 247687):
            assert cyclofactor.factor_work(2, n) <= cyclofactor.MAX_FACTOR_WORK

    def test_lifted_terms(self):
        # at p = 2 a lift whose pieces are the factors is charged no split:
        # in 441, pi_49, pi_147 and pi_441 (k = 2, 2, 6) lift from pi_7,
        # pi_21 and pi_63 with the degree jump; pi_63 (k = 6) starts from
        # pieces of 3 factors and is charged the coset-sum split k * phi * d
        assert cyclofactor.factor_work(2, 441) == (
            16384 * (1 + 3 + 7 + 9 + 21 + 49 + 63 + 147 + 441)
            + 2 * 6**2 + 2 * 12**2 + 6 * 36 * 63
        )
        # 585 = 3**2 * 5 * 13 adds 9, 45, 117 and 585 to the divisors of
        # 195; pi_45 lifts with the jump, pi_117 (k = 6) starts from pieces
        # of degree 36 = 3 * 12, and pi_585 (k = 24, r = 12) takes the route
        # from a piece of degree m = 36, where r * m = 432 < 585: its coset
        # sums are taken by r squarings, 8 * r * m**2 in place of 2 * d**2
        assert cyclofactor.factor_work(2, 585) - cyclofactor.factor_work(2, 195) == (
            16384 * (9 + 45 + 117 + 585) + 6 * 72 * 117
            + 8 * 12 * 36**2 + 16384 * 585 + 12 * 24 * 12 * (12 + 1024)
        )
        # pi_315 (k = 12, r = 12) starts from m = 36, r * m = 432 >= 315:
        # charged 2 * d**2, as from pi_d
        assert cyclofactor.factor_work(2, 315) - cyclofactor.factor_work(2, 105) == (
            16384 * (9 + 45 + 63 + 315) + 6 * 36 * 63
            + 2 * 315**2 + 16384 * 315 + 12 * 12 * 12 * (12 + 1024)
        )

    def test_lift_is_not_charged_at_odd_p(self):
        # a lift whose pieces are the factors takes no gcd at odd p either:
        # pi_4 and pi_2956 at p = 2**31 - 1 lift with m = r and are charged
        # 16384 * d alone.  t^2956 - 1 (4.9 s) stays refused by the charge
        # of its unlifted pi_739 and pi_1478 (k = 2, r = 369)
        P = 2**31 - 1
        assert cyclofactor._route(P, 2956) == (2, 738, 738, 2, "lift")
        assert cyclofactor.factor_work(P, 2956) - cyclofactor.factor_work(P, 1478) == (
            16384 * (4 + 2956)
        )
        assert cyclofactor.factor_work(P, 2956) > cyclofactor.MAX_FACTOR_WORK

    def test_terms(self):
        # 2**20 * 3 has p-coprime part 3 at p = 2: pi_1 and pi_3 (irreducible)
        assert cyclofactor.factor_work(2, 3 << 20) == 16384 * (1 + 3)
        # pi_7 mod 2 splits into k = 2 cubics, phi = 6: k * phi**2, as its
        # first coset sum splits it
        assert cyclofactor.factor_work(2, 7) == 16384 * 8 + 2 * 6**2
        # pi_13 mod 3 splits into k = 4 cubics: 64 * 2**2 * (4).bit_length()**2 * phi**2
        assert cyclofactor.factor_work(3, 13) == 16384 * 14 + 64 * 4 * 3**2 * 12**2
        # d | 273 splits pi_d into k = 1, 1, 2, 1, 2, 2, 6 and 12 factors;
        # pi_91 (k = 6 > 2, phi = 72) is charged k d-bit coset sums, k * phi * d;
        # pi_273, of degree phi = 144, takes the route with r = 12: 2 * d**2 +
        # 16384 * d + 12 * k * r * (r + 1024) in place of k * phi * d
        assert cyclofactor.factor_work(2, 273) == (
            16384 * (1 + 3 + 7 + 13 + 21 + 39 + 91 + 273)
            + 2 * 6**2 + 2 * 12**2 + 2 * 24**2 + 6 * 72 * 91
            + 2 * 273**2 + 16384 * 273 + 12 * 12 * 12 * (12 + 1024)
        )

    def test_charges_pinned(self, cold_split_cache):
        # factor_work for n <= 5000 at five p and verify_work on a grid of
        # triples, one line "p:n:work" or "p:q:nj:work" each, so that a
        # change to a route or a charge that moves any value fails
        from sintdyn.limitset import verify_work

        from oracles import primes_upto

        ps = (2, 3, 5, 7, MERSENNE_31)
        factor, verify = hashlib.sha256(), hashlib.sha256()
        for p in ps:
            for n in range(1, 5001):
                factor.update(f"{p}:{n}:{cyclofactor.factor_work(p, n)}\n".encode())
            for q in (2, 3, 5, 7):
                for nj in primes_upto(700):
                    if q != p and nj != p and nj > q:
                        verify.update(f"{p}:{q}:{nj}:{verify_work(p, q, nj)}\n".encode())
        assert factor.hexdigest() == (
            "9cc2ecde51e80e413d9dc8512acf1b0619dbe20a0b8392b1a7aa0446937c074e"
        )
        assert verify.hexdigest() == (
            "97dd3acca2f5526d82c7763b2029a79085561ed9ee7fdff8e329938d803cca31"
        )

    @pytest.mark.parametrize("p", (2, 3, MERSENNE_31))
    def test_lift_is_exactly_the_uncharged_route(self, p):
        # factor_work(p, n) is 16384 for pi_1 plus one term per d | n, d > 1,
        # so each term is read off by subtracting those of the divisors;
        # the term is 16384 * d alone exactly when _route says "lift"
        terms = {}
        for d in range(2, 1201):
            if d % p:
                terms[d] = cyclofactor.factor_work(p, d) - 16384 - sum(
                    terms[e] for e in intmath.divisors(d)[1:-1]
                )
                route = cyclofactor._route(p, d).name
                assert (terms[d] == 16384 * d) == (route == "lift"), (d, route)


class TestRoute:
    def test_table_pinned(self, cold_split_cache):
        # (k, r, m, q, route) of every d <= 3000 coprime to p at p = 2, 3, 5,
        # one line "p:d:k:r:m:q:route" each: splitting_count, the lift whose
        # pieces are smallest, the one-factor threshold at p = 2, and at odd
        # p the twist and the quotient pieces.  The second digest, of the
        # lines whose route is neither "twist" nor "quotient" (every p = 2
        # line among them), was recorded before those routes were added:
        # they take no row but their own
        full, kept, taken = hashlib.sha256(), hashlib.sha256(), {}
        for p in (2, 3, 5):
            for d in range(2, 3001):
                if d % p:
                    row = cyclofactor._route(p, d)
                    line = (":".join(map(str, (p, d, *row))) + "\n").encode()
                    full.update(line)
                    if row.name in ("twist", "quotient"):
                        taken[p] = taken.get(p, 0) + 1
                    else:
                        kept.update(line)
        assert full.hexdigest() == (
            "477f9a9c71e1cbe1c64d74f4cdfa342acfbc89eb34ed5095ba7f2b9d2c69e811"
        )
        assert taken == {3: 742, 5: 1152}
        assert kept.hexdigest() == (
            "cae3b3d4a73f5a35c47ea7ba8db5252cffec0274b01c508a6708ae03c6d50265"
        )

    def test_routes(self):
        # pi_7 mod 2 is split by coset sums; pi_1023 (60 factors) from one
        # factor; pi_45 lifts from pi_15 with the degree jump and pi_5 mod 2
        # is irreducible, both "lift"; at odd p no pi_d takes the one-factor
        # route, also with 12 factors (pi_91 mod 3, from the quotient pieces
        # of pi_13(t^7), each of degree 6 * 3 = 18) or 22 (pi_121 mod 3, from
        # pieces lifted to t**11); pi_242 mod 3 is the twist of pi_121 by -1,
        # and pi_12 mod 5 the twists of pi_3 by the fourth roots of unity
        assert cyclofactor._route(2, 7) == (2, 3, 6, None, "coset sums")
        assert cyclofactor._route(2, 1023) == (60, 10, 600, None, "one factor")
        assert cyclofactor._route(2, 45) == (2, 12, 12, 3, "lift")
        assert cyclofactor._route(2, 5) == (1, 4, 4, None, "lift")
        assert cyclofactor._route(3, 91) == (12, 6, 18, 7, "quotient")
        assert cyclofactor._route(3, 121) == (22, 5, 55, 11, "coset sums")
        assert cyclofactor._route(3, 242) == (22, 5, 5, 2, "twist")
        assert cyclofactor._route(5, 12) == (2, 2, 2, 4, "twist")

    def test_cache_is_keyed_by_p(self, cold_split_cache):
        # pi_7 splits into two cubics mod 2 and is irreducible mod 3
        assert cyclofactor._route(2, 7) == (2, 3, 6, None, "coset sums")
        assert cyclofactor._route(3, 7) == (1, 6, 6, None, "lift")

    # (p, n, request): t^80 - 1 at p = 3, the construction check at time
    # q * nj = 155 at p = 3, and e_630 of a random system at p = 2 (n' = 315)
    REQUESTS = {
        "factor": (3, 80, lambda: factor_tn_minus_1(PrimeField(3), 80)),
        "verify": (3, 155, lambda: verify_construction(3, 5, 31)),
        "random": (2, 630, lambda: periodic_exponent(
            random_system(PrimeField(2), Fraction(1, 2), 1), 630)),
    }

    @pytest.mark.parametrize("kind", REQUESTS)
    def test_each_route_is_computed_once(self, cold_split_cache, kind):
        # the charge computes the route of every pi_d, d | n', d > 1, and the
        # split reads the routes it takes back from the cache
        p, n, request = self.REQUESTS[kind]
        request()
        count = len(intmath.divisors(intmath.coprime_part(n, p)[0])) - 1
        info = cyclofactor._route.cache_info()
        assert info.misses == info.currsize == count
        assert info.hits > 0


class TestTwistAndQuotient:
    """At odd p, pi_d is built from the cached factors of a smaller pi_m: by
    twists x**(-r) * f(x t), x a primitive e-th root of unity in F_p, when
    the prime powers of d that divide p - 1 multiply to e > 1, and by the
    pieces f(t**q) / f_s(t) of pi_m(t**q) = pi_d(t) * pi_m(t), q || d prime.
    Both are checked against the general factorization and against sympy."""

    BOUNDS = ((3, 300), (5, 300), (7, 300), (13, 300), (MERSENNE_31, 60))

    @staticmethod
    def _taken(p, bound):
        rows = {d: cyclofactor._route(p, d) for d in range(2, bound + 1) if d % p}
        return {d: row for d, row in rows.items() if row.name in ("twist", "quotient")}

    @pytest.mark.parametrize("p, bound", BOUNDS)
    def test_equals_factorize(self, p, bound, factorizations, cold_split_cache):
        for d in self._taken(p, bound):
            assert _cyclotomic_factors(p, d) == tuple(sorted(factorizations[p, d])), (p, d)

    @pytest.mark.parametrize("p", (3, 5, 7, 13))
    def test_matches_sympy(self, p):
        # sympy took 77 s for every d <= 300 at these four p, so it checks
        # d <= 100 and the two named cases of test_cases below
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        field = PrimeField(p)
        for d in self._taken(p, 100).keys() | ({242} if p == 3 else {39} if p == 5 else set()):
            pi = cyclotomic_poly(field, d)
            expr = sum(c * t**i for i, c in enumerate(pi.coeffs))
            _, pairs = sympy.Poly(expr, t, modulus=p).factor_list()
            expected = sorted(
                field.poly(reversed([int(c) for c in v.all_coeffs()])).monic() for v, _ in pairs
            )
            assert list(_cyclotomic_factors(p, d)) == expected, (p, d)

    def test_cases(self):
        # every d | p - 1 (linear factors), d = 2m, d = 4m at p = 5 and
        # d = 6m at p = 7 are twists; pi_242 mod 3 twists pi_121, itself split
        # from lifted pieces; pi_39 mod 5 has quotient pieces of two factors
        taken = {p: self._taken(p, bound) for p, bound in self.BOUNDS}
        for p, bound in self.BOUNDS:
            for d in intmath.divisors(p - 1)[2:]:  # pi_2 = t + 1 is irreducible
                if d <= bound:
                    assert taken[p][d] == (intmath.euler_phi(d), 1, 1, d, "twist"), (p, d)
        assert taken[3][2 * 35].name == taken[5][2 * 21].name == "twist"
        assert taken[5][4 * 7][3] == 4 and taken[7][6 * 5][3] == 6
        assert cyclofactor._route(3, 121).name == "coset sums"
        assert taken[3][242] == (22, 5, 5, 2, "twist")
        assert taken[5][39] == (6, 4, 8, 3, "quotient")

    def test_twist_takes_no_gcd(self, cold_split_cache, monkeypatch):
        # pi_126 mod 2**31 - 1 splits into 36 linear factors (126 | p - 1),
        # and pi_30 into 2 quartics, twists of pi_5 (e = 6), each with no
        # gcd, no modular power and no division
        _cyclotomic_factors(MERSENNE_31, 5)
        for op in ("gcd", "pow_mod", "div_rem", "rem"):
            monkeypatch.setattr(cyclofactor._kernel, op, None)
        for d, count, degree in ((126, 36, 1), (30, 2, 4)):
            factors = _cyclotomic_factors(MERSENNE_31, d)
            assert len(factors) == count and all(v.degree == degree for v in factors)
