import math
import random
import re

import pytest

from sintdyn import intmath
from sintdyn.cyclofactor import cyclotomic_poly, factor_tn_minus_1
from sintdyn.ffpoly import PrimeField
from sintdyn.limitset import (
    MAX_ARTIN_BOUND,
    MAX_Q_BOUND,
    artin_primes,
    cluster_limits,
    example85_rates,
    growth_sequence,
)
from sintdyn.places import enumerate_places
from sintdyn.system import full_shift
from sintdyn.zeta import check_max_order, zeta_for_system

from oracles import mobius, primes_upto


def _sieve(bound):
    flags = [True] * (bound + 1)
    flags[0] = flags[1] = False
    for q in range(2, int(bound**0.5) + 1):
        if flags[q]:
            for k in range(q * q, bound + 1, q):
                flags[k] = False
    return flags


def test_is_prime_matches_sieve_below_10000():
    flags = _sieve(10000)
    for n in range(10001):
        assert intmath.is_prime(n) == flags[n], n


def test_is_prime_large_values():
    assert intmath.is_prime(2**31 - 1)
    assert intmath.is_prime(2**61 - 1)
    assert not intmath.is_prime(561)  # Carmichael
    assert not intmath.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not intmath.is_prime((2**31 - 1) * (2**13 - 1))


def test_factorint_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        factors = intmath.factorint(n)
        assert math.prod(q**e for q, e in factors.items()) == n
        assert all(intmath.is_prime(q) for q in factors)


def test_factorint_mersenne_style():
    n = 2**60 - 1
    factors = intmath.factorint(n)
    assert math.prod(q**e for q, e in factors.items()) == n
    assert all(intmath.is_prime(q) for q in factors)
    n = 5**29 - 1
    factors = intmath.factorint(n)
    assert math.prod(q**e for q, e in factors.items()) == n
    assert all(intmath.is_prime(q) for q in factors)


@pytest.mark.parametrize(
    "factors",
    (
        # squares and products of primes on both sides of the 10**6 trial bound
        {999983: 2},
        {1000003: 2},
        {999979: 1, 999983: 1},
        {999983: 1, 1000003: 1},
        {2: 1, 1000003: 1},
        {3: 2, 999983: 1, 1000033: 1},
        # semiprimes and a prime above 10**12, past trial division
        {1000003: 1, 1000033: 1},
        {2147483647: 1, 2305843009213693951: 1},
        {1000000000039: 1},
    ),
)
def test_factorint_near_trial_bound(factors):
    n = math.prod(q**e for q, e in factors.items())
    result = intmath.factorint(n)
    assert result == factors
    assert all(intmath.is_prime(q) for q in result)


def test_factorint_rejects_zero():
    with pytest.raises(ValueError):
        intmath.factorint(0)


def test_divisors():
    assert intmath.divisors(1) == [1]
    assert intmath.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert intmath.divisors(15) == [1, 3, 5, 15]


def test_euler_phi():
    assert [intmath.euler_phi(n) for n in (1, 2, 7, 12, 15)] == [1, 1, 6, 4, 8]
    # phi(n) = count of coprime residues (brute)
    for n in range(1, 120):
        assert intmath.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_carmichael_lambda():
    assert intmath.carmichael_lambda(8) == 2
    assert intmath.carmichael_lambda(15) == 4
    assert intmath.carmichael_lambda(561) == 80
    # a**lambda(n) = 1 for every unit a
    for n in range(2, 80):
        lam = intmath.carmichael_lambda(n)
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert pow(a, lam, n) == 1


def test_mobius_brute():
    def mu_brute(n):
        result = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                result = -result
            d += 1
        return -result if n > 1 else result

    for n in range(1, 300):
        assert mobius(n) == mu_brute(n)


@pytest.mark.parametrize("bound", (0, 1, 2, 3, 30, 10**4))
def test_primes_upto_matches_trial_division(bound):
    # the trial-division oracle, then the sieve against it
    primes = primes_upto(bound)
    assert primes[:10] == [q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if q <= bound]
    if bound >= 1:
        flags = intmath.prime_flags(bound)
        assert len(flags) == bound + 1
        assert [n for n, flag in enumerate(flags) if flag] == primes
        assert set(flags) <= {0, 1}


def test_coprime_part():
    assert intmath.coprime_part(6, 2) == (3, 1)
    assert intmath.coprime_part(6, 3) == (2, 1)
    assert intmath.coprime_part(729, 3) == (1, 6)
    assert intmath.coprime_part(7, 5) == (7, 0)
    with pytest.raises(ValueError):
        intmath.coprime_part(0, 2)


F2, F3 = PrimeField(2), PrimeField(3)
FULL = full_shift(F2)


@pytest.mark.parametrize("call, message", (
    pytest.param(lambda: cyclotomic_poly(F3, 0), "n must be positive: got 0",
                 id="cyclotomic_poly"),
    pytest.param(lambda: factor_tn_minus_1(F3, 0), "n must be positive: got 0",
                 id="factor_tn_minus_1"),
    pytest.param(lambda: F2.tn_minus_1(0), "n must be positive: got 0", id="tn_minus_1_p2"),
    pytest.param(lambda: F3.tn_minus_1(0), "n must be positive: got 0", id="tn_minus_1_p3"),
    pytest.param(lambda: growth_sequence(FULL, 0), "max_n must be positive: got 0",
                 id="growth_sequence"),
    pytest.param(lambda: example85_rates(F2, 0), "q_bound must be positive: got 0",
                 id="example85_rates"),
    pytest.param(lambda: example85_rates(F2, MAX_Q_BOUND + 1),
                 "example85: q_bound must be at most 1000000: got 1000001",
                 id="example85_rates_limit"),
    pytest.param(lambda: cluster_limits([(1, 1)], 0), "epsilon must be positive: got 0",
                 id="cluster_limits"),
    pytest.param(lambda: enumerate_places(F2, 0), "max_degree must be positive: got 0",
                 id="enumerate_places"),
    pytest.param(lambda: zeta_for_system(FULL, 0), "n_terms must be positive: got 0",
                 id="zeta_for_system"),
    pytest.param(lambda: check_max_order(0, 10), "max_order must be positive: got 0",
                 id="check_max_order"),
    pytest.param(lambda: artin_primes(F2, MAX_ARTIN_BOUND + 1),
                 "artin: bound must be at most 10000000: got 10000001", id="artin_primes"),
))
def test_library_refusal_texts(call, message):
    # the full text of each library refusal: the CLI prints it after its own
    # prefix, and callers may match on it
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
