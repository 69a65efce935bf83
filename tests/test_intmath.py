import math
import random

import pytest

from sintdyn import intmath

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
