"""Integer number theory helpers: primality, factorization, multiplicative functions.

Everything here is deterministic run to run: Miller-Rabin uses a fixed
witness list (provably exact below 3.3e24, which covers every branch the
rest of the library takes on native-sized inputs; larger inputs from p^m - 1
get the same fixed witnesses plus a fixed extension, so results never vary
between runs) and Pollard rho sweeps its parameters in a fixed order.
"""

import math

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BOUND = 3317044064679887385961981
_MR_EXTRA_WITNESSES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_TRIAL_BOUND = 10**6
# decimal() hands str() pieces below 10**512: CPython's int->str digit
# limit is at least 640 digits whenever it is set
_PIECE_DIGITS = 512
_PIECE = 10**_PIECE_DIGITS


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_EXACT_BOUND:
        witnesses = _MR_WITNESSES + _MR_EXTRA_WITNESSES
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle-finding variant; parameters swept deterministically.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorint expects n >= 1: got {n}")
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while q <= _TRIAL_BOUND and q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for q, e in factorint(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for q, e in factorint(n).items():
        phi *= (q - 1) * q ** (e - 1)
    return phi


def carmichael_lambda(n: int) -> int:
    """Carmichael function: exponent of the unit group mod n."""
    lam = 1
    for q, e in factorint(n).items():
        if q == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = (q - 1) * q ** (e - 1)
        lam = math.lcm(lam, block)
    return lam


def mobius(n: int) -> int:
    mu = 1
    for _, e in factorint(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, flag in enumerate(sieve) if flag]


def coprime_part(n: int, p: int) -> tuple[int, int]:
    """Split n = n' * p**e with gcd(n', p) = 1; returns (n', e)."""
    if n < 1:
        raise ValueError(f"expected n >= 1: got {n}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def decimal(n: int) -> str:
    """Exact decimal string of n >= 0 of any length: str() refuses ints longer
    than sys.get_int_max_str_digits() (4300 digits by default), so n is split
    with divmod into pieces below that limit, which is left unchanged."""
    if n < _PIECE:
        return str(n)
    digits = _PIECE_DIGITS
    while n >= 10 ** (2 * digits):
        digits *= 2
    high, low = divmod(n, 10**digits)
    return decimal(high) + decimal(low).zfill(digits)
