"""Cyclotomic polynomials mod p and the full factorization of t**n - 1.

Write n = n' * p**e with gcd(n', p) = 1.  Then

    t**n - 1 = prod over divisors d of n' of pi_d ** (p**e),

where pi_d is the d-th cyclotomic polynomial reduced mod p.  Each pi_d
(d >= 2) splits into phi(d)/r distinct irreducibles of equal degree
r = multiplicative order of p mod d.  pi_n is the Moebius product of
(t**d - 1) ** mu(n/d) over d | n, formed over the integers and reduced mod
p once (Lidl & Niederreiter, ch. 3): the t**d - 1 with mu = 1 multiply to
pi_n times the monic t**d - 1 with mu = -1, so dividing those out is exact.

pi_d is split from the coset sums e_C(t) = sum of t**i over a cyclotomic
coset C = {j, jp, jp**2, ...} of p on Z/d (Berlekamp, Math. Comp. 24,
1970).  Every e_C is fixed by Frobenius mod t**d - 1, so it takes a value
in F_p at each irreducible factor of pi_d, and together the e_C separate
any two factors.  For p = 2 a piece u is split by gcd(u, e_C), with no
randomness.  For odd p it is split by gcd(u, (g + a)**((p-1)/2) - 1), g a
coset sum or, once every coset sum has been used, a combination of them;
the coefficients and the shift a come from the fixed seed of ffpoly, so
the split is deterministic and its exponent has only log2(p) bits.  Coset
sums are formed one at a time, and the walk stops once all phi(d)/r
factors are found.  ffpoly.factorize stays the general factorization.

When a prime q has q**2 | d, pi_d(t) = pi_{d/q}(t**q), so every factor f of
pi_{d/q} (cached, and needed by every caller that asks for all d | n)
lifts to a factor f(t**q) of pi_d of degree q * r', r' = ord_{d/q}(p).  The
kernel of (Z/d)* -> (Z/(d/q))* has order q, so r is r' or q * r'.  When
r = q * r', each f(t**q) has the degree r of every irreducible factor of
pi_d and is one, with no gcd taken.  When r = r', the lifted pieces, each a
product of q factors, are what the split starts from in place of pi_d, and
pi_d is formed only to reduce the coset sums.
"""

import functools
import random
from typing import NamedTuple

from . import intmath
from .ffpoly import _CZ_SEED, Poly, PrimeField, poly_divmod, poly_gcd, poly_powmod
from .orders import multiplicative_order

# factor_tn_minus_1 refuses n with factor_work(p, n) above this before any
# pi_d is built: a unit is about 20 ps of pure-kernel time, so the limit is
# about 3 s (2-vCPU x86-64 host, Python 3.11; probed at p = 2, 3, 5 and
# 2**31 - 1, where t**131071 - 1 at p = 2 ran for over a minute)
MAX_FACTOR_WORK = 2**37

# seeded combinations of coset sums tried for odd p after each coset sum has
# been used once; a round splits a given pair of factors with probability at
# least 4/9, so running out means pi_d is not the squarefree product expected
_COMBINATION_ROUNDS = 200


class CycloPart(NamedTuple):
    """Factors of one cyclotomic polynomial pi_d inside t**n - 1."""

    d: int
    factors: tuple[Poly, ...]
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "multiplicity": self.multiplicity,
            "factors": [v.to_json() for v in self.factors],
        }


class CycloFactorization(NamedTuple):
    """Complete factorization of t**n - 1 grouped by cyclotomic part."""

    field: PrimeField
    n: int
    parts: tuple[CycloPart, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "parts": [part.to_json() for part in self.parts]}


def cyclotomic_poly(field: PrimeField, n: int) -> Poly:
    """The n-th cyclotomic polynomial reduced mod p; requires gcd(n, p) = 1."""
    if n < 1:
        raise ValueError(f"n must be positive: got {n}")
    if n % field.p == 0:
        raise ValueError(f"cyclotomic index must be coprime to p: got n={n}, p={field.p}")
    up, down = [n], []  # the d | n with mu(n/d) = 1 and with mu(n/d) = -1
    for q in intmath.factorint(n):
        up, down = up + [d // q for d in down], down + [d // q for d in up]
    c = [1]
    for d in up:  # times t**d - 1: c[i] becomes c[i - d] - c[i]
        c[:0] = [0] * d
        for i in range(len(c) - d):
            c[i] -= c[i + d]
    for d in down:  # exact quotient by t**d - 1: q[i] = q[i - d] - c[i]
        for i in range(len(c) - d):
            c[i] = (c[i - d] if i >= d else 0) - c[i]
        del c[-d:]
    return field.poly(c)


def splitting_count(field: PrimeField, n: int) -> tuple[int, int]:
    """(number of irreducible factors of pi_n mod p, their common degree)."""
    if n < 2:
        raise ValueError(f"n must be >= 2: got {n}")
    if n % field.p == 0:
        raise ValueError(f"n must be coprime to p: got n={n}, p={field.p}")
    degree = multiplicative_order(field.p, n)
    return intmath.euler_phi(n) // degree, degree


def _coset_sums(field: PrimeField, d: int):
    # e_C for each cyclotomic coset C of p on Z/d other than {0}, lazily
    p = field.p
    seen = bytearray(d)
    for j in range(1, d):
        if seen[j]:
            continue
        coeffs = [0] * d
        i = j
        while not seen[i]:
            seen[i] = coeffs[i] = 1
            i = i * p % d
        while not coeffs[-1]:
            coeffs.pop()
        yield Poly(field, tuple(coeffs), _canonical=True)


def _frobenius_fixed(field: PrimeField, d: int, pi: Poly, rng: random.Random | None):
    # the elements g that split pi_d: each coset sum mod pi_d, then, for odd
    # p only, seeded combinations of them
    sums = []
    for e in _coset_sums(field, d):
        sums.append(e % pi)
        yield sums[-1]
    if field.p == 2:
        return
    for _ in range(_COMBINATION_ROUNDS):
        g = field.zero
        for e in sums:
            g = g + e * rng.randrange(field.p)
        yield g


def _lift(f: Poly, q: int) -> Poly:
    # f(t**q)
    coeffs = [0] * (q * f.degree + 1)
    coeffs[::q] = f.coeffs
    return Poly(f.field, tuple(coeffs), _canonical=True)


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(p: int, d: int) -> tuple[Poly, ...]:
    field = PrimeField(p)
    if d == 1:
        return (cyclotomic_poly(field, 1),)
    count, r = splitting_count(field, d)
    q = next((q for q in intmath.factorint(d) if d % (q * q) == 0), None)
    if q:  # pi_d(t) = pi_{d/q}(t**q) (module docstring)
        pieces = [_lift(f, q) for f in _cyclotomic_factors(p, d // q)]
    else:
        pieces = [cyclotomic_poly(field, d)]
    factors, pending = (pieces, []) if pieces[0].degree == r else ([], pieces)
    if pending:
        rng = random.Random(_CZ_SEED) if p != 2 else None  # p = 2 draws nothing
        pi = cyclotomic_poly(field, d) if q else pieces[0]
        elements = _frobenius_fixed(field, d, pi, rng)
    half = (p - 1) // 2
    while pending:
        g = next(elements, None)
        if g is None:
            break
        pieces, pending = pending, []
        for u in pieces:
            if p == 2:
                h = poly_gcd(u, g)
            else:
                h = poly_gcd(u, poly_powmod(g + rng.randrange(p), half, u) - 1)
            parts = [u]
            if 0 < h.degree < u.degree:
                parts = [h, poly_divmod(u, h)[0]]  # h is a gcd with u, so it divides u
            for v in parts:
                (factors if v.degree == r else pending).append(v)
    if pending or len(factors) != count or not all(v.is_monic for v in factors):
        raise ArithmeticError(
            f"pi_{d} mod {p} did not split into {count} monic factors of degree {r}"
        )
    return tuple(sorted(factors))


def factor_work(p: int, n: int) -> int:
    """The cost of factoring t**n - 1 mod p in the units of MAX_FACTOR_WORK.

    Each d | n' (n' the p-coprime part of n) costs 16384 * d to form pi_d
    and write out its factors.
    When pi_d splits into k > 1 factors, each gcd at degree up to
    phi(d) costs phi(d)**2.  At p = 2 a coset sum may split off a single
    factor, so the split costs k * phi(d)**2.  At odd p a seeded draw
    halves every piece, so it costs about log2(k) rounds, each a modular
    power and a gcd whose cost grows with bit_length(p)**2:
    64 * bit_length(p)**2 * k.bit_length() * phi(d)**2."""
    n_coprime, _ = intmath.coprime_part(n, p)
    if 16384 * n_coprime > MAX_FACTOR_WORK:  # d = n' alone: not worth factoring n'
        return 16384 * n_coprime
    work = 0
    for d in intmath.divisors(n_coprime):
        work += 16384 * d
        phi = intmath.euler_phi(d)
        k = phi // multiplicative_order(p, d) if d > 1 else 1
        if k > 1:
            rounds = k if p == 2 else 64 * p.bit_length() ** 2 * k.bit_length()
            work += rounds * phi * phi
    return work


def factor_tn_minus_1(field: PrimeField, n: int) -> CycloFactorization:
    """Factor t**n - 1 completely, grouped by cyclotomic divisor; refused
    with ValueError when factor_work(p, n) > MAX_FACTOR_WORK."""
    if n < 1:
        raise ValueError(f"n must be positive: got {n}")
    work = factor_work(field.p, n)
    if work > MAX_FACTOR_WORK:
        raise ValueError(
            f"factor: factor_work(p, n) must be at most {MAX_FACTOR_WORK}: got {work}"
        )
    n_coprime, e = intmath.coprime_part(n, field.p)
    multiplicity = field.p**e
    parts = tuple(
        CycloPart(d, _cyclotomic_factors(field.p, d), multiplicity)
        for d in intmath.divisors(n_coprime)
    )
    return CycloFactorization(field, n, parts)
