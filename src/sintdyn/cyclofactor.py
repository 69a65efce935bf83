"""Cyclotomic polynomials mod p and the full factorization of t**n - 1.

Write n = n' * p**e with gcd(n', p) = 1.  Then

    t**n - 1 = prod over divisors d of n' of pi_d ** (p**e),

where pi_d is the d-th cyclotomic polynomial reduced mod p.  Each pi_d
(d >= 2) splits into phi(d)/r distinct irreducibles of equal degree
r = multiplicative order of p mod d.  pi_n is computed by exact division
of t**n - 1 by the lower cyclotomics, never via roots of unity.

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
"""

import functools
import random
from dataclasses import dataclass

from . import intmath
from .ffpoly import _CZ_SEED, Poly, PrimeField, poly_divmod, poly_gcd, poly_powmod
from .orders import multiplicative_order

# seeded combinations of coset sums tried for odd p after each coset sum has
# been used once; a round splits a given pair of factors with probability at
# least 4/9, so running out means pi_d is not the squarefree product expected
_COMBINATION_ROUNDS = 200


@dataclass(frozen=True)
class CycloPart:
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


@dataclass(frozen=True)
class CycloFactorization:
    """Complete factorization of t**n - 1 grouped by cyclotomic part."""

    field: PrimeField
    n: int
    parts: tuple[CycloPart, ...]

    def product(self) -> Poly:
        """Re-multiply every factor to its multiplicity (exact check value)."""
        acc = self.field.one
        for part in self.parts:
            for v in part.factors:
                for _ in range(part.multiplicity):
                    acc = acc * v
        return acc

    def to_json(self) -> dict:
        return {"n": self.n, "parts": [part.to_json() for part in self.parts]}

    @classmethod
    def from_json(cls, field: PrimeField, obj: dict) -> "CycloFactorization":
        parts = tuple(
            CycloPart(
                d=part["d"],
                factors=tuple(field.poly(c) for c in part["factors"]),
                multiplicity=part["multiplicity"],
            )
            for part in obj["parts"]
        )
        return cls(field, obj["n"], parts)


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(p: int, n: int) -> tuple[int, ...]:
    field = PrimeField(p)
    if n == 1:
        return field.poly([-1, 1]).coeffs
    result = field.tn_minus_1(n)
    for d in intmath.divisors(n):
        if d == n:
            continue
        quotient, remainder = poly_divmod(result, field.poly(_cyclotomic_coeffs(p, d)))
        if not remainder.is_zero:
            raise ArithmeticError(f"cyclotomic division left a remainder at n={n}, d={d}")
        result = quotient
    return result.coeffs


def cyclotomic_poly(field: PrimeField, n: int) -> Poly:
    """The n-th cyclotomic polynomial reduced mod p; requires gcd(n, p) = 1."""
    if n < 1:
        raise ValueError(f"n must be positive: got {n}")
    if n % field.p == 0:
        raise ValueError(f"cyclotomic index must be coprime to p: got n={n}, p={field.p}")
    return Poly(field, _cyclotomic_coeffs(field.p, n), _canonical=True)


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
        yield Poly(field, coeffs)


def _frobenius_fixed(field: PrimeField, d: int, pi: Poly, rng: random.Random):
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


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(p: int, d: int) -> tuple[Poly, ...]:
    field = PrimeField(p)
    pi = cyclotomic_poly(field, d)
    if d == 1:
        return (pi,)
    count, r = splitting_count(field, d)
    rng = random.Random(_CZ_SEED)
    half = (p - 1) // 2
    factors, pending = ([pi], []) if pi.degree == r else ([], [pi])
    elements = _frobenius_fixed(field, d, pi, rng)
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
                rest, remainder = poly_divmod(u, h)
                if not remainder.is_zero:
                    raise ArithmeticError(f"split of pi_{d} mod {p} left a remainder")
                parts = [h, rest]
            for v in parts:
                (factors if v.degree == r else pending).append(v)
    if pending or len(factors) != count or not all(v.is_monic for v in factors):
        raise ArithmeticError(
            f"pi_{d} mod {p} did not split into {count} monic factors of degree {r}"
        )
    return tuple(sorted(factors))


def factor_tn_minus_1(field: PrimeField, n: int) -> CycloFactorization:
    """Factor t**n - 1 completely, grouped by cyclotomic divisor."""
    if n < 1:
        raise ValueError(f"n must be positive: got {n}")
    n_coprime, e = intmath.coprime_part(n, field.p)
    multiplicity = field.p**e
    parts = tuple(
        CycloPart(d, _cyclotomic_factors(field.p, d), multiplicity)
        for d in intmath.divisors(n_coprime)
    )
    return CycloFactorization(field, n, parts)
