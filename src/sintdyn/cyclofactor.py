"""Cyclotomic polynomials mod p and the full factorization of t**n - 1.

Write n = n' * p**e with gcd(n', p) = 1.  Then

    t**n - 1 = prod over divisors d of n' of pi_d ** (p**e),

where pi_d is the d-th cyclotomic polynomial reduced mod p.  Each pi_d
(d >= 2) splits into phi(d)/r distinct irreducibles of equal degree
r = multiplicative order of p mod d.  pi_n is computed by exact division
of t**n - 1 by the lower cyclotomics, never via roots of unity.
"""

import functools
from dataclasses import dataclass

from . import intmath
from .ffpoly import Poly, PrimeField, factorize, poly_divmod
from .orders import multiplicative_order


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


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(p: int, d: int) -> tuple[Poly, ...]:
    field = PrimeField(p)
    pi = cyclotomic_poly(field, d)
    if d == 1:
        return (pi,)
    pairs = factorize(pi)
    if any(mult != 1 for _, mult in pairs):
        raise ArithmeticError(f"cyclotomic pi_{d} mod {p} was not squarefree")
    return tuple(v for v, _ in pairs)


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
