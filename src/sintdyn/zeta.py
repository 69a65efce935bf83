"""Dynamical zeta series, orbit counts, and linear-recurrence detection.

The zeta function exp(sum of c_n z**n / n) is expanded with the exact
logarithmic-derivative recurrence m * a_m = sum_{k=1..m} c_k * a_{m-k},
a_0 = 1, carried out in integer arithmetic: each step divides the integer
sum by m with divmod, so every coefficient of a genuine count sequence
comes out a non-negative integer, and a non-zero remainder raises
InvalidCountsError.  Orbit counts invert the same data: c_n =
sum_{d | n} d * O_d, solved for O_n by a divisor sieve.

The sum is split as c_k = b**k + r_k.  The geometric part H_m =
sum_{k=1..m} b**k * a_{m-k} obeys H_m = b * (H_{m-1} + a_{m-1}), one
product per step (Horner), so only the k with r_k != 0 cost a product each.
b is read off the counts: b = c_1 when the residues r_k carry less than
half the bits of the counts (the full shift has none, a finite S leaves
them on the multiples of its place orders), else b = 0, r = c and the
loop is the plain convolution.  Either way the step sum is the same
integer.

find_linear_recurrence runs Berlekamp-Massey fraction-free: the connection
polynomial C is a primitive integer multiple of the rational one, updated
as C <- b*C - d*x^gap*B (d the discrepancy, b the one stored with B) and
divided by the gcd of its coefficients, so -C[i]/C[0] are exactly the
rational coefficients.  The linear complexity L never decreases as terms
are added, so the run stops with None as soon as L exceeds max_order.  A
returned recurrence only says the truncated series is consistent with a
rational zeta function of bounded denominator degree; None is evidence
(never proof) that no such rational function exists.
"""

from fractions import Fraction
from math import gcd
from itertools import accumulate, compress, repeat
from operator import mul, sub

from . import intmath
from .orders import _validate_n
from .system import SystemSpec, _Record, periodic_exponents


class InvalidCountsError(ValueError):
    """The input sequence cannot be a periodic-point count sequence."""


class ZetaSeries(_Record):
    """Exact coefficients a_0..a_N of the zeta series, with the counts
    c_1..c_N they were built from (None when built from terms alone);
    immutable, equal and hashed by (terms, source)."""

    def __init__(self, terms: tuple[int, ...], source: SystemSpec | None = None,
                 counts: tuple[int, ...] | None = None):
        # counts are determined by the terms, so left out of equality
        self.__dict__.update(terms=terms, source=source, counts=counts)

    def _key(self) -> tuple:
        return self.terms, self.source

    @property
    def truncation_order(self) -> int:
        return len(self.terms) - 1

    def to_json(self) -> dict:
        return {
            "p": self.source.field.p if self.source else None,
            "label": self.source.label if self.source else None,
            "N": self.truncation_order,
            "coefficients": [intmath.decimal(a) for a in self.terms],
        }


def _geometric_split(counts: list[int]) -> tuple[int, list[int]]:
    # (b, r) with counts[k-1] = b**k + r[k-1]: b = c_1 when the residues
    # carry less than half the bits of the counts, else (0, counts).  Mere
    # "fewer bits" would take b = 1 whenever c_1 = 1 (r_1 = 0, and c - 1 has
    # no more bits than c) with nearly every residue non-zero, where the
    # masked loop is slower than the plain one.
    if counts:
        base = counts[0]
        residues = list(map(sub, counts, accumulate(repeat(base, len(counts)), mul)))
        bits = int.bit_length
        if 2 * sum(map(bits, residues)) < sum(map(bits, counts)):
            return base, residues
    return 0, counts


def zeta_coefficients(counts, source: SystemSpec | None = None) -> ZetaSeries:
    """Series coefficients a_0..a_N from the counts c_1..c_N."""
    counts = list(counts)
    if not all(isinstance(c, int) and c > 0 for c in counts):
        raise InvalidCountsError("counts must be positive integers")
    base, residues = _geometric_split(counts)
    if base:
        mask = [r != 0 for r in residues]
        residues = list(compress(residues, mask))
        tail = lambda terms: compress(reversed(terms), mask)  # a_{m-k} where r_k != 0
    else:
        tail = reversed
    terms = [1]
    geometric = 0  # H_m = sum of b**k * a_{m-k} for k = 1..m
    for m in range(1, len(counts) + 1):
        if base:
            geometric = base * (geometric + terms[-1])
        # H_m plus the residue products: the sum of c_k * a_{m-k} for
        # k = 1..m, positive since every c_k is
        acc = sum(map(mul, residues, tail(terms)), geometric)
        a_m, remainder = divmod(acc, m)
        if remainder:
            raise InvalidCountsError(
                f"zeta coefficient a_{m} = {Fraction(acc, m)} is not a non-negative "
                "integer; the count sequence is invalid"
            )
        terms.append(a_m)
    return ZetaSeries(tuple(terms), source, tuple(counts))


def counts_from_series(series: ZetaSeries) -> list[int]:
    """Invert the coefficient recurrence back to the count sequence."""
    a = series.terms
    counts: list[int] = []
    for m in range(1, len(a)):
        c_m = m * a[m] - sum(counts[k - 1] * a[m - k] for k in range(1, m))
        counts.append(c_m)
    return counts


# larger n_terms**2 * p.bit_length() is refused: at the limit the dense
# counts of example85 take 9-10 s at p = 2 and 20 s at p = 3 or 2**31-1, a
# random system at p = 2 11-13 s, while the full shift, summed by Horner
# alone, takes 0.25-0.7 s (2-vCPU Xeon, Python 3.11).  Only the series is
# charged, not the exponent table of a random system.
MAX_ZETA_WORK = 2 * 10**7


def zeta_for_system(spec: SystemSpec, n_terms: int) -> ZetaSeries:
    """Zeta series of a system truncated after z**n_terms (MAX_ZETA_WORK)."""
    intmath.require_positive("n_terms", n_terms)
    _validate_n(n_terms)  # an n out of range is refused as such, not as costly
    intmath.require_at_most("zeta: n_terms**2 * p.bit_length()",
                            n_terms**2 * spec.field.p.bit_length(), MAX_ZETA_WORK)
    counts = [spec.field.p**e for e in periodic_exponents(spec, n_terms)]
    return zeta_coefficients(counts, spec)


def orbit_counts(counts) -> tuple[int, ...]:
    """Numbers O_1..O_N of closed orbits of each least period; rejects
    sequences giving a negative or fractional orbit count.

    c_m = sum over d | m of d * O_d, so a Dirichlet sieve walks n upward:
    once every proper divisor d of n has had d * O_d taken off c_n, what is
    left is n * O_n (the Moebius sum over d | n of mu(n/d) * c_d), and it is
    taken off every multiple of n in turn.  About N log N subtractions."""
    rest = list(counts)  # at step n: c_m less d * O_d for each d < n dividing m
    if not all(isinstance(c, int) and c > 0 for c in rest):
        raise InvalidCountsError("counts must be positive integers")
    orbits = []
    for n in range(1, len(rest) + 1):
        total = rest[n - 1]
        if total < 0 or total % n:
            raise InvalidCountsError(
                f"orbit count at period {n} is {total}/{n}; the count sequence is invalid"
            )
        orbits.append(total // n)
        for m in range(2 * n - 1, len(rest), n):
            rest[m] -= total
    return tuple(orbits)


def _berlekamp_massey(seq: tuple[int, ...], max_order: int) -> list[int] | None:
    # C with sum_{i=0..L} C[i] * seq[n-i] = 0 for L <= n < len(seq), or None
    connection, previous = [1], [1]
    complexity, gap, last_discrepancy = 0, 0, 1
    for n in range(len(seq)):
        gap += 1
        discrepancy = sum(map(mul, connection, reversed(seq[n - complexity : n + 1])))
        if discrepancy == 0:
            continue
        lengthens = 2 * complexity <= n
        if lengthens and n + 1 - complexity > max_order:
            return None  # L never decreases
        updated = [last_discrepancy * c for c in connection]
        updated += [0] * (len(previous) + gap - len(updated))
        for i, coeff in enumerate(previous, gap):
            updated[i] -= discrepancy * coeff
        if lengthens:
            previous, last_discrepancy = connection, discrepancy
            complexity, gap = n + 1 - complexity, 0
        content = gcd(*updated)
        connection = [c // content for c in updated]
    return (connection + [0] * complexity)[: complexity + 1]


def check_max_order(max_order: int, n_terms: int) -> None:
    """Raise ValueError unless n_terms terms determine a max_order fit."""
    intmath.require_positive("max_order", max_order)
    if n_terms < 2 * max_order + 2:
        raise ValueError(f"need at least {2 * max_order + 2} series terms, got {n_terms}")


def find_linear_recurrence(series: ZetaSeries, max_order: int):
    """Minimal recurrence a_m = sum coeffs[i] * a_{m-1-i} of order at most
    max_order satisfied by every supplied term, or None.

    Requires at least 2 * max_order + 2 terms so the fit is determined.
    """
    terms = series.terms
    check_max_order(max_order, len(terms))
    connection = _berlekamp_massey(terms, max_order)
    if connection is None:
        return None
    order = len(connection) - 1
    for n in range(order, len(terms)):
        if sum(map(mul, connection, reversed(terms[n - order : n + 1]))):
            return None
    return tuple(Fraction(-c, connection[0]) for c in connection[1:])
