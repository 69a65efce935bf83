"""Dynamical zeta series, orbit counts, and linear-recurrence detection.

The zeta function exp(sum of c_n z**n / n) is expanded with the exact
logarithmic-derivative recurrence m * a_m = sum_{k=1..m} c_k * a_{m-k},
a_0 = 1, carried out in integer arithmetic: each step divides the integer
sum by m with divmod, so every coefficient of a genuine count sequence
comes out a non-negative integer, and a non-zero remainder raises
InvalidCountsError.  Orbit counts invert the same data: n * O_n =
sum_{d | n} mu(n/d) * c_d.

find_linear_recurrence runs exact Berlekamp-Massey over the rationals.  A
returned recurrence only says the truncated series is consistent with a
rational zeta function of bounded denominator degree; None is evidence
(never proof) that no such rational function exists.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from operator import mul

from . import intmath
from .system import SystemSpec, periodic_count


class InvalidCountsError(ValueError):
    """The input sequence cannot be a periodic-point count sequence."""


@dataclass(frozen=True)
class ZetaSeries:
    """Exact coefficients a_0..a_N of the zeta series, with the counts
    c_1..c_N they were built from (None when built from terms alone)."""

    terms: tuple[int, ...]
    source: SystemSpec | None = None
    # determined by the terms, so left out of equality
    counts: tuple[int, ...] | None = dataclass_field(default=None, compare=False)

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


def zeta_coefficients(counts, source: SystemSpec | None = None) -> ZetaSeries:
    """Series coefficients a_0..a_N from the counts c_1..c_N."""
    counts = list(counts)
    if not all(isinstance(c, int) and c > 0 for c in counts):
        raise InvalidCountsError("counts must be positive integers")
    terms = [1]
    for m in range(1, len(counts) + 1):
        # sum of c_k * a_{m-k} for k = 1..m; positive since every c_k is
        acc = sum(map(mul, counts, reversed(terms)))
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


def zeta_for_system(spec: SystemSpec, n_terms: int) -> ZetaSeries:
    """Zeta series of a system truncated after z**n_terms."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive: got {n_terms}")
    counts = [periodic_count(spec, n) for n in range(1, n_terms + 1)]
    return zeta_coefficients(counts, spec)


def orbit_counts(counts) -> tuple[int, ...]:
    """Numbers O_1..O_N of closed orbits of each least period, by Moebius
    inversion of the counts; rejects sequences giving a negative or
    fractional orbit count."""
    counts = list(counts)
    if not all(isinstance(c, int) and c > 0 for c in counts):
        raise InvalidCountsError("counts must be positive integers")
    orbits = []
    for n in range(1, len(counts) + 1):
        total = sum(intmath.mobius(n // d) * counts[d - 1] for d in intmath.divisors(n))
        if total < 0 or total % n:
            raise InvalidCountsError(
                f"orbit count at period {n} is {total}/{n}; the count sequence is invalid"
            )
        orbits.append(total // n)
    return tuple(orbits)


def _berlekamp_massey(seq: list[Fraction]) -> tuple[int, list[Fraction]]:
    # connection polynomial C with C[0] = 1 and
    # sum_{i=0..L} C[i] * seq[n-i] = 0 for L <= n < len(seq)
    connection = [Fraction(1)]
    previous = [Fraction(1)]
    complexity = 0
    gap = 1
    last_discrepancy = Fraction(1)
    for n in range(len(seq)):
        discrepancy = seq[n] + sum(
            connection[i] * seq[n - i] for i in range(1, complexity + 1)
        )
        if discrepancy == 0:
            gap += 1
            continue
        scale = discrepancy / last_discrepancy
        updated = connection + [Fraction(0)] * max(
            0, len(previous) + gap - len(connection)
        )
        for i, coeff in enumerate(previous):
            updated[i + gap] -= scale * coeff
        if 2 * complexity <= n:
            previous = connection
            complexity = n + 1 - complexity
            last_discrepancy = discrepancy
            gap = 1
        else:
            gap += 1
        connection = updated
    connection += [Fraction(0)] * max(0, complexity + 1 - len(connection))
    return complexity, connection[: complexity + 1]


def find_linear_recurrence(series: ZetaSeries, max_order: int):
    """Minimal recurrence a_m = sum coeffs[i] * a_{m-1-i} of order at most
    max_order satisfied by every supplied term, or None.

    Requires at least 2 * max_order + 2 terms so the fit is determined.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive: got {max_order}")
    terms = series.terms
    if len(terms) < 2 * max_order + 2:
        raise ValueError(
            f"need at least {2 * max_order + 2} series terms, got {len(terms)}"
        )
    seq = [Fraction(a) for a in terms]
    order, connection = _berlekamp_massey(seq)
    if order > max_order:
        return None
    coeffs = tuple(-c for c in connection[1:])
    for n in range(order, len(terms)):
        if seq[n] != sum(coeffs[i] * seq[n - 1 - i] for i in range(order)):
            return None
    return coeffs
