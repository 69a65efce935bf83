"""Independent brute-force oracles.

Everything here sticks to first principles (exhaustive enumeration, trial
division, direct power-series exponentials) and deliberately avoids the
library code paths under test, so expected values frozen in the tests are
computed on an independent route.  The exceptions are the two sections at
the end.  valuation_exponent and product_formula_sum are built on the
library's factorize and ord_brute (the product formula is their check),
and factorization_product re-multiplies a factor_tn_minus_1 result with
Poly arithmetic alone.  example85_reference restates example85_rates as a
rate set.  inverted_places_dividing lists the factors of a
factor_tn_minus_1 result that the omega source marks, so the exponent
rule of sintdyn.system (one modular power per explicit place, D(d) per
cyclotomic index for random marks) is checked against a factorization.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from sintdyn.cyclofactor import CycloFactorization, factor_tn_minus_1
from sintdyn.ffpoly import PrimeField, Poly, factorize, poly_divmod
from sintdyn.intmath import divisors, factorint
from sintdyn.limitset import example85_rates
from sintdyn.orders import ord_brute
from sintdyn.places import Place
from sintdyn.system import SystemSpec


def all_monic(field: PrimeField, degree: int):
    """Every monic polynomial of the given degree, ascending canonical code."""
    top = field.p**degree  # the code of t**degree
    for code in range(top, 2 * top):
        yield field.from_code(code)


def sieve_irreducibles(field: PrimeField, max_degree: int) -> list[Poly]:
    """Monic irreducibles of degree <= max_degree by trial-division sieve."""
    irr: list[Poly] = []
    for d in range(1, max_degree + 1):
        for f in all_monic(field, d):
            if not any(
                poly_divmod(f, v)[1].is_zero for v in irr if v.degree <= d // 2
            ):
                irr.append(f)
    return irr


def brute_factorize(f: Poly) -> list[tuple[Poly, int]]:
    """Factorization by trial division against the sieve irreducibles."""
    f = f.monic()
    out = []
    for v in sieve_irreducibles(f.field, f.degree):
        mult = 0
        while True:
            q, r = poly_divmod(f, v)
            if not r.is_zero:
                break
            f = q
            mult += 1
        if mult:
            out.append((v, mult))
        if f.degree == 0:
            break
    assert f.degree == 0, "sieve must exhaust the polynomial"
    return out


def primes_upto(bound: int) -> list[int]:
    """All primes <= bound, ascending, by trial division."""
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


_CYCLOTOMIC_MEMO: dict[tuple[int, int], Poly] = {}


def cyclotomic_by_division(field: PrimeField, n: int) -> Poly:
    """pi_n mod p as t**n - 1 divided by pi_d, by the same route, for every
    proper divisor d of n found by trial division; memoised on (p, n)."""
    key = (field.p, n)
    if key not in _CYCLOTOMIC_MEMO:
        result = field.tn_minus_1(n)
        for d in range(1, n):
            if n % d == 0:
                result, remainder = poly_divmod(result, cyclotomic_by_division(field, d))
                assert remainder.is_zero, (field.p, n, d)
        _CYCLOTOMIC_MEMO[key] = result
    return _CYCLOTOMIC_MEMO[key]


def exact_period_orbits(p: int, n: int) -> int:
    """Orbits of exact period n of the shift on p symbols, by enumerating
    all p**n words and computing each word's least cyclic period."""
    exact = 0
    for word in product(range(p), repeat=n):
        least = n
        for d in range(1, n):
            if n % d == 0 and all(word[i] == word[i % d] for i in range(n)):
                least = d
                break
        if least == n:
            exact += 1
    assert exact % n == 0
    return exact // n


def mobius(n: int) -> int:
    """The Moebius function from the prime factorization of n."""
    mu = 1
    for _, e in factorint(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def orbit_counts_by_mobius(counts) -> tuple[int, ...]:
    """Orbit counts O_1..O_N by per-n Moebius inversion, n * O_n = sum over
    d | n of mu(n/d) * c_d, each n and n/d factored; raises ValueError with
    the library's message at the first negative or fractional O_n."""
    counts = list(counts)
    if not all(isinstance(c, int) and c > 0 for c in counts):
        raise ValueError("counts must be positive integers")
    orbits = []
    for n in range(1, len(counts) + 1):
        total = sum(mobius(n // d) * counts[d - 1] for d in divisors(n))
        if total < 0 or total % n:
            raise ValueError(
                f"orbit count at period {n} is {total}/{n}; the count sequence is invalid"
            )
        orbits.append(total // n)
    return tuple(orbits)


def series_exponential(counts, n_terms: int) -> list[Fraction]:
    """Coefficients of exp(sum c_k z**k / k) via the direct exponential
    series sum S**j / j!, independent of the coefficient recurrence."""
    S = [Fraction(0)] * (n_terms + 1)
    for k, c in enumerate(counts[:n_terms], start=1):
        S[k] = Fraction(c, k)

    def mul_trunc(a, b):
        out = [Fraction(0)] * (n_terms + 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if i + j > n_terms:
                        break
                    out[i + j] += ai * bj
        return out

    acc = [Fraction(0)] * (n_terms + 1)
    acc[0] = Fraction(1)
    term = acc[:]
    for j in range(1, n_terms + 1):
        term = [x / j for x in mul_trunc(term, S)]
        for i, x in enumerate(term):
            acc[i] += x
    return acc


def zeta_by_convolution(counts) -> tuple[int, ...]:
    """Coefficients a_0..a_N of exp(sum c_k z**k / k) by the plain
    convolution m * a_m = sum_{k=1..m} c_k * a_{m-k}, one product per term;
    raises ValueError with the library's message on an invalid sequence."""
    counts = list(counts)
    if not all(isinstance(c, int) and c > 0 for c in counts):
        raise ValueError("counts must be positive integers")
    terms = [1]
    for m in range(1, len(counts) + 1):
        acc = sum(c * a for c, a in zip(counts, reversed(terms)))
        a_m, remainder = divmod(acc, m)
        if remainder:
            raise ValueError(
                f"zeta coefficient a_{m} = {Fraction(acc, m)} is not a non-negative "
                "integer; the count sequence is invalid"
            )
        terms.append(a_m)
    return tuple(terms)


def clusters_by_fraction(rates, epsilon, tail_size: int) -> list[tuple[Fraction, int]]:
    """Greedy clusters of the last tail_size rates: sorted as Fractions,
    each merged into the cluster whose lowest rate it is within epsilon of,
    reported as (median, size) in ascending order."""
    clusters: list[list[Fraction]] = []
    for rate in sorted(rates[len(rates) - tail_size :]):
        if clusters and rate - clusters[-1][0] <= epsilon:
            clusters[-1].append(rate)
        else:
            clusters.append([rate])
    out = []
    for cluster in clusters:
        mid, odd = divmod(len(cluster), 2)
        median = cluster[mid] if odd else (cluster[mid - 1] + cluster[mid]) / 2
        out.append((median, len(cluster)))
    return out


def irreducible_count(p: int, m: int) -> int:
    """Number of monic irreducibles of degree m via the necklace formula
    (1/m) sum_{d | m} mu(d) p**(m/d), with mu by trial division."""

    def mu(n):
        result = 1
        d = 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                result = -result
            d += 1
        if n > 1:
            result = -result
        return result

    total = sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


def minimal_recurrence(terms, max_order: int):
    """Shortest recurrence a_n = sum_{i=1..L} c_i * a_{n-i}, holding for
    every n >= L, with L <= max_order, as (c_1, ..., c_L); None if none.

    Each order L = 0, 1, ... solves its Hankel system by Gaussian
    elimination over Fraction and is then checked against every term; no
    shift-register synthesis is involved.
    """
    a = [Fraction(x) for x in terms]
    for order in range(max_order + 1):
        coeffs = _solve_hankel(a, order)
        if coeffs is not None and all(
            a[n] == sum(c * a[n - i] for i, c in enumerate(coeffs, start=1))
            for n in range(order, len(a))
        ):
            return tuple(coeffs)
    return None


def _solve_hankel(a, order):
    # rows [a_{n-1}, ..., a_{n-order} | a_n] for n >= order, each reduced by
    # the pivot rows so far until `order` pivots are found; free unknowns
    # are 0, and None means a row reduced to 0 = non-zero
    pivots = []  # (column, row with row[column] == 1)
    for n in range(order, len(a)):
        if len(pivots) == order:
            break
        row = [a[n - i] for i in range(1, order + 1)] + [a[n]]
        for col, pivot_row in pivots:
            factor = row[col]
            if factor:
                row = [x - factor * y for x, y in zip(row, pivot_row)]
        col = next((j for j in range(order) if row[j]), None)
        if col is None:
            if row[-1]:
                return None
            continue
        pivots.append((col, [x / row[col] for x in row]))
    x = [Fraction(0)] * order
    for col, row in reversed(pivots):
        x[col] = row[-1] - sum(row[j] * x[j] for j in range(order) if j != col)
    return x


def factorization_product(fct: CycloFactorization) -> Poly:
    """Every factor of fct multiplied in to its multiplicity: t**n - 1 when
    the factorization is right."""
    acc = fct.field.one
    for part in fct.parts:
        for v in part.factors:
            for _ in range(part.multiplicity):
                acc = acc * v
    return acc


def valuation_exponent(place: Place, numerator: Poly, denominator: Poly) -> int:
    """Exact exponent e with |numerator/denominator| = p**(-e) at the place,
    from ord_brute at a finite place."""
    if numerator.is_zero or denominator.is_zero:
        raise ValueError("valuation requires a nonzero numerator and denominator")
    if numerator.field != denominator.field:
        raise ValueError("numerator and denominator over different fields")
    if place.is_infinite:
        return denominator.degree - numerator.degree
    v = place.poly
    if v.field != numerator.field:
        raise ValueError("place and operands over different fields")
    return (ord_brute(v, numerator) - ord_brute(v, denominator)) * v.degree


def product_formula_sum(numerator: Poly, denominator: Poly) -> int:
    """Sum of valuation exponents over the infinite place and every finite
    place dividing numerator or denominator, found by factorize.  Always 0
    for valid input."""
    if numerator.is_zero or denominator.is_zero:
        raise ValueError("product formula requires a nonzero numerator and denominator")
    if numerator.field != denominator.field:
        raise ValueError("numerator and denominator over different fields")
    exponents: dict[Poly, int] = {}
    if numerator.degree >= 1:
        for v, mult in factorize(numerator):
            exponents[v] = exponents.get(v, 0) + mult
    if denominator.degree >= 1:
        for v, mult in factorize(denominator):
            exponents[v] = exponents.get(v, 0) - mult
    total = denominator.degree - numerator.degree
    for v, mult in exponents.items():
        total += mult * v.degree
    return total


def example85_reference(field: PrimeField, q_bound: int) -> set[Fraction]:
    """The limit rate set {1 - 1/q : q <= q_bound, p does not divide q}
    together with 1, in units of log p (example85_rates as a set)."""
    return set(example85_rates(field, q_bound))


def inverted_places_dividing(spec: SystemSpec, n: int) -> list[tuple[Place, int, int]]:
    """The marked places with positive multiplicity in t**n - 1, each with
    its multiplicity and degree (the terms of the exponent sum), sorted
    canonically: every factor of factor_tn_minus_1 that spec.omega marks."""
    rows = [
        (Place(v), part.multiplicity, v.degree)
        for part in factor_tn_minus_1(spec.field, n).parts
        for v in part.factors
        if spec.omega.mark(v)
    ]
    return sorted(rows, key=lambda row: row[0].poly)
