"""Growth-rate sequences, empirical limit points, Artin primes, and the
mechanical verification of the cyclotomic limit-point construction.

Growth rates are kept as exact rationals e_n / n in units of log p, so
every statement below is an exact integer/rational assertion; log p enters
only at presentation time.

verify_construction checks, for an Artin prime nj of p and a prime q not
equal to p, the chain that produces the limit point (1 - 1/q) log p:
the polynomial 1 + t + ... + t**(nj-1) is irreducible, its multiplicity in
t**(q nj) - 1 is exactly one (fast rule and brute oracle), the cyclotomic
of index q*nj splits into at most q-1 irreducibles of degree at least
nj - 1, and the system inverting exactly that polynomial has
e = q*nj - (nj - 1), so the rate misses (q-1)/q by exactly 1/(q*nj).
Empirical clustering can never certify membership in the limit set; it is
labeled as empirical in all outputs.
"""

import math
from array import array
from fractions import Fraction
from itertools import compress, repeat
from operator import ne
from typing import NamedTuple

from . import intmath
from ._kernel import _fp
from .cyclofactor import _check_work, _cyclotomic_factors, cyclotomic_poly, factor_work
from .ffpoly import PrimeField, is_irreducible, poly_gcd
from .orders import multiplicative_order, ord_brute, ord_in_tn_minus_1
from .system import OmegaSource, SystemSpec, periodic_exponent, periodic_exponents


class GrowthPoint(NamedTuple):
    """Period n, exponent e = log_p |F_n|, and the exact rate e/n."""

    n: int
    e: int
    rate: Fraction


class ConstructionRejected(ValueError):
    """The requested (p, q, nj) triple fails a precondition."""


class ConstructionReport(NamedTuple):
    """Outcome of one run of verify_construction with per-check flags."""

    p: int
    q: int
    nj: int
    pi_irreducible: bool
    multiplicity_in_qnj: int
    qnj_split_count: int
    qnj_min_factor_degree: int
    e_qnj: int
    b_exponent: int
    rate_gap: Fraction
    marked_t_minus_1: bool
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]

    def to_json(self) -> dict:
        doc = self._asdict()
        doc["rate_gap"] = {"num": self.rate_gap.numerator, "den": self.rate_gap.denominator}
        doc["checks"] = dict(self.checks)
        doc["pass"] = self.all_checks_pass
        return doc


def growth_sequence(spec: SystemSpec, max_n: int) -> list[GrowthPoint]:
    """Exact growth points (n, e_n, e_n/n) for every n up to max_n."""
    intmath.require_positive("max_n", max_n)
    exponents = periodic_exponents(spec, max_n)
    return [GrowthPoint(n, e, Fraction(e, n)) for n, e in enumerate(exponents, 1)]


# larger requests are refused: at these limits (a 2-vCPU x86-64 host,
# Python 3.11) the artin command takes 2.3-3.3 s with start-up at p = 3 and
# 1.1-1.4 s at p = 2, and peaks at 43 MB (VmHWM; probed 2026-10-20) for its
# flag byte per integer, its least-prime-factor table and its list of Artin
# primes, and example85_rates 0.9 s and 61 MB for its 500,001 Fractions
MAX_ARTIN_BOUND = 10**7
MAX_Q_BOUND = 10**6
# at odd p the Euler pass of artin_primes tests the odd primes in blocks of
# this many odd integers, so that no list of every prime below the bound is
# held
_EULER_BLOCK = 1 << 16


def example85_rates(field: PrimeField, q_bound: int) -> list[Fraction]:
    """The limit rates 1 - 1/q = (q - 1)/q for q <= q_bound not divisible
    by p, then 1, in units of log p: ascending, as 1 - 1/q ascends with q.
    q_bound > MAX_Q_BOUND (10**6) is refused with ValueError before any work
    starts."""
    intmath.require_positive("q_bound", q_bound)
    intmath.require_at_most("example85: q_bound", q_bound, MAX_Q_BOUND)
    return [Fraction(q - 1, q) for q in range(1, q_bound + 1) if q % field.p] + [Fraction(1)]


def cluster_limits(points, epsilon, tail_fraction=Fraction(1)) -> list[tuple[Fraction, int]]:
    """Empirical limit-point candidates: restrict to the trailing
    tail_fraction of the sequence, greedily merge rates within epsilon of
    the lowest rate in the cluster, and report (median rate, support count)
    sorted ascending.  Deterministic; an empirical stand-in only.

    A point is read only for its first two items, the integers n and e:
    an (n, e) pair or a GrowthPoint.  With L the largest n in the tail, two
    rates e/n != e'/n' differ by at least 1/(n n') >= 1/L**2, so the key
    e * L**2 // n sorts them in rate order, and e/n - e0/n0 <= epsilon is
    tested by cross-multiplication."""
    epsilon = Fraction(epsilon)
    tail_fraction = Fraction(tail_fraction)
    intmath.require_positive("epsilon", epsilon)
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must be in (0, 1]: got {tail_fraction}")
    tail_size = int(len(points) * tail_fraction)
    if tail_size < 1:
        raise ValueError("the requested tail is empty")
    tail = [point[:2] for point in points[len(points) - tail_size :]]
    scale = max(n for n, _ in tail) ** 2
    eps_num, eps_den = epsilon.numerator, epsilon.denominator
    clusters: list[list[tuple[int, int]]] = []
    for n, e in sorted(tail, key=lambda point: point[1] * scale // point[0]):
        if clusters:
            n0, e0 = clusters[-1][0]
            if (e * n0 - e0 * n) * eps_den <= eps_num * n * n0:
                clusters[-1].append((n, e))
                continue
        clusters.append([(n, e)])
    out = []
    for cluster in clusters:
        mid, odd = divmod(len(cluster), 2)
        # the mean of the middle two rates, or the middle rate twice
        (n_lo, e_lo), (n_hi, e_hi) = cluster[mid - 1 + odd], cluster[mid]
        out.append((Fraction(e_lo * n_hi + e_hi * n_lo, 2 * n_lo * n_hi), len(cluster)))
    return out


def artin_primes(field: PrimeField, bound: int) -> list[int]:
    """Primes q <= bound (q != p) with p a primitive root mod q, ascending.

    p is a primitive root mod a prime q != p exactly when
    p**((q-1)/ell) != 1 mod q for every prime ell dividing q - 1 (Lidl &
    Niederreiter, Finite Fields, Sec. 3.1), since a proper divisor of
    q - 1 divides some (q-1)/ell.  q = 2 has no ell and is kept for odd p,
    as ord_2(p) = 1.  ell = 2 divides q - 1 for every odd prime q, so it
    is tested first over all of them.  At p = 2 that test is q mod 8: 2 is
    a square mod q exactly when q = +-1 mod 8 (the second supplement to
    quadratic reciprocity), so those two residue classes are cleared from
    the prime sieve with no modular power.  At odd p it is Euler's test
    p**((q-1)/2) != 1 mod q, in one map of pow per block of the sieve.
    Each survivor then walks the distinct odd primes of (q-1)/2**v, read
    from a table of least prime factors of the odd m <= bound/2, and stops
    at the first ell with p**((q-1)/ell) = 1 mod q.  A bound >
    MAX_ARTIN_BOUND (10**7) is refused with ValueError before any work
    starts; at the limit the artin command takes 1.1-1.4 s with start-up at
    p = 2 and 2.3-3.3 s at p = 3 (probed 2026-10-20)."""
    if bound < 3:
        raise ValueError(f"bound must be at least 3: got {bound}")
    intmath.require_at_most("artin: bound", bound, MAX_ARTIN_BOUND)
    p = field.p
    flags = intmath.prime_flags(bound)
    # the least prime factor of each odd composite m <= (bound-1)/2 at
    # index m >> 1, and 0 at a prime: the odd primes ell <= sqrt of it,
    # descending, each written at its odd multiples from ell**2 on
    top = (bound - 1) // 2
    least = array("H", [0]) * ((top >> 1) + 1)
    root = math.isqrt(top)
    for ell in reversed(list(compress(range(3, root + 1, 2), flags[3 : root + 1 : 2]))):
        start = ell * ell >> 1
        least[start::ell] = array("H", [ell]) * len(range(start, len(least), ell))
    if p <= bound:
        flags[p] = 0
    out = [2] if flags[2] else []
    if p == 2:  # 2 is a square mod q exactly when q = +-1 mod 8
        for residue in (1, 7):
            flags[residue::8] = bytes(len(range(residue, bound + 1, 8)))
        survivors = compress(range(3, bound + 1, 2), memoryview(flags)[3::2])  # not a copy
    else:
        survivors = _euler_survivors(p, flags, bound)
    for q in survivors:
        m = q >> 1
        m >>= (m & -m).bit_length() - 1  # the odd part of q - 1
        while m > 1:
            ell = least[m >> 1] or m
            if pow(p, (q - 1) // ell, q) == 1:
                break
            m //= ell
            while not m % ell:
                m //= ell
        else:
            out.append(q)
    return out


def _euler_survivors(p: int, flags: bytearray, bound: int):
    # the odd primes q <= bound marked in flags with p**((q-1)/2) != 1 mod q,
    # ascending, by one map of pow per block of the sieve
    for start in range(3, bound + 1, 2 * _EULER_BLOCK):
        stop = min(start + 2 * _EULER_BLOCK, bound + 1)
        block = flags[start:stop:2]
        qs = list(compress(range(start, stop, 2), block))
        halves = compress(range(start >> 1, stop >> 1), block)  # (q - 1) / 2 for each q
        yield from compress(qs, map(ne, map(pow, repeat(p), halves, qs), repeat(1)))


def verify_work(p: int, q: int, nj: int) -> int:
    """The cost of verify_construction(p, q, nj) in the units of
    MAX_FACTOR_WORK: the split of pi_{q nj}, factor_work(p, q * nj), plus
    the Rabin test of pi = 1 + t + ... + t**(nj-1), which takes m = nj - 1
    Frobenius steps modulo pi.  At p = 2 a step squares and reduces a
    2m-bit int, 96 * nj**2 in all.  At odd p a step is at most
    2 * bit_length(p) products mod pi, each a long division of m steps on
    m slots of w bits, w = _fp._width(2 * nj * (p - 1)**2) the kernel's slot
    width: 2 * bit_length(p) * m**2 * (8192 + m * w // 2),
    which grows about as nj**2.5 at small p."""
    work = factor_work(p, q * nj)
    if p == 2:
        return work + 96 * nj * nj
    m = nj - 1
    w = _fp._width(2 * nj * (p - 1) ** 2)
    return work + 2 * p.bit_length() * m * m * (8192 + m * w // 2)


def _construction_preconditions(p: int, q: int, nj: int):
    for name, value in (("p", p), ("q", q), ("nj", nj)):
        if not intmath.is_prime(value):
            raise ConstructionRejected(f"{name} = {value} is not prime")
    if q == p:
        raise ConstructionRejected(f"q must differ from p: got q = p = {p}")
    if nj == p:
        raise ConstructionRejected(f"nj must differ from p: got nj = p = {p}")
    if nj <= q:
        raise ConstructionRejected(f"nj must exceed q: got nj = {nj}, q = {q}")
    _check_work("verify: verify_work(p, q, nj)", verify_work(p, q, nj))
    order = multiplicative_order(p, nj)
    if order != nj - 1:
        raise ConstructionRejected(
            f"{nj} is not an Artin prime for {p}: ord_{nj}({p}) = {order} != {nj - 1}"
        )


def verify_construction(
    p: int, q: int, nj: int, mark_t_minus_1: bool = False
) -> ConstructionReport:
    """Mechanically check the construction of the limit point (1 - 1/q) log p
    at the time q * nj.

    By default only 1 + t + ... + t**(nj-1) is inverted, which pins the
    count to exactly p**((q-1) nj + 1); with mark_t_minus_1 the fixed place
    t - 1 is inverted as well, lowering the exponent offset to 0.  Both
    keep the rate within 1/nj of (q - 1)/q.  Precondition failures raise
    ConstructionRejected; a failed check is reported in the returned flags,
    never raised.  Once p, q and nj are known to be primes with q, nj != p
    and nj > q, verify_work(p, q, nj) > cyclofactor.MAX_FACTOR_WORK is
    refused with ValueError before any other work starts.
    """
    _construction_preconditions(p, q, nj)
    field = PrimeField(p)
    checks: list[tuple[str, bool]] = []

    pi = field.poly([1] * nj)
    pi_irreducible = is_irreducible(pi)
    checks.append(("pi_irreducible", pi_irreducible))

    marked = {pi}
    fixed_contribution = 0
    if mark_t_minus_1:
        marked.add(field.poly([-1, 1]))
        fixed_contribution = 1
    target = q * nj
    tn = field.tn_minus_1(target)
    mult_brute_of = {v: ord_brute(v, tn) for v in marked}
    mult_brute = mult_brute_of[pi]
    mult_fast = ord_in_tn_minus_1(pi, target) if pi_irreducible else mult_brute
    checks.append(("multiplicity_one", mult_fast == 1 and mult_brute == 1))

    qnj_factors = _cyclotomic_factors(p, target)
    split_count = len(qnj_factors)
    min_degree = min(v.degree for v in qnj_factors)
    checks.append(("split_count", split_count <= q - 1))
    checks.append(("min_factor_degree", min_degree >= nj - 1))
    # the split is squarefree by construction, so test pi itself
    pi_qnj = cyclotomic_poly(field, target)
    checks.append(("squarefree", poly_gcd(pi_qnj, pi_qnj.derivative()).degree == 0))

    spec = SystemSpec(field, OmegaSource.explicit(marked), f"construction(q={q}, nj={nj})")
    e_qnj = periodic_exponent(spec, target)
    e_direct = target - sum(m * v.degree for v, m in mult_brute_of.items())
    checks.append(("exponent_consistent", e_qnj == e_direct))
    checks.append(("exponent_value", e_qnj == target - (nj - 1) - fixed_contribution))

    b_exponent = e_qnj - (q - 1) * nj
    checks.append(("b_exponent", b_exponent == 1 - fixed_contribution and 0 <= b_exponent <= 1))

    rate_gap = Fraction(abs(e_qnj - (q - 1) * nj), target)
    checks.append(("rate_gap", rate_gap <= Fraction(1, nj)))

    return ConstructionReport(
        p=p,
        q=q,
        nj=nj,
        pi_irreducible=pi_irreducible,
        multiplicity_in_qnj=mult_fast,
        qnj_split_count=split_count,
        qnj_min_factor_degree=min_degree,
        e_qnj=e_qnj,
        b_exponent=b_exponent,
        rate_gap=rate_gap,
        marked_t_minus_1=mark_t_minus_1,
        checks=tuple(checks),
    )
