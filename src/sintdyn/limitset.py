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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import intmath
from .cyclofactor import _cyclotomic_factors, cyclotomic_poly
from .ffpoly import PrimeField, is_irreducible, poly_gcd
from .orders import multiplicative_order, ord_brute, ord_in_tn_minus_1
from .system import OmegaSource, SystemSpec, periodic_exponent


class GrowthPoint(NamedTuple):
    """Period n, exponent e = log_p |F_n|, and the exact rate e/n."""

    n: int
    e: int
    rate: Fraction


class ConstructionRejected(ValueError):
    """The requested (p, q, nj) triple fails a precondition."""


@dataclass(frozen=True)
class ConstructionReport:
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
        return {
            "p": self.p,
            "q": self.q,
            "nj": self.nj,
            "pi_irreducible": self.pi_irreducible,
            "multiplicity_in_qnj": self.multiplicity_in_qnj,
            "qnj_split_count": self.qnj_split_count,
            "qnj_min_factor_degree": self.qnj_min_factor_degree,
            "e_qnj": self.e_qnj,
            "b_exponent": self.b_exponent,
            "rate_gap": {"num": self.rate_gap.numerator, "den": self.rate_gap.denominator},
            "marked_t_minus_1": self.marked_t_minus_1,
            "checks": dict(self.checks),
            "pass": self.all_checks_pass,
        }


def growth_sequence(spec: SystemSpec, max_n: int) -> list[GrowthPoint]:
    """Exact growth points (n, e_n, e_n/n) for every n up to max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be positive: got {max_n}")
    out = []
    for n in range(1, max_n + 1):
        e = periodic_exponent(spec, n).e
        out.append(GrowthPoint(n, e, Fraction(e, n)))
    return out


def example85_reference(field: PrimeField, q_bound: int) -> set[Fraction]:
    """The limit rate set {1 - 1/q : q <= q_bound, p does not divide q}
    together with 1, in units of log p."""
    if q_bound < 1:
        raise ValueError(f"q_bound must be positive: got {q_bound}")
    rates = {Fraction(1)}
    for q in range(1, q_bound + 1):
        if q % field.p:
            rates.add(1 - Fraction(1, q))
    return rates


def cluster_limits(
    points: list[GrowthPoint], epsilon, tail_fraction=Fraction(1)
) -> list[tuple[Fraction, int]]:
    """Empirical limit-point candidates: restrict to the trailing
    tail_fraction of the sequence, greedily merge rates within epsilon of
    the lowest rate in the cluster, and report (median rate, support count)
    sorted ascending.  Deterministic; an empirical stand-in only."""
    epsilon = Fraction(epsilon)
    tail_fraction = Fraction(tail_fraction)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive: got {epsilon}")
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must be in (0, 1]: got {tail_fraction}")
    tail_size = int(len(points) * tail_fraction)
    if tail_size < 1:
        raise ValueError("the requested tail is empty")
    rates = sorted(gp.rate for gp in points[len(points) - tail_size :])
    clusters: list[list[Fraction]] = []
    for rate in rates:
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


def artin_primes(field: PrimeField, bound: int) -> list[int]:
    """Primes q <= bound (q != p) with p a primitive root mod q, ascending."""
    if bound < 3:
        raise ValueError(f"bound must be at least 3: got {bound}")
    p = field.p
    return [
        q
        for q in intmath.primes_upto(bound)
        if q != p and multiplicative_order(p, q) == q - 1
    ]


def _construction_preconditions(p: int, q: int, nj: int):
    if not intmath.is_prime(p):
        raise ConstructionRejected(f"p = {p} is not prime")
    if not intmath.is_prime(q):
        raise ConstructionRejected(f"q = {q} is not prime")
    if not intmath.is_prime(nj):
        raise ConstructionRejected(f"nj = {nj} is not prime")
    if q == p:
        raise ConstructionRejected(f"q must differ from p: got q = p = {p}")
    if nj == p:
        raise ConstructionRejected(f"nj must differ from p: got nj = p = {p}")
    if nj <= q:
        raise ConstructionRejected(f"nj must exceed q: got nj = {nj}, q = {q}")
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
    never raised.
    """
    _construction_preconditions(p, q, nj)
    field = PrimeField(p)
    checks: list[tuple[str, bool]] = []

    pi = field.poly([1] * nj)
    pi_irreducible = is_irreducible(pi)
    checks.append(("pi_irreducible", pi_irreducible))

    target = q * nj
    tn = field.tn_minus_1(target)
    mult_brute = ord_brute(pi, tn)
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

    marked = {pi}
    fixed_contribution = 0
    if mark_t_minus_1:
        marked.add(field.poly([-1, 1]))
        fixed_contribution = 1
    spec = SystemSpec(field, OmegaSource.explicit(marked), f"construction(q={q}, nj={nj})")
    e_qnj = periodic_exponent(spec, target).e
    e_direct = target - sum(ord_brute(v, tn) * v.degree for v in marked)
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
