"""System specifications and exact periodic-point counts.

A system is determined by the prime p together with an omega source that
assigns each finite place v != t a 0/1 mark; mark 1 means the place is
inverted, so its valuation of t**n - 1 enters the count:

    log_p |F_n| = n - sum over marked v of ord_v(t**n - 1) * deg(v).

With n = n' * p**k and p not dividing n', t**n - 1 = (t**n' - 1)**(p**k)
and t**n' - 1 is squarefree, so every marked factor has multiplicity p**k:

    e_n = n - p**k * M(n'),

M(n') being the total degree of the marked factors of t**n' - 1.  Per mode:

    all-one   every factor is marked: M = n', and nothing is factored;
    random    M = sum over d | n' of D(d), D(d) the degree of the marked
              factors of the cyclotomic pi_d;
    explicit  the places v with t**n' = 1 mod v, one modular power each
              (Lidl & Niederreiter, Finite Fields, Sec. 3.1);
    all-zero  the explicit rule with no places: M = 0.

e_n is a plain int throughout, and a point of the sequence is the pair
(n, e_n) that limitset.cluster_limits reads.  periodic_exponent answers
one n.  periodic_exponents fills e_1..e_N at once from a table of M(n')
for every n' <= N coprime to p.  t**n' - 1 is the product of the pi_d
with d | n', and the irreducible factors of pi_d are exactly the places
of order d, so M(n') = sum over d | n' of D(d) with D(d) the degree of
the marked places of order d.  Random marks give D(d) from the factors
of pi_d, each marked once; each explicit place adds its degree at its
order, found once up to N (orders._order_at_most), and a place of order
above N marks nothing.  D(d) is then added to every
multiple of d, a divisor sieve of about N log N additions.  Asking each n
in turn would mark the factors of pi_d again, or test each explicit place
again, for every n.

Mark sources: all-zero (full shift on p symbols), all-one (trivial system,
one point per period), an explicit finite set of places, or i.i.d. random
marks.  Random marks are a pure function of (seed, canonical encoding of
the place): a keyed 64-bit hash draw is compared against the threshold
floor((1 - rho) * 2**64), which is the single rounding applied to the
exact rational rho.  P(mark = 0) = rho, matching the convention that
rho = 1 gives the full shift.
"""

import functools
from _blake2 import blake2b  # hashlib.blake2b itself, without OpenSSL's _hashlib
from fractions import Fraction
from typing import NamedTuple

from . import intmath
from .cyclofactor import _check_work, _cyclotomic_factors, factor_work
from .ffpoly import Poly, PrimeField, is_irreducible
from .orders import _divides_t_power_minus_1, _order_at_most, _validate_n

_MARK_SCALE = 2**64


def _check_markable(v: Poly):
    if v.is_zero or v.degree < 1:
        raise ValueError("marks are defined only for nonconstant polynomials")
    if not v.is_monic:
        raise ValueError(f"marks are defined only for monic polynomials: got {v}")
    if v.degree == 1 and v.constant_term == 0:  # v is t, tested without building t
        raise ValueError("the place t is excluded from the mark field")


def _place_key(v: Poly) -> bytes:
    code = v.code
    return v.field.p.to_bytes(4, "big") + code.to_bytes((code.bit_length() + 7) // 8, "big")


class OmegaSource:
    """Assignment of 0/1 marks to the finite places other than t; immutable,
    equal and hashed by (mode, places, rho, seed)."""

    _MODES = ("all_zero", "all_one", "explicit", "random")

    def __init__(self, mode: str, places: frozenset[Poly] = frozenset(),
                 rho: Fraction | None = None, seed: int | None = None):
        self.__dict__.update(mode=mode, places=places, rho=rho, seed=seed)
        if self.mode not in self._MODES:
            raise ValueError(f"unknown omega mode {self.mode!r}")
        if self.places and self.mode != "explicit":
            raise ValueError(f"{self.mode} marks take no places")
        for v in self.places:
            _check_markable(v)
            if not is_irreducible(v):
                raise ValueError(f"explicit place must be irreducible: got {v}")
        if self.mode == "random":
            if self.rho is None or not 0 < self.rho < 1:
                raise ValueError(f"rho must be a rational in (0, 1): got {self.rho}")
            if self.seed is None or not 0 <= self.seed < 2**64:
                raise ValueError(f"seed must be a 64-bit integer: got {self.seed}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self.mode, self.places, self.rho, self.seed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"OmegaSource(mode={self.mode!r}, places={self.places!r}, "
                f"rho={self.rho!r}, seed={self.seed!r})")

    @classmethod
    def all_zero(cls) -> "OmegaSource":
        return cls("all_zero")

    @classmethod
    def all_one(cls) -> "OmegaSource":
        return cls("all_one")

    @classmethod
    def explicit(cls, places) -> "OmegaSource":
        return cls("explicit", places=frozenset(places))

    @classmethod
    def random_marks(cls, rho, seed: int) -> "OmegaSource":
        return cls("random", rho=Fraction(rho), seed=seed)

    def mark(self, v: Poly) -> int:
        _check_markable(v)
        return self._mark(v)

    def _mark(self, v: Poly) -> int:
        # mark without the check, for the factors of pi_d, which are monic
        # of degree >= 1 by the split's final check and never t (t does not
        # divide pi_d)
        if self.mode == "all_one":
            return 1
        if self.mode == "random":
            digest = blake2b(_place_key(v), digest_size=8, key=self._key).digest()
            return 1 if int.from_bytes(digest, "big") < self._threshold else 0
        return 1 if v in self.places else 0  # all-zero has no places

    @functools.cached_property
    def _threshold(self) -> int:
        # floor((1 - rho) * 2**64), the one rounding of rho (random mode)
        return (_MARK_SCALE * (self.rho.denominator - self.rho.numerator)) // self.rho.denominator

    @functools.cached_property
    def _key(self) -> bytes:
        return self.seed.to_bytes(8, "big")


class SystemSpec(NamedTuple):
    """Prime field plus omega source; fully determines |F_n| for every n."""

    field: PrimeField
    omega: OmegaSource
    label: str = ""


def full_shift(field: PrimeField) -> SystemSpec:
    """No place inverted: the full shift on p symbols, |F_n| = p**n."""
    return SystemSpec(field, OmegaSource.all_zero(), "full")


def trivial_system(field: PrimeField) -> SystemSpec:
    """Every place inverted: |F_n| = 1 for all n."""
    return SystemSpec(field, OmegaSource.all_one(), "trivial")


def example85_system(field: PrimeField) -> SystemSpec:
    """Only t - 1 inverted: growth rates accumulate at (1 - 1/q) log p."""
    return SystemSpec(field, OmegaSource.explicit([field.poly([-1, 1])]), "example85")


_PRESETS = {"full": full_shift, "trivial": trivial_system, "example85": example85_system}
PRESET_NAMES = tuple(_PRESETS)


def preset_system(field: PrimeField, name: str) -> SystemSpec:
    try:
        return _PRESETS[name](field)
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}") from None


def random_system(field: PrimeField, rho, seed: int) -> SystemSpec:
    omega = OmegaSource.random_marks(rho, seed)
    return SystemSpec(field, omega, f"random(rho={omega.rho}, seed={seed})")


def _random_marked_degree(omega: OmegaSource, p: int, d: int) -> int:
    # D(d): the degree of the factors of pi_d that random marks mark
    return sum(v.degree for v in _cyclotomic_factors(p, d) if omega._mark(v))


def _marked_degree(spec: SystemSpec, n_coprime: int) -> int:
    # M(n'), the degree of the marked factors of t**n' - 1 (n' coprime to p)
    omega, p = spec.omega, spec.field.p
    if omega.mode == "all_one":
        return n_coprime
    if omega.mode == "random":
        return sum(_random_marked_degree(omega, p, d) for d in intmath.divisors(n_coprime))
    return sum(v.degree for v in omega.places if _divides_t_power_minus_1(v, n_coprime))


def _exponent(n: int, p_power: int, marked: int) -> int:
    e = n - p_power * marked
    if not 0 <= e <= n:
        raise ArithmeticError(f"periodic exponent out of range: n={n}, e={e}")
    return e


def periodic_exponent(spec: SystemSpec, n: int) -> int:
    """e_n, the int with |F_n| = p**e_n: n - p**k * (marked degree of t**n' - 1).
    Random marks split every pi_d with d | n', as factoring t**n - 1 does,
    so they are refused with ValueError when factor_work(p, n) >
    cyclofactor.MAX_FACTOR_WORK, before any pi_d is built."""
    _validate_n(n)
    p = spec.field.p
    if spec.omega.mode == "random":
        _check_work("count: factor_work(p, n)", factor_work(p, n))
    n_coprime, k = intmath.coprime_part(n, p)
    return _exponent(n, p**k, _marked_degree(spec, n_coprime))


def _marked_degrees(spec: SystemSpec, max_n: int) -> list[int]:
    # M(n') at index n' for every n' <= max_n coprime to p; the entries at
    # multiples of p are never read
    omega, p = spec.omega, spec.field.p
    if omega.mode == "all_one":
        return list(range(max_n + 1))
    by_order = [0] * (max_n + 1)  # D(d) at index d
    if omega.mode == "random":
        for d in range(1, max_n + 1):
            if d % p:
                by_order[d] = _random_marked_degree(omega, p, d)
    for v in omega.places:
        order = _order_at_most(v, max_n)
        if order:
            by_order[order] += v.degree
    marked = [0] * (max_n + 1)
    for d, degree in enumerate(by_order):
        if degree:
            for m in range(d, max_n + 1, d):
                marked[m] += degree
    return marked


def periodic_exponents(spec: SystemSpec, max_n: int) -> list[int]:
    """e_1..e_max_n (e_n at index n - 1), equal to periodic_exponent(spec,
    n) for each n, with each marked factor found once (module docstring).
    Allocates O(max_n) up front."""
    _validate_n(max_n)
    p = spec.field.p
    marked = _marked_degrees(spec, max_n)
    exponents = [0] * max_n
    for m in range(1, max_n + 1):
        if m % p:
            # e_(m p**k) = p**k * e_m, in range exactly when e_m is
            e, n = _exponent(m, 1, marked[m]), m
            while n <= max_n:
                exponents[n - 1] = e
                e, n = e * p, n * p
    return exponents


def periodic_count(spec: SystemSpec, n: int) -> int:
    """|F_n| = p**e, exact."""
    return spec.field.p ** periodic_exponent(spec, n)
