"""System specifications and exact periodic-point counts.

A system is determined by the prime p together with an omega source that
assigns each finite place v != t a 0/1 mark; mark 1 means the place is
inverted, so its valuation of t**n - 1 enters the count:

    log_p |F_n| = n - sum over marked v of ord_v(t**n - 1) * deg(v).

With n = n' * p**k and p not dividing n', every factor of the cyclotomic
pi_d (d | n') has multiplicity p**k in t**n - 1, so

    e_n = n - p**k * sum over d | n' of D(d),

D(d) the total degree of the marked factors of pi_d.  All-zero marks none,
an explicit set the places of order d, random marks the factors of pi_d
drawn 1; all-one marks all of them, D(d) = phi(d), and is never factored.

Mark sources: all-zero (full shift on p symbols), all-one (trivial system,
one point per period), an explicit finite set of places, or i.i.d. random
marks.  Random marks are a pure function of (seed, canonical encoding of
the place): a keyed 64-bit hash draw is compared against the threshold
floor((1 - rho) * 2**64), which is the single rounding applied to the
exact rational rho.  P(mark = 0) = rho, matching the convention that
rho = 1 gives the full shift.
"""

import hashlib
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import NamedTuple

from . import intmath
from .cyclofactor import _cyclotomic_factors
from .ffpoly import Poly, PrimeField, is_irreducible
from .orders import _irreducible_order, _validate_n
from .places import Place

_MARK_SCALE = 2**64


def _check_markable(v: Poly):
    if v.is_zero or v.degree < 1:
        raise ValueError("marks are defined only for nonconstant polynomials")
    if not v.is_monic:
        raise ValueError(f"marks are defined only for monic polynomials: got {v}")
    if v == v.field.t:
        raise ValueError("the place t is excluded from the mark field")


def _place_key(v: Poly) -> bytes:
    code = v.code
    return v.field.p.to_bytes(4, "big") + code.to_bytes((code.bit_length() + 7) // 8, "big")


@dataclass(frozen=True)
class OmegaSource:
    """Assignment of 0/1 marks to the finite places other than t."""

    mode: str
    places: frozenset[Poly] = dataclass_field(default=frozenset())
    rho: Fraction | None = None
    seed: int | None = None

    _MODES = ("all_zero", "all_one", "explicit", "random")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown omega mode {self.mode!r}")
        if self.mode == "explicit":
            for v in self.places:
                _check_markable(v)
                if not is_irreducible(v):
                    raise ValueError(f"explicit place must be irreducible: got {v}")
        if self.mode == "random":
            if self.rho is None or not 0 < self.rho < 1:
                raise ValueError(f"rho must be a rational in (0, 1): got {self.rho}")
            if self.seed is None or not 0 <= self.seed < 2**64:
                raise ValueError(f"seed must be a 64-bit integer: got {self.seed}")

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
        if self.mode == "all_zero":
            return 0
        if self.mode == "all_one":
            return 1
        if self.mode == "explicit":
            return 1 if v in self.places else 0
        threshold = (_MARK_SCALE * (self.rho.denominator - self.rho.numerator)) // self.rho.denominator
        digest = hashlib.blake2b(
            _place_key(v), digest_size=8, key=self.seed.to_bytes(8, "big")
        ).digest()
        return 1 if int.from_bytes(digest, "big") < threshold else 0

    def to_json(self) -> dict:
        if self.mode == "explicit":
            return {
                "mode": "explicit",
                "places": [v.to_json() for v in sorted(self.places)],
            }
        if self.mode == "random":
            return {
                "mode": "random",
                "rho": f"{self.rho.numerator}/{self.rho.denominator}",
                "seed": self.seed,
            }
        return {"mode": self.mode}

    @classmethod
    def from_json(cls, field: PrimeField, obj: dict) -> "OmegaSource":
        mode = obj["mode"]
        if mode == "explicit":
            return cls.explicit(field.poly(c) for c in obj["places"])
        if mode == "random":
            return cls.random_marks(Fraction(obj["rho"]), obj["seed"])
        return cls(mode)


@dataclass(frozen=True)
class SystemSpec:
    """Prime field plus omega source; fully determines |F_n| for every n."""

    field: PrimeField
    omega: OmegaSource
    label: str = ""

    def to_json(self) -> dict:
        return {"p": self.field.p, "omega": self.omega.to_json(), "label": self.label}

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        field = PrimeField(obj["p"])
        return cls(field, OmegaSource.from_json(field, obj["omega"]), obj.get("label", ""))


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


def preset_system(field: PrimeField, name: str) -> SystemSpec:
    try:
        return _PRESETS[name](field)
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}") from None


def random_system(field: PrimeField, rho, seed: int, label: str = "") -> SystemSpec:
    spec = OmegaSource.random_marks(rho, seed)
    return SystemSpec(field, spec, label or f"random(rho={spec.rho}, seed={seed})")


class PeriodicExponent(NamedTuple):
    """n together with e = log_p of the number of points of period n."""

    n: int
    e: int


def _marked_factors(spec: SystemSpec, d: int) -> list[Poly]:
    # the marked irreducible factors of pi_d (d coprime to p)
    omega = spec.omega
    if omega.mode == "all_zero":
        return []
    if omega.mode == "explicit":
        # places are irreducible (checked at construction) and an irreducible
        # other than t divides pi_d exactly when its order is d
        return [v for v in omega.places if _irreducible_order(v) == d]
    return [v for v in _cyclotomic_factors(spec.field.p, d) if omega.mark(v)]


def _marked_degree(spec: SystemSpec, d: int) -> int:
    # D(d): pi_d has degree phi(d), all of it marked in the all-one system
    if spec.omega.mode == "all_one":
        return intmath.euler_phi(d)
    return sum(v.degree for v in _marked_factors(spec, d))


def periodic_exponent(spec: SystemSpec, n: int) -> PeriodicExponent:
    """e with |F_n| = p**e: e = n - p**k * sum over d | n' of D(d)."""
    _validate_n(n)
    n_coprime, k = intmath.coprime_part(n, spec.field.p)
    marked = sum(_marked_degree(spec, d) for d in intmath.divisors(n_coprime))
    e = n - spec.field.p**k * marked
    if not 0 <= e <= n:
        raise ArithmeticError(f"periodic exponent out of range: n={n}, e={e}")
    return PeriodicExponent(n, e)


def periodic_count(spec: SystemSpec, n: int) -> int:
    """|F_n| = p**e, exact."""
    return spec.field.p ** periodic_exponent(spec, n).e


def inverted_places_dividing(spec: SystemSpec, n: int) -> list[tuple[Place, int, int]]:
    """The marked places with positive multiplicity in t**n - 1, each with
    its multiplicity and degree (the terms of the exponent sum), sorted
    canonically."""
    _validate_n(n)
    n_coprime, k = intmath.coprime_part(n, spec.field.p)
    mult = spec.field.p**k
    rows = [
        (Place.finite(v), mult, v.degree)
        for d in intmath.divisors(n_coprime)
        for v in _marked_factors(spec, d)
    ]
    return sorted(rows, key=lambda row: row[0].poly)
