"""Places of the rational function field F_p(t) and their exact valuations.

A place is either the infinite place or a monic irreducible polynomial v;
the absolute value of f = num/den at a place is p**(-e) where e is the
integer exponent returned by valuation_exponent:

  finite v:  e = (ord_v(num) - ord_v(den)) * deg(v)
  infinite:  e = deg(den) - deg(num)

With these normalizations the exponents at all places of any nonzero f
sum to zero (the product formula).
"""

from dataclasses import dataclass

from .ffpoly import Poly, PrimeField, factorize, is_irreducible
from .orders import ord_brute


@dataclass(frozen=True)
class Place:
    """The infinite place (poly=None) or a finite place given by a monic
    irreducible polynomial."""

    poly: Poly | None = None

    def __post_init__(self):
        v = self.poly
        if v is None:
            return
        if v.is_zero or v.degree < 1:
            raise ValueError("a finite place needs a nonconstant polynomial")
        if not v.is_monic:
            raise ValueError(f"finite place polynomial must be monic: got {v}")
        if not is_irreducible(v):
            raise ValueError(f"finite place polynomial must be irreducible: got {v}")

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, v: Poly) -> "Place":
        return cls(v)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        if self.poly is None:
            raise ValueError("the infinite place has no polynomial degree")
        return self.poly.degree

    def to_json(self) -> dict:
        if self.poly is None:
            return {"kind": "infinite"}
        return {"kind": "finite", "poly": self.poly.to_json()}

    @classmethod
    def from_json(cls, field: PrimeField, obj: dict) -> "Place":
        if obj["kind"] == "infinite":
            return cls(None)
        if obj["kind"] == "finite":
            return cls(field.poly(obj["poly"]))
        raise ValueError(f"unknown place kind {obj.get('kind')!r}")

    def __str__(self):
        return "infinity" if self.poly is None else str(self.poly)


def enumerate_places(field: PrimeField, max_degree: int) -> list[Place]:
    """The infinite place, then t, then every other monic irreducible of
    degree <= max_degree ordered by (degree, canonical code).

    The list position i corresponds to index i - 1 in the standard labeling
    that starts the count at -1 for the infinite place and 0 for t.
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be positive: got {max_degree}")
    p = field.p
    t = field.t
    places = [Place.infinite(), Place.finite(t)]
    for degree in range(1, max_degree + 1):
        lead = field.monomial(degree)
        for low_code in range(p**degree):
            v = field.from_code(low_code) + lead
            if v == t:
                continue
            if is_irreducible(v):
                places.append(Place.finite(v))
    return places


def valuation_exponent(place: Place, numerator: Poly, denominator: Poly) -> int:
    """Exact exponent e with |numerator/denominator| = p**(-e) at the place."""
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
    place dividing numerator or denominator.  Always 0 for valid input."""
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
