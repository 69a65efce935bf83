"""Places of the rational function field F_p(t) and their enumeration.

A place is either the infinite place or a monic irreducible polynomial v;
the absolute value of f = num/den at a place is p**(-e) with

  finite v:  e = (ord_v(num) - ord_v(den)) * deg(v)
  infinite:  e = deg(den) - deg(num)

With these normalizations the exponents at all places of any nonzero f
sum to zero (the product formula); the test oracles compute them and
check that sum.
"""

import itertools
from typing import NamedTuple

from . import _kernel, intmath
from .ffpoly import Poly, PrimeField, is_irreducible


class Place(NamedTuple):
    """The infinite place (poly=None) or a finite place given by a monic
    irreducible polynomial.  Place.finite checks the polynomial; the
    constructor trusts it, for callers that already know it is a monic
    irreducible."""

    poly: Poly | None = None

    @classmethod
    def infinite(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, v: Poly) -> "Place":
        if v.is_zero or v.degree < 1:
            raise ValueError("a finite place needs a nonconstant polynomial")
        if not v.is_monic:
            raise ValueError(f"finite place polynomial must be monic: got {v}")
        if not is_irreducible(v):
            raise ValueError(f"finite place polynomial must be irreducible: got {v}")
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

    def __str__(self):
        return "infinity" if self.poly is None else str(self.poly)


# enumerate_places refuses max_degree with p**max_degree above this: at odd
# p the sieve costs 3-9 microseconds per monic candidate of the top degree
# on the pure kernel (a 2-vCPU x86-64 host, Python 3.11: 0.8 s at p = 3,
# degree 11 and 0.7 s at p = 7, degree 6) and about 0.3 at p = 2 (0.08 s
# at degree 18), and it holds one flag byte per candidate
MAX_CANDIDATES = 2**18


def _candidates(p: int, degree: int):
    # (code - p**degree, coefficients) of every monic v of the given degree
    # with v(0) != 0 and v(1) != 0, ascending code.  Codes ascend with the
    # digits above the lowest one, most significant first, and then with
    # the lowest digit c0 = v(0), which skips 0; v(1) is the digit sum plus
    # the leading 1, mod p.
    for high_index, high in enumerate(itertools.product(range(p), repeat=degree - 1)):
        top = high[::-1] + (1,)
        at_one = -sum(top) % p  # the c0 with v(1) = 0
        for c0 in range(1, p):
            if c0 != at_one:
                yield high_index * p + c0, [c0, *top]


def enumerate_places(field: PrimeField, max_degree: int) -> list[Place]:
    """The infinite place, then t, then every other monic irreducible of
    degree <= max_degree ordered by (degree, canonical code).

    The list position i corresponds to index i - 1 in the standard labeling
    that starts the count at -1 for the infinite place and 0 for t.

    Every t + c with c != 0 is a place.  From degree 2 on the places are
    sieved, one degree d at a time, with no irreducibility test: a monic v
    of degree d is reducible exactly when it has a monic irreducible factor
    of degree <= d/2 (Lidl & Niederreiter, Finite Fields, ch. 3), so every
    product f*g of a place f of degree a <= d/2 and a monic g of degree
    d - a is flagged, and the unflagged candidates are the places of
    degree d.  A candidate v with v(0) = 0 is a multiple of t and one with
    v(1) = 0 a multiple of t - 1; neither is a candidate, so f runs over
    the places other than t and t - 1 and g over the monic polynomials
    with g(0) != 0 and g(1) != 0 (v = f*g has v(0) = f(0)g(0) and
    v(1) = f(1)g(1)).  At p = 2 the sieve runs on packed ints
    (_sieve_f2).  The work is about p**max_degree flag writes and
    products, so a request with p**max_degree > MAX_CANDIDATES (2**18) is
    refused with ValueError before any work starts.
    """
    intmath.require_positive("max_degree", max_degree)
    p = field.p
    # p >= 2, so the degree test settles huge max_degree without the power
    if max_degree >= MAX_CANDIDATES.bit_length() or p**max_degree > MAX_CANDIDATES:
        raise ValueError(
            f"places: p**max_degree must be at most {MAX_CANDIDATES}: "
            f"got {p}**{max_degree}"
        )
    places = [Place.infinite(), Place(field.t)]
    if p == 2:
        return _sieve_f2(field, max_degree, places)
    places.extend(Place(field._wrap([c, 1])) for c in range(1, p))
    # the places other than t and t - 1 up to degree max_degree / 2, as
    # coefficient lists: the sieving factors
    factors = [[c, 1] for c in range(1, p - 1)]
    cofactors = {}  # degree k -> the candidates of degree k, built once
    for degree in range(2, max_degree + 1):
        composite = bytearray(p**degree)  # indexed by code - p**degree
        for f in factors:
            k = degree - len(f) + 1
            if k < degree - k:
                break
            if k not in cofactors:
                cofactors[k] = list(_candidates(p, k))
            for _, g in cofactors[k]:
                v = _kernel.mul(f, g, p)
                index = 0
                for c in reversed(v[:-1]):
                    index = index * p + c
                composite[index] = 1
        for index, v in _candidates(p, degree):
            if not composite[index]:
                places.append(Place(field._wrap(v)))
                if 2 * degree <= max_degree:
                    factors.append(v)
    return places


def _sieve_f2(field: PrimeField, max_degree: int, places: list) -> list[Place]:
    # the sieve on packed ints (code = v, index = v ^ 2**degree); the factors
    # are odd ints (f(0) = 1) of odd weight (f(1) = 1).  f of degree a flags
    # f*g for every g = t**k + ... + 1, k = degree - a, in Gray-code order, so
    # each next product is one xor of a shifted f; a g with g(1) = 0 flags a
    # v with v(1) = 0, which is no candidate
    places.append(Place(field.from_code(3)))  # t + 1
    factors = []
    for degree in range(2, max_degree + 1):
        top = 1 << degree
        composite = bytearray(top)
        for f in factors:
            k = degree - f.bit_length() + 1
            if k < degree - k:
                break
            shifted = [f << j for j in range(k)]
            v = f ^ f << k ^ top
            composite[v] = 1
            for s in range(1, 1 << (k - 1)):  # flips bit 1 + (trailing zeros of s)
                v ^= shifted[(s & -s).bit_length()]
                composite[v] = 1
        for index in range(1, top, 2):  # v(0) = 1, and v(1) = 1 at even weight
            if not composite[index] and not index.bit_count() & 1:
                places.append(Place(field.from_code(index | top)))
                if 2 * degree <= max_degree:
                    factors.append(index | top)
    return places
