"""Multiplicative orders of integers and polynomials, and the exact
multiplicity of an irreducible in t**n - 1.

The order of a polynomial g with g(0) != 0 is the least e with g | t**e - 1.
For irreducible v of degree m it divides p**m - 1 and is found by factoring
that group order and descending through its prime factors; for a power
v**b it is order(v) * p**d with d minimal such that p**d >= b (the standard
order-of-a-power rule for finite fields); orders of coprime parts combine
by lcm.

ord_in_tn_minus_1 uses the decomposition n = n' * p**e: since t**n - 1 =
(t**n' - 1)**(p**e) and t**n' - 1 is squarefree, the multiplicity of v is
p**e when order(v) divides n' and 0 otherwise.  ord_brute is the
independent repeated-division oracle guarding that rule.
"""

import functools
import math

from . import intmath
from .ffpoly import Poly, factorize, is_irreducible, poly_divmod, poly_powmod

_N_LIMIT = 2**31 - 1


def multiplicative_order(a: int, m: int) -> int:
    """Least r >= 1 with a**r = 1 mod m; requires gcd(a, m) = 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2: got {m}")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"multiplicative order needs gcd(a, m) = 1: got a={a}, m={m}")
    order = intmath.carmichael_lambda(m)
    for q in intmath.factorint(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


@functools.lru_cache(maxsize=None)
def _irreducible_order(v: Poly) -> int:
    # order of t in the field F_p[t]/<v>; divides p**deg(v) - 1
    field = v.field
    p = field.p
    group = p**v.degree - 1
    t = field.t
    one = field.one
    order = group
    for q in intmath.factorint(group):
        while order % q == 0 and poly_powmod(t, order // q, v) == one:
            order //= q
    return order


def poly_order(g: Poly) -> int:
    """Least e >= 1 with g dividing t**e - 1; requires g(0) != 0, deg g >= 1."""
    if g.is_zero or g.degree < 1:
        raise ValueError("poly_order expects a nonconstant polynomial")
    if g.constant_term == 0:
        raise ValueError("poly_order requires g(0) != 0")
    p = g.field.p
    result = 1
    for v, b in factorize(g):
        e = _irreducible_order(v)
        if b > 1:
            pd = 1
            while pd < b:
                pd *= p
            e *= pd
        result = math.lcm(result, e)
    return result


def _validate_n(n: int):
    if not 1 <= n <= _N_LIMIT:
        raise ValueError(f"n must be in [1, 2**31 - 1]: got {n}")


def ord_in_tn_minus_1(v: Poly, n: int) -> int:
    """Exact multiplicity of the monic irreducible v (v != t) in t**n - 1."""
    _validate_n(n)
    if v.is_zero or v.degree < 1:
        raise ValueError("expected a nonconstant polynomial")
    if v == v.field.t:
        raise ValueError("the place t never divides t**n - 1")
    if not (v.is_monic and is_irreducible(v)):
        raise ValueError(f"expected a monic irreducible polynomial: got {v}")
    p = v.field.p
    n_coprime, e = intmath.coprime_part(n, p)
    if n_coprime % _irreducible_order(v) == 0:
        return p**e
    return 0


def ord_brute(v: Poly, f: Poly) -> int:
    """Multiplicity of v in f by repeated exact division (oracle)."""
    if f.is_zero:
        raise ValueError("multiplicity in the zero polynomial is undefined")
    if v.is_zero or v.degree < 1:
        raise ValueError("expected a nonconstant divisor")
    count = 0
    while True:
        q, r = poly_divmod(f, v)
        if not r.is_zero:
            return count
        count += 1
        f = q
