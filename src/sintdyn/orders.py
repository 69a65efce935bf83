"""Multiplicative orders of integers and polynomials, and the exact
multiplicity of an irreducible in t**n - 1.

A monic irreducible v != t divides t**m - 1 exactly when t**m = 1 mod v
(Lidl & Niederreiter, Finite Fields, Sec. 3.1).  _divides_t_power_minus_1
decides it with at most one modular power of about log2(m) squarings: the
order of v divides p**deg(v) - 1, so m is first reduced to its gcd with that
number, and a gcd of 1 leaves only v = t - 1.  _order_at_most finds the
order of v up to a bound N by asking at each divisor m <= N of
p**deg(v) - 1 in ascending order: each such m is the gcd reached at n = m,
so it takes no more powers than asking every n <= N.  ord_in_tn_minus_1
uses the decomposition n = n' * p**e: since t**n - 1 =
(t**n' - 1)**(p**e) and t**n' - 1 is squarefree, the multiplicity of v is
p**e when t**n' = 1 mod v and 0 otherwise.  ord_brute is the independent
repeated-division oracle guarding that rule.

The order of a polynomial g with g(0) != 0 is the least e with g | t**e - 1
(poly_order).  For irreducible v of degree m it divides p**m - 1 and is
found by factoring that group order and dividing out its prime factors
while the power stays 1, the same descent multiplicative_order runs from
the Carmichael exponent; for a power v**b it is order(v) * p**d with d
minimal such that p**d >= b (the standard order-of-a-power rule for finite
fields); orders of coprime parts combine by lcm.  Factoring p**m - 1 is
Pollard rho on an integer of m log2(p) bits, whose cost grows with its
second-largest prime factor: at p = 2, poly_order of 1 + t + ... + t**268
took 2.3 s and that of 1 + t + ... + t**316 did not finish in 40 s (x86-64,
Python 3.11).  Only poly_order pays it.
"""

import functools
import math

from . import intmath
from .ffpoly import Poly, factorize, is_irreducible, poly_divmod, poly_powmod

_N_LIMIT = 2**31 - 1


def _order_descent(group: int, is_one) -> int:
    # the order of an element x whose order divides group: start from group
    # and divide out each prime q of it while is_one(e // q), i.e. x**(e/q) = 1
    order = group
    for q in intmath.factorint(group):
        while order % q == 0 and is_one(order // q):
            order //= q
    return order


def multiplicative_order(a: int, m: int) -> int:
    """Least r >= 1 with a**r = 1 mod m; requires gcd(a, m) = 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2: got {m}")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"multiplicative order needs gcd(a, m) = 1: got a={a}, m={m}")
    return _order_descent(intmath.carmichael_lambda(m), lambda e: pow(a, e, m) == 1)


def _divides_t_power_minus_1(v: Poly, m: int) -> bool:
    # v | t**m - 1 exactly when t**m = 1 mod v (v monic irreducible, v != t).
    # The order of t mod v divides p**deg(v) - 1, so m shrinks to its gcd
    # with that number; at 1 only t - 1 divides, with no modular power.
    p = v.field.p
    m = math.gcd(m, pow(p, v.degree, m) - 1)
    if m == 1:
        return v.coeffs == (p - 1, 1)
    return poly_powmod(v.field.t, m, v) == v.field.one


def _order_at_most(v: Poly, bound: int) -> int | None:
    # the order of t mod v (v monic irreducible, v != t) when it is at most
    # bound, else None: the least divisor m of p**deg(v) - 1 with
    # t**m = 1 mod v.  The divisibility is tested as p**deg(v) = 1 mod m,
    # whose cost hardly grows with the degree, where (p**deg(v) - 1) % m does
    p, degree = v.field.p, v.degree
    return next(
        (m for m in range(1, bound + 1)
         if pow(p, degree, m) == 1 % m and _divides_t_power_minus_1(v, m)),
        None,
    )


@functools.lru_cache(maxsize=None)
def _irreducible_order(v: Poly) -> int:
    # order of t in the field F_p[t]/<v>; divides p**deg(v) - 1, which is
    # factored with Pollard rho (see the module docstring for its cost)
    t, one = v.field.t, v.field.one
    return _order_descent(v.field.p**v.degree - 1, lambda e: poly_powmod(t, e, v) == one)


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
    return p**e if _divides_t_power_minus_1(v, n_coprime) else 0


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
