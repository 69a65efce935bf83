"""Cyclotomic polynomials mod p and the full factorization of t**n - 1.

Write n = n' * p**e with gcd(n', p) = 1.  Then

    t**n - 1 = prod over divisors d of n' of pi_d ** (p**e),

where pi_d is the d-th cyclotomic polynomial reduced mod p.  Each pi_d
(d >= 2) splits into phi(d)/r distinct irreducibles of equal degree
r = multiplicative order of p mod d.  pi_n is the Moebius product of
(t**d - 1) ** mu(n/d) over d | n, formed over the integers and reduced mod
p once (Lidl & Niederreiter, ch. 3): the t**d - 1 with mu = 1 multiply to
pi_n times the monic t**d - 1 with mu = -1, so dividing those out is exact.
At p = 2 it is formed on the packed int: a product with t**d + 1 is
x ^ (x << d), and the exact quotient by it is x * (1 + t**d + t**(2d) + ...)
cut to the quotient's length, a prefix xor with strides d, 2d, 4d, ...

pi_d is split from the coset sums e_C(t) = sum of t**i over a cyclotomic
coset C = {j, jp, jp**2, ...} of p on Z/d (Berlekamp, Math. Comp. 24,
1970).  Every e_C is fixed by Frobenius mod t**d - 1, so it takes a value
in F_p at each irreducible factor of pi_d, and together the e_C separate
any two factors.  For p <= _CLASS_SPLIT_MAX_P = 5 a coset sum g cuts a
piece u into the classes of its values, gcd(u, g - c) for c in F_p
(Berlekamp, Bell Syst. Tech. J. 46, 1967): p - 1 gcds, the last class
being what is left, with no randomness and no modular power; at p = 2
that is the one gcd(u, e_C).  As the coset sums separate any two
factors, their classes are the factors.  For larger p, where p - 1 gcds
cost more than a modular power, u is split by
gcd(u, (g + a)**((p-1)/2) - 1) (Cantor-Zassenhaus), g a coset sum or,
once every coset sum has been used, a combination of them; the
coefficients and the shift a come from the fixed seed of ffpoly, so the
split is deterministic and its exponent has only log2(p) bits.  Coset
sums are formed one at a time, and the walk stops once all phi(d)/r
factors are found.  ffpoly.factorize stays the general factorization.
The split holds kernel values from pi_d to its factors, as ffpoly's own
operations do inside a Poly: packed ints passed to _kernel._f2 at p = 2,
canonical coefficient lists passed to _kernel at odd p (so the compiled
kernel serves them when it is built).  Both kernels take the same
arguments (..., p), so one loop runs the split at every p on the kernel
picked once, looking each op up at its call.  A lifted factor is read as a
kernel value by Poly._value, and a Poly is made by PrimeField._wrap only
for each factor returned, where the final check reads its degree.

At p = 2 a pi_d with k >= _BM_MIN_FACTORS = 12 factors is split from one
factor instead, since reducing every coset sum modulo every pending piece
costs about k * phi(d)**2.  A descent follows one branch of the split: each
coset sum is reduced modulo the current piece u (as t**j + t**(2j) +
t**(4j) + ... mod u, by repeated squaring, when |C| * deg u < d) and the
smaller part of u is kept, about log2(k) gcds down to a factor f of degree
r.  Then zeta = t mod f is a primitive d-th root of unity in F_2[t]/(f),
the factors of pi_d are the minimal polynomials of zeta**j for j over the
cosets of 2 in (Z/d)*, and the minimal polynomial of zeta**j is that of
the sequence s_i = T[i * j mod d], T[e] the constant coefficient of
t**e mod f (Lidl & Niederreiter, ch. 8).  Berlekamp-Massey (Massey, IEEE
Trans. IT 15, 1969) on s_0, ..., s_(2r-1), run on packed ints, returns the
connection polynomial of the sequence, the reverse of that minimal
polynomial, and so the factor of the coset of -j; one run gives the
factors of both cosets.
Below the cut-off the coset-sum split is faster (measured on every odd
d <= 3000), and at odd p a Berlekamp-Massey on coefficient lists was
slower in a prototype, so both stay on it.  The two paths give the same
sorted factors.

When a prime q has q**2 | d, pi_d(t) = pi_{d/q}(t**q), so every factor f of
pi_{d/q} (cached, and needed by every caller that asks for all d | n)
lifts to a factor f(t**q) of pi_d of degree q * r', r' = ord_{d/q}(p).  The
kernel of (Z/d)* -> (Z/(d/q))* has order q, so r is r' or q * r'.  When
r = q * r', each f(t**q) has the degree r of every irreducible factor of
pi_d and is one, with no gcd taken.  When r = r', the lifted pieces, each a
product of q factors, are what the split starts from in place of pi_d, and
pi_d is formed only to reduce the coset sums.  A q with r = q * r' is
taken when there is one: from another q's pieces the descent tries in vain
the coset sums that vanish at every root of pi_d (pi_220825, 220825 =
5**2 * 11**2 * 73, took 60 and 6 s from its lifts to t**5).

At odd p two more identities (Lidl & Niederreiter, ch. 2) give pi_d from
the cached factors of a smaller pi_m.  The twist: let e > 1 be the product
of the prime powers q**v || d that divide p - 1, and m = d/e.  F_p holds a
primitive e-th root of unity w, the primitive d-th roots of unity are the
products of those of orders m and e (gcd(m, e) = 1), and ord_d(p) =
ord_m(p) = r as p = 1 mod e.  So the factors of pi_d are
w**(-i*r) * f(w**i * t) for each factor f of pi_m and each i in (Z/e)*,
with no gcd: every d = 2 mod 4 (w = -1) and every d | p - 1 (m = 1,
linear factors) is one.  The quotient pieces: for a prime q || d and
m = d/q, pi_m(t**q) = pi_d(t) * pi_m(t).  Of the q-th roots of a root of a
factor f of pi_m one has order m and the others order d, so
f(t**q) = f_s(t) * P(t), f_s the factor of pi_m that divides f(t**q)
(found by exact division), and the pieces P, one per f and of degree
(q - 1) * ord_m(p), part the factors of pi_d.  A piece of degree r is a
factor; the others are split by coset sums as lifted pieces are, without
the cosets of multiples of q (e_C(t) = E(t**q) takes one value on every
root of f(t**q)).  The q with the smallest pieces is taken, and only when
they are smaller than the pieces of the next route.

_route names the route of pi_d and picks its pieces, the first of these
that applies: "lift" when the lifted pieces are the factors (also an
irreducible pi_d), as neither it nor the twist takes a gcd and the lift
is not charged; "twist"; "quotient"; else, from the lifted pieces or
pi_d, "one factor" or "coset sums".  It is cached per (p, d), so the
charge of factor_work and the split read one Route.  At p = 2, p - 1 = 1
leaves no twist, and the quotient pieces stay out: in a prototype they
made the split of every odd d <= 120 8-11% slower, and of every odd
d <= 3000 about 45% slower.
"""

import functools
import math
import random
from typing import NamedTuple

from . import _kernel, intmath
from ._kernel import _f2
from .ffpoly import _CZ_SEED, Poly, PrimeField
from .orders import multiplicative_order

# the one work budget, checked before any pi_d is built: factor_work(p, n)
# for factor and for count on random marks, verify_work(p, q, nj) for
# verify.  A unit is about 20 ps of pure-kernel time, so the limit is about
# 3 s (2-vCPU x86-64 host, Python 3.11; probed for factor at p = 2, 3, 5 and
# 2**31 - 1, where the most costly admitted n at p = 2 took up to 3.9 s
# with start-up, and for verify at eight p from 2 to 2**31 - 1, where the
# most costly admitted nj took 0.6-3.7 s with start-up)
MAX_FACTOR_WORK = 2**37

# the largest p at which a coset sum cuts a piece into the classes of its
# values, by p - 1 gcds and no modular power; above it Cantor-Zassenhaus
# takes one gcd after a modular power.  Against Cantor-Zassenhaus, cold
# splits of every d up to a bound (pure kernel, 2-vCPU x86-64 host) were
# 17% faster at p = 3 (d <= 80) and 28% at p = 5 (d <= 60), and neutral at
# p = 7 (d <= 300) with 64-bit gcd slots; with the byte slots of _fp's gcd
# under both, 13-34% faster at p = 7, 12% faster to 5% slower at p = 11
# and 6% faster to 30% slower at p = 13 (d <= 60 to 300)
_CLASS_SPLIT_MAX_P = 5

# seeded combinations of coset sums tried for p > _CLASS_SPLIT_MAX_P after
# each coset sum has been used once; a round splits a given pair of factors
# with probability at least 4/9, so running out means pi_d is not the
# squarefree product expected
_COMBINATION_ROUNDS = 200

# a pi_d at p = 2 with at least this many factors is split from one factor
# by Berlekamp-Massey (module docstring); over every odd d <= 3000 the route
# took a median 1/1.8 of the coset-sum split's time at k = 12 and was slower
# at k = 11 and below
_BM_MIN_FACTORS = 12


class CycloPart(NamedTuple):
    """Factors of one cyclotomic polynomial pi_d inside t**n - 1."""

    d: int
    factors: tuple[Poly, ...]
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "multiplicity": self.multiplicity,
            "factors": [v.to_json() for v in self.factors],
        }


class CycloFactorization(NamedTuple):
    """Complete factorization of t**n - 1 grouped by cyclotomic part."""

    field: PrimeField
    n: int
    parts: tuple[CycloPart, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "parts": [part.to_json() for part in self.parts]}


def cyclotomic_poly(field: PrimeField, n: int) -> Poly:
    """The n-th cyclotomic polynomial reduced mod p; requires gcd(n, p) = 1."""
    intmath.require_positive("n", n)
    if n % field.p == 0:
        raise ValueError(f"cyclotomic index must be coprime to p: got n={n}, p={field.p}")
    return field._wrap(_cyclotomic_value(field.p, n))


def _cyclotomic_value(p: int, n: int):
    # pi_n mod p as a kernel value, for n >= 1 coprime to p
    up, down = [n], []  # the d | n with mu(n/d) = 1 and with mu(n/d) = -1
    for q in intmath.factorint(n):
        up, down = up + [d // q for d in down], down + [d // q for d in up]
    if p == 2:  # on the packed int (module docstring)
        x = 1
        for d in up:
            x ^= x << d
        for d in down:
            size = x.bit_length() - d
            x &= (1 << size) - 1
            while d < size:
                x ^= (x << d) & ((1 << size) - 1)
                d <<= 1
        return x
    c = [1]
    for d in up:  # times t**d - 1: c[i] becomes c[i - d] - c[i]
        c[:0] = [0] * d
        for i in range(len(c) - d):
            c[i] -= c[i + d]
    for d in down:  # exact quotient by t**d - 1: q[i] = q[i - d] - c[i]
        for i in range(len(c) - d):
            c[i] = (c[i - d] if i >= d else 0) - c[i]
        del c[-d:]
    return [x % p for x in c]  # monic, so canonical mod p


def splitting_count(field: PrimeField, n: int) -> tuple[int, int]:
    """(number of irreducible factors of pi_n mod p, their common degree)."""
    if n < 2:
        raise ValueError(f"n must be >= 2: got {n}")
    if n % field.p == 0:
        raise ValueError(f"n must be coprime to p: got n={n}, p={field.p}")
    return _route(field.p, n)[:2]


def _cosets(p: int, d: int, seen: bytearray | None = None):
    # the cyclotomic cosets {j, jp, jp**2, ...} of p on Z/d other than {0}
    # and those marked in seen, each once and in the order of their least
    # members; a coset is marked in seen before it is yielded
    if seen is None:
        seen = bytearray(d)
    seen[0] = 1
    j = 0
    while (j := seen.find(0, j)) > 0:
        coset = []
        i = j
        while not seen[i]:
            seen[i] = 1
            coset.append(i)
            i = i * p % d
        yield coset


def _splitting_cosets(p: int, d: int, q: int | None):
    # the cosets of _cosets whose sums can split a piece: from the lifts
    # f(t**q) of the factors of pi_{d/q}, a coset C of multiples of q has
    # e_C(t) = E(t**q), one value at every root of a piece, so it is skipped
    return (coset for coset in _cosets(p, d) if q is None or coset[0] % q != 0)


def _frobenius_fixed(p: int, d: int, q: int | None, pi, rng: random.Random | None):
    # the elements g that split pi_d, as kernel values, lazily: e_C mod
    # pi_d for each coset C of _splitting_cosets, then, when there is an
    # rng (p > _CLASS_SPLIT_MAX_P), seeded combinations of them
    kernel, sums = _f2 if p == 2 else _kernel, []
    for coset in _splitting_cosets(p, d, q):
        sums.append(kernel.rem(_coset_sum(p, coset), pi, p))
        yield sums[-1]
    for _ in range(_COMBINATION_ROUNDS if rng else 0):
        g = [0] * (len(pi) - 1)
        for e in sums:
            c = rng.randrange(p)
            for i, x in enumerate(e):
                g[i] += c * x
        yield _plus_constant(g, 0, p)  # g reduced mod p


def _coset_sum(p: int, coset: list):
    # e_C as a kernel value: at p = 2 a sum of powers of t while C is short,
    # else one pass over its coefficients, as each 1 << i costs i bits (a
    # coset of pi_239379 took 0.25 s as a sum, 4 ms packed from its digits)
    if p == 2 and len(coset) < 64:
        return sum(1 << i for i in coset)
    e = bytearray(max(coset) + 1)
    for i in coset:
        e[i] = 1
    return _f2.pack(e) if p == 2 else list(e)


def _plus_constant(g: list, a: int, p: int) -> list:
    # g + a over F_p, canonical; the coefficients of g may exceed p
    g = [x % p for x in g or [0]]
    g[0] = (g[0] + a) % p
    while g and not g[-1]:
        g.pop()
    return g


def _coset_split(p: int, d: int, q: int | None, pi, pending: list, r: int):
    # (factors of degree r, pieces left unsplit) of the pieces pending,
    # lifted to t**q when q is not None, by gcds with the elements g of
    # _frobenius_fixed (module docstring): at p <= _CLASS_SPLIT_MAX_P
    # gcd(rest, g - c) for c = 0, ..., p - 2, g reduced mod the piece u
    # once, leaves the class of p - 1 in rest; above it one gcd with
    # (g + a)**((p-1)/2) - 1, a drawn from rng.  pi and the pieces are
    # kernel values, of size degree + 1
    kernel, size = (_f2, int.bit_length) if p == 2 else (_kernel, len)
    rng = random.Random(_CZ_SEED) if p > _CLASS_SPLIT_MAX_P else None
    elements = _frobenius_fixed(p, d, q, pi, rng)
    factors = []
    while pending and (g := next(elements, None)) is not None:
        pieces, pending = pending, []
        for u in pieces:
            if rng:
                w = kernel.pow_mod(_plus_constant(g, rng.randrange(p), p), (p - 1) // 2, u, p)
                x = _plus_constant(w, p - 1, p)
            else:
                x = g if p == 2 else kernel.rem(g, u, p)
            rest = u
            for c in range(1 if rng else p - 1):
                h = kernel.gcd(rest, _plus_constant(x, p - c, p) if c else x, p)
                if 1 < (m := size(h)) < size(rest):
                    (factors if m == r + 1 else pending).append(h)
                    rest = kernel.div_rem(rest, h, p)[0]
                    if size(rest) == r + 1:
                        break
                elif m > 1:  # rest lies in one class
                    break
            (factors if size(rest) == r + 1 else pending).append(rest)
    return factors, pending


def _one_factor_f2(d: int, q: int | None, u: int, r: int) -> int:
    # one branch of the coset-sum split at p = 2: the piece u, lifted to
    # t**q when q is not None, split by the sums of _splitting_cosets, each
    # reduced modulo u, keeping the smaller part, until u has degree r or
    # the coset sums run out
    cosets = _splitting_cosets(2, d, q)
    while (m := u.bit_length() - 1) > r and (coset := next(cosets, None)):
        if len(coset) * m < d:  # e_C mod u as the sum of t**j, t**(2j), ... mod u
            x, g = _f2.rem(1 << coset[0], u), 0
            for _ in coset:
                g ^= x
                x = _f2.rem(_f2.square(x), u)
        else:
            g = _f2.rem(_coset_sum(2, coset), u)
        h = _f2.gcd(u, g)
        if 0 < (k := h.bit_length() - 1) < m:
            u = h if 2 * k <= m else _f2.div_rem(u, h)[0]
    return u


def _berlekamp_massey_f2(d: int, f: int, r: int) -> list[int]:
    # every factor of pi_d at p = 2 from one factor f of degree r (module
    # docstring): Berlekamp-Massey on s_i = T[i * j mod d], i < 2r, for one
    # j in each pair of cosets {C, -C} of 2 in (Z/d)*
    # T[e], the constant coefficient of t**e mod f, is the coefficient of
    # x**e in 1 + x**r / f*(x), f* the reverse of f: 1/f* by Newton's
    # iteration y <- f* y**2, which doubles the precision of y
    reverse, inverse, precision = _reverse_f2(f), 1, 1
    while precision < d:
        precision *= 2
        inverse = _f2.mul(reverse, _f2.square(inverse)) & ((1 << precision) - 1)
    table = bytes(_f2.unpack(1 ^ ((inverse << r) & ((1 << d) - 1)))).ljust(d, b"\0")
    seen = bytearray(d)  # the j with gcd(j, d) > 1 lie in no coset of (Z/d)*
    for q in intmath.factorint(d):
        seen[::q] = b"\x01" * len(range(0, d, q))
    factors = []
    for coset in _cosets(2, d, seen):
        j = coset[0]
        # c is the connection polynomial, b its last change times t**m
        c, b, length, w, e = 1, 1, 0, 0, 0
        for n in range(2 * r):
            w = w << 1 | table[e]  # bit i is s_(n - i)
            e = (e + j) % d
            b <<= 1
            if (c & w).bit_count() & 1:
                if 2 * length <= n:
                    c, b, length = c ^ b, c, n + 1 - length
                else:
                    c ^= b
        # c is the minimal polynomial of zeta**(-j): the factor of the
        # coset -C, and its reverse the factor of C
        if seen[d - j]:  # -C = C
            factors.append(c)
        else:
            for i in coset:
                seen[d - i] = 1
            factors += (c, _reverse_f2(c))
    return factors


def _reverse_f2(x: int) -> int:
    # t**deg(x) * x(1/t) for x over F_2 with x(0) = 1
    return int(format(x, "b")[::-1], 2)


def _lift(p: int, x, q: int):
    # x(t**q) for a kernel value x
    if p == 2:  # q - 1 zeros after every binary digit
        return int(("0" * (q - 1)).join(format(x, "b")), 2)
    c = [0] * (q * (len(x) - 1) + 1)
    c[::q] = x
    return c


class Route(NamedTuple):
    """How pi_d is split: k factors of degree r from pieces of degree m."""

    k: int
    r: int
    m: int
    q: int | None  # prime of a lift or of the quotient pieces, e for a twist, None for pi_d itself
    name: str


@functools.lru_cache(maxsize=None)
def _route(p: int, d: int) -> Route:
    # the route of pi_d, d >= 2 coprime to p: the first that applies
    # (module docstring)
    r = multiplicative_order(p, d)
    k = intmath.euler_phi(d) // r
    primes = intmath.factorint(d)
    lifts = [(q * multiplicative_order(p, d // q), q) for q, v in primes.items() if v > 1]
    m, q = min(lifts, default=(k * r, None))
    if m == r:
        return Route(k, r, m, q, "lift")
    if p == 2:
        return Route(k, r, m, q, "one factor" if k >= _BM_MIN_FACTORS else "coset sums")
    e = math.prod(q**v for q, v in primes.items() if (p - 1) % q**v == 0)
    if e > 1:
        return Route(k, r, r, e, "twist")
    quotients = [((q - 1) * multiplicative_order(p, d // q), q)
                 for q, v in primes.items() if v == 1 and q < d]
    if quotients and (quotient := min(quotients))[0] < m:
        return Route(k, r, *quotient, "quotient")
    return Route(k, r, m, q, "coset sums")


def _root_of_unity(p: int, e: int) -> int:
    # a primitive e-th root of unity in F_p, e | p - 1: a**((p - 1)/e) for
    # the least a >= 2 whose power has order e
    for a in range(2, p):
        w = pow(a, (p - 1) // e, p)
        if all(pow(w, e // q, p) != 1 for q in intmath.factorint(e)):
            return w


def _twist(p: int, f: list, x: int) -> list:
    # x**(-r) * f(x t) for a kernel value f of degree r and x in F_p*
    s, out = pow(x, 1 - len(f), p), []
    for c in f:
        out.append(c * s % p)
        s = s * x % p
    return out


def _twists(p: int, m: int, e: int) -> list:
    # the factors of pi_{m e} (module docstring): the twists of each factor
    # of pi_m by w**i, i in (Z/e)*, w a primitive e-th root of unity
    w, small = _root_of_unity(p, e), [f._value for f in _cyclotomic_factors(p, m)]
    return [_twist(p, f, pow(w, i, p)) for i in range(1, e) if math.gcd(i, e) == 1
            for f in small]


def _quotient_pieces(p: int, m: int, q: int) -> list:
    # the pieces f(t**q) / f_s(t) of pi_{m q}, one for each factor f of
    # pi_m (module docstring), f_s the factor of pi_m that divides f(t**q)
    small, pieces = [f._value for f in _cyclotomic_factors(p, m)], []
    for f in small:
        lifted = _lift(p, f, q)
        for g in small:
            piece, rest = _kernel.div_rem(lifted, g, p)
            if not rest:
                break
        pieces.append(piece)
    return pieces


@functools.lru_cache(maxsize=None)
def _cyclotomic_factors(p: int, d: int) -> tuple[Poly, ...]:
    field = PrimeField(p)
    if d == 1:
        return (cyclotomic_poly(field, 1),)
    k, r, m, q, name = _route(p, d)
    if name == "twist":
        pieces = _twists(p, d // q, q)
    elif name == "quotient":
        pieces = _quotient_pieces(p, d // q, q)
    elif q:  # pi_d(t) = pi_{d/q}(t**q) (module docstring)
        pieces = [_lift(p, f._value, q) for f in _cyclotomic_factors(p, d // q)]
    else:
        pieces = [_cyclotomic_value(p, d)]
    factors, pending = (pieces, []) if m == r else ([], pieces)
    if name == "one factor":  # every factor from one
        f = _one_factor_f2(d, q, pieces[0], r)
        if f.bit_length() == r + 1:
            factors, pending = _berlekamp_massey_f2(d, f, r), []
    elif pending:  # coset sums, from pi_d, lifts or quotient pieces
        pi = _cyclotomic_value(p, d) if q else pieces[0]
        factors, pending = _coset_split(p, d, q, pi, pieces, r)
    factors = [field._wrap(x) for x in factors]
    # the count and degree that splitting_count reports
    if pending or (len(factors), r) != splitting_count(field, d) or not all(
        v.is_monic and v.degree == r for v in factors
    ):
        raise ArithmeticError(
            f"pi_{d} mod {p} did not split into {k} monic factors of degree {r}"
        )
    return tuple(sorted(factors))


def factor_work(p: int, n: int) -> int:
    """The cost of factoring t**n - 1 mod p in the units of MAX_FACTOR_WORK:
    16384 for pi_1, and for each d | n' (n' the p-coprime part of n)
    16384 * d to form pi_d and write out its factors, plus the charge of the
    split by the route of pi_d (_route).  A lift takes no gcd and is charged
    nothing more."""
    n_coprime, _ = intmath.coprime_part(n, p)
    if 16384 * n_coprime > MAX_FACTOR_WORK:  # d = n' alone: not worth factoring n'
        return 16384 * n_coprime
    work = 16384  # d = 1: pi_1 = t - 1
    for d in intmath.divisors(n_coprime)[1:]:
        work += 16384 * d
        k, r, m, _, name = _route(p, d)
        if name == "one factor":
            # the descent's gcds and d-bit coset sums, 2 * d**2 (8 * r * m**2 by
            # squarings when r * m < d), then k/2 Berlekamp-Massey runs of 2r
            # steps; probed on d from 8191 to 4 * 10**5; admits t**200689 - 1
            # (k = 12, r = 16724): 2.1-3.2 s with start-up
            descent = 8 * r * m * m if r * m < d else 2 * d * d
            work += descent + 16384 * d + 12 * k * r * (r + 1024)
        elif p == 2 and name == "coset sums":
            # up to k coset sums of d bits, each reduced modulo pi_d and taken
            # in a gcd, k * phi(d) * d (2 * phi(d)**2 at k = 2, split by the
            # first); probed on n <= 2 * 10**6 with 3 <= k <= 11; admits
            # t**1110585 - 1, charged mostly for pi_158655 (k = 8): 3.3-3.4 s
            # with start-up
            work += k * k * r * (k * r if k == 2 else d)
        elif name != "lift":
            # odd p, every route charged as Cantor-Zassenhaus: a modular power
            # and a gcd per element and piece, 64 * bit_length(p)**2 *
            # bit_length(k)**2 * phi(d)**2; probed on n < 30000 at p = 3 to 13
            # and 2**31 - 1; admits t**739 - 1 at p = 2**31 - 1 (k = 2): 3.1 s
            # with start-up.  A twist takes no gcd: t**279 - 1 there is charged
            # 0.996 of the budget and runs in 0.11-0.18 s
            work += 64 * p.bit_length() ** 2 * k.bit_length() ** 2 * (k * r) ** 2
    return work


def _check_work(request: str, work: int):
    # the budget is read at call time, so one monkeypatch reaches every command
    intmath.require_at_most(request, work, MAX_FACTOR_WORK)


def factor_tn_minus_1(field: PrimeField, n: int) -> CycloFactorization:
    """Factor t**n - 1 completely, grouped by cyclotomic divisor; refused
    with ValueError when factor_work(p, n) > MAX_FACTOR_WORK."""
    intmath.require_positive("n", n)
    _check_work("factor: factor_work(p, n)", factor_work(field.p, n))
    n_coprime, e = intmath.coprime_part(n, field.p)
    multiplicity = field.p**e
    parts = tuple(
        CycloPart(d, _cyclotomic_factors(field.p, d), multiplicity)
        for d in intmath.divisors(n_coprime)
    )
    return CycloFactorization(field, n, parts)
