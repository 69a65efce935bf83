"""Exact arithmetic and factorization for polynomials over prime fields F_p.

A Poly is an immutable canonical coefficient vector (lowest degree first,
residues in [0, p), no trailing zeros; the zero polynomial has an empty
vector and no defined degree).  Dense arithmetic runs on kernel values,
converted here alone: Poly._value is the kernel value of a Poly,
PrimeField._run(op, ...) runs a kernel op (looked up at call time) on
kernel values, and PrimeField._wrap makes the Poly of one.  At odd p a
kernel value is a canonical coefficient list for ``_kernel``: the compiled
extension when that is built, otherwise ints packed per call.  PrimeField(2)
is an _F2Field, whose values are _F2Poly: the int whose bit i is the
coefficient of t**i, run on ``_f2``, with coeffs unpacked only when it is
read (documents, str).  Everything else (gcd structure, irreducibility,
full factorization) lives here.

Factorization uses squarefree/distinct-degree splitting followed by
Cantor-Zassenhaus equal-degree splitting.  The equal-degree step is
randomized but draws from a fixed internal seed, so factorize() is
deterministic run to run and safe to call concurrently.  factorize() is
the general path (the library calls it only from poly_order) and the
tests' oracle; the cyclotomic factors of t**n - 1 are split in
cyclofactor from their coset sums instead, drawing from the same seed
only for odd p.
"""

import functools
import random
from itertools import zip_longest

from . import _kernel, intmath
from ._kernel import _f2

_CZ_SEED = 0x5EED1E55

_SUPERSCRIPT_LIMIT = 2**31


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class PrimeField:
    """The prime field F_p with 2 <= p < 2**31; factory for Poly values."""

    __slots__ = ("p",)

    def __new__(cls, p: int):
        return object.__new__(_F2Field if p == 2 else cls)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"p must be an integer: got {p!r}")
        if not 2 <= p < _SUPERSCRIPT_LIMIT:
            raise ValueError(f"p must satisfy 2 <= p < 2**31: got {p}")
        if not intmath.is_prime(p):
            raise ValueError(f"p must be prime: got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def poly(self, coeffs) -> "Poly":
        """Polynomial from any integer coefficient sequence (low degree first)."""
        return Poly(self, coeffs)

    def from_code(self, code: int) -> "Poly":
        """Polynomial whose coefficients are the base-p digits of code."""
        if code < 0:
            raise ValueError(f"code must be non-negative: got {code}")
        p = self.p
        c = []
        while code:
            code, r = divmod(code, p)
            c.append(r)
        return self._wrap(c)

    def from_string(self, text: str) -> "Poly":
        """Parse the canonical text form, e.g. "t^3+t+1" or "2*t^2+1".

        Minus signs are accepted for convenience ("t-1" means t + (p-1)).
        """
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial string")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        terms: dict[int, int] = {}
        for term in s.split("+"):
            if not term:
                raise ValueError(f"ill-formed polynomial string {text!r}")
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            coeff_part, sep, exp_part = term.partition("t")
            try:
                if not sep:
                    coeff, exp = int(coeff_part), 0
                else:
                    coeff_part = coeff_part.rstrip("*")
                    coeff = int(coeff_part) if coeff_part else 1
                    if exp_part:
                        if not exp_part.startswith("^"):
                            raise ValueError
                        exp = int(exp_part[1:])
                        if exp < 0:
                            raise ValueError
                    else:
                        exp = 1
            except ValueError:
                raise ValueError(f"ill-formed polynomial string {text!r}") from None
            terms[exp] = terms.get(exp, 0) + sign * coeff
        coeffs = [0] * (max(terms) + 1)
        for exp, coeff in terms.items():
            coeffs[exp] = coeff
        return self.poly(coeffs)

    zero = property(lambda self: self.from_code(0))
    one = property(lambda self: self.from_code(1))
    t = property(lambda self: self.from_code(self.p))

    def tn_minus_1(self, n: int) -> "Poly":
        """The polynomial t**n - 1."""
        intmath.require_positive("n", n)
        return self._wrap([self.p - 1] + [0] * (n - 1) + [1])

    def _wrap(self, value) -> "Poly":
        # the Poly of a canonical coefficient list, taken as it is
        f = object.__new__(Poly)
        f.field, f.coeffs = self, tuple(value)
        return f

    def _run(self, op: str, *values):
        # the kernel op named op on kernel values, looked up at each call
        return getattr(_kernel, op)(*values, self.p)


def _operands(op):
    """op as a Poly operator: an int other is taken as a constant, any other
    non-Poly gives NotImplemented, and mixed fields raise FieldMismatchError."""

    def method(self, other):
        if isinstance(other, Poly):
            _check_fields(self, other)
        elif isinstance(other, int):
            other = self.field.poly([other])
        else:
            return NotImplemented
        return op(self, other)

    return method


class Poly:
    """Canonical polynomial over F_p, an immutable value made by PrimeField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        p = field.p
        if p == 2:  # _F2Poly holds another representation
            raise TypeError("a Poly over F_2 is made by the factories of PrimeField(2)")
        c = [int(x) % p for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    _value = property(lambda self: list(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def code(self) -> int:
        """Canonical integer code sum(c_i * p**i); total-orders polynomials."""
        p = self.field.p
        code = 0
        for c in reversed(self.coeffs):
            code = code * p + c
        return code

    def monic(self) -> "Poly":
        """Monic scalar multiple (the zero polynomial stays zero)."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], -1, self.field.p)
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    __add__ = __radd__ = _operands(
        lambda a, b: Poly(a.field, [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])
    )

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    __sub__ = _operands(lambda self, other: self + (-other))
    __rsub__ = _operands(lambda self, other: other + (-self))

    __mul__ = __rmul__ = _operands(
        lambda a, b: a.field._wrap(a.field._run("mul", a._value, b._value))
    )

    __divmod__ = _operands(lambda self, other: poly_divmod(self, other))
    __floordiv__ = _operands(lambda self, other: poly_divmod(self, other)[0])

    __mod__ = _operands(lambda a, b: a.field._wrap(a.field._run("rem", a._value, b._value)))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __lt__(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            return NotImplemented
        # by degree, then by code: same-length base-p digits, top digit first
        return (len(self.coeffs), self.coeffs[::-1]) < (len(other.coeffs), other.coeffs[::-1])

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t_pow = "t" if i == 1 else f"t^{i}"
                parts.append(t_pow if c == 1 else f"{c}*{t_pow}")
        return "+".join(parts)

    def __repr__(self):
        return f"Poly(F_{self.field.p}, {self})"


class _F2Field(PrimeField):
    """F_2, whose factories make _F2Poly values (PrimeField(2) is one)."""

    __slots__ = ()

    def poly(self, coeffs) -> "Poly":
        return _F2Poly(self, _f2.pack([int(x) & 1 for x in coeffs]))

    def from_code(self, code: int) -> "Poly":
        if code < 0:
            raise ValueError(f"code must be non-negative: got {code}")
        return _F2Poly(self, code)

    def tn_minus_1(self, n: int) -> "Poly":
        intmath.require_positive("n", n)
        return _F2Poly(self, 1 << n | 1)

    def _wrap(self, value: int) -> "Poly":
        return _F2Poly(self, value)

    def _run(self, op: str, *values):
        return getattr(_f2, op)(*values)


class _F2Poly(Poly):
    """A Poly over F_2 held as the int whose bit i is the coefficient of
    t**i, which is also its code; coeffs is unpacked only when it is read.
    Degree, then code, orders these ints as int order does."""

    __slots__ = ("bits",)

    def __init__(self, field: PrimeField, bits: int):
        self.field = field
        self.bits = bits

    coeffs = property(lambda self: tuple(_f2.unpack(self.bits)))
    code = _value = property(lambda self: self.bits)
    is_zero = property(lambda self: not self.bits)
    is_monic = property(lambda self: self.bits != 0)
    constant_term = property(lambda self: self.bits & 1)

    @property
    def degree(self) -> int:
        if not self.bits:
            raise ValueError("degree of the zero polynomial is undefined")
        return self.bits.bit_length() - 1

    def derivative(self) -> "Poly":
        # (t**i)' = t**(i - 1) for odd i and 0 for even i
        mask = int("10" * (self.bits.bit_length() // 2 + 1), 2)
        return _F2Poly(self.field, (self.bits & mask) >> 1)

    __add__ = __radd__ = __sub__ = __rsub__ = _operands(
        lambda a, b: _F2Poly(a.field, a.bits ^ b.bits)
    )
    monic = __neg__ = lambda self: self  # every nonzero f is monic, and -f = f
    __bool__ = lambda self: self.bits != 0
    __hash__ = lambda self: hash(self.bits)
    __eq__ = lambda self, other: isinstance(other, _F2Poly) and self.bits == other.bits
    __lt__ = lambda self, other: (
        self.bits < other.bits if isinstance(other, _F2Poly) else NotImplemented
    )


def _check_fields(a: Poly, b: Poly):
    if a.field != b.field:
        raise FieldMismatchError(
            f"operands over different fields: F_{a.field.p} vs F_{b.field.p}"
        )


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b (or r = 0); b = 0 raises ZeroDivisionError."""
    _check_fields(a, b)
    q, r = a.field._run("div_rem", a._value, b._value)
    return a.field._wrap(q), a.field._wrap(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; rejects gcd(0, 0)."""
    _check_fields(a, b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return a.field._wrap(a.field._run("gcd", a._value, b._value))


def poly_powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    """base**exp reduced mod modulus by square-and-multiply.

    exp is an arbitrary-precision non-negative integer; modulus must be
    nonconstant.
    """
    _check_fields(base, modulus)
    if modulus.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if modulus.degree < 1:
        raise ValueError("powmod modulus must be nonconstant")
    if exp < 0:
        raise ValueError(f"exponent must be non-negative: got {exp}")
    return base.field._wrap(base.field._run("pow_mod", base._value, exp, modulus._value))


@functools.lru_cache(maxsize=None)
def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test (Rabin): f of degree m is
    irreducible exactly when gcd(t^(p^k) - t, f) = 1 at every maximal proper
    subdegree k = m/l (l a prime dividing m) and t^(p^m) = t mod f.

    The powers come from one Frobenius chain: the k are visited in
    ascending order and h = t^(p^k) is raised from the previous one,
    h <- h^(p^(k - k_prev)) mod f, ending at k = m, so the test takes m
    Frobenius steps in all.  The verdict is memoized per Poly, so callers
    that validate the same place again pay for it once."""
    if f.is_zero or f.degree < 1:
        raise ValueError("irreducibility is only defined for nonconstant polynomials")
    m = f.degree
    if m == 1:
        return True
    field = f.field
    p = field.p
    g = f.monic()
    t = h = field.t
    k_prev = 0
    for k in sorted(m // ell for ell in intmath.factorint(m)):
        h = poly_powmod(h, p ** (k - k_prev), g)
        if poly_gcd(h - t, g).degree != 0:
            return False
        k_prev = k
    return poly_powmod(h, p ** (m - k_prev), g) == t


def _pth_root(f: Poly) -> Poly:
    # f' = 0 means f(t) = h(t^p); over F_p the p-th root is h = f with
    # coefficients taken at the indices divisible by p (Frobenius fixes F_p)
    return f.field.poly(f.coeffs[:: f.field.p])


def _equal_degree_split(u: Poly, d: int, rng: random.Random) -> list[Poly]:
    # u: monic product of distinct irreducibles, all of degree d.  A draw h
    # whose candidate w has gcd 1 or u with u (a constant h, say) is redrawn
    if u.degree == d:
        return [u]
    field = u.field
    p = field.p
    while True:
        h = field.poly([rng.randrange(p) for _ in range(u.degree)])
        if p == 2:
            # trace map of h over the degree-d extension
            w = h
            for _ in range(d - 1):
                h = h * h % u
                w = w + h
        else:
            w = poly_powmod(h, (p**d - 1) // 2, u) - 1
        g = poly_gcd(w, u)
        if 0 < g.degree < u.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(u // g, d, rng)


def _squarefree_factors(g: Poly, rng: random.Random) -> list[Poly]:
    # g: monic squarefree, deg >= 1; distinct-degree then equal-degree split.
    # h = t^(p^i) mod the g of step i (poly_powmod reduces it after g shrinks)
    t = g.field.t
    out = []
    h = t
    i = 0
    while 2 * (i + 1) <= g.degree:
        i += 1
        h = poly_powmod(h, g.field.p, g)
        d = poly_gcd(h - t, g)
        if d.degree > 0:
            out.extend(_equal_degree_split(d, i, rng))
            g = g // d
    if g.degree > 0:  # no factor of degree <= i and deg g < 2(i + 1): irreducible
        out.append(g)
    return out


def _factor_into(g: Poly, multiplicity: int, counts: dict, rng: random.Random):
    while g.degree > 0:
        d = g.derivative()
        if d.is_zero:
            g, multiplicity = _pth_root(g), multiplicity * g.field.p
        else:
            w = poly_gcd(g, d)
            for v in _squarefree_factors(g // w, rng):
                counts[v] = counts.get(v, 0) + multiplicity
            g = w


def factorize(f: Poly) -> list[tuple[Poly, int]]:
    """Full factorization into (monic irreducible, multiplicity) pairs.

    The product of factor**multiplicity equals monic(f) exactly.  Pairs are
    sorted by (degree, canonical code).  Output is deterministic: the
    equal-degree step consumes randomness from a fixed internal seed.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("factorize expects a nonconstant polynomial")
    rng = random.Random(_CZ_SEED)
    counts: dict[Poly, int] = {}
    _factor_into(f.monic(), 1, counts, rng)
    return sorted(counts.items(), key=lambda item: item[0])
