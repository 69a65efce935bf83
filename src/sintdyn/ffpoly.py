"""Exact arithmetic and factorization for polynomials over prime fields F_p.

A Poly is an immutable canonical coefficient vector (lowest degree first,
residues in [0, p), no trailing zeros; the zero polynomial has an empty
vector and no defined degree).  Dense arithmetic is delegated to
``_kernel``, which runs it on polynomials packed into ints (bits at p = 2,
wider slots at odd p), or at odd p on coefficient lists in the compiled
extension when that is built; everything else (gcd structure,
irreducibility, full factorization) lives here.

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

from . import _kernel, intmath

_CZ_SEED = 0x5EED1E55

_SUPERSCRIPT_LIMIT = 2**31


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class PrimeField:
    """The prime field F_p with 2 <= p < 2**31; factory for Poly values."""

    __slots__ = ("p",)

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
        return Poly(self, tuple(c), _canonical=True)

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

    @property
    def zero(self) -> "Poly":
        return Poly(self, (), _canonical=True)

    @property
    def one(self) -> "Poly":
        return Poly(self, (1,), _canonical=True)

    @property
    def t(self) -> "Poly":
        return Poly(self, (0, 1), _canonical=True)

    def monomial(self, degree: int) -> "Poly":
        """The polynomial t**degree."""
        if degree < 0:
            raise ValueError(f"degree must be non-negative: got {degree}")
        return Poly(self, (0,) * degree + (1,), _canonical=True)

    def tn_minus_1(self, n: int) -> "Poly":
        """The polynomial t**n - 1."""
        if n < 1:
            raise ValueError(f"n must be positive: got {n}")
        return Poly(self, (self.p - 1,) + (0,) * (n - 1) + (1,), _canonical=True)


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
    """Canonical polynomial over F_p.  Immutable value type."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=(), _canonical: bool = False):
        if _canonical:
            self.field = field
            self.coeffs = coeffs
            return
        p = field.p
        c = [int(x) % p for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

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
        p = self.field.p
        inv = pow(self.coeffs[-1], -1, p)
        return Poly(self.field, tuple(c * inv % p for c in self.coeffs), _canonical=True)

    def derivative(self) -> "Poly":
        p = self.field.p
        c = [i * ci % p for i, ci in enumerate(self.coeffs)][1:]
        while c and not c[-1]:
            c.pop()
        return Poly(self.field, tuple(c), _canonical=True)

    @_operands
    def __add__(self, other):
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, bi in enumerate(b):
            c[i] = (c[i] + bi) % p
        while c and not c[-1]:
            c.pop()
        return Poly(self.field, tuple(c), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return Poly(self.field, tuple(p - c if c else 0 for c in self.coeffs), _canonical=True)

    __sub__ = _operands(lambda self, other: self + (-other))
    __rsub__ = _operands(lambda self, other: other + (-self))

    @_operands
    def __mul__(self, other):
        c = _kernel.mul(list(self.coeffs), list(other.coeffs), self.field.p)
        return Poly(self.field, tuple(c), _canonical=True)

    __rmul__ = __mul__

    __divmod__ = _operands(lambda self, other: poly_divmod(self, other))
    __floordiv__ = _operands(lambda self, other: poly_divmod(self, other)[0])

    @_operands
    def __mod__(self, other):
        c = _kernel.rem(list(self.coeffs), list(other.coeffs), self.field.p)
        return Poly(self.field, tuple(c), _canonical=True)

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
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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


def _check_fields(a: Poly, b: Poly):
    if a.field != b.field:
        raise FieldMismatchError(
            f"operands over different fields: F_{a.field.p} vs F_{b.field.p}"
        )


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b (or r = 0); b = 0 raises ZeroDivisionError."""
    _check_fields(a, b)
    q, r = _kernel.div_rem(list(a.coeffs), list(b.coeffs), a.field.p)
    return (
        Poly(a.field, tuple(q), _canonical=True),
        Poly(a.field, tuple(r), _canonical=True),
    )


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; rejects gcd(0, 0)."""
    _check_fields(a, b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    g = _kernel.gcd(list(a.coeffs), list(b.coeffs), a.field.p)
    return Poly(a.field, tuple(g), _canonical=True)


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
    c = _kernel.pow_mod(list(base.coeffs), exp, list(modulus.coeffs), base.field.p)
    return Poly(base.field, tuple(c), _canonical=True)


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
    p = f.field.p
    return Poly(f.field, f.coeffs[::p], _canonical=True)


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
