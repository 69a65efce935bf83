"""The polynomial kernel at p = 2, on polynomials packed into Python ints.

Bit i of an int is the coefficient of t**i, so addition is ``^`` and every
operation is a sequence of shifts and xors that CPython runs word by word
in C (Brent, Gaudry, Thome & Zimmermann, "Faster multiplication in
GF(2)[x]", ANTS 2008).  ``mul``, ``div_rem``, ``rem``, ``pow_mod`` and
``gcd`` work on packed ints with the semantics of the tests' list kernel
``tests/_pypoly.py`` at p = 2 (the same errors, in the same order), and
``square(x)`` is ``mul(x, x)`` in one pass through C.
``ffpoly`` holds every polynomial over F_2 packed and calls these directly.
``pack`` and ``unpack`` convert from and to canonical coefficient lists, in
C through ``bytes.translate``, where a polynomial is built from
coefficients or its coefficients are read.
"""

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def pack(a: list) -> int:
    """The int whose bit i is a[i] (a a canonical list over F_2)."""
    return int(bytes(reversed(a)).translate(_TO_DIGITS), 2) if a else 0


def unpack(x: int) -> list:
    """The canonical coefficient list of x, lowest degree first."""
    return list(bin(x)[:1:-1].encode().translate(_FROM_DIGITS)) if x else []


def mul(x: int, y: int) -> int:
    if x.bit_length() > y.bit_length():
        x, y = y, x
    r = 0
    for i, bit in enumerate(bin(x)[:1:-1]):
        if bit == "1":
            r ^= y << i
    return r


def square(x: int) -> int:
    # squaring over F_2 moves bit i to bit 2i: the binary digits of x read
    # as base-4 digits
    return int(format(x, "b"), 4)


def rem(x: int, m: int) -> int:
    dm = m.bit_length()
    if not dm:
        raise ZeroDivisionError("division by zero polynomial")
    shift = x.bit_length() - dm
    while shift >= 0:
        x ^= m << shift
        shift = x.bit_length() - dm
    return x


def div_rem(x: int, m: int) -> tuple[int, int]:
    dm = m.bit_length()
    if not dm:
        raise ZeroDivisionError("division by zero polynomial")
    shift = x.bit_length() - dm
    q = 0
    while shift >= 0:
        q |= 1 << shift
        x ^= m << shift
        shift = x.bit_length() - dm
    return q, x


def gcd(x: int, y: int) -> int:
    while y:
        x, y = y, rem(x, y)
    return x


def pow_mod(x: int, exp: int, m: int) -> int:
    if not m:
        raise ZeroDivisionError("division by zero polynomial")
    if exp < 0:
        raise ValueError("negative exponent")
    if m == 1:
        return 0
    if exp == 0:
        return 1
    x = rem(x, m)
    r = 1
    for bit in bin(exp)[2:]:
        r = rem(square(r), m)
        if bit == "1":
            r = rem(mul(r, x), m)
    return r
