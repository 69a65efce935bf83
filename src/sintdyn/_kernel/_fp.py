"""The polynomial kernel at odd p, on polynomials packed into Python ints.

Kronecker substitution (von zur Gathen & Gerhard, *Modern Computer
Algebra*, §8.4): the coefficients of a polynomial over F_p fill the slots,
fields of w bits, of one int.  While no slot reaches 2**w, adding and
multiplying packed ints adds and multiplies the polynomials over Z with no
carry between slots, so a product is one big-int product, unpacked once
mod p.  Each function sizes w from p and the operand lengths so that no
slot can overflow (wider than 64 bits where p is large), and packs and
unpacks canonical lists at its own boundary, with the semantics of the
tests' list kernel ``tests/_pypoly.py`` (the same errors, in the same
order).

Division packs the leading coefficient into slot 0.  Each quotient term
reads slot 0 mod p, adds (p - c)*b, which clears that slot mod p and keeps
every slot non-negative, and shifts the slot out; only the remainder is
unpacked.  ``pow_mod`` squares and multiplies packed residues and reduces
their slots mod p once per step.  ``gcd`` runs Euclid on unreduced slots
and tracks a bound on them as a Python int: both operands are reduced mod
p only when the next division could overflow a slot.  The code works at
any p; ``_kernel`` sends it the odd p when the compiled kernel is not built.
"""

import struct

BACKEND = "python"

# little-endian struct codes by slot width in bits; a wider slot is a run of
# 64-bit words, the most significant last
_CODES = {16: "H", 32: "I", 64: "Q"}
# the slot width for values of b bits, b <= 64
_WIDTHS = (8,) * 9 + (16,) * 8 + (32,) * 16 + (64,) * 32


def _width(bound: int) -> int:
    """The narrowest slot width that holds every value up to bound."""
    bits = bound.bit_length()
    return _WIDTHS[bits] if bits <= 64 else -(-bits // 64) * 64


def _pack(a: list, w: int) -> int:
    if w == 8:
        return int.from_bytes(bytes(a), "little")
    k = w // 64
    if k > 1:
        words = [0] * (len(a) * k)
        words[::k] = a
        a = words
    return int.from_bytes(struct.pack(f"<{len(a)}{_CODES[min(w, 64)]}", *a), "little")


def _unpack(x: int, w: int, n: int, p: int) -> list:
    """The n slots of x reduced mod p; x has no higher slot."""
    raw = x.to_bytes(w * n // 8, "little")
    if w == 8:
        return [s % p for s in raw]
    k = w // 64
    words = struct.unpack(f"<{n * max(k, 1)}{_CODES[min(w, 64)]}", raw)
    slots = words[k - 1 :: k] if k > 1 else words
    for j in range(k - 2, -1, -1):
        slots = [s << 64 | t for s, t in zip(slots, words[j::k])]
    return [s % p for s in slots]


def _canonical(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _divide(x: int, y: int, nq: int, w: int, p: int, inv: int, q=None) -> int:
    """The nq-step long division of x by y, both packed leading coefficient
    first, where 1/inv is y's leading coefficient mod p; the quotient
    coefficients, leading first, are appended to q when it is given."""
    mask = (1 << w) - 1
    for _ in range(nq):
        c = (x & mask) * inv % p
        if c:
            x += (p - c) * y
        x >>= w
        if q is not None:
            q.append(c)
    return x


def mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    w = _width((p - 1) ** 2 * min(len(a), len(b)))
    return _canonical(_unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1, p))


def _rem(a: list, b: list, p: int, q=None) -> list:
    """The remainder of a by b; the quotient coefficients, leading first,
    are appended to q when it is given."""
    nb = len(b)
    if nb == 0:
        raise ZeroDivisionError("division by zero polynomial")
    nq = len(a) - nb + 1
    if nq <= 0:
        return list(a)
    w = _width(p - 1 + min(nq, nb) * (p - 1) ** 2)
    x = _divide(_pack(a[::-1], w), _pack(b[::-1], w), nq, w, p, pow(b[-1], -1, p), q)
    return _canonical(_unpack(x, w, nb - 1, p)[::-1])


def div_rem(a: list, b: list, p: int) -> tuple[list, list]:
    q = []
    r = _rem(a, b, p, q)
    return q[::-1], r


def rem(a: list, b: list, p: int) -> list:
    return _rem(a, b, p)


def pow_mod(base: list, exp: int, m: list, p: int) -> list:
    nm = len(m)
    if nm == 0:
        raise ZeroDivisionError("division by zero polynomial")
    if exp < 0:
        raise ValueError("negative exponent")
    if nm == 1:
        return []
    if exp == 0:
        return [1]
    b = rem(base, m, p)
    if exp == 1 or not b:
        return b
    # residues are packed leading coefficient first; a product of two has
    # 2*nm - 3 slots of at most (nm - 1)*(p-1)**2, and dividing it by m adds
    # at most (nm - 2)*(p-1)**2 to each
    w = _width((2 * nm - 3) * (p - 1) ** 2)
    mask = (1 << w) - 1
    y, inv = _pack(m[::-1], w), pow(m[-1], -1, p)

    def residue(x, nx):
        # the nx-slot product x mod m, leading zeros dropped, slots reduced
        if nx >= nm:
            x, nx = _divide(x, y, nx - nm + 1, w, p, inv), nm - 1
        while nx and not (x & mask) % p:
            x >>= w
            nx -= 1
        return _unpack(x, w, nx, p)

    r = b = b[::-1]
    x_b = _pack(b, w)
    for bit in bin(exp)[3:]:
        x = _pack(r, w)
        r = residue(x * x, 2 * len(r) - 1)
        if bit == "1" and r:
            r = residue(_pack(r, w) * x_b, len(r) + len(b) - 1)
        if not r:
            break
    return r[::-1]


def gcd(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a nonzero constant divides a
        return [1]
    if b:
        # Euclid on unreduced slots, leading coefficients first.  The slots
        # of x stay at most bx and those of y at most by; dividing x by y
        # adds at most nq*(p-1)*by to a slot, and when that could overflow
        # both are reduced mod p first.  Reduced, one division needs half
        # of w at most, as nq <= len(a)
        w = max(64, 2 * _width(p - 1 + len(a) * (p - 1) ** 2))
        mask = (1 << w) - 1
        x, nx, bx = _pack(a[::-1], w), len(a), p - 1
        y, ny, by = _pack(b[::-1], w), len(b), p - 1
        while ny > 1:
            nq = nx - ny + 1
            if bx + nq * (p - 1) * by > mask:
                x, y = _pack(_unpack(x, w, nx, p), w), _pack(_unpack(y, w, ny, p), w)
                bx = by = p - 1
            x = _divide(x, y, nq, w, p, pow((y & mask) % p, -1, p))
            bx += nq * (p - 1) * by
            nx = ny - 1
            while nx and not (x & mask) % p:
                x >>= w
                nx -= 1
            x, nx, bx, y, ny, by = y, ny, by, x, nx, bx
        if ny:
            return [1]
        a = _unpack(x, w, nx, p)[::-1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        return [c * inv % p for c in a]
    return list(a)
