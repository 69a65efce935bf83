"""Pure-Python coefficient-vector kernels for dense polynomials over F_p.

Polynomials are lists of residues in [0, p), lowest degree first, with no
trailing zeros ([] is the zero polynomial).  This is the reference that
the compiled sintdyn._kernel._cypoly and the packed _fp and _f2 mirror
exactly: the tests and benchmarks/bench_kernel.py check them against it.
The library never calls these loops, so the module lives with the tests.
"""


def mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    for i in range(len(c)):
        c[i] %= p
    return c


def div_rem(a: list, b: list, p: int) -> tuple[list, list]:
    nb = len(b)
    if nb == 0:
        raise ZeroDivisionError("division by zero polynomial")
    na = len(a)
    if na < nb:
        return [], list(a)
    r = list(a)
    q = [0] * (na - nb + 1)
    binv = pow(b[-1], -1, p)
    for i in range(na - nb, -1, -1):
        top = r[i + nb - 1]
        if top:
            qi = top * binv % p
            q[i] = qi
            for j in range(nb - 1):
                r[i + j] = (r[i + j] - qi * b[j]) % p
            r[i + nb - 1] = 0
    del r[nb - 1 :]
    while r and not r[-1]:
        r.pop()
    return q, r


def rem(a: list, b: list, p: int) -> list:
    nb = len(b)
    if nb == 0:
        raise ZeroDivisionError("division by zero polynomial")
    na = len(a)
    if na < nb:
        return list(a)
    r = list(a)
    binv = pow(b[-1], -1, p)
    for i in range(na - nb, -1, -1):
        top = r[i + nb - 1]
        if top:
            qi = top * binv % p
            for j in range(nb - 1):
                r[i + j] = (r[i + j] - qi * b[j]) % p
            r[i + nb - 1] = 0
    del r[nb - 1 :]
    while r and not r[-1]:
        r.pop()
    return r


def mul_mod(a: list, b: list, m: list, p: int) -> list:
    return rem(mul(a, b, p), m, p)


def pow_mod(base: list, exp: int, m: list, p: int) -> list:
    if len(m) == 0:
        raise ZeroDivisionError("division by zero polynomial")
    if exp < 0:
        raise ValueError("negative exponent")
    if len(m) == 1:
        return []
    if exp == 0:
        return [1]
    b = rem(base, m, p)
    r = [1]
    for bit in bin(exp)[2:]:
        r = rem(mul(r, r, p), m, p)
        if bit == "1":
            r = rem(mul(r, b, p), m, p)
    return r


def gcd(a: list, b: list, p: int) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def as_f2(kernel):
    """The interface of sintdyn._kernel._f2 (polynomials over F_2 packed into
    ints) run on the list kernel `kernel`, this module or the compiled one:
    operands are unpacked and results packed.  Tests swap it in for _f2."""
    from types import SimpleNamespace

    from sintdyn._kernel._f2 import pack, unpack

    return SimpleNamespace(
        pack=pack,
        unpack=unpack,
        mul=lambda x, y: pack(kernel.mul(unpack(x), unpack(y), 2)),
        rem=lambda x, m: pack(kernel.rem(unpack(x), unpack(m), 2)),
        div_rem=lambda x, m: tuple(map(pack, kernel.div_rem(unpack(x), unpack(m), 2))),
        gcd=lambda x, y: pack(kernel.gcd(unpack(x), unpack(y), 2)),
        pow_mod=lambda x, e, m: pack(kernel.pow_mod(unpack(x), e, unpack(m), 2)),
    )
