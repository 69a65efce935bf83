"""Polynomial kernel over F_p: six functions over canonical coefficient
lists, which ``ffpoly`` looks up here at call time.

p = 2 always takes the packed kernel ``_f2``, whatever backend is built:
each function packs its list operands into ints, calls ``_f2`` and unpacks
the result, and this is the only place that converts.  Every other p goes
to the backend: the compiled extension ``_cypoly`` when it was built,
otherwise ``_fp``, which packs odd-p operands into ints itself.  ``mul_mod``
is ``rem`` after ``mul`` at every p.  Both backends and ``_f2`` mirror the
list kernel ``tests/_pypoly.py``, the tests' oracle.
"""

from . import _f2
from ._f2 import pack, unpack

try:
    from . import _cypoly as _backend
except ImportError:
    from . import _fp as _backend


def mul(a: list, b: list, p: int) -> list:
    return unpack(_f2.mul(pack(a), pack(b))) if p == 2 else _backend.mul(a, b, p)


def div_rem(a: list, b: list, p: int) -> tuple[list, list]:
    if p != 2:
        return _backend.div_rem(a, b, p)
    q, r = _f2.div_rem(pack(a), pack(b))
    return unpack(q), unpack(r)


def rem(a: list, b: list, p: int) -> list:
    return unpack(_f2.rem(pack(a), pack(b))) if p == 2 else _backend.rem(a, b, p)


def mul_mod(a: list, b: list, m: list, p: int) -> list:
    return rem(mul(a, b, p), m, p)


def pow_mod(base: list, exp: int, m: list, p: int) -> list:
    if p != 2:
        return _backend.pow_mod(base, exp, m, p)
    return unpack(_f2.pow_mod(pack(base), exp, pack(m)))


def gcd(a: list, b: list, p: int) -> list:
    return unpack(_f2.gcd(pack(a), pack(b))) if p == 2 else _backend.gcd(a, b, p)


def backend_name() -> str:
    """Name of the backend for p != 2: "cython" (compiled) or "python" (the
    packed _fp)."""
    return _backend.BACKEND
