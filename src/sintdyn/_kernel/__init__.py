"""Polynomial kernel over F_p: six functions over canonical coefficient
lists, which ``ffpoly`` looks up here at call time.

p = 2 always takes the packed kernel ``_f2``, whatever backend is built.
Every other p goes to the backend: the compiled extension ``_cypoly`` when
it was built, otherwise the pure-Python ``_pypoly``.
"""

from . import _f2

try:
    from . import _cypoly as _backend
except ImportError:
    from . import _pypoly as _backend


def mul(a: list, b: list, p: int) -> list:
    return _f2.mul(a, b) if p == 2 else _backend.mul(a, b, p)


def div_rem(a: list, b: list, p: int) -> tuple[list, list]:
    return _f2.div_rem(a, b) if p == 2 else _backend.div_rem(a, b, p)


def rem(a: list, b: list, p: int) -> list:
    return _f2.rem(a, b) if p == 2 else _backend.rem(a, b, p)


def mul_mod(a: list, b: list, m: list, p: int) -> list:
    return _f2.mul_mod(a, b, m) if p == 2 else _backend.mul_mod(a, b, m, p)


def pow_mod(base: list, exp: int, m: list, p: int) -> list:
    return _f2.pow_mod(base, exp, m) if p == 2 else _backend.pow_mod(base, exp, m, p)


def gcd(a: list, b: list, p: int) -> list:
    return _f2.gcd(a, b) if p == 2 else _backend.gcd(a, b, p)


def backend_name() -> str:
    """Name of the backend for p != 2: "cython" or "python"."""
    return _backend.BACKEND
