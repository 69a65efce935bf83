"""Polynomial kernel over F_p on canonical coefficient lists, which
``ffpoly`` looks up here at call time for odd p: the compiled extension
``_cypoly`` when it was built, otherwise ``_fp``, which packs the operands
into ints itself.  ``mul_mod`` is ``rem`` after ``mul``.  A polynomial over
F_2 is held packed, and ``ffpoly`` runs it on ``_f2`` instead.  Both
backends and ``_f2`` mirror the list kernel ``tests/_pypoly.py``, the tests'
oracle.
"""

try:
    from ._cypoly import BACKEND, div_rem, gcd, mul, pow_mod, rem
except ImportError:
    from ._fp import BACKEND, div_rem, gcd, mul, pow_mod, rem


def mul_mod(a: list, b: list, m: list, p: int) -> list:
    return rem(mul(a, b, p), m, p)


def backend_name() -> str:
    """Name of the backend: "cython" (compiled) or "python" (the packed _fp)."""
    return BACKEND
