"""Polynomial kernel over F_p: the compiled extension ``_cypoly`` when it
was built, otherwise the pure-Python ``_pypoly``.  Both implement the same
six functions over canonical coefficient lists; ``ffpoly`` looks them up
here at call time.
"""

try:
    from ._cypoly import BACKEND, div_rem, gcd, mul, mul_mod, pow_mod, rem
except ImportError:
    from ._pypoly import BACKEND, div_rem, gcd, mul, mul_mod, pow_mod, rem


def backend_name() -> str:
    """Name of the active backend: "cython" or "python"."""
    return BACKEND
