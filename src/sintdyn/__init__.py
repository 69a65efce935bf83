"""Exact periodic-point counts, dynamical zeta series, and growth-rate
limit points for S-integer dynamical systems over F_p(t).

A polynomial over F_2 is held packed into a Python int and runs on the
packed kernel; at odd p the kernel runs on a compiled extension when it
is available and otherwise packed into Python ints per call, and
kernel_backend() reports which of those two is active.
"""

from ._kernel import backend_name as kernel_backend
from .cyclofactor import (
    CycloFactorization,
    CycloPart,
    cyclotomic_poly,
    factor_tn_minus_1,
    splitting_count,
)
from .ffpoly import (
    FieldMismatchError,
    Poly,
    PrimeField,
    factorize,
    is_irreducible,
    poly_divmod,
    poly_gcd,
    poly_powmod,
)
from .limitset import (
    ConstructionRejected,
    ConstructionReport,
    GrowthPoint,
    artin_primes,
    cluster_limits,
    example85_rates,
    growth_sequence,
    verify_construction,
)
from .places import Place, enumerate_places
from .orders import multiplicative_order, ord_brute, ord_in_tn_minus_1, poly_order
from .system import (
    OmegaSource,
    PeriodicExponent,
    SystemSpec,
    example85_system,
    full_shift,
    periodic_count,
    periodic_exponent,
    periodic_exponents,
    preset_system,
    random_system,
    trivial_system,
)
from .zeta import (
    InvalidCountsError,
    ZetaSeries,
    counts_from_series,
    find_linear_recurrence,
    orbit_counts,
    zeta_coefficients,
    zeta_for_system,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 1

__all__ = [
    "CycloFactorization",
    "CycloPart",
    "ConstructionRejected",
    "ConstructionReport",
    "FieldMismatchError",
    "GrowthPoint",
    "InvalidCountsError",
    "OmegaSource",
    "PeriodicExponent",
    "Place",
    "Poly",
    "PrimeField",
    "SystemSpec",
    "ZetaSeries",
    "artin_primes",
    "cluster_limits",
    "counts_from_series",
    "cyclotomic_poly",
    "enumerate_places",
    "example85_rates",
    "example85_system",
    "factor_tn_minus_1",
    "factorize",
    "find_linear_recurrence",
    "full_shift",
    "growth_sequence",
    "is_irreducible",
    "kernel_backend",
    "multiplicative_order",
    "orbit_counts",
    "ord_brute",
    "ord_in_tn_minus_1",
    "periodic_count",
    "periodic_exponent",
    "periodic_exponents",
    "poly_divmod",
    "poly_gcd",
    "poly_order",
    "poly_powmod",
    "preset_system",
    "random_system",
    "splitting_count",
    "trivial_system",
    "verify_construction",
    "zeta_coefficients",
    "zeta_for_system",
]
