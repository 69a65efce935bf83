"""Exact periodic-point counts, dynamical zeta series, and growth-rate
limit points for S-integer dynamical systems over F_p(t).

The heavy polynomial kernels run on a compiled extension when it is
available and fall back to pure Python otherwise; kernel_backend() reports
which one is active.
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
    example85_reference,
    growth_sequence,
    verify_construction,
)
from .places import Place, enumerate_places, product_formula_sum, valuation_exponent
from .orders import multiplicative_order, ord_brute, ord_in_tn_minus_1, poly_order
from .system import (
    OmegaSource,
    PeriodicExponent,
    SystemSpec,
    example85_system,
    full_shift,
    inverted_places_dividing,
    periodic_count,
    periodic_exponent,
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
    "example85_reference",
    "example85_system",
    "factor_tn_minus_1",
    "factorize",
    "find_linear_recurrence",
    "full_shift",
    "growth_sequence",
    "inverted_places_dividing",
    "is_irreducible",
    "kernel_backend",
    "multiplicative_order",
    "orbit_counts",
    "ord_brute",
    "ord_in_tn_minus_1",
    "periodic_count",
    "periodic_exponent",
    "poly_divmod",
    "poly_gcd",
    "poly_order",
    "poly_powmod",
    "preset_system",
    "product_formula_sum",
    "random_system",
    "splitting_count",
    "trivial_system",
    "valuation_exponent",
    "verify_construction",
    "zeta_coefficients",
    "zeta_for_system",
]
