"""Benchmark the list kernels (compiled, and pure Python: the tests'
reference tests/_pypoly.py) against each other and against the packed
kernels, _f2 at p = 2 and _fp at odd p.  The library runs every
polynomial over F_2 on _f2, so the list kernels are timed at odd p only.

The compiled kernel is built by tests/_cybuild.py, once per source and
interpreter under the system temp dir, and loaded from there, as the tests
do, so its column is present wherever setup.py can compile the committed
C, whichever kernel the package itself imports.
Prints the size of src/ (lines of Python), then times the hot kernel
primitives at several degrees and characteristics (rem and div_rem of one
precomputed product, pow_mod with one fixed 64-bit exponent, so no cell
runs for seconds):
at p = 2 in the "packed" column only (_f2 on ints packed beforehand, as
the library runs it), and at p = 3, 5 and
2**31 - 1 at degree 32 to 1024 on the list backends and the "packed" column
(_fp; pow_mod above degree 256 not on the pure list kernel, which needs
tens of seconds per cell), with the packed/compiled ratio,
plus end-to-end library workloads: the
cyclotomic splitting of every pi_d with d <= 200 at p = 2, 3 and 5 and
d <= 400 at p = 7, t^1023 - 1 over F_2, a
general factorization of t^105 - 1 over F_2, the deep equal-degree splits
of t^n - 1 at (n, p) = (255, 2), (511, 2), (242, 3), (124, 5) and (342, 7),
and a construction check.  The "kernel" column is the library as it
runs: _f2 on packed ints at p = 2 and, at odd p, the compiled kernel when
the package itself was built with it, else _fp; it is timed on every
end-to-end row.  The odd-p end-to-end rows also run entirely on each
list backend; the p = 2 rows run in the "kernel" column only.  The p = 2
rows at degree 128 to 2048 time gcd, rem and pow_mod in the "packed"
column, one cold row splits pi_d for every odd d <= 2000, and one factors
t^45045 - 1 over F_2 ("kernel" column only).  The library caches are
cleared before every repetition, so the end-to-end rows time cold runs.
The construction rows time artin_primes, example85_rates and
enumerate_places in the "kernel" column only, at the sizes of the CLI
workloads and above (enumerate_places up to the admitted limit at p = 2,
degree 18), and artin_primes and example85_rates at their
admitted limits; artin_primes at p = 2 and at p = 3, whose test for
ell = 2 differs.  The verify rows time is_irreducible of
1 + t + ... + t^(nj-1) at p = 2 for nj = 101, 1019 and 30011, and
verify_construction(2, 3, nj) for nj = 1019 and 30011 (the latter once),
"kernel" column only.  The cyclotomic rows build pi_n by cyclotomic_poly for
every n <= 2000 coprime to 2 and every n <= 600 coprime to 3, "kernel"
column only.  The split rows time pi_1023, pi_4095 and pi_8191 alone at
p = 2 (the factors of their proper divisors cached) on the one-factor
route and on the coset-sum split, "kernel" column only.  The cold split
rows split every pi_d up to a bound from a cold cache: at the sizes of the
random-sweep growth jobs, (p, N) = (2, 120), (3, 80) and (5, 60), then at
(p, N) = (3, 400), (5, 400), (7, 300), (3, 1000) and (2**31 - 1, 60) and
every odd d <= 3000 at p = 2, in the "kernel" column and, at odd p, the
compiled one.  The gcd rows time gcd at p = 3, 5, 7 and 11 and degree 12,
36, 72 and 200, the sizes of the coset-sum split, on the list backends and
the "packed" column (_fp), each timing the mean of a batch of calls.  The
series rows time Berlekamp-Massey
(find_linear_recurrence) alone on prebuilt zeta series: two without a
short recurrence and one that has one.  The zeta rows time
zeta_coefficients alone on precomputed counts: the full shift at p = 2,
whose sum is all geometric, the explicit {t^2+t+1, t^3+t+1}, with residues
on the multiples of 3 and 7, and a random system at p = 2, dense.
The orbit rows time orbit_counts alone on the {t^2+t+1, t^3+t+1} counts
at N = 130 and 800.
The system rows time, for each omega mode at p = 2, 3 and 5, the exponent
table periodic_exponents(spec, N) ("table") against one periodic_exponent
call per n ("per-n"), with the factor cache warmed first, so they time
marking and summing and no factoring; at p = 2 the same for the explicit
places {t^2+t+1, t^3+t+1} and 1 + t + ... + t^316 (order 317) at N = 300
and 2000.  The limit rows time the largest
requests zeta and count admit: zeta_for_system of the full shift at p = 2
and p = 2**31 - 1 and of example85 at p = 2 (dense counts) with
n_terms**2 * p.bit_length() at MAX_ZETA_WORK, and the decimal of
2**MAX_COUNT_BITS, "kernel" column only.  A cell that takes
over a second is timed once.  The startup row, printed before the table,
is what `from sintdyn import cli` adds to a bare interpreter's time from
spawn until it is ready for work: the median and quartiles of the paired
differences over STARTUP_PAIRS fresh processes of each kind, alternating
which kind runs first, the standard-library modules that the import
pulls in, and the process's own peak RSS after the import (VmHWM from
/proc/self/status, median of PEAK_RUNS fresh processes).  ru_maxrss is not
used there: a child keeps its parent's high-water mark across exec.  The
front-end row, printed after it, times `cli.main(argv)` in fresh processes
from the end of `import sintdyn.cli` to the entry of the growth handler,
for a valid argv, which the strict reader takes, and for one that falls
back to argparse (the abbreviation --max): median and quartiles of
FRONT_END_RUNS processes each.  With --rev it also times a git revision,
exported with pairs.export_revision: the front-end rows alternating the two
trees, and the gcd and cold split rows in the "rev" column, on the
revision's sintdyn imported under another name (its _fp for gcd, its
_kernel for the splits), alternating with the working tree's "packed" or
"kernel" cell repetition by repetition; "new/rev" is their ratio.

    python benchmarks/bench_kernel.py [--repeats N] [--rev REV]
"""

import argparse
import contextlib
import importlib.util
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # _pypoly and _cybuild live with the tests

import _pypoly
from _cybuild import compiled_kernel  # one build per source, shared with the tests
from pairs import export_revision, src_lines  # benchmarks/pairs.py, this script's directory
import sintdyn
from sintdyn import _kernel, cyclofactor, intmath
from sintdyn._kernel import _f2, _fp
from sintdyn.cli import MAX_COUNT_BITS
from sintdyn.cyclofactor import _cyclotomic_factors, cyclotomic_poly, factor_tn_minus_1
from sintdyn.ffpoly import PrimeField, factorize, is_irreducible
from sintdyn.limitset import (
    MAX_ARTIN_BOUND,
    MAX_Q_BOUND,
    artin_primes,
    example85_rates,
    verify_construction,
)
from sintdyn.orders import _irreducible_order
from sintdyn.places import enumerate_places
from sintdyn.system import (
    OmegaSource,
    SystemSpec,
    example85_system,
    full_shift,
    periodic_exponent,
    periodic_exponents,
    random_system,
    trivial_system,
)
from sintdyn.zeta import (
    MAX_ZETA_WORK,
    find_linear_recurrence,
    orbit_counts,
    zeta_coefficients,
    zeta_for_system,
)


_cypoly = compiled_kernel()  # None when the C does not compile
BACKENDS = {"python": _pypoly} if _cypoly is None else {"cython": _cypoly, "python": _pypoly}
KERNEL_OPS = ("mul", "div_rem", "rem", "mul_mod", "pow_mod", "gcd")
# the fixed 64-bit pow_mod exponent of the primitive rows (2**64 / golden
# ratio, 38 bits set): 64 squarings and 38 products at any p and degree
POW_EXP = 0x9E3779B97F4A7C15
# the list backends, the packed kernel (_f2 at p = 2, _fp at odd p), then
# the library as it runs
COLUMNS = (*BACKENDS, "packed", "kernel")


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _time(fn, repeats, setup=lambda: None):
    return _time_alternating({None: (fn, setup)}, repeats)[None]


def _time_alternating(cells, repeats):
    """{name: best time} of repeats repetitions for cells {name: (fn,
    setup)}, each repetition running every cell once, in an order that
    rotates from one repetition to the next, until every best exceeds a
    second."""
    best = dict.fromkeys(cells, float("inf"))
    names = list(cells)
    for i in range(repeats):
        for name in names[i % len(names):] + names[:i % len(names)]:
            fn, setup = cells[name]
            setup()
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
        if min(best.values()) > 1.0:
            break
    return best


# the name under which main imports the sintdyn package of --rev
REVISION_NAME = "sintdyn_rev"


def _import_revision(src: Path):
    """The sintdyn package under src imported as REVISION_NAME, with the
    modules the "rev" cells call (the package imports its own modules
    relatively, so the two trees share nothing)."""
    spec = importlib.util.spec_from_file_location(
        REVISION_NAME, src / "sintdyn" / "__init__.py",
        submodule_search_locations=[str(src / "sintdyn")],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[REVISION_NAME] = package
    spec.loader.exec_module(package)
    for name in ("cyclofactor", "orders", "ffpoly", "_kernel._fp"):
        importlib.import_module(f"{REVISION_NAME}.{name}")
    return package


def _f2_cases(a, b, m, ab):
    # the p = 2 primitives of _f2 on operands packed beforehand
    x, y, z, xy = map(_f2.pack, (a, b, m, ab))
    return {
        "mul": lambda: _f2.mul(x, y),
        "rem": lambda: _f2.rem(xy, z),
        "div_rem": lambda: _f2.div_rem(xy, z),
        "pow_mod": lambda: _f2.pow_mod(x, POW_EXP, z),
        "gcd": lambda: _f2.gcd(x, y),
    }


def bench_kernel_ops(repeats):
    rows = []
    cells = [(2, degree) for degree in (32, 128, 256)]
    cells += [(p, degree) for p in (3, 5, 2147483647) for degree in (32, 128, 256, 512, 1024)]
    for p, degree in cells:
        rng = random.Random(degree * p % 100003)
        a = _random_poly(rng, p, degree)
        b = _random_poly(rng, p, degree)
        m = _random_poly(rng, p, degree)
        ab = _pypoly.mul(a, b, p)
        cases = {
            "mul": lambda impl: impl.mul(a, b, p),
            "rem": lambda impl: impl.rem(ab, m, p),
            "div_rem": lambda impl: impl.div_rem(ab, m, p),
            "pow_mod": lambda impl: impl.pow_mod(a, POW_EXP, m, p),
            "gcd": lambda impl: impl.gcd(a, b, p),
        }
        f2_cases = _f2_cases(a, b, m, ab) if p == 2 else None
        for op, call in cases.items():
            if f2_cases:  # the library runs p = 2 on _f2 only
                timings = {"packed": _time(f2_cases[op], repeats)}
            else:
                impls = {**BACKENDS, "packed": _fp}
                if op == "pow_mod" and degree > 256:
                    del impls["python"]
                timings = {
                    name: _time(lambda: call(impl), repeats) for name, impl in impls.items()
                }
            rows.append((f"p={p}", f"deg={degree}", op, timings))
    return rows


def bench_packed_ops(repeats):
    # p = 2 at the degrees the cyclotomic split and the Rabin tests reach;
    # pow_mod raises to 2**16 as a Rabin test does (Frobenius powers)
    # ("packed" column only: the library runs p = 2 on _f2)
    rows = []
    for degree in (128, 512, 1024, 2048):
        rng = random.Random(degree)
        x, y, z = (_f2.pack(_random_poly(rng, 2, degree)) for _ in range(3))
        xy = _f2.mul(x, y)
        cases = {
            "gcd": lambda: _f2.gcd(x, y),
            "rem": lambda: _f2.rem(xy, z),
            "pow_mod": lambda: _f2.pow_mod(x, 2**16, z),
        }
        for op, call in cases.items():
            rows.append(("p=2", f"deg={degree}", op, {"packed": _time(call, repeats)}))
    return rows


@contextlib.contextmanager
def _kernel_from(module):
    """Route every sintdyn._kernel call (the odd-p kernel) to module, then
    restore; polynomials over F_2 stay on _f2."""
    active = {op: getattr(_kernel, op) for op in KERNEL_OPS}
    for op in KERNEL_OPS:
        setattr(_kernel, op, getattr(module, op))
    try:
        yield
    finally:
        for op, fn in active.items():
            setattr(_kernel, op, fn)


def _clear_caches(package=sintdyn):
    package.cyclofactor._cyclotomic_factors.cache_clear()
    if hasattr(package.cyclofactor._route, "cache_clear"):  # a revision may not cache it
        package.cyclofactor._route.cache_clear()
    if hasattr(package.cyclofactor, "_order"):  # nor keep an order cache
        package.cyclofactor._order.cache_clear()
    package.orders._irreducible_order.cache_clear()
    package.ffpoly.is_irreducible.cache_clear()


def _split_all(p, bound, package=sintdyn):
    split = package.cyclofactor._cyclotomic_factors
    for d in range(1, bound + 1):
        if d % p:
            split(p, d)


def bench_end_to_end(repeats):
    # label -> (p, workload); the list backends run the odd-p rows only
    rows = []
    workloads = {
        f"_cyclotomic_factors(p={p}, d<={bound})": (p, lambda p=p, b=bound: _split_all(p, b))
        for p, bound in ((2, 200), (3, 200), (5, 200), (7, 400))
    }
    workloads.update({
        "factor_tn_minus_1(F_2, 1023)": (2, lambda: factor_tn_minus_1(PrimeField(2), 1023)),
        "verify_construction(2, 7, 37)": (2, lambda: verify_construction(2, 7, 37)),
    })
    # the general factorizer on inputs whose equal-degree splits run deep
    workloads.update({
        f"factorize(t^{n}-1) over F_{p}": (
            p, lambda n=n, p=p: factorize(PrimeField(p).tn_minus_1(n))
        )
        for n, p in ((105, 2), (255, 2), (511, 2), (242, 3), (124, 5), (342, 7))
    })
    workloads.update({
        "_cyclotomic_factors(p=2, odd d<=2000)": (2, lambda: _split_all(2, 2000)),
        "factor_tn_minus_1(F_2, 45045)": (2, lambda: factor_tn_minus_1(PrimeField(2), 45045)),
    })
    for label, (p, workload) in workloads.items():
        timings = {}
        for name, module in (BACKENDS if p != 2 else {}).items():
            with _kernel_from(module):
                timings[name] = _time(workload, repeats, _clear_caches)
        timings["kernel"] = _time(workload, repeats, _clear_caches)
        rows.append((label, "", "", timings))
    return rows


def bench_construction(repeats):
    # timed only as the library runs them: artin_primes and
    # example85_rates make no kernel call, and enumerate_places sieves with
    # products through _kernel.mul at odd p and on packed ints at p = 2
    cases = {
        f"artin_primes(F_{p}, {bound})": lambda p=p, b=bound: artin_primes(PrimeField(p), b)
        for bound in (20000, 200000, MAX_ARTIN_BOUND)
        for p in (2, 3)
    }
    cases.update({
        f"example85_rates(F_2, {bound})": lambda bound=bound: example85_rates(PrimeField(2), bound)
        for bound in (1000, MAX_Q_BOUND)
    })
    cases.update({
        f"enumerate_places(F_{p}, {k})": lambda p=p, k=k: enumerate_places(PrimeField(p), k)
        for p, k in ((2, 10), (2, 12), (2, 18), (3, 6), (5, 4))
    })
    return [
        (label, "", "", {"kernel": _time(call, repeats)}) for label, call in cases.items()
    ]


def bench_verify(repeats):
    # Rabin tests of pi = 1 + t + ... + t^(nj-1) at p = 2 (one Frobenius
    # chain of nj - 1 squarings each) and the construction checks around
    # them, cold, "kernel" column only; the nj = 30011 check is timed once
    F2 = PrimeField(2)
    cases = {
        f"is_irreducible(pi_{nj}, p=2)": (lambda nj=nj: is_irreducible(F2.poly([1] * nj)), repeats)
        for nj in (101, 1019, 30011)
    }
    cases["verify_construction(2, 3, 1019)"] = (lambda: verify_construction(2, 3, 1019), repeats)
    cases["verify_construction(2, 3, 30011)"] = (lambda: verify_construction(2, 3, 30011), 1)
    return [
        (label, "", "", {"kernel": _time(call, n, _clear_caches)})
        for label, (call, n) in cases.items()
    ]


def bench_cyclotomic(repeats):
    # the Moebius product makes no kernel call: integer lists at odd p, the
    # packed int at p = 2
    cases = {
        f"cyclotomic_poly(F_{p}, n<={bound})": lambda p=p, bound=bound: [
            cyclotomic_poly(PrimeField(p), n) for n in range(1, bound + 1) if n % p
        ]
        for p, bound in ((2, 2000), (3, 600))
    }
    return [
        (label, "", "", {"kernel": _time(call, repeats)}) for label, call in cases.items()
    ]


def bench_split_paths(repeats):
    # pi_d alone at p = 2 on each path, the factors of every proper divisor
    # of d cached first (pi_4095 starts from the lifted factors of pi_1365):
    # the one-factor route at its cut-off, and the coset-sum split with the
    # cut-off above every k; the route cache is cleared with the factor
    # cache, as the cut-off it read moves between the paths
    def warm(d):
        _cyclotomic_factors.cache_clear()
        cyclofactor._route.cache_clear()
        for e in intmath.divisors(d)[:-1]:
            _cyclotomic_factors(2, e)

    rows = []
    cut_off = cyclofactor._BM_MIN_FACTORS
    try:
        for path, threshold in (("one-factor route", cut_off), ("coset split", math.inf)):
            cyclofactor._BM_MIN_FACTORS = threshold
            for d in (1023, 4095, 8191):
                timing = _time(lambda d=d: _cyclotomic_factors(2, d), repeats, lambda d=d: warm(d))
                rows.append((f"split pi_{d} p=2, {path}", "", "", {"kernel": timing}))
    finally:
        cyclofactor._BM_MIN_FACTORS = cut_off
        cyclofactor._route.cache_clear()
    return rows


def bench_cold_splits(repeats, revision=None):
    # every pi_d up to a bound from a cold cache: the random-sweep growth
    # jobs' (p, N) = (2, 120), (3, 80) and (5, 60), then (3, 400), (5, 400),
    # (7, 300), (3, 1000), (2**31 - 1, 60) and every odd d <= 3000 at p = 2;
    # odd p also on the compiled kernel when built, and every row on the
    # revision, alternating with the "kernel" cell
    rows = []
    for p, bound in ((2, 120), (3, 80), (5, 60), (3, 400), (5, 400), (7, 300), (3, 1000),
                     (2**31 - 1, 60), (2, 3000)):
        cells = {"kernel": (lambda p=p, bound=bound: _split_all(p, bound), _clear_caches)}
        if revision:
            cells["rev"] = (lambda p=p, bound=bound: _split_all(p, bound, revision),
                            lambda: _clear_caches(revision))
        timings = _time_alternating(cells, repeats)
        if p != 2 and "cython" in BACKENDS:
            with _kernel_from(BACKENDS["cython"]):
                timings["cython"] = _time(cells["kernel"][0], repeats, _clear_caches)
        rows.append((f"cold split p={p}, every d<={bound}", "", "", timings))
    return rows


def bench_gcd(repeats, revision=None):
    # gcd at the sizes of the coset-sum split, on the list backends, _fp
    # ("packed") and the revision's _fp ("rev"), alternating; each timing is
    # the mean of a batch of calls
    impls = {**BACKENDS, "packed": _fp}
    if revision:
        impls["rev"] = revision._kernel._fp
    rows = []
    for p in (3, 5, 7, 11):
        for degree in (12, 36, 72, 200):
            rng = random.Random(degree * p % 100003)
            a, b = _random_poly(rng, p, degree), _random_poly(rng, p, degree)
            batch = max(1, 2000 // degree)

            def calls(impl, a=a, b=b, p=p, batch=batch):
                for _ in range(batch):
                    impl.gcd(a, b, p)

            cells = {name: (lambda impl=impl: calls(impl), lambda: None)
                     for name, impl in impls.items()}
            timings = _time_alternating(cells, repeats)
            rows.append((f"p={p}", f"deg={degree}", "gcd",
                         {name: t / batch for name, t in timings.items()}))
    return rows


def bench_series(repeats):
    F2, F3 = PrimeField(2), PrimeField(3)
    explicit = SystemSpec(F2, OmegaSource.explicit([F2.poly([1, 1, 1]), F2.poly([1, 1, 0, 1])]))
    cases = {
        "recurrence example85 p=3 N=110 max 20": (example85_system(F3), 110, 20),
        "recurrence {t^2+t+1, t^3+t+1} p=2 N=130 max 30": (explicit, 130, 30),
        "recurrence full p=3 N=300 max 100": (full_shift(F3), 300, 100),
    }
    rows = []
    for label, (spec, n_terms, max_order) in cases.items():
        series = zeta_for_system(spec, n_terms)
        timing = _time(lambda: find_linear_recurrence(series, max_order), repeats)
        # no kernel call: the same timing serves every column
        rows.append((label, "", "", dict.fromkeys(COLUMNS, timing)))
    return rows


def bench_zeta(repeats):
    # the coefficient recurrence alone, on counts computed beforehand
    F2 = PrimeField(2)
    explicit = SystemSpec(F2, OmegaSource.explicit([F2.poly([1, 1, 1]), F2.poly([1, 1, 0, 1])]))
    cases = [("full", full_shift(F2), n_terms) for n_terms in (700, 3162)]
    cases.append(("{t^2+t+1, t^3+t+1}", explicit, 700))
    cases += [("random rho=1/2 seed=1", random_system(F2, Fraction(1, 2), 1), n_terms)
              for n_terms in (120, 700)]
    rows = []
    for name, spec, n_terms in cases:
        counts = [2**e for e in periodic_exponents(spec, n_terms)]
        timing = _time(lambda: zeta_coefficients(counts), repeats)
        rows.append((f"zeta_coefficients({name} p=2 N={n_terms})", "", "", {"kernel": timing}))
    return rows


def bench_limits(repeats):
    # the largest zeta series and count the CLI admits; neither calls the
    # kernel, and the count row prints p**e of MAX_COUNT_BITS bits at p = 2
    cases = {}
    systems = (("full", full_shift, 2), ("full", full_shift, 2147483647),
               ("example85", example85_system, 2))
    for name, system, p in systems:
        n_terms = math.isqrt(MAX_ZETA_WORK // p.bit_length())
        cases[f"zeta_for_system({name} F_{p}, {n_terms})"] = lambda p=p, system=system, n=n_terms: (
            zeta_for_system(system(PrimeField(p)), n)
        )
    cases[f"count decimal(2**{MAX_COUNT_BITS})"] = lambda: intmath.decimal(2**MAX_COUNT_BITS)
    return [
        (label, "", "", {"kernel": _time(call, repeats)}) for label, call in cases.items()
    ]


def _system_rows(label, spec, max_n, repeats):
    periodic_exponents(spec, max_n)  # warms the factor cache
    paths = {
        "table": lambda: periodic_exponents(spec, max_n),
        "per-n": lambda: [periodic_exponent(spec, n) for n in range(1, max_n + 1)],
    }
    return [(label, "", op, {"kernel": _time(call, repeats)}) for op, call in paths.items()]


def bench_system(repeats):
    max_n = 200
    rows = []
    for p in (2, 3, 5):
        field = PrimeField(p)
        specs = (
            full_shift(field),
            trivial_system(field),
            example85_system(field),
            random_system(field, Fraction(1, 2), 1),
        )
        for spec in specs:
            rows += _system_rows(f"system {spec.omega.mode} p={p} N={max_n}", spec, max_n, repeats)
    # explicit places of small order, and one of order 317, above N = 300
    F2 = PrimeField(2)
    places = {
        "{t^2+t+1, t^3+t+1}": [F2.poly([1, 1, 1]), F2.poly([1, 1, 0, 1])],
        "{1+t+...+t^316}": [F2.poly([1] * 317)],
    }
    for name, marked in places.items():
        spec = SystemSpec(F2, OmegaSource.explicit(marked))
        for max_n in (300, 2000):
            rows += _system_rows(f"system explicit {name} p=2 N={max_n}", spec, max_n, repeats)
    return rows


def bench_orbits(repeats):
    # the divisor sieve alone, on counts computed beforehand
    F2 = PrimeField(2)
    explicit = SystemSpec(F2, OmegaSource.explicit([F2.poly([1, 1, 1]), F2.poly([1, 1, 0, 1])]))
    rows = []
    for n_terms in (130, 800):
        counts = [2**e for e in periodic_exponents(explicit, n_terms)]
        timing = _time(lambda: orbit_counts(counts), repeats)
        label = f"orbit_counts({{t^2+t+1, t^3+t+1}} p=2 N={n_terms})"
        rows.append((label, "", "", {"kernel": timing}))
    return rows


STARTUP_PAIRS = 25
# each child prints a line when it is ready; the bare one imports nothing
READY = "print('ready', flush=True)"
WITH_CLI = "from sintdyn import cli; " + READY
# prints the stdlib modules that the import adds, then its own peak RSS in KB
IMPORTED = (
    "import sys; before = set(sys.modules); from sintdyn import cli; "
    "status = open('/proc/self/status').read(); "
    "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
    " & sys.stdlib_module_names)); "
    "print(status.split('VmHWM:')[1].split()[0])"
)
PEAK_RUNS = 5


def _child_env():
    paths = [str(Path(sintdyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _ready_s(code, env):
    """Seconds from spawning `python -c code` until its first line arrives."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env) as child:
        child.stdout.readline()
        seconds = time.perf_counter() - start
        child.communicate()
    return seconds


def bench_startup():
    """(median, lower quartile, upper quartile) of the time the cli import
    adds, the bare interpreter's median, the stdlib modules imported, and
    the median peak RSS in KB of PEAK_RUNS fresh processes after the
    import."""
    env = _child_env()
    added, bare = [], []
    for i in range(STARTUP_PAIRS):
        order = (READY, WITH_CLI) if i % 2 else (WITH_CLI, READY)
        times = {code: _ready_s(code, env) for code in order}
        bare.append(times[READY])
        added.append(times[WITH_CLI] - times[READY])
    lower, median, upper = statistics.quantiles(added, n=4)
    peaks = []
    for _ in range(PEAK_RUNS):
        modules, peak = subprocess.run(
            [sys.executable, "-c", IMPORTED], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        peaks.append(int(peak))
    peak_kb = statistics.median(peaks)
    return (median, lower, upper), statistics.median(bare), modules.split(), peak_kb


FRONT_END_RUNS = 15
# main(argv) in a fresh process, from the end of `import sintdyn.cli` to the
# entry of the growth handler, whose code is swapped for one that stops
FRONT_END = (
    "import sys, time; from sintdyn import cli\n"
    "def entered(args):\n"
    "    raise KeyboardInterrupt\n"
    "cli._cmd_growth.__code__ = entered.__code__\n"
    "start = time.perf_counter()\n"
    "try:\n"
    "    cli.main(sys.argv[1:])\n"
    "except KeyboardInterrupt:\n"
    "    print(time.perf_counter() - start)\n"
)
FRONT_END_ARGV = {
    "valid": ["growth", "--p", "2", "--system", "full", "--max-n", "3"],
    "fallback (--max)": ["growth", "--p", "2", "--system", "full", "--max", "3"],
}


def bench_front_end(src_dirs):
    """{(src dir, kind): (median, lower quartile, upper quartile)} of the
    front-end time of each FRONT_END_ARGV kind, FRONT_END_RUNS fresh
    processes each, alternating the order of the source trees."""
    seconds = {(src, kind): [] for src in src_dirs for kind in FRONT_END_ARGV}
    for i in range(FRONT_END_RUNS):
        for src in src_dirs[i % 2:] + src_dirs[:i % 2]:
            env = {**os.environ, "PYTHONPATH": str(src)}
            for kind, argv in FRONT_END_ARGV.items():
                out = subprocess.run(
                    [sys.executable, "-c", FRONT_END, *argv], env=env, capture_output=True,
                    text=True, check=True,
                ).stdout
                seconds[src, kind].append(float(out))
    return {
        key: (statistics.median(times), *statistics.quantiles(times, n=4)[::2])
        for key, times in seconds.items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--rev", help="also time the front-end, gcd and cold split rows on "
                        "this git revision")
    args = parser.parse_args()

    print(f"src/ size: {src_lines(ROOT)} lines of Python")
    print(f"list backends: {', '.join(BACKENDS)} (package imports: {_kernel.backend_name()})")
    if "cython" not in BACKENDS:
        print("compiled backend does not build; timing the pure list backend only")
    (median, lower, upper), bare, modules, peak_kb = bench_startup()
    print(f"startup: from sintdyn import cli adds {median * 1e3:.1f} ms (quartiles "
          f"{lower * 1e3:.1f}-{upper * 1e3:.1f} ms, {STARTUP_PAIRS} alternating pairs) to a "
          f"bare interpreter's {bare * 1e3:.1f} ms; peak RSS after it (VmHWM, median of "
          f"{PEAK_RUNS}) {peak_kb} KB; stdlib modules: {', '.join(modules)}")
    revision = None
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"working tree": Path(sintdyn.__file__).parents[1]}
        if args.rev:
            export_revision(ROOT, args.rev, Path(tmp))
            trees[args.rev] = Path(tmp) / "src"
            revision = _import_revision(trees[args.rev])
        front_end = bench_front_end(list(trees.values()))
    for name, src in trees.items():
        cells = ", ".join(
            "{} {:.2f} ms ({:.2f}-{:.2f})".format(kind, *(t * 1e3 for t in front_end[src, kind]))
            for kind in FRONT_END_ARGV
        )
        print(f"front end ({name}): main(argv) from the end of the cli import to the handler, "
              f"median (quartiles) of {FRONT_END_RUNS} fresh processes: {cells}")

    rows = bench_kernel_ops(args.repeats) + bench_packed_ops(args.repeats)
    rows += bench_gcd(args.repeats, revision)
    rows += bench_end_to_end(args.repeats) + bench_construction(args.repeats)
    rows += bench_verify(args.repeats)
    rows += bench_cyclotomic(args.repeats) + bench_split_paths(args.repeats)
    rows += bench_cold_splits(args.repeats, revision)
    rows += bench_series(args.repeats) + bench_zeta(args.repeats) + bench_orbits(args.repeats)
    rows += bench_system(args.repeats)
    rows += bench_limits(args.repeats)
    columns = COLUMNS + ("rev",) * bool(revision)
    header = f"{'case':48s} {'op':8s}" + "".join(f" {name:>12s}" for name in columns)
    if "cython" in BACKENDS:
        header += f" {'py/cy':>9s} {'packed/cy':>10s}"
    header += f" {'list/kernel':>12s}"
    if revision:
        header += f" {'new/rev':>9s}"
    print(header)
    print("-" * len(header))
    for case, size, op, timings in rows:
        label = f"{case} {size}".strip()
        line = f"{label:48s} {op:8s}"
        for name in columns:
            line += f" {timings[name] * 1e3:10.3f}ms" if name in timings else f" {'-':>12s}"
        if "cython" in BACKENDS:
            ratio = timings["python"] / timings["cython"] if "python" in timings else None
            line += f" {ratio:8.1f}x" if ratio else f" {'-':>9s}"
            both = {"packed", "cython"} <= timings.keys()  # not the p = 2 rows
            packed = timings["packed"] / timings["cython"] if both else None
            line += f" {packed:9.2f}x" if packed else f" {'-':>10s}"
        fastest_list = min((timings[name] for name in BACKENDS if name in timings), default=None)
        if fastest_list and "kernel" in timings:
            line += f" {fastest_list / timings['kernel']:11.1f}x"
        elif revision:
            line += f" {'-':>12s}"
        if "rev" in timings:  # the packed gcd or the kernel split against the revision's
            line += f" {timings['packed' if op == 'gcd' else 'kernel'] / timings['rev']:8.3f}x"
        print(line)


if __name__ == "__main__":
    main()
