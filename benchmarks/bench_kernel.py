"""Benchmark the compiled kernel against the pure-Python fallback.

Times the four hot kernel primitives at several degrees and characteristics,
plus end-to-end library workloads running entirely on each backend: the
cyclotomic splitting of every pi_d with d <= 200, t^1023 - 1 over F_2, a
general factorization and a construction check.  The library caches are
cleared before every repetition, so these rows time cold runs.

    python benchmarks/bench_kernel.py [--repeats N]
"""

import argparse
import random
import time

from sintdyn import _kernel
from sintdyn.cyclofactor import _cyclotomic_coeffs, _cyclotomic_factors, factor_tn_minus_1
from sintdyn.ffpoly import PrimeField, factorize
from sintdyn.limitset import verify_construction
from sintdyn.orders import _irreducible_order


def _random_poly(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _time(fn, repeats, setup=lambda: None):
    best = float("inf")
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_kernel_ops(repeats):
    rows = []
    for p in (2, 5, 2147483647):
        for degree in (32, 128, 256):
            rng = random.Random(degree * p % 100003)
            a = _random_poly(rng, p, degree)
            b = _random_poly(rng, p, degree)
            m = _random_poly(rng, p, degree)
            exp = (p**degree - 1) // 2 if p < 100 else 2**521 - 1
            cases = {
                "mul": lambda impl: impl.mul(a, b, p),
                "rem": lambda impl: impl.rem(impl.mul(a, b, p), m, p),
                "pow_mod": lambda impl: impl.pow_mod(a, exp, m, p),
                "gcd": lambda impl: impl.gcd(a, b, p),
            }
            for op, call in cases.items():
                timings = {}
                for name in _kernel.available_backends():
                    impl = _kernel._module_for(name)
                    timings[name] = _time(lambda: call(impl), repeats)
                rows.append((f"p={p}", f"deg={degree}", op, timings))
    return rows


def _clear_caches():
    _cyclotomic_factors.cache_clear()
    _cyclotomic_coeffs.cache_clear()
    _irreducible_order.cache_clear()


def _split_all(p, bound):
    for d in range(1, bound + 1):
        if d % p:
            _cyclotomic_factors(p, d)


def bench_end_to_end(repeats):
    rows = []
    workloads = {
        f"_cyclotomic_factors(p={p}, d<=200)": lambda p=p: _split_all(p, 200)
        for p in (2, 3, 5)
    }
    workloads.update({
        "factor_tn_minus_1(F_2, 1023)": lambda: factor_tn_minus_1(PrimeField(2), 1023),
        "factorize(t^105-1) over F_2": lambda: factorize(PrimeField(2).tn_minus_1(105)),
        "verify_construction(2, 7, 37)": lambda: verify_construction(2, 7, 37),
    })
    for label, workload in workloads.items():
        timings = {}
        for name in _kernel.available_backends():
            with _kernel.backend(name):
                timings[name] = _time(workload, repeats, _clear_caches)
        rows.append((label, "", "", timings))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    args = parser.parse_args()

    backends = _kernel.available_backends()
    print(f"available backends: {', '.join(backends)} (active: {_kernel.backend_name()})")
    if "cython" not in backends:
        print("compiled backend not built; timing the pure backend only")

    rows = bench_kernel_ops(args.repeats) + bench_end_to_end(args.repeats)
    header = f"{'case':40s} {'op':8s}" + "".join(f" {name:>12s}" for name in backends)
    if len(backends) == 2:
        header += f" {'speedup':>9s}"
    print(header)
    print("-" * len(header))
    for case, size, op, timings in rows:
        label = f"{case} {size}".strip()
        line = f"{label:40s} {op:8s}"
        for name in backends:
            line += f" {timings[name] * 1e3:10.3f}ms"
        if len(backends) == 2:
            line += f" {timings['python'] / timings['cython']:8.1f}x"
        print(line)


if __name__ == "__main__":
    main()
