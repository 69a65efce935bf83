"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its elapsed time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from sintdyn import intmath, kernel_backend
from sintdyn.cli import main as cli_main
from sintdyn.cyclofactor import cyclotomic_poly, splitting_count
from sintdyn.ffpoly import PrimeField, factorize
from sintdyn.limitset import artin_primes, growth_sequence, verify_construction
from sintdyn.orders import multiplicative_order, ord_brute, ord_in_tn_minus_1
from sintdyn.system import (
    example85_system,
    full_shift,
    periodic_count,
    periodic_exponent,
    random_system,
    trivial_system,
)
from sintdyn.zeta import find_linear_recurrence, orbit_counts, zeta_for_system

from oracles import example85_reference, sieve_irreducibles

print(f"[acceptance] kernel backend: {kernel_backend()}")


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS ({elapsed:.2f}s < {budget_seconds:g}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


def test_criterion_01_full_shift():
    with criterion(1, "full shift: counts p^n, zeta 1/(1-pz), order-1 recurrence", 1.0):
        for p in (2, 3, 5):
            spec = full_shift(PrimeField(p))
            for n in range(1, 51):
                assert periodic_count(spec, n) == p**n
            series = zeta_for_system(spec, 30)
            assert series.terms == tuple(p**m for m in range(31))
            recurrence = find_linear_recurrence(series, 3)
            assert recurrence == (Fraction(p),)


def test_criterion_02_trivial_system():
    with criterion(2, "trivial system: e_n = 0, zeta 1/(1-z), order-1 recurrence", 1.0):
        for p in (2, 3, 5):
            spec = trivial_system(PrimeField(p))
            for n in range(1, 51):
                assert periodic_exponent(spec, n) == 0
            series = zeta_for_system(spec, 30)
            assert series.terms == tuple([1] * 31)
            assert find_linear_recurrence(series, 3) == (Fraction(1),)


def test_criterion_03_example85_law():
    with criterion(3, "example85 law: rate_n = 1 - 1/n' for n <= 1000, exact set", 5.0):
        for p in (2, 3):
            field = PrimeField(p)
            points = growth_sequence(example85_system(field), 1000)
            for gp in points:
                n_coprime, _ = intmath.coprime_part(gp.n, p)
                assert gp.rate == 1 - Fraction(1, n_coprime), gp
            observed = {gp.rate for gp in points}
            reference = example85_reference(field, 1000)
            # 1 is the adjoined limit rate; every finite-n rate misses it
            assert observed == reference - {Fraction(1)}


def test_criterion_04_cyclotomic_splitting():
    with criterion(4, "cyclotomic splitting: phi(n)/ord_n(p) equal-degree factors", 10.0):
        for p in (2, 3, 5):
            field = PrimeField(p)
            for n in range(2, 61):
                if n % p == 0:
                    continue
                count, degree = splitting_count(field, n)
                assert degree == multiplicative_order(p, n)
                pi = cyclotomic_poly(field, n)
                pairs = factorize(pi)
                assert len(pairs) == count
                assert all(v.degree == degree and mult == 1 for v, mult in pairs)
                product = field.one
                for v, _ in pairs:
                    product = product * v
                assert product == pi


def test_criterion_05_order_oracle_equivalence():
    with criterion(5, "ord_in_tn_minus_1 = ord_brute, deg <= 6, p in {2,3}, n <= 100", 10.0):
        for p in (2, 3):
            field = PrimeField(p)
            for v in sieve_irreducibles(field, 6):
                if v == field.t:
                    continue
                for n in range(1, 101):
                    assert ord_in_tn_minus_1(v, n) == ord_brute(v, field.tn_minus_1(n))


def test_criterion_06_construction_verification():
    with criterion(6, "construction: multiplicity 1, B offset 1, gap <= 1/nj", 10.0):
        field = PrimeField(2)
        artin = artin_primes(field, 200)
        for q in (3, 5, 7):
            njs = [a for a in artin if a > q][:5]
            assert len(njs) == 5
            for nj in njs:
                report = verify_construction(2, q, nj)
                assert report.all_checks_pass, (q, nj, report.failed_checks())
                assert report.pi_irreducible
                assert report.multiplicity_in_qnj == 1
                assert report.qnj_split_count <= q - 1
                assert report.qnj_min_factor_degree >= nj - 1
                assert report.b_exponent == 1
                assert report.rate_gap <= Fraction(1, nj)


def test_criterion_07_product_formula():
    with criterion(7, "product formula: 1000 random f per p, exponent sum 0", 2.0):
        import random

        from oracles import product_formula_sum

        for p in (2, 3, 5):
            field = PrimeField(p)
            rng = random.Random(90_000 + p)
            checked = 0
            while checked < 1000:
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(9) + 1)]
                num = field.poly(coeffs)
                if num.is_zero:
                    continue
                den = field.one
                if checked % 2:
                    den_coeffs = [rng.randrange(p) for _ in range(rng.randrange(9) + 1)]
                    den = field.poly(den_coeffs)
                    if den.is_zero:
                        den = field.one
                assert product_formula_sum(num, den) == 0
                checked += 1


def test_criterion_08_integrality_suite():
    with criterion(8, "random systems: integral zeta/orbit counts, 0 <= e <= n", 5.0):
        for p in (2, 3):
            field = PrimeField(p)
            for seed in (1, 2, 3):
                for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    spec = random_system(field, rho, seed)
                    exponents = [periodic_exponent(spec, n) for n in range(1, 41)]
                    assert all(0 <= e <= n for n, e in zip(range(1, 41), exponents))
                    counts = [p**e for e in exponents]
                    series = zeta_for_system(spec, 40)
                    assert all(isinstance(a, int) and a >= 0 for a in series.terms)
                    orbits = orbit_counts(counts)
                    assert all(isinstance(o, int) and o >= 0 for o in orbits)


def test_criterion_09_irrationality_evidence():
    with criterion(9, "example85 p=2: no recurrence of order <= 5 in 60 terms", 1.0):
        series = zeta_for_system(example85_system(PrimeField(2)), 60)
        assert find_linear_recurrence(series, 5) is None


def test_criterion_10_cli_reproducibility(capsys, tmp_path):
    with criterion(10, "CLI: byte-identical output for fixed flags", 10.0):
        flag_sets = [
            ["count", "--p", "2", "--system", "full", "--n", "10"],
            ["count", "--p", "3", "--system", "random", "--rho", "1/2", "--seed", "42", "--n", "24"],
            ["growth", "--p", "3", "--system", "example85", "--max-n", "60", "--format", "csv"],
            ["zeta", "--p", "2", "--system", "random", "--rho", "1/4", "--seed", "7",
             "--terms", "30", "--max-order", "4", "--orbits"],
            ["verify", "--p", "2", "--q", "3", "--nj", "5", "--format", "json"],
            ["limits", "--p", "2", "--system", "example85", "--max-n", "300",
             "--epsilon", "1/100", "--tail-fraction", "1/2"],
            ["factor", "--p", "5", "--n", "50", "--format", "csv"],
            ["places", "--p", "3", "--max-degree", "3"],
            ["artin", "--p", "2", "--bound", "100"],
            ["example85", "--p", "2", "--q-bound", "20"],
        ]
        for argv in flag_sets:
            assert cli_main(argv) == 0
            first = capsys.readouterr().out
            assert cli_main(argv) == 0
            second = capsys.readouterr().out
            assert first.encode() == second.encode(), argv
            assert first.endswith("\n")
