"""Mutation check: does Tier-1 notice when a rule of the library is broken?

    python3 benchmarks/mutate.py [--only NAME ...]

Run from anywhere inside the checkout; only the standard library and the
installed pytest are used.  The checkout (without .git, bytecode and build
output) is copied into a temporary directory once.  Each mutant in
MUTANTS replaces one exact snippet of one file under src/sintdyn in that
copy, runs

    python -m pytest -x -q -p no:cacheprovider <test files>

with the files that cover the mutant first and every other test file
after them (so a survivor has passed all of Tier-1), prints "killed" or
"survived" with the first failing test, and restores the file.  The
mutants in EQUIVALENT change no result the library can return, so they
are expected to survive; each carries its reason.  A snippet that is not
found exactly once stops the run, so the list cannot go stale silently.
Exit status 0 when every mutant in MUTANTS is killed and every one in
EQUIVALENT survives, else 1.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/sintdyn, snippet, replacement, covering test files)
MUTANTS = (
    # e_n = n - p**k * M(n') and its p**k multiplicity
    ("exponent_formula", "system.py",
     "e = n - p_power * marked", "e = n - marked", ("test_system.py",)),
    ("single_n_multiplicity", "system.py",
     "return _exponent(n, p**k, _marked_degree(spec, n_coprime))",
     "return _exponent(n, p * k or 1, _marked_degree(spec, n_coprime))", ("test_system.py",)),
    ("table_multiplicity", "system.py",
     "e, n = e * p, n * p", "e, n = e + n * (p - 1), n * p", ("test_system.py",)),
    ("place_multiplicity", "orders.py",
     "return p**e if _divides_t_power_minus_1(v, n_coprime) else 0",
     "return e + 1 if _divides_t_power_minus_1(v, n_coprime) else 0", ("test_orders.py",)),
    # the divisor sieves
    ("marked_degree_sieve", "system.py",
     "for m in range(d, max_n + 1, d):", "for m in range(d, max_n, d):", ("test_system.py",)),
    ("random_divisor_sum", "system.py",
     "for d in intmath.divisors(n_coprime))", "for d in intmath.divisors(n_coprime)[1:])",
     ("test_system.py",)),
    ("place_order_bound", "orders.py",
     "(m for m in range(1, bound + 1)", "(m for m in range(1, bound)", ("test_system.py",)),
    ("orbit_sieve", "zeta.py",
     "for m in range(2 * n - 1, len(rest), n):", "for m in range(2 * n, len(rest), n):",
     ("test_zeta.py",)),
    # the Horner split of the zeta recurrence
    ("horner_step", "zeta.py",
     "geometric = base * (geometric + terms[-1])", "geometric = base * geometric + terms[-1]",
     ("test_zeta.py",)),
    ("residue_mask", "zeta.py",
     "mask = [r != 0 for r in residues]", "mask = [r > 0 for r in residues]", ("test_zeta.py",)),
    # the Frobenius chain of the Rabin test
    ("chain_checkpoints", "ffpoly.py",
     "for k in sorted(m // ell for ell in intmath.factorint(m)):",
     "for k in sorted(m // ell for ell in intmath.factorint(m))[1:]:", ("test_ffpoly.py",)),
    ("chain_end", "ffpoly.py",
     "return poly_powmod(h, p ** (m - k_prev), g) == t", "return True", ("test_ffpoly.py",)),
    # the one conversion between Poly and kernel values, and the one
    # reduction and strip of Poly.__init__ that the odd-p builders share
    ("poly_init_strip", "ffpoly.py",
     "while c and not c[-1]:", "while False:", ("test_ffpoly.py",)),
    ("run_wrong_p", "ffpoly.py",
     "return getattr(_kernel, op)(*values, self.p)", "return getattr(_kernel, op)(*values, 3)",
     ("test_ffpoly.py",)),
    ("add_truncates", "ffpoly.py",
     "zip_longest(a.coeffs, b.coeffs, fillvalue=0)", "zip(a.coeffs, b.coeffs)",
     ("test_ffpoly.py",)),
    ("neg_unsigned", "ffpoly.py",
     "[-c for c in self.coeffs]", "[c for c in self.coeffs]", ("test_ffpoly.py",)),
    ("derivative_unscaled", "ffpoly.py",
     "[i * c for i, c in enumerate(self.coeffs)][1:]", "[c for i, c in enumerate(self.coeffs)][1:]",
     ("test_ffpoly.py",)),
    ("f2_wrap_shifted", "ffpoly.py",
     "return _F2Poly(self, value)", "return _F2Poly(self, value >> 1)", ("test_ffpoly.py",)),
    # the lift of pi_{d/q} to pi_d
    ("lift_condition", "cyclofactor.py",
     "for q, v in primes.items() if v > 1]", "for q, v in primes.items() if v > 0]",
     ("test_cyclofactor.py",)),
    ("lift_choice", "cyclofactor.py",
     "= min(lifts,", "= max(lifts,", ("test_cyclofactor.py",)),
    ("lift_coset_skip", "cyclofactor.py",
     "coset[0] % q != 0)", "coset[0] % q != 1)", ("test_cyclofactor.py",)),
    # the route of pi_d, read by the split and by its charge: the pieces are
    # the factors, one factor and Berlekamp-Massey (p = 2 only), or coset sums
    ("lifted_pieces_irreducible", "cyclofactor.py",
     "    if m == r:\n", "    if m >= r:\n", ("test_cyclofactor.py",)),
    ("unsplit_lift_charged", "cyclofactor.py",
     "    if m == r:\n", "    if m == r and k == 1:\n", ("test_cyclofactor.py",)),
    ("odd_p_lift_charged", "cyclofactor.py",
     "    if m == r:\n", "    if m == r and p == 2:\n", ("test_cyclofactor.py",)),
    ("bm_threshold", "cyclofactor.py",
     "if k >= _BM_MIN_FACTORS", "if k > _BM_MIN_FACTORS", ("test_cyclofactor.py",)),
    ("one_factor_at_odd_p", "cyclofactor.py",
     '    return Route(k, r, m, q, "coset sums")\n',
     '    return Route(k, r, m, q, "one factor" if k >= _BM_MIN_FACTORS else "coset sums")\n',
     ("test_cyclofactor.py",)),
    # the route cache, shared by the charge and the split, keyed by d alone:
    # each p reads the route of the first p asked for that d
    ("route_cache_without_p", "cyclofactor.py",
     "@functools.lru_cache(maxsize=None)\ndef _route(",
     "class _AnyP(int):\n"
     "    __eq__ = lambda self, other: True\n"
     "    __hash__ = lambda self: 0\n\n\n"
     "def _keyed_by_d(route):\n"
     "    cached = functools.lru_cache(maxsize=None)(lambda p, d: route(int(p), d))\n"
     "    wrapper = lambda p, d: cached(_AnyP(p), d)\n"
     "    wrapper.cache_clear, wrapper.cache_info = cached.cache_clear, cached.cache_info\n"
     "    return wrapper\n\n\n"
     "@_keyed_by_d\ndef _route(",
     ("test_cyclofactor.py",)),
    # the odd-p routes from a smaller pi_m: the twists x**(-r) * f(x t) by
    # the primitive e-th roots of unity x, e the product of the prime powers
    # of d that divide p - 1, and the quotient pieces f(t**q) / f_s(t)
    ("twist_exponent_sign", "cyclofactor.py",
     "pow(x, 1 - len(f), p)", "pow(x, len(f) - 1, p)", ("test_cyclofactor.py",)),
    ("twist_root_order", "cyclofactor.py",
     "if all(pow(w, e // q, p) != 1 for q in intmath.factorint(e)):", "if True:",
     ("test_cyclofactor.py",)),
    ("twist_prime_power_not_dividing", "cyclofactor.py",
     "if (p - 1) % q**v == 0)", "if (p - 1) % q == 0)", ("test_cyclofactor.py",)),
    ("quotient_first_factor", "cyclofactor.py",
     "                if not rest:\n", "                if True:\n", ("test_cyclofactor.py",)),
    # the one builder of the pieces of pi_d from the factors of pi_{d/q}:
    # f(t**q), divided by a factor of pi_{d/q} only when q does not divide
    # d/q, and the orders r' = ord_{d/q}(p) read from the order cache
    ("pieces_divided_when_q_divides", "cyclofactor.py",
     "        if m % q:\n", "        if True:\n", ("test_cyclofactor.py",)),
    ("lift_order_wrong_index", "cyclofactor.py",
     "(q * _order(p, d // q), q)", "(q * _order(p, q), q)", ("test_cyclofactor.py",)),
    ("quotient_order_wrong_index", "cyclofactor.py",
     "((q - 1) * _order(p, d // q), q)", "((q - 1) * _order(p, q), q)",
     ("test_cyclofactor.py",)),
    ("quotient_not_smaller", "cyclofactor.py",
     "(quotient := min(quotients))[0] < m:", "(quotient := min(quotients))[0] <= m:",
     ("test_cyclofactor.py",)),
    ("quotient_at_p2", "cyclofactor.py",
     "    if p == 2:\n", "    if p == 2 and k >= _BM_MIN_FACTORS:\n", ("test_cyclofactor.py",)),
    # the coset-sum split, one loop on kernel values: packed ints on _f2 at
    # p = 2, lists on _kernel at odd p
    ("split_quotient", "cyclofactor.py",
     "rest = kernel.div_rem(rest, h, p)[0]", "rest = h", ("test_cyclofactor.py",)),
    ("split_factor_size", "cyclofactor.py",
     "(factors if size(rest) == r + 1 else pending)", "(factors if size(rest) == r else pending)",
     ("test_cyclofactor.py",)),
    ("split_shift", "cyclofactor.py",
     "_plus_constant(g, rng.randrange(p), p)", "_plus_constant(g, rng.randrange(p) * 0, p)",
     ("test_cyclofactor.py",)),
    ("split_minus_one", "cyclofactor.py",
     "_plus_constant(w, p - 1, p)", "_plus_constant(w, 0, p)", ("test_cyclofactor.py",)),
    # the class split at p <= _CLASS_SPLIT_MAX_P: gcd(rest, g - c) for
    # c = 0, ..., p - 2, then the rest as the class of p - 1
    ("class_split_value_dropped", "cyclofactor.py",
     "range(1 if rng else p - 1)", "range(1 if rng else p - 2)", ("test_cyclofactor.py",)),
    ("class_split_last_class_dropped", "cyclofactor.py",
     "            (factors if size(rest) == r + 1 else pending).append(rest)\n",
     "            pass\n", ("test_cyclofactor.py",)),
    ("class_split_threshold", "cyclofactor.py",
     "if p > _CLASS_SPLIT_MAX_P else None", "if p >= _CLASS_SPLIT_MAX_P else None",
     ("test_cyclofactor.py",)),
    ("coset_sum_coefficients", "cyclofactor.py",
     "e[i] = 1", "e[i - 1] = 1", ("test_cyclofactor.py",)),
    # the p = 2 route: every factor of pi_d from one, by Berlekamp-Massey
    ("bm_sequence_length", "cyclofactor.py",
     "for n in range(2 * r):", "for n in range(2 * r - 1):", ("test_cyclofactor.py",)),
    # the gcd of _fp on byte slots: reduced by a translate table, in runs
    # that fit in a byte
    ("residue_table", "_kernel/_fp.py",
     "bytes(v % p for v in range(256))", "bytes(v % (p + 1) for v in range(256))",
     ("test_kernel_backends.py",)),
    ("byte_run_one_step_long", "_kernel/_fp.py",
     "(run := (mask - bx) // ((p - 1) * by)) < nq",
     "(run := (mask - bx) // ((p - 1) * by) + 1) < nq",
     ("test_kernel_backends.py",)),
    # the Artin-prime sieve: ell = 2 by q mod 8 at p = 2 and by Euler's
    # test at odd p, then every odd ell
    ("artin_residue_7", "limitset.py",
     "for residue in (1, 7):", "for residue in (1, 5):", ("test_limitset.py",)),
    ("artin_residue_1_kept", "limitset.py",
     "for residue in (1, 7):", "for residue in (7,):", ("test_limitset.py",)),
    ("artin_euler_pass", "limitset.py",
     "yield from compress(qs, map(ne, map(pow, repeat(p), halves, qs), repeat(1)))",
     "yield from qs", ("test_limitset.py",)),
    ("artin_first_odd_ell_only", "limitset.py",
     "m //= ell\n            while not m % ell:", "m = 1\n            while not m % ell:",
     ("test_limitset.py",)),
    # the place t, refused as a mark
    ("mark_t_excluded", "system.py",
     "if v.degree == 1 and v.constant_term == 0:", "if v.degree == 1 and v.constant_term == 1:",
     ("test_system.py",)),
    # the one record base: equal only within one class
    ("record_eq_any_class", "system.py",
     "if other.__class__ is not self.__class__:", "if False:", ("test_system.py",)),
    # the mark threshold floor((1 - rho) * 2**64)
    ("mark_threshold", "system.py",
     "(self.rho.denominator - self.rho.numerator)", "self.rho.numerator", ("test_system.py",)),
    # the two refusal rules: every size limit and every sign check goes
    # through one comparison each
    ("at_most_inclusive", "intmath.py",
     "if value > limit:", "if value >= limit:", ("test_cli.py",)),
    ("positive_admits_zero", "intmath.py",
     "if value <= 0:", "if value < 0:", ("test_intmath.py", "test_cli.py")),
    # the work budgets and the p = 2 split charge
    ("factor_budget_shortcut", "cyclofactor.py",
     "if 16384 * n_coprime > MAX_FACTOR_WORK:", "if 16384 * n_coprime >= MAX_FACTOR_WORK:",
     ("test_cyclofactor.py",)),
    ("p2_split_charge", "cyclofactor.py",
     "(k * r if k == 2 else d)", "(k * r if k == 2 else k * r)", ("test_cyclofactor.py",)),
    ("p2_one_coset_sum_at_k2", "cyclofactor.py",
     "(k * r if k == 2 else d)", "(k * r if k < 2 else d)", ("test_cyclofactor.py",)),
    ("odd_p_split_rounds", "cyclofactor.py",
     "k.bit_length() ** 2 * (k * r) ** 2", "k.bit_length() * (k * r) ** 2", ("test_cli.py",)),
    ("route_charge", "cyclofactor.py",
     "else 2 * d * d", "else d * d", ("test_cli.py",)),
    ("quotient_charged_as_lift", "cyclofactor.py",
     'elif name != "lift":', 'elif name not in ("lift", "quotient"):', ("test_cyclofactor.py",)),
    # a descent from a small lifted piece by squarings
    ("descent_regime", "cyclofactor.py",
     "if r * m < d else", "if r * m < 0 else", ("test_cyclofactor.py",)),
    ("verify_charged", "limitset.py",
     '_check_work("verify: verify_work(p, q, nj)", verify_work(p, q, nj))',
     '_check_work("verify: verify_work(p, q, nj)", factor_work(p, q * nj))', ("test_cli.py",)),
    ("count_charged", "system.py",
     'if spec.omega.mode == "random":', 'if spec.omega.mode == "explicit":', ("test_cli.py",)),
    # an explicit place is charged by the largest exponent of its terms,
    # every --place flag summed, before any coefficient list is built
    ("place_first_only_charged", "cli.py",
     "sum(place_work(field.p, max(place)) for place in terms)",
     "place_work(field.p, max(terms[0]))", ("test_cli.py",)),
    ("place_degree_smallest_exponent", "cli.py",
     "place_work(field.p, max(place))", "place_work(field.p, min(place))", ("test_cli.py",)),
    # a flag's errors are named by the flag, through one helper
    ("named_drops_flag", "cli.py",
     'raise ValueError(f"{flag}: {exc}") from None', 'raise ValueError(f"{exc}") from None',
     ("test_cli.py",)),
    ("place_work_linear_at_p2", "system.py",
     "return m * m * (4096 + m)", "return m * (4096 + m)", ("test_cli.py",)),
    # the strict command-line reader takes only what argparse reads the same
    # way, and the growth document writes its points by hand
    ("reader_flag_prefix", "cli.py",
     "spec = flags.get(flag)",
     "flag = next((f for f in flags if f.startswith(flag)), flag); spec = flags.get(flag)",
     ("test_cli.py",)),
    ("reader_no_choices", "cli.py",
     'if "choices" in spec and value not in spec["choices"]:', "if False:", ("test_cli.py",)),
    ("reader_no_required", "cli.py",
     'if flag not in values and spec.get("required"):', "if False:", ("test_cli.py",)),
    ("reader_shared_place_list", "cli.py",
     'flag: list(spec["default"]) for flag', 'flag: spec["default"] for flag', ("test_cli.py",)),
    ("reader_dash_value", "cli.py",
     'value.startswith("-")', 'value.startswith("--")', ("test_cli.py",)),
    ("reader_no_type", "cli.py",
     'value = spec.get("type", str)(value)', "value = str(value)", ("test_cli.py",)),
    ("growth_json_num_den", "cli.py",
     '{gp.rate.numerator},\'\n            f\'"den":{gp.rate.denominator}',
     '{gp.rate.denominator},\'\n            f\'"den":{gp.rate.numerator}', ("test_cli.py",)),
    # each check of verify_construction made vacuous
    ("check_pi_irreducible", "limitset.py",
     '("pi_irreducible", pi_irreducible)', '("pi_irreducible", True)', ("test_limitset.py",)),
    ("check_multiplicity_one", "limitset.py",
     '("multiplicity_one", mult_fast == 1 and mult_brute == 1)', '("multiplicity_one", True)',
     ("test_limitset.py",)),
    ("check_split_count", "limitset.py",
     '("split_count", split_count <= q - 1)', '("split_count", True)', ("test_limitset.py",)),
    ("check_min_factor_degree", "limitset.py",
     '("min_factor_degree", min_degree >= nj - 1)', '("min_factor_degree", True)',
     ("test_limitset.py",)),
    ("check_squarefree", "limitset.py",
     '("squarefree", poly_gcd(pi_qnj, pi_qnj.derivative()).degree == 0)',
     '("squarefree", True)', ("test_limitset.py",)),
    ("check_exponent_consistent", "limitset.py",
     '("exponent_consistent", e_qnj == e_direct)', '("exponent_consistent", True)',
     ("test_limitset.py",)),
    ("check_exponent_value", "limitset.py",
     '("exponent_value", e_qnj == target - (nj - 1) - fixed_contribution)',
     '("exponent_value", True)', ("test_limitset.py",)),
    ("check_b_exponent", "limitset.py",
     '("b_exponent", b_exponent == 1 - fixed_contribution and 0 <= b_exponent <= 1)',
     '("b_exponent", True)', ("test_limitset.py",)),
    ("check_rate_gap", "limitset.py",
     '("rate_gap", rate_gap <= Fraction(1, nj))', '("rate_gap", True)', ("test_limitset.py",)),
)

# (name, file, snippet, replacement, covering test files, reason)
EQUIVALENT = (
    ("rate_gap_strict", "limitset.py",
     "rate_gap <= Fraction(1, nj)", "rate_gap < Fraction(1, nj)", ("test_limitset.py",),
     "the gap is 1/(q nj) or 0 for every accepted triple, never 1/nj"),
    ("mark_draw_inclusive", "system.py",
     '< self._threshold else 0', '<= self._threshold else 0', ("test_system.py",),
     "a draw differs from the threshold's mark only when it equals the threshold, "
     "with probability 2**-64"),
    ("bm_no_pairing", "cyclofactor.py",
     "if seen[d - j]:  # -C = C", "if True:", ("test_cyclofactor.py",),
     "without the pairing every coset C gets the factor of -C; as C runs over the cosets "
     "so does -C, and the factor set of pi_d is closed under reverse"),
    ("split_f2_shifted", "cyclofactor.py",
     "x = g if p == 2 else", "x = g ^ 1 if p == 2 else", ("test_cyclofactor.py",),
     "at p = 2 the shift a = 1 gives e_C + 1, which is 1 at the factors where e_C is 0 and "
     "0 where it is 1, so gcd(u, e_C + 1) is u / gcd(u, e_C): the same two parts, swapped"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", "build", "*.egg-info", ".pytest_cache")


def run_tests(tree: Path, first: tuple[str, ...]) -> tuple[bool, str]:
    """(passed, the first failing test or "") for Tier-1 with -x, the files
    in first run before every other test file."""
    rest = sorted(p.name for p in (tree / "tests").glob("test_*.py") if p.name not in first)
    files = [f"tests/{name}" for name in (*first, *rest)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = next((line for line in done.stdout.splitlines() if line.startswith("FAILED ")), "")
    if done.returncode and not failed:  # an error before any test failed
        failed = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "error"
    return done.returncode == 0, failed.removeprefix("FAILED ")


def apply(tree: Path, name: str, path: str, old: str, new: str) -> tuple[Path, str]:
    target = tree / "src" / "sintdyn" / path
    source = target.read_text()
    if source.count(old) != 1:
        sys.exit(f"{name}: the snippet {old!r} is not in {path} exactly once")
    target.write_text(source.replace(old, new))
    return target, source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args()
    cases = [(*m, None) for m in MUTANTS] + list(EQUIVALENT)
    if args.only:
        cases = [case for case in cases if case[0] in args.only]
    start = time.perf_counter()
    survivors, killed_equivalents = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        passed, failed = run_tests(tree, ())
        if not passed:
            sys.exit(f"Tier-1 fails before any mutation: {failed}")
        for name, path, old, new, first, reason in cases:
            began = time.perf_counter()
            target, source = apply(tree, name, path, old, new)
            try:
                passed, failed = run_tests(tree, first)
            finally:
                target.write_text(source)
            verdict = "survived" if passed else "killed"
            tag = " (equivalent)" if reason else ""
            print(f"{verdict:8s} {name}{tag} [{time.perf_counter() - began:.1f} s] {failed}",
                  flush=True)
            if passed and not reason:
                survivors.append(name)
            if reason and not passed:
                killed_equivalents.append(name)
    print(f"{len(cases)} mutants in {time.perf_counter() - start:.0f} s; "
          f"non-equivalent survivors: {', '.join(survivors) or 'none'}; "
          f"equivalent but killed: {', '.join(killed_equivalents) or 'none'}")
    return 1 if survivors or killed_equivalents else 0


if __name__ == "__main__":
    sys.exit(main())
