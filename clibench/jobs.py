"""Workload job lists and the checks every CLI document must pass.

A job is the argv list given to ``sintdyn.cli.main``.  Job lists depend on
the workload seed only through the inputs named in README.md (random-system
seeds and rhos, explicit places at fixed degrees); sizes never change, so
the cost of a run does not depend on the seed.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from math import gcd

DEFAULT_SEED = 1

_RHOS = ("1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "3/5")
# monic irreducibles over F_2 of degree 2 and 3
_F2_IRREDUCIBLES = {2: ("t^2+t+1",), 3: ("t^3+t+1", "t^3+t^2+1")}


def _random_systems(rng: random.Random, count: int) -> list[list[str]]:
    seeds = rng.sample(range(2**32), count)
    return [
        ["--system", "random", "--rho", rng.choice(_RHOS), "--seed", str(seed)]
        for seed in seeds
    ]


def random_sweep(rng: random.Random) -> list[list[str]]:
    p2a, p2b, p3a, p3b, p5, zeta = _random_systems(rng, 6)
    return [
        ["growth", "--p", "2", *p2a, "--max-n", "120"],
        ["growth", "--p", "2", *p2b, "--max-n", "120"],
        ["growth", "--p", "3", *p3a, "--max-n", "80"],
        ["growth", "--p", "3", *p3b, "--max-n", "80"],
        ["growth", "--p", "5", *p5, "--max-n", "60"],
        ["zeta", "--p", "2", *zeta, "--terms", "120"],
    ]


def construction(rng: random.Random) -> list[list[str]]:
    jobs = [
        ["places", "--p", "2", "--max-degree", "10"],
        ["artin", "--p", "2", "--bound", "20000"],
    ]
    for p, q, nj in ((2, 3, 101), (2, 5, 53), (3, 5, 31), (5, 3, 23)):
        jobs.append(["verify", "--p", str(p), "--q", str(q), "--nj", str(nj)])
    jobs.append(["factor", "--p", "2", "--n", "1023"])
    return jobs


def series(rng: random.Random) -> list[list[str]]:
    places = [rng.choice(_F2_IRREDUCIBLES[degree]) for degree in (2, 3)]
    return [
        ["zeta", "--p", "2", "--system", "full", "--terms", "700"],
        ["zeta", "--p", "3", "--system", "example85", "--terms", "110",
         "--max-order", "20", "--orbits"],
        ["zeta", "--p", "2", "--system", "explicit", "--place", places[0],
         "--place", places[1], "--terms", "130", "--max-order", "30", "--orbits"],
        ["limits", "--p", "2", "--system", "example85", "--max-n", "3000"],
        # in KNOWN_FAILING; kept so the defect stays visible in fail_ratio
        ["count", "--p", "2", "--system", "full", "--n", "20000"],
    ]


# known defects: job key -> the one exit status the job may fail with while
# the run stays correct.  The count exits 2 at CPython's int->str digit limit
# until the CLI is fixed; any other failure of any job is a wrong output.
KNOWN_FAILING = {"count --p 2 --system full --n 20000": 2}

WORKLOADS = {"random-sweep": random_sweep, "construction": construction, "series": series}


def workload_jobs(name: str, seed: int) -> list[list[str]]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _flags(argv: list[str]) -> dict:
    flags = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags.setdefault(name, []).append(argv[i + 1])
            i += 2
        else:
            flags[name] = [True]
            i += 1
    return {k: v if k == "place" else v[0] for k, v in flags.items()}


def _is_decimal(s) -> bool:
    return isinstance(s, str) and s.isdigit() and (s == "0" or s[0] != "0")


def _irreducible_count(p: int, degree: int) -> int:
    # Gauss: number of monic irreducibles of the given degree over F_p
    total = 0
    for d in range(1, degree + 1):
        if degree % d == 0:
            m, mu, k = degree // d, 1, 2
            while m > 1:
                if m % k == 0:
                    m //= k
                    if m % k == 0:
                        mu = 0
                        break
                    mu = -mu
                k += 1
            total += mu * p**d
    return total // degree


def _check_growth(doc, f):
    points = doc["points"]
    if len(points) != int(f["max-n"]):
        return "wrong number of growth points"
    for i, point in enumerate(points, start=1):
        n, e = point["n"], point["e"]
        num, den = point["rate"]["num"], point["rate"]["den"]
        if n != i or not 0 <= e <= n:
            return f"bad growth point {point}"
        if gcd(num, den) != 1 or Fraction(num, den) != Fraction(e, n):
            return f"rate is not e/n in lowest terms at n={n}"
    return None


def _check_zeta(doc, f):
    terms = int(f["terms"])
    coefficients = doc["coefficients"]
    if len(coefficients) != terms + 1 or coefficients[0] != "1":
        return "zeta list must hold terms+1 coefficients starting with 1"
    if not all(_is_decimal(a) for a in coefficients):
        return "zeta coefficients must be decimal strings"
    if "max-order" in f and "recurrence" not in doc:
        return "missing recurrence"
    if "orbits" in f:
        orbits = doc.get("orbit_counts")
        if orbits is None or len(orbits) != terms or not all(map(_is_decimal, orbits)):
            return "orbit_counts must hold terms decimal strings"
    return None


def _check_count(doc, f):
    n, e = int(f["n"]), doc["e"]
    if not 0 <= e <= n or (f["system"] == "full" and e != n):
        return "exponent out of range"
    expected = {"n": n, "e": e, "count": _decimal(int(f["p"]) ** e)}
    return None if doc == expected else "count must be p**e"


def _decimal(value: int) -> str:
    # the job-running worker keeps CPython's default digit limit so the
    # CLI defect stays visible; the reference is computed here instead
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _check_factor(doc, f):
    n = int(f["n"])
    total = sum(
        (len(v) - 1) * part["multiplicity"] for part in doc["parts"] for v in part["factors"]
    )
    return None if doc["n"] == n and total == n else "factor degrees do not sum to n"


def _check_places(doc, f):
    p, k = int(f["p"]), int(f["max-degree"])
    expected = 1 + sum(_irreducible_count(p, d) for d in range(1, k + 1))
    places = doc["places"]
    if len(places) != expected or places[0] != {"index": -1, "kind": "infinite"}:
        return "wrong place enumeration"
    return None


def _check_artin(doc, f):
    primes = doc["primes"]
    if primes != sorted(set(primes)) or (primes and primes[-1] > int(f["bound"])):
        return "artin primes must be ascending and within the bound"
    return None


def _check_verify(doc, f):
    return None if doc.get("pass") is True else "construction check did not pass"


def _check_limits(doc, f):
    return None if doc.get("method") == "empirical" and doc["clusters"] else "no clusters"


_CHECKS = {
    "growth": _check_growth,
    "zeta": _check_zeta,
    "count": _check_count,
    "factor": _check_factor,
    "places": _check_places,
    "artin": _check_artin,
    "verify": _check_verify,
    "limits": _check_limits,
}


def check_job(argv: list[str], status, stdout: str, digests: dict) -> str | None:
    """Why the job failed, or None when it exited 0 with a valid document."""
    if status != 0:
        return f"exit status {status}"
    expected = digests.get(job_key(argv))
    if expected is not None and digest(stdout) != expected:
        return "document differs from the recorded digest"
    try:
        doc = json.loads(stdout)
        return _CHECKS[argv[0]](doc, _flags(argv))
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed document: {exc!r}"
