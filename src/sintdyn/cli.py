"""Command-line front end: every library operation with reproducible,
machine-readable output.

Subcommands: places, factor, count, growth, zeta, limits, artin, verify,
example85.  A run is fully determined by its flags (seeds included), so
repeated invocations emit byte-identical documents.  Big counts are
serialized as decimal strings and rationals as {"num", "den"} pairs.

Exit status: 0 success, 2 invalid input, 1 internal invariant
falsification (for example a non-integral zeta coefficient or a failed
construction check).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import log2

from . import SCHEMA_VERSION, __version__, intmath
from .cyclofactor import factor_tn_minus_1
from .ffpoly import PrimeField, Poly
from .limitset import (
    ConstructionRejected,
    artin_primes,
    cluster_limits,
    example85_rates,
    growth_sequence,
    verify_construction,
)
from .places import enumerate_places
from .system import (
    PRESET_NAMES,
    OmegaSource,
    SystemSpec,
    periodic_exponent,
    periodic_exponents,
    preset_system,
    random_system,
)
from .zeta import (
    InvalidCountsError,
    check_max_order,
    find_linear_recurrence,
    orbit_counts,
    zeta_for_system,
)

# count refuses p**e > 2**MAX_COUNT_BITS before forming it: printing p**e
# takes 3.4-3.7 s at the limit, p = 2, 3, 2**31-1 (2-vCPU Xeon, Python 3.11)
MAX_COUNT_BITS = 2**21


class CliError(ValueError):
    """Invalid command-line input; maps to exit status 2."""


def _require_positive(flag: str, value: int):
    if value < 1:
        raise CliError(f"{flag} must be positive: got {value}")


def _parse_poly(field: PrimeField, text: str) -> Poly:
    try:
        if any(ch in text for ch in "t^*"):
            return field.from_string(text)
        return field.poly(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"--place: cannot parse polynomial {text!r}: {exc}") from None


def _parse_fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: expected a rational like 1/2, got {text!r}") from None


def _frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _field(args) -> PrimeField:
    try:
        return PrimeField(args.p)
    except ValueError as exc:
        raise CliError(f"--p: {exc}") from None


def _system(field: PrimeField, args) -> SystemSpec:
    name = args.system
    if name in PRESET_NAMES:
        if args.place:
            raise CliError(f"--place is only valid with --system explicit, not {name!r}")
        spec = preset_system(field, name)
    elif name == "explicit":
        if not args.place:
            raise CliError("--system explicit requires at least one --place")
        try:
            omega = OmegaSource.explicit(_parse_poly(field, s) for s in args.place)
        except ValueError as exc:
            raise CliError(f"--place: {exc}") from None
        spec = SystemSpec(field, omega, "explicit")
    elif name == "random":
        if args.rho is None or args.seed is None:
            raise CliError("--system random requires both --rho and --seed")
        try:
            spec = random_system(field, _parse_fraction("--rho", args.rho), args.seed)
        except ValueError as exc:
            raise CliError(f"--rho/--seed: {exc}") from None
    else:
        raise CliError(f"--system: unknown system {name!r}")
    if args.label:
        spec = spec._replace(label=args.label)
    return spec


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_places(args):
    field = _field(args)
    _require_positive("--max-degree", args.max_degree)
    places = enumerate_places(field, args.max_degree)
    if args.format == "json":
        records = [{"index": i - 1, **pl.to_json()} for i, pl in enumerate(places)]
        doc = {"p": field.p, "max_degree": args.max_degree, "places": records}
        return _dump_json(doc), 0
    if args.format == "csv":
        lines = ["index,kind,place"]
        for i, pl in enumerate(places):
            kind = "infinite" if pl.is_infinite else "finite"
            lines.append(f"{i - 1},{kind},{pl}")
        return "\n".join(lines), 0
    return "\n".join(f"v_{i - 1} = {pl}" for i, pl in enumerate(places)), 0


def _cmd_factor(args):
    field = _field(args)
    _require_positive("--n", args.n)
    fct = factor_tn_minus_1(field, args.n)
    if args.format == "json":
        return _dump_json({"p": field.p, **fct.to_json()}), 0
    if args.format == "csv":
        lines = ["d,multiplicity,factor"]
        for part in fct.parts:
            for v in part.factors:
                lines.append(f"{part.d},{part.multiplicity},{v}")
        return "\n".join(lines), 0
    lines = [f"t^{args.n}-1 over F_{field.p}:"]
    for part in fct.parts:
        factors = " * ".join(f"({v})" for v in part.factors)
        lines.append(f"  d={part.d} multiplicity={part.multiplicity}: {factors}")
    return "\n".join(lines), 0


def _cmd_count(args):
    field = _field(args)
    spec = _system(field, args)
    _require_positive("--n", args.n)
    e = periodic_exponent(spec, args.n)
    if e * log2(field.p) > MAX_COUNT_BITS:
        raise CliError(f"count: p**e must be at most 2**{MAX_COUNT_BITS}: got {field.p}**{e}")
    count = intmath.decimal(field.p**e)
    if args.format == "json":
        return _dump_json({"n": args.n, "e": e, "count": count}), 0
    if args.format == "csv":
        return f"n,e,count\n{args.n},{e},{count}", 0
    return f"|F_{args.n}| = {field.p}^{e} = {count}", 0


def _cmd_growth(args):
    field = _field(args)
    spec = _system(field, args)
    _require_positive("--max-n", args.max_n)
    points = growth_sequence(spec, args.max_n)
    if args.format == "json":
        records = [
            {"n": gp.n, "e": gp.e, "rate": _frac_json(gp.rate)} for gp in points
        ]
        doc = {"p": field.p, "label": spec.label, "max_n": args.max_n, "points": records}
        return _dump_json(doc), 0
    if args.format == "csv":
        lines = ["n,e,rate_num,rate_den"]
        lines += [
            f"{gp.n},{gp.e},{gp.rate.numerator},{gp.rate.denominator}" for gp in points
        ]
        return "\n".join(lines), 0
    return "\n".join(f"n={gp.n} e={gp.e} rate={gp.rate}" for gp in points), 0


def _cmd_zeta(args):
    field = _field(args)
    spec = _system(field, args)
    _require_positive("--terms", args.terms)
    if args.max_order is not None:
        # refused before the series is built: its cost grows with --terms
        _require_positive("--max-order", args.max_order)
        try:
            check_max_order(args.max_order, args.terms + 1)
        except ValueError as exc:
            raise CliError(f"--max-order: {exc}") from None
    series = zeta_for_system(spec, args.terms)
    doc = series.to_json()
    if args.max_order is not None:
        recurrence = find_linear_recurrence(series, args.max_order)
        doc["recurrence"] = (
            None if recurrence is None else [_frac_json(c) for c in recurrence]
        )
    if args.orbits:
        doc["orbit_counts"] = [intmath.decimal(o) for o in orbit_counts(series.counts)]
    if args.format == "json":
        return _dump_json(doc), 0
    coefficients = doc["coefficients"]
    if args.format == "csv":
        lines = ["m,a_m"]
        lines += [f"{m},{a}" for m, a in enumerate(coefficients)]
        return "\n".join(lines), 0
    lines = [f"zeta series for {spec.label} over F_{field.p}, N={series.truncation_order}:"]
    lines += [f"a_{m} = {a}" for m, a in enumerate(coefficients)]
    if args.max_order is not None:
        lines.append(f"recurrence (max order {args.max_order}): {doc['recurrence']}")
    return "\n".join(lines), 0


def _cmd_limits(args):
    field = _field(args)
    spec = _system(field, args)
    _require_positive("--max-n", args.max_n)
    epsilon = _parse_fraction("--epsilon", args.epsilon)
    tail = _parse_fraction("--tail-fraction", args.tail_fraction)
    points = list(enumerate(periodic_exponents(spec, args.max_n), 1))
    try:
        clusters = cluster_limits(points, epsilon, tail)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "json":
        doc = {
            "p": field.p,
            "label": spec.label,
            "max_n": args.max_n,
            "epsilon": _frac_json(epsilon),
            "tail_fraction": _frac_json(tail),
            "method": "empirical",
            "clusters": [
                {"rate": _frac_json(rate), "count": count} for rate, count in clusters
            ],
        }
        return _dump_json(doc), 0
    if args.format == "csv":
        lines = ["rate_num,rate_den,count"]
        lines += [f"{r.numerator},{r.denominator},{c}" for r, c in clusters]
        return "\n".join(lines), 0
    lines = [f"empirical limit clusters for {spec.label} over F_{field.p}:"]
    lines += [f"rate {r} with {c} supporting points" for r, c in clusters]
    return "\n".join(lines), 0


def _cmd_artin(args):
    field = _field(args)
    if args.bound < 3:
        raise CliError(f"--bound must be at least 3: got {args.bound}")
    primes = artin_primes(field, args.bound)
    if args.format == "json":
        return _dump_json({"p": field.p, "bound": args.bound, "primes": primes}), 0
    if args.format == "csv":
        return "\n".join(["prime"] + [str(q) for q in primes]), 0
    return f"primes q <= {args.bound} with {field.p} a primitive root: {primes}", 0


def _cmd_verify(args):
    report = verify_construction(args.p, args.q, args.nj, mark_t_minus_1=args.mark_t_minus_1)
    status = 0 if report.all_checks_pass else 1
    if args.format == "json":
        return _dump_json(report.to_json()), status
    if args.format == "csv":
        lines = ["key,value"]
        for key, value in report.to_json().items():
            if key == "checks":
                for name, ok in value.items():
                    lines.append(f"check.{name},{str(ok).lower()}")
            elif key == "rate_gap":
                lines.append(f"rate_gap,{value['num']}/{value['den']}")
            else:
                lines.append(f"{key},{str(value).lower() if isinstance(value, bool) else value}")
        return "\n".join(lines), status
    lines = [
        f"construction check p={report.p} q={report.q} nj={report.nj}: "
        f"{'PASS' if report.all_checks_pass else 'FAIL'}"
    ]
    for name, ok in report.checks:
        lines.append(f"  {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"  e = {report.e_qnj}, offset exponent = {report.b_exponent}, "
                 f"rate gap = {report.rate_gap}")
    return "\n".join(lines), status


def _cmd_example85(args):
    field = _field(args)
    _require_positive("--q-bound", args.q_bound)
    rates = example85_rates(field, args.q_bound)
    if args.format == "json":
        doc = {
            "p": field.p,
            "q_bound": args.q_bound,
            "rates": [_frac_json(r) for r in rates],
        }
        return _dump_json(doc), 0
    if args.format == "csv":
        return "\n".join(["rate_num,rate_den"] + [f"{r.numerator},{r.denominator}" for r in rates]), 0
    return "reference rates (in units of log p): " + ", ".join(str(r) for r in rates), 0


# one parser per process: building it costs milliseconds (argparse makes a
# help formatter for every argument it adds, but copies a parent's actions
# without one), and parse_args returns a fresh Namespace each call, copying
# the --place default list before appending
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    common.add_argument("--output", default="-", help="output path, or - for stdout")

    system = argparse.ArgumentParser(add_help=False)
    system.add_argument(
        "--system",
        required=True,
        choices=PRESET_NAMES + ("explicit", "random"),
        help="system preset, or explicit/random",
    )
    system.add_argument(
        "--place",
        action="append",
        default=[],
        help="inverted place for --system explicit: 't^3+t+1' or comma-separated "
        "low-to-high coefficients (repeatable)",
    )
    system.add_argument("--rho", help="P(mark = 0) as an exact rational, e.g. 1/2")
    system.add_argument("--seed", type=int, help="64-bit seed for random marks")
    system.add_argument("--label", help="override the system label in output")

    parser = argparse.ArgumentParser(
        prog="sintdyn",
        description="Periodic-point counts, zeta series and growth-rate limit "
        "points for S-integer systems over F_p(t).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"sintdyn {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("places", parents=[common], help="enumerate places up to a degree")
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(handler=_cmd_places)

    sp = sub.add_parser("factor", parents=[common], help="factor t^n - 1 into cyclotomic parts")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_factor)

    sp = sub.add_parser("count", parents=[common, system], help="number of points of period n")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_count)

    sp = sub.add_parser("growth", parents=[common, system], help="exact growth-rate sequence")
    sp.add_argument("--max-n", type=int, required=True)
    sp.set_defaults(handler=_cmd_growth)

    sp = sub.add_parser("zeta", parents=[common, system], help="zeta series coefficients")
    sp.add_argument("--terms", type=int, required=True)
    sp.add_argument("--max-order", type=int, help="also run recurrence detection")
    sp.add_argument("--orbits", action="store_true", help="include orbit counts")
    sp.set_defaults(handler=_cmd_zeta)

    sp = sub.add_parser("limits", parents=[common, system], help="empirical limit-point clusters")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--epsilon", default="1/100", help="cluster width (rational)")
    sp.add_argument("--tail-fraction", default="1/2", help="trailing fraction to keep")
    sp.set_defaults(handler=_cmd_limits)

    sp = sub.add_parser("artin", parents=[common], help="primes with p a primitive root")
    sp.add_argument("--bound", type=int, required=True)
    sp.set_defaults(handler=_cmd_artin)

    sp = sub.add_parser("verify", parents=[common], help="verify the limit-point construction")
    sp.add_argument("--q", type=int, required=True, help="prime distinct from p")
    sp.add_argument("--nj", type=int, required=True, help="Artin prime for p, > q")
    sp.add_argument(
        "--mark-t-minus-1",
        action="store_true",
        help="also invert the fixed place t - 1 (offset exponent 0 instead of 1)",
    )
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("example85", parents=[common], help="reference limit rate set")
    sp.add_argument("--q-bound", type=int, required=True)
    sp.set_defaults(handler=_cmd_example85)

    return parser


def _emit(args, text: str):
    data = text if text.endswith("\n") else text + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document, status = args.handler(args)
    except ConstructionRejected as exc:
        print(f"error: rejected: {exc}", file=sys.stderr)
        return 2
    except (InvalidCountsError, ArithmeticError) as exc:
        print(f"error: invariant falsified: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, document)
    except OSError as exc:
        print(f"error: --output: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
