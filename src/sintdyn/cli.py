"""Command-line front end: every library operation with reproducible,
machine-readable output.

Subcommands: places, factor, count, growth, zeta, limits, artin, verify,
example85.  A run is fully determined by its flags (seeds included), so
repeated invocations emit byte-identical documents.  Big counts are
serialized as decimal strings and rationals as {"num", "den"} pairs.

Exit status: 0 success, 2 invalid input, 1 internal invariant
falsification (for example a non-integral zeta coefficient or a failed
construction check).

COMMANDS is the one table of commands: each one's help, handler and flags,
the flags with the keywords argparse's add_argument takes.  Two readers
take argv to the handler's namespace from it.  _read takes only a plain
command line: a command, then exact long flags of that command, each store
flag at most once with one value that does not start with - and passes
the flag's type and choices, and every required flag present.  Anything
else goes to the argparse parser that build_parser makes from the same
table, which is built and imported only then.  The fallback keeps help,
--version, usage errors, abbreviations such as --max, joined values such
as --p=2 and values that start with - exactly as argparse prints and
reads them; a plain command line gives the namespace argparse would give,
so it pays for neither argparse's import nor its parser.
"""

import functools
import json
import sys
from fractions import Fraction
from math import log2
from types import SimpleNamespace

from . import SCHEMA_VERSION, __version__, intmath
from .cyclofactor import _check_work, factor_tn_minus_1
from .ffpoly import PrimeField, _read_terms
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
    place_work,
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
# growth and limits refuse --max-n above these before any table is built;
# at the limits, with start-up and a 2 GB address-space cap (2-vCPU x86-64
# host, Python 3.11, probed 2026-10-20), the growth json document takes
# 3.1-3.6 s and 330-390 MB (p = 2 full, p = 3 example85, p = 2**31-1
# trivial) and limits 2.6-3.1 s and 550 MB (p = 2 full, p = 3 example85).
# Growth json now writes its points without a dict each and takes 1.5-1.6 s
# and 199 MB at p = 2 full; the limit stays until it is probed again
MAX_GROWTH_N = 5 * 10**5
MAX_LIMITS_N = 3 * 10**6


def _require_max_n(command: str, max_n: int, limit: int):
    intmath.require_positive("--max-n", max_n)
    intmath.require_at_most(f"{command}: max_n", max_n, limit)


def _named(flag: str, fn, *args):
    # fn(*args); a ValueError it raises is raised again as "flag: message",
    # flag naming the flag whose value fn read
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _place_terms(text: str) -> dict[int, int]:
    # {exponent: coefficient} of a --place text, t^3+t+1 or comma-separated
    # coefficients from t**0 up, read before any coefficient list is built
    if any(ch in text for ch in "t^*"):
        return _read_terms(text)
    return dict(enumerate(int(part) for part in text.split(",")))


def _parse_fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: expected a rational like 1/2, got {text!r}") from None


def _frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _field(args) -> PrimeField:
    return _named("--p", PrimeField, args.p)


def _system(field: PrimeField, args) -> SystemSpec:
    name = args.system
    if name in PRESET_NAMES:
        if args.place:
            raise ValueError(f"--place is only valid with --system explicit, not {name!r}")
        spec = preset_system(field, name)
    elif name == "explicit":
        if not args.place:
            raise ValueError("--system explicit requires at least one --place")
        terms = [_named(f"--place: cannot parse polynomial {s!r}", _place_terms, s)
                 for s in args.place]
        # charged by the largest exponent of each place, before any is built
        work = sum(place_work(field.p, max(place)) for place in terms)
        _check_work("--place: place_work(p, degree)", work)
        places = [field._from_terms(place) for place in terms]
        spec = SystemSpec(field, _named("--place", OmegaSource.explicit, places), "explicit")
    else:  # random: the choices of --system refuse any other
        if args.rho is None or args.seed is None:
            raise ValueError("--system random requires both --rho and --seed")
        rho = _parse_fraction("--rho", args.rho)  # its errors name --rho
        spec = _named("--rho/--seed", random_system, field, rho, args.seed)
    if args.label:
        spec = spec._replace(label=args.label)
    return spec


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cmd_places(args):
    field = _field(args)
    intmath.require_positive("--max-degree", args.max_degree)
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
    intmath.require_positive("--n", args.n)
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
    intmath.require_positive("--n", args.n)
    e = periodic_exponent(spec, args.n)
    if e * log2(field.p) > MAX_COUNT_BITS:
        raise ValueError(f"count: p**e must be at most 2**{MAX_COUNT_BITS}: got {field.p}**{e}")
    count = intmath.decimal(field.p**e)
    if args.format == "json":
        return _dump_json({"n": args.n, "e": e, "count": count}), 0
    if args.format == "csv":
        return f"n,e,count\n{args.n},{e},{count}", 0
    return f"|F_{args.n}| = {field.p}^{e} = {count}", 0


def _cmd_growth(args):
    field = _field(args)
    spec = _system(field, args)
    _require_max_n("growth", args.max_n, MAX_GROWTH_N)
    points = growth_sequence(spec, args.max_n)
    if args.format == "json":
        # the points are ints only, so they are written without a dict each;
        # json.dumps keeps the header, whose label needs its escaping
        head = _dump_json({"p": field.p, "label": spec.label, "max_n": args.max_n})
        records = ",".join(
            f'{{"n":{gp.n},"e":{gp.e},"rate":{{"num":{gp.rate.numerator},'
            f'"den":{gp.rate.denominator}}}}}'
            for gp in points
        )
        return f'{head[:-1]},"points":[{records}]}}', 0
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
    intmath.require_positive("--terms", args.terms)
    if args.max_order is not None:
        # refused before the series is built: its cost grows with --terms
        intmath.require_positive("--max-order", args.max_order)
        _named("--max-order", check_max_order, args.max_order, args.terms + 1)
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
    _require_max_n("limits", args.max_n, MAX_LIMITS_N)
    epsilon = _parse_fraction("--epsilon", args.epsilon)
    tail = _parse_fraction("--tail-fraction", args.tail_fraction)
    points = list(enumerate(periodic_exponents(spec, args.max_n), 1))
    clusters = cluster_limits(points, epsilon, tail)
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
        raise ValueError(f"--bound must be at least 3: got {args.bound}")
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
    intmath.require_positive("--q-bound", args.q_bound)
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


# the command table: command -> (help, handler, flags), and each command's
# flags in the order of its help, as add_argument's keywords by long flag.
# _read and build_parser both read it.
_INT = {"type": int, "required": True}  # a required int flag
_COMMON = {
    "--p": {**_INT, "help": "field characteristic (prime)"},
    "--format": {"choices": ("json", "csv", "text"), "default": "json", "help": "output format"},
    "--output": {"default": "-", "help": "output path, or - for stdout"},
}
_SYSTEM = {
    "--system": {
        "required": True,
        "choices": PRESET_NAMES + ("explicit", "random"),
        "help": "system preset, or explicit/random",
    },
    "--place": {
        "action": "append",
        "default": [],
        "help": "inverted place for --system explicit: 't^3+t+1' or comma-separated "
        "low-to-high coefficients (repeatable)",
    },
    "--rho": {"help": "P(mark = 0) as an exact rational, e.g. 1/2"},
    "--seed": {"type": int, "help": "64-bit seed for random marks"},
    "--label": {"help": "override the system label in output"},
}
COMMANDS = {
    "places": ("enumerate places up to a degree", _cmd_places, {**_COMMON, "--max-degree": _INT}),
    "factor": ("factor t^n - 1 into cyclotomic parts", _cmd_factor, {**_COMMON, "--n": _INT}),
    "count": ("number of points of period n", _cmd_count, {**_COMMON, **_SYSTEM, "--n": _INT}),
    "growth": ("exact growth-rate sequence", _cmd_growth, {**_COMMON, **_SYSTEM, "--max-n": _INT}),
    "zeta": ("zeta series coefficients", _cmd_zeta, {
        **_COMMON,
        **_SYSTEM,
        "--terms": _INT,
        "--max-order": {"type": int, "help": "also run recurrence detection"},
        "--orbits": {"action": "store_true", "default": False, "help": "include orbit counts"},
    }),
    "limits": ("empirical limit-point clusters", _cmd_limits, {
        **_COMMON,
        **_SYSTEM,
        "--max-n": _INT,
        "--epsilon": {"default": "1/100", "help": "cluster width (rational)"},
        "--tail-fraction": {"default": "1/2", "help": "trailing fraction to keep"},
    }),
    "artin": ("primes with p a primitive root", _cmd_artin, {**_COMMON, "--bound": _INT}),
    "verify": ("verify the limit-point construction", _cmd_verify, {
        **_COMMON,
        "--q": {**_INT, "help": "prime distinct from p"},
        "--nj": {**_INT, "help": "Artin prime for p, > q"},
        "--mark-t-minus-1": {
            "action": "store_true",
            "default": False,
            "help": "also invert the fixed place t - 1 (offset exponent 0 instead of 1)",
        },
    }),
    "example85": ("reference limit rate set", _cmd_example85, {**_COMMON, "--q-bound": _INT}),
}


def _read(argv):
    """build_parser().parse_args(argv) for a plain command line (see the
    module docstring), else None.  Every --place list is new."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, flags = COMMANDS[argv[0]]
    values = {
        flag: list(spec["default"]) for flag, spec in flags.items() if spec.get("action") == "append"
    }
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = flags.get(flag)
        if spec is None:
            return None
        action = spec.get("action")
        if action == "store_true":
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        if action == "append":
            values[flag].append(value)
        elif flag in values:  # argparse keeps the last one
            return None
        else:
            values[flag] = value
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, spec in flags.items():
        if flag not in values and spec.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, spec.get("default")))
    return args


# built at most once per process, and only for the command lines _read
# leaves to it: argparse makes a help formatter for every argument it adds,
# and its messages go through gettext
@functools.cache
def build_parser():
    import argparse

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
    for command, (help_text, handler, flags) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag, spec in flags.items():
            sp.add_argument(flag, **spec)
        sp.set_defaults(handler=handler)
    return parser


def _emit(args, text: str):
    data = text if text.endswith("\n") else text + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or build_parser().parse_args(argv)
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
