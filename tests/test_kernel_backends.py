"""Backend equivalence: the compiled kernel, the pure-Python list kernel,
the packed odd-p kernel _fp ("packed") and the packed p = 2 kernel must be
interchangeable on identical inputs, and all must satisfy the ring
identities checked against a dict-based reference multiplication.
"kernel" is the dispatching sintdyn._kernel, which sends every p to the
backend (ffpoly calls it only at odd p).  The packed p = 2 kernel _f2 runs
on ints: the checks pack their list operands, call _f2 and unpack the
result.  _fp is checked against _pypoly at odd p, at the edges of its slot
widths and across its mid-Euclid slot reduction."""

import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

import _pypoly
from sintdyn import _kernel
from sintdyn._kernel import _f2, _fp

BACKENDS = ("python", "cython", "packed", "kernel")
PRIMES = (2, 3, 5, 2147483647)
ODD_PRIMES = (3, 5, 7, 2147483647)
KERNEL_OPS = ("mul", "div_rem", "rem", "mul_mod", "pow_mod", "gcd")


def _reference_mul(a, b, p):
    out = {}
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out.get(i + j, 0) + ai * bj) % p
    c = [out.get(k, 0) for k in range(len(a) + len(b) - 1)] if a and b else []
    while c and not c[-1]:
        c.pop()
    return c


def _random_poly(rng, p, max_degree, nonzero=False):
    degree = rng.randrange(max_degree + 1)
    c = [rng.randrange(p) for _ in range(degree + 1)]
    while c and not c[-1]:
        c.pop()
    if nonzero and not c:
        c = [rng.randrange(1, p)] if p > 2 else [1]
    return c


def _module(kernel_modules, name):
    if name == "kernel":
        return _kernel
    if name == "packed":
        return _fp
    if name not in kernel_modules:
        pytest.skip("compiled backend not built")
    return kernel_modules[name]


@pytest.fixture
def impl(kernel_modules, name):
    return _module(kernel_modules, name)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", BACKENDS)
def test_mul_matches_reference(impl, p):
    rng = random.Random(1000 + p)
    for _ in range(150):
        a = _random_poly(rng, p, 12)
        b = _random_poly(rng, p, 12)
        assert impl.mul(a, b, p) == _reference_mul(a, b, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", BACKENDS)
def test_div_rem_identity(impl, p):
    rng = random.Random(2000 + p)
    for _ in range(150):
        a = _random_poly(rng, p, 14)
        b = _random_poly(rng, p, 7, nonzero=True)
        q, r = impl.div_rem(a, b, p)
        assert impl.rem(a, b, p) == r
        assert len(r) < len(b)
        recomposed = _reference_mul(b, q, p)
        acc = list(recomposed) + [0] * (len(r) - len(recomposed))
        for i, ri in enumerate(r):
            acc[i] = (acc[i] + ri) % p
        while acc and not acc[-1]:
            acc.pop()
        assert acc == a


@pytest.mark.parametrize("p", (2, 3, 5))
def test_backends_agree_everywhere(kernel_modules, p):
    cy = _module(kernel_modules, "cython")
    rng = random.Random(3000 + p)
    for _ in range(120):
        a = _random_poly(rng, p, 16)
        b = _random_poly(rng, p, 9, nonzero=True)
        m = _random_poly(rng, p, 6, nonzero=True) + [1]
        exp = rng.randrange(0, 2**40)
        assert cy.mul(a, b, p) == _pypoly.mul(a, b, p)
        assert cy.div_rem(a, b, p) == _pypoly.div_rem(a, b, p)
        assert cy.rem(a, b, p) == _pypoly.rem(a, b, p)
        assert cy.mul_mod(a, b, m, p) == _pypoly.mul_mod(a, b, m, p)
        assert cy.pow_mod(a, exp, m, p) == _pypoly.pow_mod(a, exp, m, p)
        assert cy.gcd(a, b, p) == _pypoly.gcd(a, b, p)


@pytest.mark.parametrize("name", BACKENDS)
def test_pow_mod_matches_repeated_multiplication(impl):
    p = 5
    rng = random.Random(4)
    for _ in range(40):
        base = _random_poly(rng, p, 5)
        m = _random_poly(rng, p, 4, nonzero=True) + [1]
        exp = rng.randrange(0, 50)
        expected = [1]
        for _ in range(exp):
            expected = impl.rem(impl.mul(expected, base, p), m, p)
        expected = impl.rem(expected, m, p)
        assert impl.pow_mod(base, exp, m, p) == expected


@pytest.mark.parametrize("name", BACKENDS)
def test_pow_mod_huge_exponent(impl):
    # t has order 15 modulo t^4+t+1 over F_2
    m = [1, 1, 0, 0, 1]
    t = [0, 1]
    huge = 15 * (10**40) + 1
    assert impl.pow_mod(t, huge, m, 2) == t
    assert impl.pow_mod(t, 15 * (10**40), m, 2) == [1]


@pytest.mark.parametrize("name", BACKENDS)
def test_gcd_monic_and_divides(impl):
    p = 3
    rng = random.Random(5)
    for _ in range(80):
        a = _random_poly(rng, p, 10, nonzero=True)
        b = _random_poly(rng, p, 10, nonzero=True)
        g = impl.gcd(a, b, p)
        assert g and g[-1] == 1
        assert impl.rem(a, g, p) == []
        assert impl.rem(b, g, p) == []


@pytest.mark.parametrize("name", BACKENDS)
def test_edge_cases(impl):
    with pytest.raises(ZeroDivisionError):
        impl.div_rem([1, 1], [], 2)
    with pytest.raises(ZeroDivisionError):
        impl.rem([1], [], 3)
    with pytest.raises(ZeroDivisionError):
        impl.pow_mod([1], 2, [], 5)
    assert impl.mul([], [1, 2], 3) == []
    assert impl.rem([2, 2, 1], [2], 3) == []  # reduction by a unit
    assert impl.pow_mod([0, 1], 0, [1, 1, 1], 2) == [1]
    assert impl.pow_mod([0, 1], 7, [4], 5) == []
    assert impl.div_rem([1], [0, 1], 2) == ([], [1])


def test_committed_c_matches_pyx():
    """Each block of _cypoly.c quotes one line of _cypoly.pyx, marked
    "# <<<<<<<<<<<<<<"; every quote must equal that line of the current .pyx,
    so a .pyx edit without regenerating the C fails here."""
    kernel_dir = Path(_kernel.__file__).parent
    pyx = (kernel_dir / "_cypoly.pyx").read_text().splitlines()
    c_source = (kernel_dir / "_cypoly.c").read_text()
    block = r'/\* "sintdyn/_kernel/_cypoly\.pyx":(\d+)\n'
    quotes = re.findall(block + r"(?: \*.*\n)*? \* (.*?) *# <{14}\n", c_source)
    assert quotes and len(quotes) == len(re.findall(block, c_source))
    for n, quoted in quotes:
        assert pyx[int(n) - 1].rstrip() == quoted, f"_cypoly.pyx line {n}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _f2_on_lists(op, *args):
    # _f2's op on the packed list operands (exponents stay ints), unpacked;
    # mul_mod is rem after mul
    x = [_f2.pack(a) if isinstance(a, list) else a for a in args]
    result = _f2.rem(_f2.mul(x[0], x[1]), x[2]) if op == "mul_mod" else getattr(_f2, op)(*x)
    return tuple(map(_f2.unpack, result)) if isinstance(result, tuple) else _f2.unpack(result)


def _packed_matches_pure(op, *args):
    packed = _outcome(_f2_on_lists, op, *args)
    assert packed == _outcome(getattr(_pypoly, op), *args, 2), (op, args)


def test_packed_matches_pure_kernel():
    # degrees 0..2048, most of them small; pow_mod moduli stay below degree
    # 64 so that the list kernel finishes, with exponents of up to 130 bits
    rng = random.Random(2048)
    top = 0
    for _ in range(60):
        a, b = (_random_poly(rng, 2, int(2 ** rng.uniform(0, 11))) for _ in range(2))
        top = max(top, len(a) - 1, len(b) - 1)
        m = _random_poly(rng, 2, rng.randrange(64))
        exp = rng.getrandbits(rng.randrange(131))
        _packed_matches_pure("mul", a, b)
        _packed_matches_pure("div_rem", a, b)
        _packed_matches_pure("rem", a, b)
        _packed_matches_pure("gcd", a, b)
        _packed_matches_pure("mul_mod", a, b, m)
        _packed_matches_pure("pow_mod", a, exp, m)
    assert top > 1024


def test_packed_edge_cases():
    a, m = [1, 0, 1, 1], [1, 1, 0, 0, 1]
    for op, args in (
        ("mul", ([], a)), ("mul", (a, [])), ("mul", ([], [])),
        ("rem", ([], a)), ("rem", (a, [1])), ("rem", (a, [])),
        ("div_rem", ([], a)), ("div_rem", (a, [1])), ("div_rem", (a, [])),
        ("div_rem", ([1], a)),
        ("gcd", ([], [])), ("gcd", ([], a)), ("gcd", (a, [])), ("gcd", (a, a)),
        ("mul_mod", ([], a, m)), ("mul_mod", (a, a, [1])), ("mul_mod", (a, a, [])),
        ("pow_mod", (a, 0, m)), ("pow_mod", ([], 0, m)), ("pow_mod", ([], 5, m)),
        ("pow_mod", (a, 0, [1])), ("pow_mod", (a, 7, [1])),
        ("pow_mod", (a, 2**64 + 1, m)), ("pow_mod", ([0, 1], 15 * 2**100, m)),
        ("pow_mod", (a, -1, m)), ("pow_mod", (a, 2, [])), ("pow_mod", (a, -1, [])),
    ):
        _packed_matches_pure(op, *args)
    with pytest.raises(ZeroDivisionError):
        _f2.pow_mod(_f2.pack(a), -1, 0)  # the zero modulus is checked first
    with pytest.raises(ValueError):
        _f2.pow_mod(_f2.pack(a), -1, _f2.pack(m))
    assert _f2.pow_mod(0b10, 15 * 2**100, _f2.pack(m)) == 1  # t has order 15 mod m


def test_pack_round_trip():
    rng = random.Random(11)
    for degree in (0, 1, 7, 8, 9, 63, 64, 65, 1000, 2048):
        a = [rng.randrange(2) for _ in range(degree)] + [1]
        x = _f2.pack(a)
        assert x == sum(c << i for i, c in enumerate(a))
        assert _f2.unpack(x) == a
    assert _f2.pack([]) == 0 and _f2.unpack(0) == []


def _fp_matches_pure(op, *args):
    assert _outcome(getattr(_fp, op), *args) == _outcome(getattr(_pypoly, op), *args), (op, args)


def _edges(c0, c1, limit):
    """Each k <= limit for which c0 + c1*k is the largest slot value that a
    slot width of 8, 16, 32, 64 or 128 bits holds, and k + 1 with it."""
    for bits in (8, 16, 32, 64, 128):
        k = (2**bits - 1 - c0) // c1
        if 1 <= k < limit:
            yield from (k, k + 1)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_fp_at_slot_width_edges(p):
    top = [p - 1]
    # a product slot holds up to min(len a, len b)*(p-1)**2; at p = 7 the
    # 16-bit edge sits at length 1820
    lengths = list(_edges(0, (p - 1) ** 2, 2048))
    for k in lengths:
        _fp_matches_pure("mul", top * k, top * k, p)
    # a division slot holds up to (p-1) + min(nq, nb)*(p-1)**2: an all-ones
    # quotient adds (p-1)*(p-1) to every slot it covers
    for k in _edges(p - 1, (p - 1) ** 2, 700):
        b = top * k
        a = _pypoly.mul(b, [1] * (k + 1), p)
        a[: k - 1] = [(c - 1) % p for c in a[: k - 1]]
        _fp_matches_pure("div_rem", a, b, p)
        _fp_matches_pure("rem", a, b, p)
        assert _fp.div_rem(a, b, p)[0] == [1] * (k + 1)
    # a pow_mod product slot, divided by m, holds up to (2*len(m) - 3)*(p-1)**2;
    # squaring the residue of all p - 1 fills the middle slots first
    for k in (*_edges(-3 * (p - 1) ** 2, 2 * (p - 1) ** 2, 64), *range(2, 40)):
        for exp in (0, 1, 2, 3, (p - 1) // 2, 2**64 - 1):
            _fp_matches_pure("pow_mod", top * (k - 1), exp, top * k, p)
    assert lengths  # every p here has an edge below length 2048


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_fp_matches_pure_kernel(p):
    # degrees 0..2048, most of them small; pow_mod moduli stay below degree
    # 32 so that the list kernel finishes
    rng = random.Random(p)
    for i in range(40):
        a = _random_poly(rng, p, int(2 ** rng.uniform(0, 11)))
        b = _random_poly(rng, p, int(2 ** rng.uniform(0, 7)))
        if i % 3 == 0:  # a common factor
            g = _random_poly(rng, p, rng.randrange(1, 40), nonzero=True)
            a, b = _pypoly.mul(a, g, p), _pypoly.mul(b, g, p)
        m = _random_poly(rng, p, rng.randrange(32))
        exp = rng.choice((0, 1, (p - 1) // 2, rng.getrandbits(64)))
        for op, args in (
            ("mul", (a, b)), ("div_rem", (a, b)), ("rem", (a, b)), ("gcd", (a, b)),
            ("gcd", (b, a)), ("pow_mod", (a, exp, m)), ("pow_mod", (b, exp, m)),
        ):
            _fp_matches_pure(op, *args, p)
    a = [rng.randrange(p) for _ in range(2048)] + [1]
    b = _random_poly(rng, p, 60, nonzero=True)
    for op in ("mul", "div_rem", "rem", "gcd"):
        _fp_matches_pure(op, a, b, p)


def _divisions(monkeypatch):
    # the (divisor, steps) of every run of _fp._divide
    runs = []
    divide = _fp._divide
    monkeypatch.setattr(_fp, "_divide", lambda x, y, nq, *args: runs.append((y, nq))
                        or divide(x, y, nq, *args))
    return runs


def test_fp_gcd_crosses_slot_reduction(monkeypatch):
    # at p = 7 the slots are bytes, and a division of two quotient steps
    # leaves remainder slots of up to 6 + 2 * 36 = 78, so Euclid on degree
    # 300 reduces the divisor's slots mod p before most divisions: the
    # divisor then has every slot below p.  At p = 13 the slots are 64 bits
    # wide, and both operands are unpacked and reduced every 14 or so
    # divisions
    rng = random.Random(300)
    runs = _divisions(monkeypatch)
    unpacked = []
    unpack = _fp._unpack
    monkeypatch.setattr(_fp, "_unpack", lambda *args: unpacked.append(args) or unpack(*args))
    for p in (7, 13):
        for degree in (300, 301, 320):
            g = _random_poly(rng, p, 6, nonzero=True) + [1]
            a = _pypoly.mul([rng.randrange(p) for _ in range(degree)] + [1], g, p)
            b = _pypoly.mul([rng.randrange(p) for _ in range(degree - 1)] + [2], g, p)
            runs.clear()
            unpacked.clear()
            result = _fp.gcd(a, b, p)
            assert result == _pypoly.gcd(a, b, p) and len(result) > 1
            if p == 7:
                reduced = sum(max(y.to_bytes(-(-y.bit_length() // 8), "little")) < p
                              for y, _ in runs[1:])
                assert reduced >= degree // 2
            else:  # two unpacks per reduction, and the result is one more
                assert 2 * 5 + 1 <= len(unpacked) <= 2 * degree // 8 + 1


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_fp_gcd_long_quotients(p, monkeypatch):
    # x = q * y + r with y = (p - 1)(1 + t + ... + t**(n-1)) and the quotient
    # q = 1 + t + ... + t**(m-1): every quotient step adds (p - 1) * y, the
    # most a step can add, so a division of m steps overflows a byte slot
    # unless it runs in parts of at most (255 - (p - 1)) // (p - 1)**2
    # steps with x reduced in between (p <= 11, where the slots are bytes)
    rng = random.Random(p)
    runs = _divisions(monkeypatch)
    longest = (255 - (p - 1)) // (p - 1) ** 2 if p <= 11 else None
    for n, m in ((70, 200), (66, 65), (150, 70), (5, 300), (260, 2)):
        y = [p - 1] * n
        r = [rng.randrange(p) for _ in range(n - 1)]
        x = _pypoly.mul([1] * m, y, p)
        x = [(c + (r[i] if i < len(r) else 0)) % p for i, c in enumerate(x)]
        runs.clear()
        assert _fp.gcd(x, y, p) == _pypoly.gcd(x, y, p), (n, m)
        steps = [nq for _, nq in runs]
        if longest:
            assert max(steps) <= longest and sum(steps) >= m, (n, m)
        else:  # a whole division at a time
            assert steps[0] == m, (n, m)
        assert _fp.gcd(y, x, p) == _pypoly.gcd(y, x, p), (n, m)
    for _ in range(40):  # and random operands with a common factor
        g = _random_poly(rng, p, 20, nonzero=True) + [1]
        a = _pypoly.mul(_random_poly(rng, p, 300, nonzero=True), g, p)
        b = _pypoly.mul(_random_poly(rng, p, 40, nonzero=True), g, p)
        assert _fp.gcd(a, b, p) == _pypoly.gcd(a, b, p)


def _failure(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_fp_errors_match_pure(p):
    a, m = [1, 2, 1], [2, 0, 1]
    for op, args in (
        ("div_rem", (a, [])), ("div_rem", ([], [])), ("rem", (a, [])), ("rem", ([], [])),
        # the zero modulus first, then the negative exponent, then the
        # constant modulus
        ("pow_mod", (a, 2, [])), ("pow_mod", (a, -1, [])), ("pow_mod", (a, -1, m)),
        ("pow_mod", (a, -1, [2])), ("pow_mod", (a, 0, [2])), ("pow_mod", (a, 5, [2])),
        ("pow_mod", (a, 0, m)), ("pow_mod", ([], 0, m)), ("pow_mod", ([], 3, m)),
        ("gcd", ([], [])), ("gcd", ([], a)), ("gcd", (a, [])), ("gcd", ([2], a)),
        ("gcd", (a, a)), ("mul", ([], a)), ("div_rem", ([1], a)), ("div_rem", (a, [2])),
        ("rem", (a, [2])),
    ):
        assert _failure(getattr(_fp, op), *args, p) == _failure(getattr(_pypoly, op), *args, p)


def test_kernel_dispatches_odd_p_to_fp_without_compiled_kernel(monkeypatch):
    # a fresh copy of sintdyn._kernel, imported while _cypoly cannot be and
    # _fp's functions are stand-ins that name themselves
    monkeypatch.setitem(sys.modules, "sintdyn._kernel._cypoly", None)
    monkeypatch.delattr(_kernel, "_cypoly", raising=False)
    for op in KERNEL_OPS:
        if op != "mul_mod":  # _fp has no mul_mod: the kernel's is rem after mul
            monkeypatch.setattr(_fp, op, lambda *args, op=op: op)
    path = Path(_kernel.__file__)
    spec = importlib.util.spec_from_file_location(
        "sintdyn._kernel", path, submodule_search_locations=[str(path.parent)]
    )
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.backend_name() == "python"
    a, m = [1, 0, 1], [1, 1, 0, 1]
    args = {"mul": (a, a), "div_rem": (a, m), "rem": (a, m), "mul_mod": (a, a, m),
            "pow_mod": (a, 3, m), "gcd": (a, m)}
    for op in KERNEL_OPS:
        # mul_mod is rem after mul, so its result comes from _fp.rem; p = 2
        # goes to _fp as well, since ffpoly sends F_2 to _f2 directly
        for p in (3, 2):
            assert getattr(fresh, op)(*args[op], p) == ("rem" if op == "mul_mod" else op)
