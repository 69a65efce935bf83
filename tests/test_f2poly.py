"""A Poly over F_2 holds the int whose bit i is the coefficient of t**i and
runs on _f2.  Every operation must equal the list kernel tests/_pypoly.py
at p = 2, or a one-line list formula where _pypoly has no counterpart, on
hypothesis draws of degree 0 to 2048 that include the 63-, 64- and 65-bit
edges of a machine word."""

import pytest

import _pypoly
from sintdyn._kernel import _f2
from sintdyn.ffpoly import Poly, PrimeField, poly_divmod, poly_gcd, poly_powmod

F2 = PrimeField(2)
# degrees of 63, 64 and 65 bits, of two words, and the top of the range
EDGE_DEGREES = (62, 63, 64, 127, 128, 129, 2047, 2048)
SETTINGS = dict(derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def hypothesis():
    return pytest.importorskip("hypothesis")


def _lists(st, max_degree=2048):
    # canonical coefficient lists, the zero polynomial ([]) included
    edges = [d for d in EDGE_DEGREES if d <= max_degree]
    degree = st.one_of(
        st.integers(-1, 70), st.sampled_from(edges), st.integers(0, max_degree)
    )
    return degree.flatmap(
        lambda d: st.integers(0, 2 ** max(d, 0) - 1).map(
            lambda x: [(x >> i) & 1 for i in range(d)] + [1] if d >= 0 else []
        )
    )


def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _add(a, b):
    # the coefficient-wise sum mod 2
    n = max(len(a), len(b))
    return _strip([(x + y) % 2 for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _text(a):
    # the canonical text form, highest degree first
    terms = ("1" if i == 0 else "t" if i == 1 else f"t^{i}" for i in range(len(a)) if a[i])
    return "+".join(reversed(list(terms))) or "0"


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)
    if isinstance(result, tuple):
        return tuple(v if isinstance(v, list) else v.to_json() for v in result)
    return result if isinstance(result, list) else result.to_json()


def test_arithmetic_matches_list_kernel(hypothesis):
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=50, **SETTINGS)
    @hypothesis.example(a=[], b=[], m=[], exp=0)
    @hypothesis.example(a=[1, 1], b=[], m=[1], exp=5)
    @hypothesis.given(
        a=_lists(st), b=_lists(st), m=_lists(st, max_degree=63),
        exp=st.one_of(st.integers(0, 70), st.integers(0, 2**130)),
    )
    def check(a, b, m, exp):
        degrees.update((len(a) - 1, len(b) - 1))
        f, g, modulus = F2.poly(a), F2.poly(b), F2.poly(m)
        assert (f + g).to_json() == (f - g).to_json() == _add(a, b)
        assert (-f).to_json() == a and (f - f).is_zero
        assert (f + 1).to_json() == _add(a, [1]) == (1 - f).to_json()
        assert (f * g).to_json() == _pypoly.mul(a, b, 2)
        assert (f * 3).to_json() == (3 * f).to_json() == a
        quotient = _outcome(_pypoly.div_rem, a, b, 2)
        assert _outcome(divmod, f, g) == _outcome(poly_divmod, f, g) == quotient
        assert _outcome(lambda: f % g) == _outcome(_pypoly.rem, a, b, 2)
        assert _outcome(lambda: f // g) == (quotient[0] if b else ZeroDivisionError)
        if a or b:
            assert poly_gcd(f, g).to_json() == _pypoly.gcd(a, b, 2)
        else:
            with pytest.raises(ValueError):
                poly_gcd(f, g)
        if len(m) > 1:  # poly_powmod wants a nonconstant modulus
            assert poly_powmod(f, exp, modulus).to_json() == _pypoly.pow_mod(a, exp, m, 2)
        else:
            assert _outcome(poly_powmod, f, exp, modulus) == (
                ZeroDivisionError if not m else ValueError
            )

    degrees = set()
    check()
    assert max(degrees) > 1024 and {-1, 62, 63, 64} <= degrees


def test_kernel_ops_take_the_trailing_p(hypothesis):
    # mul, rem, div_rem, gcd and pow_mod take _kernel's trailing p, always 2
    # and unused: each returns the same, or raises the same, with and without it
    st = hypothesis.strategies

    def outcome(fn, *args):
        try:
            return fn(*args)
        except (ZeroDivisionError, ValueError) as exc:
            return type(exc)

    @hypothesis.settings(max_examples=50, **SETTINGS)
    @hypothesis.example(x=0, y=0, exp=0)
    @hypothesis.example(x=5, y=1, exp=3)
    @hypothesis.given(
        x=st.integers(0, 2**2049 - 1), y=st.integers(0, 2**65 - 1),
        exp=st.one_of(st.integers(0, 70), st.integers(0, 2**130)),
    )
    def check(x, y, exp):
        for op, args in (("mul", (x, y)), ("rem", (x, y)), ("div_rem", (x, y)),
                         ("gcd", (x, y)), ("pow_mod", (x, exp, y))):
            fn = getattr(_f2, op)
            assert outcome(fn, *args, 2) == outcome(fn, *args), op

    check()


def test_unary_operations_and_codes(hypothesis):
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, **SETTINGS)
    @hypothesis.example(a=[], noise=[1, -3])
    @hypothesis.given(a=_lists(st), noise=st.lists(st.integers(-3, 3), max_size=8))
    def check(a, noise):
        f = F2.poly(a)
        code = sum(c << i for i, c in enumerate(a))
        assert f.to_json() == a and f.coeffs == tuple(a)
        assert f.code == code and F2.from_code(code) == f
        assert f.derivative().to_json() == _strip([i * c % 2 for i, c in enumerate(a)][1:])
        assert f.monic() == f
        assert (f.is_zero, bool(f), f.is_monic) == (not a, bool(a), bool(a))
        assert f.constant_term == (a[0] if a else 0)
        if a:
            assert f.degree == len(a) - 1
        else:
            with pytest.raises(ValueError):
                _ = f.degree
        # any integers reduce mod 2: adding even values changes nothing
        padded = a + [0] * len(noise)
        shifted = [c + 2 * k for c, k in zip(padded, noise + [0] * len(padded))]
        assert F2.poly(shifted) == f and hash(F2.poly(shifted)) == hash(f)
        assert str(f) == _text(a) and F2.from_string(str(f)) == f

    check()


def test_order_equality_and_hash(hypothesis):
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, **SETTINGS)
    @hypothesis.example(a=[], b=[1])
    @hypothesis.example(a=[1], b=[])
    @hypothesis.given(a=_lists(st, max_degree=200), b=_lists(st, max_degree=200))
    def check(a, b):
        f, g = F2.poly(a), F2.poly(b)
        # by degree, then by code: the same-length digit strings, top first
        assert (f < g) == ((len(a), a[::-1]) < (len(b), b[::-1]))
        assert (f == g) == (a == b) and (f != g) == (a != b)
        assert f == F2.poly(list(a)) and hash(f) == hash(F2.poly(tuple(a)))
        assert sorted([g, f]) == sorted([g, f], key=lambda v: (len(v.coeffs), v.coeffs[::-1]))

    check()


def test_factories_and_foreign_operands():
    t = F2.t
    assert F2.zero.to_json() == [] and F2.one.to_json() == [1] and t.to_json() == [0, 1]
    assert F2.tn_minus_1(65).to_json() == [1] + [0] * 64 + [1]
    for bad in (lambda: F2.tn_minus_1(0), lambda: F2.from_code(-1)):
        with pytest.raises(ValueError):
            bad()
    assert F2 == PrimeField(2) and hash(F2) == hash(PrimeField(2))
    assert repr(t + 1) == "Poly(F_2, t+1)"
    assert t.__add__("x") is NotImplemented and t.__mul__(1.5) is NotImplemented
    assert not t == PrimeField(3).t and t != PrimeField(3).t
    with pytest.raises(TypeError):
        _ = t < PrimeField(3).t
    with pytest.raises(TypeError):  # only the factories make a Poly over F_2
        Poly(F2, [1, 1])
