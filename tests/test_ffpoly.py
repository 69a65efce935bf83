import functools
import operator
import random

import pytest

import _pypoly
from sintdyn import _kernel, cyclofactor, ffpoly
from sintdyn.ffpoly import (
    FieldMismatchError,
    PrimeField,
    factorize,
    is_irreducible,
    poly_divmod,
    poly_gcd,
    poly_powmod,
)

from oracles import all_monic, brute_factorize, sieve_irreducibles


def _swap_kernel(monkeypatch, p, module):
    # ffpoly runs F_2 on _f2 and packed ints, so at p = 2 the list kernel
    # module is swapped in for _f2 through packing (_pypoly.as_f2); at odd p
    # it replaces the six functions of _kernel
    if p == 2:
        monkeypatch.setattr(ffpoly, "_f2", _pypoly.as_f2(module))
        return
    for op in ("mul", "div_rem", "rem", "mul_mod", "pow_mod", "gcd"):
        monkeypatch.setattr(_kernel, op, getattr(module, op))


def _random_poly(field, rng, max_degree, nonzero=False):
    degree = rng.randrange(max_degree + 1)
    f = field.poly([rng.randrange(field.p) for _ in range(degree + 1)])
    if nonzero and f.is_zero:
        return field.one
    return f


class TestPrimeField:
    def test_rejects_composite_and_out_of_range(self):
        for bad in (0, 1, 4, 9, 2**31, 2**31 + 11, -7):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_limits(self):
        assert PrimeField(2).p == 2
        assert PrimeField(2147483647).p == 2147483647

    def test_equality_by_characteristic(self):
        assert PrimeField(5) == PrimeField(5)
        assert hash(PrimeField(5)) == hash(PrimeField(5))
        assert PrimeField(5) != PrimeField(7)


class TestPolyCanonicalForm:
    def test_reduction_and_stripping(self, F3):
        f = F3.poly([4, -1, 3, 0, 0])
        assert f.coeffs == (1, 2)
        assert F3.poly([0, 0, 0]).is_zero

    def test_zero_degree_undefined(self, F2):
        with pytest.raises(ValueError):
            _ = F2.zero.degree

    def test_equality_iff_same_coeffs(self, F2, F3):
        assert F2.poly([1, 1]) == F2.poly([1, 1])
        assert F2.poly([1, 1]) != F2.poly([1, 1, 1])
        assert F2.poly([1, 1]) != F3.poly([1, 1])

    def test_code_round_trip(self, F5):
        rng = random.Random(11)
        for _ in range(50):
            f = _random_poly(F5, rng, 6)
            assert F5.from_code(f.code) == f

    def test_order_is_degree_then_code(self, F3):
        # every nonzero polynomial of degree <= 3 at p = 3, pair by pair
        polys = [F3.from_code(code) for code in range(1, 3**4)]
        random.Random(13).shuffle(polys)
        for f in polys:
            for g in polys:
                assert (f < g) == ((f.degree, f.code) < (g.degree, g.code)), (str(f), str(g))
        assert sorted(polys) == sorted(polys, key=lambda f: (f.degree, f.code))

    def test_string_round_trip(self, F5):
        rng = random.Random(12)
        for _ in range(50):
            f = _random_poly(F5, rng, 6)
            assert F5.from_string(str(f)) == f

    def test_string_forms(self, F2, F3, F5):
        assert str(F2.zero) == "0"
        assert str(F2.one) == "1"
        assert str(F2.from_string("t^3 + t + 1")) == "t^3+t+1"
        assert str(F5.poly([0, 0, 2])) == "2*t^2"
        assert F3.from_string("t-1") == F3.poly([2, 1])
        assert F5.from_string("2t^2+3") == F5.poly([3, 0, 2])
        with pytest.raises(ValueError):
            F2.from_string("t^-1")
        with pytest.raises(ValueError):
            F2.from_string("")

    def test_field_mismatch(self, F2, F3):
        with pytest.raises(FieldMismatchError):
            _ = F2.one + F3.one
        with pytest.raises(FieldMismatchError):
            poly_gcd(F2.t, F3.t)


class TestOperatorContract:
    """Every binary operator of Poly takes an int as a constant (on either
    side, where the operator has a reflected form), leaves any other non-Poly
    operand to Python's TypeError, rejects mixed fields before anything else,
    and leaves a zero divisor to the kernel's ZeroDivisionError."""

    NAMES = ("__add__", "__sub__", "__rsub__", "__mul__", "__divmod__", "__floordiv__", "__mod__")
    OPERATORS = (operator.add, operator.sub, operator.mul, divmod, operator.floordiv, operator.mod)
    DIVISIONS = (divmod, operator.floordiv, operator.mod)

    def test_int_operand_is_a_constant(self, F3):
        f = F3.from_string("2*t^2+t+1")
        assert 3 - f == -f and 1 - f == F3.from_string("t^2+2*t")
        assert 2 * f == f * 2 == f + f
        assert divmod(f, 1) == (f, F3.zero)
        for n in (1, 2, 4, -1, True):
            c = F3.poly([n])
            assert f + n == n + f == f + c
            assert f - n == f - c and n - f == c - f
            assert f * n == n * f == f * c
            assert divmod(f, n) == divmod(f, c) == poly_divmod(f, c)
            assert f // n == f // c and f % n == f % c

    @pytest.mark.parametrize("other", ("x", 1.5, None))
    def test_non_number_operand_raises_type_error(self, F3, other):
        f = F3.t + 1
        for name in self.NAMES:
            assert getattr(f, name)(other) is NotImplemented
        for op in self.OPERATORS:
            with pytest.raises(TypeError):
                op(f, other)
            with pytest.raises(TypeError):
                op(other, f)

    def test_mixed_fields_raise(self, F2, F3):
        f, g = F2.t + 1, F3.t + 2
        for name in self.NAMES:
            with pytest.raises(FieldMismatchError):
                getattr(f, name)(g)
        for op in self.OPERATORS:
            with pytest.raises(FieldMismatchError):
                op(g, f)
        for op in self.DIVISIONS:  # the field check comes before the zero divisor
            with pytest.raises(FieldMismatchError):
                op(f, F3.zero)
        with pytest.raises(FieldMismatchError):
            poly_divmod(f, F3.zero)

    @pytest.mark.parametrize("p", (2, 3))
    def test_zero_divisor(self, p, kernel_modules, monkeypatch):
        field = PrimeField(p)

        def check():
            for f in (field.from_string("t^2+t+1"), field.one, field.zero):
                for zero in (field.zero, 0, p):
                    for op in self.DIVISIONS:
                        with pytest.raises(ZeroDivisionError, match="^division by zero polynomial$"):
                            op(f, zero)
                with pytest.raises(ZeroDivisionError, match="^division by zero polynomial$"):
                    poly_divmod(f, field.zero)

        check()
        for module in kernel_modules.values():
            _swap_kernel(monkeypatch, p, module)
            check()


class TestDivmod:
    def test_spec_examples(self, F2, F3):
        q, r = poly_divmod(F2.from_string("t^3+1"), F2.from_string("t+1"))
        assert (q, r) == (F2.from_string("t^2+t+1"), F2.zero)
        # identity divisor
        f = F3.from_string("2*t^4+t+1")
        assert poly_divmod(f, F3.one) == (f, F3.zero)
        q, r = poly_divmod(F3.from_string("t^2+1"), F3.from_string("t+1"))
        assert (q, r) == (F3.from_string("t+2"), F3.poly([2]))

    def test_division_by_zero(self, F2):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(F2.one, F2.zero)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_identity_random(self, p):
        field = PrimeField(p)
        rng = random.Random(100 + p)
        for _ in range(200):
            a = _random_poly(field, rng, 12)
            b = _random_poly(field, rng, 6, nonzero=True)
            q, r = poly_divmod(a, b)
            assert b * q + r == a
            assert r.is_zero or r.degree < b.degree


class TestGcd:
    def test_spec_examples(self, F2):
        assert poly_gcd(F2.from_string("t^6+1"), F2.from_string("t^3+1")) == F2.from_string("t^3+1")
        assert poly_gcd(F2.from_string("t^2+t+1"), F2.from_string("t+1")) == F2.one

    def test_gcd_with_zero_is_monic_scaling(self, F5):
        f = F5.from_string("3*t^2+4")
        assert poly_gcd(f, F5.zero) == f.monic()
        assert poly_gcd(F5.zero, f) == f.monic()

    def test_both_zero_rejected(self, F2):
        with pytest.raises(ValueError):
            poly_gcd(F2.zero, F2.zero)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_divides_both(self, p):
        field = PrimeField(p)
        rng = random.Random(200 + p)
        for _ in range(150):
            a = _random_poly(field, rng, 10, nonzero=True)
            b = _random_poly(field, rng, 10, nonzero=True)
            g = poly_gcd(a, b)
            assert g.is_monic
            assert poly_divmod(a, g)[1].is_zero
            assert poly_divmod(b, g)[1].is_zero


class TestPowmod:
    def test_spec_examples(self, F2):
        assert poly_powmod(F2.t, 3, F2.from_string("t^2+t+1")) == F2.one
        assert poly_powmod(F2.from_string("t^3+t+1"), 0, F2.from_string("t^2+1")) == F2.one
        assert poly_powmod(F2.t, 15, F2.from_string("t^4+t^3+t^2+t+1")) == F2.one

    def test_modulus_validation(self, F2):
        with pytest.raises(ZeroDivisionError):
            poly_powmod(F2.t, 2, F2.zero)
        with pytest.raises(ValueError):
            poly_powmod(F2.t, 2, F2.one)
        with pytest.raises(ValueError):
            poly_powmod(F2.t, -1, F2.from_string("t^2+t+1"))

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_frobenius_fixed_field(self, p):
        # t^(p^deg f) = t mod f for irreducible f
        field = PrimeField(p)
        for v in sieve_irreducibles(field, 4 if p == 5 else 5):
            assert poly_powmod(field.t, p**v.degree, v) == field.t % v


def _strip(c):
    while c and not c[-1]:
        c.pop()
    return c


def _list_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _strip([(x + y) % p for x, y in zip(a, b)])


def _list_mul(a, b, p):
    c = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    return _strip(c)


def _list_divmod(a, b, p):
    r, inv = list(a), pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, shift = r[-1] * inv % p, len(r) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            r[i + shift] = (r[i + shift] - c * y) % p
        _strip(r)
    return _strip(q), r


def _list_monic(a, p):
    return [x * pow(a[-1], -1, p) % p for x in a] if a else []


def _list_gcd(a, b, p):
    while b:
        a, b = b, _list_divmod(a, b, p)[1]
    return _list_monic(a, p)


def _list_powmod(a, e, m, p):
    result, base = _list_divmod([1], m, p)[1], _list_divmod(a, m, p)[1]
    for _ in range(e):
        result = _list_divmod(_list_mul(result, base, p), m, p)[1]
    return result


class TestOddPOracle:
    """Every Poly operation at odd p against integer-list arithmetic mod p
    written here, including the results whose trailing zeros must be
    stripped: f + (-f), a cancelled leading term, the derivative of a
    polynomial in t^p, and zero made monic."""

    @pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
    def test_operations_match_list_arithmetic(self, p):
        field = PrimeField(p)
        rng = random.Random(300 + p)
        neg = lambda a: [-x % p for x in a]
        for _ in range(120):
            a = _random_poly(field, rng, 9)
            b = _random_poly(field, rng, 6, nonzero=True)
            m = field.poly([rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
            la, lb, lm = list(a.coeffs), list(b.coeffs), list(m.coeffs)
            assert list((a + b).coeffs) == _list_add(la, lb, p)
            assert list((a - b).coeffs) == _list_add(la, neg(lb), p)
            assert list((-a).coeffs) == neg(la)
            assert list(a.monic().coeffs) == _list_monic(la, p)
            assert list(a.derivative().coeffs) == _strip([i * x % p for i, x in enumerate(la)][1:])
            assert list((a * b).coeffs) == _list_mul(la, lb, p)
            q, r = _list_divmod(la, lb, p)
            assert list((a % b).coeffs) == r
            assert [list(x.coeffs) for x in divmod(a, b)] == [q, r]
            assert list(poly_gcd(a, b).coeffs) == _list_gcd(la, lb, p)
            e = rng.randrange(12)
            assert list(poly_powmod(a, e, m).coeffs) == _list_powmod(la, e, lm, p)

    @pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
    def test_results_that_strip(self, p):
        field = PrimeField(p)
        f = field.poly([1, 2, 0, p - 1])
        assert (f + (-f)).coeffs == () and (f - f).coeffs == ()
        g = field.poly([2, 0, 1, 1])  # the leading terms of f + g cancel
        assert (f + g).coeffs == (3 % p, 2, 1) and (f + (-f + 1)).coeffs == (1,)
        assert field.zero.monic().coeffs == ()
        if p < 10:  # h(t) = 1 + 2 t^p + t^(2p) has h' = 0
            h = field.poly([1] + [0] * (p - 1) + [2] + [0] * (p - 1) + [1])
            assert h.derivative().coeffs == () and h.derivative().is_zero
            assert (h + field.t).derivative().coeffs == (1,)


class TestKernelLookup:
    """Poly operations and the split of cyclofactor look the kernel entry
    points up at call time, in sintdyn._kernel at odd p and in
    sintdyn._kernel._f2 at p = 2, so a name rebound after import (as
    clibench/tracer.py does) sees every call."""

    @pytest.mark.parametrize("p, module", ((3, _kernel), (2, _kernel._f2)))
    def test_rebound_names_are_reached(self, monkeypatch, p, module):
        calls = {}
        for op in ("mul", "rem", "div_rem", "gcd", "pow_mod"):
            def counted(*args, op=op, original=getattr(module, op)):
                calls[op] = calls.get(op, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, op, counted)
        field = PrimeField(p)
        f, g = field.from_string("t^4+t+1"), field.from_string("t^2+1")
        for op, run in (
            ("mul", lambda: f * g), ("rem", lambda: f % g), ("div_rem", lambda: divmod(f, g)),
            ("gcd", lambda: poly_gcd(f, g)), ("pow_mod", lambda: poly_powmod(f, 5, g)),
        ):
            before = calls.get(op, 0)
            run()
            assert calls.get(op, 0) > before, op

    # pi_21 mod 2, pi_13 mod 3 and pi_19 mod 7 (2, 4 and 6 factors) take the
    # coset-sum split, by the classes of the coset sums' values at p <= 5 and
    # by Cantor-Zassenhaus above
    @pytest.mark.parametrize("p, d, module, ops", (
        (2, 21, _kernel._f2, ("gcd",)), (3, 13, _kernel, ("gcd",)),
        (7, 19, _kernel, ("gcd", "pow_mod")),
    ))
    def test_cold_split_reaches_rebound_names(self, monkeypatch, p, d, module, ops):
        calls = dict.fromkeys(ops, 0)
        for op in ops:
            def counted(*args, op=op, original=getattr(module, op)):
                calls[op] += 1
                return original(*args)

            monkeypatch.setattr(module, op, counted)
        cyclofactor._cyclotomic_factors.cache_clear()
        try:
            assert len(cyclofactor._cyclotomic_factors(p, d)) > 1
        finally:
            cyclofactor._cyclotomic_factors.cache_clear()
        assert all(calls.values()), calls


class TestIrreducible:
    def test_spec_examples(self, F2):
        assert is_irreducible(F2.from_string("t^2+t+1"))
        assert not is_irreducible(F2.from_string("t^2+1"))
        assert is_irreducible(F2.from_string("t^4+t^3+t^2+t+1"))

    def test_rejects_constants(self, F2):
        with pytest.raises(ValueError):
            is_irreducible(F2.one)
        with pytest.raises(ValueError):
            is_irreducible(F2.zero)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_agrees_with_trial_division_sieve(self, p):
        field = PrimeField(p)
        max_degree = 6
        expected = set(sieve_irreducibles(field, max_degree))
        for d in range(1, max_degree + 1):
            for f in all_monic(field, d):
                assert is_irreducible(f) == (f in expected), f

    def test_non_monic_inputs(self, F5):
        # irreducibility is invariant under unit scaling
        v = F5.from_string("t^2+2")
        assert is_irreducible(v)
        assert is_irreducible(F5.poly([4, 0, 2]))  # 2*(t^2+2)

    @staticmethod
    def _irreducible(field, degree, rng):
        # a seeded draw that factorize, the distinct-degree oracle, confirms
        while True:
            f = field.poly([rng.randrange(field.p) for _ in range(degree)] + [1])
            if factorize(f) == [(f, 1)]:
                return f

    @pytest.mark.parametrize("m", (30, 60))
    def test_chain_rejects_at_every_checkpoint(self, F2, m):
        # the chain visits k = m/5, m/3, m/2 and then m.  A product of l
        # distinct irreducibles of degree m/l passes t^(2^m) = t and every
        # gcd but the one at k = m/l, which no other k is a multiple of; a
        # pair of degrees 7 and m - 7 passes every gcd and fails only
        # t^(2^m) = t
        rng = random.Random(m)
        shapes = [[m // ell] * ell for ell in (5, 3, 2)] + [[7, m - 7]]
        for degrees in shapes:
            factors = set()
            while len(factors) < len(degrees):
                factors.add(self._irreducible(F2, degrees[len(factors)], rng))
            f = functools.reduce(operator.mul, factors)
            assert f.degree == m
            assert not is_irreducible(f), degrees

    @pytest.mark.parametrize("nj", (61, 101))
    def test_chain_accepts_artin_pi(self, F2, nj):
        # 2 is a primitive root mod 61 and mod 101, so 1 + t + ... + t^(nj-1)
        # is irreducible over F_2 (m = 60 and 100)
        assert is_irreducible(F2.poly([1] * nj))
        assert not is_irreducible(F2.poly([1] * (nj - 1)))

    def test_verdict_is_memoized(self, F3):
        is_irreducible.cache_clear()
        f = F3.from_string("t^4+t+2")
        assert is_irreducible(f) == is_irreducible(F3.poly(f.coeffs)) == is_irreducible(f)
        info = is_irreducible.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("p", (2, 3))
    def test_same_verdicts_on_every_backend(self, p, kernel_modules, monkeypatch):
        # the memo is cleared after each kernel swap, or every verdict past
        # the first backend would be a cache hit
        field = PrimeField(p)
        cases = list(all_monic(field, 4))
        is_irreducible.cache_clear()
        expected = [is_irreducible(f) for f in cases]
        for module in kernel_modules.values():
            _swap_kernel(monkeypatch, p, module)
            is_irreducible.cache_clear()
            assert [is_irreducible(f) for f in cases] == expected
            assert is_irreducible.cache_info().misses == len(cases)
        is_irreducible.cache_clear()


class TestFactorize:
    def test_spec_examples(self, F2):
        assert factorize(F2.from_string("t^6+1")) == [
            (F2.from_string("t+1"), 2),
            (F2.from_string("t^2+t+1"), 2),
        ]
        v = F2.from_string("t^3+t+1")
        assert factorize(v) == [(v, 1)]
        assert factorize(F2.from_string("t^7+1")) == [
            (F2.from_string("t+1"), 1),
            (F2.from_string("t^3+t+1"), 1),
            (F2.from_string("t^3+t^2+1"), 1),
        ]

    def test_rejects_constants(self, F3):
        with pytest.raises(ValueError):
            factorize(F3.one)
        with pytest.raises(ValueError):
            factorize(F3.zero)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_round_trip_random(self, p):
        field = PrimeField(p)
        rng = random.Random(300 + p)
        for _ in range(80):
            f = _random_poly(field, rng, 12, nonzero=True)
            if f.degree < 1:
                continue
            product = field.one
            for v, mult in factorize(f):
                assert v.is_monic and is_irreducible(v)
                for _ in range(mult):
                    product = product * v
            assert product == f.monic()

    @pytest.mark.parametrize("p", (2, 3))
    def test_matches_brute_oracle(self, p):
        field = PrimeField(p)
        rng = random.Random(400 + p)
        for _ in range(25):
            f = _random_poly(field, rng, 9, nonzero=True)
            if f.degree < 1:
                continue
            assert factorize(f) == brute_factorize(f)

    def test_high_multiplicity_and_p_power(self, F3):
        t = F3.t
        f = (t + 1) * (t + 1) * (t + 1) * t * t * t * t * t * t * (t + 2)
        assert factorize(f) == [
            (F3.t, 6),
            (F3.from_string("t+1"), 3),
            (F3.from_string("t+2"), 1),
        ]

    def test_deterministic_across_runs_and_backends(self, F5, kernel_modules, monkeypatch):
        f = F5.tn_minus_1(24)
        first = factorize(f)
        assert factorize(f) == first
        for module in kernel_modules.values():
            _swap_kernel(monkeypatch, 5, module)
            assert factorize(f) == first



class TestDeepEqualDegreeSplit:
    """A product of many distinct irreducibles of one degree makes the
    equal-degree split recurse deepest.  The trial-division sieve supplies
    the factors, so this oracle needs no sympy."""

    @staticmethod
    def _check(factors):
        factors = sorted(factors)
        product = functools.reduce(operator.mul, factors)
        assert factorize(product) == [(v, 1) for v in factors]
        if product.field.p != 2:
            # the squared product reaches the gcd(g, g') != 1 branch
            assert factorize(product * product) == [(v, 2) for v in factors]

    @pytest.mark.parametrize(
        "p, d, count", ((2, 4, 3), (2, 6, 9), (3, 3, 8), (5, 2, 10), (7, 2, 21))
    )
    def test_every_irreducible_of_one_degree(self, p, d, count):
        field = PrimeField(p)
        factors = [v for v in sieve_irreducibles(field, d) if v.degree == d]
        assert len(factors) == count
        self._check(factors)

    def test_linear_factors_at_large_p(self):
        field = PrimeField(2**31 - 1)
        rng = random.Random(0xD1CE)
        roots = set()
        while len(roots) < 12:
            roots.add(rng.randrange(field.p))
        self._check(field.t - c for c in roots)


class TestAgainstSympyAtP2:
    """At p = 2 every kernel call takes the packed path; is_irreducible and
    factorize must still agree with sympy on seeded random polynomials of
    degree <= 64: products with repeated factors, arbitrary ones, and ones
    of degree <= 20 with no root in F_2, a third of which are irreducible."""

    def test_is_irreducible_and_factorize(self, F2):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(64)
        irreducible = 0
        for case in range(150):
            if case % 3 == 0:
                f = F2.one
                for _ in range(3):
                    g = _random_poly(F2, rng, 7, nonzero=True)
                    for _ in range(rng.randrange(1, 4)):
                        f = f * g
            elif case % 3 == 1:
                f = _random_poly(F2, rng, 64)
            else:
                f = F2.poly([1] + [rng.randrange(2) for _ in range(rng.randrange(1, 20))] + [1])
                if sum(f.coeffs) % 2 == 0:
                    f = f + F2.t
            if f.is_zero or f.degree < 1:
                continue
            reference = sympy.Poly(sum(c * t**i for i, c in enumerate(f.coeffs)), t, modulus=2)
            _, pairs = reference.factor_list()
            expected = sorted(
                (F2.poly(reversed([int(c) for c in v.all_coeffs()])), mult) for v, mult in pairs
            )
            assert factorize(f) == expected, str(f)
            assert is_irreducible(f) == reference.is_irreducible, str(f)
            irreducible += reference.is_irreducible
        assert irreducible >= 15


class TestAgainstSympyAtOddP:
    """At odd p factorize, is_irreducible and poly_gcd must agree with
    sympy on seeded draws of four kinds: products with repeated factors
    (the squarefree path), h(t^p) times a cofactor (the p-th root; left out
    at 2^31 - 1, where t^p is out of reach), arbitrary polynomials, and
    monic ones of degree 2 or 3, which give at least ten irreducible cases
    per p.  sympy keeps symmetric residues, so its factors are reduced mod
    p and made monic before the comparison."""

    @pytest.mark.parametrize("p", (3, 5, 7, 2**31 - 1))
    def test_factorize_is_irreducible_and_gcd(self, p):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        field = PrimeField(p)
        rng = random.Random(p)
        max_degree = 10 if p > 7 else 16

        def to_sympy(f):
            return sympy.Poly(f.coeffs[::-1], t, modulus=p)

        def from_sympy(v):
            return field.poly(int(c) % p for c in reversed(v.all_coeffs())).monic()

        irreducible = 0
        for case in range(72):
            kind = min(case % 6, 3)
            if kind == 1 and p > 7:
                continue
            if kind == 0:
                f = field.one
                for _ in range(2):
                    g = _random_poly(field, rng, 4, nonzero=True)
                    for _ in range(rng.randrange(1, 4)):
                        f = f * g
            elif kind == 1:
                h = _random_poly(field, rng, 12 // p + 1, nonzero=True)
                coeffs = [0] * (p * len(h.coeffs))
                coeffs[::p] = h.coeffs
                f = field.poly(coeffs) * _random_poly(field, rng, 3, nonzero=True)
            elif kind == 2:
                f = _random_poly(field, rng, max_degree)
            else:
                f = field.poly([rng.randrange(p) for _ in range(rng.randrange(2, 4))] + [1])
            if f.is_zero or f.degree < 1:
                continue
            reference = to_sympy(f)
            _, pairs = reference.factor_list()
            expected = sorted((from_sympy(v), mult) for v, mult in pairs)
            assert factorize(f) == expected, str(f)
            assert is_irreducible(f) == reference.is_irreducible, str(f)
            irreducible += reference.is_irreducible
            common = _random_poly(field, rng, 4, nonzero=True)
            a, b = f * common, _random_poly(field, rng, max_degree, nonzero=True) * common
            assert poly_gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))), str(f)
        assert irreducible >= 10
