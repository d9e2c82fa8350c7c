import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from supersym import series
from supersym.enveloping import PbwElement
from supersym.liealg import catalog
from supersym.series import TruncatedSeries1, TruncatedSeries2
from supersym.superpoly import VariableTable


# Series helpers that only the tests call: composition by Horner's rule on
# numerators, and the series built on it.

def compose(f: TruncatedSeries1, g: TruncatedSeries1) -> TruncatedSeries1:
    """f(g(t)); requires g(0) = 0 so the substitution is finite.

    Horner's rule on the numerators of the forms (fd, fn) of f and (gd, gn)
    of g: after each step the value so far is r / (fd * d), so multiplying
    by g multiplies d by gd and the next coefficient of f enters as fn[k] * d.
    """
    (fd, f_form), (gd, g_form) = f.form, g.form
    if (0,) in g_form:
        raise ValueError("composition requires zero constant term in the inner series")
    n = min(f.order, g.order)
    fn, gn = ([form.get((k,), 0) for k in range(n + 1)] for form in (f_form, g_form))
    r, d = [fn[n]] + [0] * n, 1
    for k in range(n - 1, -1, -1):
        r = [sum(map(mul, r[: j + 1], gn[j::-1])) for j in range(n + 1)]
        d *= gd
        r[0] += fn[k] * d
        common = math.gcd(d, *r)
        if common > 1:
            r = [v // common for v in r]
            d //= common
    return TruncatedSeries1._of((fd * d, {(k,): v for k, v in enumerate(r) if v}), n)


def exp_series(order) -> TruncatedSeries1:
    return TruncatedSeries1([Fraction(1, math.factorial(k)) for k in range(order + 1)], order)


def log1p_series(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)], order
    )


def exp_of(f: TruncatedSeries1) -> TruncatedSeries1:
    return compose(exp_series(f.order), f)


def inverse_of(f: TruncatedSeries1) -> TruncatedSeries1:
    """1/f for f with invertible constant term."""
    c0 = f.coeff(0)
    if c0 == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    e = f * (Fraction(1) / c0) - 1
    geom = TruncatedSeries1(
        [Fraction((-1) ** k) for k in range(f.order + 1)], f.order
    )
    return compose(geom, e) * (Fraction(1) / c0)


def cosh_series(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )


def tanh_series(order):
    sh = TruncatedSeries1(
        [Fraction(1, math.factorial(k)) if k % 2 else Fraction(0) for k in range(order + 1)],
        order,
    )
    return sh * inverse_of(cosh_series(order))


def coth_times_t(order):
    # t*coth(t) = t*cosh/sinh = cosh / (sinh/t)
    return cosh_series(order) * inverse_of(series.sinh_over_t(order))


def oracle_bernoulli(n) -> list:
    """B_0 .. B_n by the exact Fraction inversion of (e^t - 1)/t, the route
    ``series.bernoulli`` took before the tangent numbers: I_0 = 1,
    I_m = -sum_{k=1..m} I_{m-k} / (k+1)!, and B_m = m! I_m."""
    inv = [Fraction(1)]
    for m in range(1, n + 1):
        inv.append(-sum(Fraction(1, math.factorial(k + 1)) * inv[m - k] for k in range(1, m + 1)))
    return [v * math.factorial(m) for m, v in enumerate(inv)]


@pytest.fixture
def empty_bernoulli_table():
    """The kept Bernoulli table, emptied for the test and restored after."""
    table = series._bernoulli_cache
    saved = list(table)
    table.clear()
    yield table
    table[:] = saved


class TestBernoulli:
    def test_small_values(self):
        assert series.bernoulli(0) == 1
        assert series.bernoulli(1) == Fraction(-1, 2)
        assert series.bernoulli(2) == Fraction(1, 6)
        assert series.bernoulli(3) == 0
        assert series.bernoulli(4) == Fraction(-1, 30)
        assert series.bernoulli(12) == Fraction(-691, 2730)

    def test_against_the_fraction_inversion(self):
        assert [series.bernoulli(n) for n in range(101)] == oracle_bernoulli(100)

    def test_a_larger_n_refills_the_table_whole(self, empty_bernoulli_table):
        table, expected = empty_bernoulli_table, oracle_bernoulli(40)
        for n, length in ((4, 6), (40, 42), (10, 42)):
            assert series.bernoulli(n) == expected[n]
            assert series._bernoulli_cache is table and len(table) == length
        assert table == expected + [0]

    def test_odd_numbers_vanish_and_negative_indices_are_refused(self):
        assert all(series.bernoulli(n) == 0 for n in range(3, 80, 2))
        with pytest.raises(ValueError):
            series.bernoulli(-1)

    def test_series_from_the_oracle_numbers(self, empty_bernoulli_table):
        # each series at order 31, built on an empty table, against its
        # coefficients in B_n read off the oracle: the same form, keys in the
        # same order
        order, b = 31, oracle_bernoulli(32)
        fact = math.factorial

        def built(make, *args):
            empty_bernoulli_table.clear()
            return make(*args, order)

        cases = [(built(series.t_over_exp_minus_one), [b[n] / fact(n) for n in range(order + 1)])]
        for c in (Fraction(1), Fraction(2, 3), Fraction(-5, 2)):
            cases += [
                (built(series.p_c, c), [
                    c if n == 0 else b[n] * 2**n / (fact(n) * c ** (n - 1)) if n % 2 == 0 else 0 for n in range(order + 1)
                ]),
                (built(series.q_c, c), [
                    -2 * b[n + 1] * (2 ** (n + 1) - 1) / (fact(n + 1) * c**n) if n % 2 else 0 for n in range(order + 1)
                ]),
                (built(series.w_c, c), [
                    b[n] * 2**n / (n * fact(n) * c**n) if n and n % 2 == 0 else 0 for n in range(order + 1)
                ]),
            ]
        for got, coefficients in cases:
            want = TruncatedSeries1(coefficients, order)
            assert got == want and list(got.form[1]) == list(want.form[1])

    def test_generating_series(self):
        # sum b_n t^n / n! times (e^t - 1)/t is 1
        n = 14
        gen = series.t_over_exp_minus_one(n)
        e = TruncatedSeries1([Fraction(1, math.factorial(k + 1)) for k in range(n + 1)], n)
        assert gen * e == TruncatedSeries1.constant(1, n)


class TestDistinguishedSeries:
    def test_p_c_examples(self):
        p1 = series.p_c(1, 4)
        assert p1.coefficients == [1, 0, Fraction(1, 3), 0, Fraction(-1, 45)]
        p2 = series.p_c(2, 2)
        assert p2.coeff(0) == 2 and p2.coeff(2) == Fraction(1, 6)
        assert series.p_c(Fraction(5, 7), 9).coeff(1) == 0

    def test_p_c_against_coth_division(self):
        assert series.p_c(1, 10) == coth_times_t(10)

    def test_truncate_refuses_a_higher_order(self):
        # p_c(1, 8) has nonzero t^6 and t^8 terms that p_c(1, 4) cannot know
        p4 = series.p_c(1, 4)
        with pytest.raises(ValueError):
            p4.truncate(8)
        assert series.p_c(1, 8).truncate(4) == p4 and p4.truncate(4) == p4

    def test_q_c_examples(self):
        q1 = series.q_c(1, 3)
        assert q1.coefficients == [0, Fraction(-1, 2), 0, Fraction(1, 24)]
        assert series.q_c(2, 3).coeff(1) == Fraction(-1, 4)
        assert series.q_c(3, 8).coeff(2) == 0

    def test_q_c_against_tanh_division(self):
        th = tanh_series(11)
        assert series.q_c(1, 11) == -1 * th.scale_variable(Fraction(1, 2))

    def test_w_c_examples(self):
        w1 = series.w_c(1, 4)
        assert w1.coefficients == [0, 0, Fraction(1, 6), 0, Fraction(-1, 180)]
        assert series.w_c(2, 2).coeff(2) == Fraction(1, 24)

    def test_w_c_against_log_of_sinh(self):
        w = series.log_of_one_plus(series.sinh_over_t(10) - 1)
        assert series.w_c(1, 10) == w

    def test_w_derivative_identity(self):
        # c t w'_c(t) = p_c(t) - c
        for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
            n = 9
            w = series.w_c(c, n + 1)
            p = series.p_c(c, n)
            lhs = w.derivative() * c  # degree n-? ; multiply by t via shift
            shifted = TruncatedSeries1([0] + lhs.coefficients, n + 1).truncate(n)
            assert shifted == p - c

    def test_zero_c_rejected(self):
        for fn in (series.p_c, series.q_c, series.w_c):
            with pytest.raises(ValueError):
                fn(0, 4)


class TestCompose:
    def test_exp_log_inverse_pair(self):
        n = 10
        e = exp_series(n)
        lg = log1p_series(n)
        assert compose(e, lg) == TruncatedSeries1(
            [1, 1] + [0] * (n - 1), n
        )

    def test_identity(self):
        f = series.p_c(1, 8)
        assert compose(f, TruncatedSeries1.t(8)) == f

    def test_exp_of_w_is_sinh_over_t(self):
        n = 10
        assert exp_of(series.w_c(1, n)) == series.sinh_over_t(n)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            compose(exp_series(4), TruncatedSeries1.constant(1, 4))


class TestDividedDifference:
    def test_square(self):
        f = TruncatedSeries1.monomial(1, 2, 7)
        dd = series.divided_difference(f, 6)
        assert dd == TruncatedSeries2({(1, 0): 2, (0, 1): 1}, 6)

    def test_linear(self):
        f = TruncatedSeries1.monomial(1, 1, 7)
        assert series.divided_difference(f, 6) == TruncatedSeries2({(0, 0): 1}, 6)

    def test_constant(self):
        f = TruncatedSeries1.constant(5, 7)
        assert series.divided_difference(f, 6).is_zero()

    def test_order_requirement(self):
        with pytest.raises(ValueError):
            series.divided_difference(TruncatedSeries1.monomial(1, 2, 6), 6)


class TestFunctionalEquations:
    def test_symmetric_solution(self):
        n = 12
        for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
            p = series.p_c(c, n + 1)
            d = TruncatedSeries1([0, -1], n + 1)
            residuals = series.check_symmetric_equations(p, d, n)
            assert all(r.is_zero() for r in residuals)

    def test_zero_pair(self):
        n = 8
        z = TruncatedSeries1.zero(n + 1)
        residuals = series.check_symmetric_equations(z, z, n)
        assert all(r.is_zero() for r in residuals)

    def test_symmetric_perturbation_detected(self):
        n = 12
        p = series.p_c(1, n + 1)
        coeffs = list(p.coefficients)
        coeffs[2] += 1
        bad = TruncatedSeries1(coeffs, n + 1)
        d = TruncatedSeries1([0, -1], n + 1)
        residuals = series.check_symmetric_equations(bad, d, n)
        assert any(not r.is_zero() for r in residuals)

    def test_parity_validation(self):
        n = 6
        with pytest.raises(ValueError):
            series.check_symmetric_equations(
                TruncatedSeries1.t(n + 1), TruncatedSeries1([0, -1], n + 1), n
            )

    def test_coinduced_solution(self):
        n = 12
        one = TruncatedSeries1.constant(1, n + 1)
        for c in (Fraction(1), Fraction(2)):
            residuals = series.check_coinduced_equations(one, series.q_c(c, n + 1), c, n)
            assert all(r.is_zero() for r in residuals)

    def test_coinduced_zero_pair(self):
        n = 8
        z = TruncatedSeries1.zero(n + 1)
        residuals = series.check_coinduced_equations(z, z, 1, n)
        assert all(r.is_zero() for r in residuals)

    def test_coinduced_perturbation_detected(self):
        n = 12
        one = TruncatedSeries1.constant(1, n + 1)
        q = series.q_c(1, n + 1)
        coeffs = list(q.coefficients)
        coeffs[3] += 1
        bad = TruncatedSeries1(coeffs, n + 1)
        residuals = series.check_coinduced_equations(one, bad, 1, n)
        assert any(not r.is_zero() for r in residuals)


class TestClassicalIdentities:
    def test_exp_jacobian_identity(self):
        assert series.exp_jacobian_identity_residual(12).is_zero()

    def test_tanh_coth_identity(self):
        for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
            assert series.tanh_coth_identity_residual(c, 12).is_zero()

    def test_p1_differential_equation(self):
        # t p' + p(p - 1) = t^2
        n = 12
        p = series.p_c(1, n + 1)
        tp = TruncatedSeries1([0] + p.derivative().coefficients, n + 1).truncate(n)
        lhs = tp + p.truncate(n) * (p.truncate(n) - 1)
        assert lhs == TruncatedSeries1.monomial(1, 2, n)

    def test_q_c_differential_equation(self):
        # c q' + (q/t) p_c = -1
        n = 11
        for c in (Fraction(1), Fraction(3, 2)):
            q = series.q_c(c, n + 1)
            lhs = q.derivative() * c + q.divide_by_t() * series.p_c(c, n)
            assert lhs == TruncatedSeries1.constant(-1, n)

    def test_scaling_covariance(self):
        # p_c(t) = c * p_1(t/c)
        n = 10
        for c in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
            assert series.p_c(c, n) == series.p_c(1, n).scale_variable(1 / c) * c


# -- oracle: the Fraction-by-Fraction convolutions the integer kernels replaced


def oracle_product1(a, b):
    """Coefficient list of a*b in one variable, one Fraction operation each."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coefficients):
        if x == 0 or i > n:
            continue
        for j, y in enumerate(b.coefficients):
            if i + j > n:
                break
            if y:
                out[i + j] += x * y
    return out


def oracle_product2(a, b):
    """Coefficient dict of a*b in two variables, one Fraction operation each."""
    n = min(a.order, b.order)
    terms = {}
    for (i1, j1), x in a.coefficients.items():
        for (i2, j2), y in b.coefficients.items():
            i, j = i1 + i2, j1 + j2
            if i + j > n:
                continue
            terms[(i, j)] = terms.get((i, j), Fraction(0)) + x * y
    return {k: v for k, v in terms.items() if v != 0}


_BIG = 10**12
coefficients = st.one_of(
    st.just(0),
    st.sampled_from([1, -1, 2]),
    st.builds(
        Fraction,
        st.integers(-_BIG, _BIG),
        st.integers(1, _BIG) | st.integers(-_BIG, -1),
    ),
).map(Fraction)


def series1(order):
    return st.lists(coefficients, max_size=order + 1).map(lambda c: TruncatedSeries1(c, order))


def series2(order):
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(lambda k: sum(k) <= order)
    return st.dictionaries(keys, coefficients, max_size=12).map(lambda c: TruncatedSeries2(c, order))


class TestProductOracle:
    @given(series1(30), series1(30), st.integers(27, 30))
    @settings(max_examples=60, deadline=None)
    def test_one_variable_product_matches_fraction_loop(self, a, b, order):
        b = b.truncate(order)
        product = a * b
        assert product.order == order
        assert product.coefficients == oracle_product1(a, b)
        assert all(type(c) is Fraction for c in product.coefficients)

    @given(series2(30), series2(30), st.integers(27, 30))
    @settings(max_examples=60, deadline=None)
    def test_two_variable_product_matches_fraction_loop(self, a, b, order):
        b = TruncatedSeries2(b.coefficients, order)
        product = a * b
        assert product.order == order
        # same values and the same key order as the Fraction loop
        assert list(product.coefficients.items()) == list(oracle_product2(a, b).items())

    def test_order_30_products_of_the_distinguished_series(self):
        n = 30
        p, q, w = series.p_c(Fraction(2, 3), n), series.q_c(-3, n), series.w_c(5, n)
        for a, b in ((p, q), (q, w), (w, p), (p, p)):
            assert (a * b).coefficients == oracle_product1(a, b)
        pairs2 = [
            (TruncatedSeries2.from_sum(p, n), series.divided_difference(q, n - 1)),
            (TruncatedSeries2.from_t(w, n), TruncatedSeries2.from_u(p, n)),
        ]
        for a, b in pairs2:
            assert (a * b).coefficients == oracle_product2(a, b)


def oracle_divided_difference(f, order):
    """(f(t+u) - f(t))/u by subtracting the two expansions and shifting u
    down, with the exact division asserted."""
    diff = TruncatedSeries2.from_sum(f, order + 1) - TruncatedSeries2.from_t(f, order + 1)
    terms = {}
    for (i, j), c in diff.coefficients.items():
        if j == 0:
            assert c == 0, "difference is not divisible by u"
            continue
        if i + j - 1 <= order:
            terms[(i, j - 1)] = c
    return TruncatedSeries2(terms, order)


class TestDividedDifferenceOracle:
    @given(series1(31), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_matches_subtraction_route(self, f, order):
        got = series.divided_difference(f, order)
        expected = oracle_divided_difference(f, order)
        assert got.order == expected.order == order
        # same values and the same key order
        assert list(got.coefficients.items()) == list(expected.coefficients.items())
        assert all(type(c) is Fraction for c in got.coefficients.values())

    def test_distinguished_series_at_every_order(self):
        for f in (series.p_c(Fraction(2, 3), 31), series.q_c(-3, 31), series.w_c(5, 31)):
            for order in range(31):
                got = series.divided_difference(f, order)
                expected = oracle_divided_difference(f, order)
                assert list(got.coefficients.items()) == list(expected.coefficients.items())
            assert series.divided_difference(f) == oracle_divided_difference(f, 30)


# -- the stored form: integer numerators over one denominator, against
# -- Fraction loops over the coefficients


def oracle_linear1(a, b, sb):
    """Coefficient list of a + sb * b in one variable."""
    n = min(a.order, b.order)
    return [a.coeff(k) + sb * b.coeff(k) for k in range(n + 1)]


def oracle_linear2(a, b, sb):
    """Coefficient dict of a + sb * b in two variables, in the key order
    of the dict sum: the keys of a, then the new keys of b."""
    n = min(a.order, b.order)
    terms = dict(a.coefficients)
    for k, v in b.coefficients.items():
        terms[k] = terms.get(k, Fraction(0)) + sb * v
    return {k: v for k, v in terms.items() if v != 0 and sum(k) <= n}


def oracle_from_sum(f, order):
    terms = {}
    for n, c in enumerate(f.coefficients):
        if c != 0 and n <= order:
            for k in range(n + 1):
                terms[(k, n - k)] = c * math.comb(n, k)
    return terms


def oracle_divided_difference_loop(f, order):
    terms = {}
    for n, c in enumerate(f.coefficients[: order + 2]):
        if c != 0 and n:
            for k in range(n):
                terms[(k, n - k - 1)] = c * math.comb(n, k)
    return terms


def oracle_compose(f, g):
    """Horner's rule with one Fraction operation per coefficient."""
    n = min(f.order, g.order)
    out = [f.coeff(n)] + [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        out = oracle_product1(TruncatedSeries1(out, n), g.truncate(n))
        out[0] += f.coeff(k)
    return out


def assert_reduced(s):
    den, nums = s.form
    assert den > 0 and math.gcd(den, *nums.values()) == 1
    assert all(nums.values()) and all(sum(k) <= s.order for k in nums)


scalars = st.sampled_from([0, 1, -1, 3]) | coefficients


class TestStoredForm:
    @given(series1(30), series1(30), st.integers(27, 30), scalars)
    @settings(max_examples=60, deadline=None)
    def test_one_variable_linear_operations(self, a, b, order, s):
        b = b.truncate(order)
        for got, expected in [
            (a + b, oracle_linear1(a, b, 1)),
            (a - b, oracle_linear1(a, b, -1)),
            (-a, [-c for c in a.coefficients]),
            (a * s, [c * s for c in a.coefficients]),
            (s * a, [c * s for c in a.coefficients]),
        ]:
            assert got.coefficients == expected
            assert all(type(c) is Fraction for c in got.coefficients)
            assert_reduced(got)

    @given(series2(30), series2(30), st.integers(27, 30), scalars)
    @settings(max_examples=60, deadline=None)
    def test_two_variable_linear_operations(self, a, b, order, s):
        b = TruncatedSeries2(b.coefficients, order)
        for got, expected in [
            (a + b, oracle_linear2(a, b, 1)),
            (a - b, oracle_linear2(a, b, -1)),
            (-a, {k: -v for k, v in a.coefficients.items()}),
            (a * s, {k: v * s for k, v in a.coefficients.items() if s != 0}),
            (a.swap(), {(j, i): v for (i, j), v in a.coefficients.items()}),
        ]:
            # same values in the same key order
            assert list(got.coefficients.items()) == list(expected.items())
            assert all(type(c) is Fraction for c in got.coefficients.values())
            assert all(got.coeff(*k) == v and type(got.coeff(*k)) is Fraction for k, v in expected.items())
            assert_reduced(got)

    @given(series1(31), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_from_sum_from_t_from_u_and_divided_difference(self, f, order):
        parts = {k: v for k, v in enumerate(f.coefficients) if v != 0 and k <= order}
        for got, expected in [
            (TruncatedSeries2.from_sum(f, order), oracle_from_sum(f, order)),
            (TruncatedSeries2.from_t(f, order), {(k, 0): v for k, v in parts.items()}),
            (TruncatedSeries2.from_u(f, order), {(0, k): v for k, v in parts.items()}),
            (series.divided_difference(f, order), oracle_divided_difference_loop(f, order)),
        ]:
            assert got.order == order
            assert list(got.coefficients.items()) == list(expected.items())
            assert_reduced(got)

    @given(series1(8), st.lists(coefficients, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_compose(self, f, tail):
        g = TruncatedSeries1([0] + tail, 8)
        got = compose(f, g)
        assert got.coefficients == oracle_compose(f, g)
        assert_reduced(got)

    def test_compose_of_the_distinguished_series(self):
        n = 30
        w = series.w_c(Fraction(2, 3), n)
        for f, g in [(log1p_series(n), series.sinh_over_t(n) - 1), (exp_series(n), w)]:
            assert compose(f, g).coefficients == oracle_compose(f, g)

    @given(series1(30), series2(30))
    @settings(max_examples=40, deadline=None)
    def test_canonical_form(self, a, b):
        for s in (a, b):
            back = (s * 2) * Fraction(1, 2)
            assert back == s and hash(back) == hash(s)
            assert back.form == s.form
            assert_reduced(s)
        scaled = TruncatedSeries1([2, 4], 1) * Fraction(1, 6)
        assert scaled.form == (3, {(0,): 1, (1,): 2})
        scaled = TruncatedSeries2({(0, 1): 6, (1, 0): 18}, 1) * Fraction(1, 8)
        assert scaled.form == (4, {(0, 1): 3, (1, 0): 9})
        assert (TruncatedSeries1.zero(3).form, TruncatedSeries2.zero(3).form) == ((1, {}), (1, {}))

    def test_one_variable_constants_hash_like_their_value(self):
        for value in (0, 3, Fraction(-5, 7)):
            c = TruncatedSeries1.constant(value, 4)
            assert c == value and hash(c) == hash(value)
        assert len({TruncatedSeries1.constant(3, 4), 3, Fraction(3)}) == 1
        assert len({TruncatedSeries1.t(4), TruncatedSeries1.constant(1, 4)}) == 2

    def test_two_variable_constants_hash_like_their_value(self):
        for value in (0, 3, Fraction(-5, 7)):
            c = TruncatedSeries2({(0, 0): value}, 4)
            assert c == value and hash(c) == hash(value)
        assert len({TruncatedSeries2({(0, 0): 3}, 4), 3, Fraction(3)}) == 1
        u = TruncatedSeries2({(0, 1): 1}, 4)
        assert u != 1 and len({u, TruncatedSeries2({(0, 0): 1}, 4)}) == 2

    def test_products_refuse_other_types_with_type_error(self):
        for s in (TruncatedSeries1.t(3), TruncatedSeries2.zero(3)):
            for op in (lambda: s * "x", lambda: s * None, lambda: None * s):
                with pytest.raises(TypeError):
                    op()


# -- oracles: the functional equations with both products of each mirrored
# -- pair, and log(1 + f) by Horner composition


def oracle_symmetric_residuals(p, d, order):
    p_t, p_u = TruncatedSeries2.from_t(p, order), TruncatedSeries2.from_u(p, order)
    d_t, d_u = TruncatedSeries2.from_t(d, order), TruncatedSeries2.from_u(d, order)
    p_sum, d_sum = TruncatedSeries2.from_sum(p, order), TruncatedSeries2.from_sum(d, order)
    dd_u_d, dd_t_d = series.divided_difference(d, order), series.divided_difference_t(d, order)
    dd_u_p, dd_t_p = series.divided_difference(p, order), series.divided_difference_t(p, order)
    return (
        d_u * dd_u_d + d_t * dd_t_d + d_sum,
        p_u * dd_u_p + p_t * dd_t_p + d_sum,
        p_u * dd_u_d + d_t * dd_t_p + p_sum,
    )


def oracle_coinduced_residuals(h, q, c, order):
    p = series.p_c(c, order + 1)
    p_t, p_u = TruncatedSeries2.from_t(p, order), TruncatedSeries2.from_u(p, order)
    h_t, h_u = TruncatedSeries2.from_t(h, order), TruncatedSeries2.from_u(h, order)
    q_t, q_u = TruncatedSeries2.from_t(q, order), TruncatedSeries2.from_u(q, order)
    h_sum = TruncatedSeries2.from_sum(h, order)
    return (
        -h_sum + h_t + h_u - h_t * h_u,
        series.divided_difference(q, order) * p_u + series.divided_difference_t(q, order) * p_t - q_t * q_u + h_sum,
        q_t + series.divided_difference_t(h, order) * p_t - q_t * h_u,
    )


def oracle_log_of_one_plus(f):
    return compose(log1p_series(f.order), f)


def assert_same_series(got, expected):
    """Same order, values and stored form."""
    assert got.order == expected.order
    assert got.coefficients == expected.coefficients
    assert got.form == expected.form


def parity_series(parity, order, base=None):
    """A random series of the given order with at most four terms, all of
    that parity, added to ``base`` when one is given."""
    keys = st.integers(0, order).filter(lambda k: k % 2 == parity)
    drawn = st.dictionaries(keys, coefficients, max_size=4).map(
        lambda c: TruncatedSeries1([c.get(k, 0) for k in range(order + 1)], order)
    )
    return drawn if base is None else drawn.map(lambda s: s + base)


constants = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)])


@st.composite
def even_odd_pairs(draw):
    """(even, odd, order): random series, or perturbed p_c and q_c, to the
    order + 1 the residuals need."""
    order = draw(st.integers(0, 30))
    c = draw(constants)
    perturbed = draw(st.booleans())
    even = draw(parity_series(0, order + 1, series.p_c(c, order + 1) if perturbed else None))
    odd = draw(parity_series(1, order + 1, series.q_c(c, order + 1) if perturbed else None))
    return even, odd, order, c


class TestMirroredProducts:
    @given(even_odd_pairs())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_residuals_against_both_products(self, case):
        p, d, order, _ = case
        for got, expected in zip(series.check_symmetric_equations(p, d, order), oracle_symmetric_residuals(p, d, order)):
            assert_same_series(got, expected)

    @given(even_odd_pairs())
    @settings(max_examples=40, deadline=None)
    def test_coinduced_residuals_against_both_products(self, case):
        h, q, order, c = case
        for got, expected in zip(
            series.check_coinduced_equations(h, q, c, order), oracle_coinduced_residuals(h, q, c, order)
        ):
            assert_same_series(got, expected)

    def test_perturbed_solutions_at_order_30(self):
        # the inputs of `series --order 30 --perturb`; the second residual of
        # each set is nonzero, the others vanish for every p with d = -t and
        # every q with h = 1
        n = 30
        d = TruncatedSeries1([0, -1], n + 1)
        one = TruncatedSeries1.constant(1, n + 1)
        nonzero = []
        for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
            p = series.p_c(c, n + 1) + TruncatedSeries1.monomial(1, 2, n + 1)
            q = series.q_c(c, n + 1) + TruncatedSeries1.monomial(1, 3, n + 1)
            pairs = list(zip(series.check_symmetric_equations(p, d, n), oracle_symmetric_residuals(p, d, n)))
            pairs += zip(series.check_coinduced_equations(one, q, c, n), oracle_coinduced_residuals(one, q, c, n))
            for got, expected in pairs:
                assert_same_series(got, expected)
                nonzero.append(not got.is_zero())
        assert nonzero == [False, True, False] * 6


class TestLogRecurrence:
    @given(series1(31), st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_against_composition_with_log1p(self, f, order):
        f = (f - f.coeff(0)).truncate(order)
        assert_same_series(series.log_of_one_plus(f), oracle_log_of_one_plus(f))

    def test_distinguished_series_at_every_order(self):
        for n in range(32):
            for f in (
                series.one_minus_exp_neg_t_over_t(n) - 1,
                series.sinh_over_t(n) - 1,
                series.w_c(Fraction(2, 3), n),
                series.w_c(-3, n),
            ):
                assert_same_series(series.log_of_one_plus(f), oracle_log_of_one_plus(f))

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            series.log_of_one_plus(series.sinh_over_t(6))


class TestOrderContracts:
    def test_negative_orders_are_refused(self):
        for call in (
            lambda: TruncatedSeries2({}, -1),
            lambda: TruncatedSeries2._of((1, {}), -1),
            lambda: TruncatedSeries2.from_t(series.p_c(1, 4), -2),
            lambda: series.divided_difference(TruncatedSeries1([5], 0)),
            lambda: series.check_symmetric_equations(series.p_c(1, 1), TruncatedSeries1([0, -1], 1), -1),
            lambda: series.p_c(1, -1),
            lambda: series.q_c(1, -1),
            lambda: series.w_c(1, -1),
        ):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                call()

    def test_order_0_has_no_derivative(self):
        # 5 + O(t) says nothing about f', so neither f' nor f/t nor a divided
        # difference of it has a value
        f = TruncatedSeries1([5], 0)
        for call in (f.derivative, f.divide_by_t, lambda: series.divided_difference(f)):
            with pytest.raises(ValueError):
                call()
        assert TruncatedSeries1([5, 3], 1).derivative() == TruncatedSeries1([3], 0)

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="k >= 0"):
            TruncatedSeries1.monomial(1, -1, 3)
        assert TruncatedSeries1.monomial(2, 5, 3).is_zero() and TruncatedSeries1.monomial(2, 3, 3).coeff(3) == 2

    def test_two_variable_keys_are_two_nonnegative_exponents(self):
        # {(-1, 2): 1} was kept, printed as u^2 and multiplied as if it were u^2
        for key in ((-1, 2), (2, -1), (1,), (1, 0, 0), ()):
            with pytest.raises(ValueError, match="nonnegative exponents"):
                TruncatedSeries2({key: 1, (0, 1): 1}, 3)
        assert TruncatedSeries2({(0, 2): 1, (3, 1): 1}, 3).coefficients == {(0, 2): 1}

    def test_two_variable_views_refuse_a_higher_order(self):
        f = TruncatedSeries1([1, 2], 1)
        for view in (TruncatedSeries2.from_t, TruncatedSeries2.from_u, TruncatedSeries2.from_sum):
            with pytest.raises(ValueError, match="higher order"):
                view(f, 5)
            assert view(f, 1).order == 1 and view(f, 0) == TruncatedSeries2({(0, 0): 1}, 0)


class TestSeparateRings:
    """The two series classes, SuperPolynomial and PbwElement share the
    integer form of ``superpoly`` but are separate rings."""

    def operands(self):
        alg, _ = catalog("osp12")
        return (
            TruncatedSeries1.constant(3, 4),
            TruncatedSeries2.constant(3, 4),
            VariableTable(["x", "e"], ["even", "odd"], 4).constant(3),
            PbwElement.from_scalar(alg, Fraction(3)),
        )

    def test_mixed_operands_raise_type_error(self):
        s1, s2, poly, pbw = self.operands()
        for a, b in ((s1, s2), (s1, poly), (s2, pbw), (s1, pbw), (s2, poly)):
            for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(TypeError):
                        op(x, y)

    def test_equality_never_crosses_classes(self):
        operands = self.operands()
        # each one equals the scalar 3, and no two of them are equal
        assert all(x == 3 for x in operands)
        for i, x in enumerate(operands):
            for y in operands[i + 1 :]:
                assert x != y and y != x

    @given(series1(12))
    @settings(max_examples=40, deadline=None)
    def test_equal_one_variable_series_hash_alike(self, f):
        n = f.order
        routes = [
            TruncatedSeries1(f.coefficients, n),
            TruncatedSeries1(f.coefficients + [1], n + 1).truncate(n),
            (f * 3 - f * 2) + 0,
            (f + TruncatedSeries1.t(n + 2)) - TruncatedSeries1.t(n),
            (f * Fraction(-2, 7)) * Fraction(-7, 2),
            1 - (1 - f),
            -(-f),
            f.scale_variable(3).scale_variable(Fraction(1, 3)),
            TruncatedSeries1([0] + f.coefficients, n + 1).divide_by_t(),
        ]
        for g in routes:
            assert g == f and hash(g) == hash(f) and g.form == f.form
        assert len(set(routes)) == 1

    @given(series1(12))
    @settings(max_examples=40, deadline=None)
    def test_equal_two_variable_series_hash_alike(self, f):
        n = f.order
        by_t = TruncatedSeries2.from_t(f, n)
        routes = [
            TruncatedSeries2({(k, 0): c for k, c in enumerate(f.coefficients)}, n),
            TruncatedSeries2.from_u(f, n).swap(),
            TruncatedSeries2.from_sum(f, n) - (TruncatedSeries2.from_sum(f, n) - by_t),
            TruncatedSeries2.from_t(f, n) * TruncatedSeries2.constant(1, n + 3),
            # (f(t + u) - f(t))/u is 1 for f = t
            series.divided_difference(TruncatedSeries1.t(n + 1), n) * by_t,
            (by_t * 2 + 1) * Fraction(1, 2) - Fraction(1, 2),
        ]
        for g in routes:
            assert g == by_t and hash(g) == hash(by_t) and g.form == by_t.form
        assert len(set(routes)) == 1
