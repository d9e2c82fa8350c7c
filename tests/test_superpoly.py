import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersym.enveloping import PbwElement
from supersym.liealg import SuperMatrix, catalog

from conftest import (
    assert_canonical,
    diagonal_pair,
    oracle_matrix_product,
    oracle_power_sum,
    oracle_supertraces_of_powers,
)
from supersym.jacobian import supertraces_of_powers
from supersym.superpoly import (
    EVEN,
    ODD,
    PowerChain,
    SuperPolynomial,
    VariableTable,
    _coproduct_legs,
    _render,
    _shape,
    exhaustive_monomials,
    matrix_product,
    power_sum,
    sum_of_products,
    truncate_even_degree,
)


def odd_table(n):
    return VariableTable([f"x{i+1}" for i in range(n)], [ODD] * n)


def mixed_table(order=6):
    return VariableTable(["t", "x1", "x2"], [EVEN, ODD, ODD], order)


def random_poly(table, rng, max_degree=3, terms=4):
    monos = [m for m in exhaustive_monomials(table, max_degree)]
    out = table.zero()
    for _ in range(terms):
        mono = rng.choice(monos)
        out = out + SuperPolynomial(table, {mono: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
    return out


def random_homogeneous(table, rng, parity, max_degree=3):
    monos = [
        m
        for m in exhaustive_monomials(table, max_degree)
        if table.monomial_parity(m) == parity
    ]
    mono = rng.choice(monos)
    return SuperPolynomial(table, {mono: Fraction(rng.randint(1, 5))})


_TABLE = VariableTable(["t", "x1", "x2"], [EVEN, ODD, ODD], 6)
_MONOS = [m for m in exhaustive_monomials(_TABLE, 3)]


def polynomials():
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    term = st.tuples(st.sampled_from(_MONOS), coeff)
    return st.lists(term, max_size=4).map(
        lambda terms: sum(
            (SuperPolynomial(_TABLE, {m: c}) for m, c in terms), _TABLE.zero()
        )
    )


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_hold(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_derivative_is_additive(a, b):
    for var in ("t", "x1"):
        assert (a + b).partial_derivative(var) == a.partial_derivative(var) + b.partial_derivative(var)


class TestTable:
    def test_requires_truncation_with_even_variables(self):
        with pytest.raises(ValueError):
            VariableTable(["t"], [EVEN])
        VariableTable(["t"], [EVEN], 4)
        odd_table(3)

    def test_distinct_names(self):
        with pytest.raises(ValueError):
            VariableTable(["a", "a"], [ODD, ODD])

    def test_variable_index_above_the_table(self):
        with pytest.raises(IndexError):
            odd_table(2).variable(5)

    def test_negative_variable_index(self):
        with pytest.raises(IndexError):
            odd_table(2).variable(-1)


class TestConstructor:
    def test_a_monomial_has_one_exponent_per_variable(self):
        t = VariableTable(["s", "x"], [EVEN, ODD], 4)
        for mono in ((1,), (1, 0, 0), ()):
            with pytest.raises(ValueError, match="not a monomial of the 2 variables"):
                SuperPolynomial(t, {mono: Fraction(1)})
        with pytest.raises(ValueError, match="not a monomial of the 0 variables"):
            SuperPolynomial(VariableTable([], []), {(0,): Fraction(1)})

    def test_negative_exponents_are_refused(self):
        # {(-1, 2): 1} used to be kept and printed as a^-1*b^2
        t = VariableTable(["a", "b"], [EVEN, EVEN], 4)
        for mono in ((-1, 2), (0, -1)):
            with pytest.raises(ValueError, match="not a monomial"):
                SuperPolynomial(t, {mono: Fraction(1)})
        # a zero coefficient does not excuse a malformed key
        with pytest.raises(ValueError, match="not a monomial"):
            SuperPolynomial(t, {(-1, 0): 0})

    def test_zero_terms_odd_squares_and_terms_past_the_truncation_go(self):
        t = VariableTable(["s", "x", "r"], [EVEN, ODD, EVEN], 3)
        p = SuperPolynomial(t, {(0, 0, 0): 0, (0, 2, 0): 5, (2, 1, 2): 1, (2, 1, 1): 3, (3, 0, 0): -1})
        assert dict(p.terms) == {(2, 1, 1): 3, (3, 0, 0): -1}
        assert SuperPolynomial(VariableTable([], []), {(): Fraction(2)}).evaluate_at_zero() == 2


class TestMultiply:
    def test_ordered_odd_product(self):
        t = odd_table(2)
        x1, x2 = t.variable(0), t.variable(1)
        assert x1 * x2 == SuperPolynomial(t, {(1, 1): Fraction(1)})

    def test_transposition_sign(self):
        t = odd_table(2)
        x1, x2 = t.variable(0), t.variable(1)
        assert x2 * x1 == -(x1 * x2)

    def test_odd_square_vanishes(self):
        t = odd_table(2)
        x1 = t.variable(0)
        assert (x1 * x1).is_zero()

    def test_truncation_discards(self):
        t = VariableTable(["s"], [EVEN], 2)
        s = t.variable(0)
        assert (s * s * s).is_zero()
        assert s * s == SuperPolynomial(t, {(2,): Fraction(1)})

    def test_table_mismatch(self):
        other = VariableTable(["y1", "y2"], [ODD, ODD])
        with pytest.raises(ValueError):
            odd_table(2).variable(0) * other.variable(0)

    def test_equal_valued_tables_are_compatible(self):
        a = odd_table(2).variable(0)
        b = odd_table(2).variable(1)
        assert a * b == odd_table(2).variable(0) * odd_table(2).variable(1)

    def test_supercommutativity_random(self):
        rng = random.Random(11)
        t = mixed_table()
        for _ in range(40):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = random_homogeneous(t, rng, pa)
            b = random_homogeneous(t, rng, pb)
            sign = -1 if pa * pb else 1
            assert a * b == (b * a) * sign

    def test_associativity_random(self):
        rng = random.Random(12)
        t = mixed_table()
        for _ in range(25):
            a, b, c = (random_poly(t, rng, 2, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestDerivative:
    def test_leading_odd_position(self):
        t = odd_table(2)
        x1, x2 = t.variable(0), t.variable(1)
        assert (x1 * x2).partial_derivative("x1") == x2

    def test_sign_from_crossing(self):
        t = odd_table(2)
        x1, x2 = t.variable(0), t.variable(1)
        assert (x1 * x2).partial_derivative("x2") == -x1

    def test_even_power(self):
        t = VariableTable(["t"], [EVEN], 6)
        s = t.variable(0)
        assert (s * s * s).partial_derivative("t") == SuperPolynomial(t, {(2,): Fraction(3)})

    def test_unknown_variable(self):
        t = odd_table(1)
        with pytest.raises(KeyError):
            t.variable(0).partial_derivative("nope")

    def test_leibniz_random(self):
        rng = random.Random(13)
        t = mixed_table()
        for _ in range(40):
            pa = rng.randint(0, 1)
            a = random_homogeneous(t, rng, pa)
            b = random_poly(t, rng, 2, 3)
            for var, pvar in (("t", EVEN), ("x1", ODD)):
                lhs = (a * b).partial_derivative(var)
                sign = -1 if pvar * pa else 1
                rhs = a.partial_derivative(var) * b + (a * b.partial_derivative(var)) * sign
                assert lhs == rhs, (var, a, b)


def berezin_integral(poly) -> Fraction:
    """Iterated odd derivative, highest variable first, evaluated at 0.

    Only defined on purely odd tables (exterior algebras); equals the
    signed coefficient of the top monomial.
    """
    table = poly.table
    if any(p == EVEN for p in table.parities):
        raise ValueError("Berezin integral requires a purely odd variable table")
    p = poly
    for i in range(len(table) - 1, -1, -1):
        p = p.partial_derivative(i)
    return p.evaluate_at_zero()


class TestBerezinIntegral:
    def test_descending_top_monomial_is_one(self):
        for q in range(1, 5):
            t = odd_table(q)
            p = t.one()
            for i in range(q - 1, -1, -1):
                p = p * t.variable(i)
            assert berezin_integral(p) == 1

    def test_no_top_term(self):
        t = odd_table(3)
        assert berezin_integral(t.one()) == 0
        assert berezin_integral(t.variable(0)) == 0

    def test_matches_composed_derivatives(self):
        t = odd_table(2)
        p = t.variable(0) * t.variable(1) * Fraction(3)
        composed = p.partial_derivative("x2").partial_derivative("x1").evaluate_at_zero()
        assert berezin_integral(p) == composed == -3

    def test_permutation_of_differentiation_order(self):
        # integrating with the variables permuted multiplies by the sign
        # of the permutation
        for q in range(1, 5):
            t = odd_table(q)
            top = t.one()
            for i in range(q):
                top = top * t.variable(i)
            base = berezin_integral(top)
            for perm in itertools.permutations(range(q)):
                p = top
                for i in reversed(perm):
                    p = p.partial_derivative(i)
                sign = 1
                for i in range(q):
                    for j in range(i + 1, q):
                        if perm[i] > perm[j]:
                            sign = -sign
                assert p.evaluate_at_zero() == sign * base


class TestQueries:
    def test_evaluate_at_zero(self):
        t = odd_table(2)
        p = t.one() + t.variable(0) * t.variable(1)
        assert p.evaluate_at_zero() == 1
        assert t.variable(0).evaluate_at_zero() == 0
        assert t.constant(Fraction(5, 7)).evaluate_at_zero() == Fraction(5, 7)

    def test_parity(self):
        t = mixed_table()
        assert t.one().parity() == EVEN
        assert t.variable("x1").parity() == ODD
        assert (t.variable("x1") * t.variable("x2")).parity() == EVEN
        assert (t.one() + t.variable("x1")).parity() is None
        assert t.zero().parity() == EVEN

    def test_truncate_even_degree(self):
        t = VariableTable(["s"], [EVEN], 6)
        s = t.variable(0)
        p = t.one() + s + s * s
        assert truncate_even_degree(p, 1) == t.one() + s

    def test_an_odd_letter_squared_drops_like_a_zero_coefficient(self):
        # diag gl(1|1): S(q) on q_x12, q_x21 (odd) and q_d1, q_d2 (even)
        t = diagonal_pair("gl11").sq_table
        assert t.parities == (ODD, ODD, EVEN, EVEN)
        kept = {(1, 0, 1, 1): Fraction(2), (0, 0, 2, 1): Fraction(-1)}
        p = SuperPolynomial(t, {(3, 0, 1, 1): Fraction(1), **kept})
        assert p == SuperPolynomial(t, kept) and list(p.terms) == list(kept)

    def test_operators_refuse_other_types_with_type_error(self):
        p = mixed_table().variable("t")
        for op in (lambda: p + "x", lambda: "x" + p, lambda: p - None, lambda: None - p, lambda: p * "x"):
            with pytest.raises(TypeError):
                op()

    def test_constants_hash_like_their_value(self):
        t = mixed_table()
        x1, s = t.variable("x1"), t.variable("t")
        for value in (0, 3, Fraction(-5, 7)):
            # built as a constant, through an odd square, a scaling and a product kernel
            for c in (
                t.constant(value),
                x1 * x1 + value,
                (t.constant(value) * 6) * Fraction(1, 6),
                sum_of_products(t, [(t.constant(Fraction(1, 3)), t.constant(3 * value)), (s, x1), (-x1, s)]),
            ):
                assert c == value and hash(c) == hash(value)
                assert c.form == (Fraction(value).denominator, {(0, 0, 0): Fraction(value).numerator} if value else {})
        assert len({t.constant(3), 3, Fraction(3)}) == 1
        assert t.variable("t") != t.constant(1) and {t.variable("t"), t.one()} != {t.one()}

    def test_rendering(self):
        t = odd_table(2)
        p = t.one() + t.variable(0) * t.variable(1) * Fraction(1, 24)
        assert str(p) == "1 + 1/24 x1*x2"

    def test_inverse(self):
        t = VariableTable(["s"], [EVEN], 5)
        s = t.variable(0)
        p = t.constant(2) + s
        assert p * p.inverse() == t.one()
        with pytest.raises(ZeroDivisionError):
            s.inverse()

    def test_exp(self):
        t = VariableTable(["s"], [EVEN], 3)
        s = t.variable(0)
        e = s.exp()
        assert e.coefficient((0,)) == 1
        assert e.coefficient((2,)) == Fraction(1, 2)
        assert e.coefficient((3,)) == Fraction(1, 6)
        with pytest.raises(ValueError):
            t.one().exp()


# -- oracle: the Fraction-by-Fraction product the integer kernel replaced ----

def oracle_merge_monomials(table, m1, m2):
    """Product of two canonical monomials: (monomial, sign) or (None, 0)."""
    sign = 1
    out = []
    odd1_positions = [i for i, e in enumerate(m1) if e and table.parities[i] == ODD]
    for i, (e1, e2) in enumerate(zip(m1, m2)):
        if table.parities[i] == ODD:
            if e1 and e2:
                return None, 0
            if e2:
                crossings = sum(1 for j in odd1_positions if j > i)
                if crossings % 2:
                    sign = -sign
        out.append(e1 + e2)
    return tuple(out), sign


def oracle_product(a, b):
    """The terms dict of a*b, one Fraction operation per coefficient product."""
    table = a.table
    order = table.truncation_order
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m, sign = oracle_merge_monomials(table, m1, m2)
            if m is None:
                continue
            if order is not None and table.even_degree(m) > order:
                continue
            c = terms.get(m, Fraction(0)) + sign * c1 * c2
            if c == 0:
                terms.pop(m, None)
            else:
                terms[m] = c
    return terms


_BIG = 10**12

coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.builds(
        Fraction,
        st.integers(-_BIG, _BIG).filter(bool),
        st.integers(1, _BIG) | st.integers(-_BIG, -1),
    ),
).map(Fraction)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 5))
    parities = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
    order = draw(st.integers(0, 3))
    if EVEN not in parities:
        order = draw(st.sampled_from([None, order]))
    return VariableTable([f"v{i}" for i in range(n)], parities, order)


def polys(table, max_terms=5):
    monos = list(exhaustive_monomials(table, 3))
    terms = st.dictionaries(st.sampled_from(monos), coefficients, max_size=max_terms)
    return terms.map(lambda t: SuperPolynomial(table, t))


@st.composite
def poly_pairs(draw):
    table = draw(tables())
    return draw(polys(table)), draw(polys(table))


class TestProductOracle:
    @given(poly_pairs())
    @settings(max_examples=300, deadline=None)
    def test_product_matches_fraction_loop(self, ab):
        a, b = ab
        product = a * b
        # same values and the same key order as the Fraction loop
        assert list(product.terms.items()) == list(oracle_product(a, b).items())
        assert all(type(c) is Fraction for c in product.terms.values())

    def test_cancelling_products_match_fraction_loop(self):
        t = VariableTable(["s", "x1", "x2"], [EVEN, ODD, ODD], 2)
        s, x1, x2 = (t.variable(i) for i in range(3))
        half = Fraction(1, 2)
        cases = [
            (x1 + x2, x1 + x2),                      # x1 x2 + x2 x1 = 0
            (s + x1, s - x1),                        # cross terms cancel
            (s * half + x1 * x2, s * -2 + x1 * x2),  # large cancellation pattern
            (s * s, s),                              # truncated away
        ]
        for a, b in cases:
            assert (a * b).terms == oracle_product(a, b)
        assert ((x1 + x2) * (x1 + x2)).is_zero()
        assert (s * s * s).is_zero()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_sum_of_products_matches_accumulated_products(self, data):
        table = data.draw(tables())
        k = data.draw(st.integers(0, 4))
        pairs = [(data.draw(polys(table)), data.draw(polys(table))) for _ in range(k)]
        acc = table.zero()
        for a, b in pairs:
            acc = acc + SuperPolynomial(table, oracle_product(a, b))
        assert sum_of_products(table, pairs).terms == acc.terms

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matrix_product_matches_entrywise_accumulation(self, data):
        # rectangular blocks, the inner dimension possibly empty (an |q| x 0
        # times 0 x |q| product when h = 0)
        table = data.draw(tables())
        m, k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))

        def block(rows, cols):
            return [[data.draw(polys(table, 3)) for _ in range(cols)] for _ in range(rows)]

        a, b = block(m, k), block(k, n)
        product = matrix_product(table, a, b, n)
        want = oracle_matrix_product(table, a, b, n)
        assert len(product) == m and all(len(row) == n for row in product)
        for i in range(m):
            for j in range(n):
                acc = table.zero()
                for x in range(k):
                    acc = acc + SuperPolynomial(table, oracle_product(a[i][x], b[x][j]))
                assert product[i][j].terms == acc.terms
                # same values and key order as one sum_of_products per entry
                assert list(product[i][j].terms.items()) == list(want[i][j].terms.items())
        if m == k == n:
            parities = data.draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
            x, y = (SuperMatrix(table, parities, rows, check=False) for rows in (a, b))
            assert [[list(e.terms.items()) for e in row] for row in (x * y).entries] == [
                [list(e.terms.items()) for e in row] for row in want
            ]

    def test_matrix_product_of_empty_blocks(self):
        table = mixed_table()
        t, x1, x2 = (table.variable(i) for i in range(3))
        zero_inner = matrix_product(table, [[], []], [], 3)
        assert [[e.is_zero() for e in row] for row in zero_inner] == [[True] * 3] * 2
        assert matrix_product(table, [], [[t, x1]], 2) == []
        assert matrix_product(table, [[x1, t]], [[x2], [x1]], 1)[0][0] == x1 * x2 + t * x1

    def test_matrix_product_refuses_a_foreign_table(self):
        table = mixed_table()
        other = mixed_table(order=2)
        with pytest.raises(ValueError):
            matrix_product(table, [[table.variable(0)]], [[other.variable(0)]], 1)


def inversion_sign(parities, m1, m2):
    """The Koszul sign of m1 m2 by brute force: the parity of the inversions
    among the odd letters of m1 followed by those of m2, or 0 when an odd
    letter repeats."""
    odd = [i for m in (m1, m2) for i, e in enumerate(m) for _ in range(e) if parities[i] == ODD]
    if len(set(odd)) < len(odd):
        return 0
    inversions = sum(1 for x, y in itertools.combinations(odd, 2) if x > y)
    return -1 if inversions % 2 else 1


@st.composite
def monomials(draw):
    """Parities and a canonical monomial on them."""
    n = draw(st.integers(1, 6))
    parities = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
    return parities, tuple(draw(st.integers(0, 1 if p == ODD else 3)) for p in parities)


class TestKoszulSign:
    @given(monomials())
    @settings(max_examples=300, deadline=None)
    def test_matches_inversion_parity(self, case):
        # every k <= m once, in lexicographic order, with the odd masks of both legs
        # and the value C(m, k) times the sign reordering x^(m-k) x^k
        parities, m = case
        legs = list(_coproduct_legs(parities, m))
        assert [k for _, k, *_ in legs] == list(itertools.product(*(range(e + 1) for e in m)))
        for rest, k, odd_rest, odd, v in legs:
            assert rest == tuple(e - j for e, j in zip(m, k))
            assert (odd_rest, odd) == (_shape(parities, rest)[0], _shape(parities, k)[0])
            # a canonical monomial splits into legs that never repeat an odd letter
            assert not odd & odd_rest
            assert v == math.prod(map(math.comb, m, k)) * inversion_sign(parities, rest, k)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_left_derivative_matches_crossing_count(self, data):
        # the derivative moves the variable from the left over the
        # preceding odd letters of each monomial, one sign per crossing
        table = data.draw(tables())
        p = data.draw(polys(table))
        i = data.draw(st.integers(0, len(table) - 1))
        expected = table.zero()
        for mono, coeff in p.terms.items():
            if not mono[i]:
                continue
            rest = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
            crossings = sum(1 for j in range(i) if mono[j] and table.parities[j] == ODD)
            sign = -1 if table.parities[i] == ODD and crossings % 2 else 1
            expected = expected + SuperPolynomial(table, {rest: coeff * mono[i] * sign})
        assert p.partial_derivative(i).terms == expected.terms


def power_sum_by_loop(coeffs, x, one):
    """The term-by-term loop that ``power_sum`` replaced: add c_k x^k while
    the power is nonzero, one ``+`` per term."""
    result = one * 0
    power = one
    for c in coeffs:
        if power.is_zero():
            break
        result = result + power * c
        power = power * x
    return result


@st.composite
def nilpotent_polys(draw):
    """A table and a polynomial on it with zero constant term."""
    table = draw(tables())
    x = draw(polys(table))
    return table, x - x.evaluate_at_zero()


class TestCanonicalForms:
    """Every result stores its form in lowest terms, so ``==`` and ``hash``
    compare forms only and agree with the polynomial rebuilt from ``terms``."""

    @given(poly_pairs(), coefficients)
    @settings(max_examples=100, deadline=None)
    def test_ring_operations(self, ab, c):
        a, b = ab
        for x in (a + b, a - b, -a, b - b, a * b, a * c, c * a, a * 0, a.partial_derivative(0)):
            assert_canonical(x)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernels(self, data):
        table = data.draw(tables())
        n = data.draw(st.integers(1, 3))
        rows = [[data.draw(polys(table, 3)) for _ in range(n)] for _ in range(n)]
        assert_canonical(sum_of_products(table, [(rows[i][0], rows[0][i]) for i in range(n)]))
        nilpotent = [[p - p.evaluate_at_zero() for p in row] for row in rows]
        coeffs = data.draw(st.lists(coefficients | st.just(Fraction(0)), max_size=6))
        for out in (
            matrix_product(table, rows, rows, n),
            PowerChain(table, rows).rows(data.draw(st.integers(0, 3))),
            power_sum(coeffs, PowerChain(table, nilpotent)),
        ):
            for e in itertools.chain.from_iterable(out):
                assert_canonical(e)

    def test_a_product_with_a_common_factor_is_reduced(self):
        t = mixed_table()
        s = t.variable("t")
        got = sum_of_products(t, [(s * Fraction(1, 6), t.constant(6)), (t.constant(Fraction(1, 10)), s * 10)])
        assert got.form == (1, {(1, 0, 0): 2}) and got == 2 * s


def rows_items(rows):
    """The terms of a matrix of polynomials as lists, key order included."""
    return [[list(e.terms.items()) for e in row] for row in rows]


class TestPowerSum:
    @given(nilpotent_polys(), st.lists(coefficients | st.just(Fraction(0)), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_term_by_term_loop(self, tx, coeffs):
        table, x = tx
        got = power_sum(coeffs, PowerChain(table, [[x]]))[0][0]
        assert got == power_sum_by_loop(coeffs, x, table.one())

    @given(nilpotent_polys(), coefficients)
    @settings(max_examples=100, deadline=None)
    def test_exp_and_inverse_match_their_loops(self, tx, c0):
        table, x = tx
        exp_coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
        assert x.exp() == power_sum_by_loop(exp_coeffs, x, table.one())
        # (c0 + x)^-1 = c0^-1 sum_k (-x/c0)^k
        inv_c0 = Fraction(1) / c0
        inverse = power_sum_by_loop(itertools.cycle((1, -1)), x * inv_c0, table.one()) * inv_c0
        assert (x + c0).inverse() == inverse
        assert (x + c0) * inverse == table.one()

    def test_exp_on_every_parity_matches_the_loop(self):
        # the degree recurrence holds for the even part only: an odd or mixed
        # s goes through exp(s_even) (1 + s_odd)
        table = VariableTable(["x", "y", "a", "b"], [EVEN, EVEN, ODD, ODD], 4)
        x, y, a, b = (table.variable(i) for i in range(4))
        odd = a + b * x
        mixed = x + a + a * b * Fraction(1, 2) - b * y * 3
        even = x + y * y * Fraction(2, 3) - a * b * x + x * x * y * 5
        assert odd.exp() == 1 + a + b * x
        exp_x = 1 + x + x * x * Fraction(1, 2) + x * x * x * Fraction(1, 6) + x * x * x * x * Fraction(1, 24)
        # exp(x + ab/2) (1 + a - 3by), with (ab)^2 = 0
        assert mixed.exp() == exp_x * (1 + a * b * Fraction(1, 2)) * (1 + a - b * y * 3)
        for s in (odd, mixed, even, a * b * x * y, table.zero()):
            exp_coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
            assert s.exp() == power_sum_by_loop(exp_coeffs, s, table.one()), s
        # a purely odd table: parts in degrees 1 to 3, no truncation
        t = odd_table(4)
        x1, x2, x3, x4 = (t.variable(i) for i in range(4))
        for s in (x1 + x2 * x3 * x4, x1 * x2 - x3 * x4 * 2 + x1 * x2 * x3, x1 + x2 + x3 * x4):
            exp_coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
            assert s.exp() == power_sum_by_loop(exp_coeffs, s, t.one()), s
        with pytest.raises(ValueError, match="zero constant term"):
            (x1 + 1).exp()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matrix_sum_matches_the_term_by_term_loop(self, data):
        table = data.draw(tables())
        n = data.draw(st.integers(1, 3))
        rows = [[data.draw(polys(table, 3)) for _ in range(n)] for _ in range(n)]
        rows = [[p - p.evaluate_at_zero() for p in row] for row in rows]
        x = SuperMatrix(table, [EVEN] * n, rows, check=False)
        one = SuperMatrix.identity(table, [EVEN] * n)
        coeffs = data.draw(st.lists(coefficients | st.just(Fraction(0)), max_size=6))
        got = SuperMatrix(table, [EVEN] * n, power_sum(coeffs, PowerChain(table, rows)), check=False)
        assert got == power_sum_by_loop(coeffs, x, one)
        exp_coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
        assert x.exp() == power_sum_by_loop(exp_coeffs, x, one)


@st.composite
def chain_matrices(draw):
    """A square matrix over a random table (purely odd, truncated even or
    mixed), its module parities, and whether its entries vanish at zero,
    in which case its powers vanish past the nilpotency bound."""
    table = draw(tables())
    n = draw(st.integers(1, 3))
    nilpotent = draw(st.booleans())
    rows = [[draw(polys(table, 3)) for _ in range(n)] for _ in range(n)]
    if nilpotent:
        rows = [[p - p.evaluate_at_zero() for p in row] for row in rows]
    parities = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
    return table, SuperMatrix(table, parities, rows, check=False), nilpotent


class TestPowerChain:
    """The integer power chain against the Fraction routes it replaced
    (``tests/conftest.py``), for values and key order."""

    @given(chain_matrices(), st.lists(st.integers(0, 9), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_supertraces_match_the_fraction_powers(self, tmn, ks):
        table, mat, _ = tmn
        got, want = supertraces_of_powers(mat, ks), oracle_supertraces_of_powers(mat, ks)
        assert list(got) == list(want)
        assert [list(s.terms.items()) for s in got.values()] == [list(s.terms.items()) for s in want.values()]

    @given(chain_matrices(), st.lists(coefficients | st.just(Fraction(0)), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_power_sum_matches_the_power_table(self, tmn, coeffs):
        table, mat, nilpotent = tmn
        if not nilpotent:
            coeffs = coeffs[:4]
        got = power_sum(coeffs, PowerChain(table, mat.entries))
        assert rows_items(got) == rows_items(oracle_power_sum(coeffs, mat).entries)
        x = mat.entries[0][0]
        got = power_sum(coeffs, PowerChain(table, [[x]]))[0][0]
        assert list(got.terms.items()) == list(oracle_power_sum(coeffs, x).terms.items())

    @given(chain_matrices(), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_powers_match_the_repeated_products(self, tmn, top):
        table, mat, nilpotent = tmn
        chain, power = PowerChain(table, mat.entries), SuperMatrix.identity(table, mat.module_parities)
        for k in range(top + 1):
            assert rows_items(chain.rows(k)) == rows_items(power.entries), k
            power = power * mat
        if nilpotent and all(p == ODD for p in table.parities):
            # entries of x^k have degree >= k, so powers past the odd letters vanish
            assert all(e.is_zero() for row in chain.rows(len(table) + 1) for e in row)

    def test_product_chain_and_empty_blocks(self):
        table = mixed_table(3)
        t, x1, x2 = (table.variable(i) for i in range(3))
        a, b = [[t, x1], [x2, t * x1]], [[x1 * x2, t], [t, x2]]
        ab = matrix_product(table, a, b, 2)
        assert rows_items(PowerChain(table, ab).rows(1)) == rows_items(ab)
        assert rows_items(PowerChain(table, ab).rows(2)) == rows_items(matrix_product(table, ab, ab, 2))
        # a 2 x 0 block times a 0 x 2 block is the 2 x 2 zero matrix
        zero = PowerChain(table, matrix_product(table, [[], []], [], 2))
        assert rows_items(zero.rows(1)) == rows_items(zero.rows(2)) == [[[], []], [[], []]]
        assert rows_items(zero.rows(0)) == [[[((0, 0, 0), 1)], []], [[], [((0, 0, 0), 1)]]]


def boundary_case(order):
    """A table with ``order`` and two polynomials with zero constant term
    whose products reach even degree ``order`` exactly on each even letter:
    the exponents of t and of u, the last letter, sum to the order, and the
    products one past it are truncated before their keys are added.  With
    ``order`` None the table is purely odd."""
    if order is None:
        table = odd_table(5)
        x1, x2, x3, x4, x5 = (table.variable(i) for i in range(5))
        return table, x1 + x2 * x3 - x1 * x4 * x5 * 2, x2 + x3 * x4 * x5 * Fraction(1, 3) + x1 * x5

    table = VariableTable(["x1", "t", "x2", "u"], [ODD, EVEN, ODD, EVEN], order)
    h, r = order // 2, order - order // 2

    def mono(c, *exponents):
        return SuperPolynomial(table, {exponents: Fraction(c)})

    a = mono(1, 1, h, 0, 0) + mono(3, 0, 0, 0, h) + mono(Fraction(1, 2), 0, order - 1, 1, 0)
    b = mono(1, 0, r, 1, 0) - mono(1, 0, r + 1, 0, 0) + mono(1, 1, 0, 0, r) + mono(2, 0, 1, 0, h - 1)
    return table, a, b


def fraction_matrix_product(table, a, b):
    """The rows of A B, every entry the sum of ``oracle_product`` dicts."""
    return [
        [sum((SuperPolynomial(table, oracle_product(a[i][m], b[m][j])) for m in range(len(b))), table.zero())
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestPacking:
    """Products on packed monomials (exponent i in byte i) at the largest
    exponent one byte holds, against the Fraction loop ``oracle_product``
    and the Fraction-power oracles of ``tests/conftest.py``, for values and
    key order: order 254 is just below it, 255 fills the byte, and 256 is
    refused."""

    CASES = pytest.mark.parametrize("order", [254, 255, None], ids=["order-254", "order-255", "purely-odd"])

    @CASES
    def test_products_reach_the_order_exactly(self, order):
        table, a, b = boundary_case(order)
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert list((x * y).terms.items()) == list(oracle_product(x, y).items())
        if order is not None:
            t, u = table.variable("t"), table.variable("u")
            assert {(1, order, 1, 0), (1, 0, 0, order)} <= set((a * b).terms)
            # one past the order, where the sum of the keys would carry into
            # the next byte, the product is truncated first
            ab = a * b
            for x, y in ((ab, t), (t, ab), (ab, u), (u, ab)):
                assert list((x * y).terms.items()) == list(oracle_product(x, y).items())
            top_t = SuperPolynomial(table, {(0, order, 0, 0): Fraction(1)})
            assert (top_t * t).is_zero() and (u * top_t).is_zero()
        pairs = [(a, b), (b, a), (a, a), (table.one(), b)]
        want = sum((SuperPolynomial(table, oracle_product(x, y)) for x, y in pairs), table.zero())
        assert sum_of_products(table, pairs) == want

    @CASES
    def test_matrix_product_and_powers(self, order):
        table, a, b = boundary_case(order)
        rows = [[a, b], [b * 2, a - b]]
        square = fraction_matrix_product(table, rows, rows)
        assert matrix_product(table, rows, rows, 2) == square
        assert rows_items(matrix_product(table, rows, rows, 2)) == rows_items(oracle_matrix_product(table, rows, rows, 2))
        chain, power = PowerChain(table, rows), [[table.one(), table.zero()], [table.zero(), table.one()]]
        for k in range(5):
            assert chain.rows(k) == power, k
            power = fraction_matrix_product(table, power, rows)
        assert all(e.is_zero() for row in power for e in row)
        mat = SuperMatrix(table, [EVEN, ODD], rows, check=False)
        coeffs = [Fraction(1, k + 1) for k in range(8)]
        assert rows_items(power_sum(coeffs, PowerChain(table, rows))) == rows_items(oracle_power_sum(coeffs, mat).entries)
        ks = range(6)
        got, want = supertraces_of_powers(mat, ks), oracle_supertraces_of_powers(mat, ks)
        assert [list(s.terms.items()) for s in got.values()] == [list(s.terms.items()) for s in want.values()]

    @CASES
    def test_exp_and_single_powers(self, order):
        table, a, b = boundary_case(order)
        for x in (a, b, a + b):
            assert PowerChain(table, [[x]]).rows(2)[0][0] == SuperPolynomial(table, oracle_product(x, x))
            exp_coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
            assert x.exp() == power_sum_by_loop(exp_coeffs, x, table.one())

    def test_an_order_past_one_byte_is_refused(self):
        message = r"truncation_order must lie in 0\.\.255: products pack one exponent per byte"
        for order in (256, 1000, -1):
            with pytest.raises(ValueError, match=message):
                VariableTable(["t", "x"], [EVEN, ODD], order)
        assert VariableTable(["t", "x"], [EVEN, ODD], 255).truncation_order == 255


class TestExhaustiveMonomials:
    def test_against_the_filtered_product(self):
        # the enumerator that formed every exponent tuple and kept those
        # within the degree bound, order included
        rng = random.Random(7)
        for _ in range(200):
            parities = [rng.choice([EVEN, ODD]) for _ in range(rng.randint(0, 6))]
            table = VariableTable([f"v{i}" for i in range(len(parities))], parities, 5)
            d = rng.randint(-1, 5)
            ranges = [range(2) if p == ODD else range(d + 1) for p in table.parities]
            want = [m for m in itertools.product(*ranges) if sum(m) <= d]
            assert list(exhaustive_monomials(table, d)) == want, (table.parities, d)


class TestRender:
    @pytest.mark.parametrize(
        "terms, text",
        [
            ({}, "0"),
            ({(0, 0, 0, 0, 0): Fraction(-3, 2)}, "-3/2"),
            ({(1, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): -1}, "-f + e"),
            (
                {
                    (1, 0, 0, 3, 0): Fraction(-5, 2),
                    (0, 0, 2, 0, 0): Fraction(2, 3),
                    (1, 0, 0, 0, 0): 1,
                    (0, 1, 0, 0, 0): -1,
                    (0, 0, 0, 0, 0): 2,
                },
                "2 - f + e + 2/3 H^2 - 5/2 e*E^3",
            ),
        ],
        ids=["zero", "constant", "unit-coefficients", "powers"],
    )
    def test_polynomial_and_pbw_element_print_alike(self, terms, text):
        # osp(1|2): e, f odd; H, E, F even
        alg, _ = catalog("osp12")
        table = VariableTable(alg.names, alg.parities, 4)
        assert _render(terms, alg.names) == text
        assert str(SuperPolynomial(table, terms)) == text
        assert str(PbwElement(alg, terms)) == text
