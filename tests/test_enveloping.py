import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from supersym import enveloping as env
from supersym import superpoly as sp
from supersym.coderiv import quotient_coordinates, quotient_mod_h, tau
from supersym.enveloping import (
    PbwElement,
    _monomial_product,
    antipode,
    coproduct,
    factorization,
    gamma,
    monomial_parity,
    normal_form,
    symmetrize,
    symmetrize_word,
    twisted_adjoint,
)
from supersym.liealg import LieSuperAlgebra, SymmetricPair, algebra_from_matrices, catalog, defining_matrices
from supersym.superpoly import EVEN, ODD, VariableTable, _combine, _form, _fractions, exhaustive_monomials

from conftest import (
    assert_canonical,
    diagonal_pair,
    draw_word,
    draw_word_route_pair,
    gl_pair,
    oracle_invert,
    oracle_symmetrized,
)


def sq_monomials(pair, max_degree):
    """The PBW monomials of degree <= max_degree supported on q."""
    return [
        m for m in exhaustive_monomials(pair.algebra, max_degree)
        if all(m[i] == 0 for i in pair.h_indices)
    ]


def smono(alg, *pairs):
    m = [0] * alg.dim
    for i, e in pairs:
        m[i] += e
    return tuple(m)


def s_coproduct(alg, word):
    """Independent symmetric-algebra coproduct: Koszul-signed unshuffles of
    a word of basis letters, as {(monomial, monomial): coefficient}."""
    n = len(word)
    out = {}
    for left_mask in range(2**n):
        left = [k for k in range(n) if left_mask >> k & 1]
        right = [k for k in range(n) if not left_mask >> k & 1]
        sign = 1
        for i in right:
            for j in left:
                if i < j and alg.parities[word[i]] == ODD and alg.parities[word[j]] == ODD:
                    sign = -sign
        m1 = smono(alg, *((word[k], 1) for k in left))
        m2 = smono(alg, *((word[k], 1) for k in right))
        key = (m1, m2)
        out[key] = out.get(key, Fraction(0)) + sign
        if out[key] == 0:
            del out[key]
    return out


class TestNormalForm:
    def test_commuting_swap(self):
        alg, _ = catalog("abelian(2,0)")
        assert normal_form(alg, (1, 0)) == {(1, 1): Fraction(1)}

    def test_odd_square(self):
        alg, _ = catalog("osp12")
        # e e = 1/2 [e, e] = -E
        assert normal_form(alg, (0, 0)) == {smono(alg, (3, 1)): Fraction(-1)}

    def test_single_rewriting_step(self):
        # [x, y] = y: the word y x normal-orders to x y - y
        alg, _ = catalog("solvable2")
        assert normal_form(alg, (1, 0)) == {
            (1, 1): Fraction(1),
            (0, 1): Fraction(-1),
        }

    def test_idempotent_on_normal_words(self):
        alg, _ = catalog("osp12")
        assert normal_form(alg, (0, 1, 2)) == {smono(alg, (0, 1), (1, 1), (2, 1)): Fraction(1)}

    def test_confluence_random_schedules(self):
        rng = random.Random(21)
        for name in ("osp12", "gl11", "solvable2", "heisenberg_super"):
            alg, _ = catalog(name)
            for _ in range(8):
                word = tuple(rng.randrange(alg.dim) for _ in range(5))
                base = normal_form(alg, word)
                for _ in range(20):
                    alt = normal_form(alg, word, choose=lambda n: rng.randrange(n))
                    assert alt == base


class TestConstructors:
    def test_from_basis_out_of_range(self):
        alg, _ = catalog("osp12")
        with pytest.raises(IndexError):
            PbwElement.from_basis(alg, 9)

    def test_from_element_out_of_range(self):
        alg, _ = catalog("osp12")
        with pytest.raises(IndexError):
            PbwElement.from_element(alg, {7: 1})

    @pytest.mark.parametrize("build", [PbwElement.from_word, symmetrize_word])
    def test_word_letters_out_of_range(self, build):
        # (-1,) used to read as the last basis letter, d2 on gl(1|1)
        alg, _ = catalog("gl11")
        for word in [(-1,), (alg.dim,), (0, -1), (alg.dim, 0)]:
            with pytest.raises(IndexError, match="out of range"):
                build(alg, word)
        assert build(alg, (alg.dim - 1,)) == PbwElement.from_basis(alg, alg.dim - 1)


class TestMultiply:
    def test_scalars_hash_like_their_value(self):
        alg, _ = catalog("osp12")
        x = PbwElement.from_basis(alg, 0)
        for value in (0, 3, Fraction(-5, 7)):
            # built as a scalar, as a difference, a scaling and an empty word
            for c in (
                PbwElement.from_scalar(alg, value),
                x - x + value,
                PbwElement.from_scalar(alg, 6 * value).scale(Fraction(1, 6)),
                PbwElement.from_word(alg, (), value),
            ):
                assert c == value and hash(c) == hash(value)
                assert c.form == (Fraction(value).denominator, {(0,) * 5: Fraction(value).numerator} if value else {})
        assert len({PbwElement.from_scalar(alg, 3), 3, Fraction(3)}) == 1
        assert x != PbwElement.one(alg) and len({x, PbwElement.one(alg)}) == 2

    def test_unit(self):
        alg, _ = catalog("osp12")
        u = PbwElement.from_word(alg, (1, 0, 2))
        assert u * PbwElement.one(alg) == u
        assert PbwElement.one(alg) * u == u

    def test_defining_relation(self):
        alg, _ = catalog("osp12")
        for a, b in itertools.product(range(alg.dim), repeat=2):
            ja, jb = PbwElement.from_basis(alg, a), PbwElement.from_basis(alg, b)
            sign = -1 if (alg.parities[a] * alg.parities[b]) % 2 else 1
            lhs = ja * jb - (jb * ja) * sign
            rhs = PbwElement.from_element(alg, alg.bracket_basis(a, b))
            assert lhs == rhs

    def test_associativity_random(self):
        rng = random.Random(22)
        alg, _ = catalog("osp12")
        for _ in range(15):
            us = [
                PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
                for _ in range(3)
            ]
            assert (us[0] * us[1]) * us[2] == us[0] * (us[1] * us[2])

    def test_non_rational_scalars_are_refused(self):
        alg, _ = catalog("abelian(0,2)")
        a = VariableTable(["a"], [ODD]).variable(0)
        u = PbwElement.from_basis(alg, 0)
        for build in (
            lambda: PbwElement(alg, {smono(alg, (0, 1)): a}),
            lambda: PbwElement.from_basis(alg, 1, a),
            lambda: PbwElement.from_word(alg, (1, 0), a),
            lambda: u.scale(a),
            lambda: u * a,
            lambda: u + a,
            lambda: PbwElement(alg, {smono(alg, (0, 1)): 0.5}),
        ):
            with pytest.raises(TypeError):
                build()


PRODUCT_ALGEBRAS = ("abelian(1,2)", "osp12", "gl11", "heisenberg_super", "solvable2", "diag-gl11")


def term_by_term(pairs):
    """c_1 terms_1 + ... + c_k terms_k one Fraction product at a time,
    dropping a key whose running sum reaches zero."""
    acc = {}
    for c, terms in pairs:
        for key, v in terms.items():
            acc[key] = acc.get(key, 0) + Fraction(c) * v
            if not acc[key]:
                del acc[key]
    return acc


# few keys and small values, so sums cancel and keys leave and re-enter
_values = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
_scalars = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=5)
_combine_pairs = st.lists(
    st.tuples(_scalars, st.dictionaries(st.sampled_from("abcd"), _values | st.integers(-3, 3).filter(bool))),
    max_size=6,
)


_SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def catalog_elements(draw, max_degree=2):
    """A catalog pair with h the even part, and two elements of U(g) of
    degree <= max_degree on it."""
    alg, pair = catalog(draw(st.sampled_from(["osp12", "gl11"])))
    monos = exhaustive_monomials(alg, max_degree)
    terms = st.dictionaries(st.sampled_from(monos), _SMALL, max_size=4)
    return pair, PbwElement(alg, draw(terms)), PbwElement(alg, draw(terms))


class TestCanonicalForms:
    """Every result stores its form in lowest terms, so ``==`` and ``hash``
    compare forms only and agree with the element rebuilt from ``terms``."""

    @given(catalog_elements(), _SMALL)
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, puv, c):
        _, u, v = puv
        for x in (u + v, u - v, -u, v - v, u * v, u.scale(c), u * c, c * u):
            assert_canonical(x)

    @given(catalog_elements(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_maps(self, puv, data):
        pair, u, _ = puv
        alg = pair.algebra
        word = data.draw(st.lists(st.integers(0, alg.dim - 1), max_size=4).map(tuple))
        mono = tuple(word.count(i) for i in range(alg.dim))
        c = data.draw(_SMALL)
        for x in (
            symmetrize(alg, {mono: c, (0,) * alg.dim: Fraction(1, 2)}),
            symmetrize_word(alg, word),
            PbwElement.from_word(alg, word, c),
            twisted_adjoint(pair, data.draw(st.integers(0, alg.dim - 1)), u),
            tau(pair, u),
            antipode(u),
        ):
            assert_canonical(x)


class TestCombine:
    @given(_combine_pairs)
    @settings(max_examples=200, deadline=None)
    @example([])
    @example([(0, {"a": Fraction(1, 3)})])
    @example([(1, {"a": 1, "b": Fraction(1, 2)}), (Fraction(-1, 2), {"a": 2}), (2, {"a": Fraction(1, 6)})])
    # the running lcm grows 2, 6, 12 in the middle of the sum; "a" cancels
    # after the last growth and re-enters at the end
    @example([
        (1, {"a": Fraction(1, 2)}),
        (1, {"b": Fraction(1, 3), "a": 1}),
        (1, {"c": Fraction(1, 4), "a": Fraction(-3, 2)}),
        (2, {"a": 1}),
    ])
    # a zero scalar on a new denominator and an empty form between them
    @example([
        (1, {"a": Fraction(1, 2)}),
        (0, {"b": Fraction(1, 5)}),
        (3, {}),
        (Fraction(1, 3), {"a": Fraction(1, 4), "b": 1}),
        (1, {"a": Fraction(-7, 12)}),
    ])
    # the whole sum cancels over 6 before the running lcm grows to 30 and 60
    @example([
        (1, {"a": Fraction(1, 2), "b": Fraction(1, 3)}),
        (-1, {"b": Fraction(1, 3), "a": Fraction(1, 2)}),
        (1, {"c": Fraction(1, 5)}),
        (1, {"a": Fraction(1, 4), "c": Fraction(-1, 5)}),
    ])
    def test_against_the_term_by_term_sum(self, pairs):
        # the rational scalars as ints over their lcm, each dict as a form
        den = math.lcm(*(Fraction(c).denominator for c, _ in pairs))
        got = sp._combine([(int(c * den), sp._form(terms)) for c, terms in pairs], den)
        # the pairs may come as a generator
        assert sp._combine(((int(c * den), sp._form(terms)) for c, terms in pairs), den) == got
        want = term_by_term(pairs)
        assert list(sp._fractions(got).items()) == list(want.items())
        d, nums = got
        assert d > 0 and math.gcd(d, *nums.values()) == 1
        assert all(type(v) is int for v in nums.values())


def fraction_letter_product(alg, i, m, memo):
    """e_i e^m by the letter-insertion rules on {monomial: Fraction} dicts,
    summed term by term, as the products ran before the integer forms;
    memoised in ``memo``."""
    if (i, m) not in memo:
        parities = alg.parities
        j = next((k for k, e in enumerate(m) if e), alg.dim)
        if i < j or (i == j and parities[i] != ODD):
            out = {m[:i] + (m[i] + 1,) + m[i + 1 :]: Fraction(1)}
        else:
            rest = m[:j] + (m[j] - 1,) + m[j + 1 :]
            pairs = []
            if i > j:
                sign = -1 if parities[i] == ODD and parities[j] == ODD else 1
                swapped = fraction_letter_product(alg, i, rest, memo)
                pairs = [(sign * c, fraction_letter_product(alg, j, n, memo)) for n, c in swapped.items()]
            for k, c in alg.bracket_basis(i, j).items():
                pairs.append((c / 2 if i == j else c, fraction_letter_product(alg, k, rest, memo)))
            out = term_by_term(pairs)
        memo[i, m] = out
    return memo[i, m]


def fraction_monomial_product(alg, m1, m2, memo):
    acc = {m2: Fraction(1)}
    for i in reversed(env._monomial_to_word(m1)):
        acc = term_by_term([(c, fraction_letter_product(alg, i, m, memo)) for m, c in acc.items()])
    return acc


def first_letters(parities, word):
    """{(w_k, w without position k): summed Koszul sign of moving w_k to the
    front}, zero sums dropped."""
    merged, odd_before = {}, 0
    for k, letter in enumerate(word):
        odd = parities[letter] == ODD
        key = (letter, word[:k] + word[k + 1 :])
        merged[key] = merged.get(key, 0) + (-1 if odd and odd_before % 2 else 1)
        odd_before += odd
    return {key: n for key, n in merged.items() if n}


def fraction_symmetrized(alg, word, memo, products):
    """beta(word) by the first-letter recursion on Fraction dicts."""
    if word not in memo:
        n = len(word)
        acc = term_by_term([
            (Fraction(count, n) * c, fraction_letter_product(alg, letter, m, products))
            for (letter, rest), count in first_letters(alg.parities, word).items()
            for m, c in fraction_symmetrized(alg, rest, memo, products).items()
        ]) if word else {(0,) * alg.dim: Fraction(1)}
        memo[word] = {m: acc[m] for m in sorted(acc, key=lambda m: (sum(m), m))}
    return memo[word]


class TestIntegerFormsOnGl22:
    """The integer forms (den, {monomial: int}) of the memoised products and
    symmetrizations against the Fraction letter loop, values and key order,
    on gl(2|2)."""

    def test_monomial_products_up_to_degree_three(self):
        alg = gl_pair(2, 2).algebra
        by_degree = {}
        for m in exhaustive_monomials(alg, 3):
            by_degree.setdefault(sum(m), []).append(m)
        memo, count = {}, 0
        for d1, d2 in itertools.product(range(4), repeat=2):
            for m1, m2 in itertools.product(by_degree[d1], by_degree[d2] if d1 + d2 <= 3 else ()):
                want = fraction_monomial_product(alg, m1, m2, memo)
                den, nums = env._monomial_product(alg, m1, m2)
                assert math.gcd(den, *nums.values()) == 1
                assert list(sp._fractions((den, nums)).items()) == list(want.items()), (m1, m2)
                count += 1
        assert count == 6017

    def test_symmetrized_weight_zero_words(self):
        # E_ij has weight eps_i - eps_j under the diagonal torus of h
        pair = gl_pair(2, 2)
        alg = pair.algebra
        q = pair.q_indices
        words = []
        for subset in itertools.product((0, 1), repeat=len(q)):
            weight = [0] * 4
            for i, e in zip(q, subset):
                weight[int(alg.names[i][1]) - 1] += e
                weight[int(alg.names[i][2]) - 1] -= e
            if not any(weight):
                words.append(tuple(i for i, e in zip(q, subset) if e))
        assert len(words) == 18
        memo, products = {}, {}
        for word in words:
            want = fraction_symmetrized(alg, word, memo, products)
            mono = tuple(word.count(i) for i in range(alg.dim))
            assert list(sp._fractions(env._symmetrized(alg, mono)).items()) == list(want.items()), word
            assert list(symmetrize_word(alg, word).terms.items()) == list(want.items()), word
        # every memo entry, each sub-monomial of the words, is the value of its
        # word and in lowest terms
        assert len(alg._symmetrize_cache) == len(memo)
        for mono, (den, nums) in alg._symmetrize_cache.items():
            word = env._monomial_to_word(mono)
            assert den > 0 and math.gcd(den, *nums.values()) == 1, word
            assert list(sp._fractions((den, nums)).items()) == list(memo[word].items()), word


class TestLetterProductOracle:
    """The letter-by-letter PBW product against word rewriting
    (``normal_form`` of the concatenated word)."""

    @pytest.mark.parametrize("name", PRODUCT_ALGEBRAS)
    def test_every_pair_of_low_degree_monomials(self, name):
        alg = diagonal_pair("gl11").algebra if name == "diag-gl11" else catalog(name)[0]
        monos = list(exhaustive_monomials(alg, 3))
        for m1, m2 in itertools.product(monos, repeat=2):
            want = normal_form(alg, env._monomial_to_word(m1) + env._monomial_to_word(m2))
            assert sp._fractions(env._monomial_product(alg, m1, m2)) == want, (name, m1, m2)

    @pytest.mark.parametrize("name", PRODUCT_ALGEBRAS)
    def test_suffix_memo_against_the_letter_loop(self, name):
        # the product through the memoised product of the rest of m1 against
        # the loop that inserts every letter of m1 afresh, key order too
        alg = diagonal_pair("gl11").algebra if name == "diag-gl11" else catalog(name)[0]
        monos = list(exhaustive_monomials(alg, 3))
        for m1, m2 in itertools.product(monos, repeat=2):
            acc = {m2: Fraction(1)}
            for i in reversed(env._monomial_to_word(m1)):
                nxt = {}
                for m, c in acc.items():
                    for n, cn in sp._fractions(env._letter_product(alg, i, m)).items():
                        nxt[n] = nxt.get(n, 0) + c * cn
                        if not nxt[n]:
                            del nxt[n]
                acc = nxt
            assert list(sp._fractions(env._monomial_product(alg, m1, m2)).items()) == list(acc.items()), (name, m1, m2)

    def test_repeated_even_letter(self):
        alg = diagonal_pair("gl11").algebra
        d1, x21 = alg.index("q_d1"), alg.index("q_x21")
        for n in range(8):
            power = smono(alg, (d1, n))
            want = normal_form(alg, (d1,) * n + (x21,))
            assert sp._fractions(env._monomial_product(alg, power, smono(alg, (x21, 1)))) == want, n

    def test_high_power_by_the_binomial_formula(self):
        # e^n x = sum_k C(n, k) (ad e)^k(x) e^(n-k) for even e; word
        # rewriting does not finish d1^24 x21, the letter product does
        alg = diagonal_pair("gl11").algebra
        d1, x21 = alg.index("q_d1"), alg.index("q_x21")
        n = 24
        got = PbwElement(alg, {smono(alg, (d1, n)): Fraction(1)}) * PbwElement.from_basis(alg, x21)
        want = PbwElement.zero(alg)
        ad_k = {x21: Fraction(1)}
        for k in range(n + 1):
            rest = PbwElement(alg, {smono(alg, (d1, n - k)): Fraction(1)})
            want = want + (PbwElement.from_element(alg, ad_k) * rest).scale(math.comb(n, k))
            ad_k = alg.bracket({d1: Fraction(1)}, ad_k)
        assert got == want
        assert got.coefficient(smono(alg, (x21, 1), (d1, n))) == 1
        assert PbwElement.from_word(alg, (d1,) * n + (x21,)) == got
        assert antipode(antipode(got)) == got


def tensor_mul_pbw(alg, left: dict, right: dict) -> dict:
    """Product in U(g) (x) U(g) of tensors given as {(m1, m2): coeff}."""
    (dl, left), (dr, right) = _form(left), _form(right)
    pairs = []
    for (a1, a2), c1 in left.items():
        for (b1, b2), c2 in right.items():
            sign = -1 if monomial_parity(alg, a2) & monomial_parity(alg, b1) else 1
            d2, second = _monomial_product(alg, a2, b2)
            d1, first = _monomial_product(alg, a1, b1)
            for m1, e1 in first.items():
                pairs.append((c1 * c2 * sign * e1, (d1 * d2, {(m1, m2): e2 for m2, e2 in second.items()})))
    return _fractions(_combine(pairs, dl * dr))


class TestCoproduct:
    def test_unit(self):
        alg, _ = catalog("osp12")
        unit = (0,) * alg.dim
        assert coproduct(PbwElement.one(alg)) == {(unit, unit): Fraction(1)}

    def test_primitivity(self):
        alg, _ = catalog("osp12")
        unit = (0,) * alg.dim
        for a in range(alg.dim):
            ja = PbwElement.from_basis(alg, a)
            mono = smono(alg, (a, 1))
            assert coproduct(ja) == {
                (mono, unit): Fraction(1),
                (unit, mono): Fraction(1),
            }

    def test_multiplicative_on_products(self):
        alg, _ = catalog("gl11")
        rng = random.Random(23)
        for _ in range(10):
            w1 = tuple(rng.randrange(alg.dim) for _ in range(2))
            w2 = tuple(rng.randrange(alg.dim) for _ in range(2))
            u, v = PbwElement.from_word(alg, w1), PbwElement.from_word(alg, w2)
            assert coproduct(u * v) == tensor_mul_pbw(alg, coproduct(u), coproduct(v))


class TestSymmetrize:
    def test_single_letter(self):
        alg, _ = catalog("osp12")
        for a in range(alg.dim):
            assert symmetrize_word(alg, (a,)) == PbwElement.from_basis(alg, a)

    def test_two_odd_letters(self):
        alg, _ = catalog("osp12")
        je, jf = PbwElement.from_basis(alg, 0), PbwElement.from_basis(alg, 1)
        assert symmetrize_word(alg, (0, 1)) == (je * jf - jf * je) * Fraction(1, 2)

    def test_even_square(self):
        alg, _ = catalog("osp12")
        jH = PbwElement.from_basis(alg, 2)
        assert symmetrize_word(alg, (2, 2)) == jH * jH

    def test_coalgebra_morphism(self):
        # Delta(beta(w)) = (beta x beta)(Delta_S(w)) on monomials deg <= 3
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, _ = catalog(name)
            for mono in exhaustive_monomials(alg, 3):
                word = env._monomial_to_word(mono)
                lhs = coproduct(symmetrize_word(alg, word))
                rhs = {}
                for (m1, m2), c in s_coproduct(alg, word).items():
                    b1 = symmetrize(alg, {m1: Fraction(1)})
                    b2 = symmetrize(alg, {m2: Fraction(1)})
                    for k1, c1 in b1.terms.items():
                        for k2, c2 in b2.terms.items():
                            key = (k1, k2)
                            rhs[key] = rhs.get(key, Fraction(0)) + c * c1 * c2
                            if rhs[key] == 0:
                                del rhs[key]
                assert lhs == rhs, (name, mono)

    def test_injectivity_up_to_degree_4(self):
        # the matrix from S(g) monomials to PBW monomials is invertible:
        # symmetrized monomials of degree <= 4 are linearly independent
        for name in ("osp12", "gl11"):
            alg, _ = catalog(name)
            monos = sorted(exhaustive_monomials(alg, 4), key=lambda m: (sum(m), m))
            index = {m: k for k, m in enumerate(monos)}
            rows = []
            for m in monos:
                b = symmetrize(alg, {m: Fraction(1)})
                row = [Fraction(0)] * len(monos)
                for k, c in b.terms.items():
                    row[index[k]] = c
                rows.append(row)
            cols = [[rows[j][i] for j in range(len(monos))] for i in range(len(monos))]
            oracle_invert(cols)  # raises if singular


def permutation_symmetrize(alg, word):
    """The defining n! sum for beta: the Koszul-signed average of the normal
    forms of all orderings of the word, as {monomial: Fraction}."""
    n = len(word)
    acc = {}
    for perm in itertools.permutations(range(n)):
        odd = [alg.parities[word[k]] == ODD for k in perm]
        inversions = sum(odd[i] and odd[j] and perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign = -1 if inversions % 2 else 1
        for m, c in env.normal_form(alg, tuple(word[k] for k in perm)).items():
            acc[m] = acc.get(m, Fraction(0)) + sign * c
    scale = Fraction(1, math.factorial(n))
    return {m: acc[m] * scale for m in sorted(acc, key=lambda m: (sum(m), m)) if acc[m]}


class TestSymmetrizeOracle:
    """The first-letter expansion against the permutation sum, values and
    key order."""

    def test_every_word_up_to_degree_5(self, oracle_pair):
        alg = oracle_pair.algebra
        # the diagonal pair is 8-dimensional: its degree-5 words stay in q
        for n in range(6):
            letters = range(alg.dim) if alg.dim <= 5 or n < 5 else oracle_pair.q_indices
            for word in itertools.combinations_with_replacement(letters, n):
                got = symmetrize_word(alg, word)
                assert list(got.terms.items()) == list(permutation_symmetrize(alg, word).items()), word

    def test_random_unsorted_words(self, oracle_pair):
        alg = oracle_pair.algebra
        odd = [i for i in range(alg.dim) if alg.parities[i] == ODD]
        rng = random.Random(53)
        for k in range(30):
            word = [rng.randrange(alg.dim) for _ in range(rng.randrange(1, 4))] + [rng.choice(odd)]
            if k % 2:
                word.append(word[-1])  # a repeated odd letter
            rng.shuffle(word)
            word = tuple(word)
            got = symmetrize_word(alg, word)
            assert list(got.terms.items()) == list(permutation_symmetrize(alg, word).items()), word

    def test_power_of_one_letter(self):
        alg = LieSuperAlgebra(["a", "z"], [EVEN, EVEN], {})
        assert symmetrize_word(alg, (0,) * 12) == PbwElement(alg, {(12, 0): Fraction(1)})


class TestSymmetrizeAgainstTheWordRoute:
    """``_symmetrized``, ``symmetrize`` and ``symmetrize_word``, keyed by
    PBW monomial, against the word recursion they replaced, values and key
    order; a monomial that repeats an odd letter symmetrizes to 0 on both."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_symmetrized_and_symmetrize_word(self, warm_pairs, data):
        pair = draw_word_route_pair(data, warm_pairs)
        alg = pair.algebra
        word = draw_word(data, range(alg.dim), alg.parities)
        memo = {}
        want = oracle_symmetrized(alg, word, memo)
        assert list(symmetrize_word(alg, word).terms.items()) == list(sp._fractions(want).items()), word
        mono = tuple(word.count(i) for i in range(alg.dim))
        den, nums = env._symmetrized(alg, mono)
        want = oracle_symmetrized(alg, tuple(sorted(word)), memo)
        assert (den, list(nums.items())) == (want[0], list(want[1].items())), word
        assert list(symmetrize(alg, {mono: Fraction(2, 3)}).terms.items()) == [
            (m, Fraction(2, 3) * c) for m, c in sp._fractions(want).items()
        ], word


def pair_loop_antipode(u):
    """The antipode through word rewriting: (-1)^n times the normal form
    of each reversed word, with the Koszul sign of the reversal counted
    one pair of odd letters at a time."""
    alg = u.alg
    out = {}
    for mono, coeff in u.terms.items():
        word = env._monomial_to_word(mono)
        sign = (-1) ** len(word)
        for i, j in itertools.combinations(word, 2):
            if alg.parities[i] == ODD and alg.parities[j] == ODD:
                sign = -sign
        for m, c in normal_form(alg, word[::-1], coeff * sign).items():
            out[m] = out.get(m, 0) + c
            if not out[m]:
                del out[m]
    return out


class TestWordsAgainstRewriting:
    """``from_word`` and ``antipode`` by letter insertion against word
    rewriting, values included."""

    def test_random_words_with_repeated_letters(self, oracle_pair):
        alg = oracle_pair.algebra
        rng = random.Random(71)
        for _ in range(25):
            letters = [rng.randrange(alg.dim) for _ in range(rng.randrange(1, 4))]
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4))
            u = PbwElement.from_word(alg, word, c)
            assert u.terms == normal_form(alg, word, c), word
            assert antipode(u).terms == pair_loop_antipode(u), word


class TestAntipode:
    def test_on_generators(self):
        alg, _ = catalog("osp12")
        for a in range(alg.dim):
            ja = PbwElement.from_basis(alg, a)
            assert antipode(ja) == -ja

    def test_involution(self):
        alg, _ = catalog("osp12")
        rng = random.Random(24)
        for _ in range(10):
            u = PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
            assert antipode(antipode(u)) == u

    def test_convolution_inverse_of_identity(self):
        # m(S x id)Delta(u) = counit(u) 1
        alg, _ = catalog("gl11")
        rng = random.Random(25)
        unit = (0,) * alg.dim
        for _ in range(8):
            u = PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
            conv = PbwElement.zero(alg)
            for (m1, m2), c in coproduct(u).items():
                conv = conv + (
                    antipode(PbwElement(alg, {m1: Fraction(1)}))
                    * PbwElement(alg, {m2: Fraction(1)})
                ).scale(c)
            counit = u.terms.get(unit, Fraction(0))
            assert conv == PbwElement.from_scalar(alg, counit)


class TestTwistedAdjoint:
    def test_on_unit(self):
        alg, pair = catalog("osp12")
        one = PbwElement.one(alg)
        # b in q: ad'(b)(1) = 2 b ; a in h: ad'(a)(1) = 0
        assert twisted_adjoint(pair, 0, one) == PbwElement.from_basis(alg, 0) * 2
        assert twisted_adjoint(pair, 2, one).is_zero()

    def test_h_acts_as_plain_adjoint(self):
        alg, pair = catalog("osp12")
        rng = random.Random(26)
        for _ in range(10):
            u = PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
            for a in pair.h_indices:
                ja = PbwElement.from_basis(alg, a)
                plain = ja * u - u * ja  # a even here
                assert twisted_adjoint(pair, a, u) == plain

    def test_representation_property(self):
        # ad'([a,b]) = ad'(a) ad'(b) -/+ ad'(b) ad'(a)
        rng = random.Random(27)
        for name in ("osp12", "gl11"):
            alg, pair = catalog(name)
            for _ in range(6):
                u = PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
                for a, b in itertools.product(range(alg.dim), repeat=2):
                    sign = -1 if (alg.parities[a] * alg.parities[b]) % 2 else 1
                    lhs = twisted_adjoint(pair, a, twisted_adjoint(pair, b, u)) - (
                        twisted_adjoint(pair, b, twisted_adjoint(pair, a, u))
                    ).scale(sign)
                    rhs = PbwElement.zero(alg)
                    for k, c in alg.bracket_basis(a, b).items():
                        rhs = rhs + twisted_adjoint(pair, k, u).scale(c)
                    assert lhs == rhs

    def test_beta_sq_stability(self):
        # ad'(a)(beta(w)) stays inside span{beta(S(q))}
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            f = factorization(pair, 3)
            unit = (0,) * alg.dim
            for qm in sq_monomials(pair, 2):
                b = symmetrize(alg, {qm: Fraction(1)})
                for a in range(alg.dim):
                    image = twisted_adjoint(pair, a, b)
                    for (q_part, h_part), c in f.coordinates(image).items():
                        assert h_part == unit, (name, alg.names[a], qm)


def oracle_twisted_adjoint(pair, a_index, u):
    """ad'(a)(u) = a u - (-1)^{p(a) p(u)} u sigma(a) through PbwElement
    products, one element per term and per sum."""
    alg = pair.algebra
    ja = PbwElement.from_basis(alg, a_index)
    jsa = ja if pair.sigma_sign(a_index) == 1 else -ja
    pa = alg.parities[a_index]
    out = PbwElement.zero(alg)
    for mono, coeff in u.terms.items():
        term = PbwElement(alg, {mono: coeff})
        sign = -1 if pa * env.monomial_parity(alg, mono) else 1
        out = out + ja * term - (term * jsa).scale(sign)
    return out


class TestTwistedAdjointOracle:
    """The one-pass twisted adjoint against the route through PbwElement
    products, values and key order."""

    def elements(self, pair, rng):
        alg = pair.algebra
        out = [symmetrize(alg, {m: Fraction(1)}) for m in sq_monomials(pair, 3)]
        for _ in range(8):
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.randrange(5)))
            out.append(
                PbwElement.from_word(alg, word, Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))
                + PbwElement.from_basis(alg, rng.randrange(alg.dim), Fraction(rng.randrange(-3, 4)))
            )
        return out

    def assert_matches(self, pair, elements):
        for u in elements:
            for a in range(pair.algebra.dim):
                got, want = twisted_adjoint(pair, a, u), oracle_twisted_adjoint(pair, a, u)
                assert list(got.terms.items()) == list(want.terms.items()), (pair, a, u)

    def test_oracle_pairs(self, oracle_pair):
        self.assert_matches(oracle_pair, self.elements(oracle_pair, random.Random(61)))

    def test_diagonal_osp12_and_abelian(self):
        for pair in (diagonal_pair("osp12"), catalog("abelian(1,2)")[1], catalog("solvable2")[1]):
            self.assert_matches(pair, self.elements(pair, random.Random(62)))


class TestGamma:
    def test_on_unit_and_generators(self):
        alg, pair = catalog("osp12")
        assert gamma(pair, PbwElement.one(alg)) == PbwElement.one(alg)
        assert gamma(pair, PbwElement.from_basis(alg, 0)) == PbwElement.from_basis(alg, 0) * 2

    def test_gamma_beta_is_beta_doubling(self):
        # gamma(beta(w)) = beta(2^n w) for w in S^n(q), n <= 3
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            for qm in sq_monomials(pair, 3):
                b = symmetrize(alg, {qm: Fraction(1)})
                expected = symmetrize(alg, {qm: Fraction(2 ** sum(qm))})
                assert gamma(pair, b) == expected, (name, qm)


class TestQuotient:
    def test_h_elements_die(self):
        alg, pair = catalog("osp12")
        assert quotient_mod_h(pair, PbwElement.from_basis(alg, 2)).is_zero()

    def test_beta_w_is_its_own_representative(self):
        alg, pair = catalog("osp12")
        b = symmetrize(alg, {smono(alg, (0, 1), (1, 1)): Fraction(1)})
        assert quotient_mod_h(pair, b) == b

    def test_right_h_factor_dies(self):
        alg, pair = catalog("osp12")
        u = PbwElement.from_basis(alg, 0) * PbwElement.from_basis(alg, 2)
        assert quotient_mod_h(pair, u).is_zero()

    def test_degree_overflow_error(self):
        alg, pair = catalog("osp12")
        f = factorization(pair, 2)
        u = PbwElement.from_word(alg, (2, 2, 2))
        with pytest.raises(ValueError):
            f.coordinates(u)

    def test_factorization_roundtrip(self):
        rng = random.Random(28)
        for name in ("osp12", "gl11"):
            alg, pair = catalog(name)
            f = factorization(pair, 3)
            for _ in range(8):
                u = PbwElement.from_word(alg, tuple(rng.randrange(alg.dim) for _ in range(3)))
                coords = f.coordinates(u)
                rebuilt = PbwElement.zero(alg)
                for (qm, hm), c in coords.items():
                    rebuilt = rebuilt + (
                        symmetrize(alg, {qm: Fraction(1)}) * PbwElement(alg, {hm: Fraction(1)})
                    ).scale(c)
                assert rebuilt == u

    def test_quotient_coordinates(self):
        alg, pair = catalog("osp12")
        b = symmetrize(alg, {smono(alg, (0, 1)): Fraction(3)})
        coords = quotient_coordinates(pair, b)
        assert coords == {smono(alg, (0, 1)): Fraction(3)}


def dense_coordinates(pair, max_degree):
    """Reference route for Factorization.coordinates: invert the matrix
    taking the products beta(w) u (w an S(q) monomial, u an h monomial) to
    the PBW monomials of degree <= max_degree.  Returns u -> coordinates,
    keyed and ordered as Factorization.coordinates."""
    alg = pair.algebra
    basis = sorted(exhaustive_monomials(alg, max_degree), key=lambda m: (sum(m), m))
    index = {m: k for k, m in enumerate(basis)}
    h_monos = [m for m in basis if all(m[i] == 0 for i in pair.q_indices)]
    pairs = sorted(
        (
            (qm, hm)
            for qm in sq_monomials(pair, max_degree)
            for hm in h_monos
            if sum(qm) + sum(hm) <= max_degree
        ),
        key=lambda p: (sum(p[0]) + sum(p[1]), p),
    )
    assert len(pairs) == len(basis)
    matrix = [[Fraction(0)] * len(pairs) for _ in basis]
    for j, (qm, hm) in enumerate(pairs):
        product = symmetrize(alg, {qm: Fraction(1)}) * PbwElement(alg, {hm: Fraction(1)})
        for m, c in product.terms.items():
            matrix[index[m]][j] = c
    inverse = oracle_invert(matrix)

    def coordinates(u):
        vec = [(index[m], c) for m, c in u.terms.items()]
        coeffs = [sum(row[j] * c for j, c in vec) for row in inverse]
        return {pairs[i]: c for i, c in enumerate(coeffs) if c != 0}

    return coordinates


def split_algebra(name, order):
    """osp12 or gl11 rebuilt from its defining matrices on the basis
    ``order`` of vector names.  gl11 trades d2 for the central c = d1 + d2,
    so that every basis vector is an eigenvector of the involution fixing
    x12 and d1 and negating x21 and c."""
    mats, parities, _ = defining_matrices(name)
    if name == "gl11":
        x12, x21, d1, d2 = mats
        c = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(d1, d2)]
        vectors = {"x12": x12, "x21": x21, "d1": d1, "c": c}
        parity = {"x12": ODD, "x21": ODD, "d1": EVEN, "c": EVEN}
    else:
        vectors = dict(zip(["e", "f", "H", "E", "F"], mats))
        parity = dict(zip(["e", "f", "H", "E", "F"], parities))
    return algebra_from_matrices(order, [parity[n] for n in order], [vectors[n] for n in order])


def interleaved_pairs():
    """Splits of the basis with h vectors before q vectors.  SymmetricPair
    keeps q first, where every lead sign s is +1; the factorization reads
    only the split, so these come as plain namespaces.  In the gl11 split
    the odd h vector x12 precedes the odd q vector x21, so
    beta(x21) x12 = -x12 x21 + c has lead sign s = -1."""
    osp = split_algebra("osp12", ["H", "e", "E", "f", "F"])
    gl = split_algebra("gl11", ["x12", "x21", "d1", "c"])
    return [
        types.SimpleNamespace(algebra=osp, h_indices=[0, 2, 4], q_indices=[1, 3]),
        types.SimpleNamespace(algebra=gl, h_indices=[0, 2], q_indices=[1, 3]),
    ]


class TestFactorizationOracle:
    def assert_matches_dense(self, pair, f, rng):
        alg = pair.algebra
        dense = dense_coordinates(pair, 3)
        unit = (0,) * alg.dim
        h_seen = False
        elements = [PbwElement(alg, {m: Fraction(1)}) for m in exhaustive_monomials(alg, 3)]
        for _ in range(12):
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.randrange(4)))
            elements.append(
                PbwElement.from_word(alg, word)
                + PbwElement.from_basis(alg, rng.randrange(alg.dim), Fraction(rng.randrange(-3, 4), 2))
            )
        for u in elements:
            coords = f.coordinates(u)
            assert list(coords.items()) == list(dense(u).items()), u
            h_seen |= any(hm != unit for _, hm in coords)
        assert h_seen

    @pytest.mark.parametrize("name", ["osp12", "gl11", "heisenberg_super"])
    def test_peeling_matches_dense_inverse(self, name):
        alg, pair = catalog(name)
        self.assert_matches_dense(pair, factorization(pair, 3), random.Random(41))

    @pytest.mark.parametrize("name", ["gl11", "osp12"])
    def test_diagonal_pair_matches_dense_inverse(self, name):
        # q and h both carry odd vectors, so the peeling crosses odd h letters
        pair = diagonal_pair(name)
        self.assert_matches_dense(pair, factorization(pair, 3), random.Random(42))

    @pytest.mark.parametrize("index", [0, 1], ids=["osp12-permuted", "gl11-odd-h"])
    def test_interleaved_split_matches_dense_inverse(self, index):
        pair = interleaved_pairs()[index]
        self.assert_matches_dense(pair, env.Factorization(pair, 3), random.Random(43))

    def test_negative_lead_sign(self):
        pair = interleaved_pairs()[1]
        u = PbwElement.from_word(pair.algebra, (0, 1))
        assert env.Factorization(pair, 2).coordinates(u) == {
            ((0, 0, 0, 1), (0, 0, 0, 0)): Fraction(1),
            ((0, 1, 0, 0), (1, 0, 0, 0)): Fraction(-1),
        }

    def test_gl11_split_is_a_symmetric_pair(self):
        SymmetricPair(split_algebra("gl11", ["x21", "c", "x12", "d1"]), [2, 3])
