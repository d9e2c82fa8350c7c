import functools
import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import strategies as st

from supersym import coderiv as cd
from supersym import jacobian as jac
from supersym import linalg
from supersym.enveloping import (
    Factorization,
    PbwElement,
    _letter_product,
    _monomial_to_word,
    _support_sum,
    _word_to_monomial,
    factorization,
    symmetrize,
    symmetrize_word,
)
from supersym.liealg import (
    SuperMatrix,
    SymmetricPair,
    algebra_from_matrices,
    catalog,
    defining_matrices,
    supertraces_of_powers,
)
from supersym.series import TruncatedSeries1, p_c, q_c
from supersym.superpoly import (
    EVEN,
    ODD,
    SuperPolynomial,
    _check_tables,
    _combine,
    _form,
    coproduct_terms,
    exhaustive_monomials,
    sum_of_products,
)


def assert_canonical(x):
    """A PbwElement or SuperPolynomial stores its form in lowest terms, with
    no zero entry, and equals and hashes like the element rebuilt from its
    read-only ``terms`` view."""
    den, nums = x.form
    assert den > 0 and math.gcd(den, *nums.values()) == 1 and all(nums.values()), x.form
    space = x.alg if isinstance(x, PbwElement) else x.table
    rebuilt = type(x)(space, dict(x.terms))
    assert rebuilt.form == x.form and list(rebuilt.form[1]) == list(nums)
    assert x == rebuilt and hash(x) == hash(rebuilt)
    with pytest.raises(TypeError):
        x.terms[next(iter(nums), None)] = Fraction(1)


def apply_matrix(mat, vec: dict) -> dict:
    """Matrix times column vector (right-coefficient convention), one entry
    at a time: the route ``jacobian.series_of_ad_y`` took before it read
    the column of each power directly."""
    out = {}
    for j, c in vec.items():
        if c == 0 or (not isinstance(c, (int, Fraction)) and c.is_zero()):
            continue
        for i in range(mat.size):
            e = mat.entries[i][j]
            if e.is_zero():
                continue
            term = e * c
            acc = out.get(i)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(i, None)
            else:
                out[i] = acc
    return out


def oracle_matrix_product(table, a_rows, b_rows, n_cols):
    """The rows of A B, one ``sum_of_products`` over row i of A and column j
    of B per entry, each call shaping its factors afresh: the route
    ``SuperMatrix.__mul__`` took before ``superpoly.matrix_product``."""
    return [
        [sum_of_products(table, [(a, b_rows[k][j]) for k, a in enumerate(row)]) for j in range(n_cols)]
        for row in a_rows
    ]


def oracle_series_of_ad_y(gp, f, element):
    """f(ad y)(a) = sum_k f_k (ad y)^k a for a constant element a from the
    columns of the memoised powers ``gp.ad_y_power(k)``, one
    ``sum_of_products`` per component: the route ``jacobian.series_of_ad_y``
    took before it read the nest levels."""
    table, pairs = gp.table, {}
    for k, fk in enumerate(f.coefficients[: gp.max_power() + 1]):
        for j, c in element.items() if fk else ():
            for i, row in enumerate(gp.ad_y_power(k).entries):
                if c and not row[j].is_zero():
                    pairs.setdefault(i, []).append((row[j], table.constant(fk * c)))
    out = {i: sum_of_products(table, ps) for i, ps in pairs.items()}
    return {i: v for i, v in out.items() if not v.is_zero()}


def oracle_power_sum(coeffs, x):
    """c_0 x^0 + c_1 x^1 + ... for a nilpotent SuperPolynomial or SuperMatrix
    x by the route ``superpoly.power_sum`` took before ``PowerChain``: each
    power x^k = x^(k-1) x formed as Fractions, one power per nonzero
    coefficient until a power vanishes, and each entry of the sum one
    ``sum_of_products`` of the kept powers with their coefficients as
    constants."""
    table = x.table
    matrix = isinstance(x, SuperMatrix)
    powers = [SuperMatrix.identity(table, x.module_parities) if matrix else table.one()]
    kept = []
    for k, c in enumerate(coeffs):
        if c:
            while len(powers) <= k:
                powers.append(powers[-1] * x)
            if powers[k].is_zero():
                break
            kept.append((powers[k], table.constant(c)))
    if not matrix:
        return sum_of_products(table, kept)
    n = x.size
    rows = [[sum_of_products(table, [(p.entries[i][j], c) for p, c in kept]) for j in range(n)] for i in range(n)]
    return SuperMatrix(table, x.module_parities, rows, EVEN, check=False)


def oracle_supertraces_of_powers(mat, ks):
    """{k: str(M^k)} from the half powers M^ceil(k/2) and M^floor(k/2), each
    formed as ``powers[-1] * mat`` in Fractions: the route
    ``jacobian.supertraces_of_powers`` took before ``PowerChain``."""
    table = mat.table
    ks = list(ks)
    powers = [SuperMatrix.identity(table, mat.module_parities), mat]
    while len(powers) <= (max(ks, default=0) + 1) // 2:
        powers.append(powers[-1] * mat)
    out = {}
    for k in ks:
        left, right = powers[(k + 1) // 2].entries, powers[k // 2].entries
        out[k] = sum_of_products(table, [
            (-e if p == ODD else e, right[j][i])
            for i, p in enumerate(mat.module_parities) for j, e in enumerate(left[i])
        ])
    return out


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def oracle_determinant(mat):
    """The Leibniz sum over the n! permutations, valid when the entries are
    even: the route ``SuperMatrix.determinant`` took before Newton's
    identities."""
    n, table = mat.size, mat.table
    if n == 0:
        return table.one()
    pairs = []
    for perm in itertools.permutations(range(n)):
        factors = [mat.entries[i][perm[i]] for i in range(n)]
        if not any(e.is_zero() for e in factors):
            pairs.append((functools.reduce(mul, factors[:-1], table.constant(_perm_sign(perm))), factors[-1]))
    return sum_of_products(table, pairs)


def oracle_invert(rows):
    """Inverse of a dense square rational matrix by one RREF of [A | 1];
    raises ValueError when singular.  It was ``linalg.invert``, which
    inverted the constant part of the odd block of a Berezinian before the
    Cayley-Hamilton inverse."""
    n = len(rows)
    m, pivots = linalg.rref([{**dict(enumerate(r)), n + i: 1} for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in m]


def str_ad_power(gp, k):
    """Supertrace over the q block of (ad y)^k, as str Q^(k/2); requires k
    even (odd powers swap the eigenspaces, so their q block is not
    defined)."""
    if k % 2:
        raise ValueError("odd powers of ad y do not stabilize q")
    return supertraces_of_powers(jac._q_square(gp), [k // 2])[k // 2]


def str_ad_power_full(gp, k):
    """Supertrace over the whole algebra of (ad y)^k (any k), from half
    powers; meaningful for the h = 0 generic point."""
    return supertraces_of_powers(gp.ad_y(), [k])[k]


def constant_ad(alg, idx):
    """The matrix of ad e_idx as Fractions."""
    ints, den = alg.int_brackets[idx], alg.bracket_den
    return [[Fraction(ints[k].get(m, 0), den) for k in range(alg.dim)] for m in range(alg.dim)]


def jacobian_J2_q2(gp):
    """Closed form of J_2 when q is (0,2)-dimensional:

        1 + (1/24) str over q of (-ad e_1 ad e_2 + ad e_2 ad e_1) x^1 x^2.
    """
    pair = gp.pair
    alg = pair.algebra
    if not (gp.purely_odd and len(pair.q_indices) == 2):
        raise ValueError("the closed form applies to q of dimension (0,2)")
    a1, a2 = (constant_ad(alg, i) for i in pair.q_indices)
    n = alg.dim
    s = sum(
        (-1 if alg.parities[i] == ODD else 1) * sum(-a1[i][k] * a2[k][i] + a2[i][k] * a1[k][i] for k in range(n))
        for i in pair.q_indices
    )
    x1x2 = gp.table.variable(0) * gp.table.variable(1)
    return gp.table.one() + x1x2 * (Fraction(s) * Fraction(1, 24))


def oracle_ad_matrix(alg, element, table):
    """ad(element) column by column through ``LieSuperAlgebra.bracket`` and
    SuperPolynomial sums of Fractions: the route ``liealg.ad_matrix`` took
    before it read the integer structure constants."""
    element = {
        i: (table.constant(c) if isinstance(c, (int, Fraction)) else c)
        for i, c in element.items()
    }
    op_parity = alg.element_parity(element)
    if op_parity is None:
        raise ValueError("ad of a parity-inhomogeneous element")
    n = alg.dim
    cols = [alg.bracket(element, {k: table.one()}) for k in range(n)]
    rows = [[cols[j].get(i, table.zero()) for j in range(n)] for i in range(n)]
    return SuperMatrix(table, alg.parities, rows, op_parity)


def oracle_h_derivation(pair, a_index, w):
    """C_c^a for a in h, the derivation extending b |-> [a, b], letter by
    letter: replace the k-th letter of each monomial, with one sign p(a) per
    odd letter crossed.  An even letter x of exponent n is replaced once,
    scaled by n (x^n |-> n x^(n-1) [a, x]): its n copies give the same term,
    and adding them one by one would drop a key whose running sum passes
    through zero and add it again at the end, an order the one leg per
    letter of the coproduct does not make.  It shares no code with
    ``coderiv._coderivation``."""
    alg = pair.algebra
    table = cd.sq_table(pair)
    pa = alg.parities[a_index]
    out = table.zero()
    for mono, coeff in w.terms.items():
        letters = _monomial_to_word(mono)
        for k, pos in enumerate(letters):
            if k and letters[k - 1] == pos:
                continue
            image = alg.bracket({a_index: Fraction(1)}, {pair.q_indices[pos]: Fraction(1)})
            if not image:
                continue
            crossed = sum(1 for j in letters[:k] if table.parities[j] == ODD)
            sign = -1 if (pa * crossed) % 2 else 1
            prefix = table.one()
            for j in letters[:k]:
                prefix = prefix * table.variable(j)
            suffix = table.one()
            for j in letters[k + 1 :]:
                suffix = suffix * table.variable(j)
            repl = table.zero()
            for i, c in image.items():
                repl = repl + table.variable(pair.q_indices.index(i)) * c
            out = out + prefix * repl * suffix * (coeff * sign * mono[pos])
    return out


def _mono_mul(table, mono, pos):
    """Multiply a canonical monomial by one letter on the right."""
    if table.parities[pos] == ODD and mono[pos]:
        return None, 0
    crossings = sum(
        1
        for j in range(pos + 1, len(mono))
        if mono[j] and table.parities[j] == ODD
    ) if table.parities[pos] == ODD else 0
    new = list(mono)
    new[pos] += 1
    return tuple(new), (-1 if crossings % 2 else 1)


def oracle_sq_coproduct(pair, w):
    """Coproduct of S(q), letter by letter: each letter of each monomial
    goes to the first leg (crossing the second) or to the second leg."""
    table = cd.sq_table(pair)
    unit = (0,) * len(table)
    out = {}
    for mono, coeff in w.terms.items():
        state = {(unit, unit): Fraction(1)}
        for pos in _monomial_to_word(mono):
            lp = table.parities[pos]
            new = {}
            for (m1, m2), c in state.items():
                s = -1 if lp == ODD and table.monomial_parity(m2) == ODD else 1
                prod, psign = _mono_mul(table, m1, pos)
                if prod is not None:
                    key = (prod, m2)
                    acc = new.get(key, Fraction(0)) + c * s * psign
                    if acc == 0:
                        new.pop(key, None)
                    else:
                        new[key] = acc
                prod, psign = _mono_mul(table, m2, pos)
                if prod is not None:
                    key = (m1, prod)
                    acc = new.get(key, Fraction(0)) + c * psign
                    if acc == 0:
                        new.pop(key, None)
                    else:
                        new[key] = acc
            state = new
        for key, c in state.items():
            acc = out.get(key, Fraction(0)) + c * coeff
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def oracle_first_letter_sum(parities, word, value, product, den=1):
    """(1/den) sum_k eps_k product(w_k, value(w without position k)), for
    ``value`` giving forms and ``product(letter, key)`` a form per key of
    them.  eps_k = -1 exactly when w_k is odd and an odd number of odd
    letters precede it (the Koszul sign of moving w_k to the front); equal
    (letter, sub-word) terms are merged first, zero sums dropped.  The word
    recursion ``enveloping._support_sum`` replaced, for words in any order."""
    merged, odd_before = {}, 0
    for k, letter in enumerate(word):
        odd = parities[letter] == ODD
        key = (letter, word[:k] + word[k + 1 :])
        merged[key] = merged.get(key, 0) + (-1 if odd and odd_before % 2 else 1)
        odd_before += odd
    subs = [(letter, count, value(rest)) for (letter, rest), count in merged.items() if count]
    lcm = math.lcm(*(d for _, _, (d, _) in subs))
    return _combine([
        (count * c * (lcm // d), product(letter, key)) for letter, count, (d, terms) in subs for key, c in terms.items()
    ], den * lcm)


def oracle_symmetrized(alg, word, memo):
    """beta(word) as a form by the word recursion, kept in ``memo`` ({word:
    form}): the route ``enveloping._symmetrized`` took before it was keyed
    by PBW monomial."""
    word = tuple(word)
    result = memo.get(word)
    if result is None:
        value = functools.partial(oracle_symmetrized, alg, memo=memo)
        product = functools.partial(_letter_product, alg)
        den, acc = oracle_first_letter_sum(alg.parities, word, value, product, len(word)) if word else (1, {(0,) * alg.dim: 1})
        result = memo[word] = (den, {m: acc[m] for m in sorted(acc, key=lambda m: (sum(m), m))})
    return result


def oracle_nested(alg, memo, word):
    """S(word)(a) as a form over the integer bracket table by the word
    recursion, kept in ``memo`` ({word: form}, seeded with () -> a): the
    route ``coderiv._nested`` took before it was keyed by S(q) monomial."""
    value = memo.get(word)
    if value is None:
        brackets, bden = alg.int_brackets, alg.bracket_den
        value = memo[word] = oracle_first_letter_sum(
            alg.parities, word, lambda rest: oracle_nested(alg, memo, rest), lambda k, i: (bden, brackets[k][i])
        )
    return value


def oracle_monomial_nested(alg, memo, mono):
    """S(mono)(a) as a form over the integer bracket table, one first-letter
    sum (``enveloping._support_sum``) per sub-monomial, kept in ``memo``
    ({S(q) monomial: form}, seeded with the zero monomial -> a): the route
    ``coderiv._nested`` took before the nests were built by degree level."""
    value = memo.get(mono)
    if value is None:
        brackets, bden = alg.int_brackets, alg.bracket_den
        value = memo[mono] = _support_sum(
            alg.parities, mono, lambda rest: oracle_monomial_nested(alg, memo, rest), lambda k, i: (bden, brackets[k][i])
        )
    return value


def sq_from_element(pair, element: dict) -> SuperPolynomial:
    """Embed a q-supported algebra element as a degree-1 polynomial."""
    table = cd.sq_table(pair)
    unit = (0,) * len(table)
    terms = {}
    for i, c in element.items():
        if c == 0:
            continue
        if not 0 <= i < len(table):
            raise ValueError("element has components outside q")
        terms[unit[:i] + (1,) + unit[i + 1 :]] = Fraction(c)
    return SuperPolynomial(table, terms)


def scale_degrees(pair: SymmetricPair, w: SuperPolynomial, c) -> SuperPolynomial:
    """The Hopf automorphism I_c of S(q): multiplication by c^n in degree n."""
    c = Fraction(c)
    table = cd.sq_table(pair)
    _check_tables(table, (w,))
    return SuperPolynomial(table, {m: co * c ** sum(m) for m, co in w.terms.items()})


def apply_radx(pair, series, a_element, letters):
    """The universal vector field p(ad y)(a) on the monomial with the given
    q letters: p_n times the Koszul-signed sum over all orderings of the
    iterated brackets, as an algebra element {index: Fraction} in index
    order; a letter outside q raises IndexError, and a series of order below
    the number of letters raises ValueError (its p_n would read as 0).  The
    letters become an S(q) monomial and the Koszul sign of sorting them
    (``enveloping._word_to_monomial``), and the nest is
    ``oracle_monomial_nested``: the route of ``coderiv.apply_radx``, which
    ``theta_action`` read before the nest levels."""
    sign, mono = _word_to_monomial(pair.algebra.parities, letters, len(pair.q_indices))
    if sum(mono) > series.order:
        raise ValueError(f"a series of order {series.order} has no coefficient in degree {sum(mono)}")
    pn = series.coeff(sum(mono))
    if pn == 0 or not sign:
        return {}
    den, out = oracle_monomial_nested(pair.algebra, {(0,) * len(mono): _form({i: c for i, c in a_element.items() if c})}, mono)
    return {i: Fraction(sign * out[i] * pn.numerator, den * pn.denominator) for i in sorted(out)}


def oracle_apply_radx(pair, series, a_element, letters):
    """p(ad y)(a) on the q letters through ``oracle_nested``, the word kept as
    given: the route of ``coderiv.apply_radx`` before it sorted its letters
    into an S(q) monomial.  It refuses no letter, but refuses with
    ValueError a series whose order is below the number of letters."""
    letters = tuple(letters)
    if len(letters) > series.order:
        raise ValueError(f"a series of order {series.order} has no coefficient in degree {len(letters)}")
    pn = series.coeff(len(letters))
    if pn == 0:
        return {}
    den, out = oracle_nested(pair.algebra, {(): _form({i: c for i, c in a_element.items() if c})}, letters)
    return {i: Fraction(out[i] * pn.numerator, den * pn.denominator) for i in sorted(out)}


def oracle_coderivation(pair, series, a_index, w):
    """C_c^a on the SuperPolynomial w, one ``oracle_apply_radx`` Fraction dict, one
    degree-1 polynomial and one one-term polynomial per leg of the
    letter-by-letter ``oracle_sq_coproduct``, summed by ``sum_of_products``:
    the route ``coderiv._coderivation`` took before it kept its chains as
    integer forms and walked the legs of ``superpoly._coproduct_legs``.  An h letter goes to
    ``oracle_h_derivation``."""
    table = cd.sq_table(pair)
    order = table.truncation_order
    pa = pair.algebra.parities[a_index]
    if order is not None and (not pair.in_h(a_index) or pa == ODD):
        if any(table.even_degree(m) >= order for m in w.terms):
            raise ValueError(f"S(q) is truncated at even degree {order}: C_c^a of w would drop terms")
    if pair.in_h(a_index):
        return oracle_h_derivation(pair, a_index, w)
    a_element = {a_index: Fraction(1)}
    pairs = []
    for (leg1, leg2), coeff in oracle_sq_coproduct(pair, w).items():
        value = oracle_apply_radx(pair, series, a_element, _monomial_to_word(leg1))
        if value:
            sign = -1 if pa and table.monomial_parity(leg1) else 1
            pairs.append((sq_from_element(pair, value), SuperPolynomial(table, {leg2: coeff * sign})))
    return sum_of_products(table, pairs)


def oracle_words(pair, c, u, chains):
    """C_c^u(w) for the SuperPolynomial w = chains[()], through
    ``oracle_coderivation``: each PBW word of u is applied from its longest
    suffix found in ``chains``, new chains are stored there, and the words
    are summed by one ``sum_of_products``."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("C_c requires c != 0")
    table = cd.sq_table(pair)
    series = p_c(c, chains[()].total_degree() + u.degree())
    pairs = []
    for mono, coeff in u.terms.items():
        word = _monomial_to_word(mono)
        k = next(k for k in range(len(word) + 1) if word[k:] in chains)
        acc = chains[word[k:]]
        for j in range(k - 1, -1, -1):
            if acc.is_zero():
                break
            acc = chains[word[j:]] = oracle_coderivation(pair, series, word[j], acc)
        pairs.append((acc, table.constant(coeff)))
    return sum_of_products(table, pairs)


def oracle_coderivation_C(pair, c, a_index, w):
    """C_c^a(w) through ``oracle_words``, with a p_c of its own."""
    return oracle_words(pair, c, PbwElement.from_basis(pair.algebra, a_index), {(): w})


def oracle_theta_action(pair, c, chi, a_index, w):
    """Theta^a_{c,chi} on the SuperPolynomial w: ``oracle_coderivation_C``
    plus the legs chi(f(ad leg2)(a)) leg1, each through ``apply_radx`` on
    the word of leg2, f = q_c for a in q and 1 for a in h, both built to the
    degree of w: the route ``coderiv.theta_action`` took before it read the
    nest levels by monomial."""
    c = Fraction(c)
    table = cd.sq_table(pair)
    degree = w.total_degree()
    series = TruncatedSeries1.constant(1, degree) if pair.in_h(a_index) else q_c(c, degree + 1)
    pa = pair.algebra.parities[a_index]
    pairs = [(oracle_coderivation_C(pair, c, a_index, w), table.one())]
    for (leg1, leg2), coeff in coproduct_terms(table.parities, w.terms).items():
        scalar = chi.of_element(apply_radx(pair, series, {a_index: Fraction(1)}, _monomial_to_word(leg2)))
        if scalar:
            sign = -1 if pa and table.monomial_parity(leg1) else 1
            pairs.append((SuperPolynomial(table, {leg1: coeff * scalar * sign}), table.one()))
    return sum_of_products(table, pairs)


def of_h_monomial(chi, mono) -> Fraction:
    """The character chi on the U(h) monomial mono, a product over its letters."""
    out = Fraction(1)
    for i, e in enumerate(mono):
        if e:
            out *= chi.values.get(i, Fraction(0)) ** e
    return out


def induced_action(pair: SymmetricPair, chi: cd.Character, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """Left multiplication by j(a) on the induced module U(g) (x)_h V_chi,
    computed concretely: multiply in U(g), refactor as beta(S(q)) U(h), and
    push the h factors through chi."""
    alg = pair.algebra
    table = cd.sq_table(pair)
    _check_tables(table, (w,))
    f = factorization(pair, w.total_degree() + 1)
    pairs = []
    for mono, coeff in w.terms.items():
        u = PbwElement.from_basis(alg, a_index) * symmetrize_word(alg, _monomial_to_word(mono))
        terms = {}
        for (qm, hm), cc in f.coordinates(u).items():
            qm_local = tuple(qm[i] for i in pair.q_indices)
            terms[qm_local] = terms.get(qm_local, 0) + cc * of_h_monomial(chi, hm)
        pairs.append((SuperPolynomial(table, terms), table.constant(coeff)))
    return sum_of_products(table, pairs)


def check_theta_vs_induced(pair, chi, max_degree):
    """Left multiplication on the induced module (``induced_action``)
    against Theta_{1,chi}, on all basis vectors and monomials of degree
    <= max_degree.  Returns (True, None) or (False, witness)."""
    alg = pair.algebra
    table = cd.sq_table(pair)
    for a in range(alg.dim):
        for mono in exhaustive_monomials(table, max_degree):
            w = SuperPolynomial(table, {mono: Fraction(1)})
            lhs = induced_action(pair, chi, a, w)
            rhs = cd.theta_action(pair, Fraction(1), chi, a, w)
            if lhs != rhs:
                return False, (alg.names[a], mono, str(lhs - rhs))
    return True, None


def oracle_quotient_coordinates(pair, u):
    """The class of u in U(g)/U(g)h by peeling: the coordinates of
    ``Factorization(pair, d).coordinates(u)`` with no h factor, keyed by
    their q part, in the peeling's (degree, monomial) order.  The route
    ``quotient_coordinates`` took before it read tau."""
    unit = (0,) * pair.algebra.dim
    coords = Factorization(pair, max(u.degree(), 1)).coordinates(u)
    return {qm: c for (qm, hm), c in coords.items() if hm == unit}


def oracle_quotient_mod_h(pair, u):
    """beta of ``oracle_quotient_coordinates``: the route of
    ``quotient_mod_h`` before it read tau."""
    return symmetrize(pair.algebra, oracle_quotient_coordinates(pair, u))


def oracle_h_twisted_vector_field(gp, a_index):
    """alpha_c^a for a in h as the bracket [a, y] of the algebra, its
    components sorted by index: the h branch ``jacobian.twisted_vector_field``
    kept before it ran the series -t.  The bracket lists its components in
    the order of its own loop; the series route lists them by index."""
    field = gp.algebra.bracket({a_index: gp.table.one()}, dict(gp.y))
    return dict(sorted(field.items()))


def oracle_h_theta(gp, a_index):
    """theta_c^a = a for a in h, as the field {a: 1}: the h branch of
    ``jacobian.key_identity_check`` before it ran the series 1."""
    return {a_index: gp.table.one()}


def oracle_h_theta_action(pair, c, chi, a_index, w):
    """Theta^a_{c,chi} for a in h as C_c^a w + chi(a) w, one
    ``sum_of_products``: the h branch ``coderiv.theta_action`` kept before
    it ran the chi-twisted leg sum with the series 1."""
    table = cd.sq_table(pair)
    return sum_of_products(table, [
        (cd.coderivation_C(pair, c, a_index, w), table.one()),
        (w, table.constant(chi.values.get(a_index, 0))),
    ])


def diagonal_pair(name, keep=None):
    """(g + g, swap) realized on V + V: q_X = diag(X, -X) and h_X = diag(X, X),
    so q inherits the parity mix of g (both parities in q and in h).  With
    ``keep``, g is the subalgebra spanned by those catalog basis vectors."""
    mats, parities, _ = defining_matrices(name)
    letters = catalog(name)[0].names
    chosen = [i for i, x in enumerate(letters) if keep is None or x in keep]
    mats = [mats[i] for i in chosen]
    parities = [parities[i] for i in chosen]
    n = len(mats[0])

    def block(x, s):
        top = [list(row) + [0] * n for row in x]
        bottom = [[0] * n + [s * v for v in row] for row in x]
        return top + bottom

    names = [f"{side}_{letters[i]}" for side in "qh" for i in chosen]
    mats2 = [block(x, -1) for x in mats] + [block(x, 1) for x in mats]
    alg = algebra_from_matrices(names, parities + parities, mats2)
    return SymmetricPair(alg, range(len(mats), 2 * len(mats)))


def rescaled_pair(name, scales):
    """A catalog pair in the basis e_i -> s_i e_i: the same algebra with
    structure constants that are not all +-1, 0 or +-2."""
    mats, parities, _ = defining_matrices(name)
    _, pair = catalog(name)
    scaled = [[[Fraction(s) * v for v in row] for row in x] for s, x in zip(scales, mats)]
    alg = algebra_from_matrices(pair.algebra.names, parities, scaled)
    return SymmetricPair(alg, pair.h_indices)


def gl_pair(m, n):
    """gl(m|n) from its elementary matrices E_ij, the odd ones first, with
    h = the even part gl(m) + gl(n)."""
    size = m + n
    odd, even = [], []
    for i in range(size):
        for j in range(size):
            mat = [[0] * size for _ in range(size)]
            mat[i][j] = 1
            (odd if (i < m) != (j < m) else even).append((f"E{i + 1}{j + 1}", mat))
    basis = odd + even
    alg = algebra_from_matrices(
        [nm for nm, _ in basis], [ODD] * len(odd) + [EVEN] * len(even), [x for _, x in basis]
    )
    return SymmetricPair(alg, range(len(odd), len(basis)))


def osp14_pair():
    """osp(1|4) from its defining representation on a (1|4)-dimensional
    space: v0 even with B(v0, v0) = 1; v1..v4 odd with the symplectic form
    pairing (v1, v3) and (v2, v4).  The odd part is four-dimensional and
    its anticommutators span the ten-dimensional even part sp(4)."""
    J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]

    def odd_matrix(gamma):
        rows = [[Fraction(0)] * 5 for _ in range(5)]
        for i in range(4):
            rows[i + 1][0] = Fraction(gamma[i])
        for j in range(4):
            rows[0][j + 1] = -sum(Fraction(gamma[i]) * J[i][j] for i in range(4))
        return rows

    odd = [odd_matrix([1 if k == a else 0 for k in range(4)]) for a in range(4)]
    even = []
    for a in range(4):
        for b in range(a, 4):
            anti = [
                [
                    sum(odd[a][i][k] * odd[b][k][j] + odd[b][i][k] * odd[a][k][j] for k in range(5))
                    for j in range(5)
                ]
                for i in range(5)
            ]
            even.append(anti)
    names = [f"b{a+1}" for a in range(4)] + [f"s{k+1}" for k in range(10)]
    parities = [ODD] * 4 + [EVEN] * 10
    alg = algebra_from_matrices(names, parities, odd + even)
    return alg, SymmetricPair(alg, range(4, 14))


ORACLE_PAIRS = {
    "osp12": lambda: catalog("osp12")[1],
    "gl11": lambda: catalog("gl11")[1],
    "heisenberg_super": lambda: catalog("heisenberg_super")[1],
    "diag-gl11": lambda: diagonal_pair("gl11"),
    "osp12-rescaled": lambda: rescaled_pair("osp12", [2, Fraction(-1, 3), Fraction(3, 2), -1, 5]),
}


# pairs with odd h vectors and a q of both parities
MIXED_PAIRS = {
    "diag-gl11": lambda: diagonal_pair("gl11"),
    "diag-osp12": lambda: diagonal_pair("osp12"),
    # the Borel subalgebra {e, H, E} of osp(1|2): its supertrace character
    # is nonzero on the diagonal copy of H
    "diag-borel": lambda: diagonal_pair("osp12", {"e", "H", "E"}),
}


# every pair above: the integer-form tests and the word-route tests run on them
FORM_PAIRS = dict(ORACLE_PAIRS, **MIXED_PAIRS)


@pytest.fixture(scope="session")
def warm_pairs():
    """Pairs of ``FORM_PAIRS`` kept across the examples of a session,
    by name, so that their memos are warm."""
    return {}


def draw_word_route_pair(data, warm_pairs):
    """A pair of ``FORM_PAIRS`` for a Hypothesis test: built afresh, so
    with empty memos, or the one in ``warm_pairs``, its memos warm."""
    name = data.draw(st.sampled_from(sorted(FORM_PAIRS)), label="pair")
    if data.draw(st.booleans(), label="fresh"):
        return FORM_PAIRS[name]()
    if name not in warm_pairs:
        warm_pairs[name] = FORM_PAIRS[name]()
    return warm_pairs[name]


def draw_word(data, letters, parities):
    """A word of ``letters``: up to three distinct odd ones and up to three
    even ones, sorted, in drawn order, or in drawn order with one odd letter
    repeated (the three kinds the word route took)."""
    odd = [i for i in letters if parities[i] == ODD]
    even = [i for i in letters if parities[i] != ODD]
    word = data.draw(st.lists(st.sampled_from(odd), unique=True, max_size=3), label="odd") if odd else []
    word += data.draw(st.lists(st.sampled_from(even), max_size=3), label="even") if even else []
    kind = data.draw(st.sampled_from(["sorted", "unsorted", "repeated odd"]), label="kind")
    if kind == "repeated odd" and odd:
        word.append(data.draw(st.sampled_from(odd), label="repeated"))
        word.append(word[-1])
    return tuple(sorted(word)) if kind == "sorted" else tuple(data.draw(st.permutations(word), label="order"))


@pytest.fixture(params=sorted(ORACLE_PAIRS))
def oracle_pair(request):
    """Symmetric pairs on which the library's fast routes are diffed
    against their defining permutation sums."""
    return ORACLE_PAIRS[request.param]()
