"""Universal representations of a symmetric pair by coderivations of S(q).

S(q) is realized as a supercommutative polynomial algebra whose variables
are the q basis vectors themselves.  The action of a in q is the
coderivation pairing the coproduct legs of a monomial with the evaluations

    p(ad y)(a) : b_1...b_n  |->  p_n  sum_s  (Koszul sign) ad b_{s(1)} ... ad b_{s(n)} (a)

of the generic-point series, a crossing the first leg with the sign
(-1)^{p(a) p(leg1)}; the action of a in h is the superalgebra derivation
extending the adjoint action b |-> [a, b], which is the same coproduct-leg
step with the series -t, as [a, b] = -(-1)^{p(a) p(b)} [b, a].  With
p = p_c = t*coth(t/c) these assemble into the representation C_c; twisting
by a character chi of h through q_c = -tanh(t/(2c)) on q and 1 on h gives
the representations Theta_{c,chi} that match left multiplication on the
induced module.  Every Koszul sign of a product in S(q) comes from the
monomial sign of ``superpoly``.

C_c, C_c^u and tau run on the integer forms (den, {S(q) monomial: int}) of
``superpoly``: they read the stored form of their arguments and wrap the
form of each result, with no Fraction between beta and tau.  Their memos die
with the pair: ``pair.nest_memo`` keeps the bracket nests S(K)(a) by degree
(``_nest_levels``), read by C_c, Theta and ``jacobian.series_of_ad_y``;
``pair.tau_memo`` the chain C_1^m(1) of each PBW q-monomial m tau meets, as
a form, ``pair.p_c_memo`` the series p_c they use and ``pair.generators_memo``
the Lie-generating set.

tau (the inverse of the symmetrization onto U(g)/U(g)h), the quotient mod
U(g)h read off it, the twisted adjoint invariance checker and the
invariant-space solver live here too; the last two run the C_c^a step of
tau at c = 2 on S(q), as ad'(a) o beta = beta o C_2^a, for a Lie-generating
set (``lie_generators``, ``moving_generator``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import gt, mul, sub

from . import linalg
from .enveloping import (
    PbwElement,
    _support_sum,
    _symmetrize,
    factorization,
    symmetrize_word,  # unused here; bench/tests/test_bench.py reads coderiv.symmetrize_word
    twisted_adjoint,
)
from .liealg import SymmetricPair
from .series import TruncatedSeries1, p_c, q_c
from .superpoly import (
    ODD,
    SuperPolynomial,
    VariableTable,
    _check_tables,
    _combine,
    _fractions,
    _leg_sign,
    _letter_sign,
    _poly,
    _shape,
    coproduct_terms,
    exhaustive_monomials,
    sum_of_products,
)


def sq_table(pair: SymmetricPair) -> VariableTable:
    """The pair's variable table realizing S(q); ``coderivation_C`` refuses
    to pass its truncation degree."""
    return pair.sq_table


# ---------------------------------------------------------------------------
# the generic-point evaluations
# ---------------------------------------------------------------------------

def _nest_levels(span, a_index: int, degree: int) -> list:
    """The bracket nests S(K)(a) (the Koszul-signed sum of [x_s1, [x_s2, ...
    [x_sn, a]]] over the orderings s of the letters of K) by degree: level n
    is {K: (odd mask of K, form)} over the S(q) monomials K of degree n with
    a nonzero nest, exact, kept in ``span.nest_memo[a]`` and built up to
    ``degree``.  A nonzero nest of K has one at some K - e_i, so level n
    pulls each K + e_i over level n - 1 that repeats no odd letter through
    ``enveloping._support_sum``, a key missing below being a zero nest."""
    alg = span.algebra
    parities = alg.parities[: len(span.q_indices)]  # q is the first block of g
    levels = span.nest_memo.get(a_index)
    if levels is None:
        levels = span.nest_memo[a_index] = [{(0,) * len(parities): (0, (1, {a_index: 1}))}]
    brackets, bden = alg.int_brackets, alg.bracket_den
    while len(levels) <= degree:
        below, level = levels[-1], {}
        for mono, (odd, _) in below.items():
            for i, p in enumerate(parities):
                bit, up = (p == ODD) << i, mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                if not odd & bit and up not in level:
                    level[up] = odd | bit, _support_sum(
                        parities, up, lambda rest: below.get(rest, (0, (1, {})))[1], lambda k, j: (bden, brackets[k][j])
                    )
        levels.append({mono: entry for mono, entry in level.items() if entry[1][1]})
    return levels


def _coderivation(pair: SymmetricPair, series: TruncatedSeries1, a_index: int, w: tuple) -> tuple:
    """C_c^a on the form w, with p_c built to at least the total degree of w.
    The legs K (x) m - K of a monomial m with a nonzero nest are the K <= m
    of the nest levels (``_nest_levels``) with p_|K| != 0, taken in the order
    of m - K.  Each letter x_i of the int form S(K)(a) is multiplied into
    m - K with the sign of ``_letter_sign``, scaled by C(m, K), the leg sign
    (``superpoly._leg_sign``), the int p_n of the form of p_c and
    (-1)^{p(a) p(K)}; one ``_combine`` sums the legs.  An h letter runs the
    same step with the series -t, the form (1, {(1,): -1}): the derivation
    extending ad a."""
    table = pair.sq_table
    order, parities = table.truncation_order, table.parities
    in_h, pa = pair.in_h(a_index), pair.algebra.parities[a_index]
    den, terms = w
    top = max(map(sum, terms), default=0)
    # C_c^a raises the even degree by at most one, and not at all for even a
    # in h; the even degree of m is sum(m) less its odd letters, at most top
    if order is not None and top >= order and (not in_h or pa == ODD):
        if any(sum(m) - sum(map(mul, m, parities)) >= order for m in terms):
            raise ValueError(f"S(q) is truncated at even degree {order}: C_c^a of w would drop terms")
    nums_den, nums = (1, {(1,): -1}) if in_h else series.form
    mixed = order is not None  # even letters: the odd masks alone do not decide K <= m
    walk = [(n, v) for (n,), v in nums.items() if n <= top]
    levels = _nest_levels(pair, a_index, max((n for n, _ in walk), default=0))
    pairs = []
    for m, coeff in terms.items():
        odd_m, koszul, _ = _shape(parities, m)
        legs = sorted([  # by leg2 alone: no two legs of m share it
            (tuple(map(sub, m, leg1)), odd_m ^ odd1, pn * (-1) ** (pa & odd1.bit_count()), nest)
            for n, pn in walk if n <= sum(m)
            for leg1, (odd1, nest) in levels[n].items() if not odd1 & ~odd_m and not (mixed and any(map(gt, leg1, m)))
        ])
        for leg2, odd2, pn, (nden, nest) in legs:
            # the nest lies in q, whose vectors are the first letters of g and of S(q)
            images = {leg2[:i] + (leg2[i] + 1,) + leg2[i + 1 :]: sign * nest[i]
                      for i in sorted(nest) if (sign := _letter_sign(parities, i, odd2))}
            c = math.prod(map(math.comb, m, leg2)) if mixed else 1
            pairs.append((coeff * _leg_sign(koszul, odd2) * c * pn, (nden, images)))
    return _combine(pairs, den * nums_den)


def coderivation_C(pair: SymmetricPair, c, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """The universal representation C_c^a acting on w in S(q): for a in q,
    the sum over the coproduct legs of w of (-1)^{p(a) p(leg1)}
    p_c(ad leg1)(a) leg2, the sign being a crossing the first leg; for a in
    h, the derivation extending ad a (the same sum with -t for p_c)."""
    return coderivation_C_u(pair, c, PbwElement.from_basis(pair.algebra, a_index), w)


def _own_form(pair: SymmetricPair, u: PbwElement) -> tuple:
    """The form of u, refused unless u lies in U(g) of the pair's own algebra."""
    if u.alg is not pair.algebra:
        raise ValueError("elements of enveloping algebras of different Lie superalgebras")
    return u.form


def _words(pair: SymmetricPair, c, form: tuple, chains: dict) -> tuple:
    """C_c^u(w) as a form, for the form (den, {PBW monomial: int}) of u and
    the form w that ``chains`` holds under the zero PBW monomial: the chain
    of each PBW monomial of u is ``_chain``.  C_c raises the degree by at
    most one, so p_c is read to the degree of w plus that of u (``_p_c``)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("C_c requires c != 0")
    den, terms = form
    w_degree = max((sum(m) for m in chains[(0,) * pair.algebra.dim][1]), default=0)
    series = _p_c(pair, c, w_degree + max(map(sum, terms), default=0))
    return _combine([(coeff, _chain(pair, series, chains, mono)) for mono, coeff in terms.items()], den)


def _p_c(pair: SymmetricPair, c, degree: int) -> TruncatedSeries1:
    """p_c to ``degree``, built once per (c, degree) and kept in ``pair.p_c_memo``."""
    series = pair.p_c_memo.get((c, degree))  # a rational c hashes and compares as its Fraction
    if series is None:
        key = Fraction(c), degree
        series = pair.p_c_memo[key] = p_c(*key)
    return series


def _chain(pair: SymmetricPair, series: TruncatedSeries1, chains: dict, mono) -> tuple:
    """The chain C^m(w) = C^{x_i}(C^{m - e_i}(w)) of the PBW monomial m with
    first letter x_i, as ``_monomial_product`` recurses.  Each chain is stored
    in ``chains`` under its monomial unless it raises, zero ones too."""
    acc = chains.get(mono)
    if acc is None:
        for i, e in enumerate(mono):
            if e:
                break
        acc = _chain(pair, series, chains, mono[:i] + (mono[i] - 1,) + mono[i + 1 :])
        acc = chains[mono] = _coderivation(pair, series, i, acc) if acc[1] else acc
    return acc


def coderivation_C_u(pair: SymmetricPair, c, u: PbwElement, w: SuperPolynomial) -> SuperPolynomial:
    """Multiplicative extension u -> C_c^u to the enveloping algebra."""
    _check_tables(sq_table(pair), (w,))
    return _poly(sq_table(pair), _words(pair, c, _own_form(pair, u), {(0,) * pair.algebra.dim: w.form}))


def tau(pair: SymmetricPair, u: PbwElement) -> SuperPolynomial:
    """tau(u) = C_1^u(1): the inverse of the symmetrization onto U(g)/U(g)h, as
    an element of S(q).  tau reads only the q-part of u: h is the final
    segment of the basis, so a PBW monomial with an h letter ends in one,
    whose C_1 is a derivation and kills 1, so tau kills U(g)h term by term.
    The chain C_1^m(1) of every q-monomial m of u, and of the monomials its
    recursion passes, stays in ``pair.tau_memo`` as a form while the pair
    lives; it holds q-monomials only."""
    den, terms = _own_form(pair, u)
    nq = len(pair.q_indices)
    form = den, {m: v for m, v in terms.items() if not any(m[nq:])}
    return _poly(pair.sq_table, _words(pair, 1, form, pair.tau_memo))


def _quotient_form(pair: SymmetricPair, u: PbwElement) -> tuple:
    """The form of tau(u), each monomial padded with zeros on h, in (degree, monomial) order."""
    pad, (den, terms) = (0,) * len(pair.h_indices), tau(pair, u).form
    return den, {m + pad: terms[m] for m in sorted(terms, key=lambda m: (sum(m), m))}


def quotient_coordinates(pair: SymmetricPair, u: PbwElement) -> dict:
    """The class of u in U(g)/U(g)h as PBW coordinates in beta(S(q)), read
    off ``_quotient_form``.  On a pair whose q has even vectors, S(q) is
    truncated at even degree 24, so an element whose tau image passes it is
    refused with ValueError."""
    return _fractions(_quotient_form(pair, u))


def quotient_mod_h(pair: SymmetricPair, u: PbwElement) -> PbwElement:
    """The representative beta(tau(u)) of u mod U(g)h, symmetrized from
    ``_quotient_form``; refused where ``quotient_coordinates`` is."""
    return _symmetrize(pair.algebra, _quotient_form(pair, u))


def check_representation(pair: SymmetricPair, c, max_degree: int):
    """[C_c^a, C_c^b] = C_c^{[a,b]} on all basis pairs and monomials of
    degree <= max_degree.  Returns (True, None) or (False, witness)."""
    alg = pair.algebra
    table = sq_table(pair)
    monos = list(exhaustive_monomials(table, max_degree))
    for a in range(alg.dim):
        for b in range(alg.dim):
            bracket = alg.bracket({a: Fraction(1)}, {b: Fraction(1)})
            sign = -1 if (alg.parities[a] * alg.parities[b]) % 2 else 1
            for mono in monos:
                w = SuperPolynomial(table, {mono: Fraction(1)})
                lhs = coderivation_C(pair, c, a, coderivation_C(pair, c, b, w)) - (
                    coderivation_C(pair, c, b, coderivation_C(pair, c, a, w)) * sign
                )
                rhs = sum_of_products(
                    table, [(coderivation_C(pair, c, k, w), table.constant(ck)) for k, ck in bracket.items()]
                )
                if lhs != rhs:
                    return False, (alg.names[a], alg.names[b], mono, str(lhs - rhs))
    return True, None


# ---------------------------------------------------------------------------
# characters and the twisted representations
# ---------------------------------------------------------------------------

class Character:
    """One-dimensional representation of h, rational-valued.

    Validity: vanishes on odd basis vectors of h and on every bracket
    [a, b] that lands back in h (checked at construction).
    """

    def __init__(self, pair: SymmetricPair, values: dict):
        self.pair = pair
        alg = pair.algebra
        outside = [i for i in values if i not in pair.h_indices]
        if outside:
            raise ValueError(f"a character takes values on h only, not at index {outside[0]!r}")
        vals = {}
        for i in pair.h_indices:
            v = Fraction(values.get(i, 0))
            if v != 0 and alg.parities[i] == ODD:
                raise ValueError("a character must vanish on odd vectors")
            vals[i] = v
        self.values = vals
        for a in pair.h_indices:
            for b in pair.h_indices:
                img = alg.bracket({a: Fraction(1)}, {b: Fraction(1)})
                s = sum(vals.get(k, Fraction(0)) * c for k, c in img.items())
                if s != 0:
                    raise ValueError(
                        f"not a character: nonzero value {s} on [{alg.names[a]},{alg.names[b]}]"
                    )

    def of_element(self, element: dict) -> Fraction:
        return sum(
            (self.values.get(i, Fraction(0)) * c for i, c in element.items()),
            Fraction(0),
        )


def theta_action(pair: SymmetricPair, c, chi: Character, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """Theta^a_{c,chi} on S(q) tensor the one-dimensional chi-module (the
    module coordinate is absorbed into the coefficients): C_c^a w plus the
    legs f_n chi(S(leg2)(a)) leg1, n = |leg2|, with the nests S(leg2)(a) read
    off the levels of ``_nest_levels`` by monomial, f = q_c for a in q; for a
    in h, f = 1 keeps only the leg (w, 1), which gives chi(a) w."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("Theta_c requires c != 0")
    table = sq_table(pair)
    one, pa = table.one(), pair.algebra.parities[a_index]
    pairs = [(coderivation_C(pair, c, a_index, w), one)]
    series = TruncatedSeries1.constant(1, 0) if pair.in_h(a_index) else q_c(c, w.total_degree() + 1)
    levels = _nest_levels(pair, a_index, w.total_degree())
    for (leg1, leg2), coeff in coproduct_terms(table.parities, w.terms).items():
        fn, (_, (den, nest)) = series.coeff(sum(leg2)), levels[sum(leg2)].get(leg2, (0, (1, {})))
        scalar = fn * chi.of_element({i: Fraction(v, den) for i, v in nest.items()})
        if scalar:
            pairs.append((SuperPolynomial(table, {leg1: coeff * scalar * (-1) ** (pa & table.monomial_parity(leg1))}), one))
    return sum_of_products(table, pairs)


# ---------------------------------------------------------------------------
# twisted-adjoint invariants
# ---------------------------------------------------------------------------

def beta_of_sq(pair: SymmetricPair, w: SuperPolynomial) -> PbwElement:
    """Symmetrization of an S(q) element into U(g)."""
    _check_tables(sq_table(pair), (w,))
    pad = (0,) * len(pair.h_indices)  # q is the first block of the basis of g
    den, terms = w.form
    return _symmetrize(pair.algebra, (den, {mono + pad: v for mono, v in terms.items()}))


def lie_generators(pair: SymmetricPair) -> list:
    """A Lie-generating set of g, as basis indices: q, then the h vectors at
    the non-pivot columns of the RREF of the [q_i, q_j] (all in h), found
    once per pair and kept in ``pair.generators_memo``.

    Those h vectors span a complement of [q, q] in h, and q + [q, q] is an
    ideal of g, so the subalgebra they generate with q is all of g.  The
    twisted adjoint action ad' is a representation of g for every pair the
    program builds (``LieSuperAlgebra`` checks the Jacobi identity and
    ``SymmetricPair._check_eigenspaces`` makes sigma an automorphism), so an
    element is ad'-invariant as soon as every generator kills it.
    """
    if pair.generators_memo is None:
        q = pair.q_indices
        _, pivots = linalg.rref([pair.algebra.bracket_basis(i, j) for k, i in enumerate(q) for j in q[k:]])
        pair.generators_memo = tuple(q + [a for a in pair.h_indices if a not in pivots])
    return list(pair.generators_memo)


def moving_generator(pair: SymmetricPair, w: SuperPolynomial):
    """The first a of ``lie_generators`` with C_2^a w != 0, or None: beta(w)
    is ad'-invariant exactly when None comes back, as
    ad'(a) beta(w) = beta(C_2^a w) and beta is injective."""
    _check_tables(sq_table(pair), (w,))
    series = _p_c(pair, 2, w.total_degree() + 1)
    return next((a for a in lie_generators(pair) if _coderivation(pair, series, a, w.form)[1]), None)


def verify_twisted_invariance(pair: SymmetricPair, element: PbwElement):
    """Check that an element of U(g) lies in beta(S(q)) and is killed by
    ad'(a) for every a of a Lie-generating set.  Returns (True, None) or
    (False, witness), the witness naming a generator, built in U(g) only on
    failure.  Both tests run on w = tau(element): the element is in
    beta(S(q)) when beta(w) is it, and ``moving_generator`` decides on w.
    ``gorelik`` decides on J_2 d, in S(q) by construction, with no round
    trip; ``selftest`` and the tests keep this one as its second route."""
    alg = pair.algebra
    w = tau(pair, element)
    if beta_of_sq(pair, w) != element:
        coords = factorization(pair, max(element.degree() + 1, 1)).coordinates(element)
        hm, c = next((hm, c) for (_, hm), c in coords.items() if any(hm))
        return False, ("not in beta(S(q))", hm, c)
    a = moving_generator(pair, w)
    return (True, None) if a is None else (False, (alg.names[a], str(twisted_adjoint(pair, a, element))))


def invariant_space(pair: SymmetricPair):
    """Exact basis of the twisted-adjoint invariants inside beta(S(q)), for
    purely odd q: the S(q) elements w with C_2^a w = 0 for every a of a
    Lie-generating set (``lie_generators``; invariance under it is
    invariance under g, ad' being a representation).  As
    ad'(a) beta(w) = beta(C_2^a w) and beta is injective, these are the w
    whose beta(w) is invariant.  The rows are the S(q) coordinates of
    C_2^a m for every monomial m, in one sparse system.

    Returns a list of S(q) elements w; the invariants are beta(w).
    """
    if not pair.q_purely_odd():
        raise ValueError("the invariant-space solver requires purely odd q")
    table = sq_table(pair)
    qdim = len(pair.q_indices)
    monos = sorted(exhaustive_monomials(table, qdim), key=lambda m: (sum(m), m))
    series = _p_c(pair, 2, qdim + 1)
    rows = {}  # (generator, S(q) monomial) -> {column: coefficient}
    for a in lie_generators(pair):
        for col, m in enumerate(monos):
            den, image = _coderivation(pair, series, a, (1, {m: 1}))
            for key, c in image.items():
                rows.setdefault((a, key), {})[col] = Fraction(c, den)
    return [
        SuperPolynomial(table, {monos[i]: c for i, c in vec.items()})
        for vec in linalg.nullspace(list(rows.values()), len(monos))
    ]
