"""Universal representations of a symmetric pair by coderivations of S(q).

S(q) is realized as a supercommutative polynomial algebra whose variables
are the q basis vectors themselves.  The action of a in q is the
coderivation pairing the coproduct legs of a monomial with the evaluations

    p(ad y)(a) : b_1...b_n  |->  p_n  sum_s  (Koszul sign) ad b_{s(1)} ... ad b_{s(n)} (a)

of the generic-point series, and the action of a in h is the superalgebra
derivation extending b |-> -[b, a].  With p = p_c = t*coth(t/c) these
assemble into the representation C_c; twisting by a character chi of h
through the odd series q_c = -tanh(t/(2c)) gives the representations
Theta_{c,chi} that match left multiplication on the induced module.

tau (the inverse of the symmetrization onto U(g)/U(g)h), the twisted
adjoint invariance checker, and the brute-force invariant-space solver
live here too.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .enveloping import (
    PbwElement,
    _first_letters,
    _monomial_to_word,
    factorization,
    symmetrize,
    symmetrize_word,
    twisted_adjoint,
)
from .liealg import SymmetricPair
from .series import TruncatedSeries1, p_c, q_c
from .superpoly import ODD, SuperPolynomial, VariableTable, exhaustive_monomials

def sq_table(pair: SymmetricPair) -> VariableTable:
    """The pair's variable table realizing S(q); ``coderivation_C`` refuses
    to pass its truncation degree."""
    return pair.sq_table


def sq_one(pair) -> SuperPolynomial:
    return sq_table(pair).one()


def sq_letter(pair, q_position: int) -> SuperPolynomial:
    return sq_table(pair).variable(q_position)


def sq_from_element(pair, element: dict) -> SuperPolynomial:
    """Embed a q-supported algebra element as a degree-1 polynomial."""
    table = sq_table(pair)
    out = table.zero()
    for i, c in element.items():
        if c == 0:
            continue
        if pair.in_h(i):
            raise ValueError("element has components outside q")
        out = out + table.variable(i) * c
    return out


def sq_monomial_letters(pair, mono):
    """Monomial of the S(q) table -> tuple of algebra basis indices."""
    letters = []
    for pos, e in enumerate(mono):
        letters.extend([pair.q_indices[pos]] * e)
    return tuple(letters)


def sq_coproduct(pair, w: SuperPolynomial) -> dict:
    """Coproduct of S(q), as {(monomial, monomial): Fraction}."""
    table = sq_table(pair)
    unit = (0,) * len(table)
    out = {}
    for mono, coeff in w.terms.items():
        state = {(unit, unit): Fraction(1)}
        for pos in _monomial_to_word(mono):
            lp = table.parities[pos]
            new = {}
            for (m1, m2), c in state.items():
                # append the letter to the first leg: crosses the second leg
                s = -1 if lp == ODD and table.monomial_parity(m2) == ODD else 1
                prod, psign = _mono_mul(table, m1, pos)
                if prod is not None:
                    key = (prod, m2)
                    acc = new.get(key, Fraction(0)) + c * s * psign
                    if acc == 0:
                        new.pop(key, None)
                    else:
                        new[key] = acc
                # append to the second leg: no crossing
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


# ---------------------------------------------------------------------------
# the generic-point evaluations
# ---------------------------------------------------------------------------

def apply_radx(pair: SymmetricPair, series: TruncatedSeries1, a_element: dict, letters) -> dict:
    """Evaluate the universal vector field p(ad y)(a) on the monomial with
    the given q letters: p_n times the Koszul-signed sum over all orderings
    of the iterated brackets.  Returns an algebra element {index: Fraction}
    in index order.

    Grouping the orderings by their outermost letter gives
    S(w)(a) = sum_k eps_k [w_k, S(w without position k)(a)], with equal
    (letter, sub-word) terms merged (``enveloping._first_letters``); each
    sub-word is evaluated once, so the cost is the number of distinct
    sub-words rather than n!.
    """
    alg = pair.algebra
    letters = tuple(letters)
    pn = series.coeff(len(letters))
    if pn == 0:
        return {}
    memo = {(): {i: c for i, c in a_element.items() if c}}

    def nested(word):
        value = memo.get(word)
        if value is None:
            value = {}
            for (letter, rest), count in _first_letters(alg.parities, word).items():
                for i, c in alg.bracket({letter: Fraction(count)}, nested(rest)).items():
                    value[i] = value.get(i, 0) + c
            memo[word] = value = {i: c for i, c in value.items() if c}
        return value

    out = nested(letters)
    return {i: out[i] * pn for i in sorted(out)}


def _h_derivation(pair: SymmetricPair, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """For a in h the representation is the superalgebra derivation of S(q)
    extending b |-> -[b, a]; one Koszul sign of p(a) per letter crossed."""
    alg = pair.algebra
    table = sq_table(pair)
    pa = alg.parities[a_index]
    out = table.zero()
    for mono, coeff in w.terms.items():
        letters = _monomial_to_word(mono)
        for k, pos in enumerate(letters):
            b_index = pair.q_indices[pos]
            image = alg.bracket({b_index: Fraction(1)}, {a_index: Fraction(1)})
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
                repl = repl + sq_letter(pair, pair.q_indices.index(i)) * (-c)
            out = out + prefix * repl * suffix * (coeff * sign)
    return out


def coderivation_C(pair: SymmetricPair, c, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """The universal representation C_c^a acting on w in S(q)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("C_c requires c != 0")
    table = sq_table(pair)
    order = table.truncation_order
    # C_c^a raises the even degree by at most one, and not at all for even a in h
    if order is not None and (not pair.in_h(a_index) or pair.algebra.parities[a_index] == ODD):
        if any(table.even_degree(m) >= order for m in w.terms):
            raise ValueError(f"S(q) is truncated at even degree {order}: C_c^a of w would drop terms")
    if pair.in_h(a_index):
        return _h_derivation(pair, a_index, w)
    degree = w.total_degree()
    series = p_c(c, degree + 1)
    out = table.zero()
    a_element = {a_index: Fraction(1)}
    for (leg1, leg2), coeff in sq_coproduct(pair, w).items():
        value = apply_radx(pair, series, a_element, sq_monomial_letters(pair, leg1))
        if not value:
            continue
        piece = sq_from_element(pair, value) * SuperPolynomial(table, {leg2: Fraction(1)})
        out = out + piece * coeff
    return out


def coderivation_C_u(pair: SymmetricPair, c, u: PbwElement, w: SuperPolynomial) -> SuperPolynomial:
    """Multiplicative extension u -> C_c^u to the enveloping algebra."""
    table = sq_table(pair)
    out = table.zero()
    for mono, coeff in u.terms.items():
        acc = w
        for letter in reversed(_monomial_to_word(mono)):
            acc = coderivation_C(pair, c, letter, acc)
            if acc.is_zero():
                break
        out = out + acc * coeff
    return out


def tau(pair: SymmetricPair, u: PbwElement) -> SuperPolynomial:
    """tau(u) = C_1^u(1): the inverse of the symmetrization onto
    U(g)/U(g)h, as an element of S(q)."""
    return coderivation_C_u(pair, Fraction(1), u, sq_one(pair))


def scale_degrees(pair: SymmetricPair, w: SuperPolynomial, c) -> SuperPolynomial:
    """The Hopf automorphism I_c of S(q): multiplication by c^n in degree n."""
    c = Fraction(c)
    table = sq_table(pair)
    return SuperPolynomial(table, {m: co * c ** sum(m) for m, co in w.terms.items()})


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
                rhs = table.zero()
                for k, ck in bracket.items():
                    rhs = rhs + coderivation_C(pair, c, k, w) * ck
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

    @classmethod
    def trivial(cls, pair):
        return cls(pair, {})

    @classmethod
    def supertrace_on_quotient(cls, pair):
        """a |-> str over q of ad a, the character twisting the dualizing
        module; always a valid character."""
        alg = pair.algebra
        values = {}
        for a in pair.h_indices:
            s = Fraction(0)
            for i in pair.q_indices:
                coeff = alg.bracket_basis(a, i).get(i, Fraction(0))
                s += (-1 if alg.parities[i] == ODD else 1) * coeff
            values[a] = s
        return cls(pair, values)

    def of_element(self, element: dict) -> Fraction:
        return sum(
            (self.values.get(i, Fraction(0)) * c for i, c in element.items()),
            Fraction(0),
        )

    def of_h_monomial(self, mono) -> Fraction:
        out = Fraction(1)
        for i, e in enumerate(mono):
            if e:
                out *= self.values.get(i, Fraction(0)) ** e
        return out


def theta_action(pair: SymmetricPair, c, chi: Character, a_index: int, w: SuperPolynomial) -> SuperPolynomial:
    """Theta^a_{c,chi} on S(q) tensor the one-dimensional chi-module (the
    module coordinate is absorbed into the coefficients)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("Theta_c requires c != 0")
    alg = pair.algebra
    table = sq_table(pair)
    out = coderivation_C(pair, c, a_index, w)
    if pair.in_h(a_index):
        return out + w * chi.values.get(a_index, Fraction(0))
    degree = w.total_degree()
    series = q_c(c, degree + 1)
    pa = alg.parities[a_index]
    a_element = {a_index: Fraction(1)}
    for (leg1, leg2), coeff in sq_coproduct(pair, w).items():
        value = apply_radx(pair, series, a_element, sq_monomial_letters(pair, leg2))
        if not value:
            continue
        scalar = chi.of_element(value)
        if scalar == 0:
            continue
        sign = -1 if (pa * table.monomial_parity(leg1)) % 2 else 1
        out = out + SuperPolynomial(table, {leg1: coeff}) * (scalar * sign)
    return out


def induced_action(pair: SymmetricPair, chi: Character, a_index: int, w: SuperPolynomial, max_degree=None) -> SuperPolynomial:
    """Left multiplication by j(a) on the induced module U(g) (x)_h V_chi,
    computed concretely: multiply in U(g), refactor as beta(S(q)) U(h), and
    push the h factors through chi."""
    alg = pair.algebra
    table = sq_table(pair)
    out = table.zero()
    for mono, coeff in w.terms.items():
        letters = sq_monomial_letters(pair, mono)
        u = PbwElement.from_basis(alg, a_index) * symmetrize_word(alg, letters)
        bound = max_degree if max_degree is not None else max(u.degree(), 1)
        f = factorization(pair, bound)
        for (qm, hm), cc in f.coordinates(u).items():
            scalar = chi.of_h_monomial(hm)
            if scalar == 0:
                continue
            qm_local = tuple(qm[i] for i in pair.q_indices)
            out = out + SuperPolynomial(table, {qm_local: cc * scalar * coeff})
    return out


def check_theta_vs_induced(pair: SymmetricPair, chi: Character, max_degree: int):
    """Left multiplication on the induced module against Theta_{1,chi}, on
    all basis vectors and monomials of degree <= max_degree."""
    alg = pair.algebra
    table = sq_table(pair)
    for a in range(alg.dim):
        for mono in exhaustive_monomials(table, max_degree):
            w = SuperPolynomial(table, {mono: Fraction(1)})
            lhs = induced_action(pair, chi, a, w)
            rhs = theta_action(pair, Fraction(1), chi, a, w)
            if lhs != rhs:
                return False, (alg.names[a], mono, str(lhs - rhs))
    return True, None


# ---------------------------------------------------------------------------
# twisted-adjoint invariants
# ---------------------------------------------------------------------------

def beta_of_sq(pair: SymmetricPair, w: SuperPolynomial) -> PbwElement:
    """Symmetrization of an S(q) element into U(g)."""
    alg = pair.algebra
    terms = {}
    for mono, coeff in w.terms.items():
        full = [0] * alg.dim
        for pos, e in enumerate(mono):
            full[pair.q_indices[pos]] = e
        terms[tuple(full)] = coeff
    return symmetrize(alg, terms)


def verify_twisted_invariance(pair: SymmetricPair, element: PbwElement):
    """Check that an element of beta(S(q)) is killed by every twisted
    adjoint operator ad'(a).  Returns (True, None) or (False, witness)."""
    alg = pair.algebra
    # membership in beta(S(q)): the h coordinates of the factorization vanish
    bound = max(element.degree() + 1, 1)
    f = factorization(pair, bound)
    unit = (0,) * alg.dim
    for (qm, hm), c in f.coordinates(element).items():
        if hm != unit and c != 0:
            return False, ("not in beta(S(q))", hm, c)
    for a in range(alg.dim):
        image = twisted_adjoint(pair, a, element)
        if not image.is_zero():
            return False, (alg.names[a], str(image))
    return True, None


def invariant_space(pair: SymmetricPair):
    """Exact basis of the twisted-adjoint invariants inside beta(S(q)), for
    purely odd q: assemble all operators ad'(a) in the S(q)-monomial
    coordinates (transported through tau) and solve the stacked kernel.

    Returns a list of S(q) elements w; the invariants are beta(w).
    """
    if not pair.q_purely_odd():
        raise ValueError("the invariant-space solver requires purely odd q")
    alg = pair.algebra
    table = sq_table(pair)
    qdim = len(pair.q_indices)
    monos = sorted(exhaustive_monomials(table, qdim), key=lambda m: (sum(m), m))
    index = {m: k for k, m in enumerate(monos)}
    bound = qdim + 1
    f = factorization(pair, bound)
    unit = (0,) * alg.dim
    rows = []
    for a in range(alg.dim):
        for m in monos:
            w = SuperPolynomial(table, {m: Fraction(1)})
            image = twisted_adjoint(pair, a, beta_of_sq(pair, w))
            row_block = {}
            for (qm, hm), c in f.coordinates(image).items():
                if hm != unit:
                    # h components constrain the kernel too; do not assume
                    # the stability of beta(S(q)), solve with them included
                    row_block[("h", qm, hm)] = c
                else:
                    qm_local = tuple(qm[i] for i in pair.q_indices)
                    row_block[index[qm_local]] = c
            rows.append((a, m, row_block))
    # columns: the 2^q monomial coordinates; rows: every output coordinate
    matrix = []
    extra_keys = sorted(
        {k for _, _, blk in rows for k in blk if isinstance(k, tuple)},
        key=str,
    )
    extra_index = {k: len(monos) + i for i, k in enumerate(extra_keys)}
    out_rows = {}
    for a, m, blk in rows:
        col = index[m]
        for k, c in blk.items():
            r = extra_index[k] if isinstance(k, tuple) else k
            out_rows.setdefault((a, r), [Fraction(0)] * len(monos))[col] = c
    matrix = [v for _, v in sorted(out_rows.items())]
    if not matrix:
        matrix = [[Fraction(0)] * len(monos)]
    kernel = linalg.nullspace(matrix)
    basis = []
    for vec in kernel:
        terms = {monos[i]: c for i, c in enumerate(vec) if c != 0}
        basis.append(SuperPolynomial(table, terms))
    return basis
