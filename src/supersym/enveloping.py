"""The enveloping algebra U(g) in normal-ordered PBW form.

A PBW monomial is an exponent tuple over the ordered basis of g (odd
exponents at most 1); an element is a finite coefficient map from such
monomials.  Coefficients are rational (ints or Fractions; the constructor
refuses anything else), so they commute with every letter.  A linear
combination is a form (den, {key: int}), the integer form that ``superpoly``
defines: an element stores its form in lowest terms (``PbwElement.form``),
the memoised products (``_letter_product``, ``_monomial_product``) and
symmetrizations (``_symmetrized``) are stored so, and every sum of forms
goes through ``superpoly._combine``, with int scalars over one more
denominator.  Fractions are built only when ``PbwElement.terms`` is read
and for coordinates.

Normal ordering rewrites a word by repeatedly fixing the leftmost
violation: an adjacent repeated odd letter collapses through
e^2 = (1/2)[e, e], and an adjacent inversion e_i e_j with i > j becomes
(-1)^{p_i p_j} e_j e_i + [e_i, e_j].  Termination: the square rule shortens
the word, the swap rule keeps the length and lowers the inversion count,
and bracket terms shorten the word.  Any rewriting schedule reaches the
same normal form (confluence is exercised by the tests); the default
schedule is deterministic.  Rewriting is exponential in a repeated
letter, so it serves as the reference route only (``normal_form``).

Monomial products insert letters: those of m1, last first, are multiplied
into e^m2, and with e^m = e_j rest, e_i e^m is e_i inserted when i < j or
e_i = e_j is even; (1/2) sum_k [e_i, e_i]_k e_k rest when e_i = e_j is
odd; (-1)^{p_i p_j} e_j (e_i rest) + sum_k [e_i, e_j]_k e_k rest when
i > j.  Each recursive product has lower degree or is an insertion, so
the cost is polynomial in the degree.

The factorization U(g) = beta(S(q)) U(h) needs no change-of-basis matrix:
the top-degree part of beta(w) u is the single PBW monomial +-(w u), so
coordinates are read off by peeling top-degree terms (``Factorization``).
The quotient mod U(g)h is read off tau instead, in ``coderiv``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .liealg import LieSuperAlgebra, SymmetricPair
from .superpoly import (
    EVEN,
    ODD,
    _combine,
    _form,
    _Formed,
    _letter_sign,
    _lowest,
    _odd_count,
    _render,
    _scale,
    coproduct_terms,
    exhaustive_monomials,
)


def _monomial_to_word(mono):
    word = []
    for i, e in enumerate(mono):
        word.extend([i] * e)
    return tuple(word)


def _word_to_monomial(parities, word, dim) -> tuple:
    """(sign, monomial) of a word of letters in range(dim): its letters
    sorted, each inserted from the last with the sign of ``_letter_sign``, so
    0 when an odd letter repeats.  A letter out of range raises IndexError."""
    mono, odd, sign = [0] * dim, 0, 1
    for i in reversed(tuple(word)):
        if not 0 <= i < dim:
            raise IndexError(f"basis index out of range for dimension {dim}: {i}")
        mono[i] += 1
        sign *= _letter_sign(parities, i, odd)
        odd |= (parities[i] == ODD) << i
    return sign, tuple(mono)


def normal_form(alg: LieSuperAlgebra, word, coeff=Fraction(1), choose=None):
    """Normal-ordered expansion of a word of basis indices.

    Returns {monomial: Fraction}.  ``choose(sites)`` may pick which
    violating position to rewrite next (used to exercise confluence);
    the default takes the leftmost.
    """
    parities = alg.parities
    result = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, c = stack.pop()
        sites = []
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a > b or (a == b and parities[a] == ODD):
                sites.append(k)
        if not sites:
            mono = _word_to_monomial(parities, w, alg.dim)[1]
            acc = result.get(mono, Fraction(0)) + c
            if acc == 0:
                result.pop(mono, None)
            else:
                result[mono] = acc
            continue
        k = sites[0] if choose is None else sites[choose(len(sites))]
        a, b = w[k], w[k + 1]
        head, tail = w[:k], w[k + 2 :]
        if a == b:
            # odd square: e e = (1/2)[e, e]
            for m, cm in alg.bracket_basis(a, a).items():
                stack.append((head + (m,) + tail, c * cm / 2))
        else:
            sign = -1 if (parities[a] * parities[b]) % 2 else 1
            stack.append((head + (b, a) + tail, c * sign))
            for m, cm in alg.bracket_basis(a, b).items():
                stack.append((head + (m,) + tail, c * cm))
    return {m: cc * coeff for m, cc in result.items()}


def _monomial_product(alg: LieSuperAlgebra, m1, m2):
    """e^m1 e^m2 in normal order as a form, memoised per algebra under
    (m1, m2); the letters of m1 go in one at a time, last first, so the
    first letter is multiplied into the memoised product of the rest."""
    key = (m1, m2)
    acc = alg._mono_product_cache.get(key)
    if acc is None:
        i = next((k for k, e in enumerate(m1) if e), None)  # first letter of e^m1
        if i is None:
            acc = (1, {m2: 1})
        else:
            rest = m1[:i] + (m1[i] - 1,) + m1[i + 1 :]
            den, prefix = _monomial_product(alg, rest, m2)
            acc = _combine([(c, _letter_product(alg, i, m)) for m, c in prefix.items()], den)
        alg._mono_product_cache[key] = acc
    return acc


def _letter_product(alg: LieSuperAlgebra, i, m):
    """e_i e^m in normal order as a form, memoised per algebra under (i, m),
    by the letter-insertion rules of the module docstring; the bracket
    constants are ``alg.int_brackets`` over ``alg.bracket_den``."""
    key = (i, m)
    out = alg._mono_product_cache.get(key)
    if out is None:
        parities = alg.parities
        for j, e in enumerate(m):  # the first letter of e^m, alg.dim for e^m = 1
            if e:
                break
        else:
            j = alg.dim
        if i < j or (i == j and parities[i] != ODD):
            out = (1, {m[:i] + (m[i] + 1,) + m[i + 1 :]: 1})
        else:
            rest = m[:j] + (m[j] - 1,) + m[j + 1 :]
            bden, brackets = alg.bracket_den, alg.int_brackets[i][j].items()
            if i == j:  # odd square: e e = (1/2)[e, e]
                out = _combine([(c, _letter_product(alg, k, rest)) for k, c in brackets], 2 * bden)
            else:
                sign = -1 if parities[i] == ODD and parities[j] == ODD else 1
                den, swapped = _letter_product(alg, i, rest)
                pairs = [(sign * bden * c, _letter_product(alg, j, n)) for n, c in swapped.items()]
                pairs += [(den * c, _letter_product(alg, k, rest)) for k, c in brackets]
                out = _combine(pairs, den * bden)
        alg._mono_product_cache[key] = out
    return out


def monomial_parity(alg: LieSuperAlgebra, mono) -> int:
    return _odd_count(alg.parities, mono) & 1


class PbwElement(_Formed):
    """Element of U(g) in the normal-ordered PBW basis.

    The stored state is the form (den, {PBW monomial: int}) in lowest terms;
    ``terms``, {monomial: Fraction}, is a read-only view built on first read.
    Building an element from such a dict converts it once.
    """

    __slots__ = ("alg",)

    def __init__(self, alg: LieSuperAlgebra, terms=None):
        self.alg = alg
        cleaned = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"PbwElement coefficients are rational, not {type(c).__name__}")
            if c:
                cleaned[m] = c
        self.form, self._terms = _form(cleaned), None

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, alg):
        return cls(alg, {(0,) * alg.dim: Fraction(1)})

    @classmethod
    def zero(cls, alg):
        return cls(alg, {})

    @classmethod
    def from_scalar(cls, alg, c):
        return cls(alg, {(0,) * alg.dim: c})

    @classmethod
    def from_basis(cls, alg, i, coeff=Fraction(1)):
        return cls.from_element(alg, {i: coeff})

    @classmethod
    def from_element(cls, alg, element: dict):
        """Canonical injection of g (an index -> coefficient dict)."""
        unit = (0,) * alg.dim
        if not all(0 <= i < alg.dim for i in element):
            raise IndexError(f"basis index out of range for dimension {alg.dim}: {sorted(element)}")
        return cls(alg, {unit[:i] + (1,) + unit[i + 1 :]: c for i, c in element.items()})

    @classmethod
    def from_word(cls, alg, word, coeff=Fraction(1)):
        """coeff times the product of the letters of ``word``, inserted one
        at a time from the last (``_letter_product``)."""
        _word_to_monomial(alg.parities, word, alg.dim)  # refuses a letter out of range
        den, terms = cls.from_scalar(alg, coeff).form
        for i in reversed(word):
            den, terms = _combine([(c, _letter_product(alg, i, m)) for m, c in terms.items()], den)
        return _pbw(alg, (den, terms))

    # -- structure -----------------------------------------------------------

    def degree(self):
        return max(map(sum, self.form[1]), default=0)

    def parity(self):
        seen = {monomial_parity(self.alg, m) for m in self.form[1]}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else EVEN

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.alg is not other.alg:
            raise ValueError("elements of enveloping algebras of different Lie superalgebras")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return _pbw(self.alg, _combine([(1, self.form), (1, other.form)]))

    __radd__ = __add__

    def __neg__(self):
        return _pbw(self.alg, _scale(self.form, -1))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _coerce(self, other):
        if isinstance(other, PbwElement):
            return other
        if isinstance(other, (int, Fraction)):
            return PbwElement.from_scalar(self.alg, Fraction(other))
        raise TypeError(f"cannot combine PbwElement with {type(other).__name__}")

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"PbwElement coefficients are rational, not {type(c).__name__}")
        return _pbw(self.alg, _scale(self.form, c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        self._check(other)
        alg = self.alg
        (d1, left), (d2, right) = self.form, other.form
        return _pbw(alg, _combine([
            (c1 * c2, _monomial_product(alg, m1, m2)) for m1, c1 in left.items() for m2, c2 in right.items()
        ], d1 * d2))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PbwElement.from_scalar(self.alg, Fraction(other))
        if not isinstance(other, PbwElement):
            return NotImplemented
        return self.alg is other.alg and self.form == other.form

    def __hash__(self):
        return self._hash(id(self.alg))

    def __str__(self):
        return _render(self.terms, self.alg.names)

    __repr__ = __str__


def _pbw(alg: LieSuperAlgebra, form: tuple) -> PbwElement:
    """The PbwElement of a form (den > 0, {PBW monomial: nonzero int}), in
    lowest terms."""
    u = object.__new__(PbwElement)
    u.alg, u.form, u._terms = alg, _lowest(form), None
    return u


# ---------------------------------------------------------------------------
# coalgebra structure
# ---------------------------------------------------------------------------

def coproduct(u: PbwElement) -> dict:
    """Hopf coproduct, as {(monomial, monomial): coefficient}.  The letters
    are primitive, and those of a PBW monomial increase, so their product
    in U(g) (x) U(g) needs no bracket: ``superpoly.coproduct_terms``."""
    return coproduct_terms(u.alg.parities, u.terms)


def antipode(u: PbwElement) -> PbwElement:
    """The Hopf antipode: anti-automorphism with S(j(a)) = -j(a).

    S(e^m) is (-1)^n times the reversed word of e^m, with the Koszul sign
    of sorting that word back to e^m (``_word_to_monomial``).
    """
    alg = u.alg
    den, terms = u.form
    pairs = []
    for mono, coeff in terms.items():
        word = _monomial_to_word(mono)[::-1]
        sign = (-1) ** len(word) * _word_to_monomial(alg.parities, word, alg.dim)[0]
        pairs.append((coeff * sign, PbwElement.from_word(alg, word).form))
    return _pbw(alg, _combine(pairs, den))


def symmetrize_word(alg: LieSuperAlgebra, word) -> PbwElement:
    """Symmetrization of a product of basis letters: the Koszul-signed
    average over all orderings, landing in U(g), with terms in (degree,
    monomial) order: the Koszul sign of sorting the word, 0 when an odd
    letter repeats, times beta of its PBW monomial (``_symmetrized``)."""
    sign, mono = _word_to_monomial(alg.parities, word, alg.dim)
    den, terms = _symmetrized(alg, mono) if sign else (1, {})
    return _pbw(alg, (den, {m: sign * c for m, c in terms.items()}))


def _symmetrized(alg: LieSuperAlgebra, mono) -> tuple:
    """beta(x^m) = (1/|m|) sum_i count_i x_i beta(x^(m - e_i)) as a form
    (``_support_sum``), memoised per algebra under the PBW monomial m: the
    cost is the number of sub-monomials of m rather than |m|!."""
    result = alg._symmetrize_cache.get(mono)
    if result is None:
        value, product = functools.partial(_symmetrized, alg), functools.partial(_letter_product, alg)
        den, acc = _support_sum(alg.parities, mono, value, product, sum(mono)) if any(mono) else (1, {mono: 1})
        result = alg._symmetrize_cache[mono] = (den, {m: acc[m] for m in sorted(acc, key=lambda m: (sum(m), m))})
    return result


def _support_sum(parities, mono, value, product, den=1) -> tuple:
    """(1/den) sum_i count_i product(i, value(m - e_i)) over the letters i of
    m, for ``value`` giving forms and ``product(i, key)`` a form per key: the
    orderings of the word of m grouped by their first letter.  count_i is m_i
    times the sign of x_i times its odd predecessors in m (``_letter_sign``),
    and 0 for an odd letter that repeats: the orderings cancel in pairs."""
    subs, odd = [], 0
    for i, e in enumerate(mono):
        if e:
            subs.append((i, e * _letter_sign(parities, i, odd | (e > 1) << i), value(mono[:i] + (e - 1,) + mono[i + 1 :])))
            odd |= (parities[i] == ODD) << i
    lcm = math.lcm(*(d for _, _, (d, _) in subs))
    return _combine([
        (count * c * (lcm // d), product(i, key)) for i, count, (d, terms) in subs for key, c in terms.items()
    ], den * lcm)


def symmetrize(alg: LieSuperAlgebra, s_terms: dict) -> PbwElement:
    """Symmetrization of a symmetric-algebra element {monomial: coeff}."""
    return _symmetrize(alg, _form(s_terms))


def _symmetrize(alg: LieSuperAlgebra, form: tuple) -> PbwElement:
    """``symmetrize`` of the form (den, {PBW monomial: int}); one term scales
    its memoised ``_symmetrized`` entry."""
    den, terms = form
    if len(terms) == 1:
        ((m, c),) = terms.items()
        d, beta = _symmetrized(alg, m)
        return _pbw(alg, (den * d, {k: c * v for k, v in beta.items()}))
    return _pbw(alg, _combine([(c, _symmetrized(alg, m)) for m, c in terms.items()], den))


# ---------------------------------------------------------------------------
# symmetric-pair operations
# ---------------------------------------------------------------------------

def twisted_adjoint(pair: SymmetricPair, a_index: int, u: PbwElement) -> PbwElement:
    """ad'(a)(u) = a u - (-1)^{p(a) p(u)} u sigma(a), termwise on the
    parity-homogeneous components of u.

    A term c e^m gives c (e_a e^m - (-1)^{p(a) p(m)} sigma_a e^m e_a).
    Both products are memoised per algebra (``_letter_product``,
    ``_monomial_product``); the terms accumulate in one ``_combine``.
    """
    return _pbw(pair.algebra, _twisted_adjoint(pair, a_index, u.form))


def _twisted_adjoint(pair: SymmetricPair, a_index: int, u: tuple) -> tuple:
    """``twisted_adjoint`` on the form of an element, as a form."""
    alg = pair.algebra
    ea = tuple(1 if j == a_index else 0 for j in range(alg.dim))
    odd_a = alg.parities[a_index] == ODD
    right_sign = -pair.sigma_sign(a_index)
    den, terms = u
    pairs = []
    for mono, coeff in terms.items():
        s = -right_sign if odd_a and monomial_parity(alg, mono) else right_sign
        pairs.append((coeff, _letter_product(alg, a_index, mono)))
        pairs.append((coeff * s, _monomial_product(alg, mono, ea)))
    return _combine(pairs, den)


def twisted_adjoint_u(pair: SymmetricPair, u: PbwElement, v: PbwElement) -> PbwElement:
    """The extension of ad' to a representation of U(g): for a monomial
    j(a_1)...j(a_n), the composition ad'(a_1) o ... o ad'(a_n)."""
    den, terms = u.form
    pairs = []
    for mono, coeff in terms.items():
        acc = v.form
        for letter in reversed(_monomial_to_word(mono)):
            acc = _twisted_adjoint(pair, letter, acc)
        pairs.append((coeff, acc))
    return _pbw(pair.algebra, _combine(pairs, den))


def gamma(pair: SymmetricPair, u: PbwElement) -> PbwElement:
    """ad'(u)(1)."""
    return twisted_adjoint_u(pair, u, PbwElement.one(pair.algebra))


# ---------------------------------------------------------------------------
# the factorization U(g) = beta(S(q)) U(h)
# ---------------------------------------------------------------------------

class Factorization:
    """Coordinates of U(g) in the basis of products beta(w) u, with w an
    S(q) monomial and u a normal-ordered monomial in U(h), for elements of
    degree <= max_degree.

    By the PBW theorem the top-degree part of beta(w) u is the single PBW
    monomial +-(w u), so the change of basis is unitriangular in degree and
    needs no matrix: ``coordinates`` peels off the top-degree terms c m,
    splitting each m by support into (w, u) and subtracting (c/s) beta(w) u,
    where s = +-1 is the coefficient of m in that product, one degree at a
    time in one ``_combine``.  The products are memoised per monomial, as
    forms.  ``coderiv.verify_twisted_invariance`` reads its witness of an
    element outside beta(S(q)) off these coordinates, on its failure path
    only; ``demos/demo_gorelik.py`` and the benchmark read them too.  The
    quotient mod U(g)h is read off tau.
    """

    def __init__(self, pair: SymmetricPair, max_degree: int):
        self.pair = pair
        self.max_degree = max_degree
        h = set(pair.h_indices)
        self._in_h = tuple(i in h for i in range(pair.algebra.dim))
        self._steps = {}

    @functools.cached_property
    def pbw_basis(self):
        """The PBW monomials of degree <= max_degree, by (degree, monomial)."""
        return sorted(exhaustive_monomials(self.pair.algebra, self.max_degree), key=lambda m: (sum(m), m))

    def _step(self, mono):
        """((q part, h part) of mono, s, the form of the terms of
        beta(q part) (h part) other than s mono)."""
        step = self._steps.get(mono)
        if step is None:
            alg = self.pair.algebra
            qm = tuple(0 if h else e for e, h in zip(mono, self._in_h))
            hm = tuple(e if h else 0 for e, h in zip(mono, self._in_h))
            den, beta = _symmetrized(alg, qm)
            den, rest = _combine([(c, _monomial_product(alg, m, hm)) for m, c in beta.items()], den)
            step = ((qm, hm), 1 if rest.pop(mono) > 0 else -1, (den, rest))
            self._steps[mono] = step
        return step

    def coordinates(self, u: PbwElement) -> dict:
        """{(q monomial, h monomial): Fraction} with u = sum beta(w) hm, in
        (total degree, (q monomial, h monomial)) order."""
        den, rest = u.form
        top = max((sum(m) for m in rest), default=0)
        if top > self.max_degree:
            raise ValueError(f"element of degree {top} exceeds the prepared bound {self.max_degree}")
        coords = {}
        # a degree-d product has no degree-d term besides its lead, so every
        # degree-d coordinate is known before any of its products is subtracted
        for degree in range(top, -1, -1):
            pairs = [(1, (1, {m: c for m, c in rest.items() if sum(m) < degree}))]
            for mono in [m for m in rest if sum(m) == degree]:
                key, sign, lower = self._step(mono)
                c = rest[mono] * sign
                coords[key] = Fraction(c, den)
                pairs.append((-c, lower))
            den, rest = _combine(pairs, den)
        return {k: coords[k] for k in sorted(coords, key=lambda p: (sum(p[0]) + sum(p[1]), p))}


def factorization(pair: SymmetricPair, max_degree: int) -> Factorization:
    return Factorization(pair, max_degree)

