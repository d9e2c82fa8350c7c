"""Generic-point machinery: supertraces of ad powers, the Jacobian of the
exponential map, divergence identities, and the Gorelik candidate.

The generic point of q is y = sum e_i x^i with one dual variable x^i per
q basis vector, of the same parity.  str(M^k) of an even operator M is
read off the half powers M^ceil(k/2) and M^floor(k/2)
(``liealg.supertraces_of_powers``); as ad y swaps q and h,
str_q (ad y)^2m = str Q^m with Q = (ad y)^2 on q.  Truncating at an even
degree is a quotient by an ideal, so the grouping changes no coefficient.
Every power is formed on a ``superpoly.PowerChain``.  Full powers of ad y
are formed only for the matrix f(ad y) of the Berezinian route, whose
determinants read the same half-power traces; fields f(ad y)(a) read the
nests of C_c.

The Jacobian J_c is exp(str over q of w_c(ad y)) with
w_c = log(sinh(t/c)/(t/c)); for purely odd q it is a polynomial, no
truncation needed.  beta(J_2 d), with d the top monomial of the exterior
algebra S(q), is the Gorelik candidate, and J_2 d its S(q) preimage.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from . import series as series_mod
from .coderiv import _nest_levels, beta_of_sq, sq_table
from .enveloping import PbwElement, _monomial_to_word
from .liealg import LieSuperAlgebra, SuperMatrix, SymmetricPair, ad_matrix, supertraces_of_powers
from .superpoly import (
    EVEN,
    ODD,
    PowerChain,
    SuperPolynomial,
    VariableTable,
    matrix_product,
    power_sum,
    sum_of_products,
    truncate_even_degree,
)


class _FullSpan:
    """Stand-in for the pair when h = 0: the generic point of the whole
    algebra.  Duck-types the parts of SymmetricPair the machinery uses, its
    ``nest_memo`` too; the symmetric-pair eigenspace axioms do not apply."""

    def __init__(self, alg: LieSuperAlgebra):
        self.algebra = alg
        self.q_indices = list(range(alg.dim))
        self.h_indices = []
        self.nest_memo = {}

    def in_h(self, i):
        return False


class GenericPoint:
    """A symmetric pair with dual variables for its q part."""

    def __init__(self, pair: SymmetricPair, order: int = 6):
        self.pair = pair
        alg = pair.algebra
        names = [f"x{i + 1}" for i in range(len(pair.q_indices))]
        parities = [alg.parities[i] for i in pair.q_indices]
        purely_odd = all(p == ODD for p in parities)
        self.table = VariableTable(names, parities, None if purely_odd else order)
        self.order = order
        self.purely_odd = purely_odd
        self.y = {
            q_idx: self.table.variable(pos) for pos, q_idx in enumerate(pair.q_indices)
        }
        self._ad_y = None
        self._chain = None
        self._ad_y_powers = {}
        self._lifts = {}
        self._str_powers = None

    @classmethod
    def full(cls, alg: LieSuperAlgebra, order: int = 6) -> "GenericPoint":
        """Generic point of the whole algebra (h = 0)."""
        return cls(_FullSpan(alg), order)

    @property
    def algebra(self):
        return self.pair.algebra

    def ad_y(self) -> SuperMatrix:
        if self._ad_y is None:
            self._ad_y = ad_matrix(self.algebra, self.y, self.table)
        return self._ad_y

    def ad_y_chain(self) -> PowerChain:
        """The powers of ad y as shaped ints, formed once per point."""
        if self._chain is None:
            self._chain = PowerChain(self.table, self.ad_y().entries)
        return self._chain

    def ad_y_power(self, k: int) -> SuperMatrix:
        """(ad y)^k, read out of ``ad_y_chain`` as Fractions once and kept."""
        mat = self._ad_y_powers.get(k)
        if mat is None:
            rows = self.ad_y_chain().rows(k)
            mat = self._ad_y_powers[k] = SuperMatrix(self.table, self.algebra.parities, rows, EVEN, check=False)
        return mat

    def lifted(self, order: int) -> "GenericPoint":
        """This pair's generic point at ``order``, built once and kept here."""
        if order not in self._lifts:
            self._lifts[order] = GenericPoint(self.pair, order)
        return self._lifts[order]

    def max_power(self) -> int:
        """Powers of ad y vanish beyond this bound.

        Entries of (ad y)^k are homogeneous of total degree k, but the
        truncation counts even-variable degree only, so a power survives
        as long as k minus the number of odd variables stays within the
        truncation order.
        """
        n_odd = sum(1 for p in self.table.parities if p == ODD)
        if self.purely_odd:
            return n_odd
        return self.order + n_odd


def _q_square(gp: GenericPoint) -> SuperMatrix:
    """Q = (ad y)^2 on q, so that (ad y)^2m on q is Q^m.  ad y swaps q and h,
    so Q is the product of the q x h and h x q blocks of ad y, through
    ``matrix_product``."""
    ad = gp.ad_y().entries
    q, h = gp.pair.q_indices, gp.pair.h_indices
    rows = matrix_product(gp.table, [[ad[i][k] for k in h] for i in q], [[ad[k][j] for j in q] for k in h], len(q))
    return SuperMatrix(gp.table, [gp.algebra.parities[i] for i in q], rows, EVEN, check=False)


def _even_str_powers(gp: GenericPoint) -> list:
    """[(2m, str Q^m)] for 2 <= 2m <= max_power(), formed once per point."""
    if gp._str_powers is None:
        halves = supertraces_of_powers(_q_square(gp), range(1, gp.max_power() // 2 + 1))
        gp._str_powers = [(2 * m, s) for m, s in halves.items()]
    return gp._str_powers


class JacobianResult:
    """Jacobian value plus the supertrace data it was assembled from."""

    __slots__ = ("J", "c", "order", "str_powers")

    def __init__(self, J, c, order, str_powers):
        self.J = J
        self.c = c
        self.order = order
        self.str_powers = str_powers

    def __repr__(self):
        return f"JacobianResult(J={self.J}, c={self.c}, order={self.order})"


def jacobian_Jc(gp: GenericPoint, c) -> JacobianResult:
    """J_c = exp(str over q of w_c(ad y)), assembled degree by degree from
    the supertraces (2m, str Q^m) of Q = (ad y)^2 on q, summed to the full
    nilpotency bound of ad y (odd letters let high powers contribute low
    even degrees) and truncated at the point's order."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("J_c requires c != 0")
    str_powers = _even_str_powers(gp)
    J = _w_sum(gp, series_mod.w_c(c, max(gp.max_power(), 2)), str_powers).exp()
    return JacobianResult(J, c, gp.order, str_powers)


def _w_sum(gp: GenericPoint, w: series_mod.TruncatedSeries1, str_powers) -> SuperPolynomial:
    """sum_k w[k] str (ad y)^k over the (k, supertrace) pairs."""
    table = gp.table
    return sum_of_products(table, [(s, table.constant(w.coeff(k))) for k, s in str_powers])


def _f_of_ad_y(gp: GenericPoint, f: series_mod.TruncatedSeries1) -> SuperMatrix:
    """f(ad y) from the point's chain of powers of ad y, up to the nilpotency
    bound."""
    rows = power_sum(f.coefficients[: gp.max_power() + 1], gp.ad_y_chain())
    return SuperMatrix(gp.table, gp.algebra.parities, rows, EVEN, check=False)


def jacobian_full_group(alg: LieSuperAlgebra, order: int = 6) -> SuperPolynomial:
    """Jacobian of the exponential map of the full formal supergroup, in the
    left invariant frame: Ber((1 - exp(-ad x))/ad x) for the generic point
    x of g, computed as exp(str(w(ad x))) with w = log((1 - e^{-t})/t)."""
    gp = GenericPoint.full(alg, order)
    bound = gp.max_power()
    w = series_mod.log_of_one_plus(series_mod.one_minus_exp_neg_t_over_t(bound) - 1)
    ks = [k for k in range(1, bound + 1) if w.coeff(k) != 0]
    return _w_sum(gp, w, supertraces_of_powers(gp.ad_y(), ks).items()).exp()


def jacobian_via_berezinian(gp: GenericPoint, r: series_mod.TruncatedSeries1) -> SuperPolynomial:
    """Cross-check route: Ber over q of r(ad y) by the block formula."""
    return _f_of_ad_y(gp, r).restrict(gp.pair.q_indices).berezinian()


def sh_over_t_scaled(c, order) -> series_mod.TruncatedSeries1:
    """sinh(t/c)/(t/c) as a series in t."""
    base = series_mod.sinh_over_t(order)
    return base.scale_variable(Fraction(1) / Fraction(c))


# ---------------------------------------------------------------------------
# vector fields, divergence, and the key identity
# ---------------------------------------------------------------------------

def vector_field_parity(gp: GenericPoint, field: dict):
    alg = gp.algebra
    seen = set()
    for i, comp in field.items():
        if comp.is_zero():
            continue
        p = comp.parity()
        if p is None:
            raise ValueError("vector field component is not parity-homogeneous")
        seen.add((alg.parities[i] + p) % 2)
    if not seen:
        return EVEN
    if len(seen) == 1:
        return seen.pop()
    raise ValueError("vector field is not parity-homogeneous")


def apply_vector_field(gp: GenericPoint, field: dict, f: SuperPolynomial) -> SuperPolynomial:
    """The derivation attached to the field v = sum e_i z^i applied to f:
    sum_i (-1)^{p(v) p_i} z^i (d f / d x^i)."""
    pv = vector_field_parity(gp, field)
    pos_of = {q_idx: pos for pos, q_idx in enumerate(gp.pair.q_indices)}
    return sum_of_products(gp.table, [
        (-comp if (pv * gp.algebra.parities[i]) % 2 else comp, f.partial_derivative(pos_of[i]))
        for i, comp in field.items()
        if not comp.is_zero()
    ])


def divergence(gp: GenericPoint, field: dict) -> SuperPolynomial:
    """Divergence of the field in the translation-invariant frame:
    sum_i (-1)^{p_i} d z^i / d x^i.

    The odd-variable sign depends on the variable only, not on the parity
    of the field; with the left-derivative convention this is the pattern
    under which the divergence identity and the Jacobian key identity hold
    (both are checked exactly by the test suite, which is what pins the
    convention).
    """
    table = gp.table
    pos_of = {q_idx: pos for pos, q_idx in enumerate(gp.pair.q_indices)}
    return sum_of_products(table, [
        (comp.partial_derivative(pos_of[i]), table.constant(-1 if gp.algebra.parities[i] == ODD else 1))
        for i, comp in field.items()
        if not comp.is_zero()
    ])


def series_of_ad_y(gp: GenericPoint, f: series_mod.TruncatedSeries1, element: dict) -> dict:
    """The vector field f(ad y)(a) = sum_n f_n (ad y)^n a for a constant
    element a, read off the nest levels of ``coderiv._nest_levels``: with k
    the number of odd letters of K, the coefficient of x^K in (ad y)^|K| e_j
    is (-1)^{k(k-1)/2 + p(e_j) k} S(K)(e_j) / prod_i K_i!.  Terms past the
    point's order are dropped; components come as the columns of the powers
    list them, by n, then j, then index."""
    order, out = gp.table.truncation_order, {}
    for n, fn in enumerate(f.coefficients[: gp.max_power() + 1]):
        for j, c in element.items() if fn else ():
            step = {}
            for mono, (odd, (den, nest)) in _nest_levels(gp.pair, j, n)[n].items() if c else ():
                k = odd.bit_count()
                if order is None or n - k <= order:
                    sign = (-1) ** (k * (k - 1) // 2 + gp.algebra.parities[j] * k)
                    scale = sign * fn * c / (den * math.prod(map(math.factorial, mono)))
                    for i, v in nest.items():
                        step.setdefault(i, []).append((mono, v * scale))
            for i in sorted(step):
                acc = out.setdefault(i, {})
                for mono, v in step[i]:
                    acc[mono] = acc.get(mono, 0) + v
    out = {i: SuperPolynomial(gp.table, terms) for i, terms in out.items()}
    return {i: v for i, v in out.items() if not v.is_zero()}


def twisted_vector_field(gp: GenericPoint, c, a_index: int) -> dict:
    """alpha_c^a = f(ad y)(a): f = p_c for a in q, and f = -t for a in h,
    as alpha_c^a = [a, y] = -[y, a] there."""
    order = gp.max_power() + 1
    f = -series_mod.TruncatedSeries1.t(order) if gp.pair.in_h(a_index) else series_mod.p_c(c, order)
    return series_of_ad_y(gp, f, {a_index: Fraction(1)})


def str_q_of_ad_field(gp: GenericPoint, field: dict) -> SuperPolynomial:
    """Supertrace over the q block of ad(field) for an h-valued field."""
    return ad_matrix(gp.algebra, field, gp.table).restrict(gp.pair.q_indices).supertrace()


def str_w_of_ad_y(gp: GenericPoint, c) -> SuperPolynomial:
    """str over q of w_c(ad y), the logarithm of the Jacobian."""
    return _w_sum(gp, series_mod.w_c(c, max(gp.max_power(), 2)), _even_str_powers(gp))


def divergence_check(alg: LieSuperAlgebra, p: series_mod.TruncatedSeries1, a_index: int, order: int = 4) -> SuperPolynomial:
    """Residual of the divergence identity on the full algebra:

        div of the field p(ad x)(a)  =  -str( (p(ad x) - p(0))/ad x * ad a ),

    left side from the coordinate formula, right side from matrix powers.
    Zero for every Lie superalgebra; returned, not asserted.

    Computed one order above the requested truncation so the boundary
    degree (where differentiating a discarded term would land) is exact,
    then cut back down.
    """
    gp = GenericPoint.full(alg, order + 1)
    field = series_of_ad_y(gp, p, {a_index: Fraction(1)})
    lhs = divergence(gp, field)

    # Phi(t) = (p(t) - p(0))/t, so the right side is -str(Phi(ad x) ad a)
    phi = (p - p.coeff(0)).divide_by_t()
    ada = ad_matrix(alg, {a_index: gp.table.one()}, gp.table)
    rhs = -1 * (_f_of_ad_y(gp, phi) * ada).supertrace()
    return truncate_even_degree(lhs - rhs, order)


def key_identity_check(gp: GenericPoint, c, a_index: int, order=None) -> SuperPolynomial:
    """Residual of the identity that makes J_c the Jacobian:

        zeta_{alpha_c^a}(str_q w_c(ad y)) + div(zeta_{alpha_c^a})
            - str_q(ad theta_c^a)  =  0,

    each term computed by its own direct route, theta_c^a = f(ad y)(a) for
    f = q_c on q and f = 1 on h.  For purely odd q everything is exact; in
    the presence of even variables the computation runs one order above the
    requested truncation (differentiation at the truncation boundary) and
    the residual is cut back down.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    if order is None:
        order = gp.order
    work = gp if gp.purely_odd else gp.lifted(order + 1)
    field = twisted_vector_field(work, c, a_index)
    w_str = str_w_of_ad_y(work, c)
    t1 = apply_vector_field(work, field, w_str)
    t2 = divergence(work, field)
    f = series_mod.TruncatedSeries1.constant(1, 0) if work.pair.in_h(a_index) else series_mod.q_c(c, work.max_power() + 1)
    t3 = str_q_of_ad_field(work, series_of_ad_y(work, f, {a_index: Fraction(1)}))
    residual = t1 + t2 - t3
    if not gp.purely_odd:
        residual = truncate_even_degree(residual, order)
    return residual


# ---------------------------------------------------------------------------
# the Gorelik candidate
# ---------------------------------------------------------------------------

def interior_product(gp: GenericPoint, f: SuperPolynomial, w: SuperPolynomial) -> SuperPolynomial:
    """The module action of the dual exterior algebra on S(q): each dual
    variable acts as the left derivative by its basis vector, a monomial
    x^{i_1} ... x^{i_k} (ascending) acts as the composition with x^{i_k}
    applied first."""
    table = sq_table(gp.pair)
    pairs = []
    for mono, coeff in f.terms.items():
        acc = w
        for pos in reversed(_monomial_to_word(mono)):
            acc = acc.partial_derivative(pos)
            if acc.is_zero():
                break
        pairs.append((acc, table.constant(coeff)))
    return sum_of_products(table, pairs)


def top_monomial(pair: SymmetricPair) -> SuperPolynomial:
    """d = e_1 ... e_q, the top monomial of the exterior algebra S(q)."""
    table = sq_table(pair)
    return SuperPolynomial(table, {(1,) * len(table): Fraction(1)})


def gorelik_preimage(gp: GenericPoint) -> SuperPolynomial:
    """J_2 d in S(q), for purely odd q: the preimage under beta of the
    Gorelik candidate, on which ``gorelik`` decides and compares."""
    if not gp.purely_odd:
        raise ValueError("the Gorelik construction requires purely odd q")
    return interior_product(gp, jacobian_Jc(gp, Fraction(2)).J, top_monomial(gp.pair))


def gorelik_candidate(gp: GenericPoint) -> PbwElement:
    """beta(J_2 d) for purely odd q; warns when the pair fails the
    unimodularity condition (the result is then not invariant)."""
    w = gorelik_preimage(gp)
    ok, witnesses = gp.pair.check_unimodularity()
    if not ok:
        warnings.warn(
            f"pair is not unimodular (str_q(ad a) != 0 at {witnesses}); "
            "the construction does not yield an invariant",
            stacklevel=2,
        )
    return beta_of_sq(gp.pair, w)
