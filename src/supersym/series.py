"""Truncated formal power series over the rationals, in one and two variables.

Home of the Bernoulli numbers and of the three distinguished series used
throughout the toolkit:

* ``p_c(t) = t*coth(t/c)``, the even series driving the universal
  coderivation representation of a symmetric pair,
* ``q_c(t) = -tanh(t/(2c))``, the odd series entering the twisted
  (character-coinduced) representations,
* ``w_c(t) = log(sinh(t/c)/(t/c))``, whose exponentiated supertrace is the
  Jacobian of the exponential map.

The two-variable series support the divided differences
``(f(t+u) - f(t))/u`` needed to state the functional equations that
characterize these series; the ``check_*`` functions return the exact
residuals so that a caller can assert they vanish identically.  Exchanging
t and u (``swap``) is a ring automorphism, so each t-side product of a
mirrored pair, such as ``from_t(d) * divided_difference_t(d)``, is read off
as the ``swap`` of its u-side twin: one product per pair.
``log_of_one_plus`` runs the recurrence of (1 + f) L' = f' on ints, in
O(n^2) products.

A series is stored as the integer form of ``superpoly`` in lowest terms,
``form = (den, {exponents: int})`` with the zero terms left out, keyed by
``(k,)`` in one variable and ``(i, j)`` in two; both classes share one base
for sums, scalar multiples, products, equality and hashing.  Substitution
and divided differences run on the ints too; a ``Fraction`` is built only
when a coefficient is read (``coeff``, ``coefficients``, printing).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul

from .superpoly import _form, _Formed, _lowest, _scale

_bernoulli_cache = [Fraction(1)]
_bernoulli_lock = threading.Lock()

_ZERO = Fraction(0)


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, from the generating series t/(e^t - 1).

    Computed by exact recursive inversion of (e^t - 1)/t and cached;
    the convention has bernoulli(1) == -1/2.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by naturals")
    with _bernoulli_lock:
        if n < len(_bernoulli_cache):
            return _bernoulli_cache[n]
        # E_k = coefficient of t^k in (e^t - 1)/t; invert: I_0 = 1,
        # I_m = -sum_{k=1..m} E_k I_{m-k}; bernoulli(m) = m! * I_m.
        inv = [_bernoulli_cache[m] / math.factorial(m) for m in range(len(_bernoulli_cache))]
        for m in range(len(_bernoulli_cache), n + 1):
            s = Fraction(0)
            for k in range(1, m + 1):
                s += Fraction(1, math.factorial(k + 1)) * inv[m - k]
            inv.append(-s)
            _bernoulli_cache.append(inv[m] * math.factorial(m))
        return _bernoulli_cache[n]


class _Series(_Formed):
    """A truncated series stored as its integer form ``form = (den, {exponent
    tuple: int})`` in lowest terms (``superpoly._Formed``), plus ``order``:
    the keys are the exponents of the nonzero terms, of total degree at most
    the order.  Sums, scalar multiples and products of two series of one
    class run here; a scalar is the constant series at the other side's
    order."""

    __slots__ = ("order",)

    def __init__(self, terms, order):
        """The series of the {key: rational} ``terms``, those past the order left out."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.form = _form({
            k: f for k, c in terms.items() if sum(k) <= order and (f := c if type(c) is Fraction else Fraction(c))
        })
        self.order, self._terms = order, None

    @classmethod
    def _of(cls, form, order):
        """The series of a form whose keys are within ``order``, reduced."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        s = object.__new__(cls)
        s.form, s.order, s._terms = _lowest(form), order, None
        return s

    @classmethod
    def zero(cls, order):
        return cls._of((1, {}), order)

    @classmethod
    def constant(cls, c, order):
        c = Fraction(c)
        return cls._of((c.denominator, {cls._ONE: c.numerator} if c else {}), order)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other, self.order)
        return NotImplemented

    def _plus(self, other, sign):
        """self + sign * other, to the smaller order."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (da, a), (db, b) = self.form, other.form
        den = math.lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        acc = {k: v * sa for k, v in a.items()}
        for k, v in b.items():
            t = acc.get(k, 0) + v * sb
            if t:
                acc[k] = t
            else:
                del acc[k]
        n = min(self.order, other.order)
        if self.order != other.order:
            acc = {k: v for k, v in acc.items() if sum(k) <= n}
        return self._of((den, acc), n)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return self._of(_scale(self.form, -1), self.order)

    def _times(self, other, pack, unpack):
        """self * other for a scalar or a series of the same class.  With w
        one more than the smaller order, ``pack(nums, w)`` lists the terms of
        a form as (int key, degree, int), the int keys such that adding two
        of them multiplies their monomials, and ``unpack(int key, w)`` gives
        a key back."""
        if isinstance(other, (int, Fraction)):
            return self._of(_scale(self.form, other), self.order)
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.order, other.order)
        w = n + 1
        (da, a), (db, b) = self.form, other.form
        acc = {}
        right = pack(b, w)
        for k1, d1, c1 in pack(a, w):
            room = n - d1
            for k2, d2, c2 in right:
                if d2 <= room:
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + c1 * c2
        return self._of((da * db, {unpack(k, w): v for k, v in acc.items() if v}), n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.form == other.form

    def __hash__(self):
        return self._hash(self.order)


class TruncatedSeries1(_Series):
    """Series sum c_k t^k, 0 <= k <= order, keyed by (k,)."""

    __slots__ = ()
    _ONE = (0,)  # the key of the constant term

    def __init__(self, coefficients, order=None):
        coefficients = list(coefficients)
        super().__init__(
            {(k,): c for k, c in enumerate(coefficients)}, len(coefficients) - 1 if order is None else order
        )

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    @classmethod
    def monomial(cls, c, k, order):
        if k < 0:
            raise ValueError("a monomial t^k needs k >= 0")
        return cls([0] * k + [c], order)

    @property
    def coefficients(self) -> list:
        """The coefficients as a new list of Fractions, constant term first."""
        terms = self.terms
        return [terms.get((k,), _ZERO) for k in range(self.order + 1)]

    def coeff(self, k) -> Fraction:
        return self.terms.get((k,), _ZERO)

    def truncate(self, order) -> "TruncatedSeries1":
        """The terms up to t^order; ``order`` may not exceed the series' own."""
        if order > self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} at the higher order {order}")
        den, nums = self.form
        return TruncatedSeries1._of((den, {k: v for k, v in nums.items() if k[0] <= order}), order)

    def __mul__(self, other):
        # t^k packs as k
        return self._times(other, lambda nums, w: [(k, k, v) for (k,), v in nums.items()], lambda k, w: (k,))

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries1":
        """f' to order - 1; a series of order 0 says nothing about f'."""
        if self.order == 0:
            raise ValueError("cannot differentiate a series of order 0")
        den, nums = self.form
        return TruncatedSeries1._of((den, {(k - 1,): k * v for (k,), v in nums.items() if k}), self.order - 1)

    def divide_by_t(self) -> "TruncatedSeries1":
        """t-shift f/t for f with zero constant term."""
        den, nums = self.form
        if (0,) in nums:
            raise ValueError("cannot divide by t: nonzero constant term")
        return TruncatedSeries1._of((den, {(k - 1,): v for (k,), v in nums.items()}), self.order - 1)

    def scale_variable(self, c) -> "TruncatedSeries1":
        """f(c*t)."""
        c = Fraction(c)
        p, q, n = c.numerator, c.denominator, self.order
        den, nums = self.form
        return TruncatedSeries1._of((den * q**n, {(k,): v * p**k * q ** (n - k) for (k,), v in nums.items()}), n)

    def parity(self):
        """0 if even, 1 if odd, None if mixed (0 counts as both)."""
        seen = {k % 2 for (k,) in self.form[1]}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    def __str__(self):
        pieces = [f"{c}{'' if k == 0 else ' t' if k == 1 else f' t^{k}'}" for k, c in enumerate(self.coefficients) if c]
        body = pieces[0] if pieces else "0"
        for piece in pieces[1:]:
            body += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return f"{body} (+ O(t^{self.order + 1}))"

    __repr__ = __str__


def _from_ratios(ratios, order) -> TruncatedSeries1:
    """sum num/den t^k over the {k: (num, den)} of ints (den nonzero, k <= order)."""
    den = math.lcm(*[d for _, d in ratios.values()])
    return TruncatedSeries1._of((den, {(k,): num * (den // d) for k, (num, d) in ratios.items() if num}), order)


def log_of_one_plus(f: TruncatedSeries1) -> TruncatedSeries1:
    """log(1 + f) for f with zero constant term, from (1 + f) L' = f'.

    With f = F/D and L' = sum G_m t^m / D^(m+1), the recurrence
    G_m = (m+1) F_{m+1} D^m - sum_{i=1..m} F_i D^(i-1) G_{m-i} runs on ints,
    and L_k = G_{k-1} / (k D^k) goes over lcm(1..n) D^n: O(n^2) products
    where composing with log(1 + t) by Horner's rule takes O(n^3).
    """
    D, nums = f.form
    if (0,) in nums:
        raise ValueError("composition requires zero constant term in the inner series")
    n = f.order
    F = [nums.get((k,), 0) for k in range(n + 1)]
    powers = [D**k for k in range(n + 1)]
    scaled = [F[i] * powers[i - 1] for i in range(1, n + 1)]
    G = []
    for m in range(n):
        G.append((m + 1) * F[m + 1] * powers[m] - sum(map(mul, scaled[:m], reversed(G))))
    lcm = math.lcm(*range(1, n + 1))
    return TruncatedSeries1._of(
        (lcm * powers[n], {(k,): G[k - 1] * (lcm // k) * powers[n - k] for k in range(1, n + 1) if G[k - 1]}), n
    )


def sinh_over_t(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )


def one_minus_exp_neg_t_over_t(order) -> TruncatedSeries1:
    """(1 - e^{-t})/t, coefficients (-1)^k/(k+1)!."""
    return TruncatedSeries1([Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)], order)


def p_c(c, order) -> TruncatedSeries1:
    """t*coth(t/c): even, constant term c, Bernoulli coefficients
    B_2n 2^2n / ((2n)! c^(2n-1))."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("p_c requires c != 0")
    a, b = c.numerator, c.denominator
    ratios = {0: (a, b)}
    for n in range(1, order // 2 + 1):
        bn = bernoulli(2 * n)
        ratios[2 * n] = (
            bn.numerator * 4**n * b ** (2 * n - 1),
            bn.denominator * math.factorial(2 * n) * a ** (2 * n - 1),
        )
    return _from_ratios(ratios, order)


def q_c(c, order) -> TruncatedSeries1:
    """-tanh(t/(2c)): odd, leading term -t/(2c); coefficients
    -2 B_2n (2^2n - 1) / ((2n)! c^(2n-1))."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("q_c requires c != 0")
    a, b = c.numerator, c.denominator
    ratios = {}
    for n in range(1, (order + 1) // 2 + 1):
        bn = bernoulli(2 * n)
        ratios[2 * n - 1] = (
            -2 * bn.numerator * (4**n - 1) * b ** (2 * n - 1),
            bn.denominator * math.factorial(2 * n) * a ** (2 * n - 1),
        )
    return _from_ratios(ratios, order)


def w_c(c, order) -> TruncatedSeries1:
    """log(sinh(t/c)/(t/c)): even, zero constant term; coefficients
    B_2n 2^2n / (2n (2n)! c^2n)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("w_c requires c != 0")
    a, b = c.numerator, c.denominator
    ratios = {}
    for n in range(1, order // 2 + 1):
        bn = bernoulli(2 * n)
        ratios[2 * n] = (
            bn.numerator * 4**n * b ** (2 * n),
            bn.denominator * 2 * n * math.factorial(2 * n) * a ** (2 * n),
        )
    return _from_ratios(ratios, order)


def t_over_exp_minus_one(order) -> TruncatedSeries1:
    """t/(e^t - 1), the Bernoulli generating series itself."""
    return TruncatedSeries1(
        [bernoulli(n) / math.factorial(n) for n in range(order + 1)], order
    )


# ---------------------------------------------------------------------------
# two-variable series
# ---------------------------------------------------------------------------

class TruncatedSeries2(_Series):
    """Series sum c_{ij} t^i u^j over the triangle i + j <= order, keyed by
    (i, j); built from a {(i, j): rational} dict."""

    __slots__ = ()
    _ONE = (0, 0)  # the key of the constant term

    @classmethod
    def from_t(cls, f: TruncatedSeries1, order):
        """f(t) viewed in two variables; ``order`` may not exceed f's own."""
        return cls.from_u(f, order).swap()

    @classmethod
    def from_u(cls, f: TruncatedSeries1, order):
        """f(u) viewed in two variables; ``order`` may not exceed f's own."""
        den, nums = f.truncate(order).form
        return cls._of((den, {(0, k): v for (k,), v in sorted(nums.items())}), order)

    @classmethod
    def from_sum(cls, f: TruncatedSeries1, order):
        """f(t + u), expanded binomially; ``order`` may not exceed f's own."""
        den, nums = f.truncate(order).form
        return cls._of(
            (den, {(k, n - k): v * math.comb(n, k) for (n,), v in sorted(nums.items()) for k in range(n + 1)}), order
        )

    @property
    def coefficients(self) -> dict:
        """The nonzero coefficients as a new {(i, j): Fraction} dict."""
        return dict(self.terms)

    def coeff(self, i, j) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def swap(self) -> "TruncatedSeries2":
        """Exchange t and u."""
        den, nums = self.form
        return TruncatedSeries2._of((den, {(j, i): v for (i, j), v in nums.items()}), self.order)

    def __mul__(self, other):
        # t^i u^j packs as i*w + j
        return self._times(other, lambda nums, w: [(i * w + j, i + j, v) for (i, j), v in nums.items()], divmod)

    __rmul__ = __mul__

    def __str__(self):
        terms = self.terms
        if not terms:
            return f"0 (+ O(total degree {self.order + 1}))"
        pieces = []
        for (i, j) in sorted(terms, key=lambda k: (k[0] + k[1], k)):
            mono = "".join(
                [f" t^{i}" if i > 1 else " t" if i == 1 else "",
                 f" u^{j}" if j > 1 else " u" if j == 1 else ""]
            )
            pieces.append(f"{terms[(i, j)]}{mono}")
        return " + ".join(pieces) + f" (+ O(total degree {self.order + 1}))"

    __repr__ = __str__


def divided_difference(f: TruncatedSeries1, order=None) -> TruncatedSeries2:
    """(f(t+u) - f(t))/u = sum_{n>0} f_n sum_{k<n} C(n, k) t^k u^(n-k-1),
    exact in the truncated two-variable ring.

    Division by u shifts total degree down by one, so coefficients of f up
    to degree order+1 are consumed: f.order must be at least order+1.
    """
    if order is None:
        order = f.order - 1
    if f.order < order + 1:
        raise ValueError(
            f"divided difference to total order {order} needs the series to order {order + 1}"
        )
    den, nums = f.form
    terms = {}
    for (n,), a in sorted(nums.items()):
        if 0 < n <= order + 1:
            for k in range(n):
                terms[(k, n - k - 1)] = a * math.comb(n, k)
    return TruncatedSeries2._of((den, terms), order)


def divided_difference_t(f: TruncatedSeries1, order=None) -> TruncatedSeries2:
    """(f(t+u) - f(u))/t."""
    return divided_difference(f, order).swap()


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def check_symmetric_equations(p: TruncatedSeries1, d: TruncatedSeries1, order):
    """Residuals of the three functional equations that make the pair
    (p even, d odd) define a representation by coderivations for every
    symmetric pair.  All three vanish identically iff the equations hold
    to the given total order.
    """
    if p.parity() != 0:
        raise ValueError("p must be an even series")
    if not (d.is_zero() or d.parity() == 1):
        raise ValueError("d must be an odd series")
    if p.order < order + 1 or d.order < order + 1:
        raise ValueError(f"residuals to total order {order} need both series to order {order + 1}")
    p_u = TruncatedSeries2.from_u(p, order)
    p_sum = TruncatedSeries2.from_sum(p, order)
    d_t = TruncatedSeries2.from_t(d, order)
    d_u = TruncatedSeries2.from_u(d, order)
    d_sum = TruncatedSeries2.from_sum(d, order)
    dd_u_d = divided_difference(d, order)
    dd_u_p = divided_difference(p, order)

    # swap is a ring automorphism taking each u-side product to its t-side twin
    a = d_u * dd_u_d
    b = p_u * dd_u_p
    r1 = a + a.swap() + d_sum
    r2 = b + b.swap() + d_sum
    r3 = p_u * dd_u_d + d_t * dd_u_p.swap() + p_sum
    return r1, r2, r3


def check_coinduced_equations(h: TruncatedSeries1, q: TruncatedSeries1, c, order):
    """Residuals of the three functional equations for the twisted
    (coinduced) representations, with p_c substituted for the even series.

    For h = 1 the first and third residuals vanish syntactically and the
    second reduces to the tanh characterization q(t)q(u) - 1 = ...
    """
    if h.parity() != 0:
        raise ValueError("h must be an even series")
    if not (q.is_zero() or q.parity() == 1):
        raise ValueError("q must be an odd series")
    if h.order < order + 1 or q.order < order + 1:
        raise ValueError(f"residuals to total order {order} need both series to order {order + 1}")
    p = p_c(c, order + 1)
    p_t = TruncatedSeries2.from_t(p, order)
    p_u = TruncatedSeries2.from_u(p, order)
    h_t = TruncatedSeries2.from_t(h, order)
    h_u = TruncatedSeries2.from_u(h, order)
    h_sum = TruncatedSeries2.from_sum(h, order)
    q_t = TruncatedSeries2.from_t(q, order)
    q_u = TruncatedSeries2.from_u(q, order)

    r7 = -h_sum + h_t + h_u - h_t * h_u
    x = divided_difference(q, order) * p_u
    r8 = x + x.swap() - q_t * q_u + h_sum
    r9 = q_t + divided_difference_t(h, order) * p_t - q_t * h_u
    return r7, r8, r9


def exp_jacobian_identity_residual(order) -> TruncatedSeries1:
    """Residual of p(0) w'(t) - (p(t) - p(0))/t for p = t/(e^t - 1),
    w = log((1 - e^{-t})/t); identically zero, and the reason the full
    exponential-map Jacobian formula closes."""
    p = t_over_exp_minus_one(order + 1)
    w = log_of_one_plus(one_minus_exp_neg_t_over_t(order + 1) - 1)
    lhs = w.derivative() * p.coeff(0)
    rhs = (p - p.coeff(0)).divide_by_t()
    return lhs - rhs


def tanh_coth_identity_residual(c, order) -> TruncatedSeries1:
    """Residual of q_c(2t) = (p_c(t) - p_c(2t))/t, the identity
    tanh + coth = 2 coth(2t) in Bernoulli form."""
    q2t = q_c(c, order + 1).scale_variable(2)
    p = p_c(c, order + 1)
    rhs = (p - p.scale_variable(2)).divide_by_t()
    return (q2t - rhs).truncate(order)
