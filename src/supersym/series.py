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
residuals so that a caller can assert they vanish identically.

Products convolve integer numerators: each factor's coefficients are
scaled to the lcm of their denominators, the convolution runs on plain
ints, and one normalised ``Fraction`` is built per output coefficient.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul

_bernoulli_cache = [Fraction(1)]
_bernoulli_lock = threading.Lock()


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


def _numerators(coefficients):
    """The coefficients as ints over their common denominator: (ints, lcm)."""
    den = math.lcm(*(c.denominator for c in coefficients))
    return [c.numerator * (den // c.denominator) for c in coefficients], den


class TruncatedSeries1:
    """Series sum c_k t^k, 0 <= k <= order, coefficients stored densely."""

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients, order=None):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.coefficients = coeffs
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def constant(cls, c, order):
        return cls([Fraction(c)], order)

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    @classmethod
    def monomial(cls, c, k, order):
        coeffs = [Fraction(0)] * (order + 1)
        if k <= order:
            coeffs[k] = Fraction(c)
        return cls(coeffs, order)

    def coeff(self, k) -> Fraction:
        return self.coefficients[k] if 0 <= k <= self.order else Fraction(0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def truncate(self, order) -> "TruncatedSeries1":
        return TruncatedSeries1(self.coefficients, order)

    def __add__(self, other):
        other = _coerce1(other, self.order)
        n = min(self.order, other.order)
        return TruncatedSeries1(
            [self.coeff(k) + other.coeff(k) for k in range(n + 1)], n
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries1([-c for c in self.coefficients], self.order)

    def __sub__(self, other):
        return self + (-_coerce1(other, self.order))

    def __rsub__(self, other):
        return _coerce1(other, self.order) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries1([c * other for c in self.coefficients], self.order)
        n = min(self.order, other.order)
        a, da = _numerators(self.coefficients[: n + 1])
        b, db = _numerators(other.coefficients[: n + 1])
        den = da * db
        return TruncatedSeries1(
            [Fraction(sum(map(mul, a[: k + 1], b[k::-1])), den) for k in range(n + 1)], n
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries1.constant(other, self.order)
        if not isinstance(other, TruncatedSeries1):
            return NotImplemented
        return self.order == other.order and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.order, tuple(self.coefficients)))

    def derivative(self) -> "TruncatedSeries1":
        if self.order == 0:
            return TruncatedSeries1.zero(0)
        return TruncatedSeries1(
            [k * self.coefficients[k] for k in range(1, self.order + 1)],
            self.order - 1,
        )

    def divide_by_t(self) -> "TruncatedSeries1":
        """t-shift f/t for f with zero constant term."""
        if self.coefficients[0] != 0:
            raise ValueError("cannot divide by t: nonzero constant term")
        return TruncatedSeries1(self.coefficients[1:], self.order - 1)

    def scale_variable(self, c) -> "TruncatedSeries1":
        """f(c*t)."""
        c = Fraction(c)
        return TruncatedSeries1(
            [co * c**k for k, co in enumerate(self.coefficients)], self.order
        )

    def parity(self):
        """0 if even, 1 if odd, None if mixed (0 counts as both)."""
        seen = {k % 2 for k, c in enumerate(self.coefficients) if c != 0}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def __str__(self):
        pieces = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mono = "" if k == 0 else (" t" if k == 1 else f" t^{k}")
            pieces.append(f"{c}{mono}")
        if not pieces:
            body = "0"
        else:
            body = pieces[0]
            for piece in pieces[1:]:
                if piece.startswith("-"):
                    body += " - " + piece[1:]
                else:
                    body += " + " + piece
        return f"{body} (+ O(t^{self.order + 1}))"

    __repr__ = __str__


def _coerce1(x, order):
    if isinstance(x, TruncatedSeries1):
        return x
    return TruncatedSeries1.constant(x, order)


def compose(f: TruncatedSeries1, g: TruncatedSeries1) -> TruncatedSeries1:
    """f(g(t)); requires g(0) = 0 so the substitution is finite."""
    if g.coeff(0) != 0:
        raise ValueError("composition requires zero constant term in the inner series")
    n = min(f.order, g.order)
    result = TruncatedSeries1.constant(f.coeff(n), n)
    for k in range(n - 1, -1, -1):
        result = result * g + TruncatedSeries1.constant(f.coeff(k), n)
    return result


def exp_series(order) -> TruncatedSeries1:
    return TruncatedSeries1([Fraction(1, math.factorial(k)) for k in range(order + 1)], order)


def log1p_series(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)], order
    )


def exp_of(f: TruncatedSeries1) -> TruncatedSeries1:
    return compose(exp_series(f.order), f)


def log_of_one_plus(f: TruncatedSeries1) -> TruncatedSeries1:
    """log(1 + f) for f with zero constant term."""
    return compose(log1p_series(f.order), f)


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


def sinh_over_t(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )


def cosh_series(order) -> TruncatedSeries1:
    return TruncatedSeries1(
        [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)],
        order,
    )


def p_c(c, order) -> TruncatedSeries1:
    """t*coth(t/c): even, constant term c, Bernoulli coefficients."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("p_c requires c != 0")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = c
    for n in range(1, order // 2 + 1):
        coeffs[2 * n] = (
            bernoulli(2 * n) * Fraction(2 ** (2 * n), math.factorial(2 * n)) / c ** (2 * n - 1)
        )
    return TruncatedSeries1(coeffs, order)


def q_c(c, order) -> TruncatedSeries1:
    """-tanh(t/(2c)): odd, leading term -t/(2c)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("q_c requires c != 0")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, (order + 1) // 2 + 1):
        k = 2 * n - 1
        if k > order:
            break
        coeffs[k] = (
            -2 * bernoulli(2 * n) * Fraction(2 ** (2 * n) - 1, math.factorial(2 * n)) / c ** (2 * n - 1)
        )
    return TruncatedSeries1(coeffs, order)


def w_c(c, order) -> TruncatedSeries1:
    """log(sinh(t/c)/(t/c)): even, zero constant term."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("w_c requires c != 0")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order // 2 + 1):
        coeffs[2 * n] = (
            bernoulli(2 * n)
            * Fraction(2 ** (2 * n), 2 * n * math.factorial(2 * n))
            / c ** (2 * n)
        )
    return TruncatedSeries1(coeffs, order)


def t_over_exp_minus_one(order) -> TruncatedSeries1:
    """t/(e^t - 1), the Bernoulli generating series itself."""
    return TruncatedSeries1(
        [bernoulli(n) / math.factorial(n) for n in range(order + 1)], order
    )


# ---------------------------------------------------------------------------
# two-variable series
# ---------------------------------------------------------------------------

class TruncatedSeries2:
    """Series sum c_{ij} t^i u^j over the triangle i + j <= order."""

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients, order):
        self.order = order
        cleaned = {}
        for (i, j), c in coefficients.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0 and i + j <= order:
                cleaned[(i, j)] = c
        self.coefficients = cleaned

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def from_t(cls, f: TruncatedSeries1, order):
        """f(t) viewed in two variables."""
        return cls({(k, 0): c for k, c in enumerate(f.coefficients)}, order)

    @classmethod
    def from_u(cls, f: TruncatedSeries1, order):
        """f(u) viewed in two variables."""
        return cls({(0, k): c for k, c in enumerate(f.coefficients)}, order)

    @classmethod
    def from_sum(cls, f: TruncatedSeries1, order):
        """f(t + u), expanded binomially."""
        terms = {}
        for n, c in enumerate(f.coefficients):
            if c == 0 or n > order:
                continue
            for k in range(n + 1):
                terms[(k, n - k)] = terms.get((k, n - k), Fraction(0)) + c * math.comb(n, k)
        return cls(terms, order)

    def coeff(self, i, j) -> Fraction:
        return self.coefficients.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coefficients

    def swap(self) -> "TruncatedSeries2":
        """Exchange t and u."""
        return TruncatedSeries2(
            {(j, i): c for (i, j), c in self.coefficients.items()}, self.order
        )

    def __add__(self, other):
        other = _coerce2(other, self.order)
        n = min(self.order, other.order)
        terms = {k: v for k, v in self.coefficients.items()}
        for k, v in other.coefficients.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return TruncatedSeries2(terms, n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries2({k: -v for k, v in self.coefficients.items()}, self.order)

    def __sub__(self, other):
        return self + (-_coerce2(other, self.order))

    def __rsub__(self, other):
        return _coerce2(other, self.order) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries2(
                {k: v * other for k, v in self.coefficients.items()}, self.order
            )
        n = min(self.order, other.order)
        # (i, j) is packed as i*w + j, so adding keys multiplies monomials
        w = n + 1
        a, da = _numerators(list(self.coefficients.values()))
        b, db = _numerators(list(other.coefficients.values()))
        left = [(i * w + j, i + j, c) for (i, j), c in zip(self.coefficients, a)]
        right = [(i * w + j, i + j, c) for (i, j), c in zip(other.coefficients, b)]
        acc = {}
        for k1, d1, c1 in left:
            room = n - d1
            for k2, d2, c2 in right:
                if d2 <= room:
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + c1 * c2
        den = da * db
        return TruncatedSeries2({divmod(k, w): Fraction(v, den) for k, v in acc.items()}, n)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries2({(0, 0): other}, self.order)
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return self.order == other.order and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.order, frozenset(self.coefficients.items())))

    def __str__(self):
        if not self.coefficients:
            return f"0 (+ O(total degree {self.order + 1}))"
        pieces = []
        for (i, j) in sorted(self.coefficients, key=lambda k: (k[0] + k[1], k)):
            c = self.coefficients[(i, j)]
            mono = "".join(
                [f" t^{i}" if i > 1 else " t" if i == 1 else "",
                 f" u^{j}" if j > 1 else " u" if j == 1 else ""]
            )
            pieces.append(f"{c}{mono}")
        return " + ".join(pieces) + f" (+ O(total degree {self.order + 1}))"

    __repr__ = __str__


def _coerce2(x, order):
    if isinstance(x, TruncatedSeries2):
        return x
    return TruncatedSeries2({(0, 0): Fraction(x)}, order)


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
    nums, den = _numerators(f.coefficients[: order + 2])
    terms = {}
    for n, a in enumerate(nums):
        if a and n:
            for k in range(n):
                terms[(k, n - k - 1)] = Fraction(a * math.comb(n, k), den)
    return TruncatedSeries2(terms, order)


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
    p_t = TruncatedSeries2.from_t(p, order)
    p_u = TruncatedSeries2.from_u(p, order)
    p_sum = TruncatedSeries2.from_sum(p, order)
    d_t = TruncatedSeries2.from_t(d, order)
    d_u = TruncatedSeries2.from_u(d, order)
    d_sum = TruncatedSeries2.from_sum(d, order)
    dd_u_d = divided_difference(d, order)
    dd_t_d = divided_difference_t(d, order)
    dd_u_p = divided_difference(p, order)
    dd_t_p = divided_difference_t(p, order)

    r1 = d_u * dd_u_d + d_t * dd_t_d + d_sum
    r2 = p_u * dd_u_p + p_t * dd_t_p + d_sum
    r3 = p_u * dd_u_d + d_t * dd_t_p + p_sum
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
    r8 = divided_difference(q, order) * p_u + divided_difference_t(q, order) * p_t - q_t * q_u + h_sum
    r9 = q_t + divided_difference_t(h, order) * p_t - q_t * h_u
    return r7, r8, r9


def exp_jacobian_identity_residual(order) -> TruncatedSeries1:
    """Residual of p(0) w'(t) - (p(t) - p(0))/t for p = t/(e^t - 1),
    w = log((1 - e^{-t})/t); identically zero, and the reason the full
    exponential-map Jacobian formula closes."""
    p = t_over_exp_minus_one(order + 1)
    # r = (1 - e^{-t})/t
    r = TruncatedSeries1(
        [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 2)], order + 1
    )
    w = log_of_one_plus(r - 1)
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
