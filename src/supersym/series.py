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

A series is stored as integer numerators over one positive denominator,
divided through by their common factor so that the stored form is unique:
a one-variable series as the dense list ``nums`` (``c_k = nums[k] / den``),
a two-variable one as the dict ``nums`` of its nonzero numerators keyed by
``(i, j)``.  Sums, scalar multiples, products, substitution and divided
differences run on plain ints; a ``Fraction`` is built only when a
coefficient is read (``coeff``, ``coefficients``, printing).  Equality and
hashing compare the stored ints.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul

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


def _numerators(coefficients):
    """The coefficients as ints over their common denominator: (ints, lcm)."""
    den = math.lcm(*(c.denominator for c in coefficients))
    return [c.numerator * (den // c.denominator) for c in coefficients], den


class TruncatedSeries1:
    """Series sum c_k t^k, 0 <= k <= order, with c_k = nums[k] / den."""

    __slots__ = ("nums", "den", "order", "_fractions")

    def __init__(self, coefficients, order=None):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [_ZERO] * (order + 1 - len(coeffs))
        self.nums, self.den = _numerators(coeffs)
        self.order = order
        self._fractions = coeffs

    @classmethod
    def _reduced(cls, nums, den, order):
        """The series nums[k] / den, 0 <= k <= order, for a list of order + 1
        ints and den > 0, divided through by their common factor."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        common = math.gcd(den, *nums)
        if common > 1:
            nums = [v // common for v in nums]
            den //= common
        s = object.__new__(cls)
        s.nums, s.den, s.order, s._fractions = nums, den, order, None
        return s

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

    @property
    def coefficients(self) -> list:
        """The coefficients as a new list of Fractions, constant term first;
        the Fractions are built once per series."""
        if self._fractions is None:
            den = self.den
            self._fractions = [Fraction(v, den) if v else _ZERO for v in self.nums]
        return list(self._fractions)

    def coeff(self, k) -> Fraction:
        return (self._fractions or self.coefficients)[k] if 0 <= k <= self.order else _ZERO

    def is_zero(self) -> bool:
        return not any(self.nums)

    def truncate(self, order) -> "TruncatedSeries1":
        """The terms up to t^order; ``order`` may not exceed the series' own."""
        if order > self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} at the higher order {order}")
        return TruncatedSeries1._reduced(self.nums[: order + 1], self.den, order)

    def __add__(self, other):
        other = _coerce1(other, self.order)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return TruncatedSeries1._reduced(
            [x * sa + y * sb for x, y in zip(self.nums, other.nums)], den, min(self.order, other.order)
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries1._reduced([-v for v in self.nums], self.den, self.order)

    def __sub__(self, other):
        return self + (-_coerce1(other, self.order))

    def __rsub__(self, other):
        return _coerce1(other, self.order) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return TruncatedSeries1._reduced(
                [v * num for v in self.nums], self.den * other.denominator, self.order
            )
        if not isinstance(other, TruncatedSeries1):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.nums, other.nums
        return TruncatedSeries1._reduced(
            [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)], self.den * other.den, n
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries1.constant(other, self.order)
        if not isinstance(other, TruncatedSeries1):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its value, so it hashes like it
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.den, tuple(self.nums)))

    def derivative(self) -> "TruncatedSeries1":
        if self.order == 0:
            return TruncatedSeries1.zero(0)
        return TruncatedSeries1._reduced(
            [k * v for k, v in enumerate(self.nums[1:], 1)], self.den, self.order - 1
        )

    def divide_by_t(self) -> "TruncatedSeries1":
        """t-shift f/t for f with zero constant term."""
        if self.nums[0]:
            raise ValueError("cannot divide by t: nonzero constant term")
        return TruncatedSeries1._reduced(self.nums[1:], self.den, self.order - 1)

    def scale_variable(self, c) -> "TruncatedSeries1":
        """f(c*t)."""
        c = Fraction(c)
        p, q, n = c.numerator, c.denominator, self.order
        return TruncatedSeries1._reduced(
            [v * p**k * q ** (n - k) for k, v in enumerate(self.nums)], self.den * q**n, n
        )

    def parity(self):
        """0 if even, 1 if odd, None if mixed (0 counts as both)."""
        seen = {k % 2 for k, v in enumerate(self.nums) if v}
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


def _from_ratios(ratios, order) -> TruncatedSeries1:
    """sum num/den t^k over the {k: (num, den)} of ints (den nonzero, k <= order)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    den = math.lcm(*[d for _, d in ratios.values()])
    nums = [0] * (order + 1)
    for k, (num, d) in ratios.items():
        nums[k] = num * (den // d)
    return TruncatedSeries1._reduced(nums, den, order)


def log_of_one_plus(f: TruncatedSeries1) -> TruncatedSeries1:
    """log(1 + f) for f with zero constant term, from (1 + f) L' = f'.

    With f = F/D and L' = sum G_m t^m / D^(m+1), the recurrence
    G_m = (m+1) F_{m+1} D^m - sum_{i=1..m} F_i D^(i-1) G_{m-i} runs on ints,
    and L_k = G_{k-1} / (k D^k) goes over lcm(1..n) D^n: O(n^2) products
    where composing with log(1 + t) by Horner's rule takes O(n^3).
    """
    if f.nums[0]:
        raise ValueError("composition requires zero constant term in the inner series")
    n, F, D = f.order, f.nums, f.den
    powers = [D**k for k in range(n + 1)]
    scaled = [F[i] * powers[i - 1] for i in range(1, n + 1)]
    G = []
    for m in range(n):
        G.append((m + 1) * F[m + 1] * powers[m] - sum(map(mul, scaled[:m], reversed(G))))
    lcm = math.lcm(*range(1, n + 1))
    return TruncatedSeries1._reduced(
        [0] + [G[k - 1] * (lcm // k) * powers[n - k] for k in range(1, n + 1)], lcm * powers[n], n
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

class TruncatedSeries2:
    """Series sum c_{ij} t^i u^j over the triangle i + j <= order, with
    c_{ij} = nums[(i, j)] / den and the zero coefficients left out."""

    __slots__ = ("nums", "den", "order")

    def __init__(self, coefficients, order):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cleaned = {}
        for (i, j), c in coefficients.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0 and i + j <= order:
                cleaned[(i, j)] = c
        nums, self.den = _numerators(cleaned.values())
        self.nums = dict(zip(cleaned, nums))
        self.order = order

    @classmethod
    def _reduced(cls, nums, den, order):
        """The series over den > 0 with the nonzero numerators ``nums``, all
        keys within the order, divided through by their common factor."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        common = math.gcd(den, *nums.values())
        if common > 1:
            nums = {k: v // common for k, v in nums.items()}
            den //= common
        s = object.__new__(cls)
        s.nums, s.den, s.order = nums, den, order
        return s

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def from_t(cls, f: TruncatedSeries1, order):
        """f(t) viewed in two variables; ``order`` may not exceed f's own."""
        return cls.from_u(f, order).swap()

    @classmethod
    def from_u(cls, f: TruncatedSeries1, order):
        """f(u) viewed in two variables; ``order`` may not exceed f's own."""
        f = f.truncate(order)
        return cls._reduced({(0, k): v for k, v in enumerate(f.nums) if v}, f.den, order)

    @classmethod
    def from_sum(cls, f: TruncatedSeries1, order):
        """f(t + u), expanded binomially; ``order`` may not exceed f's own."""
        f = f.truncate(order)
        terms = {(k, n - k): v * math.comb(n, k) for n, v in enumerate(f.nums) if v for k in range(n + 1)}
        return cls._reduced(terms, f.den, order)

    @property
    def coefficients(self) -> dict:
        """The nonzero coefficients as a new {(i, j): Fraction} dict."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.nums.items()}

    def coeff(self, i, j) -> Fraction:
        v = self.nums.get((i, j))
        return Fraction(v, self.den) if v else _ZERO

    def is_zero(self) -> bool:
        return not self.nums

    def swap(self) -> "TruncatedSeries2":
        """Exchange t and u."""
        return TruncatedSeries2._reduced(
            {(j, i): v for (i, j), v in self.nums.items()}, self.den, self.order
        )

    def __add__(self, other):
        other = _coerce2(other, self.order)
        n = min(self.order, other.order)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        terms = {k: v * sa for k, v in self.nums.items()}
        for k, v in other.nums.items():
            terms[k] = terms.get(k, 0) + v * sb
        return TruncatedSeries2._reduced(
            {k: v for k, v in terms.items() if v and k[0] + k[1] <= n}, den, n
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries2._reduced({k: -v for k, v in self.nums.items()}, self.den, self.order)

    def __sub__(self, other):
        return self + (-_coerce2(other, self.order))

    def __rsub__(self, other):
        return _coerce2(other, self.order) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            terms = {k: v * num for k, v in self.nums.items()} if num else {}
            return TruncatedSeries2._reduced(terms, self.den * other.denominator, self.order)
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        n = min(self.order, other.order)
        # (i, j) is packed as i*w + j, so adding keys multiplies monomials
        w = n + 1
        left = [(i * w + j, i + j, c) for (i, j), c in self.nums.items()]
        right = [(i * w + j, i + j, c) for (i, j), c in other.nums.items()]
        acc = {}
        for k1, d1, c1 in left:
            room = n - d1
            for k2, d2, c2 in right:
                if d2 <= room:
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + c1 * c2
        return TruncatedSeries2._reduced(
            {divmod(k, w): v for k, v in acc.items() if v}, self.den * other.den, n
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries2({(0, 0): other}, self.order)
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its value, so it hashes like it
        if not any(k != (0, 0) for k in self.nums):
            return hash(Fraction(self.nums.get((0, 0), 0), self.den))
        return hash((self.order, self.den, frozenset(self.nums.items())))

    def __str__(self):
        if not self.nums:
            return f"0 (+ O(total degree {self.order + 1}))"
        pieces = []
        for (i, j) in sorted(self.nums, key=lambda k: (k[0] + k[1], k)):
            c = Fraction(self.nums[(i, j)], self.den)
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
    terms = {}
    for n, a in enumerate(f.nums[: order + 2]):
        if a and n:
            for k in range(n):
                terms[(k, n - k - 1)] = a * math.comb(n, k)
    return TruncatedSeries2._reduced(terms, f.den, order)


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
