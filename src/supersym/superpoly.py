"""Supercommutative polynomials on graded variables, with truncation.

A :class:`VariableTable` fixes an ordered list of variables, each even or
odd, plus a truncation order for the even part (formal-neighborhood
semantics: products are computed exactly and terms whose even-variable
degree exceeds the order are silently dropped; when every variable is odd
the algebra is a finite exterior algebra and no truncation is needed).

Monomials are stored in canonical orientation: letters sorted by table
order, odd exponents at most 1.  Reordering a product into canonical form
accumulates the Koszul sign (one factor of -1 for every crossing of two odd
letters), which makes equality of polynomials structural.

Every product of polynomials runs in two steps.  A factor is shaped: its
coefficients are scaled to the lcm of the denominators of its side, and
each term carries its monomial packed into one int (exponent i in byte i),
the bitmask of its odd letters, the bitmask that gives the Koszul sign of a
product as a popcount, and its even degree.  ``_accumulate`` then adds the
packed keys and multiplies the numerators of shaped factor pairs as plain
ints; a key becomes a tuple again only where a SuperPolynomial is built
(``_packed_poly``).  :func:`sum_of_products` (``a_1 b_1 + ... + a_k b_k``)
shapes its factors in each call; :func:`matrix_product` shapes every entry
of both matrices once (``_shape_rows``).  The masks also give the sign of
a letter times a monomial (``_letter_sign``), which the left derivative,
C_c, the symmetrization and word sorting of ``enveloping`` use, and of every
coproduct leg (``_leg_sign``): ``_coproduct_legs`` walks the legs of a
monomial for the coproduct of S(q) and U(g), and each C_c^a step signs the
legs it reads off the nest levels of ``coderiv``.  No
other module counts crossings of odd letters in canonical monomials;
``symmetrize_word`` and ``antipode`` read the sign of sorting a U(g) word
off ``enveloping._word_to_monomial``, and only the two-letter swaps of
``enveloping._letter_product`` and ``normal_form`` count their own.

This module owns the integer form (den, {key: int}) of a linear combination
that sums, U(g), C_c, tau and ``ad_matrix`` compute in, and it is the
stored state of a SuperPolynomial, a ``PbwElement`` and a series (``_Formed``):
den > 0, the gcd of den and the ints 1, no zero int, so equal values have
equal forms.  ``_form`` makes one from Fractions, ``_combine`` sums int
multiples of forms, ``_lowest`` divides one through by its gcd and ``_poly``
wraps one.  Fractions are built only when ``terms`` is read (``_fractions``).
``_render`` prints SuperPolynomials and PBW elements alike.

:class:`PowerChain` is the one place powers are formed: it keeps x^0 ...
x^k of a polynomial or a square matrix as packed shaped ints, each step one
``_accumulate`` per entry.  A power series in a nilpotent x (``inverse``,
``SuperMatrix.exp``, ``f(ad y)``) is one :func:`power_sum` on a chain, each
entry one ``_combine``; ``SuperPolynomial.exp`` sums parts by degree.

All values are immutable; a table can be shared freely between threads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul, sub
from types import MappingProxyType

EVEN = 0
ODD = 1

_PARITY_WORDS = {"even": EVEN, "odd": ODD, 0: EVEN, 1: ODD, EVEN: EVEN, ODD: ODD}


def parity_of(word) -> int:
    try:
        return _PARITY_WORDS[word]
    except KeyError:
        raise ValueError(f"unknown parity {word!r}; expected 'even' or 'odd'") from None


class VariableTable:
    """Ordered graded variables with an even-degree truncation order."""

    __slots__ = ("names", "parities", "truncation_order", "_index")

    def __init__(self, names, parities, truncation_order=None):
        self.names = tuple(names)
        self.parities = tuple(parity_of(p) for p in parities)
        if len(self.names) != len(self.parities):
            raise ValueError("one parity per variable required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if truncation_order is None and any(p == EVEN for p in self.parities):
            raise ValueError("a finite truncation_order is required when even variables are present")
        if truncation_order is not None and not 0 <= truncation_order <= 255:
            raise ValueError("truncation_order must lie in 0..255: products pack one exponent per byte")
        self.truncation_order = truncation_order
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def variable(self, name_or_index) -> "SuperPolynomial":
        """The variable itself, as a polynomial."""
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        if not 0 <= i < len(self.names):
            raise IndexError(f"variable index {i} out of range for {len(self.names)} variables")
        mono = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return SuperPolynomial(self, {mono: Fraction(1)})

    def one(self) -> "SuperPolynomial":
        return self.constant(Fraction(1))

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def constant(self, c) -> "SuperPolynomial":
        c = Fraction(c)
        if c == 0:
            return SuperPolynomial(self, {})
        return SuperPolynomial(self, {(0,) * len(self.names): c})

    def even_degree(self, mono) -> int:
        return sum(e for e, p in zip(mono, self.parities) if p == EVEN)

    def monomial_parity(self, mono) -> int:
        return _odd_count(self.parities, mono) & 1

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return (
            self.names == other.names
            and self.parities == other.parities
            and self.truncation_order == other.truncation_order
        )

    def __hash__(self):
        return hash((self.names, self.parities, self.truncation_order))

    def __repr__(self):
        vs = ", ".join(f"{n}:{'odd' if p else 'even'}" for n, p in zip(self.names, self.parities))
        return f"VariableTable({vs}; order={self.truncation_order})"


class _Formed:
    """A linear combination stored as its integer form ``form = (den, {key:
    int})``: den > 0, the gcd of den and every int 1, no zero int, so equal
    values have equal forms.  ``terms`` is a read-only {key: Fraction} view
    of it, built on first read and kept."""

    __slots__ = ("form", "_terms")

    @property
    def terms(self):
        if self._terms is None:
            self._terms = MappingProxyType(_fractions(self.form))
        return self._terms

    def is_zero(self) -> bool:
        return not self.form[1]

    def coefficient(self, key) -> Fraction:
        den, nums = self.form
        return Fraction(nums.get(tuple(key), 0), den)

    def _hash(self, space):
        # a scalar equals its value, so it hashes like it
        den, nums = self.form
        if not any(map(any, nums)):
            return hash(Fraction(sum(nums.values()), den))
        return hash((space, den, frozenset(nums.items())))


class SuperPolynomial(_Formed):
    """Element of the supercommutative algebra over a shared VariableTable.

    The stored state is the form (den, {monomial: int}) in lowest terms;
    ``terms``, {monomial: Fraction}, is a read-only view built on first read.
    Building a polynomial from such a dict converts it once.
    """

    __slots__ = ("table",)

    def __init__(self, table: VariableTable, terms):
        """The polynomial of the {monomial: rational} ``terms``; a monomial is
        a tuple of one nonnegative exponent per variable, or ValueError."""
        self.table = table
        order, parities = table.truncation_order, table.parities
        n, kept = len(parities), {}
        for m, c in terms.items():
            if len(m) != n or n and min(m) < 0:
                raise ValueError(f"{m!r} is not a monomial of the {n} variables of the table")
            # zero terms go, and so do terms with an odd letter squared or past the truncation
            if not c or n and max(m) > 1 and max(map(mul, m, parities)) > 1:
                continue
            if order is not None and (d := sum(m)) > order and d - sum(map(mul, m, parities)) > order:
                continue
            kept[m] = c
        self.form, self._terms = _form(kept), None

    # -- queries ----------------------------------------------------------

    def evaluate_at_zero(self) -> Fraction:
        """The constant term."""
        return self.coefficient((0,) * len(self.table))

    def parity(self):
        """EVEN, ODD, or None when the terms mix parities (0 counts as even)."""
        seen = {self.table.monomial_parity(m) for m in self.form[1]}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else EVEN

    def total_degree(self):
        return max(map(sum, self.form[1]), default=0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self.table, (other,))
        return _poly(self.table, _combine([(1, self.form), (1, other.form)]))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.table, _scale(self.form, -1))

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def _coerce(self, other):
        if isinstance(other, SuperPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.constant(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly(self.table, _scale(self.form, other))
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return sum_of_products(self.table, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        return PowerChain(self.table, [[self]]).rows(n)[0][0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.table.constant(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return (self.table is other.table or self.table == other.table) and self.form == other.form

    def __hash__(self):
        return self._hash(self.table)

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, var) -> "SuperPolynomial":
        """Left derivative with respect to ``var``: the coefficient of
        ``var * rest`` in each monomial, so an odd variable picks up the
        Koszul sign of moving it to the front."""
        table = self.table
        parities = table.parities
        i = var if isinstance(var, int) else table.index(var)
        den, terms = self.form
        out = {}
        for mono, v in terms.items():
            e = mono[i]
            if e:
                rest = mono[:i] + (e - 1,) + mono[i + 1 :]
                out[rest] = v * e * _letter_sign(parities, i, _shape(parities, rest)[0])
        return _poly(table, (den, out))

    def exp(self) -> "SuperPolynomial":
        """exp of s with zero constant term (nilpotent, exact), as
        exp(s_even) (1 + s_odd): an odd element squares to 0, an even one is
        central.  The Euler operator is a derivation, so the parts E_n of
        total degree n of exp(s_even) satisfy n E_n = sum_d d s_d E_(n-d),
        one ``_accumulate`` each, up to the order plus the odd letters."""
        if self.evaluate_at_zero() != 0:
            raise ValueError("exp is only defined for zero constant term")
        table, (den, nums), masks = self.table, self.form, {}
        top = (table.truncation_order or 0) + sum(table.parities)
        odd, parts = [], [[] for _ in range(top + 1)]  # s_odd, and s_even by total degree
        for m, v in nums.items():
            (odd if _odd_count(table.parities, m) & 1 else parts[sum(m)]).append((m, v))
        parts, comps = [_shaped(table.parities, p, masks) for p in parts], [(1, [(0, 0, 0, 0, 1)])]
        for n in range(1, top + 1):  # E_n as (den, shaped ints), from the pairs (d, E_(n-d))
            pairs = [(d, *comps[n - d]) for d in range(1, n + 1) if parts[d] and comps[n - d][1]]
            lcm = math.lcm(*(de for _, de, _ in pairs))
            acc = _accumulate(table, [([(*p[:4], p[4] * d * (lcm // de)) for p in parts[d]], e) for d, de, e in pairs])
            g = math.gcd(n * den * lcm, *acc.values())
            comps.append((n * den * lcm // g, _shaped(table.parities, ((k, v // g) for k, v in acc.items()), masks)))
        even = _packed_poly(table, *_combine([(1, (d, {k: v for k, *_, v in e})) for d, e in comps]))
        return even + even * _poly(table, (den, dict(odd))) if odd else even

    def inverse(self) -> "SuperPolynomial":
        """Inverse of a polynomial whose constant term is invertible.

        Neumann series in the augmentation ideal; terminates because the
        ideal is nilpotent under truncation (or in an exterior algebra).
        """
        c0 = self.evaluate_at_zero()
        if c0 == 0:
            raise ZeroDivisionError("constant term is zero; not invertible")
        e = self * (Fraction(1) / c0) - 1  # augmentation part, nilpotent
        return power_sum(itertools.cycle((1, -1)), PowerChain(self.table, [[e]]))[0][0] * (Fraction(1) / c0)

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return _render(self.terms, self.table.names)

    __repr__ = __str__


def _shape(parities, mono):
    """(odd, koszul, even degree) of a canonical monomial.

    Bit i of ``odd`` is set when variable i is an odd letter of ``mono``;
    bit i of ``koszul`` when an odd number of its odd letters sit after
    position i.  A right factor with odd mask ``o`` crosses
    ``popcount(koszul & o)`` pairs of odd letters on the way to canonical
    order, and ``odd & o`` is nonzero when the product repeats an odd
    letter and vanishes.
    """
    odd = koszul = even = after = 0
    for i in range(len(mono) - 1, -1, -1):
        if after:
            koszul |= 1 << i
        e = mono[i]
        if not e:
            continue
        if parities[i] == ODD:
            odd |= 1 << i
            after ^= 1
        else:
            even += e
    return odd, koszul, even


def _odd_count(parities, mono) -> int:
    """The number of odd letters of a monomial, so its parity is the low bit:
    the popcount of the odd mask of ``_shape`` for a canonical monomial, read
    in one pass as the parities are 0 and 1."""
    return sum(map(mul, mono, parities))


def _letter_sign(parities, i, odd) -> int:
    """The sign taking the letter x_i times a canonical monomial with odd mask
    ``odd`` to canonical order: 0 when an odd x_i repeats, else (-1) to the
    odd letters before position i when x_i is odd."""
    if parities[i] != ODD:
        return 1
    if odd >> i & 1:
        return 0
    return -1 if (odd & ((1 << i) - 1)).bit_count() & 1 else 1


def _leg_sign(koszul, odd) -> int:
    """The sign reordering x^(m-k) x^k into x^m, for the ``koszul`` mask of m
    and the odd mask of k: the parity of ``koszul & odd`` plus |odd| // 2."""
    return -1 if ((koszul & odd).bit_count() + (odd.bit_count() >> 1)) & 1 else 1


def _coproduct_legs(parities, mono):
    """The legs of the coproduct of primitive letters on the canonical
    monomial x^m, as (m - k, k, odd mask of m - k, odd mask of k, C(m, k)
    times the sign of ``_leg_sign``), k <= m in lexicographic order."""
    odd_m, koszul, _ = _shape(parities, mono)
    bits = tuple(1 << i if p == ODD else 0 for i, p in enumerate(parities))
    for k in itertools.product(*(range(e + 1) for e in mono)):
        odd = sum(map(mul, k, bits))
        c = math.prod(map(math.comb, mono, k))
        yield tuple(map(sub, mono, k)), k, odd_m ^ odd, odd, _leg_sign(koszul, odd) * c


def coproduct_terms(parities, terms) -> dict:
    """The coproduct of primitive letters on {monomial: coeff} terms, as
    {(monomial, monomial): coefficient}:

        Delta(x^m) = sum_{k <= m} prod_i C(m_i, k_i) (Koszul sign) x^(m-k) (x) x^k,

    with the legs of ``_coproduct_legs``, monomial by monomial.  It is the
    coproduct of S(q) and of U(g) on PBW monomials, whose letters come in
    increasing order and so multiply in U(g) (x) U(g) without brackets.
    """
    return {(rest, k): coeff * v for mono, coeff in terms.items() for rest, k, *_, v in _coproduct_legs(parities, mono)}


def _check_tables(table, polys):
    for p in polys:
        if p.table is not table and p.table != table:
            raise ValueError("polynomials live over different variable tables")


def _scaled_terms(parities, p, den, masks) -> list:
    """The terms of ``p`` as ``_shaped`` terms, each numerator over ``den``,
    a multiple of the denominator of ``p``."""
    d, terms = p.form
    s = den // d
    return _shaped(parities, ((m, v * s) for m, v in terms.items()), masks)


def _shaped(parities, items, masks) -> list:
    """The (monomial, int) ``items``, a monomial a tuple or its packed key
    (exponent i in byte i), as (key, odd, koszul, even degree, int), with
    the key and the masks of ``_shape`` memoised per monomial in ``masks``."""
    out = []
    for m, v in items:
        s = masks.get(m)
        if s is None:
            mono = tuple(m.to_bytes(len(parities), "little")) if type(m) is int else m
            s = masks[m] = (int.from_bytes(bytes(mono), "little"), *_shape(parities, mono))
        out.append((*s, v))
    return out


def _packed_poly(table: VariableTable, den, nums) -> "SuperPolynomial":
    """The SuperPolynomial of {packed key: nonzero int} ``nums`` over ``den``."""
    n = len(table.parities)
    return _poly(table, (den, {tuple(k.to_bytes(n, "little")): v for k, v in nums.items()}))


def _shape_rows(table: VariableTable, rows, masks) -> tuple:
    """(den, shaped) for a matrix of polynomials over ``table``: ``den`` is the
    lcm of all its denominators and ``shaped[i][j]`` is ``_scaled_terms`` of
    entry (i, j).  Shaping a factor once serves every product it enters
    through ``_accumulate``."""
    _check_tables(table, itertools.chain.from_iterable(rows))
    den = math.lcm(*(e.form[0] for row in rows for e in row))
    parities = table.parities
    return den, [[_scaled_terms(parities, e, den, masks) for e in row] for row in rows]


def _accumulate(table: VariableTable, pairs) -> dict:
    """l_1 r_1 + ... + l_k r_k for (l, r) pairs of shaped terms, as {packed
    key: int} over the product of the two sides' denominators: the products
    accumulate as plain ints, with the Koszul sign of each as a popcount and
    its monomial as the sum of two keys, and a key whose running sum reaches
    0 leaves the dict.  A product that passes the odd-mask and even-degree
    checks has no exponent above the order (<= 255), so no byte carries."""
    order = table.truncation_order
    limit = 0 if order is None else order  # no even letters without an order
    acc = {}
    for left, right in pairs:
        for k1, odd1, koszul1, even1, c1 in left:
            room = limit - even1
            for k2, odd2, _, even2, c2 in right:
                if odd1 & odd2 or even2 > room:
                    continue
                c = c1 * c2
                if (koszul1 & odd2).bit_count() & 1:
                    c = -c
                m = k1 + k2
                v = acc.get(m, 0) + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
    return acc


def _products(table: VariableTable, left, right, n_cols) -> list:
    """The entries of A B as ``_accumulate`` dicts, for A and B shaped rows
    (k may be 0): entry (i, j) sums row i of A against column j of B."""
    return [
        [_accumulate(table, [(a, row[j]) for a, row in zip(lrow, right) if a and row[j]]) for j in range(n_cols)]
        for lrow in left
    ]


def sum_of_products(table: VariableTable, pairs) -> SuperPolynomial:
    """a_1 b_1 + ... + a_k b_k for the (a, b) polynomial pairs over ``table``.

    The left factors are shaped over the lcm of their denominators, the
    right ones over the lcm of theirs, and ``_accumulate`` sums the products
    over the product of the two lcms.
    """
    pairs = [(a, b) for a, b in pairs if a.form[1] and b.form[1]]
    _check_tables(table, itertools.chain.from_iterable(pairs))
    left_den = math.lcm(*(a.form[0] for a, _ in pairs))
    right_den = math.lcm(*(b.form[0] for _, b in pairs))
    parities, masks = table.parities, {}
    return _packed_poly(table, left_den * right_den, _accumulate(table, [
        (_scaled_terms(parities, a, left_den, masks), _scaled_terms(parities, b, right_den, masks)) for a, b in pairs
    ]))


def matrix_product(table: VariableTable, a_rows, b_rows, n_cols) -> list:
    """The rows of A B for A given by ``a_rows`` (m x k) and B by ``b_rows``
    (k x ``n_cols``; k may be 0), entries polynomials over ``table``.  Every
    entry of A and of B is shaped once (``_shape_rows``), and entry (i, j) is
    one ``_accumulate`` over row i of A and column j of B."""
    masks = {}
    left_den, left = _shape_rows(table, a_rows, masks)
    right_den, right = _shape_rows(table, b_rows, masks)
    den = left_den * right_den
    return [[_packed_poly(table, den, e) for e in row] for row in _products(table, left, right, n_cols)]


class PowerChain:
    """The powers x^0, x^1, ... of a square matrix x of polynomials over one
    table (a polynomial is a 1 x 1 matrix), kept as shaped int rows (den,
    [[(packed key, odd, koszul, even degree, int)]]).  x is shaped once;
    x^(k+1) = x^k x is one ``_accumulate`` per entry, divided through by its
    gcd and shaped from the ints with the masks of each monomial memoised in
    the chain.  No Fraction is built until ``rows`` reads a power out; the
    chain dies with its owner, the call or the ``GenericPoint`` that keeps
    the powers of ad y.
    """

    __slots__ = ("table", "powers", "_masks")

    def __init__(self, table: VariableTable, rows):
        self.table, self._masks = table, {}
        den, x = _shape_rows(table, rows, self._masks)
        unit = (0, 0, 0, 0, 1)
        self.powers = [(1, [[[unit] if i == j else [] for j in range(len(x))] for i in range(len(x))]), (den, x)]

    def _push(self, den, entries):
        """Append the power with ``_accumulate`` dicts ``entries`` over ``den``."""
        g = math.gcd(den, *(v for row in entries for e in row for v in e.values()))
        parities, masks = self.table.parities, self._masks
        rows = [[_shaped(parities, ((k, v // g) for k, v in e.items()), masks) for e in row] for row in entries]
        self.powers.append((den // g, rows))

    def power(self, k: int) -> tuple:
        """(den, shaped rows) of x^k, each power below it formed once."""
        powers = self.powers
        while len(powers) <= k:
            (den, rows), (x_den, x) = powers[-1], powers[1]
            self._push(den * x_den, _products(self.table, rows, x, len(x)))
        return powers[k]

    def rows(self, k: int) -> list:
        """x^k as rows of SuperPolynomials."""
        den, rows = self.power(k)
        return [[_packed_poly(self.table, den, {m: v for m, *_, v in e}) for e in row] for row in rows]


def _combine(pairs, den=1) -> tuple:
    """(s_1 f_1 + ... + s_k f_k) / den for (s, f) pairs of int scalars s and
    forms f = (d, {key: nonzero int}), as a form in lowest terms.

    Every form is scaled to the lcm of the d, so the products accumulate as
    plain ints; a key whose running sum reaches zero leaves the dict, so the
    keys come in the order of the term-by-term sum.
    """
    pairs = [(s, f) for s, f in pairs if s and f[1]]
    lcm = math.lcm(*[d for _, (d, _) in pairs])
    acc = {}
    for s, (d, terms) in pairs:
        s *= lcm // d
        for key, v in terms.items():
            t = acc.get(key, 0) + s * v
            if t:
                acc[key] = t
            else:
                del acc[key]
    return _lowest((den * lcm, acc))


def _lowest(form) -> tuple:
    """A form (den > 0, {key: nonzero int}) divided through by the gcd of
    den and its ints: the canonical form, (1, {}) for zero."""
    den, terms = form
    g = math.gcd(den, *terms.values())
    return (den // g, {key: v // g for key, v in terms.items()}) if g > 1 else form


def _scale(form, c) -> tuple:
    """The canonical form c f of a canonical form f and a rational c."""
    c = Fraction(c)
    den, terms = form
    return _lowest((den * c.denominator, {key: v * c.numerator for key, v in terms.items()} if c else {}))


def _form(terms) -> tuple:
    """{key: nonzero rational} as a canonical form, over the lcm of the
    denominators."""
    den = math.lcm(*[v.denominator for v in terms.values()])
    return den, {key: v.numerator * (den // v.denominator) for key, v in terms.items()}


def _fractions(form) -> dict:
    return {key: Fraction(v, form[0]) for key, v in form[1].items()}


def _poly(table: VariableTable, form: tuple) -> SuperPolynomial:
    """The SuperPolynomial of a form (den > 0, {monomial: nonzero int}) whose
    monomials are canonical and within the truncation, in lowest terms."""
    p = object.__new__(SuperPolynomial)
    p.table, p.form, p._terms = table, _lowest(form), None
    return p


def _render(terms, names) -> str:
    """{monomial: coefficient} over the letter ``names`` as text, by (degree,
    monomial): ``0``, or pieces ``c``, ``x``, ``-x``, ``c x*y^2`` joined by + and -."""
    pieces = []
    for mono in sorted(terms, key=lambda m: (sum(m), m)):
        coeff = terms[mono]
        letters = "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e)
        if not letters:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(letters)
        elif coeff == -1:
            pieces.append(f"-{letters}")
        else:
            pieces.append(f"{coeff} {letters}")
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def power_sum(coeffs, chain: PowerChain) -> list:
    """c_0 x^0 + c_1 x^1 + ... for the nilpotent x of ``chain``, as rows of
    SuperPolynomials; the packed keys become tuples once, in the sum.

    A power is formed only when its coefficient is nonzero, in increasing k,
    and the sum stops at the first one that is zero or when ``coeffs`` runs
    out.  Each entry of the sum is one ``_combine`` of the kept powers' ints
    with the coefficients as int ratios.
    """
    kept = []
    for k, c in enumerate(coeffs):
        if c:
            den, rows = chain.power(k)
            if not any(map(any, rows)):
                break
            c = Fraction(c)
            kept.append((c.numerator, den * c.denominator, rows))
    n = len(chain.powers[0][1])
    return [
        [_packed_poly(chain.table, *_combine([(s, (d, {m: v for m, *_, v in rows[i][j]})) for s, d, rows in kept]))
         for j in range(n)]
        for i in range(n)
    ]


def truncate_even_degree(p: SuperPolynomial, order: int) -> SuperPolynomial:
    """Drop the terms whose even-variable degree exceeds ``order``."""
    table, (den, terms) = p.table, p.form
    return _poly(table, (den, {m: v for m, v in terms.items() if table.even_degree(m) <= order}))


def exhaustive_monomials(table, max_degree: int):
    """All canonical monomials of total degree <= max_degree over the
    ``parities`` of a VariableTable, or of a LieSuperAlgebra (its PBW
    monomials), as a list in lexicographic order.  It is grown from the
    last variable, each step keeping only the monomials within the bound."""
    monos = [()] if max_degree >= 0 else []
    for p in reversed(table.parities):
        monos = [(e, *m) for e in range(2 if p == ODD else max_degree + 1) for m in monos if e + sum(m) <= max_degree]
    return monos
