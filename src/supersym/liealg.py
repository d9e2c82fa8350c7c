"""Finite-dimensional Lie superalgebras given by structure constants.

An algebra is an ordered homogeneous basis plus the brackets [e_i, e_j]
stored for i <= j; the other half is reconstructed through
super-antisymmetry.  The super-Jacobi identity is checked, not assumed.

Elements of g (and of g tensored with a supercommutative coefficient
algebra) are dicts {basis index: coefficient}; coefficients are Fractions
or SuperPolynomials written on the right of the basis vector, so the
bracket picks up one Koszul sign when a coefficient crosses a basis
vector:

    [e_i f, e_j g] = (-1)^{p(f) p(e_j)} [e_i, e_j] f g.

SuperMatrix holds the matrix of a right-linear operator in such a basis
(columns are images of basis vectors, coefficients on the right), so
matrix composition is the plain row-by-column product with no signs; all
sign bookkeeping lives in the supertrace and in how matrices are built.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .superpoly import (
    EVEN,
    ODD,
    SuperPolynomial,
    VariableTable,
    _accumulate,
    _combine,
    PowerChain,
    _poly,
    matrix_product,
    parity_of,
    power_sum,
    sum_of_products,
)


def coefficient_parity(c) -> int:
    """Parity of a scalar coefficient; homogeneous SuperPolynomials only."""
    if isinstance(c, (int, Fraction)):
        return EVEN
    p = c.parity()
    if p is None:
        raise ValueError("coefficient is not parity-homogeneous")
    return p


def _is_zero_coeff(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


class LieSuperAlgebra:
    """Basis with parities plus structure constants: ``brackets`` as given,
    {(i, j): {k: Fraction}} for i <= j, and ``int_brackets[i][j]``, [e_i, e_j]
    for both index orders as {k: int} over the one denominator
    ``bracket_den``, read by the integer kernels."""

    def __init__(self, names, parities, brackets, check=True):
        self.names = tuple(names)
        self.parities = tuple(parity_of(p) for p in parities)
        if len(self.names) != len(self.parities):
            raise ValueError("one parity per basis element required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        self._index = {n: i for i, n in enumerate(self.names)}
        store = {}
        for (i, j), comps in brackets.items():
            if i > j:
                raise ValueError(f"brackets must be stored for i <= j, got ({i},{j})")
            cleaned = {k: Fraction(c) for k, c in comps.items() if c != 0}
            if not cleaned:
                continue
            pij = (self.parities[i] + self.parities[j]) % 2
            for k in cleaned:
                if self.parities[k] != pij:
                    raise ValueError(
                        f"bracket [{self.names[i]},{self.names[j]}] has a component on "
                        f"{self.names[k]} of the wrong parity"
                    )
            if i == j and self.parities[i] == EVEN:
                raise ValueError(f"[{self.names[i]},{self.names[i]}] must vanish for even elements")
            store[(i, j)] = cleaned
        self.brackets = store
        self.bracket_den = den = math.lcm(*(c.denominator for comps in store.values() for c in comps.values()))
        n = len(self.names)
        self.int_brackets = ints = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j), comps in store.items():
            ints[i][j] = {k: c.numerator * (den // c.denominator) for k, c in comps.items()}
            sign = -1 if (self.parities[i] * self.parities[j]) % 2 == 0 else 1
            ints[j][i] = {k: sign * v for k, v in ints[i][j].items()}
        # per-instance memos of the enveloping-algebra machinery, as forms
        self._mono_product_cache = {}
        self._symmetrize_cache = {}
        if check:
            ok, witness = self.check_jacobi()
            if not ok:
                raise ValueError(f"structure constants violate the super-Jacobi identity at {witness}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown basis element {name!r}") from None

    def parity(self, i: int) -> int:
        return self.parities[i]

    def even_indices(self):
        return [i for i, p in enumerate(self.parities) if p == EVEN]

    def odd_indices(self):
        return [i for i, p in enumerate(self.parities) if p == ODD]

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as {k: Fraction}, for any index order."""
        return {k: Fraction(v, self.bracket_den) for k, v in self.int_brackets[i][j].items()}

    def bracket(self, u: dict, v: dict) -> dict:
        """Bracket of two elements with (right-side) coefficients."""
        out = {}
        for i, f in u.items():
            if _is_zero_coeff(f):
                continue
            pf = coefficient_parity(f)
            for j, g in v.items():
                if _is_zero_coeff(g):
                    continue
                sign = -1 if (pf * self.parities[j]) % 2 else 1
                fg = f * g
                if _is_zero_coeff(fg):
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    term = fg * c * sign
                    acc = out.get(k)
                    acc = term if acc is None else acc + term
                    if _is_zero_coeff(acc):
                        out.pop(k, None)
                    else:
                        out[k] = acc
        return out

    def element_parity(self, u: dict):
        """Parity of an element; None when inhomogeneous."""
        seen = set()
        for i, c in u.items():
            if _is_zero_coeff(c):
                continue
            seen.add((self.parities[i] + coefficient_parity(c)) % 2)
        if not seen:
            return EVEN
        if len(seen) == 1:
            return seen.pop()
        return None

    def check_jacobi(self):
        """Super-Jacobi on the basis triples a <= b <= c; (True, None) or
        (False, witness).

        The Jacobiator is graded-antisymmetric in its arguments, so it
        vanishes on every triple when it vanishes on the sorted ones, and
        the first failing triple in lexicographic order is a sorted one.
        The sums run over ``int_brackets``; a residual is rebuilt as
        Fractions over ``bracket_den`` squared.
        """
        n = self.dim
        parities, ints = self.parities, self.int_brackets
        for a in range(n):
            for b in range(a, n):
                for c in range(b, n):
                    acc = {}
                    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                        sign = -1 if parities[x] & parities[z] else 1
                        for m, cm in ints[y][z].items():
                            for k, ck in ints[x][m].items():
                                acc[k] = acc.get(k, 0) + sign * cm * ck
                    if any(acc.values()):
                        den = self.bracket_den ** 2
                        residual = {self.names[k]: Fraction(v, den) for k, v in acc.items() if v}
                        return False, (self.names[a], self.names[b], self.names[c], residual)
        return True, None

    def __repr__(self):
        return f"LieSuperAlgebra({', '.join(self.names)})"


class SymmetricPair:
    """Algebra with an involution: q (the -1 eigenspace) first, then h.

    The basis order is part of the contract: the q indices must form the
    initial segment, so that normal-ordered monomials factor as
    (q part)(h part) and the quotient machinery can project on the first
    factor.

    ``sq_table`` realizes S(q) as polynomials in the q vectors themselves;
    when q has even vectors it is truncated at even degree 24, and the
    coderivations refuse to act where that would drop terms.  ``coderiv``
    fills four memos that die with the pair: ``tau_memo`` ({PBW monomial
    m: C_1^m(1)} as forms, seeded with 1; tau reads only the q-part of an
    element, so m is a q-monomial), ``nest_memo`` ({a: the degree
    levels of the nests S(K)(a)} of ``coderiv._nest_levels``, read by C_c,
    Theta and the fields f(ad y)(a)), ``p_c_memo`` ({(c, degree): p_c}) and
    ``generators_memo`` (the indices of ``coderiv.lie_generators``).
    """

    def __init__(self, algebra: LieSuperAlgebra, h_indices):
        self.algebra = algebra
        h = sorted(set(h_indices))
        q = [i for i in range(algebra.dim) if i not in set(h)]
        if h != list(range(len(q), algebra.dim)):
            raise ValueError("the h part must occupy the final segment of the basis order")
        self.h_indices = h
        self.q_indices = q
        self._check_eigenspaces()
        parities = [algebra.parities[i] for i in q]
        truncation = None if all(p == ODD for p in parities) else 24
        self.sq_table = VariableTable([algebra.names[i] for i in q], parities, truncation)
        self.tau_memo = {(0,) * algebra.dim: (1, {(0,) * len(q): 1})}
        self.nest_memo = {}
        self.p_c_memo = {}
        self.generators_memo = None

    def _check_eigenspaces(self):
        alg = self.algebra
        hset = set(self.h_indices)
        for (i, j), comps in alg.brackets.items():
            target_in_h = (i in hset) == (j in hset)
            for k in comps:
                if (k in hset) != target_in_h:
                    raise ValueError(
                        f"bracket [{alg.names[i]},{alg.names[j]}] leaves the eigenspace "
                        "decomposition required of a symmetric pair"
                    )

    def sigma_sign(self, i: int) -> int:
        """+1 on h, -1 on q."""
        return 1 if self.in_h(i) else -1

    def in_h(self, i: int) -> bool:
        return i >= len(self.q_indices)

    def q_purely_odd(self) -> bool:
        return all(self.algebra.parities[i] == ODD for i in self.q_indices)

    def q_supertraces(self) -> dict:
        """{a: str over the q block of ad a} for every basis vector a of h."""
        alg, ints = self.algebra, self.algebra.int_brackets
        return {
            a: Fraction(sum((-1) ** alg.parities[i] * ints[a][i].get(i, 0) for i in self.q_indices), alg.bracket_den)
            for a in self.h_indices
        }

    def check_unimodularity(self):
        """str over the q block of ad a, for every basis a in h.

        Returns (True, []) or (False, witnesses) where each witness is
        (name of a, supertrace value).
        """
        bad = [(self.algebra.names[a], s) for a, s in self.q_supertraces().items() if s != 0]
        return (not bad), bad

    def __repr__(self):
        alg = self.algebra
        q = ",".join(alg.names[i] for i in self.q_indices)
        h = ",".join(alg.names[i] for i in self.h_indices)
        return f"SymmetricPair(q=[{q}], h=[{h}])"


# ---------------------------------------------------------------------------
# matrices over a super-polynomial ring
# ---------------------------------------------------------------------------

class SuperMatrix:
    """Matrix of a right-linear operator on a free graded module.

    ``entries[i][j]`` is the e_i component of the image of e_j; entries are
    SuperPolynomials over one shared table.  Entry (i, j) must be zero or
    homogeneous of parity p(e_i) + p(e_j) + p(operator).

    A product goes through ``superpoly.matrix_product``: every entry of
    both factors is scaled to its factor's common denominator and shaped
    once, and entry (i, j) accumulates row i against column j as ints.  A
    polynomial multiplies each entry from the side it is written on.
    Determinants and inverses, of even operators on a module of one parity,
    come from the characteristic coefficients (``_characteristic``).
    """

    __slots__ = ("table", "module_parities", "op_parity", "entries")

    def __init__(self, table: VariableTable, module_parities, entries, op_parity=EVEN, check=True):
        self.table = table
        self.module_parities = tuple(parity_of(p) for p in module_parities)
        self.op_parity = parity_of(op_parity)
        n = len(self.module_parities)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entries must be a square matrix over the module basis")
        self.entries = [list(row) for row in entries]
        if check:
            for i in range(n):
                for j in range(n):
                    e = self.entries[i][j]
                    if e.table is not table and e.table != table:
                        raise ValueError("all entries must share the matrix's variable table")
                    p = e.parity()
                    want = (self.module_parities[i] + self.module_parities[j] + self.op_parity) % 2
                    if p is not None and not e.is_zero() and p != want:
                        raise ValueError(f"entry ({i},{j}) has parity {p}, expected {want}")
                    if p is None:
                        raise ValueError(f"entry ({i},{j}) is not parity-homogeneous")

    @classmethod
    def zero(cls, table, module_parities, op_parity=EVEN):
        n = len(module_parities)
        z = table.zero()
        return cls(table, module_parities, [[z] * n for _ in range(n)], op_parity, check=False)

    @classmethod
    def identity(cls, table, module_parities):
        n = len(module_parities)
        rows = [[table.one() if i == j else table.zero() for j in range(n)] for i in range(n)]
        return cls(table, module_parities, rows, EVEN, check=False)

    @property
    def size(self):
        return len(self.module_parities)

    def __add__(self, other):
        if self.op_parity != other.op_parity:
            raise ValueError("cannot add operators of different parity")
        if self.module_parities != other.module_parities:
            raise ValueError("cannot add operators on different modules")
        n = self.size
        rows = [
            [self.entries[i][j] + other.entries[i][j] for j in range(n)] for i in range(n)
        ]
        return SuperMatrix(self.table, self.module_parities, rows, self.op_parity, check=False)

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def _with_rows(self, rows, op_parity):
        return SuperMatrix(self.table, self.module_parities, rows, op_parity % 2, check=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._with_rows([[e * other for e in row] for row in self.entries], self.op_parity)
        if isinstance(other, SuperPolynomial):
            rows = [[e * other for e in row] for row in self.entries]
            return self._with_rows(rows, self.op_parity + coefficient_parity(other))
        rows = matrix_product(self.table, self.entries, other.entries, self.size)
        return self._with_rows(rows, self.op_parity + other.op_parity)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, SuperPolynomial):
            rows = [[other * e for e in row] for row in self.entries]
            return self._with_rows(rows, self.op_parity + coefficient_parity(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.op_parity == other.op_parity
            and self.module_parities == other.module_parities
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.size)
                for j in range(self.size)
            )
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def supertrace(self) -> SuperPolynomial:
        """str X = sum_i (-1)^{p_i (p_i + p_X)} X_ii."""
        table = self.table
        return sum_of_products(table, [
            (self.entries[i][i], table.constant(-1 if (p * (p + self.op_parity)) % 2 else 1))
            for i, p in enumerate(self.module_parities)
        ])

    def restrict(self, indices) -> "SuperMatrix":
        indices = list(indices)
        rows = [[self.entries[i][j] for j in indices] for i in indices]
        return SuperMatrix(
            self.table,
            [self.module_parities[i] for i in indices],
            rows,
            self.op_parity,
            check=False,
        )

    def exp(self) -> "SuperMatrix":
        """exp of an operator whose entries vanish at zero (nilpotent)."""
        if any(e.evaluate_at_zero() != 0 for row in self.entries for e in row):
            raise ValueError("exp requires entries with zero constant term")
        coeffs = (Fraction(1, math.factorial(k)) for k in itertools.count())
        return self._with_rows(power_sum(coeffs, PowerChain(self.table, self.entries)), EVEN)

    def _characteristic(self) -> list:
        """[e_0, ..., e_n], the coefficients of det(t - X) = sum_k (-1)^k e_k
        t^(n-k), for an even X on a module of one parity p.  Its entries are
        even, so they commute and Newton's identities
        k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) tr(X^i) hold over Q, with
        tr = (-1)^p str read off the half powers by ``supertraces_of_powers``."""
        if self.op_parity != EVEN or len(set(self.module_parities)) > 1:
            raise ValueError("the determinant needs an even operator on a module of one parity")
        n, table = self.size, self.table
        sign = -1 if ODD in self.module_parities else 1
        traces = supertraces_of_powers(self, range(1, n + 1))
        signed = {i: s * (sign if i % 2 else -sign) for i, s in traces.items()}
        e = [table.one()]
        for k in range(1, n + 1):
            e.append(sum_of_products(table, [(e[k - i], signed[i]) for i in range(1, k + 1)]) * Fraction(1, k))
        return e

    def determinant(self) -> SuperPolynomial:
        """det X = e_n of ``_characteristic``."""
        return self._characteristic()[-1]

    def _inverse(self, e) -> "SuperMatrix":
        """X^-1 = (-1)^(n+1) e_n^-1 sum_{k<n} (-1)^k e_k X^(n-1-k) by
        Cayley-Hamilton, from the characteristic coefficients ``e`` of X and
        its full powers on one ``PowerChain``; e_n must be invertible."""
        n, table = self.size, self.table
        chain, scale = PowerChain(table, self.entries), e[n].inverse()
        terms = [(e[k] * scale * (-1) ** (n + 1 + k), chain.rows(n - 1 - k)) for k in range(n)]
        return self._with_rows([
            [sum_of_products(table, [(c, power[i][j]) for c, power in terms]) for j in range(n)] for i in range(n)
        ], EVEN)

    def berezinian(self) -> SuperPolynomial:
        """Ber X = det(A - B D^{-1} C) det(D)^{-1} for even invertible X,
        in the block decomposition along even/odd module basis vectors."""
        if self.op_parity != EVEN:
            raise ValueError("the Berezinian is defined for even operators")
        ev = [i for i, p in enumerate(self.module_parities) if p == EVEN]
        od = [i for i, p in enumerate(self.module_parities) if p == ODD]
        table = self.table

        def block(rows_idx, cols_idx):
            return [[self.entries[i][j] for j in cols_idx] for i in rows_idx]

        if not ev and not od:
            return table.one()
        if od:
            d = SuperMatrix(table, [ODD] * len(od), block(od, od), EVEN, check=False)
            e_d = d._characteristic()
            det_d = e_d[-1]
            if det_d.evaluate_at_zero() == 0:
                raise ValueError("odd-odd block is not invertible at zero")
        if not ev:
            return det_d.inverse()
        a = SuperMatrix(table, [EVEN] * len(ev), block(ev, ev), EVEN, check=False)
        if not od:
            return a.determinant()
        d_inv = d._inverse(e_d)
        b_rows = block(ev, od)
        c_rows = block(od, ev)
        # Schur complement A - (B D^{-1}) C: B D^{-1} in one matrix_product,
        # then one sum_of_products per entry.
        n_e, n_o = len(ev), len(od)
        bd = matrix_product(table, b_rows, d_inv.entries, n_o)
        one = table.one()
        schur_rows = [
            [
                sum_of_products(table, [(a.entries[i][j], one)] + [(bd[i][m], -c_rows[m][j]) for m in range(n_o)])
                for j in range(n_e)
            ]
            for i in range(n_e)
        ]
        schur = SuperMatrix(table, [EVEN] * n_e, schur_rows, EVEN, check=False)
        return schur.determinant() * det_d.inverse()

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        )
        return f"SuperMatrix({body})"


def supertraces_of_powers(mat: SuperMatrix, ks) -> dict:
    """{k: str(M^k)} for the k in ``ks``, in that order, M an even operator:
    str(M^k) = sum_{i,j} (-1)^{p_i} (M^a)_ij (M^b)_ji with a = ceil(k/2),
    b = floor(k/2), in one ``_accumulate`` of the half powers, which a
    ``PowerChain`` of M forms once each as shaped ints.  J_c, the
    full-group Jacobian and the determinant read their traces here."""
    if mat.op_parity != EVEN:
        raise ValueError("supertraces of powers need an even operator")
    table, chain, out = mat.table, PowerChain(mat.table, mat.entries), {}
    for k in ks:
        (left_den, left), (right_den, right) = chain.power((k + 1) // 2), chain.power(k // 2)
        out[k] = _poly(table, (left_den * right_den, _accumulate(table, [
            ([(m, o, z, d, -c) for m, o, z, d, c in e] if p == ODD else e, right[j][i])
            for i, p in enumerate(mat.module_parities) for j, e in enumerate(left[i])
        ])))
    return out


def ad_matrix(alg: LieSuperAlgebra, element: dict, table: VariableTable) -> SuperMatrix:
    """Matrix of ad(element) on the basis of the algebra.

    The element has SuperPolynomial (or Fraction) coefficients over
    ``table``; its parity must be homogeneous.  Entry (i, j) is the e_i
    component of [element, e_j], sum over k of
    (-1)^{p(f_k) p(e_j)} c_kj^i f_k for the coefficient f_k of e_k: one
    ``superpoly._combine`` of the integer forms of the f_k with the
    ``int_brackets`` as scalars, in k order.
    """
    element = {
        i: (table.constant(c) if isinstance(c, (int, Fraction)) else c)
        for i, c in element.items()
    }
    op_parity = alg.element_parity(element)
    if op_parity is None:
        raise ValueError("ad of a parity-inhomogeneous element")
    if any(f.table is not table and f.table != table for f in element.values()):
        raise ValueError("polynomials live over different variable tables")
    coeffs = [(k, coefficient_parity(f), f.form) for k, f in element.items() if f.form[1]]
    n = alg.dim
    pairs = [[[] for _ in range(n)] for _ in range(n)]  # entry (i, j): its (scalar, form) pairs in k order
    for j, pj in enumerate(alg.parities):
        for k, pf, f in coeffs:
            sign = -1 if pf & pj else 1
            for i, c in alg.int_brackets[k][j].items():
                pairs[i][j].append((sign * c, f))
    zero = table.zero()
    rows = [[_poly(table, _combine(p, alg.bracket_den)) if p else zero for p in row] for row in pairs]
    return SuperMatrix(table, alg.parities, rows, op_parity)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _supercommutator(x_rows, y_rows, px, py):
    n = len(x_rows)
    sign = -1 if (px * py) % 2 else 1
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Fraction(0)
            for k in range(n):
                s += x_rows[i][k] * y_rows[k][j] - sign * y_rows[i][k] * x_rows[k][j]
            out[i][j] = s
    return out


def _structure_constants_from_matrices(mats, parities):
    """Brackets of a list of matrices (a defining representation), expanded
    back over the given matrix basis by exact linear solving."""
    dim = len(mats)
    size = len(mats[0])
    columns = [[m[i][j] for i in range(size) for j in range(size)] for m in mats]
    basis_matrix = [[columns[b][e] for b in range(dim)] for e in range(size * size)]
    brackets = {}
    for i in range(dim):
        for j in range(i, dim):
            comm = _supercommutator(mats[i], mats[j], parities[i], parities[j])
            flat = [comm[r][c] for r in range(size) for c in range(size)]
            coeffs = linalg.solve(basis_matrix, flat)
            comps = {k: c for k, c in enumerate(coeffs) if c != 0}
            if comps:
                brackets[(i, j)] = comps
    return brackets


def algebra_from_matrices(names, parities, mats, check=True) -> LieSuperAlgebra:
    """Lie superalgebra whose structure constants are read off a faithful
    matrix realization (supercommutators expanded back over the basis)."""
    parities = [parity_of(p) for p in parities]
    brackets = _structure_constants_from_matrices(
        [[[Fraction(x) for x in row] for row in m] for m in mats], parities
    )
    return LieSuperAlgebra(names, parities, brackets, check=check)


def catalog(name: str):
    """Built-in algebras, with their default symmetric pair (q = odd part
    first, h = even part).  Returns (algebra, pair).
    """
    if name.startswith("abelian(") and name.endswith(")"):
        inner = name[len("abelian(") : -1]
        p_str, q_str = inner.split(",")
        p, q = int(p_str), int(q_str)
        names = [f"e{i+1}" for i in range(q)] + [f"a{i+1}" for i in range(p)]
        parities = [ODD] * q + [EVEN] * p
        alg = LieSuperAlgebra(names, parities, {})
        pair = SymmetricPair(alg, range(q, q + p))
        return alg, pair

    if name in ("osp12", "gl11"):
        mats, parities, _ = defining_matrices(name)
        names = ["e", "f", "H", "E", "F"] if name == "osp12" else ["x12", "x21", "d1", "d2"]
        alg = algebra_from_matrices(names, parities, mats)
        return alg, SymmetricPair(alg, alg.even_indices())
    if name == "heisenberg_super":
        names = ["th1", "th2", "z"]
        parities = [ODD, ODD, EVEN]
        alg = LieSuperAlgebra(names, parities, {(0, 1): {2: Fraction(1)}})
        return alg, SymmetricPair(alg, [2])
    if name == "solvable2":
        # purely even: [x, y] = y
        alg = LieSuperAlgebra(["x", "y"], [EVEN, EVEN], {(0, 1): {1: Fraction(1)}})
        return alg, SymmetricPair(alg, [0, 1])
    raise KeyError(f"unknown catalog algebra {name!r}")


def defining_matrices(name: str):
    """The matrices behind the catalog entries: the defining
    representations of osp(1|2) on a (1|2)-dimensional space (v0 even,
    v1, v2 odd, preserving the even supersymmetric form B(v0,v0)=1,
    B(v1,v2)=-B(v2,v1)=1; odd generators first, then sl(2) on
    span(v1, v2)) and of gl(1|1) on a (1|1)-dimensional space.

    Returns (matrices, algebra parities, module parities).
    """
    F = Fraction

    def mat(rows):
        return [[F(x) for x in row] for row in rows]

    if name == "osp12":
        e = mat([[0, 0, -1], [1, 0, 0], [0, 0, 0]])
        f = mat([[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        H = mat([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
        E = mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        Fm = mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        return [e, f, H, E, Fm], [ODD, ODD, EVEN, EVEN, EVEN], [EVEN, ODD, ODD]
    if name == "gl11":
        E12 = mat([[0, 1], [0, 0]])
        E21 = mat([[0, 0], [1, 0]])
        E11 = mat([[1, 0], [0, 0]])
        E22 = mat([[0, 0], [0, 1]])
        return [E12, E21, E11, E22], [ODD, ODD, EVEN, EVEN], [EVEN, ODD]
    raise KeyError(name)
