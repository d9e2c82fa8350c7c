import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersym import liealg
from supersym.liealg import (
    LieSuperAlgebra,
    SuperMatrix,
    SymmetricPair,
    ad_matrix,
    catalog,
    defining_matrices,
)
from supersym.superpoly import EVEN, ODD, SuperPolynomial, VariableTable, exhaustive_monomials

from conftest import ORACLE_PAIRS, apply_matrix, diagonal_pair, oracle_ad_matrix, oracle_determinant


def matrix_table(order=6):
    return VariableTable(["s", "u1", "u2"], [EVEN, ODD, ODD], order)


def random_entry(table, rng, parity, max_degree=2):
    monos = [
        m
        for m in exhaustive_monomials(table, max_degree)
        if table.monomial_parity(m) == parity
    ]
    out = table.zero()
    for _ in range(2):
        mono = rng.choice(monos)
        out = out + SuperPolynomial(table, {mono: Fraction(rng.randint(-3, 3))})
    return out


def random_even_matrix(table, module_parities, rng, invertible=True, max_degree=2):
    """Random even operator; with ``invertible`` the constant part is
    unipotent upper triangular inside each parity block."""
    n = len(module_parities)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            parity = (module_parities[i] + module_parities[j]) % 2
            e = random_entry(table, rng, parity, max_degree)
            if parity == EVEN:
                e = e - e.evaluate_at_zero()
                if invertible:
                    if i == j:
                        e = e + 1
                    elif rng.random() < 0.5 and module_parities[i] == module_parities[j] and i < j:
                        e = e + rng.randint(-2, 2)
                else:
                    e = e + rng.randint(-2, 2)
            row.append(e)
        rows.append(row)
    return SuperMatrix(table, module_parities, rows, EVEN)


def random_nilpotent_even_matrix(table, module_parities, rng, max_degree=2):
    m = random_even_matrix(table, module_parities, rng, invertible=True, max_degree=max_degree)
    rows = [[e - e.evaluate_at_zero() for e in row] for row in m.entries]
    return SuperMatrix(table, module_parities, rows, EVEN, check=False)


class TestAlgebraConstruction:
    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            LieSuperAlgebra(
                ["a", "b"], [EVEN, ODD], {(0, 1): {0: Fraction(1)}}
            )

    def test_even_self_bracket_rejected(self):
        with pytest.raises(ValueError):
            LieSuperAlgebra(["a"], [EVEN], {(0, 0): {0: Fraction(1)}})

    def test_antisymmetry_reconstruction(self):
        alg, _ = catalog("solvable2")
        assert alg.bracket_basis(0, 1) == {1: Fraction(1)}
        assert alg.bracket_basis(1, 0) == {1: Fraction(-1)}
        osp, _ = catalog("osp12")
        # odd-odd brackets are symmetric
        assert osp.bracket_basis(0, 1) == osp.bracket_basis(1, 0)


class TestJacobi:
    def test_abelian_passes(self):
        alg, _ = catalog("abelian(2,3)")
        ok, witness = alg.check_jacobi()
        assert ok and witness is None

    def test_catalog_passes(self):
        for name in ("osp12", "gl11", "heisenberg_super", "solvable2"):
            alg, _ = catalog(name)
            assert alg.check_jacobi()[0]

    def test_perturbation_fails_with_witness(self):
        alg, _ = catalog("osp12")
        brackets = {k: dict(v) for k, v in alg.brackets.items()}
        brackets[(0, 1)][2] += 1  # tamper with [e, f]
        broken = LieSuperAlgebra(alg.names, alg.parities, brackets, check=False)
        ok, witness = broken.check_jacobi()
        assert not ok
        assert witness is not None and len(witness) == 4


def oracle_check_jacobi(alg):
    """Super-Jacobi on all n^3 ordered basis triples."""
    n = alg.dim
    for a, b, c in itertools.product(range(n), repeat=3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sign = -1 if (alg.parities[x] * alg.parities[z]) % 2 else 1
            for m, cm in alg.bracket_basis(y, z).items():
                for k, ck in alg.bracket_basis(x, m).items():
                    acc[k] = acc.get(k, Fraction(0)) + sign * cm * ck
        if any(v != 0 for v in acc.values()):
            residual = {alg.names[k]: v for k, v in acc.items() if v != 0}
            return False, (alg.names[a], alg.names[b], alg.names[c], residual)
    return True, None


def random_brackets(rng):
    """Super-antisymmetric structure constants with few nonzero entries, so
    that some of them satisfy the Jacobi identity."""
    n = rng.randint(2, 5)
    parities = [rng.choice([EVEN, ODD]) for _ in range(n)]
    density = rng.choice([0.1, 0.25, 0.5])
    brackets = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and parities[i] == EVEN:
                continue
            target = [k for k in range(n) if parities[k] == (parities[i] + parities[j]) % 2]
            comps = {k: Fraction(rng.randint(-2, 2)) for k in target if rng.random() < density}
            if comps:
                brackets[(i, j)] = comps
    return LieSuperAlgebra([f"b{i}" for i in range(n)], parities, brackets, check=False)


def fraction_check_jacobi(alg):
    """The sorted-triple check on Fraction brackets, as it ran before the
    integer bracket table."""
    n = alg.dim
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    sign = -1 if (alg.parities[x] * alg.parities[z]) % 2 else 1
                    for m, cm in alg.bracket_basis(y, z).items():
                        for k, ck in alg.bracket_basis(x, m).items():
                            acc[k] = acc.get(k, Fraction(0)) + sign * cm * ck
                if any(v != 0 for v in acc.values()):
                    residual = {alg.names[k]: v for k, v in acc.items() if v != 0}
                    return False, (alg.names[a], alg.names[b], alg.names[c], residual)
    return True, None


def rescaled(alg, rng):
    """The algebra in the basis e_i -> s_i e_i for random rational s_i: the
    Jacobi outcome is kept, the constants become rational."""
    s = [Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 3, 5])) for _ in range(alg.dim)]
    brackets = {
        (i, j): {k: c * s[i] * s[j] / s[k] for k, c in comps.items()} for (i, j), comps in alg.brackets.items()
    }
    return LieSuperAlgebra(alg.names, alg.parities, brackets, check=False)


def same_witness(got, want):
    """Equal verdicts, and equal residuals in key order, as Fractions."""
    assert got == want
    if not got[0]:
        assert list(got[1][3].items()) == list(want[1][3].items())
        assert all(type(v) is Fraction for v in got[1][3].values())


class TestJacobiOracle:
    def test_integer_table_against_the_fraction_route(self):
        rng = random.Random(13)
        outcomes = set()
        for _ in range(300):
            alg = rescaled(random_brackets(rng), rng)
            got = alg.check_jacobi()
            same_witness(got, fraction_check_jacobi(alg))
            assert got == oracle_check_jacobi(alg), alg.brackets
            outcomes.add((got[0], alg.bracket_den > 1))
        assert outcomes == {(True, True), (False, True), (True, False), (False, False)}

    def test_tampered_osp12_witness(self):
        # the constants of algebras/nonjacobi.alg: [e, f] = 2/3 H, [e, H] = -e + 1/2 f
        alg, _ = catalog("osp12")
        brackets = {k: dict(v) for k, v in alg.brackets.items()}
        brackets[(0, 1)] = {2: Fraction(2, 3)}
        brackets[(0, 2)] = {0: Fraction(-1), 1: Fraction(1, 2)}
        broken = LieSuperAlgebra(alg.names, alg.parities, brackets, check=False)
        assert broken.bracket_den == 6
        got = broken.check_jacobi()
        same_witness(got, fraction_check_jacobi(broken))
        assert got == (False, ("e", "e", "f", {"e": Fraction(-2, 3), "f": Fraction(-2, 3)}))

    def test_integer_table_matches_bracket_basis(self):
        for alg in (catalog("osp12")[0], rescaled(catalog("osp12")[0], random.Random(3))):
            for i, j in itertools.product(range(alg.dim), repeat=2):
                ints = alg.int_brackets[i][j]
                assert {k: Fraction(v, alg.bracket_den) for k, v in ints.items()} == alg.bracket_basis(i, j)
                assert list(ints) == list(alg.bracket_basis(i, j))

    def test_sorted_triples_match_all_triples(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            alg = random_brackets(rng)
            got = alg.check_jacobi()
            assert got == oracle_check_jacobi(alg), alg.brackets
            outcomes.add(got[0])
        assert outcomes == {True, False}

    def test_catalog_and_diagonal_pairs_match(self):
        algebras = [catalog(name)[0] for name in ("osp12", "gl11", "heisenberg_super", "solvable2")]
        algebras += [diagonal_pair(name).algebra for name in ("osp12", "gl11")]
        for alg in algebras:
            assert alg.check_jacobi() == oracle_check_jacobi(alg) == (True, None)


class TestCatalog:
    def test_abelian_shape(self):
        alg, pair = catalog("abelian(1,2)")
        assert alg.dim == 3
        assert not alg.brackets
        assert pair.q_indices == [0, 1] and pair.h_indices == [2]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("so3")

    @pytest.mark.parametrize("name,dim", [("osp12", (3, 2)), ("gl11", (2, 2))])
    def test_matrix_construction_roundtrip(self, name, dim):
        """Structure constants must reproduce the supercommutators of the
        defining representation."""
        alg, _ = catalog(name)
        mats, parities, module_parities = defining_matrices(name)
        assert (len(alg.even_indices()), alg.parities.count(ODD)) == dim
        n = len(mats[0])
        for i in range(alg.dim):
            for j in range(alg.dim):
                sign = -1 if (parities[i] * parities[j]) % 2 else 1
                comm = [
                    [
                        sum(mats[i][r][k] * mats[j][k][c] for k in range(n))
                        - sign * sum(mats[j][r][k] * mats[i][k][c] for k in range(n))
                        for c in range(n)
                    ]
                    for r in range(n)
                ]
                expansion = [[Fraction(0)] * n for _ in range(n)]
                for k, coeff in alg.bracket_basis(i, j).items():
                    for r in range(n):
                        for c in range(n):
                            expansion[r][c] += coeff * mats[k][r][c]
                assert comm == expansion, (alg.names[i], alg.names[j])


class TestSymmetricPair:
    def test_eigenspace_violation_rejected(self):
        # [x, y] = y with q = {x}, h = {y} breaks [h, q] in q
        alg = LieSuperAlgebra(["x", "y"], [EVEN, EVEN], {(0, 1): {1: Fraction(1)}}, check=True)
        with pytest.raises(ValueError):
            SymmetricPair(alg, [1])

    def test_h_must_be_suffix(self):
        alg, _ = catalog("osp12")
        with pytest.raises(ValueError):
            SymmetricPair(alg, [0, 2, 3])

    def test_unimodularity_catalog(self):
        for name in ("osp12", "gl11", "heisenberg_super"):
            _, pair = catalog(name)
            ok, witnesses = pair.check_unimodularity()
            assert ok and witnesses == []

    def test_unimodularity_failure(self):
        # [x, y] = y viewed with q = span(y), h = span(x): str = 1
        alg = LieSuperAlgebra(["y", "x"], [EVEN, EVEN], {(0, 1): {0: Fraction(-1)}})
        pair = SymmetricPair(alg, [1])
        ok, witnesses = pair.check_unimodularity()
        assert not ok
        assert witnesses == [("x", Fraction(1))]


AD_ALGEBRAS = {
    "osp12": catalog("osp12")[0],
    "gl11": catalog("gl11")[0],
    "heisenberg_super": catalog("heisenberg_super")[0],
    "solvable2": catalog("solvable2")[0],
    "diag-gl11": diagonal_pair("gl11").algebra,
    "osp12-rescaled": ORACLE_PAIRS["osp12-rescaled"]().algebra,
}


@st.composite
def ad_cases(draw):
    """(algebra, element, table): a random mixed-parity table and a
    homogeneous element whose coefficients are polynomials of the parity
    the element needs, or plain rationals on the even directions."""
    alg = AD_ALGEBRAS[draw(st.sampled_from(sorted(AD_ALGEBRAS)))]
    n = draw(st.integers(1, 4))
    parities = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
    order = draw(st.integers(0, 3)) if EVEN in parities else None
    table = VariableTable([f"v{i}" for i in range(n)], parities, order)
    monos = exhaustive_monomials(table, 3)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    op_parity = draw(st.sampled_from([EVEN, ODD]))
    element = {}
    for k in draw(st.lists(st.integers(0, alg.dim - 1), max_size=4, unique=True)):
        want = (op_parity + alg.parities[k]) % 2
        if want == EVEN and draw(st.booleans()):
            element[k] = draw(coeff)
            continue
        choices = [m for m in monos if table.monomial_parity(m) == want]
        if choices:
            terms = draw(st.dictionaries(st.sampled_from(choices), coeff, max_size=3))
            element[k] = SuperPolynomial(table, terms)
    return alg, element, table


class TestAdMatrix:
    @given(ad_cases())
    @settings(max_examples=120, deadline=None)
    def test_against_the_bracket_route(self, case):
        alg, element, table = case
        got, want = ad_matrix(alg, element, table), oracle_ad_matrix(alg, element, table)
        assert got.module_parities == want.module_parities and got.op_parity == want.op_parity
        for row, want_row in zip(got.entries, want.entries):
            # same values and key order as the Fraction bracket sums
            assert [list(e.terms.items()) for e in row] == [list(e.terms.items()) for e in want_row]

    def test_inhomogeneous_element_refused(self):
        alg, _ = catalog("osp12")
        t = matrix_table()
        for element in ({0: t.one(), 2: t.one()}, {2: t.one() + t.variable("u1")}):
            for route in (ad_matrix, oracle_ad_matrix):
                with pytest.raises(ValueError):
                    route(alg, element, t)

    def test_foreign_table_refused(self):
        alg, _ = catalog("osp12")
        with pytest.raises(ValueError):
            ad_matrix(alg, {2: matrix_table(order=2).variable("s")}, matrix_table())

    def test_abelian_is_zero(self):
        alg, _ = catalog("abelian(1,2)")
        t = matrix_table()
        m = ad_matrix(alg, {0: t.one()}, t)
        assert m.is_zero()

    def test_columns_match_brackets(self):
        alg, _ = catalog("osp12")
        t = matrix_table()
        for i in range(alg.dim):
            m = ad_matrix(alg, {i: t.one()}, t)
            for k in range(alg.dim):
                expected = alg.bracket_basis(i, k)
                for j in range(alg.dim):
                    assert m.entries[j][k] == t.constant(expected.get(j, Fraction(0)))

    def test_generic_point_linearity(self):
        alg, pair = catalog("osp12")
        names = [f"z{i}" for i in range(alg.dim)]
        t = VariableTable(names, alg.parities, 4)
        y = {i: t.variable(i) for i in range(alg.dim)}
        m = ad_matrix(alg, y, t)
        # each entry is linear in the variables
        for row in m.entries:
            for e in row:
                assert all(sum(mono) == 1 for mono in e.terms)


class TestScalingByPolynomials:
    def test_left_multiplication_puts_the_polynomial_on_the_left(self):
        t = VariableTable(["a", "b"], [ODD, ODD])
        a, b = t.variable(0), t.variable(1)
        m = SuperMatrix(t, [EVEN, ODD], [[t.zero(), b], [b, t.zero()]], EVEN)
        left, right = a * m, m * a
        assert left.entries[0][1] == a * b and right.entries[0][1] == b * a == -(a * b)
        assert left.op_parity == right.op_parity == ODD
        assert (3 * m).entries == (m * 3).entries

    def test_scalars_commute_with_a_matrix(self):
        t = matrix_table()
        rng = random.Random(11)
        m = random_even_matrix(t, [EVEN, ODD, ODD], rng, invertible=False)
        s = t.variable("s")
        for c in (2, Fraction(-3, 4), s):
            assert c * m == m * c


class TestSupertrace:
    def test_identity_rank(self):
        t = matrix_table()
        m = SuperMatrix.identity(t, [EVEN, EVEN, ODD])
        assert m.supertrace() == t.constant(1)  # 2 - 1

    def test_even_operator_on_odd_module(self):
        t = matrix_table()
        rows = [[t.constant(3), t.zero()], [t.zero(), t.constant(4)]]
        m = SuperMatrix(t, [ODD, ODD], rows, EVEN)
        assert m.supertrace() == t.constant(-7)

    def test_vanishes_on_supercommutators(self):
        rng = random.Random(5)
        t = matrix_table()
        parities = [EVEN, ODD, ODD]
        for _ in range(10):
            x = random_even_matrix(t, parities, rng, invertible=False)
            y = random_even_matrix(t, parities, rng, invertible=False)
            assert (x * y - y * x).supertrace().is_zero()

    def test_inhomogeneous_entry_rejected(self):
        t = matrix_table()
        bad = t.one() + t.variable("u1")
        with pytest.raises(ValueError):
            SuperMatrix(t, [EVEN], [[bad]], EVEN)


class TestBerezinian:
    def test_identity(self):
        t = matrix_table()
        m = SuperMatrix.identity(t, [EVEN, ODD, ODD])
        assert m.berezinian() == t.one()

    def test_odd_block_singular_at_zero_is_refused(self):
        t = matrix_table()
        one, zero = t.one(), t.zero()
        m = SuperMatrix(t, [EVEN, ODD, ODD], [[one, zero, zero], [zero, one, zero], [zero, zero, zero]], EVEN)
        with pytest.raises(ValueError, match="not invertible at zero"):
            m.berezinian()

    def test_purely_even_is_determinant(self):
        t = matrix_table()
        rng = random.Random(6)
        m = random_even_matrix(t, [EVEN, EVEN], rng)
        assert m.berezinian() == m.determinant()

    def test_exp_str_law(self):
        rng = random.Random(7)
        t = matrix_table(order=6)
        for parities in ([EVEN, ODD], [EVEN, EVEN, ODD], [EVEN, EVEN, ODD, ODD]):
            for _ in range(6):
                z = random_nilpotent_even_matrix(t, parities, rng)
                assert z.exp().berezinian() == z.supertrace().exp()

    def test_multiplicativity(self):
        rng = random.Random(8)
        t = matrix_table(order=6)
        for parities in ([EVEN, ODD], [EVEN, EVEN, ODD], [EVEN, EVEN, ODD, ODD]):
            for _ in range(5):
                x = random_even_matrix(t, parities, rng)
                y = random_even_matrix(t, parities, rng)
                assert (x * y).berezinian() == x.berezinian() * y.berezinian()

    def test_log_route(self):
        # Ber(r(Z)) = exp(str(w(Z))) with w = log r, for r with r(0) = 1
        from supersym import series

        rng = random.Random(9)
        t = matrix_table(order=6)
        # nilpotency bound: even degree caps at 6, plus one of each odd letter
        kmax = 6 + 2
        r = series.TruncatedSeries1([1, 1, Fraction(1, 2), Fraction(-1, 3)], kmax)
        w = series.log_of_one_plus(r - 1)
        for _ in range(4):
            z = random_nilpotent_even_matrix(t, [EVEN, ODD, ODD], rng)
            rz = SuperMatrix.identity(t, z.module_parities)
            wz_str = t.zero()
            power = SuperMatrix.identity(t, z.module_parities)
            for k in range(1, kmax + 1):
                power = power * z
                if power.is_zero():
                    break
                rz = rz + power * r.coeff(k)
                wz_str = wz_str + power.supertrace() * w.coeff(k)
            assert rz.berezinian() == wz_str.exp()

    def test_transpose_duality_constant(self):
        # for a constant even invertible matrix, Ber(X) equals Ber of the
        # transpose acting on the dual basis
        rng = random.Random(10)
        t = matrix_table()
        for parities in ([EVEN, ODD], [EVEN, EVEN, ODD, ODD]):
            n = len(parities)
            while True:
                rows = [
                    [
                        t.constant(rng.randint(-3, 3))
                        if (parities[i] + parities[j]) % 2 == 0
                        else t.zero()
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                m = SuperMatrix(t, parities, rows, EVEN)
                try:
                    b = m.berezinian()
                except ValueError:
                    continue
                if not b.is_zero():
                    break
            transposed = SuperMatrix(
                t, parities, [[rows[j][i] for j in range(n)] for i in range(n)], EVEN
            )
            assert transposed.berezinian() == b

    def test_non_invertible_at_zero_rejected(self):
        t = matrix_table()
        m = SuperMatrix.zero(t, [ODD])
        with pytest.raises(ValueError):
            m.berezinian()


class TestDeterminant:
    """Newton's identities and Cayley-Hamilton against the Leibniz sum, on
    blocks of one module parity, the only ones the Berezinian passes."""

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_against_leibniz(self, parity):
        rng = random.Random(11 + parity)
        t = matrix_table(order=4)
        for n in range(5):
            for kind in ("unipotent", "random", "nilpotent"):
                for _ in range(3):
                    if kind == "nilpotent":
                        m = random_nilpotent_even_matrix(t, [parity] * n, rng)
                    else:
                        m = random_even_matrix(t, [parity] * n, rng, invertible=kind == "unipotent")
                    assert m.determinant() == oracle_determinant(m), (n, kind)

    def test_singular_at_zero(self):
        t = matrix_table(order=4)
        s, u1, u2 = (t.variable(i) for i in range(3))
        m = SuperMatrix(t, [ODD, ODD], [[s, u1 * u2], [t.one() + s, s * s]], EVEN)
        assert m.determinant() == s ** 3 - u1 * u2 - s * u1 * u2
        assert m.determinant() == oracle_determinant(m)

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_cayley_hamilton_inverse(self, parity):
        rng = random.Random(21 + parity)
        t = matrix_table(order=4)
        for n in range(1, 5):
            one = SuperMatrix.identity(t, [parity] * n)
            done = 0
            while done < 4:
                d = random_even_matrix(t, [parity] * n, rng, invertible=done % 2 == 0)
                e = d._characteristic()
                if e[n].evaluate_at_zero() == 0:
                    continue
                inv = d._inverse(e)
                assert d * inv == one and inv * d == one, n
                done += 1

    def test_odd_entries_refused(self):
        t = matrix_table()
        one, u1, u2 = t.one(), t.variable("u1"), t.variable("u2")
        mixed = SuperMatrix(t, [EVEN, ODD], [[one, u1], [u2, one]], EVEN)
        odd = SuperMatrix(t, [EVEN, EVEN], [[u1, t.zero()], [t.zero(), u2]], ODD)
        for m in (mixed, odd):
            with pytest.raises(ValueError, match="one parity"):
                m.determinant()


class TestSums:
    def test_mismatched_modules_refused(self):
        t = matrix_table()
        two, three = SuperMatrix.identity(t, [EVEN] * 2), SuperMatrix.identity(t, [EVEN] * 3)
        even, odd = SuperMatrix.identity(t, [EVEN]), SuperMatrix.identity(t, [ODD])
        for a, b in ((two, three), (three, two), (even, odd), (odd, even)):
            with pytest.raises(ValueError, match="different modules"):
                a + b
            with pytest.raises(ValueError, match="different modules"):
                a - b
        assert (two + two) - two == two

    def test_equality_compares_operator_parity(self):
        t = matrix_table()
        odd, even = SuperMatrix.zero(t, [EVEN], ODD), SuperMatrix.zero(t, [EVEN], EVEN)
        assert odd != even and even != odd
        assert odd == SuperMatrix.zero(t, [EVEN], ODD) and even == SuperMatrix.zero(t, [EVEN])


class TestApplyMatrix:
    def test_matches_bracket(self):
        alg, _ = catalog("osp12")
        t = matrix_table()
        y = {0: t.variable("u1"), 1: t.variable("u2")}
        m = ad_matrix(alg, y, t)
        for k in range(alg.dim):
            vec = {k: t.one()}
            assert apply_matrix(m, vec) == alg.bracket(y, {k: t.one()})

    def test_whole_algebra_supertrace_of_ad(self):
        # str over all of g of ad a vanishes for the catalog algebras that
        # are unimodular on both layers
        t = matrix_table()
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, _ = catalog(name)
            for i in range(alg.dim):
                m = ad_matrix(alg, {i: t.one()}, t)
                assert m.supertrace().is_zero(), (name, alg.names[i])
