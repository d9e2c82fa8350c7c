import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersym import coderiv as cd
from supersym import enveloping as env
from supersym import jacobian as jac
from supersym import liealg, series
from supersym.enveloping import PbwElement, symmetrize
from supersym.liealg import LieSuperAlgebra, SymmetricPair, catalog
from supersym.liealg import SuperMatrix
from supersym.superpoly import ODD, PowerChain, SuperPolynomial, power_sum

from conftest import (
    MIXED_PAIRS,
    ORACLE_PAIRS,
    apply_matrix,
    constant_ad,
    diagonal_pair,
    gl_pair,
    jacobian_J2_q2,
    oracle_h_theta,
    oracle_h_twisted_vector_field,
    oracle_series_of_ad_y,
    osp14_pair as _osp14,
    scale_degrees,
    str_ad_power,
    str_ad_power_full,
)


def smono(alg, *pairs):
    m = [0] * alg.dim
    for i, e in pairs:
        m[i] += e
    return tuple(m)


def str_ad_power_by_nested_brackets(gp, k, indices):
    """Small-case oracle for the supertrace of (ad y)^k: iterate the
    element-level bracket with y letter by letter, tracking the Koszul
    signs explicitly, with the dual-variable monomial handled by the
    polynomial arithmetic.  Independent of the matrix route."""
    alg = gp.algebra
    table = gp.table
    pos_of = {q_idx: p for p, q_idx in enumerate(gp.pair.q_indices)}
    total = table.zero()
    for j in indices:
        # expand (ad y)^k (e_j) over tuples of letters
        acc = table.zero()
        for letters in itertools.product(gp.pair.q_indices, repeat=k):
            current = {j: Fraction(1)}
            parity_so_far = alg.parities[j]
            sign = 1
            mono = table.one()
            for step, i in enumerate(letters):
                next_elem = {}
                for m, c in current.items():
                    for target, cc in alg.bracket_basis(i, m).items():
                        next_elem[target] = next_elem.get(target, Fraction(0)) + c * cc
                current = {m: c for m, c in next_elem.items() if c != 0}
                if alg.parities[i] == ODD and parity_so_far == ODD:
                    sign = -sign
                parity_so_far = (parity_so_far + alg.parities[i]) % 2
                mono = table.variable(pos_of[i]) * mono
                if not current:
                    break
            coeff = current.get(j, Fraction(0))
            if coeff:
                acc = acc + mono * (sign * coeff)
        total = total + acc * (-1 if alg.parities[j] == ODD else 1)
    return total


class TestStrAdPower:
    def test_abelian_vanishes(self):
        alg, pair = catalog("abelian(1,2)")
        gp = jac.GenericPoint(pair)
        assert str_ad_power(gp, 2).is_zero()

    def test_rank_difference_at_zero(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        assert str_ad_power(gp, 0) == gp.table.constant(-2)

    def test_odd_power_rejected(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        with pytest.raises(ValueError):
            str_ad_power(gp, 1)

    def test_osp12_degree_two(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        x1x2 = gp.table.variable(0) * gp.table.variable(1)
        assert str_ad_power(gp, 2) == x1x2 * (-6)

    def test_matrix_route_against_nested_bracket_oracle(self):
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            for k in (2, 4):
                got = str_ad_power(gp, k)
                want = str_ad_power_by_nested_brackets(gp, k, pair.q_indices)
                assert got == want, (name, k)

    def test_full_algebra_route_against_oracle(self):
        alg, _ = catalog("solvable2")
        gp = jac.GenericPoint.full(alg, 4)
        for k in (1, 2, 3):
            got = str_ad_power_full(gp, k)
            want = str_ad_power_by_nested_brackets(gp, k, range(alg.dim))
            assert got == want


def str_by_full_power(gp, k, indices):
    """Oracle for the half-power route: the full power (ad y)^k, restricted
    to ``indices``, then its supertrace."""
    return gp.ad_y_power(k).restrict(indices).supertrace()


CATALOG = ("abelian(1,2)", "osp12", "gl11", "heisenberg_super", "solvable2")


def _route_cases():
    """(label, pair, order): every catalog pair at the default order, and
    the diagonal gl(1|1) and osp(1|2) pairs, whose q mixes parities, at
    orders 6-8 (odd and even truncations)."""
    cases = [(name, catalog(name)[1], 6) for name in CATALOG]
    for name in ("gl11", "osp12"):
        pair = diagonal_pair(name)
        cases += [(f"diag-{name}", pair, order) for order in (6, 7, 8)]
    return cases


ROUTE_CASES = _route_cases()
ROUTE_IDS = [f"{label}-{order}" for label, _, order in ROUTE_CASES]
# purely odd q of dimension 4, 4 and 8: the Berezinian is one determinant
BEREZINIAN_CASES = ROUTE_CASES + [("gl12", gl_pair(1, 2), 6), ("osp14", _osp14()[1], 6), ("gl22", gl_pair(2, 2), 6)]
BEREZINIAN_IDS = [f"{label}-{order}" for label, _, order in BEREZINIAN_CASES]


class TestHalfPowerRoute:
    """The supertraces read off half powers (and off Q = (ad y)^2 on q)
    against the full powers of ad y, for every power up to the nilpotency
    bound."""

    @pytest.mark.parametrize("label, pair, order", ROUTE_CASES, ids=ROUTE_IDS)
    def test_q_block_against_full_powers(self, label, pair, order):
        gp = jac.GenericPoint(pair, order)
        for k in range(0, gp.max_power() + 1, 2):
            assert str_ad_power(gp, k) == str_by_full_power(gp, k, pair.q_indices), (label, k)
        str_powers = jac.jacobian_Jc(gp, 1).str_powers
        assert [k for k, _ in str_powers] == list(range(2, gp.max_power() + 1, 2))
        for k, s in str_powers:
            assert s == str_by_full_power(gp, k, pair.q_indices), (label, k)

    @pytest.mark.parametrize("label, pair, order", ROUTE_CASES, ids=ROUTE_IDS)
    def test_q_square_against_the_full_product(self, label, pair, order):
        # Q sums over h only; the full product ad y . ad y, restricted to q
        gp = jac.GenericPoint(pair, order)
        got, want = jac._q_square(gp), (gp.ad_y() * gp.ad_y()).restrict(pair.q_indices)
        assert got.module_parities == want.module_parities and got.op_parity == want.op_parity
        for row, want_row in zip(got.entries, want.entries):
            assert [list(e.terms.items()) for e in row] == [list(e.terms.items()) for e in want_row]

    @pytest.mark.parametrize("label, pair, order", ROUTE_CASES, ids=ROUTE_IDS)
    def test_whole_algebra_against_full_powers(self, label, pair, order):
        gp = jac.GenericPoint.full(pair.algebra, order)
        every = range(pair.algebra.dim)
        for k in range(gp.max_power() + 1):
            assert str_ad_power_full(gp, k) == str_by_full_power(gp, k, every), (label, k)

    @pytest.mark.parametrize("label, pair, order", BEREZINIAN_CASES, ids=BEREZINIAN_IDS)
    def test_jacobian_against_berezinian(self, label, pair, order):
        gp = jac.GenericPoint(pair, order)
        for c in (Fraction(1), Fraction(2), Fraction(2, 3)):
            r = jac.sh_over_t_scaled(c, gp.max_power())
            assert jac.jacobian_Jc(gp, c).J == jac.jacobian_via_berezinian(gp, r), (label, c)

    def test_powers_are_exact_past_the_truncation(self):
        # half powers of a truncated matrix multiply to the truncated full
        # power: with even letters, high powers still reach low even degree
        pair = diagonal_pair("osp12")
        gp = jac.GenericPoint(pair, 2)
        mat = gp.ad_y()
        every = range(pair.algebra.dim)
        got = jac.supertraces_of_powers(mat, range(gp.max_power() + 2))
        assert list(got) == list(range(gp.max_power() + 2))
        for k, s in got.items():
            assert s == str_by_full_power(gp, k, every), k
        assert got[gp.max_power() + 1].is_zero()

    def test_q_square_without_h(self):
        # h = 0: Q is the product of a |q| x 0 and a 0 x |q| block
        for name in ("abelian(0,2)", "abelian(0,3)"):
            pair = catalog(name)[1]
            gp = jac.GenericPoint(pair)
            q = jac._q_square(gp)
            assert q.size == len(pair.q_indices) and q.is_zero()
            assert jac.jacobian_Jc(gp, 2).J == gp.table.one()

    def test_odd_operator_refused(self):
        alg, _ = catalog("osp12")
        gp = jac.GenericPoint.full(alg)
        odd = liealg.ad_matrix(alg, {0: gp.table.one()}, gp.table)
        with pytest.raises(ValueError):
            jac.supertraces_of_powers(odd, [2])


class TestJacobianJc:
    def test_abelian_is_one(self):
        alg, pair = catalog("abelian(1,2)")
        gp = jac.GenericPoint(pair)
        assert jac.jacobian_Jc(gp, 1).J == gp.table.one()

    def test_degree_two_term_at_c_two(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        result = jac.jacobian_Jc(gp, 2)
        s2 = str_ad_power(gp, 2)
        assert result.J == gp.table.one() + s2 * Fraction(1, 24)

    def test_degree_four_pattern(self):
        # J_1 = 1 + s2/6 - s4/180 + s2^2/72 + ... ; check on a pair with a
        # 4-dimensional odd q so the degree-4 terms are nonzero
        alg, pair = _osp14()
        gp = jac.GenericPoint(pair)
        s2 = str_ad_power(gp, 2)
        s4 = str_ad_power(gp, 4)
        J1 = jac.jacobian_Jc(gp, 1).J
        deg4 = (
            s4 * Fraction(-1, 180)
            + s2 * s2 * Fraction(1, 72)
        )
        expected = gp.table.one() + s2 * Fraction(1, 6) + deg4
        assert J1 == expected

    def test_scaling_covariance(self):
        # J_c is J_1 with every degree-k coefficient divided by c^k
        for name in ("osp12", "gl11"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            J1 = jac.jacobian_Jc(gp, 1).J
            for c in (Fraction(2), Fraction(1, 3)):
                Jc = jac.jacobian_Jc(gp, c).J
                scaled = SuperPolynomial(
                    gp.table,
                    {m: co / c ** sum(m) for m, co in J1.terms.items()},
                )
                assert Jc == scaled

    def test_constant_term_is_one(self):
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
                assert jac.jacobian_Jc(gp, c).J.evaluate_at_zero() == 1

    def test_purely_odd_degree_bound_and_parity(self):
        alg, pair = _osp14()
        gp = jac.GenericPoint(pair)
        J = jac.jacobian_Jc(gp, 1).J
        assert all(sum(m) <= 4 and sum(m) % 2 == 0 for m in J.terms)

    def test_zero_c_rejected(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        with pytest.raises(ValueError):
            jac.jacobian_Jc(gp, 0)


class TestJ2ClosedForm:
    def test_matches_general_route(self):
        for name in ("osp12", "gl11", "heisenberg_super", "abelian(0,2)"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            assert jacobian_J2_q2(gp) == jac.jacobian_Jc(gp, 2).J, name

    def test_dimension_guard(self):
        alg, pair = _osp14()
        gp = jac.GenericPoint(pair)
        with pytest.raises(ValueError):
            jacobian_J2_q2(gp)

    def test_berezinian_route_agrees(self):
        for name in ("osp12", "gl11"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            for c in (Fraction(1), Fraction(2)):
                r = jac.sh_over_t_scaled(c, 4)
                assert jac.jacobian_via_berezinian(gp, r) == jac.jacobian_Jc(gp, c).J


class TestFullGroupJacobian:
    def test_abelian_is_one(self):
        alg, _ = catalog("abelian(2,2)")
        assert jac.jacobian_full_group(alg, 5) == jac.GenericPoint.full(alg, 5).table.one()

    def test_solvable2_against_determinant_oracle(self):
        # ad(x1 x + x2 y) has matrix [[0, 0], [-x2, x1]]; the 2x2
        # determinant of r(ad) with r = (1 - e^{-t})/t is r(x1)
        alg, _ = catalog("solvable2")
        order = 6
        J = jac.jacobian_full_group(alg, order)
        gp = jac.GenericPoint.full(alg, order)
        r = series.TruncatedSeries1(
            [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)], order
        )
        m = None
        for k in range(order + 1):
            term = gp.ad_y_power(k) * r.coeff(k)
            m = term if m is None else m + term
        a, b = m.entries[0][0], m.entries[0][1]
        c, d = m.entries[1][0], m.entries[1][1]
        det = a * d - b * c
        assert J == det
        # and the eigenvalue picture: det r(ad) = r(0) r(x1) = r(x1)
        x1 = gp.table.variable(0)
        expected = gp.table.zero()
        for k in range(order + 1):
            expected = expected + x1 ** k * r.coeff(k)
        assert J == expected

    def test_degree_one_term_is_half_supertrace(self):
        alg, _ = catalog("solvable2")
        gp = jac.GenericPoint.full(alg, 3)
        J = jac.jacobian_full_group(alg, 3)
        s1 = str_ad_power_full(gp, 1)
        deg1 = SuperPolynomial(gp.table, {m: c for m, c in J.terms.items() if sum(m) == 1})
        assert deg1 == s1 * Fraction(-1, 2)

    def test_superalgebra_against_block_berezinian(self):
        # mixed even/odd dual variables: the exp/str route must agree with
        # the block-Berezinian of r(ad x) over the whole algebra
        for name in ("gl11", "heisenberg_super"):
            alg, _ = catalog(name)
            order = 3
            J = jac.jacobian_full_group(alg, order)
            gp = jac.GenericPoint.full(alg, order)
            bound = gp.max_power()
            r = series.TruncatedSeries1(
                [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(bound + 1)], bound
            )
            m = None
            for k in range(bound + 1):
                term = gp.ad_y_power(k) * r.coeff(k)
                m = term if m is None else m + term
            assert m.berezinian() == J, name


class TestDivergenceIdentity:
    def test_abelian(self):
        alg, _ = catalog("abelian(1,1)")
        p = series.TruncatedSeries1.monomial(1, 2, 8)
        for a in range(alg.dim):
            assert jac.divergence_check(alg, p, a, order=3).is_zero()

    def test_solvable2_hand_scale(self):
        alg, _ = catalog("solvable2")
        p = series.TruncatedSeries1.monomial(1, 2, 8)
        for a in range(alg.dim):
            assert jac.divergence_check(alg, p, a, order=4).is_zero()

    @pytest.mark.parametrize("name", ["osp12", "gl11"])
    def test_catalog_superalgebras(self, name):
        alg, _ = catalog(name)
        for p in (series.TruncatedSeries1.monomial(1, 2, 10), series.p_c(1, 10), series.TruncatedSeries1.monomial(1, 3, 10)):
            for a in range(alg.dim):
                assert jac.divergence_check(alg, p, a, order=4).is_zero(), (name, alg.names[a])


class TestKeyIdentity:
    def test_abelian(self):
        alg, pair = catalog("abelian(1,2)")
        gp = jac.GenericPoint(pair, 4)
        for a in range(alg.dim):
            assert jac.key_identity_check(gp, 1, a).is_zero()

    @pytest.mark.parametrize("name", ["osp12", "gl11", "heisenberg_super"])
    def test_catalog_pairs(self, name):
        alg, pair = catalog(name)
        gp = jac.GenericPoint(pair, 4)
        for c in (Fraction(1), Fraction(2)):
            for a in range(alg.dim):
                assert jac.key_identity_check(gp, c, a).is_zero(), (name, c, alg.names[a])

    def test_one_raised_point_per_generic_point(self, monkeypatch):
        # with even q vectors the check runs on the point one order up; it is
        # built once, so the 8 checks form Q^2 once: 1 step on 1 chain, where
        # a fresh point per check forms it again (the fields read the nest
        # levels of the pair, not powers of ad y)
        steps = []
        push = PowerChain._push
        monkeypatch.setattr(PowerChain, "_push", lambda chain, *args: steps.append(chain) or push(chain, *args))
        pair = diagonal_pair("gl11")
        gp = jac.GenericPoint(pair, 3)
        for a in range(pair.algebra.dim):
            assert jac.key_identity_check(gp, 1, a).is_zero()
        assert len(steps) == 1
        assert gp.lifted(4) is gp.lifted(4)

    def test_even_q_pair(self):
        alg = LieSuperAlgebra(["y", "x"], [0, 0], {(0, 1): {0: Fraction(-1)}})
        pair = SymmetricPair(alg, [1])
        gp = jac.GenericPoint(pair, 5)
        for c in (Fraction(1), Fraction(2)):
            for a in range(alg.dim):
                assert jac.key_identity_check(gp, c, a, order=5).is_zero()


class TestHLettersThroughSeries:
    """For a in h, alpha_c^a = (-t)(ad y)(a) and theta_c^a = 1(ad y)(a)
    against the bracket [a, y] and the field {a: 1} they replaced: values,
    key order and the term order of every component."""

    @pytest.mark.parametrize("name", sorted(dict(ORACLE_PAIRS, **MIXED_PAIRS)))
    def test_against_the_bracket_and_the_unit_field(self, name):
        pair = dict(ORACLE_PAIRS, **MIXED_PAIRS)[name]()
        gp = jac.GenericPoint(pair, 4)
        one = series.TruncatedSeries1.constant(1, 0)
        for a in pair.h_indices:
            for c in (Fraction(1), Fraction(2, 3)):
                got, want = jac.twisted_vector_field(gp, c, a), oracle_h_twisted_vector_field(gp, a)
                assert list(got) == list(want), (a, c)
                assert all(list(got[i].terms.items()) == list(want[i].terms.items()) for i in want), (a, c)
            got, want = jac.series_of_ad_y(gp, one, {a: Fraction(1)}), oracle_h_theta(gp, a)
            assert list(got) == list(want) and got[a].terms == want[a].terms, a

    def test_key_identity_with_odd_h_and_a_nonzero_supertrace(self):
        # on the diagonal Borel pair h has odd vectors and str_q(ad h_H) != 0,
        # so theta_c^a = a enters the identity for every h letter
        pair = MIXED_PAIRS["diag-borel"]()
        gp = jac.GenericPoint(pair, 3)
        assert any(pair.q_supertraces().values())
        for c in (Fraction(1), Fraction(2)):
            for a in pair.h_indices:
                assert jac.key_identity_check(gp, c, a, order=3).is_zero(), (c, pair.algebra.names[a])


class TestInteriorProduct:
    def test_unit_acts_trivially(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        d = jac.top_monomial(pair)
        assert jac.interior_product(gp, gp.table.one(), d) == d

    def test_module_property(self):
        # (f1 f2) . w = f1 . (f2 . w), exhaustively for q <= 3
        for q in (1, 2, 3):
            alg, pair = catalog(f"abelian(0,{q})")
            gp = jac.GenericPoint(pair)
            table_x = gp.table
            table_s = cd.sq_table(pair)
            monos = list(itertools.product((0, 1), repeat=q))
            for m1, m2, mw in itertools.product(monos, repeat=3):
                f1 = SuperPolynomial(table_x, {m1: Fraction(1)})
                f2 = SuperPolynomial(table_x, {m2: Fraction(1)})
                w = SuperPolynomial(table_s, {mw: Fraction(1)})
                lhs = jac.interior_product(gp, f1 * f2, w)
                rhs = jac.interior_product(gp, f1, jac.interior_product(gp, f2, w))
                assert lhs == rhs, (q, m1, m2, mw)


class TestGorelikCandidate:
    def test_abelian_is_plain_symmetrization(self):
        alg, pair = catalog("abelian(1,2)")
        gp = jac.GenericPoint(pair)
        expected = symmetrize(alg, {smono(alg, (0, 1), (1, 1)): Fraction(1)})
        assert jac.gorelik_candidate(gp) == expected

    def test_q2_closed_form(self):
        # for two odd generators: beta(e1 e2) plus the supertrace scalar
        # (1/24) str over q of (ad e1 ad e2 - ad e2 ad e1)
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            i1, i2 = pair.q_indices
            a1 = constant_ad(alg, i1)
            a2 = constant_ad(alg, i2)
            n = alg.dim
            prod = [
                [
                    sum(a1[i][k] * a2[k][j] - a2[i][k] * a1[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            scalar = sum(-prod[i][i] for i in pair.q_indices) * Fraction(1, 24)
            expected = symmetrize(
                alg, {smono(alg, (i1, 1), (i2, 1)): Fraction(1)}
            ) + PbwElement.from_scalar(alg, scalar)
            assert jac.gorelik_candidate(gp) == expected, name

    def test_osp12_value(self):
        alg, pair = catalog("osp12")
        gp = jac.GenericPoint(pair)
        T = jac.gorelik_candidate(gp)
        expected = symmetrize(alg, {smono(alg, (0, 1), (1, 1)): Fraction(1)}) + PbwElement.from_scalar(
            alg, Fraction(1, 4)
        )
        assert T == expected

    def test_non_unimodular_warns(self):
        alg = LieSuperAlgebra(
            ["th1", "th2", "x"],
            [ODD, ODD, 0],
            {(0, 2): {0: Fraction(1)}, (1, 2): {1: Fraction(1)}},
        )
        pair = SymmetricPair(alg, [2])
        gp = jac.GenericPoint(pair)
        with pytest.warns(UserWarning):
            jac.gorelik_candidate(gp)

    def test_even_q_rejected(self):
        alg, pair = catalog("abelian(1,0)")
        gp = jac.GenericPoint(pair)  # q is empty: fine
        alg2 = LieSuperAlgebra(["y", "x"], [0, 0], {(0, 1): {0: Fraction(-1)}})
        pair2 = SymmetricPair(alg2, [1])
        gp2 = jac.GenericPoint(pair2)
        with pytest.raises(ValueError):
            jac.gorelik_candidate(gp2)


class TestQuotientTransport:
    def test_doubling_transport_of_the_jacobian_density(self):
        # I_2(J_1 . d) = 2^q (J_2 . d) in S(q), and through the
        # symmetrization gamma(beta(J_1 . d)) = 2^q beta(J_2 . d)
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            d = jac.top_monomial(pair)
            w1 = jac.interior_product(gp, jac.jacobian_Jc(gp, 1).J, d)
            w2 = jac.interior_product(gp, jac.jacobian_Jc(gp, 2).J, d)
            q = len(pair.q_indices)
            assert scale_degrees(pair, w1, 2) == w2 * Fraction(2**q), name
            lhs = env.gamma(pair, cd.beta_of_sq(pair, w1))
            rhs = cd.beta_of_sq(pair, w2).scale(Fraction(2**q))
            assert lhs == rhs, name

    def test_class_of_J1_density_is_invariant_for_left_multiplication(self):
        # the class of beta(J_1 e_1...e_q) in U(g)/U(g)h is killed by left
        # multiplication by every j(a)
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            d = jac.top_monomial(pair)
            w1 = jac.interior_product(gp, jac.jacobian_Jc(gp, 1).J, d)
            u = cd.beta_of_sq(pair, w1)
            for a in range(alg.dim):
                moved = PbwElement.from_basis(alg, a) * u
                assert cd.quotient_mod_h(pair, moved).is_zero(), (name, alg.names[a])

    def test_solver_generator_proportional_to_candidate(self):
        for name in ("osp12", "gl11", "heisenberg_super"):
            alg, pair = catalog(name)
            gp = jac.GenericPoint(pair)
            w = cd.tau(pair, jac.gorelik_candidate(gp))
            basis = cd.invariant_space(pair)
            assert len(basis) == 1
            gen = basis[0]
            mono, lead = sorted(gen.terms.items())[0]
            ratio = w.coefficient(mono) / lead
            assert ratio != 0 and gen * ratio == w


def _diagonal_pair(base):
    """The symmetric pair (a + a, swap): h the diagonal copy, q the
    antidiagonal one.  q inherits the full parity mix of the base algebra."""
    n = base.dim
    names = [f"q_{nm}" for nm in base.names] + [f"h_{nm}" for nm in base.names]
    parities = list(base.parities) * 2

    brackets = {}

    def add(i, j, comps):
        if i > j:
            sign = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            i, j = j, i
            comps = {k: sign * c for k, c in comps.items()}
        if i == j and parities[i] == 0:
            return
        acc = brackets.setdefault((i, j), {})
        for k, c in comps.items():
            acc[k] = acc.get(k, Fraction(0)) + c

    for (i, j), comps in base.brackets.items():
        # [q_i, q_j] = h_{[i,j]},  [h_i, h_j] = h_{[i,j]},  [h_i, q_j] = q_{[i,j]}
        add(i, j, {k + n: c for k, c in comps.items()})
        add(i + n, j + n, {k + n: c for k, c in comps.items()})
        add(i + n, j, {k: c for k, c in comps.items()})
        signij = -1 if (base.parities[i] * base.parities[j]) % 2 else 1
        if i != j:
            add(j + n, i, {k: -signij * c for k, c in comps.items()})
    brackets = {
        k: {kk: vv for kk, vv in v.items() if vv != 0} for k, v in brackets.items()
    }
    brackets = {k: v for k, v in brackets.items() if v}
    alg = LieSuperAlgebra(names, parities, brackets)
    return alg, SymmetricPair(alg, range(n, 2 * n))


class TestMixedParityQ:
    def test_diagonal_pair_jacobian_matches_group_berezinian(self):
        # for the diagonal pair of a + a, the exponential-map Jacobian on q
        # equals Ber_a(sinh(ad x/c)/(ad x/c)) for the generic point of the
        # base algebra itself, computed independently by the block formula
        base, _ = catalog("gl11")
        alg, pair = _diagonal_pair(base)
        assert pair.q_purely_odd() is False
        order = 3
        gp = jac.GenericPoint(pair, order)
        gp_base = jac.GenericPoint.full(base, order)
        for c in (Fraction(1), Fraction(2)):
            J = jac.jacobian_Jc(gp, c).J
            r = jac.sh_over_t_scaled(c, gp_base.max_power())
            m = None
            for k in range(gp_base.max_power() + 1):
                term = gp_base.ad_y_power(k) * r.coeff(k)
                m = term if m is None else m + term
            direct = m.berezinian()
            assert J.terms == direct.terms, c

    def test_diagonal_pair_key_identity(self):
        base, _ = catalog("gl11")
        alg, pair = _diagonal_pair(base)
        gp = jac.GenericPoint(pair, 3)
        for c in (Fraction(1), Fraction(2)):
            for a in range(alg.dim):
                assert jac.key_identity_check(gp, c, a, order=3).is_zero(), (c, alg.names[a])


class TestLargerOddPart:
    def test_pair_is_unimodular(self):
        alg, pair = _osp14()
        assert pair.check_unimodularity()[0]

    def test_gorelik_invariance_q4(self):
        alg, pair = _osp14()
        gp = jac.GenericPoint(pair)
        T = jac.gorelik_candidate(gp)
        assert not T.is_zero()
        for a in range(alg.dim):
            assert env.twisted_adjoint(pair, a, T).is_zero(), alg.names[a]
        ok, witness = cd.verify_twisted_invariance(pair, T)
        assert ok, witness
        basis = cd.invariant_space(pair)
        assert len(basis) == 1
        gen, w = basis[0], cd.tau(pair, T)
        mono, lead = next(iter(gen.terms.items()))
        assert not w.is_zero() and w == gen * (w.coefficient(mono) / lead)


ANTICENTRE_PAIRS = {
    "osp12": lambda: catalog("osp12")[1],
    "gl11": lambda: catalog("gl11")[1],
    "heisenberg_super": lambda: catalog("heisenberg_super")[1],
    "gl12": lambda: gl_pair(1, 2),
    "osp14": lambda: _osp14()[1],
}


class TestAnticentre:
    """Gorelik's anticentre route, through plain PbwElement products only:
    with h = g_0 and q = g_1, ad'(a) T = 0 says a T = (-1)^{|a|(|T|+1)} T a,
    so T T commutes with every basis vector.  abelian(1,2) is left out:
    there T T = 0 and the second check would pass vacuously."""

    @pytest.mark.parametrize("name", sorted(ANTICENTRE_PAIRS))
    def test_gorelik_element_anticommutes_and_its_square_is_central(self, name):
        pair = ANTICENTRE_PAIRS[name]()
        alg = pair.algebra
        assert pair.h_indices == alg.even_indices() and pair.check_unimodularity()[0]
        T = jac.gorelik_candidate(jac.GenericPoint(pair))
        pt = T.parity()
        assert pt is not None and not T.is_zero()
        square = T * T
        assert not square.is_zero()
        for a in range(alg.dim):
            ja = PbwElement.from_basis(alg, a)
            sign = -1 if alg.parities[a] * (pt + 1) % 2 else 1
            assert ja * T == (T * ja).scale(sign), alg.names[a]
            assert ja * square == square * ja, alg.names[a]


_POINTS = {}


def _oracle_point(label):
    """One generic point per ORACLE_PAIRS pair, at order 4, kept across
    examples so its powers of ad y are formed once."""
    if label not in _POINTS:
        _POINTS[label] = jac.GenericPoint(ORACLE_PAIRS[label](), 4)
    return _POINTS[label]


def f_of_ad_y_by_loop(gp, f):
    """The term-by-term loop that ``power_sum`` replaced in
    ``jacobian_via_berezinian``: identity * f_0 plus f_k (ad y)^k."""
    acc = SuperMatrix.identity(gp.table, gp.algebra.parities) * f.coeff(0)
    for k in range(1, gp.max_power() + 1):
        if f.coeff(k) != 0:
            acc = acc + gp.ad_y_power(k) * f.coeff(k)
    return acc


def series_of_ad_y_by_loop(gp, f, element):
    """The loop that ``series_of_ad_y`` ran before: each power applied to
    the element, the images added one term at a time."""
    vec = {i: gp.table.constant(c) for i, c in element.items()}
    out = {}
    for k in range(gp.max_power() + 1):
        if f.coeff(k) != 0:
            for i, comp in apply_matrix(gp.ad_y_power(k), vec).items():
                out[i] = out[i] + comp * f.coeff(k) if i in out else comp * f.coeff(k)
    return {i: c for i, c in out.items() if not c.is_zero()}


class TestPowerSumOfAdY:
    """f(ad y) through ``power_sum`` over the memoised powers against the
    term-by-term loops it replaced, for random series f."""

    @pytest.mark.parametrize("label", sorted(ORACLE_PAIRS))
    @given(st.lists(st.fractions(max_denominator=7, min_value=-5, max_value=5), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_against_the_term_by_term_loops(self, label, coeffs):
        gp = _oracle_point(label)
        f = series.TruncatedSeries1(coeffs, len(coeffs) - 1)
        want = f_of_ad_y_by_loop(gp, f)
        rows = power_sum(f.coefficients[: gp.max_power() + 1], gp.ad_y_chain())
        assert SuperMatrix(gp.table, gp.algebra.parities, rows, check=False) == want
        if f.coeff(0) != 0:  # the q block is invertible at zero
            assert jac.jacobian_via_berezinian(gp, f) == want.restrict(gp.pair.q_indices).berezinian()
        for a in range(gp.algebra.dim):
            got, want = jac.series_of_ad_y(gp, f, {a: 1}), series_of_ad_y_by_loop(gp, f, {a: 1})
            assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# the nest levels of coderiv against the columns of the powers of ad y
# ---------------------------------------------------------------------------

# generic points and the top degree to check; None checks to max_power()
NEST_POINTS = {
    name: (lambda make=make: jac.GenericPoint(make(), 6), 6) for name, make in dict(ORACLE_PAIRS, **MIXED_PAIRS).items()
}
NEST_POINTS["gl22"] = (lambda: jac.GenericPoint(gl_pair(2, 2)), 4)
for _name in ("osp12", "gl11", "heisenberg_super", "solvable2"):
    NEST_POINTS[f"full-{_name}"] = (lambda name=_name: jac.GenericPoint.full(catalog(name)[0], 4), None)

_NEST_POINTS = {}


def _nest_point(name):
    """One point of ``NEST_POINTS`` per name, kept across examples."""
    if name not in _NEST_POINTS:
        _NEST_POINTS[name] = NEST_POINTS[name][0]()
    return _NEST_POINTS[name]


def nest_column(gp, a, n):
    """The column of (ad y)^n at e_a read off the nest levels by the identity
    [x^K] (ad y)^|K| e_a = (-1)^{k(k-1)/2 + p(a) k} S(K)(a) / K_ev!, k the
    number of odd letters of K and K_ev! the product of the factorials of its
    even exponents, with the terms past the point's order dropped."""
    table, pa = gp.table, gp.algebra.parities[a]
    out = {}
    for mono, (_, (den, nest)) in cd._nest_levels(gp.pair, a, n)[n].items():
        if not SuperPolynomial(table, {mono: 1}).is_zero():
            k = sum(e for e, p in zip(mono, table.parities) if p == ODD)
            ev = math.prod(math.factorial(e) for e, p in zip(mono, table.parities) if p != ODD)
            sign = -1 if (k * (k - 1) // 2 + pa * k) % 2 else 1
            for i, v in nest.items():
                out.setdefault(i, {})[mono] = Fraction(sign * v, den * ev)
    return out


class TestNestLevelsAgainstThePowers:
    """Every coefficient of every column of (ad y)^n, zero ones included,
    against the nest levels through the identity of ``nest_column``, and
    ``series_of_ad_y`` on random elements and series against the columns of
    the powers it replaced (components in order, values)."""

    @pytest.mark.parametrize("name", sorted(NEST_POINTS))
    def test_identity_on_every_column(self, name):
        make, top = NEST_POINTS[name]
        gp = make()
        for n in range(gp.max_power() + 1 if top is None else top + 1):
            power = gp.ad_y_power(n).entries
            for a in range(gp.algebra.dim):
                column = {i: row[a].terms for i, row in enumerate(power) if not row[a].is_zero()}
                assert column == nest_column(gp, a, n), (n, gp.algebra.names[a])

    @pytest.mark.parametrize("name", sorted(NEST_POINTS))
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_series_of_ad_y_against_the_powers(self, name, data):
        gp = _nest_point(name)
        alg = gp.algebra
        element = data.draw(st.dictionaries(
            st.integers(0, alg.dim - 1), st.sampled_from([Fraction(-3), Fraction(1), Fraction(2, 5)]), min_size=1, max_size=3
        ), label="element")
        coeffs = data.draw(st.lists(st.fractions(max_denominator=7, min_value=-5, max_value=5), min_size=1, max_size=10), label="f")
        f = series.TruncatedSeries1(coeffs, len(coeffs) - 1)
        got, want = jac.series_of_ad_y(gp, f, element), oracle_series_of_ad_y(gp, f, element)
        assert list(got.items()) == list(want.items())
