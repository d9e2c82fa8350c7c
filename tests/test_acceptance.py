"""Acceptance suite: one test per criterion, exact arithmetic throughout
(no tolerances anywhere), each printing a PASS line with its runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` for the full listing,
or ``supersym selftest`` for the CLI equivalent.
"""

import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from supersym import coderiv as cd
from supersym import enveloping as env
from supersym import jacobian as jac
from supersym import liealg, series
from supersym.enveloping import PbwElement, symmetrize
from supersym.liealg import SuperMatrix, catalog
from supersym.superpoly import EVEN, ODD, SuperPolynomial, VariableTable, exhaustive_monomials

from conftest import check_theta_vs_induced, constant_ad

CATALOG = ["abelian(1,2)", "osp12", "gl11", "heisenberg_super", "solvable2"]
ROOT = pathlib.Path(__file__).resolve().parent.parent
ALGEBRAS = ROOT / "algebras"


def _report(number, label, elapsed):
    print(f"ACCEPTANCE {number}: PASS  {label}  ({elapsed:.2f}s)")


def test_criterion_1_series_suite():
    start = time.perf_counter()
    order = 12
    d = series.TruncatedSeries1([0, -1], order + 1)
    for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
        residuals = series.check_symmetric_equations(series.p_c(c, order + 1), d, order)
        assert all(r.is_zero() for r in residuals), c
    one = series.TruncatedSeries1.constant(1, order + 1)
    for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
        residuals = series.check_coinduced_equations(one, series.q_c(c, order + 1), c, order)
        assert all(r.is_zero() for r in residuals), c
    assert series.exp_jacobian_identity_residual(order).is_zero()
    for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
        assert series.tanh_coth_identity_residual(c, order).is_zero()

    # perturbing any single coefficient must leave a nonzero residual
    for k in range(2, 9, 2):
        p = series.p_c(1, order + 1)
        coeffs = list(p.coefficients)
        coeffs[k] += Fraction(1, 7)
        bad = series.TruncatedSeries1(coeffs, order + 1)
        residuals = series.check_symmetric_equations(bad, d, order)
        assert any(not r.is_zero() for r in residuals), k
    for k in range(1, 8, 2):
        q = series.q_c(1, order + 1)
        coeffs = list(q.coefficients)
        coeffs[k] += Fraction(1, 7)
        bad = series.TruncatedSeries1(coeffs, order + 1)
        residuals = series.check_coinduced_equations(one, bad, 1, order)
        assert any(not r.is_zero() for r in residuals), k

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"series suite took {elapsed:.2f}s, budget 1s"
    _report(1, "functional equations to order 12, uniqueness by perturbation", elapsed)


def test_criterion_2_bernoulli_cross_check():
    start = time.perf_counter()
    for c in (Fraction(1), Fraction(2)):
        p = series.p_c(c, 4)
        assert p.coeff(0) == c
        assert p.coeff(2) == Fraction(1, 3) / c
        assert p.coeff(4) == Fraction(-1, 45) / c**3
        w = series.w_c(c, 4)
        assert w.coeff(2) == Fraction(1, 6) / c**2
        assert w.coeff(4) == Fraction(-1, 180) / c**4
    _report(2, "p_c and w_c Bernoulli coefficients for c in {1, 2}", time.perf_counter() - start)


def test_criterion_3_pbw_coalgebra():
    start = time.perf_counter()
    rng = random.Random(2024)
    for name in CATALOG:
        alg, pair = catalog(name)
        # coalgebra morphism on all monomials of degree <= 4
        for mono in exhaustive_monomials(alg, 4):
            word = env._monomial_to_word(mono)
            lhs = env.coproduct(env.symmetrize_word(alg, word))
            rhs = {}
            for (m1, m2), c in _s_coproduct(alg, word).items():
                b1 = symmetrize(alg, {m1: Fraction(1)})
                b2 = symmetrize(alg, {m2: Fraction(1)})
                for k1, c1 in b1.terms.items():
                    for k2, c2 in b2.terms.items():
                        key = (k1, k2)
                        rhs[key] = rhs.get(key, Fraction(0)) + c * c1 * c2
                        if rhs[key] == 0:
                            del rhs[key]
            assert lhs == rhs, (name, mono)
        # tau inverts the symmetrization on S(q) monomials of degree <= 4
        table = cd.sq_table(pair)
        for mono in exhaustive_monomials(table, 4):
            w = SuperPolynomial(table, {mono: Fraction(1)})
            assert cd.tau(pair, cd.beta_of_sq(pair, w)) == w, (name, mono)
        # confluence: 100 randomized rewrite schedules per word
        for _ in range(4):
            word = tuple(rng.randrange(alg.dim) for _ in range(5))
            base = env.normal_form(alg, word)
            for _ in range(100):
                alt = env.normal_form(alg, word, choose=lambda n: rng.randrange(n))
                assert alt == base
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"PBW/coalgebra took {elapsed:.2f}s, budget 10s"
    _report(3, "coalgebra morphism, tau inverse, confluence on the catalog", elapsed)


def _s_coproduct(alg, word):
    n = len(word)
    out = {}
    for left_mask in range(2**n):
        left = [k for k in range(n) if left_mask >> k & 1]
        right = [k for k in range(n) if not left_mask >> k & 1]
        sign = 1
        for i in right:
            for j in left:
                if i < j and alg.parities[word[i]] == ODD and alg.parities[word[j]] == ODD:
                    sign = -sign
        m1, m2 = [0] * alg.dim, [0] * alg.dim
        for k in left:
            m1[word[k]] += 1
        for k in right:
            m2[word[k]] += 1
        key = (tuple(m1), tuple(m2))
        out[key] = out.get(key, Fraction(0)) + sign
        if out[key] == 0:
            del out[key]
    return out


def _random_entry(table, rng, parity, max_degree):
    monos = [
        m for m in exhaustive_monomials(table, max_degree)
        if table.monomial_parity(m) == parity
    ]
    out = table.zero()
    for _ in range(2):
        out = out + SuperPolynomial(table, {rng.choice(monos): Fraction(rng.randint(-3, 3))})
    return out


def _random_even_invertible(table, parities, rng, max_degree=3):
    n = len(parities)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            parity = (parities[i] + parities[j]) % 2
            e = _random_entry(table, rng, parity, max_degree)
            if parity == EVEN:
                e = e - e.evaluate_at_zero()
                if i == j:
                    e = e + 1
                elif i < j and parities[i] == parities[j]:
                    e = e + rng.randint(-2, 2)
            row.append(e)
        rows.append(row)
    return SuperMatrix(table, parities, rows, EVEN)


def test_criterion_4_berezinian_laws():
    start = time.perf_counter()
    rng = random.Random(77)
    table = VariableTable(["s", "u1", "u2"], [EVEN, ODD, ODD], 6)
    ranks = {
        (1, 1): [EVEN, ODD],
        (2, 1): [EVEN, EVEN, ODD],
        (2, 2): [EVEN, EVEN, ODD, ODD],
    }
    count = 0
    for parities in ranks.values():
        for _ in range(17):
            z = _random_even_invertible(table, parities, rng)
            nil = SuperMatrix(
                table, parities,
                [[e - e.evaluate_at_zero() for e in row] for row in z.entries],
                EVEN, check=False,
            )
            assert nil.exp().berezinian() == nil.supertrace().exp()
            y = _random_even_invertible(table, parities, rng)
            assert (z * y).berezinian() == z.berezinian() * y.berezinian()
            count += 1
    assert count >= 50
    _report(4, f"Ber(exp) = exp(str) and multiplicativity on {count} random matrices",
            time.perf_counter() - start)


def test_criterion_5_divergence_and_key_identity():
    start = time.perf_counter()
    for name in ("osp12", "gl11"):
        alg, pair = catalog(name)
        for p in (series.p_c(1, 12), series.TruncatedSeries1.monomial(1, 2, 12)):
            for a in range(alg.dim):
                assert jac.divergence_check(alg, p, a, order=4).is_zero(), (name, alg.names[a])
        gp = jac.GenericPoint(pair, 4)
        for c in (Fraction(1), Fraction(2)):
            for a in range(alg.dim):
                assert jac.key_identity_check(gp, c, a, order=4).is_zero(), (name, c, alg.names[a])
    _report(5, "divergence and key identity, independent routes, osp12 and gl11",
            time.perf_counter() - start)


def test_criterion_6_coderivation_representation():
    start = time.perf_counter()
    for name in ("osp12", "gl11"):
        alg, pair = catalog(name)
        for c in (Fraction(1), Fraction(2)):
            ok, witness = cd.check_representation(pair, c, 3)
            assert ok, (name, c, witness)
        for chi in (cd.Character(pair, {}), cd.Character(pair, pair.q_supertraces())):
            ok, witness = check_theta_vs_induced(pair, chi, 2)
            assert ok, (name, witness)
    _report(6, "coderivation commutation and induced-module match", time.perf_counter() - start)


def test_criterion_7_gorelik_dual_route():
    start = time.perf_counter()
    for name in ("osp12", "gl11"):
        alg, pair = catalog(name)
        assert pair.check_unimodularity()[0]
        gp = jac.GenericPoint(pair)
        element = jac.gorelik_candidate(gp)

        # (a) closed form for two odd generators, coefficient for coefficient
        i1, i2 = pair.q_indices
        a1 = constant_ad(alg, i1)
        a2 = constant_ad(alg, i2)
        n = alg.dim
        prod = [
            [sum(a1[i][k] * a2[k][j] - a2[i][k] * a1[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        scalar = sum(-prod[i][i] for i in pair.q_indices) * Fraction(1, 24)
        mono = [0] * alg.dim
        mono[i1] = mono[i2] = 1
        closed_form = symmetrize(alg, {tuple(mono): Fraction(1)}) + PbwElement.from_scalar(alg, scalar)
        assert element == closed_form, name

        # (b) twisted invariance, exactly
        ok, witness = cd.verify_twisted_invariance(pair, element)
        assert ok, (name, witness)

        # (c) solver dimension one and exact proportionality
        basis = cd.invariant_space(pair)
        assert len(basis) == 1, name
        w = cd.tau(pair, element)
        gen = basis[0]
        lead_mono, lead = sorted(gen.terms.items())[0]
        ratio = w.coefficient(lead_mono) / lead
        assert ratio != 0 and gen * ratio == w, name

        # (d) the class of beta(J_1 e_1 e_2) is invariant for left
        # multiplication modulo U(g) h
        w1 = jac.interior_product(gp, jac.jacobian_Jc(gp, 1).J, jac.top_monomial(pair))
        u = cd.beta_of_sq(pair, w1)
        for a in range(alg.dim):
            moved = PbwElement.from_basis(alg, a) * u
            assert cd.quotient_mod_h(pair, moved).is_zero(), (name, alg.names[a])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"Gorelik dual route took {elapsed:.2f}s, budget 5s"
    _report(7, "Gorelik element: closed form, invariance, solver, quotient class", elapsed)


def test_criterion_8_full_group_jacobian():
    start = time.perf_counter()
    alg, _ = catalog("solvable2")
    order = 6
    J = jac.jacobian_full_group(alg, order)
    # independent 2x2 determinant oracle
    gp = jac.GenericPoint.full(alg, order)
    import math

    r = series.TruncatedSeries1(
        [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)], order
    )
    m = None
    for k in range(order + 1):
        term = gp.ad_y_power(k) * r.coeff(k)
        m = term if m is None else m + term
    det = m.entries[0][0] * m.entries[1][1] - m.entries[0][1] * m.entries[1][0]
    assert J == det

    for name in ("abelian(2,0)", "abelian(1,2)", "abelian(0,3)"):
        a, _ = catalog(name)
        gpa = jac.GenericPoint.full(a, 4)
        assert jac.jacobian_full_group(a, 4) == gpa.table.one(), name
    _report(8, "full-group Jacobian against the determinant oracle", time.perf_counter() - start)


def test_criterion_9_cli(tmp_path):
    start = time.perf_counter()
    base = [sys.executable, "-m", "supersym.cli"]
    run = lambda *argv: subprocess.run(
        base + list(argv), capture_output=True, text=True, cwd=str(ALGEBRAS.parent)
    )

    selftest = run("selftest", "--seed", "11", "--emit", str(tmp_path / "selftest1.tsv"))
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr

    bad = run("gorelik", str(ALGEBRAS / "nonunimodular.alg"))
    assert bad.returncode == 2
    assert "str_q(ad x) = -2" in bad.stderr

    again = run("selftest", "--seed", "11", "--emit", str(tmp_path / "selftest2.tsv"))
    assert again.returncode == 0
    p1 = tmp_path / "selftest1.tsv"
    p2 = tmp_path / "selftest2.tsv"
    assert p1.read_bytes() == p2.read_bytes()
    _report(9, "CLI selftest, non-unimodular refusal, byte-stable emission",
            time.perf_counter() - start)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    # each demo is a script against the public modules: exit 0, nothing on stderr
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
