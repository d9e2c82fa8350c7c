import collections
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from supersym import cli, coderiv, jacobian, liealg, linalg
from supersym.superpoly import ODD

from conftest import gl_pair, osp14_pair

ALGEBRAS = pathlib.Path(__file__).resolve().parent.parent / "algebras"


def run(argv):
    return cli.main([str(a) for a in argv])


def render(file: cli.AlgebraFile) -> str:
    """Canonical text for an AlgebraFile; parse(render(f)) == f."""
    lines = [f"algebra {file.name}"]
    for nm, par in file.basis:
        lines.append(f"basis {nm} {par}")
    for (i, j) in sorted(file.brackets):
        comps = file.brackets[(i, j)]
        body = " + ".join(f"{comps[k]} {file.basis[k][0]}" for k in sorted(comps))
        lines.append(f"bracket {file.basis[i][0]} {file.basis[j][0]} = {body}")
    if file.pair_h:
        lines.append("pair h = " + " ".join(file.pair_h))
    return "\n".join(lines) + "\n"


class TestParse:
    def test_abelian_file(self):
        src = "algebra demo\nbasis e1 odd\nbasis e2 odd\n"
        f = cli.parse(src)
        assert f.name == "demo"
        assert f.basis == [("e1", "odd"), ("e2", "odd")]
        assert f.brackets == {}
        assert f.pair_h is None

    def test_comments_and_blank_lines(self):
        src = "# header\nalgebra demo\n\nbasis a even  # trailing\n"
        f = cli.parse(src)
        assert f.basis == [("a", "even")]

    def test_parity_violation_named_line(self):
        src = "algebra demo\nbasis a even\nbasis b odd\nbracket a b = 1 a\n"
        with pytest.raises(cli.ParseError) as err:
            cli.parse(src)
        assert "line 4" in str(err.value)

    def test_unknown_name(self):
        src = "algebra demo\nbasis a even\nbracket a c = 1 a\n"
        with pytest.raises(cli.ParseError) as err:
            cli.parse(src)
        assert "line 3" in str(err.value) and "'c'" in str(err.value)

    def test_duplicate_basis(self):
        src = "algebra demo\nbasis a even\nbasis a even\n"
        with pytest.raises(cli.ParseError) as err:
            cli.parse(src)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "src, line",
        [
            ("algebra one\nbasis a odd\nalgebra two\n", 3),
            ("algebra demo\nbasis a odd\nbasis b even\npair h = b\n# again\npair h = b\n", 6),
        ],
    )
    def test_repeated_algebra_or_pair_line(self, src, line, tmp_path, capsys):
        # a second line would silently replace the first
        with pytest.raises(cli.ParseError) as err:
            cli.parse(src)
        assert f"line {line}" in str(err.value) and "duplicate" in str(err.value)
        path = tmp_path / "twice.alg"
        path.write_text(src)
        assert run(["check", path]) == 2
        assert f"line {line}" in capsys.readouterr().err

    def test_malformed_rational(self):
        src = "algebra demo\nbasis a even\nbasis b even\nbracket a b = 1/0 b\n"
        with pytest.raises(cli.ParseError) as err:
            cli.parse(src)
        assert "line 4" in str(err.value)

    def test_reversed_bracket_stored_by_antisymmetry(self):
        src = (
            "algebra demo\nbasis x even\nbasis y even\nbracket y x = -1 y\n"
        )
        f = cli.parse(src)
        assert f.brackets == {(0, 1): {1: cli.Fraction(1)}}

    def test_shipped_files_parse_and_check(self):
        for name in ("osp12.alg", "gl11.alg", "heisenberg.alg", "abelian02.alg", "solvable2.alg", "gl12.alg", "osp14.alg"):
            f = cli.parse((ALGEBRAS / name).read_text())
            alg, pair, _ = cli.build(f)
            assert alg.check_jacobi()[0], name

    @pytest.mark.parametrize("name", ["gl12", "osp14"])
    def test_shipped_file_renders_its_builder(self, name):
        # the file is the render of the test builder, h line included
        pair = {"gl12": lambda: gl_pair(1, 2), "osp14": lambda: osp14_pair()[1]}[name]()
        alg = pair.algebra
        basis = [(nm, "odd" if p == ODD else "even") for nm, p in zip(alg.names, alg.parities)]
        f = cli.AlgebraFile(name, basis, dict(alg.brackets), [alg.names[i] for i in pair.h_indices])
        assert (ALGEBRAS / f"{name}.alg").read_text() == render(f)

    def test_round_trip(self):
        for name in ("osp12.alg", "gl11.alg", "abelian02.alg", "nonunimodular.alg"):
            text = render(cli.parse((ALGEBRAS / name).read_text()))
            again = render(cli.parse(text))
            assert text == again


class TestCommands:
    def test_check_pass(self, capsys):
        assert run(["check", ALGEBRAS / "osp12.alg"]) == 0
        out = capsys.readouterr().out
        assert "check.jacobi" in out and "FAIL" not in out

    def test_check_default_pair_noted(self, capsys):
        src = "algebra demo\nbasis e1 odd\nbasis a even\n"
        path = ALGEBRAS.parent / "build" / "tmp_demo.alg"
        path.parent.mkdir(exist_ok=True)
        path.write_text(src)
        assert run(["check", path]) == 0
        assert "default h = even part" in capsys.readouterr().out

    def test_check_jacobi_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text(
            "algebra bad\nbasis e odd\nbasis f odd\nbasis H even\nbasis E even\n"
            "basis F even\nbracket e e = -2 E\nbracket e f = 2 H\nbracket f f = 2 F\n"
            "bracket e H = -1 e\nbracket f H = 1 f\nbracket e F = -1 f\nbracket f E = -1 e\n"
            "bracket H E = 2 E\nbracket H F = -2 F\nbracket E F = 1 H\npair h = H E F\n"
        )
        assert run(["check", bad]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_is_input_error(self):
        assert run(["check", "no/such/file.alg"]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra x\nbasis a even\nbracket a a = 1 a\n")
        assert run(["check", bad]) == 2

    def test_gorelik_on_catalog(self, capsys):
        assert run(["gorelik", ALGEBRAS / "osp12.alg", "--against-solver"]) == 0
        out = capsys.readouterr().out
        assert "gorelik.element" in out
        assert "dim = 1" in out

    def test_gorelik_abelian(self, capsys):
        assert run(["gorelik", ALGEBRAS / "abelian02.alg"]) == 0
        out = capsys.readouterr().out
        assert "e1*e2" in out

    def test_series_degenerate_small_order(self):
        assert run(["series", "--order", "2"]) == 0

    def test_gorelik_refuses_non_unimodular(self, capsys):
        assert run(["gorelik", ALGEBRAS / "nonunimodular.alg"]) == 2
        err = capsys.readouterr().err
        assert "str_q(ad x) = -2" in err

    def test_jacobian_command(self, capsys):
        assert run(["jacobian", ALGEBRAS / "osp12.alg", "--c", "2"]) == 0
        out = capsys.readouterr().out
        assert "jacobian.J" in out and "1/24" not in out  # J_2 = 1 - 1/4 x1*x2

    @pytest.mark.parametrize(
        "argv, statuses",
        [
            (["jacobian", "osp12.alg", "--c", "2/3", "--order", "7"],
             {"jacobian.str-power": "VALUE", "jacobian.J": "VALUE"}),
            (["jacobian", "solvable2.alg", "--full-group", "--order", "4"],
             {"jacobian.full-group": "VALUE"}),
            (["gorelik", "osp12.alg", "--against-solver"],
             {"gorelik.unimodularity": "PASS", "gorelik.element": "VALUE", "gorelik.invariance": "PASS",
              "gorelik.solver-dimension": "PASS", "gorelik.solver-proportional": "PASS"}),
        ],
        ids=["jacobian", "jacobian-full-group", "gorelik"],
    )
    def test_unchecked_values_are_not_passes(self, argv, statuses, tmp_path, capsys):
        # a value nothing checked is reported as VALUE, not PASS, and does
        # not change the exit code
        out = tmp_path / "r.tsv"
        assert run([argv[0], ALGEBRAS / argv[1], *argv[2:], "--emit", out]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert {check: status for check, _, status, _ in rows} == statuses
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in printed] == [status for _, _, status, _ in rows]

    def test_jacobian_zero_c(self):
        assert run(["jacobian", ALGEBRAS / "osp12.alg", "--c", "0"]) == 2

    def test_jacobian_order_past_one_byte_exits_2(self, capsys):
        # even q: the generic point's table packs one exponent per byte
        assert run(["jacobian", ALGEBRAS / "diag_gl11.alg", "--order", "256"]) == 2
        assert "truncation_order must lie in 0..255" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["jacobian", ALGEBRAS / "osp12.alg", "--c", "1/0"],
            ["series", "--order", "-3"],
            ["tau", ALGEBRAS / "gl11.alg", "--order", "-1"],
            ["jacobian", ALGEBRAS / "osp12.alg", "--order", "-2"],
        ],
        ids=["jacobian-c-1/0", "series-order-3", "tau-order-1", "jacobian-order-2"],
    )
    def test_invalid_argument_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", ALGEBRAS / "osp12.alg", "--seed", "1"],
            ["check", ALGEBRAS / "osp12.alg", "--order", "3"],
            ["gorelik", ALGEBRAS / "osp12.alg", "--seed", "1"],
            ["gorelik", ALGEBRAS / "osp12.alg", "--order", "3"],
            ["selftest", "--order", "3"],
            ["series", "--seed", "1"],
            ["jacobian", ALGEBRAS / "osp12.alg", "--seed", "1"],
            ["tau", ALGEBRAS / "gl11.alg", "--seed", "1"],
        ],
        ids=["check-seed", "check-order", "gorelik-seed", "gorelik-order", "selftest-order",
             "series-seed", "jacobian-seed", "tau-seed"],
    )
    def test_a_flag_the_command_ignores_exits_2(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        # the usage line is the command's, which lists the flags it takes
        assert err.startswith(f"usage: supersym {argv[0]} ")

    def test_jacobian_full_group(self, capsys):
        assert run(["jacobian", ALGEBRAS / "solvable2.alg", "--full-group", "--order", "4"]) == 0
        assert "full-group" in capsys.readouterr().out

    def test_series_command(self):
        assert run(["series", "--order", "8"]) == 0

    def test_series_perturbation_hook(self, capsys):
        assert run(["series", "--order", "8", "--perturb"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("order", [1, 2])
    def test_series_perturbation_at_the_smallest_orders(self, order, capsys):
        # the perturbed coefficients of p_c and q_c exist at every order
        assert run(["series", "--order", order, "--perturb"]) == 1
        failed = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert "series.symmetric.eq2" in failed and "series.coinduced.eq2" in failed

    def test_repeated_calls_carry_no_state(self, tmp_path, capsys):
        # one parser serves every call in a process
        def report(*argv):
            out = tmp_path / "r.tsv"
            code = run([*argv, "--emit", out])
            capsys.readouterr()
            return code, out.read_text()

        perturbed = report("series", "--order", "3", "--perturb")
        plain = report("series", "--order", "3")
        assert perturbed[0] == 1 and plain[0] == 0
        osp = ALGEBRAS / "osp12.alg"
        default = report("jacobian", osp, "--order", "4")
        with_c = report("jacobian", osp, "--c", "2/3", "--order", "4")
        assert with_c != default
        assert report("jacobian", osp, "--order", "4") == default
        assert report("series", "--order", "3") == plain
        assert report("series", "--order", "3", "--perturb") == perturbed
        assert cli._build_parser() is cli._build_parser()

    def test_tau_command(self):
        assert run(["tau", ALGEBRAS / "heisenberg.alg"]) == 0

    def test_tau_on_a_pair_with_odd_h(self, capsys):
        # h and q both mix parities; the odd h vectors act by the adjoint sign rule
        assert run(["tau", ALGEBRAS / "diag_gl11.alg", "--order", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tau_refuses_an_order_above_the_truncation(self, tmp_path, capsys):
        path = tmp_path / "oneletter.alg"
        path.write_text("algebra oneletter\nbasis a even\nbasis z even\npair h = z\n")
        assert run(["tau", path, "--order", "30"]) == 2
        assert "--order 30 exceeds the degree 24" in capsys.readouterr().err
        assert run(["tau", path, "--order", "24"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_internal_error_exits_3(self, monkeypatch, capsys):
        def crash(file, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", crash)
        assert run(["check", ALGEBRAS / "osp12.alg"]) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    def test_unwritable_emit_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.tsv"
        assert run(["series", "--order", "2", "--emit", target]) == 2
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert captured.err.startswith("error: ")
        assert not target.exists()

    def test_selftest_and_emit_stability(self, tmp_path, capsys):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        assert run(["selftest", "--seed", "3", "--emit", first]) == 0
        assert run(["selftest", "--seed", "3", "--emit", second]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_emit_format(self, tmp_path):
        out = tmp_path / "r.tsv"
        run(["check", ALGEBRAS / "gl11.alg", "--emit", out])
        lines = out.read_text().splitlines()
        assert all(len(line.split("\t")) == 4 for line in lines)


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=4)
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


class TestGorelikDecidesInSq:
    """``gorelik`` decides and compares on w = J_2 d: no tau round trip, one
    unimodularity check, one elimination for the generating set."""

    @staticmethod
    def records(path):
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        return {check: (status, witness) for check, _, status, witness in rows}

    @pytest.mark.parametrize("name", ["osp12", "gl12", "osp14"])
    def test_calls_in_one_run(self, name, monkeypatch):
        calls = collections.Counter()

        def count(owner, attr):
            real = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *a, **k: calls.update([attr]) or real(*a, **k))

        count(coderiv, "tau")
        count(liealg.SymmetricPair, "check_unimodularity")
        count(linalg, "rref")
        count(linalg, "nullspace")
        built, pairs = [], []
        real_p_c, real_build = coderiv.p_c, cli.build
        monkeypatch.setattr(coderiv, "p_c", lambda c, order: built.append((c, order)) or real_p_c(c, order))
        monkeypatch.setattr(cli, "build", lambda file: (lambda out: pairs.append(out[1]) or out)(real_build(file)))
        assert run(["gorelik", ALGEBRAS / f"{name}.alg", "--against-solver"]) == 0
        assert (calls["tau"], calls["check_unimodularity"], calls["nullspace"]) == (0, 1, 1)
        assert calls["rref"] == 1 + calls["nullspace"]  # the generating set, then the solver
        # the check and the solver share p_2 to degree |q| + 1, built once
        assert built == list(pairs[0].p_c_memo) == [(Fraction(2), len(pairs[0].q_indices) + 1)]

    def test_zero_candidate_fails_both_checks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(jacobian, "gorelik_preimage", lambda gp: coderiv.sq_table(gp.pair).zero())
        out = tmp_path / "r.tsv"
        assert run(["gorelik", ALGEBRAS / "osp12.alg", "--against-solver", "--emit", out]) == 1
        records = self.records(out)
        assert records["gorelik.element"] == ("VALUE", "0")
        assert records["gorelik.invariance"] == ("FAIL", "candidate is zero")
        assert records["gorelik.solver-dimension"] == ("PASS", "dim = 1")
        assert records["gorelik.solver-proportional"] == ("FAIL", "candidate is zero")

    def test_witness_names_the_moving_generator(self, monkeypatch, tmp_path):
        # J_2 d + 1: 1 moves under the first vector of q, e
        real = jacobian.gorelik_preimage
        monkeypatch.setattr(jacobian, "gorelik_preimage", lambda gp: real(gp) + coderiv.sq_table(gp.pair).one())
        out = tmp_path / "r.tsv"
        assert run(["gorelik", ALGEBRAS / "osp12.alg", "--against-solver", "--emit", out]) == 1
        records = self.records(out)
        assert records["gorelik.invariance"][0] == "FAIL" and records["gorelik.invariance"][1].startswith("('e', ")
        assert records["gorelik.solver-proportional"] == ("FAIL", "not proportional")


@st.composite
def algebra_files(draw):
    """Small definition files: random names and parities, every bracket
    component on a basis vector of the bracket's parity."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    parities = [draw(st.sampled_from(["even", "odd"])) for _ in names]
    brackets = {}
    for i in range(len(names)):
        for j in range(i, len(names)):
            odd = (parities[i] == "odd") != (parities[j] == "odd")
            targets = [k for k, p in enumerate(parities) if (p == "odd") == odd]
            if targets:
                comps = draw(st.dictionaries(st.sampled_from(targets), COEFFS, max_size=2))
                if comps:
                    brackets[(i, j)] = comps
    pair_h = draw(st.none() | st.lists(st.sampled_from(names), min_size=1, unique=True))
    return cli.AlgebraFile(draw(NAMES), list(zip(names, parities)), brackets, pair_h)


@given(algebra_files())
@settings(max_examples=40, deadline=None)
def test_parse_inverts_render(f):
    g = cli.parse(render(f))
    assert (g.name, g.basis, g.brackets, g.pair_h) == (f.name, f.basis, f.brackets, f.pair_h)


def small_or_junk(text):
    """Not an integer, or one small enough to run in milliseconds."""
    try:
        return abs(int(text)) <= 6
    except ValueError:
        return True


ORDERS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["", "0", "-0", "+2", " 3", "1.5", "2/1", "1e1", "x", "--c"]),
    st.text(max_size=3),
).filter(small_or_junk)
CS = st.one_of(
    COEFFS.map(str),
    st.sampled_from(["0", "0/5", "1/0", "-1/2", "1e1", "1.5", "nan", "inf", "", "--order"]),
    st.text(max_size=3),
)


@pytest.mark.parametrize("command", ["jacobian", "tau", "series"])
@given(order=st.none() | ORDERS, c=st.none() | CS)
@example(order="-3", c="1/0")
@example(order="0", c="0")
@settings(max_examples=25, deadline=None)
def test_fuzzed_arguments_never_crash(command, order, c):
    argv = [command] if command == "series" else [command, ALGEBRAS / "heisenberg.alg"]
    if order is not None:
        argv += ["--order", order]
    if c is not None and command == "jacobian":
        argv += ["--c", c]
    assert run(argv) in (0, 1, 2)
