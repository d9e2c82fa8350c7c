"""Command-line front end: algebra definition files, check pipelines,
reports.

File grammar (line oriented, ``#`` starts a comment)::

    algebra <name>
    basis <name> <even|odd>
    bracket <a> <b> = <rat> <name> { + <rat> <name> }
    pair h = <name> { <name> }

Omitted brackets are zero; the (b, a) bracket is implied by
super-antisymmetry.  Without a ``pair`` line the even part is taken as h
(basis order must then put the odd part first).  The ``algebra`` and
``pair`` lines may appear once each.

Exit codes: 0 all checks pass, 1 a check failed, 2 invalid input, 3 an
internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import coderiv, enveloping, jacobian, liealg, series
from .superpoly import EVEN, ODD, SuperPolynomial, exhaustive_monomials


class ParseError(Exception):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class AlgebraFile:
    """Parsed form of a definition file."""

    def __init__(self, name, basis, brackets, pair_h):
        self.name = name
        self.basis = basis          # list of (name, parity)
        self.brackets = brackets    # {(i, j): {k: Fraction}} with i <= j
        self.pair_h = pair_h        # list of names or None


def _parse_rational(tok, line_no):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"malformed rational {tok!r}") from None


def parse(source: str) -> AlgebraFile:
    name = None
    basis = []
    index = {}
    parities = []
    raw_brackets = []
    pair_h = None
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "algebra":
            if len(tokens) != 2:
                raise ParseError(line_no, "expected: algebra <name>")
            if name is not None:
                raise ParseError(line_no, "duplicate 'algebra' line")
            name = tokens[1]
        elif head == "basis":
            if len(tokens) != 3 or tokens[2] not in ("even", "odd"):
                raise ParseError(line_no, "expected: basis <name> <even|odd>")
            if tokens[1] in index:
                raise ParseError(line_no, f"duplicate basis element {tokens[1]!r}")
            index[tokens[1]] = len(basis)
            basis.append((tokens[1], tokens[2]))
            parities.append(EVEN if tokens[2] == "even" else ODD)
        elif head == "bracket":
            if len(tokens) < 6 or tokens[3] != "=":
                raise ParseError(line_no, "expected: bracket <a> <b> = <rat> <name> { + <rat> <name> }")
            a, b = tokens[1], tokens[2]
            for nm in (a, b):
                if nm not in index:
                    raise ParseError(line_no, f"unknown basis element {nm!r}")
            rest = tokens[4:]
            comps = {}
            while rest:
                if len(rest) < 2:
                    raise ParseError(line_no, "expected <rat> <name> component")
                coeff = _parse_rational(rest[0], line_no)
                target = rest[1]
                if target not in index:
                    raise ParseError(line_no, f"unknown basis element {target!r}")
                comps[index[target]] = comps.get(index[target], Fraction(0)) + coeff
                rest = rest[2:]
                if rest:
                    if rest[0] != "+":
                        raise ParseError(line_no, "components must be joined by '+'")
                    rest = rest[1:]
            i, j = index[a], index[b]
            pij = (parities[i] + parities[j]) % 2
            for k, c in comps.items():
                if c != 0 and parities[k] != pij:
                    raise ParseError(
                        line_no,
                        f"bracket [{a},{b}] has a component on {basis[k][0]} violating parity",
                    )
            raw_brackets.append((line_no, i, j, comps))
        elif head == "pair":
            if len(tokens) < 4 or tokens[1] != "h" or tokens[2] != "=":
                raise ParseError(line_no, "expected: pair h = <name> { <name> }")
            for nm in tokens[3:]:
                if nm not in index:
                    raise ParseError(line_no, f"unknown basis element {nm!r}")
            if pair_h is not None:
                raise ParseError(line_no, "duplicate 'pair' line")
            pair_h = list(tokens[3:])
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")
    if name is None:
        raise ParseError(0, "missing 'algebra <name>' line")
    if not basis:
        raise ParseError(0, "no basis elements declared")
    brackets = {}
    for line_no, i, j, comps in raw_brackets:
        if i > j:
            sign = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            i, j = j, i
            comps = {k: sign * c for k, c in comps.items()}
        if (i, j) in brackets:
            raise ParseError(line_no, f"duplicate bracket for ({basis[i][0]},{basis[j][0]})")
        comps = {k: c for k, c in comps.items() if c != 0}
        if comps:
            brackets[(i, j)] = comps
    return AlgebraFile(name, basis, brackets, pair_h)


def _algebra(file: AlgebraFile, check=True):
    names = [nm for nm, _ in file.basis]
    parities = [par for _, par in file.basis]
    return liealg.LieSuperAlgebra(names, parities, file.brackets, check)


def _pair(alg, file: AlgebraFile):
    """(pair, used_default_pair): h from the file's ``pair`` line, else the
    even part."""
    if file.pair_h is not None:
        return liealg.SymmetricPair(alg, [alg.index(nm) for nm in file.pair_h]), False
    return liealg.SymmetricPair(alg, alg.even_indices()), True


def build(file: AlgebraFile):
    """(algebra, pair, used_default_pair); raises ValueError on bad input."""
    alg = _algebra(file)
    return (alg, *_pair(alg, file))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    """Ordered list of check records.  A check is PASS or FAIL; a computed
    value that nothing checked is VALUE, which ``all_pass`` ignores."""

    def __init__(self):
        self.records = []  # (check, target, status, witness)

    def add(self, check, target, ok, witness=""):
        status = "PASS" if ok else "FAIL"
        self.records.append((check, target, status, str(witness)))

    def value(self, check, target, witness):
        self.records.append((check, target, "VALUE", str(witness)))

    def all_pass(self):
        return all(status != "FAIL" for _, _, status, _ in self.records)

    def emit(self, path):
        lines = [
            "\t".join((check, target, status, witness.replace("\t", " ").replace("\n", " | ")))
            for check, target, status, witness in self.records
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def print(self, out=None):
        out = out if out is not None else sys.stdout
        for check, target, status, witness in self.records:
            line = f"{status:4}  {check:32} {target:20} {witness}"
            print(line.rstrip(), file=out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(file: AlgebraFile, args) -> Report:
    report = Report()
    try:
        alg = _algebra(file, check=False)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    ok, witness = alg.check_jacobi()
    report.add("check.jacobi", file.name, ok, witness if witness else "")
    if not ok:
        return report
    try:
        pair, default_h = _pair(alg, file)
    except ValueError as exc:
        report.add("check.pair", file.name, False, str(exc))
        return report
    note = " (default h = even part)" if default_h else ""
    report.add("check.pair", file.name, True, f"q=[{','.join(alg.names[i] for i in pair.q_indices)}]"
               f" h=[{','.join(alg.names[i] for i in pair.h_indices)}]{note}")
    ok, witnesses = pair.check_unimodularity()
    report.add("check.unimodularity", file.name, ok, _unimodularity_witness(witnesses))
    return report


def _unimodularity_witness(witnesses) -> str:
    """The nonzero q-supertraces of a pair, as text ("" when there are none)."""
    return "; ".join(f"str_q(ad {nm}) = {v}" for nm, v in witnesses)


def cmd_series(args) -> Report:
    report = Report()
    order = args.order if args.order is not None else 12
    perturb = getattr(args, "perturb", False)
    for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
        p = series.p_c(c, order + 1)
        if perturb:
            coeffs = list(p.coefficients)
            coeffs[2] += 1
            p = series.TruncatedSeries1(coeffs, order + 1)
        d = series.TruncatedSeries1([0, -1], order + 1)
        r1, r2, r3 = series.check_symmetric_equations(p, d, order)
        for k, r in enumerate((r1, r2, r3), start=1):
            report.add(f"series.symmetric.eq{k}", f"c={c}", r.is_zero(), "" if r.is_zero() else r)
    h1 = series.TruncatedSeries1.constant(1, order + 1)
    for c in (Fraction(1), Fraction(2)):
        q = series.q_c(c, order + 1)
        if perturb:
            coeffs = list(q.coefficients)
            coeffs[3 if order >= 2 else 1] += 1  # odd, and within order + 1
            q = series.TruncatedSeries1(coeffs, order + 1)
        residuals = series.check_coinduced_equations(h1, q, c, order)
        for k, r in enumerate(residuals, start=1):
            report.add(f"series.coinduced.eq{k}", f"c={c}", r.is_zero(), "" if r.is_zero() else r)
    r = series.exp_jacobian_identity_residual(order)
    report.add("series.exp-jacobian-identity", f"order={order}", r.is_zero(), "" if r.is_zero() else r)
    for c in (Fraction(1), Fraction(2)):
        r = series.tanh_coth_identity_residual(c, order)
        report.add("series.tanh-coth-identity", f"c={c}", r.is_zero(), "" if r.is_zero() else r)
    return report


def cmd_gorelik(file: AlgebraFile, args) -> Report:
    """beta(J_2 d) and its checks, decided on w = J_2 d with no tau round
    trip (``selftest`` and the tests keep it): beta runs once, for the
    element record and a failure witness.  A zero w fails both checks."""
    report = Report()
    alg, pair, default_h = build(file)
    if not pair.q_purely_odd():
        raise InputError("the Gorelik construction requires a purely odd q part")
    ok, witnesses = pair.check_unimodularity()
    if not ok:
        raise InputError("pair is not unimodular: " + _unimodularity_witness(witnesses))
    report.add("gorelik.unimodularity", file.name, True, "")
    w = jacobian.gorelik_preimage(jacobian.GenericPoint(pair))
    element = coderiv.beta_of_sq(pair, w)
    report.value("gorelik.element", file.name, element)
    a = None if w.is_zero() else coderiv.moving_generator(pair, w)
    witness = "candidate is zero" if w.is_zero() else "" if a is None else (
        alg.names[a], str(enveloping.twisted_adjoint(pair, a, element)))
    report.add("gorelik.invariance", file.name, witness == "", witness)
    if args.against_solver:
        basis = coderiv.invariant_space(pair)
        report.add("gorelik.solver-dimension", file.name, len(basis) == 1, f"dim = {len(basis)}")
        if len(basis) == 1:
            ratio = _proportionality(w, basis[0])
            witness = f"candidate = {ratio} * solver generator" if ratio is not None else "not proportional"
            report.add("gorelik.solver-proportional", file.name, ratio is not None,
                       "candidate is zero" if w.is_zero() else witness)
    return report


def _proportionality(w: SuperPolynomial, gen: SuperPolynomial):
    """The exact nonzero scalar with w == scalar * gen, or None."""
    if gen.is_zero() or w.is_zero():
        return None
    mono, lead = next(iter(sorted(gen.terms.items())))
    scalar = w.coefficient(mono) / lead
    return scalar if w == gen * scalar else None


def cmd_jacobian(file: AlgebraFile, args) -> Report:
    report = Report()
    alg, pair, default_h = build(file)
    order = args.order if args.order is not None else 6
    if args.full_group:
        J = jacobian.jacobian_full_group(alg, order)
        report.value("jacobian.full-group", file.name, J)
        return report
    c = args.c if args.c is not None else Fraction(1)
    gp = jacobian.GenericPoint(pair, order)
    result = jacobian.jacobian_Jc(gp, c)
    for k, s in result.str_powers:
        report.value("jacobian.str-power", f"k={k}", s)
    report.value("jacobian.J", f"{file.name} c={c}", result.J)
    return report


def cmd_tau(file: AlgebraFile, args) -> Report:
    report = Report()
    alg, pair, default_h = build(file)
    bound = args.order if args.order is not None else 4
    order = coderiv.sq_table(pair).truncation_order
    if order is not None and bound > order:
        raise InputError(f"--order {bound} exceeds the degree {order} at which S(q) is truncated")
    failure = _tau_sweep(pair, bound)
    witness = f"monomial {failure[0]}: tau(beta(w)) = {failure[1]}" if failure else ""
    report.add("tau.inverse-of-symmetrization", f"{file.name} degree<={bound}", not failure, witness)
    return report


def _tau_sweep(pair, bound):
    """The first S(q) monomial w of degree <= bound with tau(beta(w)) != w,
    as (monomial, tau(beta(w))), or None."""
    table = coderiv.sq_table(pair)
    for mono in exhaustive_monomials(table, bound):
        w = SuperPolynomial(table, {mono: Fraction(1)})
        back = coderiv.tau(pair, coderiv.beta_of_sq(pair, w))
        if back != w:
            return mono, back
    return None


def cmd_selftest(args) -> Report:
    report = Report()
    rng = random.Random(args.seed if args.seed is not None else 0)
    sub = cmd_series(argparse.Namespace(order=12, perturb=False))
    report.records.extend(sub.records)

    for name in ("abelian(1,2)", "osp12", "gl11", "heisenberg_super", "solvable2"):
        alg, pair = liealg.catalog(name)
        ok, witness = alg.check_jacobi()
        report.add("selftest.jacobi", name, ok, witness if witness else "")
        ok, witnesses = pair.check_unimodularity()
        report.add("selftest.unimodularity", name, ok, witnesses if not ok else "")

        # normal-form confluence under randomized schedules
        words = [tuple(rng.randrange(alg.dim) for _ in range(4)) for _ in range(6)]
        conf_ok = True
        for word in words:
            base = enveloping.normal_form(alg, word)
            for _ in range(10):
                alt = enveloping.normal_form(alg, word, choose=lambda n: rng.randrange(n))
                if alt != base:
                    conf_ok = False
        report.add("selftest.confluence", name, conf_ok, "")

        if name == "solvable2":
            continue
        ok, witness = coderiv.check_representation(pair, Fraction(2), 2)
        report.add("selftest.coderivation-representation", name, ok, witness if witness else "")
        report.add("selftest.tau-inverse", name, _tau_sweep(pair, 3) is None, "")

    for name in ("osp12", "gl11", "heisenberg_super", "abelian(1,2)"):
        alg, pair = liealg.catalog(name)
        gp = jacobian.GenericPoint(pair)
        element = jacobian.gorelik_candidate(gp)
        ok, witness = coderiv.verify_twisted_invariance(pair, element)
        report.add("selftest.gorelik-invariance", name, ok, witness if witness else "")
        basis = coderiv.invariant_space(pair)
        report.add("selftest.gorelik-dimension", name, len(basis) == 1, f"dim = {len(basis)}")

    for name in ("osp12", "gl11"):
        alg, pair = liealg.catalog(name)
        gp = jacobian.GenericPoint(pair, 4)
        ok = True
        for c in (Fraction(1), Fraction(2)):
            for a in range(alg.dim):
                if not jacobian.key_identity_check(gp, c, a).is_zero():
                    ok = False
        report.add("selftest.key-identity", name, ok, "")
        p1 = series.p_c(1, 8)
        div_ok = all(
            jacobian.divergence_check(alg, p1, a, order=3).is_zero() for a in range(alg.dim)
        )
        report.add("selftest.divergence-identity", name, div_ok, "")
    return report


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonzero_rational(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = 0
    if value == 0:
        raise argparse.ArgumentTypeError(f"expected a nonzero rational, got {text!r}")
    return value


@functools.cache
def _build_parser():
    """The argument parser and its command parsers by name, built on the
    first ``main`` call of a process and shared by the later ones (parsing
    leaves them unchanged).  Each command takes only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="supersym",
        description="Exact verification toolkit for Lie superalgebra symmetric pairs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", metavar="PATH", help="write a tab-separated report")
    order = argparse.ArgumentParser(add_help=False, parents=[emit])
    order.add_argument("--order", type=_positive_int, default=None, help="truncation / degree bound")

    p = subs.add_parser("check", help="verify an algebra file: Jacobi, pair, unimodularity", parents=[emit])
    p.add_argument("file")

    p = subs.add_parser("gorelik", help="construct and verify the Gorelik element", parents=[emit])
    p.add_argument("file")
    p.add_argument("--against-solver", action="store_true", help="also run the invariant-space solver")

    p = subs.add_parser("jacobian", help="Jacobian of the exponential map", parents=[order])
    p.add_argument("file")
    p.add_argument("--c", type=_nonzero_rational, default=None, help="scaling parameter (rational, nonzero)")
    p.add_argument("--full-group", action="store_true", help="Jacobian of the full supergroup")

    p = subs.add_parser("series", help="verify the functional equations of the universal series", parents=[order])
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)

    p = subs.add_parser("tau", help="check that tau inverts the symmetrization", parents=[order])
    p.add_argument("file")

    p = subs.add_parser("selftest", help="run the built-in verification suite on the catalog", parents=[emit])
    p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    return parser, subs.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # refused with the usage of the command, which lists its flags
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse: 2 for invalid arguments, 0 after --help
        return exc.code
    on_file = {"check": cmd_check, "gorelik": cmd_gorelik, "jacobian": cmd_jacobian, "tau": cmd_tau}.get(args.command)
    try:
        if on_file is not None:
            try:
                with open(args.file) as fh:
                    source = fh.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            report = on_file(parse(source), args)
        else:
            report = (cmd_series if args.command == "series" else cmd_selftest)(args)
    except (ParseError, InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report.print()
    if args.emit:
        try:
            report.emit(args.emit)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
