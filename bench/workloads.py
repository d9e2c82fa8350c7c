"""The three workloads: their tasks, how a task runs, and its known answer.

A task is one verification job a user would run: parse an algebra
definition, build the pair, compute, and reach a verdict.  Each task
builds its algebra afresh from text and starts with the module-level
caches emptied, as in a new ``supersym`` process.

A pass runs every task of the workload once, in an order the seed
shuffles.  The mix of a pass is fixed so that the median and the 90th
percentile of time-to-verdict each fall inside one group of like tasks
rather than on the edge between two; the number of each task in a pass is
given with the workload below.

A task's answer is checked against a known answer that is a mathematical
identity or a second route, never against an earlier output:

* gorelik: the twisted-adjoint invariants of beta(S(q)) form a line
  (dimension 1) and the closed-form Gorelik element spans it with a
  nonzero ratio;
* tau: tau(beta(w)) = w for every S(q) monomial w up to the degree bound;
* jacobian: J_c = exp(str w_c(ad y)) equals Ber over q of
  sinh(ad y/c)/(ad y/c), and the full-group Jacobian equals the Berezinian
  of (1 - exp(-ad x))/ad x, both by the block formula;
* series: every functional-equation residual is zero.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction

import algebras as A

NAMES = ("gorelik-ladder", "tau-sweep", "jacobian-series")

C_VALUES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]


class Task:
    """One job of a pass.  ``kind`` selects how it runs and is checked."""

    def __init__(self, kind, label, alg=None, **params):
        self.kind = kind
        self.label = label
        self.alg = alg
        self.text = alg.text() if alg is not None else None
        self.path = None
        self.params = params

    def key(self):
        return (self.kind, self.text, tuple(sorted(self.params.items())))


class Outcome:
    """Verdict of one task.  ``ok``: the answer matches the known answer.
    ``silent``: the program reported success although the answer is wrong
    (a wrong answer the program flags itself is a failure, not silent)."""

    __slots__ = ("ok", "silent", "note", "checked", "mismatched")

    def __init__(self, ok, silent=False, note="", checked=1, mismatched=0):
        self.ok = ok
        self.silent = silent
        self.note = note
        self.checked = checked
        self.mismatched = mismatched


def build_tasks(name, seed, expected_dim=1):
    """The tasks of one pass of workload ``name``; inputs depend on the
    seed only (rescalings, c values)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "gorelik-ladder":
        # 20 tasks: the median falls in the middle of the gl11 group and the
        # 90th percentile inside the osp12 group; heis4 is the one slow task
        mix = [(A.abelian12, 3), (A.heisenberg, 3), (A.gl11, 6), (A.osp12, 7), (A.heis4, 1)]
        return [
            Task("gorelik", make().name, A.rescale(make(), rng), expected_dim=expected_dim)
            for make, count in mix
            for _ in range(count)
        ]
    if name == "tau-sweep":
        # 20 tasks as (pair, degree bound, count): the median falls among
        # the degree-4 gl11 sweeps, the 90th percentile among the two
        # one-letter degree-8 sweeps, with the degree-5 osp12 sweep above
        solvable2, gl11, osp12 = (A.diagonal(make()) for make in (A.solvable2, A.gl11, A.osp12))
        mix = [
            (solvable2, 3, 1), (solvable2, 4, 1), (solvable2, 5, 1),
            (gl11, 3, 2), (gl11, 4, 4), (gl11, 5, 1),
            (osp12, 3, 2), (osp12, 4, 5), (osp12, 5, 1),
            (A.one_letter(), 8, 2),
        ]
        return [
            Task("tau", f"{alg.name} deg<={bound}", A.rescale(alg, rng), bound=bound)
            for alg, bound, count in mix
            for _ in range(count)
        ]
    if name == "jacobian-series":
        # 8 tasks: the two series tasks hold the 90th percentile
        diag, osp = A.rescale(A.diagonal(A.osp12()), rng), A.rescale(A.osp12(), rng)
        tasks = []
        for order in (6, 7, 8):
            c = rng.choice(C_VALUES)
            tasks.append(Task("jacobian", f"{diag.name} c={c} order={order}", diag, c=c, order=order))
        for order in (8, 9, 10):
            tasks.append(Task("full-group", f"{osp.name} order={order}", osp, order=order))
        tasks += [Task("series", "series order=30", order=30) for _ in range(2)]
        return tasks
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def write_inputs(tasks, workdir):
    """Write each distinct algebra text once; tasks read it like the CLI."""
    paths = {}
    for task in tasks:
        if task.text is None:
            continue
        if task.text not in paths:
            paths[task.text] = os.path.join(workdir, f"alg{len(paths)}_{task.alg.name}.alg")
            with open(paths[task.text], "w") as fh:
                fh.write(task.text)
        task.path = paths[task.text]


def cold_start(sup):
    """Empty the module-level memo dicts, as a new process would have them
    (the Bernoulli-number table is a process-wide constant list and stays)."""
    for module in sup.modules:
        for attr, value in vars(module).items():
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()


class Runner:
    """Runs tasks and checks their answers; answers of the second routes
    are computed once per distinct task, outside the timed region."""

    def __init__(self, sup, workdir):
        self.sup = sup
        self.workdir = workdir
        self.runs = 0
        self.references = {}

    def run(self, task):
        """The timed part: everything a user waits for."""
        if task.kind == "tau":
            return self._sweep(task)
        p = task.params
        if task.kind == "gorelik":
            argv = ["gorelik", task.path, "--against-solver"]
        elif task.kind == "jacobian":
            argv = ["jacobian", task.path, "--c", str(p["c"]), "--order", str(p["order"])]
        elif task.kind == "full-group":
            argv = ["jacobian", task.path, "--full-group", "--order", str(p["order"])]
        else:
            argv = ["series", "--order", str(p["order"])]
        # a report path of its own, so that a task that writes no report
        # is never checked against an earlier task's
        self.runs += 1
        self.emit = os.path.join(self.workdir, f"report{self.runs}.tsv")
        with contextlib.redirect_stdout(io.StringIO()):
            return self.sup.cli.main(argv + ["--emit", self.emit])

    def _sweep(self, task):
        """Every monomial to the end: no early exit on the first mismatch."""
        sup = self.sup
        _, pair, _ = sup.cli.build(sup.cli.parse(task.text))
        table = sup.coderiv.sq_table(pair)
        checked = mismatched = 0
        witness = None
        for mono in sup.superpoly.exhaustive_monomials(table, task.params["bound"]):
            w = sup.superpoly.SuperPolynomial(table, {mono: Fraction(1)})
            back = sup.coderiv.tau(pair, sup.coderiv.beta_of_sq(pair, w))
            checked += 1
            if back != w:
                mismatched += 1
                witness = witness or (mono, back)
        return checked, mismatched, witness

    def check(self, task, result) -> Outcome:
        if task.kind == "tau":
            checked, mismatched, witness = result
            note = f"tau(beta({witness[0]})) = {witness[1]}" if witness else ""
            return Outcome(mismatched == 0 and checked > 0, note=note,
                           checked=checked, mismatched=mismatched)
        code = result
        records = self._records()
        if task.kind == "gorelik":
            return self._check_gorelik(task, code, records)
        if task.kind == "series":
            expected = self._series_checks(task.params["order"])
            got = {(check, target) for check, target, _, _ in records}
            ok = code == 0 and got == expected and all(r[2] == "PASS" for r in records)
            return Outcome(ok, silent=code == 0 and not ok, note="" if ok else f"exit {code}")
        check = "jacobian.J" if task.kind == "jacobian" else "jacobian.full-group"
        values = [w for name, _, _, w in records if name == check]
        reference = self._reference(task)
        ok = code == 0 and values == [reference]
        return Outcome(ok, silent=code == 0 and not ok,
                       note="" if ok else f"exit {code}; J = {values} but the Berezinian gives {reference}")

    def _records(self):
        """The last task's --emit report, removed once read."""
        try:
            with open(self.emit) as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return []
        os.remove(self.emit)
        return [tuple(line.split("\t", 3)) for line in lines if line.strip()]

    @staticmethod
    def _check_gorelik(task, code, records):
        by_check = {check: (status, witness) for check, _, status, witness in records}
        expected_dim = task.params["expected_dim"]
        dim = by_check.get("gorelik.solver-dimension", ("", ""))[1]
        ratio = by_check.get("gorelik.solver-proportional", ("", ""))[1]
        ok = (
            code == 0
            and by_check.get("gorelik.invariance", ("",))[0] == "PASS"
            and dim == f"dim = {expected_dim}"
            and ratio.startswith("candidate = ")
            and not ratio.startswith("candidate = 0 ")
        )
        note = "" if ok else f"exit {code}; {dim or 'no solver dimension'}; {ratio or 'no ratio'}"
        return Outcome(ok, silent=code == 0 and not ok, note=note)

    @staticmethod
    def _series_checks(order):
        """The 18 checks `series` reports: every residual it must verify."""
        cs1, cs2 = ("1", "2", "1/3"), ("1", "2")
        expected = {(f"series.symmetric.eq{k}", f"c={c}") for c in cs1 for k in (1, 2, 3)}
        expected |= {(f"series.coinduced.eq{k}", f"c={c}") for c in cs2 for k in (1, 2, 3)}
        expected |= {("series.exp-jacobian-identity", f"order={order}")}
        expected |= {("series.tanh-coth-identity", f"c={c}") for c in cs2}
        return expected

    def _reference(self, task):
        key = task.key()
        if key not in self.references:
            sup = self.sup
            jac = sup.jacobian
            alg, pair, _ = sup.cli.build(sup.cli.parse(task.text))
            order = task.params["order"]
            if task.kind == "jacobian":
                gp = jac.GenericPoint(pair, order)
                r = jac.sh_over_t_scaled(task.params["c"], gp.max_power())
            else:
                gp = jac.GenericPoint.full(alg, order)
                bound = gp.max_power()
                r = sup.series.TruncatedSeries1(
                    [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(bound + 1)], bound
                )
            value = str(jac.jacobian_via_berezinian(gp, r))
            self.references[key] = value.replace("\t", " ").replace("\n", " | ")
        return self.references[key]

