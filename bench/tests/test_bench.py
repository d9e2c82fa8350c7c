"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import algebras as A  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def sup():
    return run.Supersym()


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def one_pass(sup, name, workdir, tracer=None, **kwargs):
    """(tasks, their outcomes, their times) of one pass in build order."""
    tasks = workloads.build_tasks(name, SEED, **kwargs)
    workloads.write_inputs(tasks, workdir)
    runner = workloads.Runner(sup, workdir)
    outcomes, walls = [], []
    for i, task in enumerate(tasks):
        wall, result = run.time_task(runner, task, i, tracer)
        walls.append(wall)
        outcomes.append(run.check_task(runner, task, result))
    return tasks, outcomes, walls


def test_generated_algebras_are_valid_pairs_for_every_seed(sup):
    ladder = [A.abelian12(), A.heisenberg(), A.gl11(), A.osp12(), A.heis4()]
    others = [A.solvable2(), A.one_letter()] + [A.diagonal(b) for b in (A.solvable2(), A.gl11(), A.osp12())]
    for seed in range(5):
        rng = random.Random(seed)
        for alg in ladder + others:
            # build checks super-Jacobi and the eigenspace conditions of the pair
            _, pair, _ = sup.cli.build(sup.cli.parse(A.rescale(alg, rng).text()))
            if alg in ladder:
                assert pair.q_purely_odd() and pair.check_unimodularity()[0], alg.name


def test_rescaling_changes_coefficients_only():
    rng = random.Random(3)
    alg = A.diagonal(A.osp12())
    scaled = A.rescale(alg, rng)
    assert scaled.basis == alg.basis and scaled.h == alg.h
    assert set(scaled.brackets) == set(alg.brackets)
    assert scaled.brackets != alg.brackets


def test_gorelik_ladder_pass(sup, workdir):
    tasks, outcomes, _ = one_pass(sup, "gorelik-ladder", workdir)
    assert [t.label for t in tasks].count("heis4") == 1
    assert all(o.ok for o in outcomes), [o.note for o in outcomes if not o.ok]


def test_jacobian_series_pass(sup, workdir):
    tasks, outcomes, _ = one_pass(sup, "jacobian-series", workdir)
    assert {t.kind for t in tasks} == {"jacobian", "full-group", "series"}
    assert all(o.ok for o in outcomes), [o.note for o in outcomes if not o.ok]


def test_tau_sweep_runs_every_monomial(sup, workdir):
    tasks, outcomes, _ = one_pass(sup, "tau-sweep", workdir)
    for task, outcome in zip(tasks, outcomes):
        _, pair, _ = sup.cli.build(sup.cli.parse(task.text))
        table = sup.coderiv.sq_table(pair)
        total = sum(1 for _ in sup.superpoly.exhaustive_monomials(table, task.params["bound"]))
        assert outcome.checked == total, task.label
        assert not outcome.silent
        if pair.q_purely_odd() or all(p == 0 for p in table.parities):
            # q of one parity: tau inverts beta
            assert outcome.ok, (task.label, outcome.note)


def test_wrong_expected_answer_is_counted_not_swallowed(sup, workdir):
    tasks = [t for t in workloads.build_tasks("gorelik-ladder", SEED, expected_dim=2) if t.label != "heis4"]
    workloads.write_inputs(tasks, workdir)
    runner = workloads.Runner(sup, workdir)
    outcomes = [run.check_task(runner, t, run.time_task(runner, t, i)[1]) for i, t in enumerate(tasks)]
    assert sum(1 for o in outcomes if not o.ok) == len(tasks)
    assert all(o.silent for o in outcomes)


def test_task_that_writes_no_report_fails_visibly(sup, workdir):
    runner = workloads.Runner(sup, workdir)
    done = workloads.Task("gorelik", "gl11", A.gl11(), expected_dim=1)
    missing = workloads.Task("gorelik", "missing", A.gl11(), expected_dim=1)
    workloads.write_inputs([done], workdir)
    missing.path = os.path.join(workdir, "no-such-dir", "x.alg")
    assert run.check_task(runner, done, run.time_task(runner, done, 0)[1]).ok
    runner.run(done)  # leaves a report behind that must not be reused
    outcome = run.check_task(runner, missing, run.time_task(runner, missing, 1)[1])
    assert not outcome.ok and not outcome.silent


def test_raised_exception_is_a_failed_task(sup, workdir):
    runner = workloads.Runner(sup, workdir)
    outcome = run.check_task(runner, None, ZeroDivisionError("boom"))
    assert not outcome.ok and "ZeroDivisionError" in outcome.note


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == run.metric_names(False)
    assert [m["name"] for m in spec["per_layer"]] == run.metric_names(True)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.UNITS[m["name"]], m["name"]


def test_main_prints_the_result_line_last(monkeypatch, capsys):
    monkeypatch.setattr(run, "SAMPLES_BEYOND_P90", 0)
    assert run.main(["--workload", "jacobian-series", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 8
    assert list(result["metrics"]) == run.metric_names(False)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_import_site_is_wrapped(sup):
    tracer = spans.Tracer()
    originals = {
        "coderiv.symmetrize_word": sup.coderiv.symmetrize_word,
        "coderiv.factorization": sup.coderiv.factorization,
        "coderiv.twisted_adjoint": sup.coderiv.twisted_adjoint,
        "jacobian.beta_of_sq": sup.jacobian.beta_of_sq,
    }
    tracer.install(sup)
    try:
        for dotted, original in originals.items():
            module, attr = dotted.split(".")
            wrapped = getattr(getattr(sup, module), attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, dotted
        assert sup.package.tau is sup.coderiv.tau
        mul = vars(sup.series.TruncatedSeries1)
        assert mul["__mul__"] is mul["__rmul__"]
    finally:
        tracer.uninstall()
    for dotted, original in originals.items():
        module, attr = dotted.split(".")
        assert getattr(getattr(sup, module), attr) is original


def test_factorization_size_counts_the_pbw_basis(sup):
    tracer = spans.Tracer()
    for alg in (A.heis4(), A.osp12(), A.gl11()):
        _, pair, _ = sup.cli.build(sup.cli.parse(alg.text()))
        for degree in (2, 3):
            before = tracer.factorization_size
            spans._probe_factorization(tracer, (None, pair, degree), {})
            f = sup.enveloping.Factorization(pair, degree)
            assert tracer.factorization_size - before == len(f.pbw_basis)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_attributes_the_task_time(sup, workdir, name):
    tracer = spans.Tracer()
    tracer.install(sup)
    try:
        _, _, walls = one_pass(sup, name, workdir, tracer)
    finally:
        tracer.uninstall()
    table, covered = tracer.summary()
    assert not tracer.errors
    task_time = sum(walls)
    # every import site wrapped: little task time falls outside the spans
    unattributed = task_time - sum(covered.values())
    assert 0 <= unattributed < 0.05 * task_time, unattributed
    modules = {span.split(".", 1)[0] for span in table}
    if name == "jacobian-series":
        assert not modules & {"enveloping", "coderiv", "linalg"}
    if name == "gorelik-ladder":
        heavy = table["enveloping.Factorization.coordinates"][2] + table["linalg.rref"][2]
        assert heavy > 0.5 * task_time
    if name == "tau-sweep":
        heavy = table["enveloping.symmetrize_word"][1] + table["coderiv.apply_radx"][1]
        assert heavy > 0.5 * task_time
