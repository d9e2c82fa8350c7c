"""Time-to-verdict benchmark for supersym.

    python3 bench/run.py --workload gorelik-ladder --seed 1 --seconds 30 --trace 0

Runs one workload in this process with one closed-loop client: the next
task starts only when the previous one has reached its verdict.  No
threads or subprocesses add load.  The package is imported from ``src/``
next to this directory; without it the run exits with code 2.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead wraps
the public functions of every module in spans, runs the same workload, and
prints per-layer counts and self times per pass.  Times are wall times
scaled to a reference host speed (see HostSpeed).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("tasks_per_s", "tasks/s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# (span or counter, quantity, unit); a span's quantities are per pass
PER_LAYER = [
    ("enveloping.Factorization.coordinates", "calls", "count"),
    ("enveloping.Factorization.coordinates", "self_s", "s"),
    ("enveloping.Factorization.init", "self_s", "s"),
    ("enveloping.Factorization", "size", "count"),
    ("linalg.rref", "calls", "count"),
    ("linalg.rref", "self_s", "s"),
    ("linalg.rref", "cells", "count"),
    ("coderiv.invariant_space", "self_s", "s"),
    ("coderiv.verify_twisted_invariance", "self_s", "s"),
    ("enveloping.twisted_adjoint", "self_s", "s"),
    ("enveloping.PbwElement.mul", "self_s", "s"),
    ("jacobian.gorelik_candidate", "self_s", "s"),
    ("enveloping.symmetrize_word", "calls", "count"),
    ("enveloping.symmetrize_word", "self_s", "s"),
    ("coderiv.apply_radx", "calls", "count"),
    ("coderiv.apply_radx", "self_s", "s"),
    ("coderiv.tau", "calls", "count"),
    ("coderiv.coderivation_C", "self_s", "s"),
    ("enveloping.normal_form", "calls", "count"),
    ("enveloping.normal_form", "self_s", "s"),
    ("enveloping.normal_form", "hit_ratio", "hits/call"),
    ("superpoly.SuperPolynomial.mul", "calls", "count"),
    ("superpoly.SuperPolynomial.mul", "self_s", "s"),
    ("liealg.SuperMatrix.mul", "self_s", "s"),
    ("jacobian.GenericPoint.ad_y_power", "self_s", "s"),
    ("jacobian.jacobian_Jc", "self_s", "s"),
    ("jacobian.jacobian_full_group", "self_s", "s"),
    ("series.TruncatedSeries1.mul", "self_s", "s"),
    ("series.TruncatedSeries2.mul", "self_s", "s"),
    ("series.compose", "self_s", "s"),
    ("liealg.LieSuperAlgebra.bracket", "calls", "count"),
    ("liealg.LieSuperAlgebra.check_jacobi", "self_s", "s"),
    ("cli.parse", "self_s", "s"),
    ("cli.build", "self_s", "s"),
] + [(module, "errors", "count") for module in tracing.MODULES] + [
    ("unattributed_s", None, "s"),
    ("trace_overhead_ratio", None, "ratio"),
]

UNITS = dict(END_TO_END) | {f"{s}.{q}" if q else s: u for s, q, u in PER_LAYER}

SAMPLES_BEYOND_P90 = 10

# Time of calibration_loop() at the reference speed.  Every time reported
# is wall time scaled to that speed (see HostSpeed).
CALIBRATION_S = 0.02


def metric_names(trace):
    names = list(UNITS)
    return names[len(END_TO_END):] if trace else names[: len(END_TO_END)]


class Supersym:
    """The freshly imported package and the modules the benchmark calls."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "supersym", "__init__.py")):
            raise ImportError(f"no supersym package under {SRC}")
        for name in [m for m in sys.modules if m == "supersym" or m.startswith("supersym.")]:
            del sys.modules[name]
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.package = importlib.import_module("supersym")
        if not os.path.abspath(self.package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"supersym imported from {self.package.__file__}, not from {SRC}")
        self.modules = [importlib.import_module(f"supersym.{m}") for m in tracing.MODULES]
        for module in self.modules:
            setattr(self, module.__name__.rsplit(".", 1)[1], module)


def calibration_loop():
    """Wall seconds of a fixed loop of the operations supersym spends its
    time in: Fraction arithmetic, tuple keys, dict stores."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 4000):
        total += Fraction(1, i % 97 + 1)
        table[(i % 500, i % 7)] = total
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall times to the reference speed.

    The host's speed drifts: on a shared 2-vCPU container, a fixed loop
    took from 0.18 s to 0.36 s from one second to the next, with CPU time
    equal to wall time.  So the calibration loop runs after every timed
    interval.  An interval is divided by the mean of the calibration runs
    just before and just after it, over CALIBRATION_S.
    """

    def __init__(self):
        self.before = calibration_loop()
        self.factors = []

    def at_reference(self, wall):
        after = calibration_loop()
        factor = (self.before + after) / (2 * CALIBRATION_S)
        self.before = after
        self.factors.append(factor)
        return wall / factor


def setup(name, seed, workdir):
    """Import supersym afresh, generate the workload's algebra texts, parse
    them and write them out.  Returns (package, tasks, wall seconds)."""
    start = time.perf_counter()
    sup = Supersym()
    tasks = workloads.build_tasks(name, seed)
    for text in {t.text for t in tasks if t.text is not None}:
        sup.cli.parse(text)
    workloads.write_inputs(tasks, workdir)
    return sup, tasks, time.perf_counter() - start


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def beyond_p90(n):
    return n - math.ceil(0.9 * n)


class Timings:
    """Tasks in the order run, with wall and reference-speed seconds."""

    def __init__(self):
        self.tasks, self.walls, self.times, self.outcomes = [], [], [], []
        self.passes = 0


def run_tasks(runner, speed, passes_of, seconds, tracer=None, after_pass=None):
    """Whole passes until ``seconds`` have gone and, untraced, enough
    samples lie beyond the 90th percentile.  ``passes_of()`` gives the
    task order of the next pass."""
    out = Timings()
    start = time.perf_counter()
    while True:
        for task in passes_of():
            wall, result = time_task(runner, task, len(out.tasks), tracer)
            out.tasks.append(task)
            out.walls.append(wall)
            out.times.append(speed.at_reference(wall))
            out.outcomes.append(check_task(runner, task, result))
        out.passes += 1
        tail_ok = tracer is not None or beyond_p90(len(out.times)) >= SAMPLES_BEYOND_P90
        if time.perf_counter() - start >= seconds and tail_ok:
            return out
        if after_pass is not None:
            after_pass()


def shuffled(tasks, seed):
    rng = random.Random(f"order:{seed}")

    def next_pass():
        order = list(tasks)
        rng.shuffle(order)
        return order

    return next_pass


def time_task(runner, task, task_id, tracer=None):
    """(wall seconds to verdict, result or the exception raised)."""
    workloads.cold_start(runner.sup)
    gc.collect()
    if tracer is not None:
        tracer.task = task_id
    start = time.perf_counter()
    try:
        result = runner.run(task)
    except Exception as exc:  # a crash is the task's verdict, counted as failed
        result = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.task = None
    return elapsed, result


def check_task(runner, task, result):
    if isinstance(result, Exception):
        note = "".join(traceback.format_exception_only(type(result), result)).strip()
        return workloads.Outcome(False, note=f"raised {note}")
    try:
        return runner.check(task, result)
    except Exception as exc:  # the answer could not be checked
        return workloads.Outcome(False, silent=True, note=f"check raised {exc!r}")


def report_outcomes(name, run):
    failed = [(t, o) for t, o in zip(run.tasks, run.outcomes) if not o.ok]
    checked = sum(o.checked for o in run.outcomes)
    mismatched = sum(o.mismatched for o in run.outcomes)
    print(f"# {name}: {len(run.outcomes)} tasks, {len(failed)} failed; "
          f"{checked} answers checked, {mismatched} wrong")
    seen = set()
    for task, outcome in failed:
        if task.label not in seen:
            seen.add(task.label)
            kind = "SILENT WRONG ANSWER" if outcome.silent else "FAIL"
            print(f"#   {kind} {task.label}: {outcome.note[:300]}")


def latency_metrics(times, setups):
    ordered = sorted(times)
    return {
        "tasks_per_s": len(times) / sum(times),
        "verdict_p50_s": nearest_rank(ordered, 0.5),
        "verdict_p90_s": nearest_rank(ordered, 0.9),
        "setup_s": statistics.median(setups),
    }


def end_to_end(args, runner, tasks, speed, setup_wall, workdir):
    setup_walls = [setup_wall]
    setups = [speed.at_reference(setup_wall)]

    def setup_again():
        # set-up repeated between passes, so that its median spans the run
        runner.sup, _, wall = setup(args.workload, args.seed, workdir)
        setup_walls.append(wall)
        setups.append(speed.at_reference(wall))

    run = run_tasks(runner, speed, shuffled(tasks, args.seed), args.seconds, after_pass=setup_again)
    values = latency_metrics(run.times, setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = latency_metrics(run.walls, setup_walls)

    n = len(run.times)
    failed = sum(1 for o in run.outcomes if not o.ok)
    report_outcomes(args.workload, run)
    factors = sorted(speed.factors)
    print(f"# {run.passes} passes, {n} tasks, {sum(run.walls):.3f} s wall in tasks; "
          f"{beyond_p90(n)} samples beyond the 90th percentile; {len(setups)} set-ups")
    print(f"# host time / reference time: median {statistics.median(factors):.3f}, "
          f"range {factors[0]:.3f} to {factors[-1]:.3f} over {len(factors)} calibrations")
    print(f"# {'metric':16} {'at reference':>14} {'wall':>12}")
    for key, value in values.items():
        wall = f"{measured[key]:12.6g}" if key in measured else ""
        print(f"{key:18} {value:14.6g} {wall:>12} {UNITS[key]}")
    print(f"{'fail_ratio':18} {failed / n:14.6g} {'':>12} failed/attempted ({failed} of {n})")
    return run.outcomes, values


def traced(args, runner, tasks, speed):
    tracer = tracing.Tracer()
    tracer.install(runner.sup)
    try:
        run = run_tasks(runner, speed, shuffled(tasks, args.seed), args.seconds, tracer)
    finally:
        tracer.uninstall()
    # the same tasks again, untraced, for the overhead ratio
    plain = [speed.at_reference(time_task(runner, task, i)[0]) for i, task in enumerate(run.tasks)]
    done = run.passes
    scales = [t / w for t, w in zip(run.times, run.walls)]
    table, covered = tracer.summary(scales)
    values = {}
    for span, quantity, _ in PER_LAYER:
        key = f"{span}.{quantity}" if quantity else span
        row = table.get(span, [0, 0.0, 0.0])
        if quantity == "calls":
            values[key] = row[0] / done
        elif quantity == "self_s":
            values[key] = row[2] / done
        elif quantity == "errors":
            values[key] = tracer.errors[span] / done
    values["enveloping.Factorization.size"] = tracer.factorization_size / done
    values["linalg.rref.cells"] = tracer.rref_cells / done
    values["enveloping.normal_form.hit_ratio"] = (
        tracer.nf_hits / tracer.nf_cacheable if tracer.nf_cacheable else 0.0
    )
    total = sum(run.times)
    values["unattributed_s"] = (total - sum(covered.values())) / done
    values["trace_overhead_ratio"] = total / sum(plain)

    report_outcomes(args.workload, run)
    print(f"# traced: {done} passes, {len(run.times)} tasks, {total:.3f} s in tasks "
          f"({sum(plain):.3f} s untraced), at the reference speed; {len(tracer.starts)} spans")
    by_module = {}
    for span, (_, _, self_s) in table.items():
        module = span.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    print("# self time by module, share of traced task time:")
    for module, self_s in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"#   {module:12} {self_s / total:7.1%}")
    print(f"# top spans by self time: {'calls/pass':>30} {'total_s/pass':>13} {'self_s/pass':>12}  share")
    for span, (calls, span_total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2])[:15]:
        print(f"#   {span:44} {calls / done:10.0f} {span_total / done:13.4f} "
              f"{self_s / done:12.4f} {self_s / total:6.1%}")
    spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)
    print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
    for key in metric_names(True):
        print(f"{key:52} {values[key]:.6g} {UNITS[key]}")
    return run.outcomes, values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        speed = HostSpeed()
        try:
            sup, tasks, setup_wall = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import supersym: {exc}", file=sys.stderr)
            return 2
        runner = workloads.Runner(sup, workdir)
        if args.trace:
            outcomes, values = traced(args, runner, tasks, speed)
        else:
            outcomes, values = end_to_end(args, runner, tasks, speed, setup_wall, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    result = {
        "correct": not any(o.silent for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "metrics": {k: {"value": values[k], "unit": UNITS[k]} for k in metric_names(args.trace)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
