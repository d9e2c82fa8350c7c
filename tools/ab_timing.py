"""Interleaved A/B timing of two supersym checkouts in one process.

    python3 tools/ab_timing.py PARENT CHANGE WORKLOAD [--passes N] [--seed S]

PARENT and CHANGE are checkouts; each one's ``src/supersym`` is imported
under a package name of its own (``supersym_a``, ``supersym_b``), so both
live in this process.  The tasks are one pass of the benchmark's workload,
``bench/workloads.build_tasks(WORKLOAD, seed)``, from the ``bench/`` next to
this script, which it only reads.  Every pass runs the tasks in a shuffled
order and, task by task, the two checkouts in a random order, each through
the benchmark's own ``run.time_task`` (``cold_start``, ``gc.collect()``,
wall time to verdict) and ``run.check_task`` (the known answer).  One pass
runs untimed first.

It prints the median of the per-pass time ratio CHANGE / PARENT with its
quartiles; below 1 means CHANGE is faster.  Drift of the host speed hits
both sides of a pass alike, which back-to-back runs of ``bench/run.py``
cannot offer.  ``PARENT PARENT`` is the A/A control: its median should be
near 1 and its quartiles show the noise floor.  Exit code 1 when a task
fails its answer check.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import random
import shutil
import statistics
import sys
import tempfile
import types

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench():
    """bench/run.py as a module; it puts bench/ on sys.path for its own
    imports (workloads, spans, algebras)."""
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def load_package(name, checkout, module_names):
    """The checkout's src/supersym imported as package ``name``, with the
    attributes that ``workloads.Runner`` and ``cold_start`` read."""
    init = os.path.join(os.path.abspath(checkout), "src", "supersym", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no supersym package under {checkout}/src")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {m: importlib.import_module(f"{name}.{m}") for m in module_names}
    return types.SimpleNamespace(package=package, modules=list(modules.values()), **modules)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("--passes", type=int, default=20, help="timed passes (default 20)")
    parser.add_argument("--seed", type=int, default=7, help="workload and order seed (default 7)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be positive")
    run = load_bench()
    if args.workload not in run.workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(run.workloads.NAMES)}")
    workdir = tempfile.mkdtemp(prefix="ab_timing_")
    try:
        sides = []
        for label, checkout in (("a", args.parent), ("b", args.change)):
            sup = load_package(f"supersym_{label}", checkout, run.tracing.MODULES)
            tasks = run.workloads.build_tasks(args.workload, args.seed)
            side_dir = os.path.join(workdir, label)
            os.makedirs(side_dir)
            run.workloads.write_inputs(tasks, side_dir)
            sides.append((run.workloads.Runner(sup, side_dir), tasks))
        rng = random.Random(f"ab:{args.seed}")
        failed = [0, 0]
        ratios, totals = [], ([], [])
        for p in range(args.passes + 1):
            spent = [0.0, 0.0]
            order = list(range(len(sides[0][1])))
            rng.shuffle(order)
            for i in order:
                for s in rng.sample((0, 1), 2):
                    runner, tasks = sides[s]
                    wall, result = run.time_task(runner, tasks[i], i)
                    spent[s] += wall
                    if not run.check_task(runner, tasks[i], result).ok:
                        failed[s] += 1
            if p:  # pass 0 warms both sides up
                ratios.append(spent[1] / spent[0])
                totals[0].append(spent[0])
                totals[1].append(spent[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(f"# {args.workload} seed {args.seed}: {args.passes} timed passes of {len(sides[0][1])} tasks")
    print(f"# A = {args.parent}: median pass {statistics.median(totals[0]):.4f} s, {failed[0]} failed answers")
    print(f"# B = {args.change}: median pass {statistics.median(totals[1]):.4f} s, {failed[1]} failed answers")
    print(f"B/A per-pass time ratio: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
