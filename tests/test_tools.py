"""The scripts under ``tools/``, run as a user runs them."""

import glob
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_TIMING = ROOT / "tools" / "ab_timing.py"
ACCEPTANCE = ROOT / "tools" / "acceptance_outputs.py"


def load_acceptance():
    spec = importlib.util.spec_from_file_location("acceptance_outputs", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_ab(*argv):
    return subprocess.run([sys.executable, str(AB_TIMING), *map(str, argv)], capture_output=True, text=True, check=False)


def test_ab_timing_control_run_checks_every_answer():
    # A/A on this checkout: one untimed and one timed pass, every answer checked
    proc = run_ab(ROOT, ROOT, "gorelik-ladder", "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].endswith(", 0 failed answers") and lines[2].endswith(", 0 failed answers")
    assert lines[-2].startswith("B/A per-pass time ratio: median ")
    # one timed pass: B wins it exactly when its ratio, the median, is below
    # 1; a median printed as 1.000 may lie on either side
    ratio = float(lines[-2].split("median ")[1].split(",")[0])
    wins = (0, 1) if ratio == 1 else (int(ratio < 1),)
    assert lines[-1] in [f"B faster than A in {k} of 1 timed passes" for k in wins]


def test_ab_timing_refuses_unknown_workloads_and_checkouts(tmp_path):
    assert run_ab(ROOT, ROOT, "no-such-workload").returncode == 2
    assert run_ab(ROOT, ROOT, "gorelik-ladder", "--passes", "0").returncode == 2
    proc = run_ab(tmp_path, ROOT, "gorelik-ladder")
    assert proc.returncode == 1 and "no supersym package" in proc.stderr


def test_acceptance_commands_cover_every_algebra_file():
    acc = load_acceptance()
    names = [name for name, _ in acc.commands(ROOT)]
    stems = [pathlib.Path(p).stem for p in glob.glob(str(ROOT / "algebras" / "*.alg"))]
    assert len(names) == len(set(names)) == 3 + 8 * len(stems)
    assert names[:3] == ["selftest", "series-30", "series-30-perturb"]
    for stem in stems:
        assert len({name for name in names if name.split(".")[0] == stem}) == 8, stem
    assert [name for name, _ in acc.demos(ROOT)] == [
        "demo.demo_enveloping", "demo.demo_gorelik", "demo.demo_jacobian", "demo.demo_series"
    ]


def test_acceptance_record_writes_output_and_exit_code(tmp_path, capsys):
    acc = load_acceptance()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    base = str(tmp_path / "perturb")
    # a perturbed series has nonzero residuals: the run fails with exit code 1
    acc.record(base, ["-m", "supersym.cli", "series", "--order", "3", "--perturb"], str(ROOT), env)
    assert (tmp_path / "perturb.exit").read_text() == "1\n"
    assert "FAIL" in (tmp_path / "perturb.stdout").read_text()
    assert (tmp_path / "perturb.stderr").read_bytes() == b""
    assert capsys.readouterr().out == "1  perturb\n"


def test_acceptance_main_wants_two_arguments(capsys):
    assert load_acceptance().main([]) == 2
    assert "SRC_DIR OUT_DIR" in capsys.readouterr().err


def test_bench_records_name_a_benchmark_claim_and_both_sides():
    # every committed BENCH_*.json claims an end-to-end metric of a workload
    # that BENCHMARK.json declares, and records both sides of each pair
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        claim = record["claim"]
        assert claim["workload"] in workloads and claim["metric"] in metrics, path.name
        assert claim["metric"] in record["workloads"][claim["workload"]]["metrics"], path.name
        for name, runs in record["workloads"].items():
            assert name in workloads, (path.name, name)
            for side in ("parent", "change"):
                assert len(runs["failed"][side]) == runs["pairs"], (path.name, name, side)
                for metric, values in runs["metrics"].items():
                    assert isinstance(values[side]["median"], (int, float)), (path.name, name, metric, side)
