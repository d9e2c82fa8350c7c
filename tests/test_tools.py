"""The scripts under ``tools/``, run as a user runs them."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_TIMING = ROOT / "tools" / "ab_timing.py"


def run_ab(*argv):
    return subprocess.run([sys.executable, str(AB_TIMING), *map(str, argv)], capture_output=True, text=True, check=False)


def test_ab_timing_control_run_checks_every_answer():
    # A/A on this checkout: one untimed and one timed pass, every answer checked
    proc = run_ab(ROOT, ROOT, "gorelik-ladder", "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].endswith(", 0 failed answers") and lines[2].endswith(", 0 failed answers")
    assert lines[-1].startswith("B/A per-pass time ratio: median ")


def test_ab_timing_refuses_unknown_workloads_and_checkouts(tmp_path):
    assert run_ab(ROOT, ROOT, "no-such-workload").returncode == 2
    assert run_ab(ROOT, ROOT, "gorelik-ladder", "--passes", "0").returncode == 2
    proc = run_ab(tmp_path, ROOT, "gorelik-ladder")
    assert proc.returncode == 1 and "no supersym package" in proc.stderr
