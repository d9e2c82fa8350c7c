"""Run the acceptance command list of a supersym checkout and record its
outputs, one set of files per command.

    python3 tools/acceptance_outputs.py SRC_DIR OUT_DIR

SRC_DIR is a checkout (its ``src/`` is put on PYTHONPATH and commands run
from it, so ``algebras/*.alg`` resolve there).  The commands are the
supersym CLI runs of ``commands`` and the scripts ``demos/*.py``.  For
every command, OUT_DIR receives ``<name>.stdout``, ``<name>.stderr``,
``<name>.exit`` and, when a CLI run wrote one, ``<name>.tsv`` (its
``--emit`` report).
Two checkouts give byte-identical outputs exactly when

    diff -r OUT_A OUT_B

prints nothing.  Standard library only.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys


def commands(src_dir):
    """(name, argv) for every acceptance command, in a fixed order."""
    out = [
        ("selftest", ["selftest", "--seed", "0"]),
        ("series-30", ["series", "--order", "30"]),
        ("series-30-perturb", ["series", "--order", "30", "--perturb"]),
    ]
    for path in sorted(glob.glob(os.path.join(src_dir, "algebras", "*.alg"))):
        rel = os.path.relpath(path, src_dir)
        stem = os.path.splitext(os.path.basename(path))[0]
        out += [
            (f"{stem}.tau", ["tau", rel]),
            (f"{stem}.tau-5", ["tau", rel, "--order", "5"]),
            (f"{stem}.tau-8", ["tau", rel, "--order", "8"]),
            (f"{stem}.gorelik", ["gorelik", rel, "--against-solver"]),
            (f"{stem}.jacobian", ["jacobian", rel]),
            (f"{stem}.jacobian-c2_3-7", ["jacobian", rel, "--c", "2/3", "--order", "7"]),
            (f"{stem}.jacobian-full-8", ["jacobian", rel, "--full-group", "--order", "8"]),
            (f"{stem}.check", ["check", rel]),
        ]
    return out


def demos(src_dir):
    """(name, script path relative to SRC_DIR) for every demo, by name."""
    paths = sorted(glob.glob(os.path.join(src_dir, "demos", "*.py")))
    return [(f"demo.{os.path.splitext(os.path.basename(p))[0]}", os.path.relpath(p, src_dir)) for p in paths]


def record(base, argv, src_dir, env):
    """Run ``python argv`` in SRC_DIR and write its stdout, stderr and exit
    code next to ``base``."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=src_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False
    )
    with open(base + ".stdout", "wb") as fh:
        fh.write(proc.stdout)
    with open(base + ".stderr", "wb") as fh:
        fh.write(proc.stderr)
    with open(base + ".exit", "w") as fh:
        fh.write(f"{proc.returncode}\n")
    print(f"{proc.returncode}  {os.path.basename(base)}", flush=True)


def run(src_dir, out_dir):
    src_dir = os.path.abspath(src_dir)
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(src_dir, "src"))
    for name, argv in commands(src_dir):
        base = os.path.join(out_dir, name)
        tsv = base + ".tsv"
        if os.path.exists(tsv):
            os.remove(tsv)
        record(base, ["-m", "supersym.cli", *argv, "--emit", tsv], src_dir, env)
    for name, script in demos(src_dir):
        record(os.path.join(out_dir, name), [script], src_dir, env)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
