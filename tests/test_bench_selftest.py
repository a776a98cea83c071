"""The benchmark's self-test runs every check of ``bench/checks.py`` on
tiny workloads, so a change to archlab that breaks one of them (simplex
rows, KKT, Z = B X, monotone RSS, ...) fails here and not only when the
benchmark is run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
