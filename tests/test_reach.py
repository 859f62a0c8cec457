"""``experiments/reach.py``, the check that no entry point reaches a statement,
run on ``adds plan`` alone."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_plan_runs_list_what_they_never_reach():
    done = subprocess.run([sys.executable, "experiments/reach.py", "--only", "plan"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    where = [re.fullmatch(r"src/adds/(\w+\.py):(\d+): (.+)", line) for line in lines]
    assert all(where), lines
    keys = [(m[1], int(m[2])) for m in where]
    assert keys == sorted(keys)
    texts = {m[3] for m in where}
    # a command that did not run is its def line; a branch no run took is
    # listed inside a function that ran, and nothing cmd_plan ran is listed
    assert "def cmd_train(args) -> int:" in texts
    assert not any(t.startswith("def cmd_plan") for t in texts)
    assert 'raise ConfigurationError("--levels must be comma-separated level indices, "' \
        in texts
    assert not any("total tiles" in t or "build_plan" in t for t in texts)
