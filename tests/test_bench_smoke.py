"""One zero-second run of each benchmark workload, as the benchmark runs it.

A workload that fails, scores wrong or prints a malformed result line fails
here first; for one, a changed signature of a function the bench calls.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_runs_correct_and_reports_its_metrics():
    runs = {}
    # every run is killed and waited for before the first assertion, so that
    # neither a failure nor a timeout leaves a process behind to warn in
    # whichever test runs next
    try:
        for w in DECLARED["workloads"]:  # concurrently: a run is mostly one core's work
            runs[w["name"]] = subprocess.Popen(
                [sys.executable, "bench/run.py", "--workload", w["name"], "--seed", "1",
                 "--seconds", "0", "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        outputs = {name: run.communicate(timeout=300) for name, run in runs.items()}
    finally:
        for run in runs.values():
            run.kill()  # a no-op on a run that has ended
            run.communicate()
    names = {m["name"] for m in DECLARED["end_to_end"]}
    for name, run in runs.items():
        out, err = outputs[name]
        assert run.returncode == 0, f"{name}: exit {run.returncode}\n{err}"
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, f"{name}: {result}"
        assert set(result["metrics"]) == names, name
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values()), name
