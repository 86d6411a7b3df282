"""Short runs of the benchmark harness: each trace mode on the small
workload, and a traced run on the file-backed one.

``perfbench/run.py`` exits 1 on any uncaught exception: a child that fails
or whose CLI status is not 0, a call made only in traced runs, or a fault
in the harness itself.  A zero-second run reaches every one of those calls
on its workload, and its last stdout line must report a correct run with
exactly the metrics that BENCHMARK.json declares for the mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _check_run(workload, trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in declared)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_harness_run_is_correct(trace, section):
    _check_run("fpe-small-mem", trace, section)


def test_file_backed_traced_run_is_correct():
    # the 128 MiB lazily loaded key at m = k = 64, where traced runs of
    # this workload have exited 1 before
    _check_run("fpe-wide-file", 1, "per_layer")
