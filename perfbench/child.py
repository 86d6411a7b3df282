"""Time one piece of package work in a fresh interpreter, with host speed.

Usage, with the package's source directory on ``PYTHONPATH``::

    python3 perfbench/child.py import
    python3 perfbench/child.py verify-all
    python3 perfbench/child.py suite <name>

``import`` imports ``bigthorp``; ``verify-all`` runs the CLI's ``verify
--all`` as ``python -m bigthorp verify --all`` would; ``suite`` makes one
cold first call of a verification suite.  Prints one JSON line: the wall
and scaled time of the work in seconds (``speed.py``), the exit status, the
number of report rows and of failed rows.
"""

import contextlib
import io
import json
import sys
from time import perf_counter_ns as now

from speed import SpeedSampler


def main(what, *args):
    sampler = SpeedSampler()
    sampler.start()
    t0 = now()
    status, rows, failed = 0, 0, 0
    if what == "import":
        import bigthorp  # noqa: F401
    elif what == "verify-all":
        from bigthorp.cli import main as cli_main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli_main(["verify", "--all"])
        lines = out.getvalue().splitlines()
        rows = sum(line.startswith(("PASS", "FAIL")) for line in lines)
        failed = sum(line.startswith("FAIL") for line in lines)
    elif what == "suite":
        from bigthorp import verify

        results = verify.SUITES[args[0]]()
        rows, failed = len(results), sum(not r.passed for r in results)
    else:
        raise SystemExit(f"unknown work {what!r}")
    t1 = now()
    sampler.stop()
    print(json.dumps({"wall_s": (t1 - t0) / 1e9,
                      "scaled_s": sampler.scaled_ns([t0], [t1])[0] / 1e9,
                      "status": status, "rows": rows, "failed": failed}))


if __name__ == "__main__":
    main(*sys.argv[1:])
