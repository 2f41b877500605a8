"""Set-up probe: a fresh interpreter imports bvp3 and its CLI, warms up, and
prints one JSON line with the import time.  The parent times it from spawn
to that line.

    python3 perfbench/probe.py <dir holding the bvp3 package> <scratch dir>
"""

import time

T0 = time.perf_counter()

import contextlib
import io
import json
import os
import sys


def warm_up(workdir):
    """One small solve and one small check through the CLI, so lazy imports
    and first-call costs are paid before anything is timed."""
    from bvp3 import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["solve", "--problem", "dqa1", "--h", "0.05",
                  "--csv", os.path.join(workdir, "warm.csv"),
                  "--json", os.path.join(workdir, "warm.json")],
                 standalone_mode=False)
        cli.main(["check", "--problem", "dqa1", "--samples", "1000"],
                 standalone_mode=False)


if __name__ == "__main__":
    src, workdir = sys.argv[1:3]
    sys.path.insert(0, src)
    import bvp3
    import bvp3.cli
    import_ms = (time.perf_counter() - T0) * 1e3
    warm_up(workdir)
    print(json.dumps({"import_ms": import_ms}), flush=True)
