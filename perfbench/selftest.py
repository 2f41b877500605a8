"""Self-test of the output checks.  For each workload a clean output must
pass, and every corrupted copy of it must be counted as failed by the same
code path the benchmark uses.

    python3 perfbench/selftest.py

Exits 0 when every corruption is caught.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import run  # pins BLAS before numpy loads; holds the request helpers


def _edit_json(text, **changes):
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def solve_fine_corruptions(out):
    rows = out["csv"].split("\n")
    cells = rows[500].split(",")
    cells[1] = repr(float(cells[1]) + 1e-4)
    moved = rows[:500] + [",".join(cells)] + rows[501:]
    yield "one u value moved by 1e-4", dict(out, csv="\n".join(moved))
    yield "last CSV row dropped", dict(out, csv="\n".join(rows[:-2] + [""]))
    yield "phi column zeroed", dict(out, csv="\n".join(
        [rows[0]] + [r.rsplit(",", 1)[0] + ",0" for r in rows[1:-1]] + [""]))
    doc = json.loads(out["json"])
    yield "report not converged", dict(out, json=_edit_json(out["json"], converged=False))
    yield "report sweeps off by 2", dict(out, json=_edit_json(
        out["json"], iterations=doc["iterations"] + 2))


def custom_bc_corruptions(out):
    yield "u shifted by 1e-2", dict(out, u=out["u"] + 1e-2)
    yield "u'' scaled by 1.01", dict(out, d2u=out["d2u"] * 1.01)
    yield "not converged", dict(out, converged=False)


def check_sweep_corruptions(out):
    doc = json.loads(out["stdout"])
    yield "theorem 1 flipped", dict(out, stdout=_edit_json(
        out["stdout"], theorem1_holds=not doc["theorem1_holds"]))
    yield "q scaled by 1.01", dict(out, stdout=_edit_json(out["stdout"], q=doc["q"] * 1.01))
    yield "L0 doubled", dict(out, stdout=_edit_json(out["stdout"], L0=2.0 * doc["L0"] + 1.0))
    yield "Lipschitz source relabelled", dict(out, stdout=_edit_json(
        out["stdout"], lipschitz_source={"analytic": "sampled"}.get(
            doc["lipschitz_source"], "analytic")))


CORRUPTIONS = {"solve-fine": solve_fine_corruptions,
               "custom-bc": custom_bc_corruptions,
               "check-sweep": check_sweep_corruptions}


def first_of_each_kind(name, wl):
    """One request of each kind the checks treat differently."""
    from workloads import EXACT
    kinds = {"solve-fine": (lambda r: r["problem"] in EXACT,
                            lambda r: r["problem"] not in EXACT),
             "custom-bc": (lambda r: True,),
             "check-sweep": (lambda r: r["M"] is None, lambda r: r["M"] is not None)}
    stream = wl.requests(random.Random(0))
    reqs = [next(stream) for _ in range(60)]
    return [next(r for r in reqs if kind(r)) for kind in kinds[name]]


def main():
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    missed = 0
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(workdir)
            for req in first_of_each_kind(name, wl):
                _, out, error = run.timed(wl, req, run.identity)
                problems, _ = run.verify(wl, req, out, error)
                print("%-12s %-40s %s" % (name, "clean output",
                                          "passes" if not problems else "FAILS %s" % problems))
                missed += bool(problems)
                for label, bad in CORRUPTIONS[name](out):
                    problems, _ = run.verify(wl, req, bad, None)
                    print("%-12s %-40s %s" % (name, label, "counted as failed: %s"
                                              % problems[0] if problems else "MISSED"))
                    missed += not problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test %s" % ("passed" if not missed else "FAILED (%d)" % missed))
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
