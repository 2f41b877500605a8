"""Run a fixed list of ``bvp3`` commands from two source trees and compare
their output byte for byte.

    python3 .github/scripts/cli_bytediff.py BASE_TREE HEAD_TREE

Each command runs as ``python -m bvp3.cli`` with the tree's ``src`` first on
PYTHONPATH, in a fresh empty directory that holds only the shared
boundary-condition files.  Stdout, stderr, the exit code and every file the
command writes are compared.  Any difference is printed and the script
exits 1; identical output exits 0, and a tree that cannot run ``bvp3 list``
exits 2.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBLEMS = ("yao-feng-7", "yao-feng-8", "feng-liu-4.2", "dqa1", "dqa",
            "bai-3.5")
# about 0.9 M per problem: --M drops the analytic constants, so these take
# the sampled Lipschitz path at the benchmark's 65536 samples
SAMPLED_M = {"yao-feng-7": "0.99", "yao-feng-8": "3.69", "feng-liu-4.2": "2.43",
             "dqa1": "6.75", "dqa": "7.2", "bai-3.5": "0.75"}


def _bc(*coef):
    """A --bc-file document: the nine coefficients, rows at (0, 0, 1)."""
    keys = "a1 b1 g1 a2 b2 g2 a3 b3 g3".split()
    return dict(zip(keys, coef), endpoints=[0, 0, 1])


BC_FILES = {
    # u(0) = u'(0) = u(1) = 0: a constructed kernel whose G_t changes sign
    "bc.json": _bc(1, 0, 0, 0, 1, 0, 1, 0, 0),
    # u(0) twice: dependent rows
    "dependent.json": _bc(1, 0, 0, 1, 0, 0, 0, 1, 0),
    # no row pins u: independent rows, but no kernel
    "singular.json": _bc(0, 1, 0, 0, 0, 1, 0, 1, 1),
    # CASE1 with u(0) = 0 written as 1e12 u(0) = 0
    "scaled.json": _bc(1e12, 0, 0, 0, 1, 0, 0, 1, 0),
    # rows dependent to within 1e-13, all at t = 0
    "near_dependent.json": dict(_bc(1, 0, 0, 0, 1, 0, 1, 1, 1e-13),
                                endpoints=[0, 0, 0]),
    # singular.json with its third row scaled by 1e15
    "scaled_singular.json": _bc(0, 1, 0, 0, 0, 1, 0, 1e15, 1e15),
    # a JSON true as a coefficient
    "flag.json": _bc(True, 0, 0, 0, 1, 0, 0, 1, 0),
    # a JSON integer too large for a float
    "huge.json": _bc(10 ** 400, 0, 0, 0, 1, 0, 0, 1, 0),
}
COMMANDS = (
    [["list"]]
    + [["solve", "--problem", p] for p in PROBLEMS]
    + [["check", "--problem", p, "--json", "verdict.json"] for p in PROBLEMS]
    + [["check", "--problem", p, "--M", "0.5", "--samples", "1000"]
       for p in PROBLEMS]
    + [["check", "--problem", p, "--M", SAMPLED_M[p], "--samples", "65536"]
       for p in PROBLEMS]
    + [["kernel", "--case", str(c), "--h", "0.05"] for c in (1, 2, 3, 4)]
    + [
        ["solve", "--problem", "dqa1", "--h", "0.001", "--csv", "u.csv",
         "--json", "r.json"],
        ["solve", "--problem", "yao-feng-8", "--h", "0.001", "--csv", "u.csv",
         "--json", "r.json"],
        ["solve", "--problem", "dqa", "--M", "3.0"],
        ["kernel", "--bc-file", "bc.json", "--csv", "custom.csv"],
        ["kernel", "--bc-file", "scaled.json", "--h", "0.05"],
        # the CSV writer on 51,005 values each, exact zeros and values below
        # 1e-4 among them, and on n = 2000 solutions
        ["kernel", "--case", "1", "--h", "0.01"],
        ["kernel", "--bc-file", "bc.json", "--h", "0.01"],
        # a dump tabulated in several blocks of node rows
        ["kernel", "--bc-file", "bc.json", "--h", "0.005"],
        # a catalog dump of 21 blocks
        ["kernel", "--case", "2", "--h", "0.002"],
        ["solve", "--problem", "bai-3.5", "--h", "0.0005"],
        ["solve", "--problem", "yao-feng-7", "--h", "0.0005"],
        # the first grids past n = 8192, where the residual's u'' stencil
        # strides: only the report's residual moves when the stride rule does
        ["solve", "--problem", "dqa1", "--h", "0.0001"],
        ["solve", "--problem", "dqa", "--h", "0.00001"],
        ["convergence", "--problem", "dqa1"],
        ["convergence", "--problem", "dqa", "--levels", "2", "--csv", "c.csv"],
        # sampled quotients with steps under the difference floor, and a
        # sweep whose last block is partial
        ["check", "--problem", "dqa1", "--M", "1e-05", "--samples", "65536"],
        ["check", "--problem", "dqa", "--M", "7.2", "--samples", "10000"],
        # error paths: exit codes and messages
        ["solve", "--problem", "nope"],
        ["solve", "--problem", "dqa1", "--tol", "0"],
        ["check", "--problem", "dqa1", "--M", "-1"],
        ["kernel"],
        ["convergence", "--problem", "bai-3.5"],
        # one error path through each route to exit 1
        ["solve", "--problem", "dqa1", "--h", "0.3"],
        ["solve", "--problem", "dqa1", "--max-iter", "2"],
        ["solve", "--problem", "dqa1", "--M", "nan"],
        ["check", "--problem", "nope"],
        ["check", "--problem", "dqa1", "--samples", "10"],
        ["check", "--problem", "dqa1", "--samples", "999"],
        ["kernel", "--case", "1", "--h", "0.3"],
        ["kernel", "--bc-file", "bc.json", "--h", "0.0"],
        ["kernel", "--bc-file", "dependent.json"],
        ["kernel", "--bc-file", "singular.json"],
        ["kernel", "--bc-file", "near_dependent.json"],
        ["kernel", "--bc-file", "scaled_singular.json"],
        ["kernel", "--bc-file", "flag.json"],
        ["kernel", "--bc-file", "huge.json"],
        ["convergence", "--problem", "dqa1", "--h0", "0.3"],
        ["convergence", "--problem", "dqa1", "--levels", "0"],
        ["convergence", "--problem", "nope"],
        # grids too large to build: one Error: line, nothing allocated
        ["kernel", "--case", "1", "--h", "1e-20"],
        ["kernel", "--bc-file", "bc.json", "--h", "1e-20"],
        ["solve", "--problem", "dqa1", "--h", "1e-20"],
        # a report that cannot be written leaves no solution CSV behind
        ["solve", "--problem", "dqa1", "--json", "missing/r.json"],
        # a table that cannot be written is not printed either
        ["convergence", "--problem", "dqa1", "--levels", "1", "--csv",
         "missing/x.csv"],
        # two outputs that name one file: a usage error, nothing written
        ["solve", "--problem", "dqa1", "--csv", "u.csv", "--json", "u.csv"],
    ]
)


def run(tree, args):
    """(exit code, stdout, stderr, {file name: bytes}) of one command."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()),
               PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as cwd:
        for name, doc in BC_FILES.items():
            Path(cwd, name).write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "bvp3.cli", *args],
                              cwd=cwd, env=env, capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())
                 if p.name not in BC_FILES}
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(base, head):
    """Names of the parts of two run results that differ."""
    code_a, out_a, err_a, files_a = base
    code_b, out_b, err_b, files_b = head
    diffs = []
    if code_a != code_b:
        diffs.append("exit code %d != %d" % (code_a, code_b))
    if out_a != out_b:
        diffs.append("stdout")
    if err_a != err_b:
        diffs.append("stderr")
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            diffs.append("file %s" % name)
    return diffs


def main(base_tree, head_tree):
    for tree in (base_tree, head_tree):
        if not Path(tree, "src", "bvp3").is_dir():
            print("%s has no src/bvp3" % tree)
            return 2
    changed = 0
    for args in COMMANDS:
        base, head = run(base_tree, args), run(head_tree, args)
        if args == ["list"] and (base[0] or head[0]):
            # identical import errors would otherwise read as identical output
            print("bvp3 list fails: %r" % ((base[2] or head[2])[-500:],))
            return 2
        diffs = differences(base, head)
        if diffs:
            changed += 1
            print("DIFF bvp3 %s: %s" % (" ".join(args), ", ".join(diffs)))
    print("%d commands, %d with different output: %s"
          % (len(COMMANDS), changed, "FAIL" if changed else "ok"))
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
