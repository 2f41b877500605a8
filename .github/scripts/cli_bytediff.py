"""Run a fixed list of ``bvp3`` commands from two source trees and compare
their output byte for byte.

    python3 .github/scripts/cli_bytediff.py BASE_TREE HEAD_TREE

Each command runs as ``python -m bvp3.cli`` with the tree's ``src`` first on
PYTHONPATH, in a fresh empty directory that holds only the shared
boundary-condition file.  Stdout, stderr, the exit code and every file the
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
# u(0) = u'(0) = u(1) = 0: a constructed kernel whose G_t changes sign
BC_FILE = ("bc.json", {"a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
                       "a3": 1, "b3": 0, "g3": 0, "endpoints": [0, 0, 1]})
COMMANDS = (
    [["list"]]
    + [["solve", "--problem", p] for p in PROBLEMS]
    + [["check", "--problem", p, "--json", "verdict.json"] for p in PROBLEMS]
    + [["check", "--problem", p, "--M", "0.5", "--samples", "1000"]
       for p in PROBLEMS]
    + [["kernel", "--case", str(c), "--h", "0.05", "--compare-general"]
       for c in (1, 2, 3, 4)]
    + [
        ["solve", "--problem", "dqa1", "--h", "0.001", "--csv", "u.csv",
         "--json", "r.json"],
        ["solve", "--problem", "dqa", "--M", "3.0"],
        ["kernel", "--bc-file", BC_FILE[0], "--csv", "custom.csv"],
        ["convergence", "--problem", "dqa1"],
        ["convergence", "--problem", "dqa", "--levels", "2", "--csv", "c.csv"],
        # error paths: exit codes and messages
        ["solve", "--problem", "nope"],
        ["solve", "--problem", "dqa1", "--tol", "0"],
        ["check", "--problem", "dqa1", "--M", "-1"],
        ["kernel"],
        ["convergence", "--problem", "bai-3.5"],
    ]
)


def run(tree, args):
    """(exit code, stdout, stderr, {file name: bytes}) of one command."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()),
               PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as cwd:
        name, doc = BC_FILE
        Path(cwd, name).write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "bvp3.cli", *args],
                              cwd=cwd, env=env, capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())
                 if p.name != name}
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
