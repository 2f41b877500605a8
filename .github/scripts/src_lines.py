"""Print the lines and the code lines of the package's modules.

    python3 .github/scripts/src_lines.py [DIR]

DIR defaults to src/bvp3.  A code line is a physical line that holds part
of a token other than a comment or a docstring; a docstring is a string
that is a statement on its own.  Blank lines, comment lines and docstring
lines count as lines only.  One row per module, then the totals.
"""

import sys
import tokenize
from pathlib import Path

# tokens that are layout, not code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# a statement starts after these
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING}


def code_lines(path):
    """The numbers of the code lines of one source file."""
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines, prev = set(), tokenize.ENCODING
    for tok, nxt in zip(tokens, tokens[1:] + [None]):
        docstring = (tok.type == tokenize.STRING and prev in STATEMENT_START
                     and nxt is not None and nxt.type in (tokenize.NEWLINE,
                                                          tokenize.ENDMARKER))
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return lines


def main(root):
    total = code = 0
    for path in sorted(Path(root).glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        c = len(code_lines(path))
        print("%-16s %5d lines %5d code" % (path.name, n, c))
        total, code = total + n, code + c
    print("%-16s %5d lines %5d code" % ("total", total, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "src/bvp3"))
