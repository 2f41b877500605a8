"""Command line front end.

Exit codes: 0 on success, 1 for domain failures (unknown problem, divergence,
singular boundary systems, missing exact solution), for a grid or sample
count too large to allocate, and for output or boundary-condition files that
cannot be written or read, 2 for usage errors, two outputs that name one
file among them.  An exit-1 failure prints one ``Error:`` line.  A command's
files are written in order, by ``_emit``, before anything reaches stdout; a
failure removes the regular files the command opened and never unlinks a
link or a device, whose target keeps what was written.
All file output is deterministic: floats print with 17 significant digits,
lines end with LF, and no timestamps or environment state leak in.  The solve
report and the check verdict are JSON documents written from the fields of
``IterationReport`` and ``ConditionVerdict``, in declaration order.  The
kernel dump prints the kernel's own values, ``GreenKernel.g``, ``g1`` and
``g2``, a block of node rows at a time, so it holds no (n+1)^2 column.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import fields, replace

import click
import numpy as np

from .conditions import verdict
from .corpus import UnknownProblem, get_problem, list_problems
from .greens import (_COEFFICIENTS, BoundaryConditions, CaseId,
                     build_general_kernel, kernel_catalog)
from .picard import (Diverged, MaxIterExceeded, NonFiniteValue, kernel_for,
                     solve)
from .quadrature import Grid

__all__ = ["main", "NoExactSolution", "convergence_study"]

FLOAT_FMT = "%.17g"
# the CSV writer's values per block, whose tables stay in a core's L2 cache;
# the doubles nearest 10^k, k = -4 .. 20, none below 10^k; each 4-digit
# string as one uint32; the row numbers of the writer's character table
CSV_BLOCK = 2048
KERNEL_ROWS = 24  # node rows of the kernel dump evaluated at a time
_TENS = np.array([float("1e%d" % k) for k in range(-4, 21)])
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                               indexing="ij"), -1).view(np.uint32).ravel()
_ROWS = np.arange(25, dtype=np.uint8)[:, None]
# JSON names of the kernel norms, and record fields kept in memory only
_JSON_NAMES = {"m0": "M0", "m1": "M1", "m2": "M2"}
_IN_MEMORY = ("diffs", "history")
# the failures that end a command with exit 1; ValueError covers the bad
# numbers, boundary systems and JSON of every layer, MemoryError a grid or
# sample count too large to allocate
_FAILURES = (ValueError, OSError, MemoryError, UnknownProblem, Diverged,
             MaxIterExceeded, NonFiniteValue)


class NoExactSolution(ValueError):
    """Convergence study asked for a problem without a closed-form solution."""


def _fmt(v) -> str:
    return FLOAT_FMT % v


@contextmanager
def _failing(name=None):
    """End the command with exit 1 on any of _FAILURES, its message led by
    "name: " when a name is given."""
    try:
        yield
    except _FAILURES as exc:
        # KeyError str() would requote the message
        msg = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        raise click.ClickException(msg if name is None else
                                   "%s: %s" % (name, msg))


def _resolved_problem(name, m_override):
    with _failing():
        entry = get_problem(name)
    problem = entry.problem
    if m_override is not None and m_override != problem.M:
        # analytic Lipschitz constants are certified at the stored M only
        with _failing(name):
            problem = replace(problem, M=m_override, lipschitz=None)
    return entry, problem


def _emit(files, text, nl=True):
    """Write each (path, pieces) of files in order, then echo text.

    A failure of any kind removes each path opened so far where
    os.lstat shows a regular file, so a failed run leaves no file of its
    own and nothing on stdout; a link, device or FIFO is never unlinked,
    and its target keeps what was written."""
    opened = []
    try:
        with _failing():
            for path, pieces in files:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    opened.append(path)
                    fh.writelines(pieces)
    except BaseException:
        for path in opened:
            with suppress(OSError):  # a path gone or not removable is skipped
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        raise
    click.echo(text, nl=nl)


def _csv_text(header, columns):
    """CSV text in pieces: the header line, then ``_csv_rows(columns)``."""
    yield header + "\n"
    yield from _csv_rows(columns)


def _csv_rows(columns):
    """The rows of the columns as CSV text, in blocks of at most CSV_BLOCK
    values, each field the bytes of FLOAT_FMT % v.

    For +-0 and 1e-4 <= |v| < 1e17, %.17g is fixed notation, less trailing
    zeros, of the integer n nearest |v| 10^p, p = 16 - X for X the decimal
    exponent, and 10^p is an exact double.  So Dekker's product gives |v| 10^p
    as hi + lo exactly, and n is hi, an even integer above 2^53, plus lo
    rounded half to even, ties included; FLOAT_FMT prints the other values.
    """
    m, total = len(columns), len(columns[0])
    rows = max(1, min(CSV_BLOCK // m, total))
    xbuf, tables = np.empty((rows, m)), np.full((48, rows * m), 48, np.uint8)
    for i in range(0, total, rows):
        x = np.stack([c[i:i + rows] for c in columns], axis=1,
                     out=xbuf[:min(rows, total - i)]).ravel()
        yield _csv_block(x, m, tables[:, :x.size])


def _csv_block(x, m, tables):
    """The CSV text of x, whole rows of m values, built in tables: digit rows
    zx and character rows chars, whose rows start to end of column j are
    field j."""
    zx, chars = tables[:23], tables[23:]
    size, a, index = x.size, np.abs(x), np.arange(x.size)
    fixed, zero = (a >= 1e-4) & (a < 1e17), a == 0
    w = np.where(fixed, a, 1.0)
    k = np.clip(np.floor(np.log10(w)), -4, 16).astype(np.intp) + 4
    k += w >= _TENS[k + 1]  # k = X + 4 exactly: _TENS[k] <= w < _TENS[k + 1]
    k -= w < _TENS[k]
    b = _TENS[24 - k]
    hi, c, d = w * b, w * 134217729.0, b * 134217729.0  # Dekker's splits
    wh, bh = c - (c - w), d - (d - b)
    lo = wh * bh - hi + wh * (b - bh) + (w - wh) * bh + (w - wh) * (b - bh)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10 ** 17  # n rounded up to 10^(X + 1)
    k += carry
    n[carry] = 10 ** 16
    n[zero] = 0
    # zx[1:22] is "0000" then the 17 digits of n, from five 4-digit groups
    g = np.stack([n // 10 ** e for e in (16, 12, 8, 4, 0)])
    g[1:] -= g[:-1] * 10 ** 4
    zx[2:22] = _DIGITS[g].view(np.uint8).reshape(5, size, 4).transpose(
        0, 2, 1).reshape(20, size)
    frac = np.maximum((_ROWS[1:17] * (zx[6:22] != 48)).max(0) + 4 - k, 0)
    # the point after zx row k + 1, the sign before the lead "0" or digit
    before = -(_ROWS[:22] <= k.astype(np.uint8)).view(np.uint8)
    chars[1:23] = zx[:-1] ^ ((zx[:-1] ^ zx[1:]) & before)
    lead = np.minimum(k, 4)
    chars[k + 2, index] = 46
    chars[lead, index] = 45
    start = lead + 1 - np.signbit(x)
    end = k + 2 + (frac > 0) + frac
    other = ~(fixed | zero)
    if other.any():
        vals = x[other].tolist()
        printed = np.array(("\n".join([FLOAT_FMT] * len(vals)) % tuple(vals))
                           .encode().split(b"\n"), "S24")
        chars[:24, other] = printed.view(np.uint8).reshape(-1, 24).T
        start[other] = 0
        end[other] = np.char.str_len(printed)
    chars[end, index] = 44
    chars[end[m - 1::m], index[m - 1::m]] = 10
    keep = (_ROWS >= start.astype(np.uint8)) & (_ROWS <= end.astype(np.uint8))
    return str(chars.T[keep.T], "ascii")


def _record_json(record, **lead):
    """JSON text of the lead keys, then the record's fields in order."""
    doc = dict(lead)
    for f in fields(record):
        if f.name not in _IN_MEMORY:
            doc[_JSON_NAMES.get(f.name, f.name)] = getattr(record, f.name)
    return json.dumps(doc, indent=2)


@click.group()
def main():
    """Solve third-order two-point boundary value problems by fixed-point
    iteration on the Green-kernel form, and check solvability conditions."""


@main.command("solve")
@click.option("--problem", "name", required=True, help="Corpus problem name.")
@click.option("--h", type=float, default=0.01, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--M", "m_override", type=float, default=None,
              help="Override the stored domain radius.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def cmd_solve(name, h, tol, max_iter, m_override, csv_path, json_path):
    """Solve one corpus problem and write the solution CSV and run report.

    Two output paths that name one file, by their real paths or, where both
    exist, as hard links, are a usage error before the solve runs."""
    _, problem = _resolved_problem(name, m_override)
    with _failing():
        grid = Grid.from_h(h)
    csv_path = csv_path or "%s_solution.csv" % name
    json_path = json_path or "%s_report.json" % name
    same = os.path.realpath(csv_path) == os.path.realpath(json_path)
    with suppress(OSError):  # samefile needs both paths to exist
        same = same or os.path.samefile(csv_path, json_path)
    if same:
        raise click.UsageError("%s and %s name one file" % (csv_path, json_path))
    with _failing(name):
        state, report = solve(problem, grid, tol=tol, max_iter=max_iter)
    _emit([(csv_path, _csv_text("t,u,du,d2u,phi", (
        grid.nodes, state.u, state.y, state.z, state.phi))),
           (json_path,
            (_record_json(report, problem=name, h=h, tol=tol), "\n"))],
          "%s: converged in %d sweeps, final update %s; wrote %s and %s"
          % (name, report.iterations, _fmt(report.final_diff), csv_path,
             json_path))


@main.command("check")
@click.option("--problem", "name", required=True)
@click.option("--M", "m_value", type=float, default=None,
              help="Domain radius; defaults to the stored reference value.")
@click.option("--samples", type=int, default=4096, show_default=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the verdict to a file.")
def cmd_check(name, m_value, samples, json_path):
    """Evaluate the solvability checks and print the verdict as JSON."""
    _, problem = _resolved_problem(name, m_value)
    with _failing(name):
        v = verdict(problem, kernel_for(problem), problem.M, samples=samples)
    text = _record_json(v, problem=name)
    _emit([(json_path, (text, "\n"))] if json_path else [], text)


def _bc_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise click.ClickException("bc file must hold a JSON object")
    missing = [k for k in _COEFFICIENTS if k not in raw]
    if missing:
        raise click.ClickException("bc file lacks %s" % ", ".join(missing))
    unknown = sorted(set(raw) - set(_COEFFICIENTS) - {"endpoints"})
    if unknown:
        raise click.ClickException("bc file has unknown %s" % ", ".join(unknown))
    endpoints = raw.get("endpoints", (0, 0, 1))
    if isinstance(endpoints, list):
        endpoints = tuple(endpoints)
    # validate, in build_general_kernel, checks the values as read
    return BoundaryConditions(*(raw[k] for k in _COEFFICIENTS),
                              endpoints=endpoints)


@main.command("kernel")
@click.option("--case", "case_num", type=click.IntRange(1, 4), default=None,
              help="Catalog case number.")
@click.option("--bc-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with boundary coefficients.")
@click.option("--h", type=float, default=0.01, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
def cmd_kernel(case_num, bc_file, h, csv_path):
    """Tabulate a Green kernel on the grid as t,s,G,G1,G2 rows."""
    if (case_num is None) == (bc_file is None):
        raise click.UsageError("give exactly one of --case or --bc-file")
    with _failing():
        nodes = Grid.from_h(h).nodes
        if case_num is not None:
            kernel = kernel_catalog(CaseId(case_num))
            csv_path = csv_path or "kernel_case%d.csv" % case_num
        else:
            kernel = build_general_kernel(_bc_from_file(bc_file))
            csv_path = csv_path or "kernel_custom.csv"
    _emit([(csv_path, _kernel_text(kernel, nodes))], "wrote %s" % csv_path)


def _kernel_text(kernel, nodes):
    """The kernel dump in pieces: t, s, G, G_t and G_tt at every node pair
    (t_i, s_j), the values of ``kernel.g``, ``g1`` and ``g2``, KERNEL_ROWS
    node rows at a time, so its memory does not grow as the square of the
    nodes."""
    yield "t,s,G,G1,G2\n"
    for a in range(0, nodes.size, KERNEL_ROWS):
        t, s = np.meshgrid(nodes[a:a + KERNEL_ROWS], nodes, indexing="ij")
        yield from _csv_rows([v.ravel() for v in (
            t, s, kernel.g(t, s), kernel.g1(t, s), kernel.g2(t, s))])


def convergence_study(entry, h0, levels, tol=1e-6):
    """Solve at h0, h0/2, ... and log2 the deviation drops.

    Returns rows (h, max_dev_exact, order) where the first order is None.
    """
    if entry.problem.exact is None:
        raise NoExactSolution("problem %r has no exact solution" % entry.name)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    base = Grid.from_h(h0)
    if base.n < 4:
        raise ValueError("h0 gives fewer than 4 subintervals")
    rows = []
    prev = None
    for lev in range(levels + 1):
        grid = Grid(base.n * 2 ** lev)
        _, report = solve(entry.problem, grid, tol=tol)
        dev = report.max_dev_exact
        order = None if prev is None else math.log2(prev / dev)
        rows.append((grid.h, dev, order))
        prev = dev
    return rows


@main.command("convergence")
@click.option("--problem", "name", required=True)
@click.option("--h0", type=float, default=0.04, show_default=True)
@click.option("--levels", type=int, default=3, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
def cmd_convergence(name, h0, levels, tol, csv_path):
    """Halve the grid repeatedly and report observed deviation orders."""
    entry, _ = _resolved_problem(name, None)
    with _failing(name):
        rows = convergence_study(entry, h0, levels, tol=tol)
    text = "h,max_dev_exact,observed_order\n" + "".join(
        "%s,%s,%s\n" % (_fmt(h_val), _fmt(dev),
                        "" if order is None else _fmt(order))
        for h_val, dev, order in rows)
    _emit([(csv_path, (text,))] if csv_path else [], text, nl=False)


@main.command("list")
def cmd_list():
    """List corpus problems as name,case,has_exact."""
    click.echo("name,case,has_exact")
    for name, case, has_exact in list_problems():
        click.echo("%s,%d,%s" % (name, case.value, "true" if has_exact else "false"))


if __name__ == "__main__":
    main()
