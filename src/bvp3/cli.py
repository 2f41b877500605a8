"""Command line front end.

Exit codes: 0 on success, 1 for domain failures (unknown problem, divergence,
singular boundary systems, missing exact solution), 2 for usage errors.
All file output is deterministic: floats print with 17 significant digits,
lines end with LF, and no timestamps or environment state leak in.  The solve
report and the check verdict are JSON documents written from the fields of
``IterationReport`` and ``ConditionVerdict``, in declaration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

import click
import numpy as np

from .conditions import verdict
from .corpus import UnknownProblem, get_problem, list_problems
from .greens import (BoundaryConditions, CaseId, build_general_kernel,
                     case_boundary_conditions, kernel_catalog)
from .picard import (Diverged, MaxIterExceeded, NonFiniteValue, kernel_for,
                     solve)
from .quadrature import Grid, tabulate

__all__ = ["main", "NoExactSolution", "convergence_study"]

FLOAT_FMT = "%.17g"
# JSON names of the kernel norms, and record fields kept in memory only
_JSON_NAMES = {"m0": "M0", "m1": "M1", "m2": "M2"}
_IN_MEMORY = ("diffs", "history")


class NoExactSolution(ValueError):
    """Convergence study asked for a problem without a closed-form solution."""


def _fmt(v) -> str:
    return FLOAT_FMT % v


def _grid_from_h(h):
    try:
        return Grid.from_h(h)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _resolved_problem(name, m_override):
    try:
        entry = get_problem(name)
    except UnknownProblem as exc:
        # KeyError str() would requote the message
        raise click.ClickException(exc.args[0])
    problem = entry.problem
    if m_override is not None and m_override != problem.M:
        # analytic Lipschitz constants are certified at the stored M only
        try:
            problem = replace(problem, M=m_override, lipschitz=None)
        except ValueError as exc:
            raise click.ClickException("%s: %s" % (name, exc))
    return entry, problem


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_text(header, columns):
    """CSV text: the header, then one line per index of the equal-length
    columns, written with one format that puts FLOAT_FMT in every field."""
    row = ",".join([FLOAT_FMT] * len(columns))
    lines = [header]
    lines.extend(row % tuple(r) for r in np.column_stack(columns).tolist())
    return "\n".join(lines) + "\n"


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
    """Solve one corpus problem and write the solution CSV and run report."""
    entry, problem = _resolved_problem(name, m_override)
    grid = _grid_from_h(h)
    try:
        state, report = solve(problem, grid, tol=tol, max_iter=max_iter)
    except (ValueError, Diverged, MaxIterExceeded, NonFiniteValue) as exc:
        raise click.ClickException("%s: %s" % (name, exc))
    csv_path = csv_path or "%s_solution.csv" % name
    json_path = json_path or "%s_report.json" % name
    _write_text(csv_path, _csv_text("t,u,du,d2u,phi", (
        grid.nodes, state.u, state.y, state.z, state.phi)))
    _write_text(json_path,
                _record_json(report, problem=name, h=h, tol=tol) + "\n")
    click.echo("%s: converged in %d sweeps, final update %s; wrote %s and %s"
               % (name, report.iterations, _fmt(report.final_diff),
                  csv_path, json_path))


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
    try:
        v = verdict(problem, kernel_for(problem), problem.M, samples=samples)
    except (ValueError, NonFiniteValue) as exc:
        raise click.ClickException("%s: %s" % (name, exc))
    text = _record_json(v, problem=name)
    click.echo(text)
    if json_path:
        _write_text(json_path, text + "\n")


def _bc_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise click.ClickException("bc file must hold a JSON object")
    keys = ("a1", "b1", "g1", "a2", "b2", "g2", "a3", "b3", "g3")
    missing = [k for k in keys if k not in raw]
    if missing:
        raise click.ClickException("bc file lacks %s" % ", ".join(missing))
    # JSON true/false would pass as numbers
    bad = [k for k in keys
           if isinstance(raw[k], bool) or not isinstance(raw[k], (int, float))]
    if bad:
        raise click.ClickException("bc file has non-numeric %s" % ", ".join(bad))
    endpoints = raw.get("endpoints", (0, 0, 1))
    if isinstance(endpoints, list):
        endpoints = tuple(endpoints)
    return BoundaryConditions(*(float(raw[k]) for k in keys),
                              endpoints=endpoints)


def _kernel_rows(kernel, nodes):
    """G, G_t and G_tt at every node pair (t_i, s_j), lower branch on s <= t."""
    below = np.tri(nodes.size, dtype=bool)
    return [np.where(below, tabulate(low, nodes), tabulate(up, nodes))
            for low, up in map(kernel.tables, range(3))]


@main.command("kernel")
@click.option("--case", "case_num", type=click.IntRange(1, 4), default=None,
              help="Catalog case number.")
@click.option("--bc-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with boundary coefficients.")
@click.option("--h", type=float, default=0.01, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--compare-general", is_flag=True,
              help="Rebuild the catalog kernel from its coefficients and "
                   "report the max pointwise gap.")
def cmd_kernel(case_num, bc_file, h, csv_path, compare_general):
    """Tabulate a Green kernel on the grid as t,s,G,G1,G2 rows."""
    if (case_num is None) == (bc_file is None):
        raise click.UsageError("give exactly one of --case or --bc-file")
    if compare_general and case_num is None:
        raise click.UsageError("--compare-general needs --case")
    grid = _grid_from_h(h)
    if case_num is not None:
        case = CaseId(case_num)
        kernel = kernel_catalog(case)
        csv_path = csv_path or "kernel_case%d.csv" % case_num
    else:
        try:
            kernel = build_general_kernel(_bc_from_file(bc_file))
        except ValueError as exc:
            raise click.ClickException(str(exc))
        csv_path = csv_path or "kernel_custom.csv"
    tt = grid.nodes
    g_vals, g1_vals, g2_vals = _kernel_rows(kernel, tt)
    _write_text(csv_path, _csv_text("t,s,G,G1,G2", (
        np.repeat(tt, tt.size), np.tile(tt, tt.size),
        g_vals.ravel(), g1_vals.ravel(), g2_vals.ravel())))
    click.echo("wrote %s" % csv_path)
    if compare_general:
        built = build_general_kernel(case_boundary_conditions(case))
        gap = max(float(np.max(np.abs(cat - gen))) for cat, gen in zip(
            (g_vals, g1_vals, g2_vals), _kernel_rows(built, tt)))
        click.echo("compare_general_gap = %s" % _fmt(gap))


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
    try:
        rows = convergence_study(entry, h0, levels, tol=tol)
    except (NoExactSolution, ValueError, Diverged, MaxIterExceeded) as exc:
        raise click.ClickException("%s: %s" % (name, exc))
    lines = ["h,max_dev_exact,observed_order"]
    for h_val, dev, order in rows:
        lines.append("%s,%s,%s" % (
            _fmt(h_val), _fmt(dev), "" if order is None else _fmt(order)))
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if csv_path:
        _write_text(csv_path, text)


@main.command("list")
def cmd_list():
    """List corpus problems as name,case,has_exact."""
    click.echo("name,case,has_exact")
    for name, case, has_exact in list_problems():
        click.echo("%s,%d,%s" % (name, case.value, "true" if has_exact else "false"))


if __name__ == "__main__":
    main()
