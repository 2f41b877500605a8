"""Command line behavior: outputs, determinism, exit codes."""

import collections
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from bvp3.cli import (FLOAT_FMT, NoExactSolution, _csv_text,
                      convergence_study, main)
from bvp3 import (Diverged, Grid, MaxIterExceeded, NonFiniteValue,
                  get_problem, kernel_for, list_problems, solve, verdict)
from bvp3.greens import (BoundaryConditions, CaseId, build_general_kernel,
                         kernel_catalog)

REPORT_FIELDS = ["problem", "h", "tol", "iterations", "final_diff", "q", "p_k",
                 "M0", "M1", "M2", "bound_checks", "residual", "max_dev_exact",
                 "converged"]
VERDICT_FIELDS = ["problem", "M", "M0", "M1", "M2", "sup_f", "sup_f_positive",
                  "sign_ok", "L0", "L1", "L2", "lipschitz_source", "q",
                  "theorem1_holds", "theorem2_holds", "theorem3_holds",
                  "theorem4_holds", "predicted_monotonicity"]


@pytest.fixture
def runner():
    return CliRunner()


def test_list_output(runner):
    res = runner.invoke(main, ["list"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "name,case,has_exact"
    assert "dqa1,2,true" in lines
    assert "yao-feng-7,1,false" in lines
    assert len(lines) == 7


def test_solve_writes_csv_and_report(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["solve", "--problem", "dqa1"])
        assert res.exit_code == 0, res.output
        csv_lines = Path("dqa1_solution.csv").read_text().splitlines()
        assert csv_lines[0] == "t,u,du,d2u,phi"
        assert len(csv_lines) == 102
        doc = json.loads(Path("dqa1_report.json").read_text())
        assert list(doc) == REPORT_FIELDS
        assert doc["iterations"] == 5
        assert doc["converged"] is True
        assert doc["q"] == pytest.approx(0.3125)
        assert doc["bound_checks"] == {"u": True, "du": True, "d2u": True}
        assert doc["max_dev_exact"] == pytest.approx(4.9243087e-05, rel=1e-3)
        # u column starts and ends at the boundary values
        first = csv_lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_solve_deterministic_bytes(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for tag in ("a", "b"):
            res = runner.invoke(main, [
                "solve", "--problem", "dqa", "--csv", f"{tag}.csv",
                "--json", f"{tag}.json"])
            assert res.exit_code == 0
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()


def test_solve_csv_matches_per_value_format(runner, tmp_path):
    # the row-at-a-time writer must give the bytes of a plain per-value join
    grid = Grid.from_h(0.01)
    state, _ = solve(get_problem("dqa").problem, grid)
    lines = ["t,u,du,d2u,phi"]
    for i in range(grid.n + 1):
        lines.append(",".join("%.17g" % v for v in (
            grid.nodes[i], state.u[i], state.y[i], state.z[i], state.phi[i])))
    expected = ("\n".join(lines) + "\n").encode("utf-8")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["solve", "--problem", "dqa", "--h", "0.01",
                                   "--csv", "s.csv", "--json", "s.json"])
        assert res.exit_code == 0, res.output
        assert Path("s.csv").read_bytes() == expected


def assert_writer_bytes(*columns):
    """The CSV writer's text of the columns is, field by field, the bytes of
    FLOAT_FMT % v; a mismatch names its first three lines."""
    got = "".join(_csv_text("h", columns)).split("\n")
    row = ",".join([FLOAT_FMT] * len(columns))
    want = (["h"] + [row % tuple(r) for r in np.column_stack(columns).tolist()]
            + [""])
    assert len(got) == len(want)
    assert got == want, [(g, w) for g, w in zip(got, want) if g != w][:3]


def kernel_columns(case, h, kernel=None):
    """The columns of the bvp3 kernel dump of a catalog case, or of the
    kernel given, each built whole: a table's values are one product
    V @ C @ V.T, V = [1, x, x^2], on one BLAS thread below 419 nodes."""
    tt = Grid.from_h(h).nodes
    v = np.stack([np.ones_like(tt), tt, tt * tt], axis=1)
    below = np.tri(tt.size, dtype=bool)
    kernel = kernel or kernel_catalog(CaseId(case))
    return (np.repeat(tt, tt.size), np.tile(tt, tt.size),
            *(np.where(below, v @ low @ v.T, v @ up @ v.T).ravel()
              for low, up in map(kernel.tables, range(3))))


def test_csv_writer_random_bit_patterns():
    # 10^6 patterns, negatives, subnormals, nan and inf included; nine in ten
    # have an exponent in [2^-14, 2^57), around the fixed-notation range
    # [1e-4, 1e17), so the fast path sees most of them
    rng = np.random.default_rng(2028)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    window = rng.random(bits.size) < 0.9
    exponent = rng.integers(1023 - 14, 1023 + 57, bits.size, dtype=np.uint64)
    bits[window] = ((bits[window] & np.uint64(0x800FFFFFFFFFFFFF))
                    | exponent[window] << np.uint64(52))
    assert_writer_bytes(*bits.view(np.float64).reshape(5, -1))


def test_csv_writer_exact_ties():
    # odd j / 2^18 has 18 significant digits, the last a 5: each value is a
    # tie at 17 digits, rounded half to even
    j = np.arange(1, 2 ** 18, 2)
    ties = j[j >= 2 ** 18 / 10] / 2.0 ** 18
    assert ties.size == 117965
    assert_writer_bytes(ties)


def test_csv_writer_edges():
    powers = np.array([float("1e%d" % k) for k in range(-30, 31)])
    edges = np.array([1e-4, 1e16, 1e17])
    values = np.concatenate([
        powers, np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
        [0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308,
         1.7976931348623157e308, 0.1, 1.0 - 2.0 ** -53, 99999999999999999.0,
         9.9999999999999995e-5]])
    assert_writer_bytes(np.concatenate([values, -values]))
    # the same values in rows of three, every field of a row another case
    assert_writer_bytes(values, np.roll(values, 1), -np.roll(values, 2))


@pytest.mark.parametrize("name", [p for p, _, _ in list_problems()])
def test_csv_writer_corpus_solutions(name):
    grid = Grid.from_h(0.001)
    state, _ = solve(get_problem(name).problem, grid)
    assert_writer_bytes(grid.nodes, state.u, state.y, state.z, state.phi)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_csv_writer_kernel_dumps(case):
    assert_writer_bytes(*kernel_columns(case, 0.05))


def test_csv_writer_memory_is_bounded():
    # the writer works in blocks, so its peak does not grow with the table:
    # the n = 100 kernel dump (51,005 values) against the n = 1000 solve
    # table (5,005 values), every piece written out and dropped
    grid = Grid.from_h(0.001)
    state, _ = solve(get_problem("dqa").problem, grid)
    tables = [(grid.nodes, state.u, state.y, state.z, state.phi),
              kernel_columns(1, 0.01)]
    peaks = []
    for columns in tables:
        tracemalloc.start()
        collections.deque(_csv_text("h", columns), maxlen=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert sum(map(len, tables[1])) == 51005
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_solve_unknown_problem_exit_code(runner):
    res = runner.invoke(main, ["solve", "--problem", "nosuch"])
    assert res.exit_code == 1
    assert "nosuch" in res.output


@pytest.mark.parametrize("args, said", [
    (["solve", "--problem", "dqa1", "--tol", "0"], "tol must be positive"),
    (["solve", "--problem", "dqa1", "--tol", "-1"], "tol must be positive"),
    (["solve", "--problem", "dqa1", "--tol", "nan"], "tol must be positive"),
    (["solve", "--problem", "dqa1", "--max-iter", "0"], "max_iter"),
    (["solve", "--problem", "dqa1", "--M", "-1"], "M must be positive"),
    (["solve", "--problem", "dqa1", "--M", "nan"], "M must be positive"),
    (["solve", "--problem", "dqa1", "--h", "nan"], "step must be positive"),
    (["check", "--problem", "dqa1", "--M", "-1"], "M must be positive"),
    (["check", "--problem", "dqa", "--M", "inf"], "M must be positive and finite"),
    (["solve", "--problem", "dqa", "--M", "inf"], "M must be positive and finite"),
    (["check", "--problem", "dqa", "--M", "1e308"], "sampling box overflows"),
    (["check", "--problem", "bai-3.5", "--M", "1e200"], "f returned non-finite"),
], ids=["tol-0", "tol-neg", "tol-nan", "max-iter-0", "M-neg", "M-nan",
        "h-nan", "check-M-neg", "check-M-inf", "M-inf", "check-box-overflow",
        "check-f-overflow"])
def test_bad_numbers_end_with_clean_error(runner, tmp_path, args, said):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.output.startswith("Error:") and said in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_solve_m_override_drops_analytic_constants(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["solve", "--problem", "dqa1", "--M", "6.0",
                                   "--json", "r.json"])
        assert res.exit_code == 0
        doc = json.loads(Path("r.json").read_text())
        assert doc["q"] is None and doc["p_k"] is None
        assert doc["bound_checks"]["u"] is True


def test_check_verdict_json(runner):
    res = runner.invoke(main, ["check", "--problem", "bai-3.5"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert list(doc) == VERDICT_FIELDS
    assert doc["theorem4_holds"] is True
    assert doc["sign_ok"] is True
    assert doc["q"] == pytest.approx(0.4644522027202773, rel=1e-9)
    assert doc["lipschitz_source"] == "analytic"
    assert doc["predicted_monotonicity"] == "increasing"


def _json_names(record):
    """A result record's fields under their JSON names, without the
    in-memory sweep lists."""
    return {("M" + k[1:] if k in ("m0", "m1", "m2") else k): v
            for k, v in vars(record).items() if k not in ("diffs", "history")}


@pytest.mark.parametrize("name", [row[0] for row in list_problems()])
def test_json_documents_hold_the_records(runner, tmp_path, name):
    entry = get_problem(name)
    res = runner.invoke(main, ["check", "--problem", name])
    assert res.exit_code == 0, res.output
    v = verdict(entry.problem, kernel_for(entry.problem), entry.reference.M,
                samples=4096)
    assert json.loads(res.output) == {"problem": name, **_json_names(v)}
    _, report = solve(entry.problem, Grid.from_h(0.01))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["solve", "--problem", name, "--h", "0.01",
                                   "--json", "r.json"])
        assert res.exit_code == 0, res.output
        doc = json.loads(Path("r.json").read_text())
    assert doc == {"problem": name, "h": 0.01, "tol": 1e-6,
                   **_json_names(report)}


def test_check_small_radius(runner):
    res = runner.invoke(main, ["check", "--problem", "yao-feng-7",
                               "--M", "0.01"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["theorem1_holds"] is False
    assert doc["lipschitz_source"] == "sampled"


def test_kernel_dump(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["kernel", "--case", "1"])
        assert res.exit_code == 0
        assert res.output == "wrote kernel_case1.csv\n"
        lines = Path("kernel_case1.csv").read_text().splitlines()
        assert lines[0] == "t,s,G,G1,G2"
        assert len(lines) == 101 * 101 + 1
        # catalog and constructed tables are equal by construction; that is
        # pinned in test_greens, and no option prints their gap
        res = runner.invoke(main, ["kernel", "--case", "1",
                                   "--compare-general"])
        assert res.exit_code == 2
        assert "No such option" in res.output


@pytest.mark.parametrize("n", [4, 23, 24, 48, 100, 200])
def test_kernel_dump_blocks_give_the_whole_bytes(n, runner, tmp_path):
    # 24 node rows a block, the last with the rest: one block below 25
    # nodes, a last block of 25 rows at n = 24 and 48, and several blocks
    # of a constructed kernel whose values are not exact in binary
    h = 1.0 / n
    kernel = build_general_kernel(BoundaryConditions(1, 0, 0, 0, 1, 0, 1, 0, 0))
    want = "".join(_csv_text("t,s,G,G1,G2", kernel_columns(0, h, kernel)))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("bc.json").write_text(json.dumps({
            "a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
            "a3": 1, "b3": 0, "g3": 0}))
        res = runner.invoke(main, ["kernel", "--bc-file", "bc.json",
                                   "--h", repr(h), "--csv", "k.csv"])
        assert res.exit_code == 0, res.output
        assert Path("k.csv").read_text() == want


def test_kernel_dump_memory_is_bounded(tmp_path, monkeypatch):
    # the five (n+1)^2 columns built whole peaked at 6.96 MiB at h = 0.0025;
    # tabulated a block of node rows at a time, the dump stays under 2 MiB,
    # with the bytes of the whole columns
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        main(["kernel", "--case", "1", "--h", "0.0025", "--csv", "k.csv"],
             standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    want = "".join(_csv_text("t,s,G,G1,G2", kernel_columns(1, 0.0025)))
    assert Path("k.csv").read_text() == want


def test_kernel_case3_nonnegative(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["kernel", "--case", "3", "--h", "0.05",
                                   "--csv", "k3.csv"])
        assert res.exit_code == 0
        rows = np.loadtxt("k3.csv", delimiter=",", skiprows=1)
        assert rows[:, 2].min() >= -1e-12
        assert rows[:, 3].min() >= -1e-12


def test_kernel_bc_file_routes(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("ok.json").write_text(json.dumps({
            "a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
            "a3": 1, "b3": 0, "g3": 0}))
        res = runner.invoke(main, ["kernel", "--bc-file", "ok.json",
                                   "--h", "0.1"])
        assert res.exit_code == 0
        assert Path("kernel_custom.csv").exists()

        Path("dup.json").write_text(json.dumps({
            "a1": 1, "b1": 0, "g1": 0, "a2": 1, "b2": 0, "g2": 0,
            "a3": 0, "b3": 1, "g3": 0}))
        res = runner.invoke(main, ["kernel", "--bc-file", "dup.json"])
        assert res.exit_code == 1
        assert "dependent" in res.output

        Path("sing.json").write_text(json.dumps({
            "a1": 0, "b1": 1, "g1": 0, "a2": 0, "b2": 0, "g2": 1,
            "a3": 0, "b3": 1, "g3": 1}))
        res = runner.invoke(main, ["kernel", "--bc-file", "sing.json"])
        assert res.exit_code == 1
        assert "singular" in res.output

        Path("short.json").write_text(json.dumps({"a1": 1}))
        res = runner.invoke(main, ["kernel", "--bc-file", "short.json"])
        assert res.exit_code == 1

        good = {"a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
                "a3": 1, "b3": 0, "g3": 0}
        malformed = {
            "ends_int.json": (dict(good, endpoints=5), "endpoints"),
            "ends_pair.json": (dict(good, endpoints=[0, 1]), "endpoints"),
            "ends_bool.json": (dict(good, endpoints=[0, False, True]),
                               "endpoints"),
            "null.json": (dict(good, b2=None), "b2"),
            "text.json": (dict(good, a3="1"), "a3"),
            "flag.json": (dict(good, a1=True), "a1"),
            "nan.json": (dict(good, g3=float("nan")), "finite"),
            "inf.json": (dict(good, g3=float("inf")), "finite"),
            # an integer too large for a float
            "huge.json": (dict(good, a1=10 ** 400), "finite numbers: a1"),
            "list.json": ([1, 0, 0], "object"),
            # a misspelt "endpoints" would fall back to the default frame
            "typo.json": (dict(good, endpoint=[0, 1, 1]), "unknown endpoint"),
        }
        for name, (doc, said) in malformed.items():
            Path(name).write_text(json.dumps(doc))
            res = runner.invoke(main, ["kernel", "--bc-file", name])
            assert res.exit_code == 1, name
            assert res.output.startswith("Error:") and said in res.output, name
            assert res.exception is None or isinstance(res.exception, SystemExit)


def test_kernel_bc_file_case3_matches_catalog(runner, tmp_path):
    case3 = {"a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
             "a3": 0, "b3": 0, "g3": 1, "endpoints": [0, 1, 1]}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("ok.json").write_text(json.dumps(case3))
        res = runner.invoke(main, ["kernel", "--bc-file", "ok.json",
                                   "--h", "0.05", "--csv", "custom.csv"])
        assert res.exit_code == 0
        res = runner.invoke(main, ["kernel", "--case", "3", "--h", "0.05",
                                   "--csv", "case3.csv"])
        assert res.exit_code == 0
        assert Path("custom.csv").read_bytes() == Path("case3.csv").read_bytes()


def test_kernel_bc_file_row_scale_matches_catalog(runner, tmp_path):
    # CASE1 with u(0) = 0 written as 1e12 u(0) = 0: a row's scale decides
    # nothing, so the dump is the catalog one byte for byte
    case1 = {"a1": 1e12, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
             "a3": 0, "b3": 1, "g3": 0}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("scaled.json").write_text(json.dumps(case1))
        res = runner.invoke(main, ["kernel", "--bc-file", "scaled.json",
                                   "--h", "0.05", "--csv", "custom.csv"])
        assert res.exit_code == 0
        res = runner.invoke(main, ["kernel", "--case", "1", "--h", "0.05",
                                   "--csv", "case1.csv"])
        assert res.exit_code == 0
        assert Path("custom.csv").read_bytes() == Path("case1.csv").read_bytes()


def test_kernel_usage_errors(runner):
    assert runner.invoke(main, ["kernel"]).exit_code == 2
    res = runner.invoke(main, ["kernel", "--case", "1", "--bc-file", "x"])
    assert res.exit_code == 2
    assert runner.invoke(main, ["solve"]).exit_code == 2


def test_convergence_table(runner):
    res = runner.invoke(main, ["convergence", "--problem", "dqa1"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "h,max_dev_exact,observed_order"
    assert len(lines) == 5
    assert lines[1].endswith(",")
    orders = [float(l.split(",")[2]) for l in lines[2:]]
    for o in orders:
        assert 1.85 <= o <= 2.15
    h_001 = [l for l in lines if l.startswith("0.01,")][0]
    assert float(h_001.split(",")[1]) == pytest.approx(4.9243087e-05, rel=1e-3)


def test_convergence_requires_exact(runner):
    res = runner.invoke(main, ["convergence", "--problem", "yao-feng-7"])
    assert res.exit_code == 1
    assert "no exact solution" in res.output


def test_convergence_non_finite_f_ends_with_clean_error(runner, monkeypatch):
    def non_finite(*args, **kwargs):
        raise NonFiniteValue("f returned non-finite values")

    monkeypatch.setattr("bvp3.cli.solve", non_finite)
    res = runner.invoke(main, ["convergence", "--problem", "dqa1"])
    assert res.exit_code == 1
    assert res.output.startswith("Error: dqa1:")
    assert "non-finite" in res.output


@pytest.mark.parametrize("args", [
    ["solve", "--problem", "dqa1", "--csv", "{missing}"],
    ["check", "--problem", "dqa1", "--json", "{missing}"],
    ["kernel", "--case", "1", "--h", "0.1", "--csv", "{missing}"],
    ["solve", "--problem", "dqa1", "--json", "{missing}"],
    ["convergence", "--problem", "dqa1", "--levels", "1", "--csv", "{missing}"],
], ids=["solve", "check", "kernel", "solve-json", "convergence"])
def test_output_in_missing_directory_ends_with_clean_error(runner, tmp_path,
                                                           args):
    missing = str(tmp_path / "missing" / "x")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, [a.format(missing=missing) for a in args])
        # the run leaves none of its files, the solve CSV included
        assert list(Path.cwd().iterdir()) == []
    last = res.output.splitlines()[-1]
    assert res.exit_code == 1
    assert last.startswith("Error: [Errno 2]") and missing in last
    # no verdict or table reaches stdout when its file cannot be written
    assert '"theorem1_holds"' not in res.output
    assert "h,max_dev_exact" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


BC_CASE2 = {"a1": 1, "b1": 0, "g1": 0, "a2": 0, "b2": 1, "g2": 0,
            "a3": 1, "b3": 0, "g3": 0}


@pytest.mark.parametrize("exc", [ValueError, Diverged, MaxIterExceeded,
                                 NonFiniteValue])
@pytest.mark.parametrize("target, args, lead", [
    ("solve", ["solve", "--problem", "dqa1"], "Error: dqa1: "),
    ("verdict", ["check", "--problem", "dqa1"], "Error: dqa1: "),
    ("solve", ["convergence", "--problem", "dqa1"], "Error: dqa1: "),
    ("build_general_kernel", ["kernel", "--bc-file", "bc.json"], "Error: "),
], ids=["solve", "check", "convergence", "kernel-bc-file"])
def test_every_domain_failure_exits_1(runner, tmp_path, monkeypatch, target,
                                      args, lead, exc):
    def failing(*_, **__):
        raise exc("injected failure")

    monkeypatch.setattr("bvp3.cli." + target, failing)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("bc.json").write_text(json.dumps(BC_CASE2))
        res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.output == lead + "injected failure\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)


REFUSED = "Unable to allocate 745. GiB for an array"


@pytest.mark.parametrize("target, args", [
    ("numpy.linspace", ["solve", "--problem", "dqa", "--h", "1e-11"]),
    ("numpy.linspace", ["convergence", "--problem", "dqa", "--h0", "1e-11"]),
    ("bvp3.conditions._halton",
     ["check", "--problem", "dqa", "--samples", str(10 ** 20)]),
], ids=["solve", "convergence", "check"])
def test_allocation_failure_ends_with_clean_error(runner, tmp_path,
                                                  monkeypatch, target, args):
    # the grid nodes and the Halton points are the first arrays of these
    # sizes; each is refused here, as numpy refuses a request beyond the
    # address space, so the test never asks for the memory
    module, name = target.rsplit(".", 1)
    allocate = getattr(importlib.import_module(module), name)

    def refused(*args, **kwargs):
        if any(isinstance(a, int) and a > 10 ** 9 for a in args):
            raise MemoryError(REFUSED)
        return allocate(*args, **kwargs)

    monkeypatch.setattr(target, refused)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.output == "Error: dqa: %s\n" % REFUSED
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_convergence_study_function():
    rows = convergence_study(get_problem("dqa"), 0.04, 2)
    assert len(rows) == 3
    assert rows[0][2] is None
    with pytest.raises(NoExactSolution):
        convergence_study(get_problem("bai-3.5"), 0.04, 2)
    with pytest.raises(ValueError):
        convergence_study(get_problem("dqa"), 0.5, 2)


def test_convergence_study_eight_levels():
    # the finest level has n = 6400, where dense weights would need 1 GB;
    # the later orders drift as the tol = 1e-6 iteration error shows
    rows = convergence_study(get_problem("dqa1"), 0.04, 8)
    assert len(rows) == 9
    for _, _, order in rows[1:6]:
        assert order == pytest.approx(2.0, abs=0.01)
