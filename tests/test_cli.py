"""Command line behavior: outputs, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from bvp3.cli import NoExactSolution, convergence_study, main
from bvp3 import Grid, get_problem, solve

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


def test_check_small_radius(runner):
    res = runner.invoke(main, ["check", "--problem", "yao-feng-7",
                               "--M", "0.01"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["theorem1_holds"] is False
    assert doc["lipschitz_source"] == "sampled"


def test_kernel_dump_and_compare(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["kernel", "--case", "1",
                                   "--compare-general"])
        assert res.exit_code == 0
        gap_line = [l for l in res.output.splitlines()
                    if l.startswith("compare_general_gap")][0]
        assert float(gap_line.split("=")[1]) <= 1e-12
        lines = Path("kernel_case1.csv").read_text().splitlines()
        assert lines[0] == "t,s,G,G1,G2"
        assert len(lines) == 101 * 101 + 1


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
            "list.json": ([1, 0, 0], "object"),
        }
        for name, (doc, said) in malformed.items():
            Path(name).write_text(json.dumps(doc))
            res = runner.invoke(main, ["kernel", "--bc-file", name])
            assert res.exit_code == 1, name
            assert res.output.startswith("Error:") and said in res.output, name
            assert res.exception is None or isinstance(res.exception, SystemExit)


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
