"""The three workloads: seeded request streams, execution, and checks.

Every stream is a sequence of shuffled blocks.  A block holds each request
template a fixed number of times, so the request mix is the same for every
seed and the seed only changes the order and the drawn parameters.  That
keeps medians and tails comparable across seeds.

Checks are independent of the code under test: norms, boundary rows and
exact solutions below are written out from the problem statements, and
the manufactured solutions of ``custom-bc`` come from the benchmark's own
3x3 solve.  The corpus supplies only input data (names, right-hand sides,
stored radii and Lipschitz constants, reference sweep counts).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from bvp3 import cli, corpus, greens, picard, quadrature

# catalog case -> (M0, M1, M2), the closed-form kernel row norms
CASE_NORMS = {
    1: (1.0 / 12.0, 1.0 / 8.0, 0.5),
    2: (1.0 / 3.0, 0.5, 1.0),
    3: (1.0 / 6.0, 0.5, 1.0),
    4: (1.0 / 3.0, 0.5, 1.0),
}
# catalog case -> boundary rows ((a, b, g), endpoint) of a*u + b*u' + g*u'' = 0
CASE_ROWS = {
    1: (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 1, 0), 1)),
    2: (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1)),
    3: (((1, 0, 0), 0), ((0, 1, 0), 1), ((0, 0, 1), 1)),
    4: (((1, 0, 0), 0), ((0, 0, 1), 0), ((0, 1, 0), 1)),
}
EXACT = {
    "dqa1": lambda t: -t ** 3 + 3.0 * t ** 2,
    "dqa": lambda t: t ** 3 - 3.0 * t ** 2 + 3.0 * t,
}

SOLVE_TOL = 1e-6          # the CLI's default --tol
BC_TOL = 1e-9
REL_TOL = 1e-9
L_SLACK = 1e-9            # sampled Lipschitz quotients round past analytic ones


def _problem_names():
    return [name for name, _, _ in corpus.list_problems()]


def _blocks(templates, rng):
    while True:
        block = list(templates)
        rng.shuffle(block)
        yield from block


def _run_cli(argv):
    """Invoke the bvp3 CLI in-process and return what it echoed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv, standalone_mode=False)
    return buf.getvalue()


class SolveFine:
    """``bvp3 solve --problem P --h 0.001`` with CSV and JSON to a work dir.

    A block holds every corpus problem once and the two with exact solutions
    (whose deviation check is the strictest) once more.  The three CASE1
    problems are about a tenth slower than the rest, so an even six-way mix
    would put the median on that gap and let it jump between runs.
    """

    name = "solve-fine"
    h = 0.001
    n = 1000
    count_window = 32

    def __init__(self, workdir):
        self.csv = os.path.join(workdir, "solution.csv")
        self.json = os.path.join(workdir, "report.json")

    def requests(self, rng):
        for name in _blocks(_problem_names() + list(EXACT), rng):
            yield {"problem": name}

    def key(self, req):
        return req["problem"]

    def execute(self, req, wrap_f):
        return _run_cli(["solve", "--problem", req["problem"], "--h", repr(self.h),
                         "--csv", self.csv, "--json", self.json])

    def collect(self, req, echoed):
        out = {"stdout": echoed}
        for key, path in (("csv", self.csv), ("json", self.json)):
            with open(path, "rb") as fh:
                out[key] = fh.read().decode("utf-8")
            os.remove(path)
        out["bytes_out"] = sum(len(out[k].encode("utf-8"))
                               for k in ("stdout", "csv", "json"))
        return out

    def check(self, req, out):
        """Problems found in one output (empty when correct), and the
        deviation from the exact solution where one is known."""
        name = req["problem"]
        entry = corpus.get_problem(name)
        case = entry.case.value
        doc = json.loads(out["json"])
        bad = []
        if doc.get("converged") is not True:
            bad.append("report says not converged")
        if doc.get("problem") != name or doc.get("h") != self.h:
            bad.append("report names another problem or step")
        if abs(doc.get("iterations", -99) - entry.reference.iterations) > 1:
            bad.append("%s sweeps, reference %d"
                       % (doc.get("iterations"), entry.reference.iterations))

        lines = out["csv"].split("\n")
        if lines[0] != "t,u,du,d2u,phi" or lines[-1] != "" \
                or len(lines) != self.n + 3:
            return bad + ["CSV is not a header plus %d rows" % (self.n + 1)], None
        try:
            table = np.array([row.split(",") for row in lines[1:-1]], dtype=float)
        except ValueError:
            return bad + ["CSV rows are not five numbers each"], None
        if table.shape != (self.n + 1, 5) or not np.all(np.isfinite(table)):
            return bad + ["CSV rows are not five finite numbers each"], None
        t, u, du, d2u, phi = table.T
        if np.max(np.abs(t - np.arange(self.n + 1) / self.n)) > 1e-12:
            bad.append("CSV nodes are not the h=%g grid" % self.h)
        fields = (u, du, d2u)
        for (a, b, g), end in CASE_ROWS[case]:
            i = self.n * end
            if abs(a * u[i] + b * du[i] + g * d2u[i]) > BC_TOL:
                bad.append("boundary row (%g, %g, %g) at t=%d fails" % (a, b, g, end))
        # a converged iterate reproduces phi to within one more update
        update = np.max(np.abs(entry.problem.f(t, u, du, d2u) - phi))
        if not update <= SOLVE_TOL:
            bad.append("phi is not a fixed point (update %.3e)" % update)
        M = entry.reference.M
        expect = {k: bool(np.max(np.abs(v)) <= m * M + 1e-6)
                  for k, v, m in zip(("u", "du", "d2u"), fields, CASE_NORMS[case])}
        if doc.get("bound_checks") != expect:
            bad.append("report bound checks disagree with the CSV")
        err = None
        if name in EXACT:
            err = float(np.max(np.abs(u - EXACT[name](t))))
            if not err <= self.h ** 2:
                bad.append("deviation %.3e exceeds h^2" % err)
            if not math.isclose(doc.get("max_dev_exact") or 0.0, err,
                                rel_tol=REL_TOL):
                bad.append("report deviation disagrees with the CSV")
        return bad, err


class Manufactured:
    """Right-hand side with a known solution u(t) = c0 + c1 t + c2 t^2 +
    B t^3 + A t^4 and Lipschitz constants LIPSCHITZ in (u, u', u'')."""

    LIPSCHITZ = (0.2, 0.1, 0.05)

    def __init__(self, c, A, B):
        self.c, self.A, self.B = c, A, B

    def u(self, t):
        c0, c1, c2 = self.c
        return c0 + t * (c1 + t * (c2 + t * (self.B + t * self.A)))

    def du(self, t):
        _, c1, c2 = self.c
        return c1 + t * (2.0 * c2 + t * (3.0 * self.B + t * 4.0 * self.A))

    def d2u(self, t):
        return 2.0 * self.c[2] + t * (6.0 * self.B + t * 12.0 * self.A)

    def __call__(self, t, x, y, z):
        l0, l1, l2 = self.LIPSCHITZ
        return (24.0 * self.A * t + 6.0 * self.B
                + l0 * (np.sin(x) - np.sin(self.u(t)))
                + l1 * (y - self.du(t)) + l2 * (z - self.d2u(t)))


def manufactured_coefficients(rows, A, B):
    """c = (c0, c1, c2) making the quartic satisfy every boundary row, and
    the condition number of that 3x3 system."""
    mat = np.zeros((3, 3))
    rhs = np.zeros(3)
    for i, ((a, b, g), e) in enumerate(rows):
        mat[i] = (a, a * e + b, a * e * e + 2.0 * b * e + 2.0 * g)
        rhs[i] = -(a * (B * e ** 3 + A * e ** 4) + b * (3.0 * B * e ** 2 + 4.0 * A * e ** 3)
                   + g * (6.0 * B * e + 12.0 * A * e ** 2))
    return np.linalg.solve(mat, rhs), np.linalg.cond(mat)


class CustomBC:
    """Build a kernel for freshly perturbed boundary rows, then solve at n=100
    a right-hand side whose exact solution is known."""

    name = "custom-bc"
    n = 100
    noise = 0.1
    max_cond = 1e3
    # max |error| / h^2 in u, u', u'': at most 5.2, 6.6, 5.7 over the 4000
    # requests of seeds 0-199; the limits leave a factor of about four
    err_limits = (25.0, 25.0, 25.0)
    count_window = 16

    def __init__(self, workdir):
        self.grid = quadrature.Grid(self.n)

    def requests(self, rng):
        for case in _blocks(sorted(CASE_ROWS), rng):
            while True:
                rows = tuple((tuple(v + rng.gauss(0.0, self.noise) for v in abg), e)
                             for abg, e in CASE_ROWS[case])
                A, B = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
                c, cond = manufactured_coefficients(rows, A, B)
                if cond < self.max_cond:
                    break
            yield {"case": case, "rows": rows, "A": A, "B": B,
                   "_bc": greens.BoundaryConditions(
                       *(v for abg, _ in rows for v in abg),
                       endpoints=tuple(e for _, e in rows)),
                   "_f": Manufactured(c, A, B)}

    def key(self, req):
        return None

    def execute(self, req, wrap_f):
        kernel = greens.build_general_kernel(req["_bc"])
        rhs = req["_f"]
        problem = picard.ProblemSpec(f=wrap_f(rhs), bc=req["_bc"],
                                     lipschitz=rhs.LIPSCHITZ, exact=rhs.u)
        return picard.solve(problem, self.grid, kernel=kernel)

    def collect(self, req, result):
        state, report = result
        return {"converged": report.converged, "iterations": report.iterations,
                "u": state.u, "du": state.y, "d2u": state.z,
                "max_dev_exact": report.max_dev_exact, "bytes_out": 0}

    def check(self, req, out):
        rhs = req["_f"]
        t = self.grid.nodes
        bad = []
        if out["converged"] is not True:
            bad.append("not converged")
        errs = [float(np.max(np.abs(out[k] - exact(t))))
                for k, exact in (("u", rhs.u), ("du", rhs.du), ("d2u", rhs.d2u))]
        h2 = self.grid.h ** 2
        for label, err, limit in zip(("u", "u'", "u''"), errs, self.err_limits):
            if not err <= limit * h2:
                bad.append("%s deviates by %.3e, limit %.3e" % (label, err, limit * h2))
        if not math.isclose(out["max_dev_exact"] or 0.0, errs[0], rel_tol=REL_TOL):
            bad.append("report deviation disagrees with the solution")
        return bad, errs[0]


class CheckSweep:
    """``bvp3 check --problem P --samples 65536``: per problem, 7 of 10
    requests at the stored radius (analytic Lipschitz constants) and 3 at a
    drawn radius in [0.8, 1.0) M (sampled constants)."""

    name = "check-sweep"
    samples = 65536
    stored, drawn = 7, 3
    count_window = 60

    def __init__(self, workdir):
        pass

    def requests(self, rng):
        templates = [(name, k < self.stored) for name in _problem_names()
                     for k in range(self.stored + self.drawn)]
        for name, at_stored in _blocks(templates, rng):
            M = None
            if not at_stored:
                M = corpus.get_problem(name).reference.M * rng.uniform(0.8, 1.0)
            yield {"problem": name, "M": M}

    def key(self, req):
        return (req["problem"], req["M"] is None)

    def execute(self, req, wrap_f):
        argv = ["check", "--problem", req["problem"], "--samples", str(self.samples)]
        if req["M"] is not None:
            argv += ["--M", repr(req["M"])]
        return _run_cli(argv)

    def collect(self, req, echoed):
        return {"stdout": echoed, "bytes_out": len(echoed.encode("utf-8"))}

    def check(self, req, out):
        entry = corpus.get_problem(req["problem"])
        ref = entry.reference
        norms = CASE_NORMS[entry.case.value]
        doc = json.loads(out["stdout"])
        lips = tuple(doc.get(k) for k in ("L0", "L1", "L2"))
        theorems = [doc.get("theorem%d_holds" % i) for i in (1, 2, 3, 4)]
        bad = []
        if doc.get("problem") != req["problem"]:
            bad.append("verdict names another problem")
        if not all(math.isclose(doc.get(k, -1.0), m, rel_tol=1e-12)
                   for k, m in zip(("M0", "M1", "M2"), norms)):
            bad.append("kernel norms differ from the catalog constants")
        q_own = sum(l * m for l, m in zip(lips, norms))
        if not math.isclose(doc.get("q", -1.0), q_own, rel_tol=1e-12):
            bad.append("q is not L . M")
        if req["M"] is None:
            # bvp3 0.1.0's verdict at every stored radius: analytic constants,
            # q from them, and all four theorems hold
            if doc.get("M") != ref.M or doc.get("lipschitz_source") != "analytic":
                bad.append("stored radius did not take the analytic path")
            if lips != tuple(ref.lipschitz):
                bad.append("analytic Lipschitz constants changed")
            if theorems != [True] * 4:
                bad.append("theorem flags %s, bvp3 0.1.0 gives all true" % theorems)
        else:
            if doc.get("M") != req["M"] or doc.get("lipschitz_source") != "sampled":
                bad.append("drawn radius did not take the sampled path")
            # a smaller box cannot need larger constants than the analytic
            # ones certified on the stored box
            for got, bound in zip(lips, ref.lipschitz):
                if not got <= bound * (1.0 + L_SLACK):
                    bad.append("sampled constant %.6g above analytic %.6g" % (got, bound))
            if theorems[0] != (doc.get("sup_f", math.inf) <= req["M"]):
                bad.append("theorem 1 disagrees with sup_f")
            if theorems[2] != (theorems[0] and doc["q"] < 1.0) \
                    or theorems[3] != (theorems[1] and doc["q"] < 1.0):
                bad.append("theorems 3/4 disagree with theorems 1/2 and q")
        if doc.get("predicted_monotonicity") != "increasing":
            bad.append("catalog sign products are positive; monotonicity differs")
        return bad, None


WORKLOADS = {w.name: w for w in (SolveFine, CustomBC, CheckSweep)}


def describe(req):
    """The request's inputs as JSON-ready data, for hashing."""
    return {k: v for k, v in req.items() if not k.startswith("_")}
