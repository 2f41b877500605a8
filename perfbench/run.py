"""bvp3 benchmark: one closed-loop client in one process, BLAS on one thread.

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): solve-fine, custom-bc, check-sweep.  The run
first times SETUP_REPEATS fresh interpreters from spawn to "bvp3 and
bvp3.cli imported, warm-up done", then warms up in-process, then sends the
seeded requests one after another for --seconds, checking every output.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request
twice, untraced and traced in alternating order, and reports per-layer
metrics from spans recorded around bvp3's public functions (tracer.py),
plus the tracing overhead (traced minus untraced median latency).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the environment and
a hash of the request list, goes to .perfbench/ in the checkout, and a
traced run writes its spans there too.  The process exits non-zero without
a result if the bvp3 sources are not in the checkout.
"""

import os
import sys

ENV_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(ENV_PIN)  # BLAS on one thread, before anything loads numpy

import argparse
import hashlib
import itertools
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
WARM_REQUESTS = 2
WARM_SEED = "warm-up"      # warm-up requests do not depend on --seed
# runs go past --seconds until p90 has ten samples above it (untraced) or
# the count window is full (traced), but never past MAX_LOOP_S
MIN_REQUESTS = 100
MAX_LOOP_S = 120
HASH_PREFIX = 100          # requests hashed, whatever number a run reaches
WORKLOAD_NAMES = ("solve-fine", "custom-bc", "check-sweep")
REPEATED_COUNTS = ("picard.sweeps", "f.calls", "f.points",
                   "quadrature.assemble_calls", "quadrature.weight_mb")

# per-layer metric -> (unit, statistic, span names); statistics are per
# request and reported as the median over requests
LAYER_METRICS = {
    "cli.self_ms": ("ms", "self", ("cli",)),
    "cli.bytes_out": ("bytes", "bytes_out", ()),
    "picard.solve_ms": ("ms", "dur", ("picard.solve",)),
    "picard.self_ms": ("ms", "self", ("picard.solve",)),
    "picard.sweeps": ("count", "count", ("picard.solve",)),
    "picard.residual_ms": ("ms", "dur", ("picard.residual",)),
    "quadrature.assemble_ms": ("ms", "dur", ("quadrature.assemble",)),
    "quadrature.assemble_calls": ("count", "calls", ("quadrature.assemble",)),
    "quadrature.weight_mb": ("MiB", "count", ("quadrature.assemble",)),
    "greens.kernel_ms": ("ms", "dur", ("greens.catalog", "greens.build")),
    "greens.build_calls": ("count", "calls", ("greens.build",)),
    "conditions.verdict_ms": ("ms", "dur", ("conditions.verdict",)),
    "conditions.sup_ms": ("ms", "dur", ("conditions.sup",)),
    "conditions.lipschitz_ms": ("ms", "dur", ("conditions.lipschitz",)),
    "conditions.self_ms": ("ms", "self", ("conditions.verdict", "conditions.sup",
                                         "conditions.lipschitz")),
    "f.calls": ("count", "calls", ("f",)),
    "f.points": ("count", "count", ("f",)),
    "f.ms": ("ms", "dur", ("f",)),
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def probe_setup(workdir):
    """Seconds from spawning a fresh interpreter until it has imported bvp3
    and warmed up, and the import time it reports."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                           SRC, workdir],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError("set-up probe exited with code %s" % code)
    return ready, json.loads(line)["import_ms"]


def timed(wl, req, wrap_f):
    """Latency in seconds of one request, and its collected output or the
    traceback it raised."""
    t0 = time.perf_counter()
    try:
        raw = wl.execute(req, wrap_f)
    except Exception:  # a failed request is counted, the run goes on
        return time.perf_counter() - t0, None, traceback.format_exc()
    lat = time.perf_counter() - t0
    try:
        return lat, wl.collect(req, raw), None
    except Exception:
        return lat, None, traceback.format_exc()


def verify(wl, req, out, error):
    """(problems, deviation from the exact solution or None)."""
    if error is not None:
        sys.stderr.write(error)
        return [error.strip().splitlines()[-1]], None
    try:
        return wl.check(req, out)
    except Exception:
        return ["check raised: " + traceback.format_exc().strip().splitlines()[-1]], None


def identity(f):
    return f


def measure(wl, seed, seconds, tracer):
    """Closed loop for `seconds`; returns per-request records and wall time."""
    stream = wl.requests(random.Random(seed))
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    min_requests = MIN_REQUESTS if tracer is None else wl.count_window
    while (time.perf_counter() < deadline
           or len(records) < min_requests and time.perf_counter() < start + MAX_LOOP_S):
        req = next(stream)
        rid = len(records)
        rec = {"problems": [], "err": None, "key": wl.key(req)}
        modes = (False,) if tracer is None else ((False, True) if rid % 2 else (True, False))
        for traced in modes:
            if traced:
                tracer.request_id = rid
                tracer.install()
            try:
                lat, out, error = timed(wl, req, tracer.wrap_f if traced else identity)
            finally:
                if traced:
                    tracer.uninstall()
            problems, err = verify(wl, req, out, error)
            rec["problems"] += problems
            if err is not None:
                rec["err"] = err
            rec["traced" if traced else "lat"] = lat
            if out is not None:
                rec["bytes_out"] = out["bytes_out"]
        records.append(rec)
    return records, time.perf_counter() - start


def end_to_end(records, wall, setup):
    lat_ms = [r["lat"] * 1e3 for r in records]
    return {
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                           if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "throughput_rps": (len(records) / wall, "1/s"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(records, profiles, tracer, setup, window):
    """Per-layer medians over requests; counts over the first `window`
    requests, so a seed gives the same counts however many requests fit."""
    out = {}
    for name, (unit, stat, spans) in LAYER_METRICS.items():
        if spans and all(tracer.untraced(s) for s in spans):
            missing = [t for s in spans for t in tracer.missing_for(s)]
            out[name] = (None, unit, "not traced: %s not found" % ", ".join(missing))
            continue
        rows = range(len(records)) if stat in ("dur", "self") else range(min(window, len(records)))
        values = [layer_value(stat, spans, profiles.get(rid, {}), records[rid])
                  for rid in rows]
        value = statistics.median(values)
        if name == "quadrature.weight_mb":
            value /= 2.0 ** 20
        elif unit == "ms":
            value *= 1e3
        # a missing name looked up in this layer's module leaves its work
        # in this layer's self time
        absorbed = [t for t in tracer.missing
                    if t.startswith("bvp3.%s." % name.split(".")[0])]
        note = None
        if stat == "self" and absorbed:
            note = "includes the work of untraced %s" % ", ".join(absorbed)
        out[name] = (value, unit, note)
    top = [profiles.get(rid, {}).get("_top", 0.0) / r["traced"]
           for rid, r in enumerate(records)]
    out["trace.coverage"] = (statistics.median(top), "ratio", None)
    out["trace.overhead_ms"] = (
        (statistics.median(r["traced"] for r in records)
         - statistics.median(r["lat"] for r in records)) * 1e3, "ms", None)
    out["setup.import_ms"] = (statistics.median(i for _, i in setup), "ms", None)
    return out


def layer_value(stat, spans, profile, record):
    if stat == "bytes_out":
        return record.get("bytes_out", 0)
    index = {"dur": 0, "self": 1, "calls": 2, "count": 3}[stat]
    return sum(profile.get(s, (0.0, 0.0, 0, 0))[index] for s in spans)


def count_mismatches(records, profiles):
    """Requests of one template must repeat their counts exactly."""
    seen, bad = {}, []
    for rid, rec in enumerate(records):
        if rec["key"] is None:
            continue
        counts = tuple(layer_value(LAYER_METRICS[m][1], LAYER_METRICS[m][2],
                                   profiles.get(rid, {}), rec)
                       for m in REPEATED_COUNTS)
        first = seen.setdefault(rec["key"], counts)
        if counts != first:
            bad.append("%s: counts %s, earlier %s" % (rec["key"], counts, first))
    return bad


def environment(seed, wl):
    import numpy
    import scipy
    from importlib.metadata import version
    from workloads import describe
    reqs = list(itertools.islice(wl.requests(random.Random(seed)), HASH_PREFIX))
    digest = hashlib.sha256(json.dumps([describe(r) for r in reqs],
                                       sort_keys=True).encode()).hexdigest()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "env_pin": ENV_PIN,
        "platform": platform.platform(),
        "seed": seed,
        "requests_sha256": digest,
        "requests_hashed": HASH_PREFIX,
    }


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "bvp3", "__init__.py")):
        sys.exit("perfbench: the bvp3 sources are not at %s" % SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for name, (value, unit, note) in record["metrics"].items():
        print("%-26s %14s %s%s" % (name, "null" if value is None else "%.6g" % value,
                                   unit, "  (%s)" % note if note else ""))
    for line in record["problems"][:10]:
        print("FAILED", line)
    print("environment", json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(record["result"]))


def run(args, workdir):
    setup = [probe_setup(workdir) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, SRC)
    import bvp3
    if not os.path.abspath(bvp3.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported bvp3 from %s, not from %s" % (bvp3.__file__, SRC))
    from probe import warm_up
    from tracer import Tracer, request_profiles
    from workloads import WORKLOADS
    warm_up(workdir)
    wl = WORKLOADS[args.workload](workdir)
    for req in itertools.islice(wl.requests(random.Random(WARM_SEED)), WARM_REQUESTS):
        timed(wl, req, identity)

    tracer = Tracer() if args.trace else None
    records, wall = measure(wl, args.seed, args.seconds, tracer)

    problems = ["request %d: %s" % (i, p) for i, r in enumerate(records)
                for p in r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    errs = [r["err"] for r in records if r["err"] is not None]
    if tracer is None:
        metrics = {k: (v, u, None) for k, (v, u) in end_to_end(records, wall, setup).items()}
    else:
        profiles = request_profiles(tracer.spans)
        metrics = per_layer(records, profiles, tracer, setup, wl.count_window)
        problems += count_mismatches(records, profiles)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    result_metrics = {}
    for name, (value, unit, note) in metrics.items():
        result_metrics[name] = {"value": value, "unit": unit}
        if note:
            result_metrics[name]["note"] = note
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": result_metrics}
    summary = {"failed_frac": failed / len(records),
               "err_max": max(errs) if errs else None,
               "wall_s": wall}
    return {"workload": args.workload, "trace": args.trace,
            "environment": environment(args.seed, wl), "summary": summary,
            "setup_probes": setup, "latencies_ms": [r["lat"] * 1e3 for r in records],
            "problems": problems, "result": result,
            "metrics": {**metrics, "failed_frac": (summary["failed_frac"], "ratio", None),
                        "err_max": (summary["err_max"], "abs", None)}}


if __name__ == "__main__":
    main()
