"""omlprob benchmark: exact verdicts over a seeded lattice ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends queries in a closed loop: each query goes through
``omlprob.cli.main(["--json", ...])`` after the previous one returned.
Before each of its timed passes over the whole query list, each in a
fresh interpreter, the run sets up SETUPS_PER_PASS times (fresh
interpreter, import omlprob, write the seeded inputs); it stops once S
seconds are used.  Every answer is checked against its expected value.
Query and set-up times are reported on the reference scales of
speed.py, which take the host's slow and fast phases out of them.

With --trace 0 the last line of output reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 it reports the per-layer metrics of a
run that alternates untraced and traced passes.  Earlier lines print
every figure by name and unit, including the failed fraction, the
percentile behind query_tail_ms and its sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import (REFERENCE_S, START_REFERENCE_S, scale,  # noqa: E402
                   start_reference_s)
from tracing import DERIVED, GROUPS, LP_GROUPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_PASS = 3
MIN_PASSES = 2       # a traced run alternates untraced and traced passes
QUERY_CAP_S = 30.0   # a query past this is recorded as did-not-finish
RUN_LIMIT_S = 150.0  # no pass starts, and none runs, past this
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
QUANTILE_GRID = 20000


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def quantile(values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta(p(n+1),
    (1-p)(n+1)) weights.  A workload has a few dozen distinct queries
    whose times leave gaps; the plain sample percentile then jumps
    across a gap when one query near it is noisy, and this estimate does
    not (Harrell and Davis, Biometrika 69, 1982).
    """
    xs = sorted(values)
    n = len(xs)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    for k in range(QUANTILE_GRID):  # midpoint rule on the Beta density
        t = (k + 0.5) / QUANTILE_GRID
        cdf.append(cdf[-1] + math.exp(log_norm + (a - 1) * math.log(t)
                                      + (b - 1) * math.log(1 - t)))
    edges = [cdf[round(i * QUANTILE_GRID / n)] for i in range(n + 1)]
    weights = [hi - lo for lo, hi in zip(edges, edges[1:])]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setups(workload, seed, workdir, n):
    """n set-ups, each a fresh interpreter that imports omlprob and writes
    the inputs.  Returns their times on the set-up reference scale, each
    scaled by the reference timed just before and just after it."""
    refs = [start_reference_s()]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", workdir, "--src", SRC], check=True)
        wall = time.perf_counter() - t0
        refs.append(start_reference_s())
        times.append(scale(wall, refs[-2:], START_REFERENCE_S))
    return times


def one_pass(workdir, index, trace, deadline):
    result = os.path.join(workdir, "pass-%d.json" % index)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), workdir,
           "--src", SRC, "--result", result, "--cap", str(QUERY_CAP_S),
           "--deadline", str(deadline)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, check=True, timeout=deadline + 20)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def run_passes(workdir, seconds, trace, t_start, set_up):
    """Timed passes until `seconds` are used (at least MIN_PASSES), each
    after a call of `set_up`.

    A pass starts while at least half of it fits, so runs end within
    half a pass of `seconds`, on either side.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES:
            per_pass = elapsed / len(passes)
            if elapsed + per_pass / 2 > seconds:
                break
        left = RUN_LIMIT_S - (time.perf_counter() - t_start)
        if left <= 5:
            break
        set_up()
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, one_pass(workdir, len(passes), traced,
                                        left - 5)))
    return passes


def query_times(passes, key="scaled_s"):
    """Each query's latency: its median over the passes.

    By default the times are on the reference scale of speed.py, which
    takes out the machine's slow and fast phases; what is left between
    passes is noise on either side, hence the median.  Key "elapsed_s"
    gives the wall times as measured.
    """
    return [statistics.median(qs) for qs in zip(
        *([q[key] for q in p["queries"]] for p in passes))]


def end_to_end(untraced, setup_times):
    times = [t * 1000 for t in query_times(untraced)]
    pct = tail_percentile(len(times))
    return pct, len(times), {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (sum(times) / 1000, "s"),
        "query_p50_ms": (quantile(times, 50), "ms"),
        "query_tail_ms": (quantile(times, pct), "ms"),
        "peak_rss_mib": (statistics.median(p["peak_rss_kib"] / 1024
                                           for p in untraced), "MiB"),
    }


def per_layer(untraced, traced):
    """Medians over the traced passes.  Self times are put on the
    reference scale with the median reference loop time of their pass."""
    metrics = {}
    for g in GROUPS:
        metrics[g + ".calls"] = (statistics.median(
            p["layers"][g + ".calls"] for p in traced), "count")
        metrics[g + ".self_s"] = (statistics.median(
            p["layers"][g + ".self_s"] * REFERENCE_S
            / statistics.median(p["refs"]) for p in traced), "s")
    for name, unit in DERIVED.items():
        metrics[name] = (statistics.median(
            p["layers"][name] for p in traced), unit)
    traced_job = sum(query_times(traced))
    metrics["trace.job_s"] = (traced_job, "s")
    metrics["trace.overhead"] = (traced_job / sum(query_times(untraced)),
                                 "ratio")
    metrics["trace.self_sum_frac"] = (statistics.median(
        p["layers"]["trace.self_sum_s"] / p["job_s"] for p in traced), "ratio")
    return metrics


def print_query_layers(traced_pass):
    """Per query of one traced pass: its time, its LP calls and the three
    groups with the most self time, with their call counts."""
    for q, layers in zip(traced_pass["queries"],
                         traced_pass["query_layers"]):
        top = sorted(layers.items(), key=lambda kv: -kv[1][1])[:3]
        lp = sum(layers.get(g, [0])[0] for g in LP_GROUPS)
        print("  %8.1f ms  %-52s LP %4d  %s" % (
            q["elapsed_s"] * 1000, q["argv"][:52], lp,
            "  ".join("%s %dx %.0f%%" % (g, n, 100 * s / q["elapsed_s"])
                      for g, (n, s) in top)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "omlprob", "cli.py")):
        print("error: no omlprob sources under %s" % SRC, file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = []
    passes = run_passes(
        workdir, args.seconds, args.trace, t_start,
        lambda: setup_times.extend(setups(args.workload, args.seed, workdir,
                                          SETUPS_PER_PASS)))
    untraced = [r for traced, r in passes if not traced]
    traced = [r for is_traced, r in passes if is_traced]

    # counted per query of the list, so the counts do not depend on how
    # many passes fit in the run: a query fails if any pass failed it
    runs = list(zip(*[r["queries"] for r in untraced + traced]))
    attempted = len(runs)
    failed = sum(not all(q["ok"] for q in qs) for qs in runs)
    wrong = sum(any(not q["ok"] and q["status"] == "done" for q in qs)
                for qs in runs)
    failures = ["%s: %s" % (qs[0]["argv"], sorted(
        {q["reason"] for q in qs if not q["ok"]})) for qs in runs
        if not all(q["ok"] for q in qs)]

    pct, samples, e2e = end_to_end(untraced, setup_times)
    print("workload %s  seed %d  passes %d untraced + %d traced  "
          "queries/pass %d  median pass wall time %.3f s"
          % (args.workload, args.seed, len(untraced), len(traced), samples,
             statistics.median(p["job_s"] for p in untraced)))
    print("failed_frac %.6f  (%d of %d queries failed in some pass, %d gave "
          "a wrong answer)" % (failed / attempted, failed, attempted, wrong))
    for line in failures:
        print("  failed: " + line)
    print("query_tail_ms is p%d over %d queries, each timed as its median "
          "over %d passes" % (pct, samples, len(untraced)))
    refs = [r for p in untraced for r in p["refs"]]
    print("reference loop: median %.3f ms, quartiles %.3f-%.3f ms, over %d "
          "samples; reference scale %.3f ms" % (
              1000 * statistics.median(refs),
              *(1000 * q for q in statistics.quantiles(refs, n=4)[::2]),
              len(refs), 1000 * REFERENCE_S))
    print("job_s as wall time, unscaled: %.6f s" % sum(
        query_times(untraced, "elapsed_s")))
    metrics = per_layer(untraced, traced) if args.trace else e2e
    if args.trace:
        print("self time by query, last traced pass:")
        print_query_layers(traced[-1])
        for name, (value, unit) in e2e.items():
            print("%-46s %14.6f %s" % (name, value, unit))
    for name, (value, unit) in metrics.items():
        print("%-46s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
