"""One timed pass: answer a workload's whole query list once.

Runs in a fresh interpreter, so no solver cache survives from an earlier
pass; that is what a command-line user pays.  Queries go one after the
other, each through ``omlprob.cli.main(["--json", ...])`` in this
process (a closed loop with one client).  A query that runs past the
cap is interrupted by a timer signal and recorded as did-not-finish.
Answers are checked after the loop, outside the timed region.  Each
query's time is scaled by the reference loop of ``speed.py``, timed
just before the query, inside it and just after it (see Speedometer).
A full garbage collection before each query, outside the timed region,
starts every query from the same collector state, as a fresh
command-line process would.

    python3 bench/passrun.py WORKDIR --src SRC --result FILE
        [--trace] [--cap SECONDS] [--deadline SECONDS]

writes one JSON object to FILE; with --trace it also writes the spans
to FILE with the suffix ``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import reference_s, scale  # noqa: E402

REF_EVERY_S = 0.1


class QueryTimeout(BaseException):
    """Raised by the timer signal; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


class Speedometer:
    """The reference loop times of one pass, in the order they were taken.

    The pass ticks before the first query, before a query whenever
    REF_EVERY_S have passed since the last tick, and after the last
    query.  With `sample`, a SIGPROF timer also ticks every REF_EVERY_S
    of CPU time, inside queries too, so that a query of several seconds
    is scaled by the speed it ran at; the time spent ticking is taken
    out of the query's time.  Traced passes do not sample, because that
    time would land in the spans.
    """

    def __init__(self, sample):
        self.refs = []
        self.spent = 0.0  # seconds spent in tick
        self.last = -math.inf
        self.sample = sample

    def tick(self, *_signal):
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def __enter__(self):
        if self.sample:
            signal.signal(signal.SIGPROF, self.tick)
            signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        self.tick()
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.tick()


def run_queries(main, queries, cap, deadline, tracer=None):
    """Run every query; returns (records, job_s, reference loop times).

    A record holds the exit code, stdout, elapsed time and that time on
    the reference scale, or the status "raised" (an exception escaped
    main) or "dnf" (over the cap, or not started because the pass
    deadline had passed).  job_s is the sum of the elapsed times.
    """
    records = []
    job_s = 0.0
    old = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        with Speedometer(sample=tracer is None) as speed:
            for i, q in enumerate(queries):
                left = deadline - (time.perf_counter() - start)
                if left <= 0:  # not started: timed as a query at the cap
                    records.append({"status": "dnf", "elapsed_s": cap,
                                    "scaled_s": cap})
                    continue
                gc.collect()  # no query pays for an earlier one's garbage
                if time.perf_counter() - speed.last >= REF_EVERY_S:
                    speed.tick()
                if tracer is not None:
                    tracer.query = i
                out = io.StringIO()
                rec = {}
                first = len(speed.refs) - 1
                t0 = time.perf_counter()
                spent = speed.spent
                signal.setitimer(signal.ITIMER_REAL, min(cap, left))
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rec["exit"] = main(["--json"] + q["argv"])
                    rec["status"] = "done"
                except QueryTimeout:
                    rec["status"] = "dnf"
                except Exception as e:  # an escaping exception is a failure
                    rec["status"] = "raised"
                    rec["error"] = type(e).__name__
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                rec["elapsed_s"] = (time.perf_counter() - t0
                                    - (speed.spent - spent))
                job_s += rec["elapsed_s"]
                # the tick before the query, those inside it, the next one
                rec["refs"] = (first, len(speed.refs) + 1)
                rec["stdout"] = out.getvalue()
                records.append(rec)
    finally:
        signal.signal(signal.SIGALRM, old)
    for rec in records:
        if "refs" in rec:
            rec["scaled_s"] = scale(rec["elapsed_s"],
                                    speed.refs[slice(*rec.pop("refs"))])
    return records, job_s, speed.refs


# -- answer gate -------------------------------------------------------------


def _get(payload, path):
    for part in path.split("."):
        payload = payload[part]
    return payload


def _rationals(d):
    return {k: Fraction(v) for k, v in d.items()}


def check_answer(q, rec):
    """None when the record matches the query's expected answer, else a
    one-line reason.  Exit code first, then the payload fields."""
    if rec["status"] != "done":
        return rec["status"] + (": " + rec["error"] if "error" in rec else "")
    if rec["exit"] not in q["exit"]:
        return "exit %s, expected %s" % (rec["exit"], q["exit"])
    expect = q["expect"]
    if not expect:
        return None
    try:
        payload = json.loads(rec["stdout"])
        for path, want in expect.get("fields", {}).items():
            got = _get(payload, path)
            if got != want:
                return "%s = %r, expected %r" % (path, got, want)
        if "vertices" in expect:
            got = {frozenset(_rationals(v).items())
                   for v in payload["vertices"]}
            want = {frozenset(_rationals(v).items())
                    for v in expect["vertices"]}
            if got != want or len(payload["vertices"]) != len(want):
                return "vertex set differs (%d listed, %d expected)" % (
                    len(payload["vertices"]), len(want))
        if "blocks" in expect:
            got = sorted(sorted(b) for b in payload["blocks"])
            if got != expect["blocks"]:
                return "blocks differ"
        if "map_values" in expect:
            if _rationals(payload["values"]) != _rationals(
                    expect["map_values"]):
                return "map values differ"
        if "state_values" in expect:
            if _rationals(payload) != _rationals(expect["state_values"]):
                return "state values differ"
    except (ValueError, KeyError, TypeError) as e:
        return "unreadable payload: %s: %s" % (type(e).__name__, e)
    return None


def summarize(queries, records, job_s, refs):
    results = []
    for q, rec in zip(queries, records):
        reason = check_answer(q, rec)
        results.append({"argv": " ".join(q["argv"]),
                        "elapsed_s": rec["elapsed_s"],
                        "scaled_s": rec["scaled_s"],
                        "status": rec["status"],
                        "ok": reason is None, "reason": reason})
    return {"job_s": job_s, "queries": results, "refs": refs,
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one timed benchmark pass")
    p.add_argument("workdir")
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cap", type=float, default=30.0)
    p.add_argument("--deadline", type=float, default=120.0)
    args = p.parse_args(argv)

    result_path = os.path.abspath(args.result)
    sys.path.insert(0, os.path.abspath(args.src))
    from omlprob import cli
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    with open(os.path.join(args.workdir, "queries.json"),
              encoding="utf-8") as f:
        queries = json.load(f)["queries"]
    os.chdir(args.workdir)
    records, job_s, refs = run_queries(lambda a: cli.main(a), queries,
                                       args.cap, args.deadline, tracer)
    result = summarize(queries, records, job_s, refs)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["query_layers"] = tracer.per_query()
        tracer.write_spans(result_path + ".spans.jsonl")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
