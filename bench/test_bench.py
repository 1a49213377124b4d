"""Tests of the benchmark itself: the answer gate, the per-query cap,
the traced run's self-time accounting and the set-up step.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from lattices import Ladder  # noqa: E402
from workloads import Inputs, property_expect  # noqa: E402


def make_workdir(tmp_path, queries):
    """A work directory with b2, mo2 and mo3 and the given queries, each
    (argv, property, tag) with the expected answer the benchmark uses."""
    import random
    inp = Inputs(str(tmp_path), random.Random(1), random.Random(2))
    for argv, prop, tag in queries:
        lad = inp.ladder(tag)
        codes, fields = property_expect(prop, tag, lad)
        inp.add(argv, codes, fields=fields)
    return inp


def write_queries(inp):
    inp.write("queries.json", json.dumps({"queries": inp.queries}))


def run_pass(workdir, *extra):
    result = os.path.join(str(workdir), "result.json")
    subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"),
                    str(workdir), "--src", SRC, "--result", result]
                   + list(extra), check=True, timeout=120)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def test_planted_wrong_verdict_is_a_failure(tmp_path):
    inp = make_workdir(tmp_path, [
        (["property", "bell1-state", "b2.json"], "bell1-state", "b2"),
        (["property", "bell1-state", "mo2.json"], "bell1-state", "mo2"),
    ])
    inp.queries[1]["expect"]["fields"]["verdict"] = "implied"  # planted
    write_queries(inp)
    result = run_pass(tmp_path)
    first, second = result["queries"]
    assert first["ok"] and first["status"] == "done"
    assert not second["ok"] and second["status"] == "done"
    assert "verdict" in second["reason"]
    assert all(q["scaled_s"] > 0 for q in result["queries"])


def test_long_query_is_scaled_by_samples_inside_it():
    import passrun
    import time

    def busy(argv):
        t_end = time.process_time() + 0.5
        while time.process_time() < t_end:
            pass
        return 0

    queries = [{"argv": ["x"]}, {"argv": ["y"]}]
    records, job_s, refs = passrun.run_queries(busy, queries, 30.0, 60.0)
    # about five SIGPROF ticks per query, plus those around the queries
    assert len(refs) >= 2 + 2 * 3
    for rec in records:
        assert rec["status"] == "done"
        # the ticks' own time is taken out of the query's time
        assert 0.3 < rec["elapsed_s"] < 0.5
    assert job_s == sum(rec["elapsed_s"] for rec in records)


def test_scaling_follows_the_reference_loop():
    from speed import REFERENCE_S, scale
    # a phase that runs the reference loop twice as slow halves the time
    assert scale(1.0, [2 * REFERENCE_S, 2 * REFERENCE_S]) == 0.5
    assert scale(0.3, [REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx(0.15)
    # set-up has its own reference and nominal time
    assert scale(0.2, [0.1, 0.1], 0.05) == pytest.approx(0.1)


def test_query_over_the_cap_is_did_not_finish(tmp_path):
    inp = make_workdir(tmp_path, [
        (["property", "bell2-smap", "mo2.json"], "bell2-smap", "mo2"),
        (["property", "bell1-state", "b2.json"], "bell1-state", "b2"),
    ])
    write_queries(inp)
    result = run_pass(tmp_path, "--cap", "0.02")
    slow, fast = result["queries"]
    assert slow["status"] == "dnf" and not slow["ok"]
    assert slow["elapsed_s"] < 1.0
    assert fast["status"] == "done" and fast["ok"]


def test_traced_self_times_add_up_to_job_time(tmp_path):
    inp = make_workdir(tmp_path, [
        (["property", "bell1-smap", "mo2.json"], "bell1-smap", "mo2"),
        (["property", "jauch-piron-smap", "mo2.json"], "jauch-piron-smap",
         "mo2"),
        (["property", "bell2-state", "mo3.json"], "bell2-state", "mo3"),
    ])
    write_queries(inp)
    result = run_pass(tmp_path, "--trace")
    assert all(q["ok"] for q in result["queries"])
    layers = result["layers"]
    job = result["job_s"]
    # every span is inside a cli.main span, so self times cover the
    # queries; only the loop's own bookkeeping is outside them
    assert 0.9 * job <= layers["trace.self_sum_s"] <= job
    assert layers["cli.main.calls"] == 3
    assert layers["analysis.jauch_piron_smap.calls"] == 1
    assert layers["linear.with_premise.calls"] > 0
    spans = [json.loads(line) for line in open(
        os.path.join(str(tmp_path), "result.json.spans.jsonl"))]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert 0 <= s["self_s"] <= s["end"] - s["start"]
        if s["parent"]:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        else:
            assert s["group"] == "cli.main"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_writes_every_input(tmp_path, workload):
    workloads.generate(workload, 7, str(tmp_path))
    queries = json.load(open(os.path.join(str(tmp_path), "queries.json")))
    assert queries["seed"] == 7 and queries["queries"]
    for q in queries["queries"]:
        for arg in q["argv"]:
            if arg.endswith(".json"):
                assert os.path.isfile(os.path.join(str(tmp_path), arg)), arg


def test_seed_relabels_but_keeps_structure():
    import random
    a = Ladder((3, 2, 2), random.Random(1), random.Random(9))
    b = Ladder((3, 2, 2), random.Random(2), random.Random(9))
    assert set(a.elements) != set(b.elements)
    assert a.keys == b.keys  # same order of the same structure
    assert len(a.state_vertices()) == 12 and a.state_dim() == 4


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, os.path.join(str(tmp_path), "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-premises",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
