"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from normality_lab import (WordStream, cli, digits,  # noqa: E402
                           fourier_exact, load_system)
from normality_lab.fourier import band_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _op(kind, argv, expect, index=0):
    return workloads.Op(index, kind, tuple(argv), workloads.KINDS[kind].fmt,
                        expect)


def _system(name):
    return workloads.SYSTEMS / f"{name}.json"


@pytest.fixture
def harness(tmp_path):
    return run.Harness("fine-scale", 12345, cli.main, tmp_path)


def _traced(harness, op):
    rec = spans.Recorder()
    main = rec.wrap("cli.main", cli.main)
    spans.install(rec)
    try:
        result = harness.run(op, main)
    finally:
        rec.restore()
    return result, rec.spans


def test_traced_digit_depth_matches_library(harness):
    op = _op("orbit.cantor2.json",
             ["orbit", "--system", str(_system("cantor")), "--base", "2",
              "--length", "300", "--samples", "1", "--seed", "5"],
             {"length": 300, "samples": 1})
    result, recorded = _traced(harness, op)
    assert result.ok
    metrics = spans.layer_metrics(recorded)
    # 300 orbit values plus a 60-digit tail plus one, as run_orbit asks
    system = load_system(_system("cantor"))
    ds = digits(system, WordStream(system, 5), 2, 361)
    assert metrics["sampling.digits.depth"] == ds.depth
    assert metrics["sampling.digits.certified"] == ds.certified_length == 361
    assert spans.digits_violations(recorded) == []
    assert spans.word_streams(recorded)[0][1:] == (5, (), ds.depth)


def test_traced_fourier_nodes_match_library(harness):
    op = _op("fourier.rational.inh",
             ["fourier", "--system", str(_system("inh")), "--q=-1234/7"],
             {"q": "-1234/7", "tol": 1e-9})
    result, recorded = _traced(harness, op)
    assert result.ok
    system = load_system(_system("inh"))
    fv = fourier_exact(system, Fraction(-1234, 7), tol=1e-9)
    metrics = spans.layer_metrics(recorded)
    assert metrics["fourier.nodes"] == fv.nodes
    assert metrics["fourier.fourier_exact.calls"] == 1


def test_traced_decay_nodes_match_library(harness):
    op = _op("decay.mixed",
             ["decay", "--system", str(_system("mixed")), "--j-max", "5",
              "--per-band", "8", "--tol", "1e-06"],
             {"j_max": 5, "tol": 1e-6})
    result, recorded = _traced(harness, op)
    assert result.ok and result.units == sum(
        len(band_grid(load_system(_system("mixed")), j, 8)) for j in range(6))
    system = load_system(_system("mixed"))
    cache: dict = {}
    nodes = sum(fourier_exact(system, q, tol=1e-6, cache=cache).nodes
                for j in range(6) for q in band_grid(system, j, 8))
    metrics = spans.layer_metrics(recorded)
    assert metrics["fourier.nodes"] == nodes
    assert metrics["fourier.cache_entries"] == len(cache)


def test_traced_beta_orbit_metadata_matches_output(harness, tmp_path):
    op = _op("beta-orbit.golden.json",
             ["beta-orbit", "--beta-poly", "1,-1,-1", "--beta-lo", "1",
              "--beta-hi", "2", "--x", "123/1009", "--length", "300"],
             {"length": 300})
    rec = spans.Recorder()
    spans.install(rec)
    out = tmp_path / "beta.json"
    try:
        assert cli.main([*op.argv, "--format", "json", "--out", str(out)]) == 0
    finally:
        rec.restore()
    meta = json.loads(out.read_text())["results"]["metadata"]
    metrics = spans.layer_metrics(rec.spans)
    assert metrics["sampling.beta_orbit.precision_bits"] == meta["precision_bits"]
    assert metrics["sampling.beta_orbit.restarts"] == meta["restarts"]
    assert metrics["balls.Ball.mul.calls"] >= 300
    assert metrics["algebra.AlgebraicReal.refine.calls"] >= 1


def test_traced_op_writes_the_same_bytes(tmp_path):
    plain = run.Harness("martingale", 3, cli.main, tmp_path)
    op = next(workloads.ops("martingale", 3))
    untraced = plain.run(op)
    traced, _ = _traced(plain, op)
    assert untraced.ok and traced.ok
    assert traced.digest == untraced.digest
    # the patched functions are restored afterwards
    from normality_lab import balls, experiments
    assert experiments.digits is digits
    assert "traced" not in balls.Ball.mul.__code__.co_name


def test_hanging_op_fails_at_its_time_limit(tmp_path):
    harness = run.Harness("orbit-digits", 3, cli.main, tmp_path, limit=0.5)
    op = _op("orbit.cantor2.csv",
             ["orbit", "--system", str(_system("cantor")), "--base", "1",
              "--length", "10"], {"length": 10, "samples": 1})
    result = harness.run(op)
    assert not result.ok and result.seconds < 5
    assert harness.unexpected and "limit" in harness.unexpected[0][1]


def test_known_defect_is_probed_outside_the_counted_ops(harness):
    defect = workloads.KNOWN_DEFECTS["fine-scale"]
    for workload in workloads.WORKLOADS.values():
        assert defect.kind not in workload.cycle
    line = harness.probe_defect()
    assert line.startswith("known defect reproduces") and defect.where in line
    assert harness.records == [] and harness.unexpected == []
    # below the underflow the same op kind runs and passes its check
    short = harness.run(_op(defect.kind,
                            ["beta-orbit", "--system", str(_system("cantor")),
                             "--beta", "5/2", "--length", "700", "--seed", "7"],
                            {"length": 700}))
    assert short.ok and short.units == 700


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(1, "p", 0, 100, None, 0, None)
    kids = [spans.Span(2, "a", 10, 40, 1, 0, None),
            spans.Span(3, "b", 30, 60, 1, 0, None),   # overlaps a
            spans.Span(4, "c", 90, 120, 1, 0, None)]  # runs past the parent
    assert spans.self_ns(parent, kids) == 100 - 50 - 10
    assert spans.self_ns(parent, kids, lambda c: c.name == "a") == 70


def _argvs(name, seed, n):
    return [op.argv for op in islice(workloads.ops(name, seed), n)]


def test_ops_are_seeded_and_never_repeat_an_input():
    for name in workloads.WORKLOADS:
        # far more ops than a run reaches, so no kind runs out of inputs
        first = _argvs(name, 4, 5000)
        assert len(first) == 5000 and len(set(first)) == len(first)
        assert _argvs(name, 4, 300) == first[:300]
        assert _argvs(name, 5, 300) != first[:300]


def test_run_ends_when_the_op_stream_does(tmp_path, monkeypatch):
    harness = run.Harness("martingale", 3, cli.main, tmp_path)
    few = list(islice(workloads.ops("martingale", 3), 2))
    monkeypatch.setattr(workloads, "ops", lambda *args: iter(few))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    metrics = run.end_to_end(harness, 60.0)
    assert len(harness.records) == 2 and metrics["throughput"][0] > 0


def test_latency_ranks_failures_last():
    ops = [workloads.Op(i, "k", (), "csv") for i in range(40)]
    records = [run.Result(op, 1.0 + op.index, op.index != 5, 1, 0, None)
               for op in ops]
    p50, tail, p = run.latency(records)
    assert p == 0.75 and tail == 31.0 and p50 == 21.0


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _bench(ROOT, "--workload", "martingale", "--seed", "2",
                  "--seconds", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        assert result["metrics"]["martingale.records"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "fourier", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
