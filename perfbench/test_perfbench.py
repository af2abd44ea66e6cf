"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import codedim.betti as betti
import codedim.complexes as complexes
import codedim.dimensions as dimensions
import codedim.homology as homology
import codedim.oracle as oracle
from codedim.oracle import corrupt_step_one, run_oracle_suite

import reference
import tracing
import workload
import workloads
from workloads import GF2, GF3, Batch, BettiInput, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def wrapped_bindings() -> list[str]:
    """Names in the library and workload modules now bound to a tracing wrapper."""
    owners = [betti, complexes, dimensions, homology, oracle, workloads,
              complexes.SimplicialComplex]
    found = []
    for owner in owners:
        for name, value in vars(owner).items():
            fn = getattr(value, "__func__", value)
            if getattr(fn, "__module__", None) == tracing.__name__:
                found.append(name)
    return found


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_timed_runs_install_no_wrappers(monkeypatch):
    monkeypatch.setattr(workloads, "ORACLE_TRIALS", 2)
    seen = []

    def probe(base_seed, index, gauge):
        seen.append(wrapped_bindings())
        return workloads.oracle_run(base_seed, index, gauge)

    probe_workload = Workload(workloads.oracle_inputs, probe, workloads.oracle_check)
    batches = workload.run_batches(probe_workload, 7, 0, reference.Gauge())
    assert seen == [[]] and len(batches) == 1

    tracer = tracing.Tracer()
    with tracer.installed(workloads):
        assert "rank_array" in wrapped_bindings()
        assert "from_faces" in wrapped_bindings()
    assert wrapped_bindings() == []


def test_traced_runs_of_one_seed_count_the_same():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "oracle_n7", "--seed", "5",
                         "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
        counts.append({
            name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count", "cells", "bytes", "ratio")
        })
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rank.table.calls"] > 0
    assert counts[0]["oracle.euler.restrictions"] > 0


def test_timed_run_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "oracle_n7", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == workloads.ORACLE_TRIALS
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "report_gf2", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_dense_betti_input_is_never_the_full_simplex():
    dense_seed = random.Random(workloads.DEFAULT_SEED).getrandbits(31)
    assert not complexes.minimal_nonfaces(workloads.random_complex(11, 0.3, dense_seed))
    for seed in (workloads.DEFAULT_SEED, 2, 3):
        dense = workloads.betti_inputs(seed)[1]
        assert dense.name == "random_11_0.3"
        assert complexes.minimal_nonfaces(dense.complex)


def test_betti_check_rejects_a_corrupted_table():
    d = complexes.SimplicialComplex.from_faces(6, [0b111000, 0b011110, 0b100011])
    table = betti.hochster_table(d, GF3)
    good = BettiInput("probe", d, None)
    assert workloads.table_verdict(d, table, None) is None
    assert workloads.table_verdict(d, corrupt_step_one(table), None) is not None
    assert workloads.table_verdict(d, table, "0" * 64) is not None
    batch = Batch(0, [0.0, 0.0], [corrupt_step_one(table), RuntimeError("boom")])
    verdicts = workloads.betti_check([good, good], batch, {})
    assert all(v is not None for v in verdicts)


def test_oracle_check_attributes_failures_to_trials():
    summary = run_oracle_suite(3, n=5, seed=0, table_mutator=corrupt_step_one)
    batch = Batch(0, [0.0] * 3, [summary])
    assert all(v is not None for v in workloads.oracle_check(0, batch, {}))
    clean = Batch(0, [0.0] * 3, [run_oracle_suite(3, n=5, seed=0)])
    assert workloads.oracle_check(0, clean, {}) == [None] * 3


def test_report_check_undoes_the_relabelling():
    k44, _, cross5 = workloads.report_inputs(workloads.DEFAULT_SEED)
    report = dimensions.full_report(k44.relabelled, GF2)
    batch = Batch(0, [0.0], [report])
    assert workloads.report_check([k44], batch, {}) == [None]
    assert workloads.report_check([cross5], batch, {}) != [None]


def test_rescaling_uses_the_speed_samples_during_and_beside_each_item():
    gauge = reference.Gauge()
    gauge.samples = [0.04, 0.04, 0.08, 0.12, 0.04]
    batch = Batch(0, [1.0, 2.0, 3.0], [], sampled=[(1, 1), (2, 3), (5, 5)])
    assert workload.rescaled(batch, gauge).item_s == pytest.approx([1.0, 1.0, 3.0])


def test_gauge_clock_leaves_out_its_samples():
    gauge = reference.Gauge()
    with gauge.running():
        first, started = len(gauge.samples), gauge.clock()
        deadline = time.perf_counter() + 3 * reference.PERIOD_S
        while time.perf_counter() < deadline:
            pass
        timed, taken = gauge.clock() - started, len(gauge.samples) - first
    assert taken >= 2
    assert timed < 3 * reference.PERIOD_S - sum(gauge.samples[first:first + taken]) / 2


def test_tail_keeps_ten_items_beyond_it():
    def batches(*item_lists):
        return [Batch(i, items, []) for i, items in enumerate(item_lists)]

    many = batches([float(v) for v in range(1, 51)], [float(v) for v in range(51, 101)])
    assert workload.tail(many) == (90.0, 90.0)
    assert workload.tail(batches([3.0, 1.0], [2.0, 5.0], [4.0, 0.5])) == (3.0, None)
