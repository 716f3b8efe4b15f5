"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root::

    PYTHONPATH=src python -m pytest dftbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, Wrappers  # noqa: E402
from stats import nearest_rank, tail  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEEDS,
    GenerateWorkload,
    MutateWorkload,
    RunWorkload,
    check_outputs,
    distinct_simulated,
    measuring,
    reference_for,
)


def load_reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_tiny(workload, trace=False):
    workload.setup()
    timer = workload.timer()
    wrappers = measuring(timer, SpanRecorder(), trace)
    wrappers.install()
    try:
        return workload.run_pass(timer)
    finally:
        wrappers.uninstall()


# -- workload drivers at a tiny size ------------------------------------------


def test_run_workload_tiny_matches_stored_reference():
    workload = RunWorkload(seed=0, systems=["sensor"])
    result = run_tiny(workload)
    assert (result.attempted, result.failed, result.errors) == (3, 0, [])
    assert len(result.op_ms) == len(result.reference_s) == 3
    assert result.simulated == pytest.approx(
        sum(tc.duration.to_seconds() for tc in workload.suites["sensor"])
    )
    assert workload.associations > 0
    failed, bad = check_outputs(
        result.outputs, {"sensor": load_reference()["run"]["sensor"]}
    )
    assert (failed, bad) == (0, [])


def test_mutate_workload_tiny():
    workload = MutateWorkload(seed=0, system="sensor", max_mutants=2)
    result = run_tiny(workload)
    assert result.attempted == len(result.op_ms) == len(result.outputs) == 2
    assert result.failed == 0
    assert result.simulated > 0 and all(ms > 0 for ms in result.op_ms)


def test_generate_workload_tiny_is_deterministic():
    first = run_tiny(GenerateWorkload(seed=1, system="sensor", budget=3, calls=1))
    again = run_tiny(GenerateWorkload(seed=1, system="sensor", budget=3, calls=1))
    assert first.failed == 0 and 0 < first.attempted <= 3
    assert list(first.outputs) == ["1"]
    assert first.outputs == again.outputs


def test_generate_call_seeds_derive_from_the_seed():
    assert GenerateWorkload(seed=0, calls=2).call_seeds() == [0, 1]
    assert GenerateWorkload(seed=5, calls=2).call_seeds() == [10, 11]
    assert GenerateWorkload(seed=5 + REFERENCE_SEEDS, calls=2).call_seeds() == [10, 11]


# -- timing -----------------------------------------------------------------------


def test_repeat_runs_of_a_label_add_no_simulated_work():
    samples = [("a", 0.1, 2.0), ("b", 0.1, 3.0), ("a", 0.2, 2.0)]
    assert distinct_simulated(samples) == 5.0


def test_reference_loops_are_taken_out_of_operation_time():
    workload = RunWorkload(seed=0, systems=["sensor"])
    workload.setup()
    timer = workload.timer()
    wrappers = measuring(timer, SpanRecorder(), trace=False)
    wrappers.install()
    try:
        result = workload.run_pass(timer)
    finally:
        wrappers.uninstall()
    # Each testcase runs one simulation; its loop is outside its host time.
    spans = [s for s in wrappers.recorder.spans if s.name == "instrument.testcase"]
    assert len(spans) == len(result.reference_s) == len(result.op_ms) == 3
    for ms, span, loop in zip(result.op_ms, spans, result.reference_s):
        assert ms == pytest.approx((span.duration - loop) * 1000.0)


def test_traced_run_has_no_reference_loops():
    result = run_tiny(RunWorkload(seed=0, systems=["sensor"]), trace=True)
    assert result.reference_s == [] and len(result.op_ms) == 3


# -- output check ---------------------------------------------------------------


def test_corrupted_reference_digest_counts_as_failure():
    result = run_tiny(RunWorkload(seed=0, systems=["sensor"]))
    corrupted = {"sensor": "0" * 16}
    failed, bad = check_outputs(result.outputs, corrupted)
    assert (failed, bad) == (3, ["sensor"])


def test_reference_entry_not_produced_is_a_mismatch():
    failed, bad = check_outputs({"a": ("x", 1)}, {"a": "x", "b": "y"})
    assert (failed, bad) == (0, ["b"])


def test_every_seed_has_a_stored_reference():
    reference = load_reference()
    assert reference_for(reference, RunWorkload(seed=7)) == reference["run"]
    for name in ("mutate", "generate"):
        assert sorted(map(int, reference[name])) == list(range(REFERENCE_SEEDS))
    folded = MutateWorkload(seed=7 + 3 * REFERENCE_SEEDS)
    assert reference_for(reference, folded) == reference["mutate"]["7"]
    assert reference_for({}, MutateWorkload(seed=0)) is None
    assert check_outputs({"k": ("d", 4)}, None) == (0, [])


def test_record_merges_one_input_seed(tmp_path, monkeypatch):
    (tmp_path / "reference.json").write_text(json.dumps({"mutate": {"1": {"m": "x"}}}))
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    run.record(MutateWorkload(seed=2 + REFERENCE_SEEDS), {"digests": {"m": "y"}})
    stored = json.loads((tmp_path / "reference.json").read_text())
    assert stored == {"mutate": {"1": {"m": "x"}, "2": {"m": "y"}}}


# -- tail percentile rule ---------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(56)]
    pct, value, n, beyond = tail(values)
    # p82: rank ceil(0.82 * 56) = 46 leaves 10 above; p83 -> rank 47 leaves 9.
    assert (pct, value, n, beyond) == (82, 45.0, 56, 10)
    assert nearest_rank(values, 83)[1] == 47


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    assert tail([float(v) for v in range(11)]) == (9, 0.0, 11, 10)
    assert tail([float(v) for v in range(1000)])[:2] == (99, 989.0)


def test_nearest_rank_is_exact_at_whole_products():
    # 0.07 * 100 is 7.000000000000001 in floating point; the rank is 7.
    assert nearest_rank([float(v) for v in range(100)], 7) == (6.0, 7)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 5
    assert tail(values) == tail(sorted(values))


# -- layers -------------------------------------------------------------------------


def test_missing_wrapped_function_is_an_absent_layer():
    recorder = SpanRecorder()
    wrappers = Wrappers(recorder, (
        ("instrument.match", "repro.instrument.runner:no_such_function", False),
        ("mutation.mutant", "repro.no_such_module:run_mutant", False),
        ("tdf.simulate", "repro.tdf.simulator:Simulator.run", False),
    ))
    wrappers.install()
    try:
        root = recorder.open("workload")
        run_tiny(RunWorkload(seed=0, systems=["sensor"]))
        recorder.close(root)
    finally:
        wrappers.uninstall()
    assert set(wrappers.missing) == {"instrument.match", "mutation.mutant"}
    values, absent = layers.compute(
        recorder.spans, root, wrappers.missing,
        {"import_s": 0.1, "associations": 1, "trace_overhead_x": 1.0},
    )
    assert "does not exist" in absent["instrument.match_s"]
    assert "does not exist" in absent["mutation.mutant_s"]
    assert values["instrument.match_s"] == 0.0
    assert "tdf.simulate_s" not in absent and values["tdf.simulate_calls"] == 3
    assert {name for name, *_ in layers.PER_LAYER} == set(values)


def test_uninstall_restores_originals():
    from repro.tdf.simulator import Simulator

    original = Simulator.__dict__["run"]
    wrappers = Wrappers(SpanRecorder(), (
        ("tdf.simulate", "repro.tdf.simulator:Simulator.run", False),
    ))
    wrappers.install()
    assert Simulator.__dict__["run"] is not original
    wrappers.uninstall()
    assert Simulator.__dict__["run"] is original


def test_self_time_subtracts_overlapping_children():
    from spans import Span, self_time

    parent = Span(0, "p", 0.0, 10.0)
    children = [Span(1, "a", 1.0, 4.0), Span(2, "b", 3.0, 5.0), Span(3, "c", 8.0, 9.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)


# -- driver -------------------------------------------------------------------------


def test_benchmark_json_names_match_the_driver():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {
        "setup_samples": [[0.5, 0.003], [0.4, 0.002], [0.6, 0.004]], "rss_mb": 70.0, "wall": 2.0,
        "simulated": 0.55, "reference_s": [0.003] * 11,
    }
    e2e = run.end_to_end(result)
    # Scaled to the nominal host: 0.5, 0.4 * 1.5 and 0.6 * 0.75.
    assert e2e["setup_s"]["value"] == pytest.approx(0.5)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in layers.PER_LAYER
    ]


def test_driver_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "dftbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "dftbench/run.py", "--workload", "run", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
