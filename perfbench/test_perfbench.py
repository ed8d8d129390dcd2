"""Checks of the benchmark itself: failure counting, tracing and metric names.

Run from the repository root with ``python3 -m pytest perfbench -q``.  These
tests use stand-in results and never run a full estimator op.
"""

import hashlib
import json
import math
import sys
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cpchan import bench, cp_als, sparse_solver  # noqa: E402


def good_channels():
    return [np.ones(workloads.CHANNEL_SHAPE, dtype=np.complex128)
            for _ in range(workloads.TABLE1.n_users)]


def cpf_result(channels, nmse=1e-3):
    return SimpleNamespace(
        channels=channels, nmse_total=nmse, estimated_rank=12, als_iterations=700,
        diagnostics={"als_converged": True},
        resolution=SimpleNamespace(empty_users=()))


def corrupt(kind):
    channels = good_channels()
    if kind == "nan":
        channels[3][0, 0] = np.nan
    elif kind == "shape":
        channels[5] = channels[5][:, :16]
    elif kind == "missing_user":
        channels.pop()
    return channels


def run_op(harness, result):
    return harness.op(lambda: result,
                      lambda res: [workloads.cpf_estimate("cpf_regularized", 30.0, res)])


def test_valid_estimate_passes():
    h = workloads.Harness(seconds=0)
    run_op(h, cpf_result(good_channels()))
    assert not h.ops[0].failed


@pytest.mark.parametrize("kind", ["nan", "shape", "missing_user"])
def test_corrupted_estimate_counts_as_failed(kind):
    h = workloads.Harness(seconds=0)
    run_op(h, cpf_result(corrupt(kind)))
    assert h.ops[0].failed


def test_non_finite_nmse_counts_as_failed():
    h = workloads.Harness(seconds=0)
    run_op(h, cpf_result(good_channels(), nmse=math.nan))
    assert h.ops[0].failed


def test_raising_op_counts_as_failed_and_run_goes_on():
    h = workloads.Harness(seconds=0)
    assert h.op(lambda: 1 / 0, lambda res: []) is None
    run_op(h, cpf_result(good_channels()))
    assert [op.failed for op in h.ops] == [True, False]
    assert "ZeroDivisionError" in h.ops[0].errors[0]


def sweep_row(method, status="ok", nmse=1e-2):
    return bench.ResultRow(method=method, sweep_variable="snr_db", sweep_value=30.0,
                           trial=0, seed=0, nmse=nmse if status == "ok" else None,
                           nmse_per_user=[nmse] * 8 if status == "ok" else [],
                           status=status)


def test_failed_sweep_row_counts_as_failed(tmp_path):
    sweep = workloads.SnrSweep(0, tmp_path)
    sweep.captured = {"cpf": [], "cs": []}
    h = workloads.Harness(seconds=0)
    h.op(lambda: [sweep_row("cpf_known_L", status="failed:singular matrix")],
         sweep.to_estimates)
    assert h.ops[0].failed
    assert "failed:singular matrix" in h.ops[0].estimates[0].errors[0]


def test_ok_sweep_row_needs_a_captured_result(tmp_path):
    sweep = workloads.SnrSweep(0, tmp_path)
    sweep.captured = {"cpf": [cpf_result(good_channels())], "cs": []}
    h = workloads.Harness(seconds=0)
    h.op(lambda: [sweep_row("cpf_known_L"), sweep_row("cs_grid1")], sweep.to_estimates)
    first, second = h.ops[0].estimates
    assert not first.errors and second.errors


def test_table1_band_rejects_out_of_band_mean():
    t1 = workloads.Table1Cpf(0)
    inside = [workloads.Estimate("cpf_regularized", 30.0, 2.7e-3)]
    outside = [workloads.Estimate("cpf_regularized", 30.0, 2.7e-3 * 6)]
    assert t1.run_errors(inside) == []
    assert t1.run_errors(outside)


def test_sweep_trend_check(tmp_path):
    sweep = workloads.SnrSweep(0, tmp_path)

    def estimates(cpf):
        out = [workloads.Estimate("cpf_known_L", s, v) for s, v in zip((0, 10, 20, 30), cpf)]
        return out + [workloads.Estimate("cs_grid1", 30.0, 0.2)]

    assert sweep.run_errors(estimates([0.5, 0.05, 0.005, 0.001])) == []
    assert sweep.run_errors(estimates([0.001, 0.005, 0.05, 0.5]))


def test_traced_ops_cover_every_round_position():
    h = workloads.Harness(seconds=0, inst=object(), block=4)
    traced = [h.is_traced(i) for i in range(8)]
    assert sum(traced) == 4
    assert {i % 4 for i in range(8) if traced[i]} == {0, 1, 2, 3}


def test_self_time_excludes_children():
    tr = spans.Tracer()
    root_idx = tr.enter("root")
    child_idx = tr.enter("child")
    time.sleep(0.01)
    tr.exit(child_idx)
    time.sleep(0.005)
    tr.exit(root_idx)
    root, child = tr.spans
    assert child.parent == 0
    assert root.self_s == pytest.approx(root.duration - child.duration)
    assert sum(s.self_s for s in tr.spans) == pytest.approx(root.duration)


def traced_run(monkeypatch, hooked):
    """Per-layer metrics of four ops, every other one traced, that each call
    two functions of a stand-in layer; only the functions in ``hooked`` get
    a span."""
    layer = ModuleType("stand_in_layer")
    layer.first = layer.second = lambda: time.sleep(0.01)
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    hooks = tuple(spans.Hook(f"layer.{name}", layer.__name__, name, frozenset())
                  for name in hooked)
    h = workloads.Harness(seconds=0, inst=spans.Instrumentation(spans.Tracer(), hooks))
    for _ in range(4):
        h.op(lambda: (layer.first(), layer.second()), lambda res: [])
    return run.per_layer(h.inst.tracer, h.ops, workloads.TRUE_RANK)


def test_layer_self_times_cover_the_op(monkeypatch):
    metrics = traced_run(monkeypatch, ("first", "second"))
    assert metrics["trace.unattributed_frac"][0] < run.UNATTRIBUTED_MAX
    assert run.trace_errors(metrics) == []


def test_missing_hook_fails_the_coverage_check(monkeypatch):
    metrics = traced_run(monkeypatch, ("first",))
    assert metrics["trace.unattributed_frac"][0] == pytest.approx(0.5, abs=0.1)
    assert run.trace_errors(metrics)


def test_hooks_resolve_and_restore():
    original = cp_als.compose, sparse_solver.StackedGridOperator.matvec
    inst = spans.Instrumentation(spans.Tracer())
    with inst.installed():
        assert cp_als.compose is not original[0]
    assert (cp_als.compose, sparse_solver.StackedGridOperator.matvec) == original


def test_renamed_public_name_fails_loudly():
    gone = spans.Hook("cp_als.gone", "cpchan.cp_als", "no_such_function",
                      frozenset({spans.CPF}))
    with pytest.raises(LookupError):
        spans.Instrumentation(spans.Tracer(), hooks=(gone,))


def test_coverage_guard():
    inst = spans.Instrumentation(spans.Tracer())
    errors = spans.coverage_errors(inst, spans.CPF, traced_ops=1)
    assert any("cp_als.als_regularized" in e for e in errors)
    compose = next(h for h in inst.hooks if h.span == "tensor_core.compose")
    inst.fired[compose] = 5
    assert any("must not use it" in e for e in spans.coverage_errors(inst, spans.CS, 1))
    build = next(h for h in inst.hooks if h.span == "training_design.build_design")
    inst.fired[build] = 3
    assert any("3 times in 2 traced ops" in e
               for e in spans.coverage_errors(inst, spans.SWEEP, 2))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    estimate = workloads.cpf_estimate("cpf_regularized", 30.0, cpf_result(good_channels()))
    op = workloads.OpRecord(0, traced=True, seconds=1.0, estimates=[estimate])
    e2e = run.end_to_end([op], wall_s=1.0, setup_s=0.5)
    layer = run.per_layer(spans.Tracer(), [op], workloads.TRUE_RANK)
    for declared, produced in ((spec["end_to_end"], e2e), (spec["per_layer"], layer)):
        assert [m["name"] for m in declared] == list(produced)
        assert [m["unit"] for m in declared] == [unit for _, unit in produced.values()]


def test_table1_inputs_match_the_bench_trial():
    """Op i of seed s measures the tensor that bench.run_trial draws for trial
    s * 10**6 + i of the fixed table1 realization at config seed 0."""
    t1 = workloads.Table1Cs(3)
    t1.setup()
    meas, _ = t1.inputs(2)
    cfg = bench.ExperimentConfig(seed=0, fixed_realization=True, methods=("cs_grid1",))
    (row,) = bench.run_trial(cfg, 0, 3 * 10**6 + 2)
    digest = hashlib.sha256(np.ascontiguousarray(meas.y.data).tobytes()).hexdigest()[:16]
    assert row.tensor_sha256 == digest


def test_sweep_trials_use_the_pinned_realization(tmp_path, monkeypatch):
    """Every snr_sweep trial runs at config seed 0 with the fixed realization;
    the benchmark seed only picks the trial index, i.e. the noise."""
    calls = []

    def fake_trial(cfg, point_idx, trial_idx):
        calls.append((cfg.seed, cfg.fixed_realization, point_idx, trial_idx))
        return [sweep_row(m) for m in cfg.methods]

    monkeypatch.setattr(bench, "run_trial", fake_trial)
    workloads.SnrSweep(7, tmp_path).run(workloads.Harness(seconds=0))
    assert calls == [(0, True, p, 7 * 10**6) for p in range(4)]
