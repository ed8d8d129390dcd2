"""scripts/bench_pairs.py: paired runs keep their records as they go."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# stands in for perfbench/run.py: writes a one-metric record with the ops in
# OPS, or fails with the exit code in FAIL_WITH
FAKE_RUN = """\
import json, pathlib, sys
code = int(pathlib.Path("FAIL_WITH").read_text()) if pathlib.Path("FAIL_WITH").exists() else 0
if code:
    sys.exit(code)
ops = json.loads(pathlib.Path("OPS").read_text()) if pathlib.Path("OPS").exists() else []
out = pathlib.Path(".perfbench_out")
out.mkdir(exist_ok=True)
metrics = {"latency_s.p50": {"value": 1.0}}
(out / "w-seed3-trace0.json").write_text(json.dumps({"metrics": metrics, "ops": ops}))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def op(index, *estimates):
    """A run record's op with (NMSE, rank) estimates."""
    return {"index": index, "traced": False, "seconds": 1.0, "errors": [],
            "estimates": [{"method": "cpf_regularized", "snr_db": 30.0, "nmse": nmse,
                           "errors": [], "counts": {"rank": rank, "als_iterations": 400}}
                          for nmse, rank in estimates]}


def checkout(path: Path, fail_with: int = 0, ops=()) -> Path:
    path.mkdir()
    (path / "run.py").write_text(FAKE_RUN)
    (path / "OPS").write_text(json.dumps(list(ops)))
    spec = {"command": [sys.executable, "run.py"], "run_seconds": 1,
            "end_to_end": [{"name": "latency_s.p50", "unit": "s", "better": "lower"}]}
    (path / "BENCHMARK.json").write_text(json.dumps(spec))
    if fail_with:
        (path / "FAIL_WITH").write_text(str(fail_with))
    return path


def run(bench_pairs, base, change, records, pairs):
    return bench_pairs.main(["--base", str(base), "--change", str(change), "--workload", "w",
                             "--seed", "3", "--pairs", str(pairs), "--records", str(records)])


def test_records_every_run(bench_pairs, tmp_path):
    records = tmp_path / "runs.json"
    assert run(bench_pairs, checkout(tmp_path / "base"), checkout(tmp_path / "change"),
               records, 2) == 0
    runs = json.loads(records.read_text())
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "base"), (1, "change"), (2, "change"), (2, "base")]
    assert all(r["record"]["metrics"]["latency_s.p50"]["value"] == 1.0 for r in runs)


def test_failed_run_keeps_earlier_records_and_names_itself(bench_pairs, tmp_path):
    # pair 1 runs the base first, so its record must survive the change's failure
    records = tmp_path / "runs.json"
    assert run(bench_pairs, checkout(tmp_path / "base"),
               checkout(tmp_path / "change", fail_with=3), records, 2) == 1
    first, failed = json.loads(records.read_text())
    assert (first["side"], first["pair"], "record" in first) == ("base", 1, True)
    assert {k: failed[k] for k in ("side", "pair", "failed", "exit_code")} == {
        "side": "change", "pair": 1, "failed": True, "exit_code": 3}


BASE_OPS = [op(0, (1e-3, 12)), op(1, (2e-3, 12)), op(2, (3e-3, 11)), op(3, (4e-3, 12))]
# op 1 moves by 1%, op 2 changes rank, op 3 was not reached
CHANGE_OPS = [op(0, (1e-3, 12)), op(1, (2.02e-3, 12)), op(2, (3e-3, 12))]


def test_compare_ops_over_the_ops_both_ran(bench_pairs):
    cmp = bench_pairs.compare_ops({"ops": BASE_OPS}, {"ops": CHANGE_OPS})
    assert {k: cmp[k] for k in ("ops", "identical", "rank_differs")} == {
        "ops": 3, "identical": 1, "rank_differs": [2]}
    assert cmp["max_rel_nmse"] == pytest.approx(0.01)


def test_counts_make_an_op_differ(bench_pairs):
    moved = op(0, (1e-3, 12))
    moved["estimates"][0]["counts"]["als_iterations"] = 300
    cmp = bench_pairs.compare_ops({"ops": [op(0, (1e-3, 12))]}, {"ops": [moved]})
    assert (cmp["identical"], cmp["max_rel_nmse"], cmp["rank_differs"]) == (0, 0.0, [])


def test_missing_nmse_is_an_infinite_difference(bench_pairs):
    cmp = bench_pairs.compare_ops({"ops": [op(0, (1e-3, 12))]}, {"ops": [op(0, (None, 12))]})
    assert cmp["max_rel_nmse"] == float("inf")


def test_reports_each_pair_and_the_total(bench_pairs, tmp_path, capsys):
    base = checkout(tmp_path / "base", ops=BASE_OPS)
    change = checkout(tmp_path / "change", ops=CHANGE_OPS)
    assert run(bench_pairs, base, change, tmp_path / "runs.json", 2) == 0
    out = capsys.readouterr().out.splitlines()
    pairs = [line for line in out if line.startswith("pair ")]
    assert len(pairs) == 2
    assert all("1/3 ops identical, largest relative NMSE difference 0.01, "
               "rank differs on ops [2]" in line for line in pairs)
    assert out[-1] == ("estimates over all pairs: 2/6 ops identical, largest relative NMSE "
                       "difference 0.01, rank differs on (pair, op) [(1, 2), (2, 2)]")
