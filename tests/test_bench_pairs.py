"""scripts/bench_pairs.py: paired runs keep their records as they go."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# stands in for perfbench/run.py: writes a one-metric record, or fails with
# the exit code in FAIL_WITH
FAKE_RUN = """\
import json, pathlib, sys
code = int(pathlib.Path("FAIL_WITH").read_text()) if pathlib.Path("FAIL_WITH").exists() else 0
if code:
    sys.exit(code)
out = pathlib.Path(".perfbench_out")
out.mkdir(exist_ok=True)
metrics = {"latency_s.p50": {"value": 1.0}}
(out / "w-seed3-trace0.json").write_text(json.dumps({"metrics": metrics}))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(path: Path, fail_with: int = 0) -> Path:
    path.mkdir()
    (path / "run.py").write_text(FAKE_RUN)
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
