"""scripts/compare_csvs.py: per-trial comparison of two run CSVs."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from cpchan.bench import ResultRow, write_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_csvs.py"


@pytest.fixture(scope="module")
def compare_csvs():
    spec = importlib.util.spec_from_file_location("compare_csvs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(method, value, trial, nmse, rank=12, status="ok"):
    return ResultRow(method=method, sweep_variable="snr_db", sweep_value=value,
                     trial=trial, seed=0, nmse=nmse, estimated_rank=rank,
                     tensor_sha256=f"{value:g}-{trial}", status=status)


BASE = [row("cpf_regularized", 10.0, 0, 0.10), row("cpf_regularized", 10.0, 1, 0.30),
        row("cpf_regularized", 30.0, 0, 2e-3), row("cpf_regularized", 30.0, 1, 4e-3),
        row("cs_grid1", 30.0, 0, 0.5), row("cs_grid1", 30.0, 1, 0.7),
        row("summary:cpf_regularized", 30.0, -1, 3e-3, rank=-1, status="n=2")]


def write(path, rows):
    write_csv(rows, path, deterministic=True)
    return str(path)


def test_reports_each_point(tmp_path, compare_csvs, capsys):
    change = list(BASE)
    change[1] = dataclasses.replace(BASE[1], nmse=0.20)             # -33%
    change[2] = dataclasses.replace(BASE[2], nmse=2e-3 * 1.005)     # under 1%
    change[3] = dataclasses.replace(BASE[3], estimated_rank=11)
    change[5] = dataclasses.replace(BASE[5], nmse=None, status="failed:ValueError: x")
    code = compare_csvs.main([write(tmp_path / "b.csv", BASE),
                              write(tmp_path / "c.csv", change)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines] == [
        ["cpf_regularized", "snr_db=10"], ["cpf_regularized", "snr_db=30"],
        ["cs_grid1", "snr_db=30"]]
    low, high, cs = lines
    assert "mean 0.2 -> 0.15 (-25.00%)" in low
    assert "largest rel change -0.333" in low and "under 1%: 1/2" in low
    assert "rank/status differs: []" in low
    assert "largest rel change +0.005" in high and "under 1%: 2/2" in high
    assert "rank/status differs: [1]" in high
    # the failed trial is left out of the change's mean and the NMSE counts
    assert "mean 0.6 -> 0.5" in cs and "under 1%: 1/2" in cs
    assert "rank/status differs: [1]" in cs


def test_identical_files_move_nothing(tmp_path, compare_csvs, capsys):
    path = write(tmp_path / "b.csv", BASE)
    assert compare_csvs.main([path, path]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert "(+0.00%)" in line and "largest rel change +0 " in line
        assert "under 1%: 2/2" in line and "rank/status differs: []" in line


@pytest.mark.parametrize("side", ["base", "change"])
def test_unpaired_row_is_named(tmp_path, compare_csvs, capsys, side):
    other = list(BASE)
    other[4] = dataclasses.replace(BASE[4], tensor_sha256="another-draw")
    paths = [write(tmp_path / "b.csv", BASE), write(tmp_path / "c.csv", other)]
    sha = "30-0"
    if side == "change":
        paths.reverse()
        sha = "another-draw"
    assert compare_csvs.main(paths) == 1
    # the first file's first row without a partner
    assert capsys.readouterr().err == (
        f"{paths[0]}: row method=cs_grid1 sweep_value=30.0 trial=0 "
        f"tensor_sha256={sha} has no partner\n")


def test_repeated_row_is_named(tmp_path, compare_csvs, capsys):
    path = write(tmp_path / "b.csv", BASE + [BASE[2]])
    assert compare_csvs.main([path, path]) == 1
    assert "trial=0 tensor_sha256=30-0 appears twice" in capsys.readouterr().err
