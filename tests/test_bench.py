"""Benchmark harness: config handling, reproducibility, CSV output."""

import json

import numpy as np
import pytest

from cpchan import bench
from cpchan.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    load_config,
    mean_nmse_by_point,
    monotone_trend_ok,
    run_sweep,
    run_trial,
)

TINY = dict(
    n_bs=16, n_ms=8, n_users=2, paths_per_user=(1, 1), m_bs=6, t_prime=6, t=2,
    snr_db=30.0, trials=1, seed=5,
    grid_cpf=(32, 16), grid_cs1=(16, 8), grid_cs2=(32, 16),
    als_max_iters=200, fista_max_iters=100)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_variable="snr_db", sweep_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_variable="bogus", sweep_values=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("nonexistent",))

    def test_at_point_pins_sweep_variable(self):
        cfg = ExperimentConfig(sweep_variable="snr_db", sweep_values=(0.0, 20.0))
        assert cfg.at_point(20.0).snr_db == 20.0
        cfg = ExperimentConfig(sweep_variable="t", sweep_values=(2, 4))
        assert cfg.at_point(4).t == 4

    def test_round_trip_through_json(self, tmp_path):
        cfg = ExperimentConfig(**TINY)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        assert load_config(path) == cfg

    def test_config_from_dict_converts_lists(self):
        d = dict(TINY)
        d["paths_per_user"] = [1, 1]
        d["methods"] = ["cs_grid1"]
        cfg = config_from_dict(d)
        assert cfg.paths_per_user == (1, 1)
        assert cfg.methods == ("cs_grid1",)

    def test_total_paths(self):
        assert ExperimentConfig(**TINY).total_paths == 2


class TestRunTrial:
    def test_deterministic_given_seeds(self):
        cfg = ExperimentConfig(**TINY, methods=("cpf_known_L", "cs_grid1"))
        r1 = run_trial(cfg, 0, 0)
        r2 = run_trial(cfg, 0, 0)
        for a, b in zip(r1, r2):
            assert a.method == b.method
            assert a.nmse == b.nmse
            assert a.tensor_sha256 == b.tensor_sha256

    def test_all_methods_share_one_tensor(self):
        cfg = ExperimentConfig(
            **TINY, methods=("cpf_known_L", "cpf_regularized", "cs_grid1", "cs_grid2"))
        rows = run_trial(cfg, 0, 0)
        assert len(rows) == 4
        assert len({r.tensor_sha256 for r in rows}) == 1
        assert all(r.status == "ok" for r in rows)
        assert all(np.isfinite(r.nmse) for r in rows)

    def test_numerical_failure_becomes_a_typed_failed_row(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", singular)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        (row,) = run_trial(cfg, 0, 0)
        assert row.nmse is None
        assert row.status == "failed:LinAlgError: SVD did not converge"

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", broken)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        with pytest.raises(TypeError):
            run_trial(cfg, 0, 0)

    def test_different_trials_get_different_tensors(self):
        cfg = ExperimentConfig(**{**TINY, "trials": 2}, methods=("cs_grid1",))
        h0 = run_trial(cfg, 0, 0)[0].tensor_sha256
        h1 = run_trial(cfg, 0, 1)[0].tensor_sha256
        assert h0 != h1


class TestRunSweep:
    def test_row_counts_and_summaries(self, tmp_path):
        cfg = ExperimentConfig(
            **{**TINY, "trials": 2},
            methods=("cs_grid1",),
            sweep_variable="snr_db", sweep_values=(10.0, 30.0))
        rows = run_sweep(cfg, out_path=tmp_path / "out.csv")
        data = [r for r in rows if not r.method.startswith("summary:")]
        summ = [r for r in rows if r.method.startswith("summary:")]
        assert len(data) == 2 * 2          # points x trials
        assert len(summ) == 2              # one summary per (point, method)
        means = mean_nmse_by_point(rows, "cs_grid1")
        assert set(means) == {10.0, 30.0}
        for point, value in means.items():
            sel = [r.nmse for r in data if r.sweep_value == point]
            assert value == pytest.approx(np.mean(sel))

    def test_deterministic_csv_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, out_path=p1, deterministic=True)
        run_sweep(cfg, out_path=p2, deterministic=True)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == ",".join(CSV_HEADER)

    def test_thread_pool_matches_serial(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "trials": 2}, methods=("cs_grid1",))
        serial = run_sweep(cfg)
        parallel = run_sweep(cfg, threads=2)
        assert [r.nmse for r in serial] == [r.nmse for r in parallel]


class TestTrendHelper:
    @staticmethod
    def rows_from_means(means):
        return [ResultRow(method="summary:m", sweep_variable="snr_db",
                          sweep_value=v, trial=-1, seed=0, nmse=n)
                for v, n in means.items()]

    def test_monotone_passes(self):
        rows = self.rows_from_means({0.0: 1.0, 10.0: 0.1, 20.0: 0.01})
        assert monotone_trend_ok(rows, "m", allowed_inversions=0)

    def test_single_inversion_tolerated_by_default(self):
        rows = self.rows_from_means({0.0: 1.0, 10.0: 0.2, 15.0: 0.25, 20.0: 0.01})
        assert monotone_trend_ok(rows, "m")
        assert not monotone_trend_ok(rows, "m", allowed_inversions=0)

    def test_rising_trend_fails(self):
        rows = self.rows_from_means({0.0: 0.01, 10.0: 0.1, 20.0: 1.0})
        assert not monotone_trend_ok(rows, "m")
