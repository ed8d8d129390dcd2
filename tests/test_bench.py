"""Benchmark harness: config handling, reproducibility, CSV output."""

import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cpchan import bench, channel_recovery, cli, cp_als, training_design
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
from cpchan.training_design import check_uniqueness

TINY = dict(
    n_bs=16, n_ms=8, paths_per_user=(1, 1), m_bs=6, t_prime=6, t=2,
    snr_db=30.0, trials=1, seed=5)


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
        with pytest.raises(ValueError, match=r"m_bs.*12\.5"):
            config_from_dict({"sweep_variable": "m_bs", "sweep_values": [8, 12.5]})
        with pytest.raises(ValueError, match=r"methods.*\(\)"):
            config_from_dict({"methods": []})
        with pytest.raises(ValueError, match=r"snr_db.*'10'"):
            config_from_dict({"sweep_variable": "snr_db", "sweep_values": [0, "10"]})
        with pytest.raises(ValueError, match=r"\bt\b.*\b0\b"):
            config_from_dict({"sweep_variable": "t", "sweep_values": [2, 0]})

    def test_integer_fields_are_coerced(self):
        cfg = config_from_dict({**TINY, "m_bs": 6.0, "t": 2.0, "trials": 1.0, "seed": 7.0})
        assert (cfg.m_bs, cfg.t, cfg.trials, cfg.seed) == (6, 2, 1, 7)
        assert all(type(v) is int for v in (cfg.m_bs, cfg.t, cfg.trials, cfg.seed))

    @pytest.mark.parametrize("key, value", [
        ("n_bs", 16.5), ("n_ms", 8.25), ("m_bs", 6.5), ("t_prime", 6.5),
        ("t", 2.5), ("trials", 1.5),
        ("n_bs", "16"), ("t", "2"), ("trials", True), ("m_bs", False),
        ("paths_per_user", [1, 0]), ("paths_per_user", [1, 1.5]),
        ("paths_per_user", ["1", 1]), ("paths_per_user", [True, 1]), ("paths_per_user", []),
        ("snr_db", "30"), ("snr_db", True), ("snr_db", float("inf")),
        # a negative seed would fail only later, inside the scene draw
        ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", None),
        # the JSON string "false" is truthy and would pin the realization
        ("fixed_realization", "false"), ("fixed_realization", 0), ("fixed_realization", None)])
    def test_non_integral_field_is_named(self, key, value):
        with pytest.raises(ValueError, match=rf"{key}.*{re.escape(repr(value))}"):
            config_from_dict({**TINY, key: value})

    def test_single_pilot_symbol_is_named(self):
        # t = 1 cannot separate the users; it must fail at load, naming the
        # key, not stop the sweep later inside the scene draw
        with pytest.raises(ValueError, match=r"^t must be at least 2.*got 1$"):
            config_from_dict({**TINY, "t": 1})
        with pytest.raises(ValueError, match=r"sweep_values for t .*at least 2.*got 1$"):
            config_from_dict({**TINY, "sweep_variable": "t", "sweep_values": [2, 1]})
        cfg = config_from_dict({**TINY, "sweep_variable": "t", "sweep_values": [2, 3]})
        assert cfg.sweep_values == (2, 3)

    @pytest.mark.parametrize("extra, repeated", [
        (dict(methods=("cs_grid1", "cs_grid2", "cs_grid1")), r"methods repeats 'cs_grid1'"),
        (dict(sweep_variable="snr_db", sweep_values=(10.0, 20.0, 20.0)),
         r"sweep_values repeats 20\.0"),
        # compared as the sweep pins them: 20 and 20.0 are one SNR point
        (dict(sweep_variable="snr_db", sweep_values=(20, 20.0)), r"sweep_values repeats 20\.0"),
        (dict(sweep_variable="m_bs", sweep_values=(6, 8.0, 8)), r"sweep_values repeats 8$")])
    def test_repeated_entry_is_named(self, extra, repeated):
        # a repeat would run the same trials twice and count them twice in
        # the point's summary
        with pytest.raises(ValueError, match=repeated):
            ExperimentConfig(**TINY, **extra)

    def test_sweep_values_need_a_sweep_variable(self):
        with pytest.raises(ValueError, match=r"sweep_values \(10\.0, 20\.0\) .*no sweep_variable"):
            config_from_dict({**TINY, "sweep_values": [10.0, 20.0]})

    def test_n_users_is_not_a_key(self):
        # the user count is read off paths_per_user, never stated twice
        assert ExperimentConfig(**TINY).n_users == 2
        with pytest.raises(ValueError, match=r"unknown config keys.*n_users"):
            config_from_dict({**TINY, "n_users": 2})

    def test_grids_follow_the_arrays(self, monkeypatch):
        # CS at 1x and 2x the arrays, the CPF refinement at 4x: a trial's
        # refinement builds its grid operators on the 4x grid
        cfg = ExperimentConfig(**TINY, methods=("cpf_known_L",))
        assert (cfg.grid_cs1, cfg.grid_cs2) == ((16, 8), (32, 16))
        grids = []
        operator = channel_recovery.StackedGridOperator

        def recording_operator(design, grid, *args):
            grids.append((grid.n_aoa, grid.n_aod))
            return operator(design, grid, *args)

        monkeypatch.setattr(channel_recovery, "StackedGridOperator", recording_operator)
        (row,) = run_trial(cfg, 0, 0)
        assert row.status == "ok"
        assert grids and set(grids) == {(64, 32)}

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

    def test_path_count_above_the_rank_budget_is_named(self):
        budget = cp_als.K_UPPER
        over = {**TINY, "paths_per_user": (1,) * (budget + 1)}
        with pytest.raises(ValueError, match=rf"cpf_regularized.*\b{budget}\b.*\b{budget + 1}$"):
            ExperimentConfig(**over, methods=("cpf_known_L", "cpf_regularized"))
        # the other methods take the path count as given
        ExperimentConfig(**over, methods=("cpf_known_L", "cs_grid1", "cs_grid2"))
        ExperimentConfig(**{**TINY, "paths_per_user": (1,) * budget},
                         methods=("cpf_regularized",))

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match=r"unknown config keys.*als_mu"):
            config_from_dict({**TINY, "als_mu": 3e-3})

    @pytest.mark.parametrize("key, value", [
        ("grid_cpf", [256, 128]), ("grid_cs1", [64, 32]), ("grid_cs2", [128, 64]),
        ("als_max_iters", 1000), ("lambda_scale_cs", 1.0)])
    def test_retired_key_is_unknown(self, key, value):
        # the grids follow the arrays, every ALS stage runs the library's
        # sweep budget and the CS baseline its universal threshold, so none
        # of these can be set
        with pytest.raises(ValueError, match=rf"unknown config keys.*{key}"):
            config_from_dict({**TINY, key: value})

    def test_readme_config_schema_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
        keys = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                keys |= set(re.findall(r"`(\w+)`", line.split("|")[1]))
        assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}


class TestRunTrial:
    def test_harness_runs_the_library_als_budget(self):
        # the harness and a caller of estimate_all with the default config
        # run the same pipeline; only the seed is per trial
        cfg = ExperimentConfig(**TINY)
        assert bench._pipeline_config(cfg, None, 0) == channel_recovery.PipelineConfig()
        assert bench._pipeline_config(cfg, 2, 7) == channel_recovery.PipelineConfig(
            seed=7, known_rank=2)

    def test_cs_methods_solve_on_their_oversampled_grids(self, monkeypatch):
        grids = []
        assemble = bench.cs_baseline.assemble_problem

        def recording_assemble(meas, design, grid):
            grids.append((grid.n_aoa, grid.n_aod))
            return assemble(meas, design, grid)

        monkeypatch.setattr(bench.cs_baseline, "assemble_problem", recording_assemble)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1", "cs_grid2"))
        run_trial(cfg, 0, 0)
        assert grids == [cfg.grid_cs1, cfg.grid_cs2] == [(16, 8), (32, 16)]

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

    def test_degenerate_scene_becomes_a_typed_failed_row(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise cp_als.DegenerateDataError("input tensor is zero")

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", degenerate)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        (row,) = run_trial(cfg, 0, 0)
        assert row.status == "failed:DegenerateDataError: input tensor is zero"

    def test_plain_value_error_of_an_estimator_propagates(self, monkeypatch):
        # e.g. a broadcast error inside the refit: a bug, not a degenerate scene
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", broken)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        with pytest.raises(ValueError, match="could not be broadcast"):
            run_trial(cfg, 0, 0)

    def test_plain_value_error_of_the_uniqueness_check_propagates(self, monkeypatch):
        # e.g. a channel/design mismatch: a bug, not an inconclusive check
        def broken(design, channel):
            raise ValueError("channel has 3 users but the design has 2 pilot columns")

        monkeypatch.setattr(bench, "check_uniqueness", broken)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        with pytest.raises(ValueError, match="3 users"):
            run_trial(cfg, 0, 0)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", broken)
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",))
        with pytest.raises(TypeError):
            run_trial(cfg, 0, 0)

    def test_uniqueness_past_krank_limit_is_unknown(self):
        # 21 single-path users on 6 beams: the steering k-rank needs an
        # exhaustive search past its limit, which must not stop the trial
        cfg = ExperimentConfig(**{**TINY, "paths_per_user": (1,) * 21},
                               methods=("cs_grid1",))
        (row,) = run_trial(cfg, 0, 0)
        assert row.uniqueness == "unknown"
        assert row.status == "ok"

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

    def test_failed_trials_are_counted_in_summaries(self, tmp_path, monkeypatch, capsys):
        solve_cs = bench.cs_baseline.solve_cs
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) <= 3:   # both trials at 10 dB, the first at 30 dB
                raise np.linalg.LinAlgError("SVD did not converge")
            return solve_cs(*args, **kwargs)

        monkeypatch.setattr(bench.cs_baseline, "solve_cs", flaky)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({
            **TINY, "trials": 2, "methods": ["cs_grid1"],
            "sweep_variable": "snr_db", "sweep_values": [10.0, 30.0]}))
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--check-trend"]) == 1
        with open(out, newline="") as f:
            summ = {float(r["sweep_value"]): r for r in csv.DictReader(f)
                    if r["method"] == "summary:cs_grid1"}
        assert summ[10.0]["nmse"] == "" and summ[10.0]["status"] == "n=0;failed=2"
        assert summ[30.0]["nmse"] != "" and summ[30.0]["status"] == "n=1;failed=1"
        assert "mean_nmse=none" in capsys.readouterr().out

    def test_noiseless_run_is_recorded_at_infinite_snr(self, tmp_path, capsys):
        # snr_db None without a sweep must not read as a 0 dB run
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({**TINY, "snr_db": None, "methods": ["cs_grid1"]}))
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["sweep_value"] for r in rows] == ["inf", "inf"]
        assert "snr_db=inf " in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_thread_count_must_be_positive(self, tmp_path, capsys, monkeypatch, threads):
        # a count below one would silently run the sweep serially
        swept = []
        monkeypatch.setattr(bench, "run_sweep", lambda *args, **kwargs: swept.append(1) or [])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY))
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(cfg_path), f"--threads={threads}"])
        assert exc.value.code == 2 and not swept
        assert (f"argument --threads: must be a positive integer, got '{threads}'"
                in capsys.readouterr().err)

    def test_thread_pool_matches_serial(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "trials": 2}, methods=("cs_grid1",))
        serial = run_sweep(cfg)
        parallel = run_sweep(cfg, threads=2)
        assert [r.nmse for r in serial] == [r.nmse for r in parallel]

    def test_pool_workers_start_with_blas_pinned(self, monkeypatch):
        # the workers load numpy afresh with every BLAS thread variable at 1;
        # the parent's environment comes back as it was
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with bench.worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, bench.BLAS_THREAD_VARS))
        assert seen == ["1"] * len(bench.BLAS_THREAD_VARS)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "MKL_NUM_THREADS" not in os.environ


class TestTrendHelper:
    @staticmethod
    def rows_from_means(means):
        return [ResultRow(method="summary:m", sweep_variable="snr_db",
                          sweep_value=v, trial=-1, seed=0, nmse=n)
                for v, n in means.items()]

    def test_monotone_passes(self, monkeypatch):
        rows = self.rows_from_means({0.0: 1.0, 10.0: 0.1, 20.0: 0.01})
        monkeypatch.setattr(bench, "ALLOWED_INVERSIONS", 0)
        assert monotone_trend_ok(rows, "m")

    def test_single_inversion_tolerated_by_default(self, monkeypatch):
        rows = self.rows_from_means({0.0: 1.0, 10.0: 0.2, 15.0: 0.25, 20.0: 0.01})
        assert monotone_trend_ok(rows, "m")
        monkeypatch.setattr(bench, "ALLOWED_INVERSIONS", 0)
        assert not monotone_trend_ok(rows, "m")

    def test_rising_trend_fails(self):
        rows = self.rows_from_means({0.0: 0.01, 10.0: 0.1, 20.0: 1.0})
        assert not monotone_trend_ok(rows, "m")


class TestCheckUniquenessCli:
    def test_checks_the_scene_each_point_evaluates(self, tmp_path, monkeypatch, capsys):
        # a fixed-realization sweep over t: every point's report must be
        # about the channel and design that its trials evaluate
        cfg = ExperimentConfig(**TINY, methods=("cs_grid1",), fixed_realization=True,
                               sweep_variable="t", sweep_values=(2, 3))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        seen = []

        def recording_check(design, channel):
            seen.append((design, channel))
            return check_uniqueness(design, channel)

        monkeypatch.setattr(bench, "check_uniqueness", recording_check)
        monkeypatch.setattr(training_design, "check_uniqueness", recording_check)
        for p in range(2):
            run_trial(cfg, p, 0)
        evaluated, seen[:] = list(seen), []
        assert cli.main(["check-uniqueness", str(path)]) == 0
        assert len(seen) == len(evaluated) == 2
        for (d_cli, ch_cli), (d_run, ch_run) in zip(seen, evaluated):
            for name in ("paths_per_user", "n_bs", "n_ms"):
                assert getattr(ch_cli, name) == getattr(ch_run, name)
            for name in ("gains", "sin_aoa", "sin_aod"):
                np.testing.assert_array_equal(getattr(ch_cli, name), getattr(ch_run, name))
            for name in ("P", "Q", "S"):
                np.testing.assert_array_equal(getattr(d_cli, name), getattr(d_run, name))
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == ["t=2", "t=3"]

    def test_plain_value_error_propagates(self, tmp_path, monkeypatch):
        def broken(design, channel):
            raise ValueError("channel has 3 users but the design has 2 pilot columns")

        monkeypatch.setattr(bench, "check_uniqueness", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        with pytest.raises(ValueError, match="3 users"):
            cli.main(["check-uniqueness", str(path)])

    def test_scene_past_krank_limit_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "paths_per_user": [1] * 21}))
        assert cli.main(["check-uniqueness", str(path)]) == 1
        assert "exhaustive search limit" in capsys.readouterr().err


class TestConfigErrorsCli:
    """A config that cannot be read or holds a bad key or value is a usage
    error: one stderr line naming the path and the key or value, exit 2."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        swept = []
        monkeypatch.setattr(bench, "run_sweep", lambda *args, **kwargs: swept.append(1) or [])
        return swept

    def usage_error(self, capsys, argv, command, path, message):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"cpchan {command}: error: {path}: {message}\n"

    def test_negative_seed(self, tmp_path, capsys, no_sweep):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        self.usage_error(capsys, ["run", str(path), "--seed", "-1"], "run", path,
                         "seed must be a non-negative integer, got -1")
        assert not no_sweep

    def test_unknown_key(self, tmp_path, capsys, no_sweep):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "bogus": 3}))
        self.usage_error(capsys, ["run", str(path)], "run", path,
                         "unknown config keys: ['bogus']")
        assert not no_sweep

    def test_check_uniqueness_bad_value(self, tmp_path, capsys, monkeypatch):
        checked = []
        monkeypatch.setattr(bench, "draw_scene", lambda *args: checked.append(1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "t": 1}))
        self.usage_error(capsys, ["check-uniqueness", str(path)], "check-uniqueness", path,
                         "t must be at least 2 for identifiability, got 1")
        valid = tmp_path / "valid.json"
        valid.write_text(json.dumps(TINY))
        self.usage_error(capsys, ["check-uniqueness", str(valid), "--seed=-3"],
                         "check-uniqueness", valid,
                         "seed must be a non-negative integer, got -3")
        assert not checked

    @pytest.mark.parametrize("command", ["run", "check-uniqueness"])
    @pytest.mark.parametrize("content, message", [
        ([], "config must be a JSON object, got list"),
        (42, "config must be a JSON object, got int"),
        ({**TINY, "methods": 5}, "methods must be a list, got 5"),
        ({**TINY, "methods": None}, "methods must be a list, got None"),
        ({**TINY, "sweep_values": 5}, "sweep_values must be a list, got 5"),
        ({**TINY, "sweep_variable": "snr_db", "sweep_values": None},
         "sweep_values must be a list, got None"),
        ({**TINY, "methods": [["cs_grid1"]]}, "unknown methods: [['cs_grid1']]"),
        ({**TINY, "methods": [1, "cs_grid9"]}, "unknown methods: [1, 'cs_grid9']"),
    ], ids=["list", "number", "methods-number", "methods-null", "sweep_values-number",
            "sweep_values-null", "method-list", "method-number"])
    def test_config_of_the_wrong_shape(self, tmp_path, capsys, monkeypatch, no_sweep,
                                       command, content, message):
        monkeypatch.setattr(bench, "draw_scene", lambda *args: no_sweep.append(1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        self.usage_error(capsys, [command, str(path)], command, path, message)
        assert not no_sweep

    def test_unreadable_file_and_malformed_json(self, tmp_path, capsys, no_sweep):
        missing = tmp_path / "missing.json"
        self.usage_error(capsys, ["run", str(missing)], "run", missing,
                         f"[Errno 2] No such file or directory: {str(missing)!r}")
        broken = tmp_path / "broken.json"
        broken.write_text('{"n_bs": 8,')
        assert cli.main(["check-uniqueness", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cpchan check-uniqueness: error: {broken}: Expecting")
        assert err.count("\n") == 1
        assert not no_sweep

    def test_errors_of_a_valid_run_propagate(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("raised inside the sweep")

        monkeypatch.setattr(bench, "run_sweep", failing)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        with pytest.raises(ValueError, match="inside the sweep"):
            cli.main(["run", str(path), "--seed", "4"])
