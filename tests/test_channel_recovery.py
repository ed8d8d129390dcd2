"""Factor-to-channel recovery: ambiguity resolution, polish, grid refinement,
and the two pipeline stages, front_end and refine_channels."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpchan import bench, channel_recovery, cp_als, training_design
from cpchan.channel_recovery import (
    PipelineConfig,
    UserImages,
    channel_from_grid,
    estimate_all,
    front_end,
    nmse,
    pilot_constrained_polish,
    refine_channels,
    resolve_ambiguity,
)
from cpchan.channel_sim import (
    assemble_all,
    sample_channel,
    steering_from_sin,
)
from cpchan.measurement import noise_std_per_entry, simulate
from cpchan.sparse_solver import (
    AngleGrid,
    FistaConfig,
    StackedGridOperator,
    fista,
    top_singular_value,
    universal_lambda,
)
from cpchan.tensor_core import ComplexTensor3, FactorTriple, compose, frobenius_norm
from cpchan.training_design import build_design, check_uniqueness, pilot_matrix
from oracles import grid_atom, sample_channel_on_grid


def random_factors(rng, dims, rank):
    return FactorTriple(*(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                          for d in dims))


class TestResolveAmbiguity:
    def test_exact_inversion(self):
        # build S_hat = S[:, assignment] * lambda; the scale must not hide the assignment
        rng = np.random.default_rng(0)
        S = pilot_matrix(rng, t=6, u=4)
        assignment = np.array([2, 0, 0, 3, 1])
        lam = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        S_hat = S[:, assignment] * lam[None, :]
        res = resolve_ambiguity(S_hat, S)
        np.testing.assert_array_equal(res.assignment, assignment)
        np.testing.assert_array_equal(res.paths_per_user, [2, 1, 1, 1])
        np.testing.assert_allclose(res.match_scores, 1.0, atol=1e-10)
        assert res.empty_users == ()

    def test_reports_empty_users(self):
        rng = np.random.default_rng(1)
        S = pilot_matrix(rng, t=5, u=3)
        res = resolve_ambiguity(S[:, [0, 0]], S)
        assert res.empty_users == (1, 2)

    def test_zero_column_is_named(self):
        # it correlates with no user; argmax would hand it to user 0
        S = pilot_matrix(np.random.default_rng(2), t=4, u=3)
        S_hat = S[:, [1, 0, 2]]
        S_hat[:, 1] = 0.0
        with pytest.raises(cp_als.DegenerateDataError, match="column 1 is all zero"):
            resolve_ambiguity(S_hat, S)

    def test_input_validation(self):
        S = np.eye(4, dtype=complex)
        with pytest.raises(cp_als.DegenerateDataError, match="at least one"):
            resolve_ambiguity(np.empty((4, 0), dtype=complex), S)
        with pytest.raises(ValueError):
            resolve_ambiguity(np.ones((3, 2), dtype=complex), S)


class TestPilotConstrainedPolish:
    def test_exact_factors_are_fixed_point(self):
        rng = np.random.default_rng(3)
        F = random_factors(rng, (6, 5, 4), 3)
        Y = compose(F)
        A, B = pilot_constrained_polish(Y, F.C, F.B, sweeps=2)
        np.testing.assert_allclose(compose(FactorTriple(A, B, F.C)).data, Y.data,
                                   rtol=1e-9, atol=1e-11)

    def test_sweep_count_is_required(self):
        F = random_factors(np.random.default_rng(6), (6, 5, 4), 3)
        with pytest.raises(TypeError, match="sweeps"):
            pilot_constrained_polish(compose(F), F.C, F.B)

    def test_start_needs_no_scale(self):
        # the A solve of the first sweep absorbs any per-component scale of B
        rng = np.random.default_rng(5)
        F = random_factors(rng, (6, 5, 4), 3)
        Y = compose(F)
        scale = np.array([1e-3, -2.0 + 5.0j, 40.0j])
        A, B = pilot_constrained_polish(Y, F.C, F.B * scale[None, :], sweeps=1)
        np.testing.assert_allclose(compose(FactorTriple(A, B, F.C)).data, Y.data,
                                   rtol=1e-9, atol=1e-11)

    def test_reduces_residual_of_perturbed_factors(self):
        rng = np.random.default_rng(4)
        F = random_factors(rng, (8, 7, 5), 3)
        Y = compose(F)
        A0 = F.A + 0.2 * (rng.standard_normal(F.A.shape) + 1j * rng.standard_normal(F.A.shape))
        B0 = F.B + 0.2 * (rng.standard_normal(F.B.shape) + 1j * rng.standard_normal(F.B.shape))
        before = frobenius_norm(ComplexTensor3(Y.data - compose(FactorTriple(A0, B0, F.C)).data))
        A, B = pilot_constrained_polish(Y, F.C, B0, sweeps=3)
        after = frobenius_norm(ComplexTensor3(Y.data - compose(FactorTriple(A, B, F.C)).data))
        # convergence is linear in the sweep count; 3 sweeps cut most of it
        assert after < 0.05 * before
        A, B = pilot_constrained_polish(Y, F.C, B0, sweeps=20)
        deep = frobenius_norm(ComplexTensor3(Y.data - compose(FactorTriple(A, B, F.C)).data))
        assert deep < 1e-5 * before


class TestChannelFromGrid:
    def test_single_atom_matches_steering_outer_product(self):
        grid = AngleGrid(8, 6)
        j, i = 4, 3   # aod index, aoa index
        k = j * grid.n_aoa + i
        g = 1.5 - 0.5j
        H = channel_from_grid(np.array([k]), np.array([g]), grid, n_bs=16, n_ms=8)
        a = steering_from_sin(grid.sin_aoa[[i]], 16)
        b = steering_from_sin(grid.sin_aod[[j]], 8)
        np.testing.assert_allclose(H, g * a @ b.T, rtol=1e-12)

    def test_empty_support_gives_zero(self):
        H = channel_from_grid(np.array([], dtype=int), np.array([]),
                              AngleGrid(4, 4), 8, 4)
        np.testing.assert_array_equal(H, 0)

    def test_on_grid_channel_matches_assemble_bitwise(self):
        # an on-grid channel sums the grid's own steering vectors
        grid = AngleGrid(32, 16)
        channel = sample_channel_on_grid(
            np.random.default_rng(4), (2, 3), 16, 8, grid.sin_aoa, grid.sin_aod)
        aoa = np.searchsorted(grid.sin_aoa, channel.sin_aoa)
        aod = np.searchsorted(grid.sin_aod, channel.sin_aod)
        np.testing.assert_array_equal(grid.sin_aoa[aoa], channel.sin_aoa)
        np.testing.assert_array_equal(grid.sin_aod[aod], channel.sin_aod)
        support = aod * grid.n_aoa + aoa
        for own, H in zip((slice(0, 2), slice(2, 5)), assemble_all(channel)):
            assert np.array_equal(
                channel_from_grid(support[own], channel.gains[own], grid, 16, 8), H)

    def test_gain_count_must_match_the_support(self):
        # one gain short used to drop the last atom without a word
        with pytest.raises(ValueError, match="1 gains for 2 AoAs"):
            channel_from_grid(np.array([3, 9]), np.array([1.0 + 0j]), AngleGrid(8, 6), 16, 8)


class TestNmse:
    def test_perfect_estimate_is_zero(self):
        H = [np.ones((3, 3), complex)]
        assert nmse(H, [H[0].copy()]) == 0.0

    def test_zero_estimate_is_one(self):
        rng = np.random.default_rng(5)
        H = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
             for _ in range(3)]
        assert nmse(H, [np.zeros_like(h) for h in H]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nmse([np.eye(2)], [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            nmse([np.zeros((2, 2))], [np.zeros((2, 2))])


def on_grid_scene(seed, paths, n_bs, n_ms, m_bs, t_prime, t, grid):
    rng = np.random.default_rng(seed)
    channel = sample_channel_on_grid(
        rng, paths, n_bs, n_ms, grid.sin_aoa, grid.sin_aod)
    design = build_design(rng, n_bs, n_ms, m_bs, t_prime, t, paths)
    return channel, design


class TestEstimateUserChannel:
    """The refinement stage of estimate_all on a single user (one column)."""

    def test_noiseless_on_grid_exact(self, monkeypatch):
        supports = []

        def recording_channel_from_grid(support, *args):
            supports.append(support)
            return channel_from_grid(support, *args)

        monkeypatch.setattr(channel_recovery, "channel_from_grid", recording_channel_from_grid)
        monkeypatch.setattr(channel_recovery, "CPF_OVERSAMPLING", 2)
        grid = AngleGrid(32, 16)
        channel, design = on_grid_scene(7, (2,), 16, 8, 16, 16, 2, grid)
        H_true = assemble_all(channel)[0]
        z = (design.Q.T @ H_true @ design.P).ravel(order="F")
        (H,), _ = refine_channels(z[:, None], design, noise_std=0.0)
        assert nmse([H_true], [H]) < 1e-10
        assert [s.size for s in supports] == [2]

    def test_noiseless_runs_no_l1_solve(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("noiseless refinement ran an l1 solve")

        monkeypatch.setattr(channel_recovery, "fista", unreachable)
        monkeypatch.setattr(channel_recovery, "top_singular_value", unreachable)
        monkeypatch.setattr(channel_recovery, "CPF_OVERSAMPLING", 2)
        grid = AngleGrid(32, 16)
        channel, design = on_grid_scene(23, (1, 2), 16, 8, 16, 16, 2, grid)
        H_true = assemble_all(channel)
        Z = np.stack([(design.Q.T @ H @ design.P).ravel(order="F") for H in H_true], axis=1)
        H, converged = refine_channels(Z, design, noise_std=0.0)
        assert nmse(H_true, H) < 1e-10
        assert converged

    @pytest.mark.parametrize("noise_std", [0.0, 1e-3])
    def test_builds_one_grid_operator(self, monkeypatch, noise_std):
        # one stacked operator serves the step, the l1 solve, the OMP
        # correlations and the refits
        built = []

        class CountingOperator(StackedGridOperator):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.n_rhs)

        monkeypatch.setattr(channel_recovery, "StackedGridOperator", CountingOperator)
        monkeypatch.setattr(channel_recovery, "CPF_OVERSAMPLING", 2)
        grid = AngleGrid(32, 16)
        channel, design = on_grid_scene(23, (1, 2), 16, 8, 16, 16, 2, grid)
        Z = np.stack([(design.Q.T @ H @ design.P).ravel(order="F")
                      for H in assemble_all(channel)], axis=1)
        refine_channels(Z, design, noise_std)
        assert built == [2]

    def test_zero_input_gives_zero_channel(self):
        rng = np.random.default_rng(8)
        design = build_design(rng, 16, 8, 6, 5, 2, (1, 1))
        (H,), converged = refine_channels(np.zeros((30, 1)), design, noise_std=0.0)
        np.testing.assert_array_equal(H, 0)
        assert converged


class PhysicalGridBlock:
    """One block of the grid dictionary with the physical atoms
    kron(P^T a_ms, Q^T a_bs) as columns, not normalized."""

    def __init__(self, design, grid):
        self.grid = grid
        self.G_Q, self.G_P = design.responses(grid.sin_aoa, grid.sin_aod)
        self.shape = (self.G_Q.shape[0] * self.G_P.shape[0], grid.size)

    def rmatvec(self, y):
        Y = y.reshape(self.G_Q.shape[0], self.G_P.shape[0], order="F")
        return (self.G_Q.conj().T @ Y @ self.G_P.conj()).ravel(order="F")

    def column_norms(self):
        nq = np.linalg.norm(self.G_Q, axis=0)
        np_ = np.linalg.norm(self.G_P, axis=0)
        return (np_[None, :] * nq[:, None]).ravel(order="F")

    def column(self, k):
        return grid_atom(self.G_Q, self.G_P, self.grid, k)


def reference_support_and_refit(op, z, x, noise_std):
    """The debias refit on physical atoms: x holds physical gains, the noisy
    refit solves on the physical columns, and the noiseless OMP normalizes
    its candidate columns itself."""
    candidates = channel_recovery._support_from_magnitudes(np.abs(x), op.shape[0])
    if candidates.size == 0:
        return candidates, np.array([], dtype=np.complex128)
    if noise_std > 0.0:
        cols = np.stack([op.column(k) for k in candidates], axis=1)
        gains, *_ = np.linalg.lstsq(cols, z, rcond=channel_recovery.REFIT_RCOND)
        return candidates, gains
    corr = np.abs(op.rmatvec(z)) / np.maximum(op.column_norms(), 1e-300)
    cap = max(1, op.shape[0] // 4)
    candidates = np.union1d(candidates, np.argsort(corr)[::-1][:cap])
    cols = np.stack([op.column(k) for k in candidates], axis=1)
    unit_cols = cols / np.maximum(np.linalg.norm(cols, axis=0), 1e-300)
    z_norm = np.linalg.norm(z)
    residual = z
    selected = []
    gains = np.array([], dtype=np.complex128)
    for _ in range(candidates.size):
        scores = np.abs(unit_cols.conj().T @ residual)
        scores[selected] = -1.0
        trial = selected + [int(np.argmax(scores))]
        g, *_ = np.linalg.lstsq(cols[:, trial], z, rcond=None)
        new_residual = z - cols[:, trial] @ g
        if selected and np.linalg.norm(new_residual) >= np.linalg.norm(residual):
            break
        selected, gains, residual = trial, g, new_residual
        if np.linalg.norm(residual) <= 1e-8 * z_norm or len(selected) >= cap:
            break
    order = np.argsort(candidates[selected])
    return candidates[selected][order], gains[order]


def reference_refine_channels(Z, design, noise_std):
    """refine_channels on three operators: the physical block for the
    thresholds and refits, a unit block for the step size and the unit
    n_users stack for FISTA.  Noiseless images take the earlier algorithm:
    a long FISTA run at a tiny lambda floor, whose thresholded support joins
    the OMP candidates.  Returns channels, FISTA iterations, supports."""
    Z = np.asfortranarray(Z, dtype=np.complex128)
    n_users = Z.shape[1]
    k = channel_recovery.CPF_OVERSAMPLING
    grid = AngleGrid(k * design.n_bs, k * design.n_ms)
    op = PhysicalGridBlock(design, grid)
    z_all = Z.ravel(order="F")
    step = 1.0 / (2.0 * top_singular_value(StackedGridOperator(design, grid)) ** 2)
    if noise_std > 0.0:
        fcfg = FistaConfig(
            lam=universal_lambda(noise_std, grid.size, channel_recovery.LAMBDA_SCALE),
            max_iters=channel_recovery.FISTA_MAX_ITERS, tol=channel_recovery.FISTA_TOL,
            step=step)
    else:
        fcfg = FistaConfig(lam=max(1e-8 * float(np.max(np.abs(z_all))), 1e-300),
                           max_iters=1000, tol=1e-12, step=step)
    sol = fista(StackedGridOperator(design, grid, n_users), z_all, fcfg)
    X = sol.x.reshape(grid.size, n_users, order="F") / op.column_norms()[:, None]
    channels, supports = [], []
    for u in range(n_users):
        support, gains = reference_support_and_refit(op, Z[:, u], X[:, u], noise_std)
        supports.append(support)
        channels.append(channel_from_grid(support, gains, grid, design.n_bs, design.n_ms))
    return channels, sol.iterations, supports


class TestRefineChannelsParity:
    """The unit-column refinement against the physical-atom reference."""

    def check(self, monkeypatch, Z, design, noise_std):
        iterations, supports = [], []

        def recording_fista(*args):
            res = fista(*args)
            iterations.append(res.iterations)
            return res

        def recording_channel_from_grid(support, *args):
            supports.append(support)
            return channel_from_grid(support, *args)

        want, want_iterations, want_supports = reference_refine_channels(Z, design, noise_std)
        monkeypatch.setattr(channel_recovery, "fista", recording_fista)
        monkeypatch.setattr(channel_recovery, "channel_from_grid", recording_channel_from_grid)
        got, _ = refine_channels(Z, design, noise_std)
        assert iterations == ([want_iterations] if noise_std > 0.0 else [])
        assert len(supports) == len(want_supports)
        for a, b in zip(supports, want_supports):
            np.testing.assert_array_equal(a, b)
        assert sum(s.size for s in supports) > Z.shape[1]
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    def test_noisy_multi_user_scene(self, monkeypatch):
        rng = np.random.default_rng(21)
        paths = (1, 2, 2)
        channel = sample_channel(rng, 3, paths, 16, 8)
        design = build_design(rng, 16, 8, 8, 8, 3, paths)
        Z = np.stack([(design.Q.T @ H @ design.P).ravel(order="F")
                      for H in assemble_all(channel)], axis=1)
        noise_std = 0.05 * np.sqrt(np.mean(np.abs(Z) ** 2))
        Z = Z + noise_std * (rng.standard_normal(Z.shape)
                             + 1j * rng.standard_normal(Z.shape)) / np.sqrt(2)
        # the 16x8 arrays refine on the (64, 32) grid
        self.check(monkeypatch, Z, design, noise_std)

    def test_noiseless_multi_user_scene(self, monkeypatch):
        monkeypatch.setattr(channel_recovery, "CPF_OVERSAMPLING", 2)
        grid = AngleGrid(32, 16)
        channel, design = on_grid_scene(22, (1, 2, 1), 16, 8, 8, 8, 3, grid)
        Z = np.stack([(design.Q.T @ H @ design.P).ravel(order="F")
                      for H in assemble_all(channel)], axis=1)
        self.check(monkeypatch, Z, design, 0.0)


def table1_scene(snr_db, trial):
    """The pinned table1 scene (16x16x4 tensor, 8 users, 13 paths) of one
    trial, as bench.run_trial draws it: measurement, design, channel and the
    ALS seed."""
    cfg = dataclasses.replace(
        bench.ExperimentConfig(seed=0, fixed_realization=True), snr_db=snr_db)
    pcfg, channel, design, rng_noise, rng_als = bench.draw_scene(cfg, 0, trial)
    als_seed = int(rng_als.integers(2**31))
    return simulate(channel, design, pcfg.snr_db, rng_noise), design, channel, als_seed


def cpf_config(method, als_seed):
    """The pipeline config bench.run_trial passes for a CPF method on table1."""
    return PipelineConfig(seed=als_seed, known_rank=13 if method == "cpf_known_L" else None)


class TestFrontEnd:
    @pytest.fixture
    def resolution(self):
        # 3 users, components on users 0, 0 and 2: user 1 has none
        S = pilot_matrix(np.random.default_rng(4), 4, 3)
        return resolve_ambiguity(S[:, [0, 0, 2]], S)

    def test_user_images_check_the_ranks(self, resolution):
        fit = cp_als.CpResult(random_factors(np.random.default_rng(5), (4, 3, 4), 3), 0)
        Z = np.zeros((6, 3), dtype=complex)
        Z[:, [0, 2]] = 1.0
        assert UserImages(Z, resolution, fit).Z is Z
        with pytest.raises(ValueError, match="3 users need 3 image columns"):
            UserImages(Z[:, :2], resolution, fit)
        Z[0, 1] = 1e-300
        with pytest.raises(ValueError, match="no component has a nonzero image"):
            UserImages(Z, resolution, fit)

    @pytest.mark.parametrize("method", ["cpf_known_L", "cpf_regularized"])
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_refined_images_are_the_estimate(self, method, trial):
        # estimate_all is front_end, then refine_channels on its images, bit for bit
        meas, design, channel, als_seed = table1_scene(30.0, trial)
        cfg = cpf_config(method, als_seed)
        images = front_end(meas, design, cfg)
        channels, _ = refine_channels(images.Z, design, noise_std_per_entry(meas))
        res = estimate_all(meas, design, cfg, channel)
        assert len(channels) == len(res.channels) == design.n_users
        for H, H_est in zip(channels, res.channels):
            np.testing.assert_array_equal(H, H_est)
        np.testing.assert_array_equal(images.resolution.assignment, res.resolution.assignment)
        assert images.fit.iterations == res.als_iterations

    @pytest.mark.parametrize("trial, empty", [(0, 0), (1, 1), (2, 0)])
    def test_empty_user_is_estimated_as_zero(self, trial, empty):
        # at 0 dB the known-rank fit gives one user of the pinned scene no
        # component: its image, its channel estimate and its error are exact
        meas, design, channel, als_seed = table1_scene(0.0, trial)
        cfg = cpf_config("cpf_known_L", als_seed)
        images = front_end(meas, design, cfg)
        assert images.resolution.empty_users == (empty,)
        assert not np.any(images.Z[:, empty])
        res = estimate_all(meas, design, cfg, channel)
        assert res.resolution.empty_users == (empty,)
        assert not np.any(res.channels[empty])
        assert res.nmse_per_user[empty] == 1.0

    @pytest.mark.parametrize("known_rank", [3, None])
    def test_diagnostics_are_json(self, known_rank):
        rng = np.random.default_rng(9)
        channel = sample_channel(rng, 2, (1, 2), 16, 8)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 2))
        res = estimate_all(simulate(channel, design, 30.0, rng), design,
                           PipelineConfig(known_rank=known_rank))
        assert json.loads(json.dumps(res.diagnostics)) == res.diagnostics


class TestEstimateAll:
    def test_default_grid_follows_the_arrays(self, monkeypatch):
        # a 16x8 design refines on its arrays oversampled CPF_OVERSAMPLING (4)
        # times, whatever the table1 arrays are
        grids = []
        operator = channel_recovery.StackedGridOperator

        def recording_operator(design, grid, *args):
            grids.append((grid.n_aoa, grid.n_aod))
            return operator(design, grid, *args)

        monkeypatch.setattr(channel_recovery, "StackedGridOperator", recording_operator)
        rng = np.random.default_rng(9)
        channel = sample_channel(rng, 2, (1, 2), 16, 8)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 2))
        estimate_all(simulate(channel, design, 30.0, rng), design)
        assert grids and set(grids) == {(64, 32)}

    @pytest.fixture
    def grid_2x(self, monkeypatch):
        """The 32x16 scenes below refine on the 2x grid, (64, 32), that their
        paths lie on."""
        monkeypatch.setattr(channel_recovery, "CPF_OVERSAMPLING", 2)

    def test_noiseless_pipeline_known_rank(self, monkeypatch, grid_2x):
        monkeypatch.setattr(cp_als, "MAX_ITERS", 500)
        monkeypatch.setattr(cp_als, "TOL", 1e-10)
        grid = AngleGrid(64, 32)
        channel, design = on_grid_scene(11, (1, 1, 1), 32, 16, 10, 10, 3, grid)
        meas = simulate(channel, design, None)
        res = estimate_all(meas, design, PipelineConfig(known_rank=3), channel)
        assert res.nmse_total < 1e-6
        np.testing.assert_array_equal(res.resolution.paths_per_user, [1, 1, 1])

    def test_noiseless_pipeline_estimates_rank(self, monkeypatch, grid_2x):
        monkeypatch.setattr(cp_als, "K_UPPER", 10)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 800)
        monkeypatch.setattr(cp_als, "TOL", 1e-9)
        grid = AngleGrid(64, 32)
        channel, design = on_grid_scene(12, (1, 2, 1), 32, 16, 10, 10, 4, grid)
        meas = simulate(channel, design, None)
        res = estimate_all(meas, design, channel_truth=channel)
        assert res.estimated_rank == 4
        assert res.nmse_total < 1e-4

    def test_estimate_follows_the_channel_scale(self, monkeypatch, grid_2x):
        # the decomposition runs on a normalized copy; the estimate must come
        # back at the scale of the measured channel, whatever it is
        monkeypatch.setattr(cp_als, "MAX_ITERS", 500)
        monkeypatch.setattr(cp_als, "TOL", 1e-10)
        grid = AngleGrid(64, 32)
        channel, design = on_grid_scene(11, (1, 1, 1), 32, 16, 10, 10, 3, grid)
        cfg = PipelineConfig(known_rank=3)
        for c in (1e-4, 3e3j):
            scaled = dataclasses.replace(channel, gains=c * channel.gains)
            res = estimate_all(simulate(scaled, design, None), design, cfg, scaled)
            assert res.nmse_total < 1e-6

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_zeroed_components_go_to_no_user(self, trial):
        # at 30 dB the known-rank ALS zeroes 2 of the pinned table1 scene's
        # 13 components; they used to count as paths of user 0
        meas, design, channel, als_seed = table1_scene(30.0, trial)
        res = estimate_all(meas, design, cpf_config("cpf_known_L", als_seed), channel)
        dead = res.diagnostics["dead_components"]
        assert dead == 2
        assert res.resolution.paths_per_user.sum() == 13 - dead
        assert res.resolution.paths_per_user[0] == channel.paths_per_user[0] == 1
        assert res.resolution.match_scores.size == 13 - dead
        assert res.diagnostics["polish_sweeps"] == 0

    @pytest.mark.parametrize("trial", [0, 1, 2, 3])
    def test_polish_budget_moves_no_rank_or_assignment(self, monkeypatch, trial):
        # the polish follows the rank decision, so its sweep budget moves
        # neither the rank nor, on the pinned table1 scene, the assignment
        meas, design, channel, als_seed = table1_scene(30.0, trial)
        pipeline = cpf_config("cpf_regularized", als_seed)
        capped = estimate_all(meas, design, pipeline, channel)
        monkeypatch.setattr(cp_als, "POLISH_ITERS", 1000)
        full = estimate_all(meas, design, pipeline, channel)
        assert capped.estimated_rank == full.estimated_rank
        np.testing.assert_array_equal(capped.resolution.paths_per_user,
                                      full.resolution.paths_per_user)
        assert capped.als_iterations == full.als_iterations
        # neither polish converges: each runs its whole budget
        assert capped.diagnostics["polish_sweeps"] == 200
        assert full.diagnostics["polish_sweeps"] == 1000

    def test_zero_tensor_raises(self):
        rng = np.random.default_rng(13)
        design = build_design(rng, 16, 8, 6, 5, 2, (1, 1))
        from cpchan.measurement import MeasurementTensor

        zero = MeasurementTensor(ComplexTensor3(np.zeros((6, 5, 2), complex)))
        with pytest.raises(cp_als.DegenerateDataError):
            estimate_all(zero, design)

    def test_dependent_pilots_are_degenerate(self):
        rng = np.random.default_rng(13)
        channel = sample_channel(rng, 2, (1, 1), 16, 8)
        design = build_design(rng, 16, 8, 6, 5, 2, (1, 1))
        meas = simulate(channel, design, 30.0, rng)
        same = dataclasses.replace(design, S=design.S[:, [0, 0]])
        with pytest.raises(cp_als.DegenerateDataError, match="k-rank < 2"):
            estimate_all(meas, same)

    def test_pilot_krank_is_searched_once_per_design(self, monkeypatch):
        # the uniqueness check and every estimate on one design share the
        # search of k(S); t = 3 pilot slots tell S's (3, 4) search apart
        # from the steering ones, (6, 4) and (5, 4)
        searched = []
        search = training_design.krank_partitioned

        def spy(M, blocks):
            searched.append(np.shape(M))
            return search(M, blocks)

        monkeypatch.setattr(training_design, "krank_partitioned", spy)
        rng = np.random.default_rng(23)
        channel = sample_channel(rng, 4, (1,) * 4, 16, 8)
        design = build_design(rng, 16, 8, 6, 5, 3, (1,) * 4)
        check_uniqueness(design, channel)
        meas = simulate(channel, design, 30.0, rng)
        for _ in range(2):
            estimate_all(meas, design, PipelineConfig(known_rank=4))
        assert searched.count(design.S.shape) == 1


class TestDemoScript:
    def test_two_user_demo_runs_both_estimators(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "demo_estimation.py"), "--users", "2"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "tensor factorization pipeline  nmse=" in proc.stdout
        assert "compressed-sensing baseline (128x64 grid)  nmse=" in proc.stdout
