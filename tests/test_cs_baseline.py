"""Direct compressed-sensing baseline: operator oracle and recovery checks."""

import dataclasses

import numpy as np
import pytest

from cpchan.channel_recovery import _support_from_magnitudes, channel_from_grid
from cpchan.channel_sim import assemble_all, sample_channel
from cpchan.cs_baseline import PilotKronOperator, assemble_problem, solve_cs
from cpchan.measurement import simulate
from cpchan.sparse_solver import (
    AngleGrid,
    FistaConfig,
    fista,
    top_singular_value,
    universal_lambda,
)
from cpchan.tensor_core import ComplexTensor3
from cpchan.training_design import build_design
from oracles import adjoint_mismatch, build_dictionary, sample_channel_on_grid


def tiny_design(seed=0, n_bs=8, n_ms=4, m_bs=4, t_prime=3, t=2, users=2):
    rng = np.random.default_rng(seed)
    return build_design(rng, n_bs, n_ms, m_bs, t_prime, t, [1] * users)


class LoopPilotKronOperator:
    """Reference (S kron Phi) that applies the 2-D grid dictionary user by
    user in a Python loop and mixes the pilots afterwards."""

    def __init__(self, design, grid):
        self.S = design.S
        self.grid = grid
        self.G_Q, self.G_P = design.responses(grid.sin_aoa, grid.sin_aod)
        self.m = self.G_Q.shape[0] * self.G_P.shape[0]
        self.shape = (design.t * self.m, grid.size * design.n_users)

    def _phi(self, x):
        X = x.reshape(self.grid.n_aoa, self.grid.n_aod, order="F")
        return (self.G_Q @ X @ self.G_P.T).ravel(order="F")

    def _phi_h(self, y):
        M = y.reshape(self.G_Q.shape[0], self.G_P.shape[0], order="F")
        return (self.G_Q.conj().T @ M @ self.G_P.conj()).ravel(order="F")

    def matvec(self, d):
        D = d.reshape(self.grid.size, self.S.shape[1], order="F")
        M = np.stack([self._phi(D[:, u]) for u in range(self.S.shape[1])], axis=1)
        return (M @ self.S.T).ravel(order="F")

    def rmatvec(self, y):
        M = y.reshape(self.m, self.S.shape[0], order="F") @ self.S.conj()
        D = np.stack([self._phi_h(M[:, u]) for u in range(self.S.shape[1])], axis=1)
        return D.ravel(order="F")

    def column_norms(self):
        nq = np.linalg.norm(self.G_Q, axis=0)
        np_ = np.linalg.norm(self.G_P, axis=0)
        grid_norms = (np_[None, :] * nq[:, None]).ravel(order="F")
        return (grid_norms[:, None] * np.linalg.norm(self.S, axis=0)[None, :]).ravel(order="F")


class ScaledColumnsOperator:
    """(A diag(s)) x and its adjoint: the loop operator with its columns
    scaled to unit norm, applied as a wrapper around the physical one."""

    def __init__(self, op, scales):
        self.op = op
        self.scales = scales
        self.shape = op.shape

    def matvec(self, x, support=None):
        return self.op.matvec(x * self.scales)

    def rmatvec(self, y, out=None):
        return np.multiply(self.scales, self.op.rmatvec(y), out=out)


def loop_solve_cs(prob):
    """Reference noisy solve_cs: FISTA on the loop operator scaled to unit
    columns, at the step of the dense unit-column matrix's sigma_max, and a
    joint refit whose columns are the physical operator applied to unit
    vectors."""
    design, grid = prob.design, prob.grid
    op = LoopPilotKronOperator(design, grid)
    norms = op.column_norms()
    lam = universal_lambda(prob.noise_std, op.shape[1], 1.0)
    sigma = np.linalg.norm(unit_columns(np.kron(design.S, build_dictionary(design, grid))), 2)
    sol = fista(ScaledColumnsOperator(op, 1.0 / norms), prob.y,
                FistaConfig(lam=lam, step=1.0 / (2.0 * sigma**2)))
    D = (sol.x / norms).reshape(grid.size, design.n_users, order="F")
    supports, cols, owner = [], [], []
    for u in range(design.n_users):
        sup = _support_from_magnitudes(np.abs(D[:, u]), op.shape[0] // design.n_users)
        supports.append(sup)
        for k in sup:
            e = np.zeros(op.shape[1], dtype=np.complex128)
            e[u * grid.size + k] = 1.0
            cols.append(op.matvec(e))
            owner.append(u)
    gains = np.linalg.lstsq(np.stack(cols, axis=1), prob.y, rcond=None)[0]
    channels = [
        channel_from_grid(sup, gains[np.array(owner) == u], grid, design.n_bs, design.n_ms)
        for u, sup in enumerate(supports)]
    return sol.iterations, supports, channels


# (t, users): equal, fewer pilot slots than users (as at table1, 4 < 8), and
# more; a swapped t/U reshape in the pilot mixing passes only the first
PILOT_SHAPES = ((2, 2), (2, 4), (4, 2))


def unit_columns(M):
    return M / np.linalg.norm(M, axis=0)


def check_dense_match(op, design, grid, rng):
    """op is the physical (S kron Phi) with unit columns; atom_norms are the
    physical column norms."""
    dense = np.kron(design.S, build_dictionary(design, grid))
    unit = unit_columns(dense)
    assert op.shape == dense.shape
    x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    np.testing.assert_allclose(op.matvec(x), unit @ x, atol=1e-11)
    np.testing.assert_allclose(op.rmatvec(y), unit.conj().T @ y, atol=1e-11)
    np.testing.assert_allclose(op.atom_norms(), np.linalg.norm(dense, axis=0), rtol=1e-12)


class TestPilotKronOperator:
    def test_matches_dense_kronecker(self):
        grid = AngleGrid(4, 4)
        rng = np.random.default_rng(1)
        for t, users in PILOT_SHAPES:
            design = tiny_design(t=t, users=users)
            check_dense_match(PilotKronOperator(design, grid), design, grid, rng)

    def test_pilots_of_any_norm_give_unit_columns(self):
        # the designed pilots have unit-norm columns; scaled ones must still
        # give a unit-column operator, kron(S / ||S||, Phi / ||Phi||)
        grid = AngleGrid(5, 4)
        rng = np.random.default_rng(12)
        base = tiny_design(seed=12, t=3, users=2)
        design = dataclasses.replace(base, S=base.S * np.array([0.5, 3.0]))
        op = PilotKronOperator(design, grid)
        cols = np.stack([op.column(u, k) for u in range(2) for k in range(grid.size)],
                        axis=1)
        np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-12)
        expect = np.kron(unit_columns(design.S),
                         unit_columns(build_dictionary(design, grid)))
        np.testing.assert_allclose(cols, expect, atol=1e-12)
        check_dense_match(op, design, grid, rng)
        assert adjoint_mismatch(op, rng) < 1e-10

    def test_unit_vector_extracts_column(self):
        design = tiny_design(seed=2)
        grid = AngleGrid(4, 4)
        op = PilotKronOperator(design, grid)
        dense = unit_columns(np.kron(design.S, build_dictionary(design, grid)))
        for k in np.random.default_rng(3).choice(op.shape[1], size=5, replace=False):
            e = np.zeros(op.shape[1], dtype=np.complex128)
            e[k] = 1.0
            np.testing.assert_allclose(op.matvec(e), dense[:, k], atol=1e-12)
            np.testing.assert_allclose(op.column(*divmod(k, grid.size)), dense[:, k],
                                       atol=1e-12)

    def test_support_product_matches_dense(self):
        # the support hint passes through the pilot mixing to the grid
        # operator; 3 users on 2 pilot slots
        design = build_design(np.random.default_rng(13), 16, 8, 6, 5, 2, (1, 1, 1))
        op = PilotKronOperator(design, AngleGrid(32, 16))
        size = op.grid_op.grid.size
        rng = np.random.default_rng(14)
        # a single entry, an empty middle user, entries in every user
        for support in ([700], [0, 9, 2 * size + 5], [3, size + 100, 2 * size + 511]):
            support = np.array(support)
            d = np.zeros(op.shape[1], dtype=np.complex128)
            d[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(
                support.size)
            dense = op.matvec(d)
            got = op.matvec(d, support=support)
            assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_adjoint(self):
        rng = np.random.default_rng(5)
        for t, users in PILOT_SHAPES:
            design = tiny_design(seed=4, m_bs=6, t_prime=5, t=t, users=users)
            op = PilotKronOperator(design, AngleGrid(6, 5))
            assert adjoint_mismatch(op, rng) < 1e-10


def test_top_singular_value_is_the_dense_svd():
    # 4 users on 2 pilot slots, so that sigma(S) > 1, as at table1
    design = build_design(np.random.default_rng(12), 16, 8, 8, 6, 2, [1] * 4)
    grid = AngleGrid(32, 16)
    op = PilotKronOperator(design, grid)
    dense = unit_columns(np.kron(design.S, build_dictionary(design, grid)))
    sigma = top_singular_value(op)
    assert sigma == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12)


class TestAssembleProblem:
    def test_noiseless_measurement_in_operator_range(self):
        # the stacked measurement must equal the operator applied to the
        # true on-grid coefficient vector
        grid = AngleGrid(16, 8)
        rng = np.random.default_rng(6)
        channel = sample_channel_on_grid(rng, (1, 1), 16, 8, grid.sin_aoa, grid.sin_aod)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 1))
        meas = simulate(channel, design, None)
        prob = assemble_problem(meas, design, grid)
        # build the true coefficient vector from the paths
        d = np.zeros(prob.operator.shape[1], dtype=np.complex128)
        users = np.repeat(np.arange(channel.n_users), channel.paths_per_user)
        for u, g, s_aoa, s_aod in zip(users, channel.gains, channel.sin_aoa, channel.sin_aod):
            i = int(np.argmin(np.abs(grid.sin_aoa - s_aoa)))
            j = int(np.argmin(np.abs(grid.sin_aod - s_aod)))
            d[u * grid.size + j * grid.n_aoa + i] = g
        # path gains on the physical atoms are gain * atom norm on the unit ones
        np.testing.assert_allclose(prob.operator.matvec(d * prob.operator.atom_norms()), prob.y,
                                   rtol=1e-9, atol=1e-12)
        assert prob.noise_std == 0.0

    def test_zero_tensor_gives_zero_vector(self):
        from cpchan.measurement import MeasurementTensor

        design = tiny_design(seed=7)
        zero = MeasurementTensor(
            ComplexTensor3(np.zeros((design.m_bs, design.t_prime, design.t), complex)))
        prob = assemble_problem(zero, design, AngleGrid(4, 4))
        np.testing.assert_array_equal(prob.y, 0)


class TestSolveCs:
    def test_noiseless_on_grid_exact(self):
        grid = AngleGrid(32, 16)
        rng = np.random.default_rng(8)
        channel = sample_channel_on_grid(rng, (1, 1), 16, 8, grid.sin_aoa, grid.sin_aod)
        design = build_design(rng, 16, 8, 16, 16, 2, (1, 1))
        meas = simulate(channel, design, None)
        prob = assemble_problem(meas, design, grid)
        res = solve_cs(prob, FistaConfig(lam=1e-8 * np.linalg.norm(prob.y),
                                         max_iters=5000, tol=1e-15),
                       channel_truth=channel)
        assert res.nmse_total < 1e-4
        # each user carries one on-grid path; the support must find it
        H_true = assemble_all(channel)
        for u in range(2):
            assert res.supports[u].size >= 1
            assert res.nmse_per_user[u] < 1e-4
        assert res.runtime_s > 0

    def test_noisy_run_returns_finite_estimates(self):
        grid = AngleGrid(16, 8)
        rng = np.random.default_rng(9)
        channel = sample_channel(rng, 2, (1, 2), 16, 8)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 2))
        meas = simulate(channel, design, 20.0, rng)
        prob = assemble_problem(meas, design, grid)
        res = solve_cs(prob, lambda_scale=1.0, channel_truth=channel)
        assert np.isfinite(res.nmse_total)
        assert res.iterations > 0
        assert all(np.all(np.isfinite(H)) for H in res.channels)

    def test_matches_per_user_loop_reference(self):
        # 3 users on 2 pilot slots, so the pilot mixing is not square
        grid = AngleGrid(16, 8)
        rng = np.random.default_rng(11)
        channel = sample_channel(rng, 3, (1, 2, 1), 16, 8)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 2, 1))
        prob = assemble_problem(simulate(channel, design, 15.0, rng), design, grid)
        res = solve_cs(prob)
        iterations, supports, channels = loop_solve_cs(prob)
        assert res.iterations == iterations
        for got, want in zip(res.supports, supports):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(res.channels, channels):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_no_truth_leaves_nmse_none(self):
        grid = AngleGrid(8, 8)
        rng = np.random.default_rng(10)
        channel = sample_channel(rng, 2, (1, 1), 16, 8)
        design = build_design(rng, 16, 8, 6, 5, 2, (1, 1))
        meas = simulate(channel, design, 10.0, rng)
        res = solve_cs(assemble_problem(meas, design, grid),
                       FistaConfig(lam=0.1, max_iters=50))
        assert res.nmse_total is None and res.nmse_per_user is None
