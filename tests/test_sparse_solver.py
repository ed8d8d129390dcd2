"""Proximal-gradient l1 solver and matrix-free angle-grid dictionaries."""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan.channel_recovery import FISTA_MAX_ITERS, FISTA_TOL, LAMBDA_SCALE
from cpchan.channel_sim import assemble_all, sample_channel
from cpchan.cs_baseline import PilotKronOperator, assemble_problem
from cpchan.measurement import simulate
from cpchan.sparse_solver import (
    SPARSE_SHARE,
    SUPPORT_SHARE,
    AngleGrid,
    FistaConfig,
    StackedGridOperator,
    _shrink,
    fista,
    top_singular_value,
    universal_lambda,
)
from cpchan.training_design import build_design
from oracles import MatrixOperator, adjoint_mismatch, build_dictionary, soft_threshold


def small_design(seed=0, n_bs=16, n_ms=8, m_bs=6, t_prime=5, t=4):
    rng = np.random.default_rng(seed)
    return build_design(rng, n_bs, n_ms, m_bs, t_prime, t, [1] * t)


def lasso_objective(A, y, x, lam):
    return np.linalg.norm(y - A @ x) ** 2 + lam * np.sum(np.abs(x))


def table1_design():
    rng = np.random.default_rng(0)
    return build_design(rng, 64, 32, 16, 16, 4, [1, 1, 1, 2, 2, 2, 2, 2])


def einsum_products(op, x, y):
    """The grid operator's forward and adjoint products as one einsum each
    over the normalized factors, contracted in the order einsum_path picks."""
    g = op.grid
    X = x.reshape(g.n_aoa, g.n_aod, op.n_rhs, order="F")
    Y = y.reshape(op.m_bs, op.t_prime, op.n_rhs, order="F")
    G_Qc, G_Pc = op.G_Q.conj(), op.G_P.conj()
    fwd_path = np.einsum_path("ma,adu,td->utm", op.G_Q, X, op.G_P, optimize="optimal")[0]
    adj_path = np.einsum_path("ma,mtu,td->uda", G_Qc, Y, G_Pc, optimize="optimal")[0]
    fwd = np.einsum("ma,adu,td->utm", op.G_Q, X, op.G_P, optimize=fwd_path)
    adj = np.einsum("ma,mtu,td->uda", G_Qc, Y, G_Pc, optimize=adj_path)
    return fwd.ravel(), adj.ravel()


@pytest.fixture
def support_products(monkeypatch):
    """Support sizes of the products StackedGridOperator runs over a support."""
    sizes = []
    run = StackedGridOperator._support_matvec

    def spy(self, x, support):
        sizes.append(support.size)
        return run(self, x, support)

    monkeypatch.setattr(StackedGridOperator, "_support_matvec", spy)
    return sizes


@pytest.fixture
def screened_rows(monkeypatch):
    """(kept, total) grid rows of every adjoint StackedGridOperator screens."""
    counts = []
    run = StackedGridOperator.screened_rmatvec

    def spy(self, y, scale, floor, forced, out):
        rows, block = run(self, y, scale, floor, forced, out)
        counts.append((rows.size, self.n_rhs * self.grid.n_aod))
        return rows, block

    monkeypatch.setattr(StackedGridOperator, "screened_rmatvec", spy)
    return counts


def on_support(rng, n, support):
    x = np.zeros(n, dtype=np.complex128)
    x[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    return x


def shrink(v, t):
    """The solver's soft threshold of v at t, into a new array."""
    return _shrink(v, np.abs(v), t)


class TestSoftThreshold:
    def test_analytic_form(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        t = 0.4
        out = shrink(v, t)
        mag = np.abs(v)
        expect = np.where(mag > t, v * (mag - t) / mag, 0.0)
        np.testing.assert_allclose(out, expect, atol=1e-13)

    def test_is_prox_of_l1(self):
        # prox minimizes ||u - v||^2 + 2 t |u|_1 pointwise; check by sampling
        rng = np.random.default_rng(1)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        t = 0.3
        # min_u ||u - v||^2 + 2 t |u|_1 is solved by the soft threshold of v at t
        u = shrink(v, t)
        base = np.abs(u - v) ** 2 + 2 * t * np.abs(u)
        for _ in range(50):
            trial = u + 0.01 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
            cand = np.abs(trial - v) ** 2 + 2 * t * np.abs(trial)
            assert np.all(base <= cand + 1e-12)

    def test_zero_below_threshold(self):
        v = np.array([0.1 + 0.1j, 1.0])
        out = shrink(v, 0.5)
        assert out[0] == 0.0 and abs(out[1]) == pytest.approx(0.5)


class TestOperators:
    def test_matrix_operator_adjoint(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((15, 25)) + 1j * rng.standard_normal((15, 25))
        assert adjoint_mismatch(MatrixOperator(M), rng) < 1e-10

    def test_top_singular_value_matches_svd(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((20, 12)) + 1j * rng.standard_normal((20, 12))
        ref = np.linalg.svd(M, compute_uv=False)[0]
        assert top_singular_value(MatrixOperator(M)) == pytest.approx(ref, rel=1e-12)

    def test_grid_operator_matches_dense_dictionary(self):
        # the operator is the physical dictionary with its columns normalized;
        # atom_norms are the physical column norms
        design = small_design()
        grid = AngleGrid(12, 10)
        op = StackedGridOperator(design, grid)
        D = build_dictionary(design, grid)
        D_unit = D / np.linalg.norm(D, axis=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        y = rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0])
        np.testing.assert_allclose(op.matvec(x), D_unit @ x, atol=1e-11)
        np.testing.assert_allclose(op.rmatvec(y), D_unit.conj().T @ y, atol=1e-11)
        np.testing.assert_allclose(op.atom_norms(), np.linalg.norm(D, axis=0),
                                   rtol=1e-12)

    def test_grid_operator_column_extraction(self):
        design = small_design(seed=5)
        grid = AngleGrid(9, 7)
        op = StackedGridOperator(design, grid)
        for k in [0, 1, 8, 9, grid.size - 1]:
            e = np.zeros(grid.size, dtype=np.complex128)
            e[k] = 1.0
            np.testing.assert_allclose(op.column(k), op.matvec(e), atol=1e-12)

    def test_normalized_columns_are_unit(self):
        design = small_design(seed=6)
        grid = AngleGrid(8, 8)
        op = StackedGridOperator(design, grid)
        cols = np.stack([op.column(k) for k in range(grid.size)], axis=1)
        np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-12)

    def test_stacked_operator_is_block_diagonal(self):
        design = small_design(seed=7)
        grid = AngleGrid(10, 6)
        base = StackedGridOperator(design, grid)
        stacked = StackedGridOperator(design, grid, 3)
        assert adjoint_mismatch(stacked, np.random.default_rng(8)) < 1e-10
        np.testing.assert_array_equal(stacked.atom_norms(),
                                      np.tile(base.atom_norms(), 3))
        rng = np.random.default_rng(9)
        xs = [rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
              for _ in range(3)]
        out = stacked.matvec(np.concatenate(xs))
        expect = np.concatenate([base.matvec(x) for x in xs])
        np.testing.assert_allclose(out, expect, atol=1e-11)
        ys = [rng.standard_normal(base.shape[0]) + 1j * rng.standard_normal(base.shape[0])
              for _ in range(3)]
        out = stacked.rmatvec(np.concatenate(ys))
        expect = np.concatenate([base.rmatvec(y) for y in ys])
        np.testing.assert_allclose(out, expect, atol=1e-11)

    @pytest.mark.parametrize("shape", ["table1", "small"])
    def test_stacked_adjoint_blocks_are_the_single_block_adjoint_bitwise(self, shape):
        stacked = screening_op(shape)
        single = StackedGridOperator(table1_design() if shape == "table1"
                                     else small_design(seed=50, m_bs=8, t_prime=8),
                                     stacked.grid)
        rng = np.random.default_rng(15)
        y = rng.standard_normal(stacked.shape[0]) + 1j * rng.standard_normal(stacked.shape[0])
        blocks = stacked.rmatvec(y).reshape(stacked.n_rhs, -1)
        for u, y_u in enumerate(y.reshape(stacked.n_rhs, -1)):
            assert same_bits(blocks[u], single.rmatvec(y_u))

    def test_grid_responses_shapes(self):
        design = small_design(seed=10)
        grid = AngleGrid(14, 11)
        G_Q, G_P = design.responses(grid.sin_aoa, grid.sin_aod)
        assert G_Q.shape == (design.m_bs, 14)
        assert G_P.shape == (design.t_prime, 11)

    @pytest.mark.parametrize("grid_dims", [(256, 128), (128, 64)])
    def test_gemm_products_equal_einsum_on_table1_grids(self, grid_dims):
        op = StackedGridOperator(table1_design(), AngleGrid(*grid_dims), 8)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        fwd, adj = einsum_products(op, x, y)
        assert np.array_equal(op.matvec(x), fwd)
        assert np.array_equal(op.rmatvec(y), adj)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            AngleGrid(0, 4)
        g = AngleGrid(8, 4)
        assert g.cell(8 + 3) == (1, 3)  # column i*n_aoa + j -> (aod i, aoa j)


class TestTopSingularValue:
    @pytest.mark.parametrize("n_rhs", [1, 3])
    def test_grid_operator_is_the_dense_svd(self, n_rhs):
        # 48 x 512 blocks
        design = small_design(seed=12, m_bs=8, t_prime=6)
        grid = AngleGrid(32, 16)
        op = StackedGridOperator(design, grid, n_rhs)
        D = build_dictionary(design, grid)
        dense = np.kron(np.eye(n_rhs), D / np.linalg.norm(D, axis=0))
        sigma = top_singular_value(op)
        assert sigma == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0], rel=1e-12)

    def test_operator_without_kron_factors_needs_a_step(self):
        rng = np.random.default_rng(14)
        M = MatrixOperator(rng.standard_normal((20, 12)) + 1j * rng.standard_normal((20, 12)))
        products_only = types.SimpleNamespace(shape=M.shape, matvec=M.matvec, rmatvec=M.rmatvec)
        with pytest.raises(TypeError, match=r"kron_factors\(\).*FistaConfig\.step"):
            top_singular_value(products_only)
        with pytest.raises(TypeError, match="kron_factors"):
            fista(products_only, M.M[:, 3], FistaConfig(lam=0.1))
        step = 1.0 / (2.0 * top_singular_value(M) ** 2)
        res = fista(products_only, M.M[:, 3], FistaConfig(lam=0.1, max_iters=50, step=step))
        assert res.iterations > 1 and np.any(res.x)


class TestSupportProduct:
    """matvec(x, support=s) with x zero outside s, against the dense product."""

    @pytest.mark.parametrize("n_rhs", [1, 3])
    def test_matches_dense_product(self, n_rhs, support_products):
        op = StackedGridOperator(small_design(seed=40, m_bs=8, t_prime=8), AngleGrid(32, 16),
                                 n_rhs)
        n, size = op.shape[1], op.grid.size
        rng = np.random.default_rng(41)
        supports = [
            np.array([0]), np.array([n - 1]),
            np.sort(rng.choice(n, n // SUPPORT_SHARE, replace=False)),
            # the first block's first and last columns only
            np.array([0, 1, size - 1])]
        if n_rhs > 1:
            # the middle block has no entries
            supports.append(np.array([3, 40, 2 * size, 2 * size + 77]))
        for support in supports:
            x = on_support(rng, n, support)
            dense = op.matvec(x)
            got = op.matvec(x, support=support)
            assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)
        assert support_products == [s.size for s in supports]

    def test_empty_support_gives_zeros(self, support_products):
        op = StackedGridOperator(small_design(seed=42), AngleGrid(12, 10), 2)
        out = op.matvec(np.zeros(op.shape[1], dtype=np.complex128),
                        support=np.empty(0, dtype=np.intp))
        assert out.shape == (op.shape[0],) and not np.any(out)
        assert support_products == [0]

    def test_above_crossover_is_the_dense_product(self, support_products):
        op = StackedGridOperator(small_design(seed=43), AngleGrid(16, 8), 2)
        n = op.shape[1]
        rng = np.random.default_rng(44)
        support = np.sort(rng.choice(n, n // SUPPORT_SHARE + 1, replace=False))
        x = on_support(rng, n, support)
        assert np.array_equal(op.matvec(x, support=support), op.matvec(x))
        assert support_products == []

    @pytest.mark.parametrize("support", [[9, 4, 1], [2, 2, 5], [-1, 3], [0, 5, 320]])
    def test_bad_support_raises(self, support):
        # a reversed or repeated support would give a silently wrong product
        op = StackedGridOperator(small_design(seed=45), AngleGrid(16, 10), 2)
        with pytest.raises(ValueError, match="support"):
            op.matvec(np.zeros(op.shape[1], dtype=np.complex128), support=np.array(support))


def first_stage_norms(op, y):
    """Norms of the grid operator's first-stage rows G_P^H Y_u, one per
    (block, AoD index): the screen's bound on that grid row's adjoint."""
    W = op.G_P.conj().T @ y.reshape(op.n_rhs, op.t_prime, op.m_bs)
    return np.linalg.norm(W.reshape(-1, op.m_bs), axis=1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def screen(op, y, scale, floor, forced=np.empty(0, dtype=np.intp)):
    return op.screened_rmatvec(y, scale, floor, forced, np.empty(op.shape[1], dtype=np.complex128))


@functools.cache
def screening_op(shape):
    """The table1 CPF refinement's operator (8 users, 256x128 grid,
    m_bs = t' = 16) or a small one."""
    if shape == "table1":
        return StackedGridOperator(table1_design(), AngleGrid(256, 128), 8)
    return StackedGridOperator(small_design(seed=50, m_bs=8, t_prime=8), AngleGrid(32, 16), 3)


@functools.cache
def pilot_op(shape):
    """The CS baseline's operator at table1 (8 users on 4 pilot slots, the
    128x64 grid) or a small one (3 users on 2 slots)."""
    if shape == "table1":
        return PilotKronOperator(table1_design(), AngleGrid(128, 64))
    return PilotKronOperator(build_design(np.random.default_rng(13), 16, 8, 6, 5, 2, (1, 1, 1)),
                             AngleGrid(32, 16))


class TestScreenedAdjoint:
    """screened_rmatvec against rmatvec: the kept rows bit for bit, and no
    skipped row that the scale can lift above the floor."""

    @pytest.mark.parametrize("shape", ["table1", "small"])
    @pytest.mark.parametrize("n_kept", [0, 1, 2, "all"])
    def test_kept_rows_match_rmatvec_bitwise(self, shape, n_kept):
        op = screening_op(shape)
        rng = np.random.default_rng(51)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        norms = np.sort(first_stage_norms(op, y))[::-1]
        scale = 0.37
        # a floor halfway between the n_kept-th and the next largest bound
        floor = scale * {0: 2.0 * norms[0], 1: (norms[0] + norms[1]) / 2,
                         2: (norms[1] + norms[2]) / 2, "all": norms[-1] / 2}[n_kept]
        full = op.rmatvec(y).reshape(-1, op.grid.n_aoa)
        out = np.empty(op.shape[1], dtype=np.complex128)
        rows, block = op.screened_rmatvec(y, scale, floor, np.empty(0, dtype=np.intp), out)
        # a single kept row comes padded with a second one
        assert rows.size == {0: 0, 1: 2, 2: 2, "all": full.shape[0]}[n_kept]
        assert np.all(np.diff(rows) > 0)
        assert same_bits(block, full[rows])
        assert rows.size == 0 or np.shares_memory(block, out)

    @pytest.mark.parametrize("shape", ["table1", "small"])
    def test_rmatvec_into_a_buffer_is_rmatvec_bitwise(self, shape):
        # fista writes every adjoint, the pilot-mixed one included, into one buffer
        for op in (screening_op(shape), pilot_op(shape)):
            rng = np.random.default_rng(57)
            y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
            buf = np.empty(op.shape[1], dtype=np.complex128)
            got = op.rmatvec(y, out=buf)
            assert np.shares_memory(got, buf) and same_bits(got, op.rmatvec(y))

    @pytest.mark.parametrize("shape", ["table1", "small"])
    def test_single_row_is_padded_to_two(self, shape):
        op = screening_op(shape)
        rng = np.random.default_rng(52)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        full = op.rmatvec(y).reshape(-1, op.grid.n_aoa)
        width = op.grid.n_aoa
        for row, want in ((0, [0, 1]), (5, [0, 5]), (full.shape[0] - 1, [0, full.shape[0] - 1])):
            rows, block = screen(op, y, 1.0, np.inf, np.array([row * width + 3]))
            assert rows.tolist() == want
            assert same_bits(block, full[rows])

    @pytest.mark.parametrize("shape", ["table1", "small"])
    def test_skipped_rows_stay_below_a_floor_at_a_row_norm(self, shape):
        op = screening_op(shape)
        # y is one unit atom, so every first-stage row of its block is a
        # multiple of that atom's G_Q column and holds an entry equal to its
        # bound up to rounding; floors within 1e-12 relative of such a bound
        # must skip no row with an entry above them
        n, width = op.shape[1], op.grid.n_aoa
        k = n // 3 + 17
        e = np.zeros(n, dtype=np.complex128)
        e[k] = 1.0
        y = op.matvec(e)
        full = op.rmatvec(y).reshape(-1, width)
        norms = first_stage_norms(op, y)
        scale = 2.0 * 0.0123
        live = np.flatnonzero(norms > 1e-3 * norms.max())
        tight_rows = (k // width, live[live.size // 2])
        for row in tight_rows:
            assert np.max(np.abs(full[row])) > (1 - 1e-13) * norms[row]
            for rel in np.linspace(-1e-12, 1e-12, 9):
                floor = scale * norms[row] * (1.0 + rel)
                rows, _ = screen(op, y, scale, floor)
                skipped = np.setdiff1d(np.arange(full.shape[0]), rows)
                assert skipped.size
                assert np.all(np.abs(full[skipped] * -scale) <= floor)
                # the row's top entry can pass the floor, so it is kept
                assert row in rows

    def test_forced_rows_are_kept(self):
        op = screening_op("small")
        rng = np.random.default_rng(54)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        full = op.rmatvec(y).reshape(-1, op.grid.n_aoa)
        forced = np.sort(rng.choice(op.shape[1], 7, replace=False))
        forced_rows = np.unique(forced // op.grid.n_aoa)
        # no row passes an infinite floor, some pass the median bound
        for floor in (np.inf, 0.5 * np.median(first_stage_norms(op, y))):
            rows, block = screen(op, y, 0.5, floor, forced)
            assert np.isin(forced_rows, rows).all()
            assert (rows.size == forced_rows.size) == (floor == np.inf)
            assert same_bits(block, full[rows])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_input_keeps_its_rows(self, bad):
        # a non-finite entry of block u reaches every first-stage row of u
        op = screening_op("small")
        rng = np.random.default_rng(55)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        u = 1
        y[u * op.m_bs * op.t_prime + 9] = bad
        with np.errstate(invalid="ignore"):
            full = op.rmatvec(y).reshape(-1, op.grid.n_aoa)
            rows, block = screen(op, y, 1.0, np.inf)
        n_aod = op.grid.n_aod
        np.testing.assert_array_equal(rows, np.arange(u * n_aod, (u + 1) * n_aod))
        np.testing.assert_array_equal(block, full[rows])

    @pytest.mark.parametrize("power", [-700, 700])
    def test_bound_neither_underflows_nor_overflows(self, power):
        # scaling y and the floor by a power of two scales every bound exactly,
        # so the same rows pass; squared norms would be 0 (or inf) here
        op = screening_op("table1")
        rng = np.random.default_rng(56)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        floor = 0.3 * np.median(first_stage_norms(op, y))
        rows, _ = screen(op, y, 0.3, floor)
        assert 0 < rows.size < op.n_rhs * op.grid.n_aod
        with np.errstate(under="ignore"):
            scaled_rows, _ = screen(op, y * 2.0 ** power, 0.3, floor * 2.0 ** power)
        np.testing.assert_array_equal(scaled_rows, rows)


def allocating_fista(op, y, cfg):
    """Reference FISTA loop that allocates every temporary afresh; the
    buffered solver must reproduce it bit for bit.  Like the solver, it gives
    the forward product the iterate's support as a hint when the candidates
    are few enough for support tracking, and then sums the l1 term over those
    candidates alone, in index order.  Also returns, per iteration, the
    number of candidates: gradient-step entries the soft threshold does not
    zero by the |v| <= lam * step test."""
    y = np.asarray(y, dtype=np.complex128).ravel()
    step = cfg.step if cfg.step is not None else 1.0 / (2.0 * top_singular_value(op) ** 2)
    x = np.zeros(op.shape[1], dtype=np.complex128)
    z = x.copy()
    ax = np.zeros(op.shape[0], dtype=np.complex128)
    az = ax
    t_momentum = 1.0
    trace = [float(np.linalg.norm(y) ** 2)]
    candidates = []
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = 2.0 * op.rmatvec(az - y)
        v = z - step * grad
        cand = np.flatnonzero(~(np.abs(v) <= cfg.lam * step))
        candidates.append(cand.size)
        x_new = soft_threshold(v, cfg.lam * step)
        if cand.size * SPARSE_SHARE <= op.shape[1]:
            ax_new = op.matvec(x_new, support=np.flatnonzero(x_new))
            l1 = np.sum(np.abs(x_new[cand]))
        else:
            ax_new = op.matvec(x_new)
            l1 = np.sum(np.abs(x_new))
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2)) / 2.0
        beta = (t_momentum - 1.0) / t_new
        z = x_new + beta * (x_new - x)
        az = ax_new + beta * (ax_new - ax)
        x, ax, t_momentum = x_new, ax_new, t_new
        obj = float(np.linalg.norm(y - ax) ** 2 + cfg.lam * l1)
        trace.append(obj)
        if abs(trace[-2] - obj) <= cfg.tol * max(abs(trace[-2]), 1e-30):
            break
    return x, trace, it, candidates


def assert_matches_reference(op, y, cfg):
    """fista equals allocating_fista bit for bit; returns, per iteration,
    whether the reference's candidates were few enough for support tracking."""
    res = fista(op, y, cfg)
    x, trace, iterations, candidates = allocating_fista(op, y, cfg)
    assert np.array_equal(res.x, x)
    assert res.objective_trace == trace
    assert res.iterations == iterations
    return np.array(candidates) * SPARSE_SHARE <= op.shape[1]


class TestFista:
    def test_buffered_loop_matches_allocating_reference_bitwise(self):
        rng = np.random.default_rng(30)
        A = rng.standard_normal((30, 60)) + 1j * rng.standard_normal((30, 60))
        x0 = np.zeros(60, dtype=np.complex128)
        x0[[3, 17, 41]] = [2.0, -1.0 + 0.5j, 1.5j]
        y_dense = A @ x0 + 0.01 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        stacked = StackedGridOperator(small_design(seed=31), AngleGrid(16, 8), 3)
        y_stacked = rng.standard_normal(stacked.shape[0]) + 1j * rng.standard_normal(
            stacked.shape[0])
        for op, y, cfg in (
                (MatrixOperator(A), y_dense, FistaConfig(lam=0.1, max_iters=400, tol=1e-10)),
                (stacked, y_stacked, FistaConfig(lam=0.05, max_iters=150, tol=1e-7))):
            assert_matches_reference(op, y, cfg)

    def test_support_tracking_matches_reference_bitwise(self, support_products,
                                                        screened_rows):
        # a sparse scene on a stacked grid: the first iterations keep too many
        # candidates, the later ones few enough to track supports, and some
        # few enough for the forward product over the support
        rng = np.random.default_rng(32)
        op = StackedGridOperator(small_design(seed=33, m_bs=8, t_prime=8), AngleGrid(64, 32), 2)
        x0 = np.zeros(op.shape[1], dtype=np.complex128)
        x0[[7, 1300, 2660, 3600]] = [1.0, -0.8j, 0.6 + 0.6j, 1.2]
        y = op.matvec(x0) + 0.01 * (rng.standard_normal(op.shape[0])
                                    + 1j * rng.standard_normal(op.shape[0]))
        sparse = assert_matches_reference(op, y, FistaConfig(lam=0.05, max_iters=300, tol=1e-9))
        assert not sparse[0] and sparse.any()
        assert support_products, "no iteration ran the support product"
        assert any(kept < total for kept, total in screened_rows), "no row was skipped"

    def test_regime_switching_both_ways_matches_reference_bitwise(self):
        # candidates hover around n / SPARSE_SHARE, so the loop leaves the
        # support-tracking step and later returns to it
        rng = np.random.default_rng(91)
        A = rng.standard_normal((24, 64)) + 1j * rng.standard_normal((24, 64))
        y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        lam = 0.7 * np.max(np.abs(2.0 * A.conj().T @ y))
        sparse = assert_matches_reference(MatrixOperator(A), y,
                                          FistaConfig(lam=lam, max_iters=300, tol=1e-12))
        switches = np.diff(sparse.astype(int))
        to_dense, to_sparse = np.flatnonzero(switches == -1), np.flatnonzero(switches == 1)
        assert to_dense.size and to_sparse.size and to_sparse.max() > to_dense.min()

    def test_pilot_kron_problem_matches_reference_bitwise(self, support_products):
        rng = np.random.default_rng(34)
        design = build_design(rng, 16, 8, 6, 5, 3, (1, 1, 1))
        op = PilotKronOperator(design, AngleGrid(32, 16))
        d0 = np.zeros(op.shape[1], dtype=np.complex128)
        d0[[5, 700, 1100]] = [1.0, 0.7j, -0.9]
        y = op.matvec(d0) + 0.02 * (rng.standard_normal(op.shape[0])
                                    + 1j * rng.standard_normal(op.shape[0]))
        sparse = assert_matches_reference(op, y, FistaConfig(lam=0.1, max_iters=400, tol=1e-9))
        assert sparse.any()
        assert support_products, "no iteration ran the support product"

    @pytest.mark.parametrize("snr_db", [10, 30])
    def test_table1_refinement_matches_reference_bitwise(self, snr_db, screened_rows):
        # the CPF refinement's solve at table1 size: 8 users' compressed
        # images on the 256x128 grid, with refine_channels' lambda and budget
        rng = np.random.default_rng(60 + snr_db)
        design = table1_design()
        channel = sample_channel(rng, 8, [1, 1, 1, 2, 2, 2, 2, 2], 64, 32)
        Z = np.stack([(design.Q.T @ H @ design.P).ravel(order="F")
                      for H in assemble_all(channel)], axis=1)
        noise_std = np.sqrt(np.mean(np.abs(Z) ** 2)) * 10 ** (-snr_db / 20)
        Z = Z + noise_std * (rng.standard_normal(Z.shape)
                             + 1j * rng.standard_normal(Z.shape)) / np.sqrt(2)
        grid = AngleGrid(256, 128)
        step = 1.0 / (2.0 * top_singular_value(StackedGridOperator(design, grid)) ** 2)
        cfg = FistaConfig(lam=universal_lambda(noise_std, grid.size, LAMBDA_SCALE),
                          max_iters=FISTA_MAX_ITERS, tol=FISTA_TOL, step=step)
        sparse = assert_matches_reference(StackedGridOperator(design, grid, 8),
                                          Z.ravel(order="F"), cfg)
        assert sparse.sum() > FISTA_MAX_ITERS // 2
        kept, total = np.array(screened_rows).T
        assert kept.size > FISTA_MAX_ITERS // 2 and np.all(kept < total)

    def test_table1_cs_problem_matches_reference_bitwise(self, support_products):
        # the CS baseline's solve at table1 size: 8 users on 4 pilot slots,
        # the 128x64 grid and the universal lambda at 30 dB, capped at 400
        # iterations; dense steps come first, then support tracking, and
        # the support drops to the grid operator's support product near
        # iteration 350
        rng = np.random.default_rng(66)
        design = table1_design()
        channel = sample_channel(rng, 8, [1, 1, 1, 2, 2, 2, 2, 2], 64, 32)
        prob = assemble_problem(simulate(channel, design, 30.0, rng), design,
                                AngleGrid(128, 64))
        op = prob.operator
        cfg = FistaConfig(lam=universal_lambda(prob.noise_std, op.shape[1]), max_iters=400)
        sparse = assert_matches_reference(op, prob.y, cfg)
        assert not sparse[0] and sparse.any()
        assert support_products, "no iteration ran the support product"

    def test_pilot_kron_and_matrix_solves_never_screen(self, screened_rows):
        rng = np.random.default_rng(37)
        design = build_design(rng, 16, 8, 6, 5, 3, (1, 1, 1))
        op = PilotKronOperator(design, AngleGrid(32, 16))
        d0 = np.zeros(op.shape[1], dtype=np.complex128)
        d0[[5, 700, 1100]] = [1.0, 0.7j, -0.9]
        A = rng.standard_normal((24, 64)) + 1j * rng.standard_normal((24, 64))
        for solve_op, y, lam in ((op, op.matvec(d0), 0.1),
                                 (MatrixOperator(A), A[:, 3] - 0.5j * A[:, 40], 0.5)):
            sparse = assert_matches_reference(solve_op, y, FistaConfig(lam=lam, max_iters=200))
            assert sparse.any()
        assert not screened_rows

    def test_noiseless_tiny_lambda_stays_dense_and_matches_reference(self):
        rng = np.random.default_rng(35)
        A = rng.standard_normal((30, 60)) + 1j * rng.standard_normal((30, 60))
        x0 = np.zeros(60, dtype=np.complex128)
        x0[[2, 19, 44]] = [1.0, -2.0j, 0.5 + 0.5j]
        sparse = assert_matches_reference(MatrixOperator(A), A @ x0,
                                          FistaConfig(lam=1e-6, max_iters=300, tol=1e-14))
        assert not sparse.any()

    def test_lambda_above_gradient_keeps_zero_iterate_and_matches_reference(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((20, 40)) + 1j * rng.standard_normal((20, 40))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        # x = 0 is optimal once lam >= max |2 A^H y|
        lam = 1.01 * np.max(np.abs(2.0 * A.conj().T @ y))
        cfg = FistaConfig(lam=lam, max_iters=50)
        x, _, _, candidates = allocating_fista(MatrixOperator(A), y, cfg)
        assert not np.any(x) and not any(candidates)
        assert assert_matches_reference(MatrixOperator(A), y, cfg).all()

    def test_identity_fixed_point(self):
        # for A = I the lasso solution is the soft threshold of y at lam/2
        y = np.array([3.0, 0.2, -1.0 + 1.0j], dtype=np.complex128)
        res = fista(MatrixOperator(np.eye(3)), y, FistaConfig(lam=1.0, max_iters=2000, tol=1e-15))
        np.testing.assert_allclose(res.x, soft_threshold(y, 0.5), atol=1e-8)

    def test_result_owns_its_iterate(self):
        # after an even number of dense steps the iterate is a row of the
        # solver's x/z block, returned as a copy (a view would keep the
        # momentum half alive); after an odd number it is the adjoint buffer
        # a dense step swapped in, returned as it is
        rng = np.random.default_rng(24)
        A = MatrixOperator(rng.standard_normal((12, 30)) + 1j * rng.standard_normal((12, 30)))
        y = A.M[:, 4]
        for lam, dense_steps in ((0.1, 20), (5.0, 15), (100.0, 0)):
            cfg = FistaConfig(lam=lam, max_iters=20)
            assert np.count_nonzero(~assert_matches_reference(A, y, cfg)) == dense_steps
            first, second = fista(A, y, cfg).x, fista(A, y, cfg).x
            assert first.base is None and first.flags.owndata
            assert second.base is None and second.flags.owndata
            assert not np.shares_memory(first, second)

    def test_long_run_reaches_self_oracle_gap(self):
        # solution after few iterations vs. a long run of the same solver:
        # the objective gap must close below 1e-6 of the initial objective
        rng = np.random.default_rng(20)
        A = rng.standard_normal((30, 60)) + 1j * rng.standard_normal((30, 60))
        x0 = np.zeros(60, dtype=np.complex128)
        x0[[3, 17, 41]] = [2.0, -1.0 + 0.5j, 1.5j]
        y = A @ x0 + 0.01 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        lam = 0.1
        op = MatrixOperator(A)
        ref = fista(op, y, FistaConfig(lam=lam, max_iters=20000, tol=1e-16))
        short = fista(op, y, FistaConfig(lam=lam, max_iters=3000, tol=1e-14))
        gap = lasso_objective(A, y, short.x, lam) - lasso_objective(A, y, ref.x, lam)
        assert gap < 1e-6 * np.linalg.norm(y) ** 2

    def test_objective_trace_monotone_within_restart_tolerance(self):
        # FISTA is not strictly monotone, but the trace must trend downward
        rng = np.random.default_rng(21)
        A = rng.standard_normal((25, 50)) + 1j * rng.standard_normal((25, 50))
        y = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        res = fista(MatrixOperator(A), y, FistaConfig(lam=0.5, max_iters=500, tol=1e-14))
        trace = np.array(res.objective_trace)
        assert trace[-1] < trace[0]
        assert np.min(trace) == pytest.approx(trace[-1], rel=1e-3)

    def test_noiseless_exact_support_recovery(self):
        rng = np.random.default_rng(22)
        design = small_design(seed=22, m_bs=8, t_prime=8)
        grid = AngleGrid(16, 8)
        op = StackedGridOperator(design, grid)
        x0 = np.zeros(grid.size, dtype=np.complex128)
        x0[[5, 40, 90]] = [1.0, -2.0j, 1.5]
        # path gains x0 on the physical atoms are x0 * atom_norms on the unit ones
        y = op.matvec(x0 * op.atom_norms())
        res = fista(op, y, FistaConfig(lam=1e-6 * np.linalg.norm(y),
                                       max_iters=8000, tol=1e-16))
        top = np.argsort(np.abs(res.x))[::-1][:3]
        assert set(top) == {5, 40, 90}

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            fista(MatrixOperator(np.eye(3)), np.zeros(4), FistaConfig(lam=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_y_raises(self, bad):
        y = np.ones(4, dtype=np.complex128)
        y[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fista(MatrixOperator(np.eye(4)), y, FistaConfig(lam=1.0))

    def test_zero_operator_returns_zero(self):
        res = fista(MatrixOperator(np.zeros((4, 6))), np.ones(4), FistaConfig(lam=1.0))
        np.testing.assert_array_equal(res.x, 0)
        # the objective at x = 0 is ||y||^2, as the loop's first entry records
        assert res.objective_trace == [4.0]

    def test_dense_matrix_is_not_an_operator(self):
        # an ndarray is not wrapped: fista takes the operator protocol only
        with pytest.raises(TypeError, match=r"fista needs an operator .*matvec.*got ndarray"):
            fista(np.eye(3), np.ones(3), FistaConfig(lam=1.0))

    def test_lambda_is_required(self):
        # the l1 weight scales with the data; no default fits every problem
        with pytest.raises(TypeError, match="lam"):
            FistaConfig()

    def test_invalid_lambda_raises(self):
        with pytest.raises(ValueError):
            FistaConfig(lam=0.0)

    @pytest.mark.parametrize("step", [-1.0, 0.0, np.nan, np.inf])
    def test_invalid_step_raises(self, step):
        with pytest.raises(ValueError, match="step"):
            FistaConfig(lam=1.0, step=step)

    @pytest.mark.parametrize("tol", [-1e-8, np.nan])
    def test_invalid_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol"):
            FistaConfig(lam=1.0, tol=tol)

    def test_zero_iteration_budget_raises(self):
        # a zero budget would return the all-zero start as the solution
        with pytest.raises(ValueError, match="max_iters"):
            FistaConfig(lam=1.0, max_iters=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_solution_satisfies_optimality_conditions(self, seed):
        # subgradient check: on the support |2 A^H r| ~ lam, off it <= lam
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((15, 30)) + 1j * rng.standard_normal((15, 30))
        y = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        lam = 1.0
        res = fista(MatrixOperator(A), y, FistaConfig(lam=lam, max_iters=20000, tol=1e-16))
        g = 2.0 * A.conj().T @ (A @ res.x - y)
        on = np.abs(res.x) > 1e-8
        assert np.all(np.abs(np.abs(g[on]) - lam) < 1e-3 * lam)
        assert np.all(np.abs(g[~on]) <= lam * (1 + 1e-3))


class TestUniversalLambda:
    def test_formula(self):
        assert universal_lambda(2.0, 100, c=3.0) == pytest.approx(
            6.0 * np.sqrt(2 * np.log(100)))

    def test_zero_noise_gives_zero(self):
        assert universal_lambda(0.0, 1000) == 0.0
