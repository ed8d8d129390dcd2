"""Alternating least squares CP fitting: exact recovery, traces, rank estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan import cp_als
from cpchan.cp_als import (
    MU,
    RIDGE_FLOOR,
    AlsConfig,
    _als_core,
    _gevd_init,
    _init_factors,
    _objective,
    als_known_rank,
    als_regularized,
    component_energies,
    prune_components,
)
from cpchan.tensor_core import (
    ComplexTensor3,
    FactorTriple,
    compose,
    frobenius_norm,
    khatri_rao,
    unfold,
)


def random_factors(rng, dims, rank, unit_norm=False):
    mats = []
    for d in dims:
        M = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        if unit_norm:
            M /= np.linalg.norm(M, axis=0)
        mats.append(M)
    return FactorTriple(*mats)


def rel_fit(Y, F):
    return frobenius_norm(ComplexTensor3(Y.data - compose(F).data)) / frobenius_norm(Y)


def noisy_tensor(seed, dims, rank, noise=0.05):
    rng = np.random.default_rng(seed)
    Y = compose(random_factors(rng, dims, rank, unit_norm=True)).data
    W = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    Y = Y + noise * np.linalg.norm(Y) * W / np.linalg.norm(W)
    return ComplexTensor3(Y / np.linalg.norm(Y))


def dense_gram_als(Y, init, mu, cfg):
    """Reference sweep: normal equations on the dense V^H V of each
    Khatri-Rao product, objective from the composed tensor."""
    Yts = [unfold(Y, n).T for n in (1, 2, 3)]
    A, B, C = init.A.copy(), init.B.copy(), init.C.copy()

    def update(Yn_T, V):
        G = V.conj().T @ V
        scale = max(np.trace(G).real / G.shape[0], 1e-300)
        Greg = G + (mu + RIDGE_FLOOR * scale) * np.eye(G.shape[0])
        return np.linalg.solve(Greg, V.conj().T @ Yn_T).T

    def objective(A, B, C):
        fit = np.linalg.norm(Y.data - compose(FactorTriple(A, B, C)).data) ** 2
        return fit + mu * sum(np.linalg.norm(M) ** 2 for M in (A, B, C))

    trace = [objective(A, B, C)]
    it = 0
    for it in range(1, cfg.max_iters + 1):
        prev = (A, B, C)
        A = update(Yts[0], khatri_rao(C, B))
        B = update(Yts[1], khatri_rao(C, A))
        C = update(Yts[2], khatri_rao(B, A))
        trace.append(objective(A, B, C))
        num = sum(np.linalg.norm(M - Mp) for M, Mp in zip((A, B, C), prev))
        den = sum(np.linalg.norm(M) for M in prev) + 1e-30
        if num / den < cfg.tol:
            break
    return FactorTriple(A, B, C), it, trace


class TestSweepMatchesDenseGramReference:
    @pytest.mark.parametrize("dims,rank,fit_rank", [((6, 5, 4), 2, 2), ((8, 7, 4), 3, 5),
                                                    ((10, 9, 3), 4, 4)])
    @pytest.mark.parametrize("mu", [MU, 0.0])
    def test_iterations_factors_and_trace(self, dims, rank, fit_rank, mu):
        Y = noisy_tensor(40 + rank, dims, rank)
        init = random_factors(np.random.default_rng(50 + fit_rank), dims, fit_rank)
        cfg = AlsConfig(max_iters=600)   # long enough for most cases to converge
        res = _als_core(Y, fit_rank, cfg, mu=mu, init=init)
        F, iterations, trace = dense_gram_als(Y, init, mu, cfg)
        assert res.iterations == iterations
        for got, want in zip((res.factors.A, res.factors.B, res.factors.C), (F.A, F.B, F.C)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-10)

    def test_known_rank_final_objective_is_the_dense_objective(self):
        Y = noisy_tensor(60, (8, 7, 5), 3)
        res = als_known_rank(Y, 3, AlsConfig(max_iters=200))
        F = res.factors
        assert res.objective_trace[-1] == pytest.approx(_objective(Y, F.A, F.B, F.C, 0.0), rel=1e-10)

    def test_sweeps_do_not_compose_the_dense_tensor(self, monkeypatch):
        # one composed objective per run: the ridge start + the polish
        calls = []

        def counting_compose(F):
            calls.append(F.rank)
            return compose(F)

        monkeypatch.setattr(cp_als, "compose", counting_compose)
        als_regularized(noisy_tensor(61, (6, 5, 4), 2), AlsConfig(k_upper=4, max_iters=50))
        assert len(calls) == 2


class TestOneStart:
    def test_no_init_is_the_seeded_random_start(self):
        # on this input a best-of-several-starts rule would keep another start
        Y = noisy_tensor(61, (6, 5, 4), 2)
        cfg = AlsConfig(max_iters=100)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        init = FactorTriple(*_init_factors(rng, Y.dims, 4))
        got = _als_core(Y, 4, cfg, MU)
        want = _als_core(Y, 4, cfg, MU, init=init)
        assert got.iterations == want.iterations
        for g, w in zip((got.factors.A, got.factors.B, got.factors.C),
                        (want.factors.A, want.factors.B, want.factors.C)):
            np.testing.assert_array_equal(g, w)
        assert got.objective_trace == want.objective_trace


class TestPencilInit:
    @pytest.mark.parametrize("dims,rank", [((6, 5, 2), 3), ((8, 7, 4), 4),
                                           ((10, 9, 6), 5)])
    def test_exact_on_noiseless_tensor(self, dims, rank):
        rng = np.random.default_rng(rank)
        F = random_factors(rng, dims, rank)
        Y = compose(F)
        init = _gevd_init(Y, rank)
        assert init is not None
        assert rel_fit(Y, init) < 1e-9

    def test_returns_none_when_rank_exceeds_dims(self):
        rng = np.random.default_rng(0)
        Y = compose(random_factors(rng, (3, 3, 5), 3))
        assert _gevd_init(Y, 4) is None

    def test_returns_none_on_two_deep_third_mode_missing(self):
        rng = np.random.default_rng(1)
        Y = compose(random_factors(rng, (5, 4, 1), 2))
        assert _gevd_init(Y, 2) is None

    def test_returns_none_on_rank_deficient_slice(self):
        # all components share one mode-1 vector -> first slice has rank 1
        rng = np.random.default_rng(2)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        F = random_factors(rng, (6, 5, 3), 3)
        A = np.stack([a, a, a], axis=1)
        Y = compose(FactorTriple(A, F.B, F.C))
        assert _gevd_init(Y, 3) is None


class TestKnownRank:
    @pytest.mark.parametrize("dims,rank", [((6, 5, 4), 2), ((8, 7, 4), 4),
                                           ((12, 10, 4), 6)])
    def test_noiseless_exact_recovery(self, dims, rank):
        rng = np.random.default_rng(100 + rank)
        F = random_factors(rng, dims, rank)
        Y = compose(F)
        res = als_known_rank(Y, rank, AlsConfig(max_iters=500, tol=1e-10))
        assert rel_fit(Y, res.factors) < 1e-7

    def test_recovers_scaled_tensor(self):
        # the solver normalizes internally; recovery must be scale invariant
        rng = np.random.default_rng(11)
        F = random_factors(rng, (6, 5, 4), 3)
        cfg = AlsConfig(max_iters=500, tol=1e-10)
        Y = ComplexTensor3(compose(F).data * 1e-7)
        res = als_known_rank(Y, 3, cfg)
        assert rel_fit(Y, res.factors) < 1e-7
        # a noisy tensor is fitted as well at any scale as at unit norm
        noisy = noisy_tensor(11, (6, 5, 4), 3)
        fit = rel_fit(noisy, als_known_rank(noisy, 3, cfg).factors)
        for c in (1e-7, 1e5):
            Ys = ComplexTensor3(noisy.data * c)
            assert rel_fit(Ys, als_known_rank(Ys, 3, cfg).factors) == pytest.approx(
                fit, rel=1e-9)

    def test_trace_monotone_nonincreasing(self):
        rng = np.random.default_rng(12)
        Y = compose(random_factors(rng, (7, 6, 5), 3))
        noisy = ComplexTensor3(
            Y.data + 0.05 * (rng.standard_normal(Y.dims)
                             + 1j * rng.standard_normal(Y.dims)))
        res = als_known_rank(noisy, 3, AlsConfig(max_iters=100))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * trace[0])

    def test_rank1_noisy_fit_bounded_by_noise(self):
        rng = np.random.default_rng(13)
        Y = compose(random_factors(rng, (8, 6, 4), 1))
        W = 0.01 * (rng.standard_normal(Y.dims) + 1j * rng.standard_normal(Y.dims))
        noisy = ComplexTensor3(Y.data + W)
        res = als_known_rank(noisy, 1, AlsConfig(max_iters=300))
        # the best rank-1 fit can be no worse than the noise it must absorb
        assert rel_fit(noisy, res.factors) <= 1.01 * np.linalg.norm(W) / frobenius_norm(noisy)

    def test_invalid_inputs_raise(self):
        rng = np.random.default_rng(14)
        Y = compose(random_factors(rng, (4, 4, 4), 2))
        with pytest.raises(ValueError):
            als_known_rank(Y, 0)
        with pytest.raises(ValueError):
            als_known_rank(ComplexTensor3(np.zeros((3, 3, 3), complex)), 1)

    def test_zero_iteration_budget_raises(self):
        # a zero budget would return the random start as the decomposition
        with pytest.raises(ValueError, match="max_iters"):
            AlsConfig(max_iters=0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_rank1_exact_for_any_draw(self, seed):
        rng = np.random.default_rng(seed)
        Y = compose(random_factors(rng, (5, 4, 3), 1))
        res = als_known_rank(Y, 1, AlsConfig(max_iters=300, tol=1e-12))
        assert rel_fit(Y, res.factors) < 1e-8


class TestComponentUtilities:
    def test_energies_match_composed_norm_per_component(self):
        rng = np.random.default_rng(20)
        F = random_factors(rng, (5, 4, 3), 4)
        z = component_energies(F)
        for k in range(4):
            one = FactorTriple(F.A[:, k:k + 1], F.B[:, k:k + 1], F.C[:, k:k + 1])
            assert z[k] == pytest.approx(frobenius_norm(compose(one)), rel=1e-12)

    def test_prune_drops_negligible_components(self):
        rng = np.random.default_rng(22)
        F = random_factors(rng, (5, 4, 3), 3, unit_norm=True)
        A = F.A * np.array([1.0, 1e-6, 0.5])[None, :]
        pruned, keep = prune_components(FactorTriple(A, F.B, F.C), 1e-2)
        np.testing.assert_array_equal(keep, [True, False, True])
        assert pruned.A.shape[1] == 2

    def test_prune_all_zero_raises(self):
        Z = np.zeros((4, 2), complex)
        with pytest.raises(ValueError):
            prune_components(FactorTriple(Z, Z[:3], Z[:2]), 1e-2)


class TestRegularized:
    @pytest.mark.parametrize("true_rank", [1, 2, 4])
    def test_estimates_rank_noiseless(self, true_rank):
        rng = np.random.default_rng(30 + true_rank)
        F = random_factors(rng, (10, 8, 6), true_rank, unit_norm=True)
        Y = ComplexTensor3(compose(F).data / frobenius_norm(compose(F)))
        res = als_regularized(Y, AlsConfig(k_upper=8, max_iters=400))
        assert res.estimated_rank == true_rank
        assert rel_fit(Y, res.factors) < 1e-4

    def test_estimates_rank_under_mild_noise(self):
        rng = np.random.default_rng(35)
        F = random_factors(rng, (12, 10, 6), 3, unit_norm=True)
        Y = compose(F)
        W = rng.standard_normal(Y.dims) + 1j * rng.standard_normal(Y.dims)
        W *= 0.01 * frobenius_norm(Y) / np.linalg.norm(W)
        noisy = ComplexTensor3((Y.data + W) / frobenius_norm(ComplexTensor3(Y.data + W)))
        res = als_regularized(noisy, AlsConfig(k_upper=8, max_iters=400))
        assert res.estimated_rank == 3

    def test_rank_and_fit_do_not_depend_on_scale(self):
        # the ridge weight is calibrated to unit energy; the solver, not its
        # caller, normalizes, so any scale gives the unit-norm result
        noisy = noisy_tensor(35, (12, 10, 6), 3, noise=0.01)
        cfg = AlsConfig(k_upper=8, max_iters=400)
        ranks, fits = [], []
        for c in (1e-3, 0.1, 1.0, 10.0, 1e3):
            Ys = ComplexTensor3(c * noisy.data)
            res = als_regularized(Ys, cfg)
            ranks.append(res.estimated_rank)
            fits.append(rel_fit(Ys, res.factors))
        assert ranks == [3] * 5
        np.testing.assert_allclose(fits, fits[2], rtol=1e-9)

    def test_ridge_trace_monotone(self):
        rng = np.random.default_rng(36)
        Y = compose(random_factors(rng, (8, 7, 5), 3, unit_norm=True))
        Yn = ComplexTensor3(Y.data / frobenius_norm(Y))
        res = als_regularized(Yn, AlsConfig(k_upper=6, max_iters=200))
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * trace[0])

    def test_zero_tensor_raises(self):
        with pytest.raises(ValueError):
            als_regularized(ComplexTensor3(np.zeros((3, 3, 3), complex)))
