"""Alternating least squares CP fitting: exact recovery, traces, rank estimation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan import bench, cp_als
from cpchan.cp_als import (
    MU,
    POLISH_ITERS,
    RIDGE_FLOOR,
    TOL,
    WARMUP_ITERS,
    _als_core,
    _gevd_init,
    _init_factors,
    _objective,
    als_known_rank,
    als_regularized,
    component_energies,
    prune_components,
)
from cpchan.measurement import simulate
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


def dense_gram_als(Y, init, mu, max_iters, tol):
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
    for it in range(1, max_iters + 1):
        prev = (A, B, C)
        A = update(Yts[0], khatri_rao(C, B))
        B = update(Yts[1], khatri_rao(C, A))
        C = update(Yts[2], khatri_rao(B, A))
        trace.append(objective(A, B, C))
        num = sum(np.linalg.norm(M - Mp) for M, Mp in zip((A, B, C), prev))
        den = sum(np.linalg.norm(M) for M in prev) + 1e-30
        if num / den < tol:
            break
    return FactorTriple(A, B, C), it, trace


class TestSweepMatchesDenseGramReference:
    @pytest.mark.parametrize("dims,rank,fit_rank", [((6, 5, 4), 2, 2), ((8, 7, 4), 3, 5),
                                                    ((10, 9, 3), 4, 4)])
    @pytest.mark.parametrize("mu", [MU, 0.0])
    def test_iterations_factors_and_trace(self, dims, rank, fit_rank, mu):
        Y = noisy_tensor(40 + rank, dims, rank)
        init = random_factors(np.random.default_rng(50 + fit_rank), dims, fit_rank)
        max_iters = 600   # long enough for most cases to converge
        res = _als_core(Y, fit_rank, max_iters, 0, mu=mu, init=init)
        F, iterations, trace = dense_gram_als(Y, init, mu, max_iters, TOL)
        assert res.iterations == iterations
        for got, want in zip((res.factors.A, res.factors.B, res.factors.C), (F.A, F.B, F.C)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-10)

    def test_known_rank_final_objective_is_the_dense_objective(self, monkeypatch):
        monkeypatch.setattr(cp_als, "MAX_ITERS", 200)
        Y = noisy_tensor(60, (8, 7, 5), 3)
        res = als_known_rank(Y, 3)
        F = res.factors
        assert res.objective_trace[-1] == pytest.approx(_objective(Y, F.A, F.B, F.C, 0.0), rel=1e-10)

    def test_sweeps_do_not_compose_the_dense_tensor(self, monkeypatch):
        # one composed objective per run: the ridge start + the polish
        calls = []

        def counting_compose(F):
            calls.append(F.rank)
            return compose(F)

        monkeypatch.setattr(cp_als, "compose", counting_compose)
        monkeypatch.setattr(cp_als, "K_UPPER", 4)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 50)
        als_regularized(noisy_tensor(61, (6, 5, 4), 2))
        assert len(calls) == 2


class TestOneStart:
    def test_no_init_is_the_seeded_random_start(self):
        # on this input a best-of-several-starts rule would keep another start
        Y = noisy_tensor(61, (6, 5, 4), 2)
        seed = 0
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        init = FactorTriple(*_init_factors(rng, Y.dims, 4))
        got = _als_core(Y, 4, 100, seed, MU)
        want = _als_core(Y, 4, 100, seed, MU, init=init)
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
    def test_noiseless_exact_recovery(self, monkeypatch, dims, rank):
        monkeypatch.setattr(cp_als, "MAX_ITERS", 500)
        monkeypatch.setattr(cp_als, "TOL", 1e-10)
        rng = np.random.default_rng(100 + rank)
        F = random_factors(rng, dims, rank)
        Y = compose(F)
        res = als_known_rank(Y, rank)
        assert rel_fit(Y, res.factors) < 1e-7

    def test_recovers_scaled_tensor(self, monkeypatch):
        # the solver normalizes internally; recovery must be scale invariant
        monkeypatch.setattr(cp_als, "MAX_ITERS", 500)
        monkeypatch.setattr(cp_als, "TOL", 1e-10)
        rng = np.random.default_rng(11)
        F = random_factors(rng, (6, 5, 4), 3)
        Y = ComplexTensor3(compose(F).data * 1e-7)
        res = als_known_rank(Y, 3)
        assert rel_fit(Y, res.factors) < 1e-7
        # a noisy tensor is fitted as well at any scale as at unit norm
        noisy = noisy_tensor(11, (6, 5, 4), 3)
        fit = rel_fit(noisy, als_known_rank(noisy, 3).factors)
        for c in (1e-7, 1e5):
            Ys = ComplexTensor3(noisy.data * c)
            assert rel_fit(Ys, als_known_rank(Ys, 3).factors) == pytest.approx(
                fit, rel=1e-9)

    def test_trace_monotone_nonincreasing(self, monkeypatch):
        monkeypatch.setattr(cp_als, "MAX_ITERS", 100)
        rng = np.random.default_rng(12)
        Y = compose(random_factors(rng, (7, 6, 5), 3))
        noisy = ComplexTensor3(
            Y.data + 0.05 * (rng.standard_normal(Y.dims)
                             + 1j * rng.standard_normal(Y.dims)))
        res = als_known_rank(noisy, 3)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * trace[0])

    def test_rank1_noisy_fit_bounded_by_noise(self, monkeypatch):
        monkeypatch.setattr(cp_als, "MAX_ITERS", 300)
        rng = np.random.default_rng(13)
        Y = compose(random_factors(rng, (8, 6, 4), 1))
        W = 0.01 * (rng.standard_normal(Y.dims) + 1j * rng.standard_normal(Y.dims))
        noisy = ComplexTensor3(Y.data + W)
        res = als_known_rank(noisy, 1)
        # the best rank-1 fit can be no worse than the noise it must absorb
        assert rel_fit(noisy, res.factors) <= 1.01 * np.linalg.norm(W) / frobenius_norm(noisy)

    def test_invalid_inputs_raise(self):
        rng = np.random.default_rng(14)
        Y = compose(random_factors(rng, (4, 4, 4), 2))
        with pytest.raises(ValueError):
            als_known_rank(Y, 0)
        with pytest.raises(cp_als.DegenerateDataError, match="tensor is zero"):
            als_known_rank(ComplexTensor3(np.zeros((3, 3, 3), complex)), 1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_rank1_exact_for_any_draw(self, seed):
        rng = np.random.default_rng(seed)
        Y = compose(random_factors(rng, (5, 4, 3), 1))
        # hypothesis runs every draw in one call of the test, so the patch
        # cannot come from the function-scoped fixture
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cp_als, "MAX_ITERS", 300)
            mp.setattr(cp_als, "TOL", 1e-12)
            res = als_known_rank(Y, 1)
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
        with pytest.raises(cp_als.DegenerateDataError):
            prune_components(FactorTriple(Z, Z[:3], Z[:2]), 1e-2)


class TestRegularized:
    @pytest.mark.parametrize("true_rank", [1, 2, 4])
    def test_estimates_rank_noiseless(self, monkeypatch, true_rank):
        monkeypatch.setattr(cp_als, "K_UPPER", 8)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 400)
        rng = np.random.default_rng(30 + true_rank)
        F = random_factors(rng, (10, 8, 6), true_rank, unit_norm=True)
        Y = ComplexTensor3(compose(F).data / frobenius_norm(compose(F)))
        res = als_regularized(Y)
        assert res.estimated_rank == true_rank
        assert rel_fit(Y, res.factors) < 1e-4

    def test_estimates_rank_under_mild_noise(self, monkeypatch):
        monkeypatch.setattr(cp_als, "K_UPPER", 8)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 400)
        rng = np.random.default_rng(35)
        F = random_factors(rng, (12, 10, 6), 3, unit_norm=True)
        Y = compose(F)
        W = rng.standard_normal(Y.dims) + 1j * rng.standard_normal(Y.dims)
        W *= 0.01 * frobenius_norm(Y) / np.linalg.norm(W)
        noisy = ComplexTensor3((Y.data + W) / frobenius_norm(ComplexTensor3(Y.data + W)))
        res = als_regularized(noisy)
        assert res.estimated_rank == 3

    def test_rank_and_fit_do_not_depend_on_scale(self, monkeypatch):
        # the ridge weight is calibrated to unit energy; the solver, not its
        # caller, normalizes, so any scale gives the unit-norm result
        monkeypatch.setattr(cp_als, "K_UPPER", 8)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 400)
        noisy = noisy_tensor(35, (12, 10, 6), 3, noise=0.01)
        ranks, fits = [], []
        for c in (1e-3, 0.1, 1.0, 10.0, 1e3):
            Ys = ComplexTensor3(c * noisy.data)
            res = als_regularized(Ys)
            ranks.append(res.estimated_rank)
            fits.append(rel_fit(Ys, res.factors))
        assert ranks == [3] * 5
        np.testing.assert_allclose(fits, fits[2], rtol=1e-9)

    def test_ridge_trace_monotone(self, monkeypatch):
        monkeypatch.setattr(cp_als, "K_UPPER", 6)
        monkeypatch.setattr(cp_als, "MAX_ITERS", 200)
        rng = np.random.default_rng(36)
        Y = compose(random_factors(rng, (8, 7, 5), 3, unit_norm=True))
        Yn = ComplexTensor3(Y.data / frobenius_norm(Y))
        res = als_regularized(Yn)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10 * trace[0])

    def test_zero_tensor_raises(self):
        with pytest.raises(cp_als.DegenerateDataError, match="tensor is zero"):
            als_regularized(ComplexTensor3(np.zeros((3, 3, 3), complex)))


class TestConvergedFlag:
    @pytest.mark.parametrize("max_iters", [2, 1000])
    def test_is_a_python_bool(self, monkeypatch, max_iters):
        # estimate_all's diagnostics carry it into JSON, which rejects a
        # numpy.bool; a 2-sweep budget stops unconverged, 1000 converges
        monkeypatch.setattr(cp_als, "MAX_ITERS", max_iters)
        Y = noisy_tensor(3, (6, 5, 4), 2)
        results = (als_known_rank(Y, 2), als_regularized(Y))
        for res in results:
            assert type(res.converged) is bool
        assert [res.converged for res in results] == [max_iters == 1000] * 2


def table1_tensor(snr_db, trial):
    """The pinned table1 measurement tensor (16x16x4, 13 paths) of one trial,
    and its ALS seed, as bench.run_trial draws them."""
    cfg = replace(bench.ExperimentConfig(seed=0, fixed_realization=True), snr_db=snr_db)
    pcfg, channel, design, rng_noise, rng_als = bench.draw_scene(cfg, 0, trial)
    als_seed = int(rng_als.integers(2**31))
    return simulate(channel, design, pcfg.snr_db, rng_noise).y, als_seed


@pytest.fixture
def doubled_steps(monkeypatch):
    """Spy: per _als_core call (a stage), its mu, whether it was given a
    start, its sweep budget, the doubled steps it tried, the sweeps it ran
    and the zero C columns of its returned factors."""
    stages = []
    core, step = cp_als._als_core, cp_als._doubled_step

    def spy_core(Y, rank, max_iters, seed, mu, init=None, **kwargs):
        stage = {"mu": mu, "init": init is not None, "max_iters": max_iters, "tried": 0}
        stages.append(stage)
        res = core(Y, rank, max_iters, seed, mu, init, **kwargs)
        stage["iterations"] = res.iterations
        stage["zero_columns"] = int(np.sum(~np.any(res.factors.C, axis=0)))
        return res

    def spy_step(*args):
        stages[-1]["tried"] += 1
        return step(*args)

    monkeypatch.setattr(cp_als, "_als_core", spy_core)
    monkeypatch.setattr(cp_als, "_doubled_step", spy_step)
    return stages


class TestDroppedComponents:
    """A component whose C column is zero is dropped from the sweeps."""

    DIMS, RANK, DEAD = (8, 7, 4), 4, 2

    def start(self):
        Y = noisy_tensor(70, self.DIMS, 3)
        F = random_factors(np.random.default_rng(71), self.DIMS, self.RANK)
        C = F.C.copy()
        C[:, self.DEAD] = 0.0
        live = [k for k in range(self.RANK) if k != self.DEAD]
        without = FactorTriple(F.A[:, live], F.B[:, live], F.C[:, live])
        return Y, FactorTriple(F.A, F.B, C), without, live

    @pytest.mark.parametrize("mu", [MU, 0.0])
    def test_live_components_match_a_sweep_without_it(self, monkeypatch, mu):
        # the floor's scale counts the stage's components, so only without the
        # floor is a rank-3 sweep the same arithmetic problem
        monkeypatch.setattr(cp_als, "RIDGE_FLOOR", 0.0)
        monkeypatch.setattr(cp_als, "TOL", 1e-300)
        Y, zeroed, without, live = self.start()
        got = _als_core(Y, self.RANK, 20, 0, mu, init=zeroed)
        want = _als_core(Y, self.RANK - 1, 20, 0, mu, init=without)
        assert got.iterations == want.iterations == 20
        for g, w in zip((got.factors.A, got.factors.B, got.factors.C),
                        (want.factors.A, want.factors.B, want.factors.C)):
            assert g.shape == (w.shape[0], self.RANK)
            assert not np.any(g[:, self.DEAD])
            np.testing.assert_allclose(g[:, live], w, rtol=0, atol=1e-13 * np.abs(w).max())
        np.testing.assert_allclose(got.objective_trace[1:], want.objective_trace[1:],
                                   rtol=1e-13)

    @pytest.mark.parametrize("mu", [MU, 0.0])
    def test_matches_the_reference_sweeping_it(self, monkeypatch, mu):
        # with the floor, the dense reference that keeps sweeping the zero
        # component is the plain arithmetic
        monkeypatch.setattr(cp_als, "TOL", 1e-300)
        Y, zeroed, _, live = self.start()
        got = _als_core(Y, self.RANK, 20, 0, mu, init=zeroed)
        F, _, trace = dense_gram_als(Y, zeroed, mu, 20, 1e-300)
        for g, w in zip((got.factors.A, got.factors.B, got.factors.C), (F.A, F.B, F.C)):
            assert not np.any(w[:, self.DEAD]) and not np.any(g[:, self.DEAD])
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * np.abs(w).max())
        np.testing.assert_allclose(got.objective_trace, trace, rtol=1e-13)

    def test_all_components_zero_converges_at_once(self):
        Y = noisy_tensor(72, self.DIMS, 2)
        Z = FactorTriple(*(np.zeros((d, 3), complex) for d in self.DIMS))
        res = _als_core(Y, 3, 50, 0, MU, init=Z)
        assert (res.iterations, res.converged) == (1, True)
        assert res.factors.rank == 3 and not np.any(res.factors.C)
        assert res.objective_trace == [pytest.approx(frobenius_norm(Y) ** 2, rel=1e-12)] * 2


class TestDoubledRidgeSteps:
    """The ridge stage of als_regularized takes doubled steps X + (X - X_prev)
    once a component is dropped; no other stage does."""

    @pytest.mark.parametrize("snr_db,trial", [(30.0, 0), (25.0, 1)])
    def test_ridge_trace_never_rises(self, doubled_steps, snr_db, trial):
        Y, seed = table1_tensor(snr_db, trial)
        res = als_regularized(Y, seed)
        ridge = doubled_steps[0]
        assert ridge["mu"] == MU and ridge["tried"] > 0
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_only_the_ridge_stage_tries_them(self, doubled_steps):
        Y, seed = table1_tensor(30.0, 0)
        als_known_rank(Y, 13, seed)
        warmup, exact = doubled_steps
        # the warm-up zeroed components, so it would extrapolate if allowed
        assert warmup["mu"] == MU and warmup["zero_columns"] > 0
        assert exact["mu"] == 0.0 and exact["zero_columns"] > 0
        als_regularized(Y, seed)
        ridge, polish = doubled_steps[2:]
        assert [s["tried"] for s in doubled_steps] == [0, 0, ridge["tried"], 0]
        assert ridge["mu"] == MU and ridge["tried"] > 0 and polish["mu"] == 0.0

    @pytest.mark.parametrize("snr_db", [25.0, 30.0])
    def test_rank_matches_the_plain_ridge_stage(self, doubled_steps, snr_db):
        # doubled steps from the first dropped component on changed the rank
        # of trial 1 at 30 dB: their start waits for EXTRAPOLATE_BELOW
        for trial in range(4):
            Y, seed = table1_tensor(snr_db, trial)
            res = als_regularized(Y, seed)
            assert doubled_steps[-2]["tried"] > 0
            Yn = ComplexTensor3(Y.data / frobenius_norm(Y))
            plain = cp_als._als_core(Yn, cp_als.K_UPPER, cp_als.MAX_ITERS, seed, mu=MU)
            assert doubled_steps[-1]["tried"] == 0
            _, keep = prune_components(plain.factors, cp_als.PRUNE_THRESHOLD)
            assert res.estimated_rank == int(np.sum(keep))
            # the same rank in fewer sweeps
            assert res.iterations < plain.iterations


class TestPolishBudget:
    """als_regularized's exact-LS polish runs at most POLISH_ITERS sweeps;
    every other stage keeps its budget."""

    @pytest.mark.parametrize("max_iters", [1000, 30])
    def test_polish_is_capped(self, monkeypatch, doubled_steps, max_iters):
        monkeypatch.setattr(cp_als, "MAX_ITERS", max_iters)
        Y, seed = table1_tensor(30.0, 0)
        res = als_regularized(Y, seed)
        ridge, polish = doubled_steps
        assert ridge["mu"] == MU and not ridge["init"]
        assert ridge["max_iters"] == max_iters
        assert polish["mu"] == 0.0 and polish["init"]
        assert polish["max_iters"] == min(max_iters, POLISH_ITERS)
        # the polish does not converge on table1: it runs its whole budget
        assert res.polish_sweeps == polish["iterations"] == min(max_iters, POLISH_ITERS)
        # iterations stay the ridge stage's count
        assert res.iterations == ridge["iterations"]

    def test_known_rank_budgets_unchanged(self, doubled_steps):
        Y, seed = table1_tensor(30.0, 0)
        res = als_known_rank(Y, 13, seed)
        warmup, exact = doubled_steps
        assert (warmup["mu"], warmup["init"], warmup["max_iters"]) == (MU, False, WARMUP_ITERS)
        assert (exact["mu"], exact["init"], exact["max_iters"]) == (0.0, True, cp_als.MAX_ITERS)
        assert res.polish_sweeps == 0
