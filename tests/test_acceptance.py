"""End-to-end acceptance gate for the package.

Each test pins one externally meaningful guarantee: algebraic identities,
exact recovery in the identifiable noiseless regime, solver monotonicity,
rank estimation accuracy, benchmark-scale accuracy/runtime targets against
the compressed-sensing baseline, qualitative parameter trends, and bitwise
reproducibility of the benchmark CSV.

The benchmark-scale tests (the `table1_*` fixtures and the trend tests)
evaluate a fixed, well-separated channel/design realization with fresh noise
per trial; the realization-level averages are covered by the per-module
Monte-Carlo tests.
"""

import itertools
import time

import numpy as np
import pytest

from cpchan import bench, cp_als
from cpchan.channel_recovery import PipelineConfig, estimate_all
from cpchan.cp_als import als_known_rank, als_regularized
from cpchan.measurement import simulate
from cpchan.sparse_solver import AngleGrid, FistaConfig, _shrink, fista
from cpchan.tensor_core import (
    ComplexTensor3,
    FactorTriple,
    compose,
    frobenius_norm,
    khatri_rao,
    unfold,
)
from cpchan.training_design import KRANK_TOL, build_design, krank
from oracles import MatrixOperator, adjoint_mismatch, sample_channel_on_grid


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- criterion 1: tensor-algebra oracle suite -------------------------------

def test_tensor_algebra_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for dims in [(2, 3, 4), (3, 5, 2), (5, 4, 6), (8, 8, 8)]:
        F = FactorTriple(*(random_complex(rng, d, 3) for d in dims))
        Y = compose(F)
        pairs = {1: (F.A, (F.C, F.B)), 2: (F.B, (F.C, F.A)), 3: (F.C, (F.B, F.A))}
        for n, (lead, (left, right)) in pairs.items():
            rhs = lead @ khatri_rao(left, right).T
            assert np.linalg.norm(unfold(Y, n) - rhs) <= 1e-12 * np.linalg.norm(rhs)
        # columnwise mixed-product identity of the Khatri-Rao product
        KR = khatri_rao(F.C, F.B)
        for k in range(3):
            col = np.kron(F.C[:, k], F.B[:, k])
            assert np.linalg.norm(KR[:, k] - col) <= 1e-12 * np.linalg.norm(col)
    assert time.perf_counter() - start < 5.0


# -- criterion 2: noiseless exact recovery in the identifiable regime -------

def test_noiseless_exact_recovery_rate(monkeypatch):
    monkeypatch.setattr(cp_als, "TOL", 1e-10)
    start = time.perf_counter()
    # the paths lie on the grid that the 16x8 arrays refine on
    grid = AngleGrid(64, 32)
    pcfg = PipelineConfig(known_rank=4)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        channel = sample_channel_on_grid(
            rng, (1, 1, 1, 1), 16, 8, grid.sin_aoa, grid.sin_aod)
        design = build_design(rng, 16, 8, 8, 8, 2, (1, 1, 1, 1))
        meas = simulate(channel, design, None)
        res = estimate_all(meas, design, pcfg, channel)
        hits += int(res.nmse_total < 1e-6)
    assert hits >= 95, f"only {hits}/100 trials reached NMSE < 1e-6"
    assert time.perf_counter() - start < 120.0


# -- criterion 3: ALS objective monotonicity --------------------------------

def test_als_objective_traces_monotone(monkeypatch):
    monkeypatch.setattr(cp_als, "MAX_ITERS", 30)
    monkeypatch.setattr(cp_als, "K_UPPER", 6)
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(500):
        dims = tuple(rng.integers(3, 7, size=3))
        rank = int(rng.integers(1, 4))
        F = FactorTriple(*(random_complex(rng, d, rank) for d in dims))
        Y = compose(F)
        W = random_complex(rng, *dims)
        noisy = ComplexTensor3(
            Y.data + 0.05 * frobenius_norm(Y) / np.linalg.norm(W) * W)
        noisy = ComplexTensor3(noisy.data / frobenius_norm(noisy))
        for res in (als_known_rank(noisy, rank), als_regularized(noisy)):
            trace = np.array(res.objective_trace)
            violations += int(np.any(np.diff(trace) > 1e-10 * trace[0]))
    assert violations == 0


# -- criterion 4: rank estimation accuracy ----------------------------------

@pytest.mark.parametrize("true_rank", [2, 3, 4, 5, 6])
def test_rank_estimation_accuracy(monkeypatch, true_rank):
    monkeypatch.setattr(cp_als, "K_UPPER", 12)
    monkeypatch.setattr(cp_als, "MAX_ITERS", 500)
    dims, n_trials = (16, 16, 4), 10
    correct = 0
    for trial in range(n_trials):
        rng = np.random.default_rng(100 * true_rank + trial)
        F = FactorTriple(*(random_complex(rng, d, true_rank) for d in dims))
        Y = compose(F)
        W = random_complex(rng, *dims)
        W *= frobenius_norm(Y) / np.linalg.norm(W) / 10 ** (30 / 20)
        noisy = ComplexTensor3(Y.data + W)
        noisy = ComplexTensor3(noisy.data / frobenius_norm(noisy))
        res = als_regularized(noisy)
        correct += int(res.estimated_rank == true_rank)
    assert correct >= 0.9 * n_trials


# -- criteria 5 and 10: benchmark-scale accuracy, runtime, determinism ------

TABLE1_CONFIG = bench.ExperimentConfig(
    trials=20, seed=0, fixed_realization=True,
    methods=("cpf_regularized", "cs_grid1", "cs_grid2"))


@pytest.fixture(scope="module")
def table1_runs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("table1")
    p1, p2 = outdir / "run1.csv", outdir / "run2.csv"
    rows = bench.run_sweep(TABLE1_CONFIG, out_path=p1, deterministic=True)
    bench.run_sweep(TABLE1_CONFIG, out_path=p2, deterministic=True)
    return rows, p1, p2


def summary(rows, method):
    (row,) = [r for r in rows if r.method == f"summary:{method}"]
    return row


def test_benchmark_nmse_bands(table1_runs):
    rows, _, _ = table1_runs
    targets = {"cpf_regularized": 2.7e-3, "cs_grid1": 2.5e-1, "cs_grid2": 6.7e-3}
    for method, target in targets.items():
        mean = summary(rows, method).nmse
        assert target / 5 <= mean <= target * 5, (
            f"{method}: mean NMSE {mean:.3e} outside factor-5 band of {target:.1e}")


def test_benchmark_runtime_ordering(table1_runs):
    rows, _, _ = table1_runs
    t_cpf = summary(rows, "cpf_regularized").runtime_s
    t_cs2 = summary(rows, "cs_grid2").runtime_s
    assert t_cpf < t_cs2, f"CPF {t_cpf:.2f}s not faster than fine-grid CS {t_cs2:.2f}s"


def test_benchmark_csv_deterministic(table1_runs):
    _, p1, p2 = table1_runs
    assert p1.read_bytes() == p2.read_bytes()


# -- criterion 6: NMSE-versus-SNR trend and crossover ------------------------

def test_snr_trend_and_crossover():
    cfg = bench.ExperimentConfig(
        methods=("cpf_regularized", "cs_grid2"), trials=3, seed=0,
        fixed_realization=True,
        sweep_variable="snr_db", sweep_values=(0.0, 10.0, 20.0, 30.0))
    rows = bench.run_sweep(cfg)
    assert bench.monotone_trend_ok(rows, "cpf_regularized")
    cpf = bench.mean_nmse_by_point(rows, "cpf_regularized")
    cs2 = bench.mean_nmse_by_point(rows, "cs_grid2")
    for snr in (20.0, 30.0):
        assert cpf[snr] < cs2[snr], (
            f"at {snr} dB: CPF {cpf[snr]:.3e} not below fine-grid CS {cs2[snr]:.3e}")


# -- criterion 7: identifiability-threshold behavior -------------------------

def mean_nmse(cfg):
    rows = [r for t in range(cfg.trials) for r in bench.run_trial(cfg, 0, t)]
    assert all(r.status == "ok" for r in rows)
    return float(np.mean([r.nmse for r in rows]))


def test_identifiability_threshold_behavior():
    base = dict(methods=("cpf_regularized",), trials=2, seed=0,
                snr_db=30.0, fixed_realization=True)
    reference = mean_nmse(bench.ExperimentConfig(**base))              # T=4, M_BS=16
    short_pilot = mean_nmse(bench.ExperimentConfig(**base, t=2))
    few_beams = mean_nmse(bench.ExperimentConfig(**base, m_bs=8))
    assert short_pilot >= 10 * reference
    assert few_beams >= 10 * reference


# -- criterion 8: k-rank equals the exhaustive-subset oracle -----------------

def exhaustive_krank(M):
    n = M.shape[1]
    smax = np.linalg.svd(M, compute_uv=False)[0]
    if smax == 0:
        return 0
    k = 0
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            sub = M[:, list(cols)]
            s = np.linalg.svd(sub, compute_uv=False)
            if size > M.shape[0] or s[-1] <= KRANK_TOL * smax:
                return k
        k = size
    return k


def test_krank_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(1, 7))
        M = random_complex(rng, rows, cols)
        if rng.random() < 0.3 and cols >= 2:  # inject exact dependencies
            M[:, -1] = (1.7 - 0.3j) * M[:, 0]
        assert krank(M) == exhaustive_krank(M)


# -- criterion 9: sparse-solver guarantees -----------------------------------

def test_sparse_solver_guarantees():
    rng = np.random.default_rng(3)
    # adjoint consistency
    M = random_complex(rng, 24, 40)
    assert adjoint_mismatch(MatrixOperator(M), rng) < 1e-10
    # analytic prox
    v = random_complex(rng, 300)
    t = 0.35
    mag = np.abs(v)
    expect = np.where(mag > t, v * (mag - t) / mag, 0.0)
    assert np.linalg.norm(_shrink(v, mag.copy(), t) - expect) < 1e-10
    # long-run self-oracle objective gap
    A = random_complex(rng, 30, 60)
    x0 = np.zeros(60, dtype=np.complex128)
    x0[[4, 21, 50]] = [1.5, -1.0 + 0.5j, 2.0j]
    y = A @ x0 + 0.01 * random_complex(rng, 30)
    lam = 0.1

    def objective(x):
        return np.linalg.norm(y - A @ x) ** 2 + lam * np.sum(np.abs(x))

    op = MatrixOperator(A)
    ref = fista(op, y, FistaConfig(lam=lam, max_iters=30000, tol=1e-16))
    short = fista(op, y, FistaConfig(lam=lam, max_iters=3000, tol=1e-14))
    assert objective(short.x) - objective(ref.x) < 1e-6 * np.linalg.norm(y) ** 2
