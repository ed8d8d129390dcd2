"""From CP factors to per-user channel estimates.

Pipeline stages:

1.  Decompose the measurement tensor (regularized ALS, or fixed-rank ALS when
    the total path count is known).
2.  Resolve the CP permutation ambiguity by correlating each column of the
    estimated pilot-mode factor against the known pilot matrix; the
    best-matching user gets the component, and re-fitting the spatial
    factors with those pilots held fixed settles the scaling ambiguity.
3.  Per user, rebuild the compressed channel  A_Q_u * A_P_u^T
    (= Q^T H_u P in the exact case), vectorize it and recover its support on
    an AoA/AoD grid.  With noise that is a small l1 problem followed by a
    least-squares refit on the recovered support, which removes the shrinkage
    bias; a noiseless image goes straight to orthogonal matching pursuit.  The
    channel is then reassembled from grid steering vectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cp_als
from .channel_sim import GeometricChannel, assemble_all, steering_from_sin
from .measurement import MeasurementTensor, noise_std_per_entry
from .sparse_solver import (
    AngleGrid,
    FistaConfig,
    StackedGridOperator,
    fista,
    top_singular_value,
    universal_lambda,
)
from .tensor_core import ComplexTensor3, khatri_rao, unfold
from .training_design import TrainingDesign, krank

SUPPORT_THRESHOLD = 0.05  # keep grid coefficients above 5% of the peak magnitude
REFIT_RCOND = 1e-2        # truncated-SVD cutoff for the debias refit (see below)
# a hard threshold (large c) suits the per-user refinement, which debiases on
# the recovered support
LAMBDA_SCALE = 4.0        # multiplier c on the universal threshold
FISTA_MAX_ITERS = 150     # iteration budget of the per-user l1 solve
FISTA_TOL = 1e-7
SNAP_SWEEPS = 3           # pilot-constrained polish sweeps after assignment


@dataclass(frozen=True)
class AmbiguityResolution:
    assignment: np.ndarray        # component -> user index
    paths_per_user: np.ndarray    # histogram of the assignment
    match_scores: np.ndarray      # normalized correlation magnitudes in [0, 1]
    empty_users: tuple[int, ...] = ()  # users that received no component


@dataclass(frozen=True)
class EstimationResult:
    channels: list[np.ndarray]
    resolution: AmbiguityResolution
    estimated_rank: int
    nmse_total: float | None = None
    nmse_per_user: list[float] | None = None
    als_iterations: int = 0
    runtime_s: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def resolve_ambiguity(S_hat: np.ndarray, S: np.ndarray) -> AmbiguityResolution:
    """Assign each estimated pilot column to its best-correlated user."""
    S_hat = np.asarray(S_hat, dtype=np.complex128)
    S = np.asarray(S, dtype=np.complex128)
    if S_hat.ndim != 2 or S_hat.shape[1] < 1:
        raise ValueError("need at least one estimated component")
    if S_hat.shape[0] != S.shape[0]:
        raise ValueError("pilot length mismatch")
    u_count = S.shape[1]
    s_norms = np.linalg.norm(S, axis=0)
    # corr[u, l] = |<s_hat_l, s_u>| / (||s_hat_l|| ||s_u||)
    inner = S.conj().T @ S_hat
    hat_norms = np.maximum(np.linalg.norm(S_hat, axis=0), 1e-300)
    corr = np.abs(inner) / (s_norms[:, None] * hat_norms[None, :])
    assignment = np.argmax(corr, axis=0)  # argmax breaks ties by lower index
    scores = corr[assignment, np.arange(S_hat.shape[1])]
    hist = np.bincount(assignment, minlength=u_count)
    empty = tuple(int(u) for u in np.flatnonzero(hist == 0))
    return AmbiguityResolution(assignment, hist, scores, empty)


def pilot_constrained_polish(
    Y: ComplexTensor3,
    C: np.ndarray,
    B: np.ndarray,
    sweeps: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-fit the spatial factors with the pilot-mode factor held fixed.

    Once each component is assigned to a user, its pilot-mode column is known
    exactly (the user's transmitted pilots); the only remaining unknowns are
    the spatial factors.  A few alternating least-squares sweeps against the
    fixed pilot columns strip the estimation noise that the unconstrained
    decomposition left in the pilot mode, which otherwise leaks into every
    per-user channel.  Each sweep solves for A first, so only B needs a start.
    """
    Y1t = unfold(Y, 1).T
    Y2t = unfold(Y, 2).T
    for _ in range(sweeps):
        A = np.linalg.lstsq(khatri_rao(C, B), Y1t, rcond=None)[0].T
        B = np.linalg.lstsq(khatri_rao(C, A), Y2t, rcond=None)[0].T
    return A, B


def _support_from_magnitudes(mag: np.ndarray, n_measurements: int) -> np.ndarray:
    """Indices above the relative threshold, capped at a quarter of the
    measurement count (largest magnitudes win) so the debias refit stays
    well-posed even when the sparse solution is still diffuse."""
    peak = mag.max()
    if peak == 0.0:
        return np.array([], dtype=int)
    support = np.flatnonzero(mag > SUPPORT_THRESHOLD * peak)
    cap = max(1, n_measurements // 4)
    if support.size > cap:
        support = support[np.argsort(mag[support])[::-1][:cap]]
        support.sort()
    return support


def _support_and_refit(op: StackedGridOperator, z: np.ndarray, x: np.ndarray):
    """Threshold the grid solution and debias on the recovered support.

    ``op`` is one unit-column block and ``x`` the l1 solution on it; the
    threshold reads, and the refit returns, physical gains (x / atom_norms).

    The l1 solution under the universal threshold is already concentrated, so
    a joint least-squares refit over the thresholded atoms removes the
    shrinkage bias directly.  The refit truncates singular values below
    REFIT_RCOND of the largest: thresholded supports on an oversampled grid
    contain near-collinear atom clusters whose unstable directions would
    otherwise amplify into enormous spurious gains.  That cutoff is set on
    the physical atoms, so the unit columns are rescaled.
    """
    norms = op.atom_norms()
    support = _support_from_magnitudes(np.abs(x / norms), op.shape[0])
    if support.size == 0:
        return support, np.array([], dtype=np.complex128)
    cols = np.stack([op.column(k) for k in support], axis=1) * norms[support]
    gains, *_ = np.linalg.lstsq(cols, z, rcond=REFIT_RCOND)
    return support, gains


def _omp_support(op: StackedGridOperator, z: np.ndarray):
    """Greedy support recovery of a noiseless compressed image.

    Without noise an l1 iterate stays diffuse over the oversampled (hence
    highly coherent) grid, where a joint refit is ill-posed: the
    minimum-norm solution spreads energy across near-collinear columns,
    matching the compressed measurement while distorting the reconstructed
    channel.  Orthogonal matching pursuit over the atoms best correlated
    with the measurement (a quarter of the measurement count) keeps only
    atoms that actually reduce the residual and collapses to the exact
    support on-grid.  Returns the support and its physical gains.
    """
    if not np.any(z):
        return np.array([], dtype=int), np.array([], dtype=np.complex128)
    cap = max(1, op.shape[0] // 4)
    candidates = np.sort(np.argsort(np.abs(op.rmatvec(z)))[::-1][:cap])
    cols = np.stack([op.column(k) for k in candidates], axis=1)
    z_norm = np.linalg.norm(z)
    residual = z
    selected: list[int] = []
    gains = np.array([], dtype=np.complex128)
    for _ in range(candidates.size):
        scores = np.abs(cols.conj().T @ residual)
        scores[selected] = -1.0
        pick = int(np.argmax(scores))
        trial = selected + [pick]
        g, *_ = np.linalg.lstsq(cols[:, trial], z, rcond=None)
        new_residual = z - cols[:, trial] @ g
        if selected and np.linalg.norm(new_residual) >= np.linalg.norm(residual):
            break  # the extra atom no longer explains anything
        selected, gains, residual = trial, g, new_residual
        if np.linalg.norm(residual) <= 1e-8 * z_norm or len(selected) >= cap:
            break
    support = candidates[selected]
    order = np.argsort(support)
    return support[order], gains[order] / op.atom_norms()[support[order]]


def channel_from_grid(
    support: np.ndarray,
    gains: np.ndarray,
    grid: AngleGrid,
    n_bs: int,
    n_ms: int,
) -> np.ndarray:
    """Sum of grid-steering rank-one terms for the recovered support."""
    H = np.zeros((n_bs, n_ms), dtype=np.complex128)
    if support.size == 0:
        return H
    aod_idx, aoa_idx = zip(*(grid.cell(k) for k in support))
    A = steering_from_sin(grid.sin_aoa[list(aoa_idx)], n_bs)
    B = steering_from_sin(grid.sin_aod[list(aod_idx)], n_ms)
    for r, g in enumerate(gains):
        H += g * np.outer(A[:, r], B[:, r])
    return H


def nmse(H_true: list[np.ndarray], H_hat: list[np.ndarray]) -> float:
    """Aggregate NMSE: sum_u ||H_u - H_hat_u||_F^2 / sum_u ||H_u||_F^2."""
    if len(H_true) != len(H_hat):
        raise ValueError("list lengths differ")
    den = sum(np.linalg.norm(H) ** 2 for H in H_true)
    if den == 0.0:
        raise ValueError("all-zero true channels: NMSE undefined")
    num = sum(np.linalg.norm(Ht - Hh) ** 2 for Ht, Hh in zip(H_true, H_hat))
    return float(num / den)


def score_against_truth(
    channel_truth: GeometricChannel | None, channels: list[np.ndarray]
) -> tuple[float | None, list[float] | None]:
    """Aggregate and per-user NMSE of an estimate; (None, None) without truth."""
    if channel_truth is None:
        return None, None
    H_true = assemble_all(channel_truth)
    return nmse(H_true, channels), [nmse([Ht], [Hh]) for Ht, Hh in zip(H_true, channels)]


@dataclass(frozen=True)
class PipelineConfig:
    grid: AngleGrid = AngleGrid(256, 128)
    als: cp_als.AlsConfig = cp_als.AlsConfig()
    known_rank: int | None = None       # run fixed-rank ALS when set


def refine_channels(
    Z: np.ndarray,
    design: TrainingDesign,
    cfg: PipelineConfig,
    noise_std: float,
) -> tuple[list[np.ndarray], bool]:
    """Sparse AoA/AoD recovery of every user's channel from its compressed image.

    Column u of ``Z`` is vec(A_Q_u A_P_u^T) for user u.  With
    noise, one batched l1 solve (FISTA) and a debias refit per user recover
    the grid supports; noiseless images go straight to orthogonal matching
    pursuit.  Returns the per-user channel matrices and whether the l1 solve
    converged, which is True when no l1 solve ran.
    """
    Z = np.asfortranarray(Z, dtype=np.complex128)
    n_users = Z.shape[1]
    op = StackedGridOperator(design, cfg.grid)
    if noise_std > 0.0:
        lam = universal_lambda(noise_std, cfg.grid.size, LAMBDA_SCALE)
        # all users share the dictionary, so the per-user solves batch into
        # one block-diagonal FISTA run; its blocks are identical, so its top
        # singular value is the single block's
        step = 1.0 / (2.0 * top_singular_value(op) ** 2)
        sol = fista(
            StackedGridOperator(design, cfg.grid, n_users),
            Z.ravel(order="F"),
            FistaConfig(lam=lam, max_iters=FISTA_MAX_ITERS, tol=FISTA_TOL, step=step),
        )
        X = sol.x.reshape(cfg.grid.size, n_users, order="F")
        supports = [_support_and_refit(op, Z[:, u], X[:, u]) for u in range(n_users)]
        converged = sol.converged
    else:
        supports = [_omp_support(op, Z[:, u]) for u in range(n_users)]
        converged = True
    channels = [channel_from_grid(support, gains, cfg.grid, design.n_bs, design.n_ms)
                for support, gains in supports]
    return channels, converged


def estimate_all(
    measurement: MeasurementTensor,
    design: TrainingDesign,
    cfg: PipelineConfig | None = None,
    channel_truth: GeometricChannel | None = None,
) -> EstimationResult:
    """Full pipeline: CP decomposition, ambiguity resolution, grid refinement."""
    cfg = cfg or PipelineConfig()
    if design.t < 2 or krank(design.S) < 2:
        raise ValueError("pilot matrix has k-rank < 2; the decomposition cannot be unique")
    t0 = time.perf_counter()

    Y = measurement.y
    if cfg.known_rank is not None:
        res = cp_als.als_known_rank(Y, cfg.known_rank, cfg.als)
    else:
        res = cp_als.als_regularized(Y, cfg.als)
    resolution = resolve_ambiguity(res.factors.C, design.S)

    # with the assignment fixed, the pilot-mode columns are known exactly;
    # polishing the spatial factors against them removes pilot-mode noise
    A_snap, B_snap = pilot_constrained_polish(
        Y, design.S[:, resolution.assignment], res.factors.B, SNAP_SWEEPS)

    assigned = [resolution.assignment == u for u in range(design.n_users)]
    Z = np.stack(
        [(A_snap[:, m] @ B_snap[:, m].T).ravel(order="F") for m in assigned], axis=1)
    channels, solver_converged = refine_channels(
        Z, design, cfg, noise_std_per_entry(measurement))

    runtime = time.perf_counter() - t0
    nmse_total, nmse_users = score_against_truth(channel_truth, channels)
    return EstimationResult(
        channels=channels,
        resolution=resolution,
        estimated_rank=res.estimated_rank,
        nmse_total=nmse_total,
        nmse_per_user=nmse_users,
        als_iterations=res.iterations,
        runtime_s=runtime,
        diagnostics={
            "als_converged": res.converged,
            "solver_converged": solver_converged,
        },
    )
