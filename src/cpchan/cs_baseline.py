"""Direct compressed-sensing multiuser estimator (no tensor decomposition).

The mode-3 unfolding of the measurement satisfies

    Y_(3)^T = (P^T kron Q^T) Sigma_bar D_bar S^T + noise

so with y = vec(Y_(3)^T) and Phi = (P^T kron Q^T) Sigma_bar,

    y = (S kron Phi) d + w,      d = vec(D_bar),

one large l1-regularized problem over all users' grid coefficients.  The
(S kron Phi) operator is applied matrix-free through its Kronecker factors;
the dense matrix is only assembled in oracle tests at toy sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channel_sim import GeometricChannel, assemble_all
from .channel_recovery import _support_from_magnitudes, channel_from_grid, nmse
from .measurement import MeasurementTensor, noise_std_per_entry
from .sparse_solver import (
    AngleGrid,
    FistaConfig,
    GridDictionaryOperator,
    ScaledColumnsOperator,
    fista,
    universal_lambda,
)
from .tensor_core import unfold
from .training_design import TrainingDesign


class PilotKronOperator:
    """Matrix-free (S kron Phi): coefficients are vec(D_bar), D_bar of shape
    (grid.size, n_users)."""

    def __init__(self, design: TrainingDesign, grid: AngleGrid):
        self.S = design.S
        self.grid_op = GridDictionaryOperator(design, grid)
        self.n_users = design.n_users
        m = self.grid_op.shape[0]
        self.shape = (design.t * m, grid.size * self.n_users)

    def matvec(self, d):
        D = d.reshape(self.grid_op.shape[1], self.n_users, order="F")
        M = np.stack([self.grid_op.matvec(D[:, u]) for u in range(self.n_users)], axis=1)
        return (M @ self.S.T).ravel(order="F")

    def rmatvec(self, y):
        Z = y.reshape(self.grid_op.shape[0], self.S.shape[0], order="F")
        M = Z @ self.S.conj()
        D = np.stack([self.grid_op.rmatvec(M[:, u]) for u in range(self.n_users)], axis=1)
        return D.ravel(order="F")

    def column_norms(self) -> np.ndarray:
        grid_norms = self.grid_op.column_norms()
        s_norms = np.linalg.norm(self.S, axis=0)
        return (grid_norms[:, None] * s_norms[None, :]).ravel(order="F")


@dataclass(frozen=True)
class CsProblem:
    y: np.ndarray
    operator: PilotKronOperator
    grid: AngleGrid
    design: TrainingDesign
    noise_std: float = 0.0


@dataclass(frozen=True)
class CsResult:
    channels: list[np.ndarray]
    supports: list[np.ndarray]
    nmse_total: float | None = None
    nmse_per_user: list[float] | None = None
    runtime_s: float = 0.0
    solver_converged: bool = True
    iterations: int = 0


def assemble_problem(
    measurement: MeasurementTensor, design: TrainingDesign, grid: AngleGrid
) -> CsProblem:
    y = unfold(measurement.y, 3).T.ravel(order="F")
    return CsProblem(y, PilotKronOperator(design, grid), grid, design,
                     noise_std_per_entry(measurement))


def solve_cs(
    prob: CsProblem,
    cfg: FistaConfig | None = None,
    lambda_scale: float = 1.0,
    channel_truth: GeometricChannel | None = None,
) -> CsResult:
    """FISTA on the normalized operator, per-user support refit, reassembly."""
    t0 = time.perf_counter()
    op = prob.operator
    norms = op.column_norms()
    if cfg is None:
        if prob.noise_std > 0.0:
            lam = universal_lambda(prob.noise_std, op.shape[1], lambda_scale)
        else:
            lam = max(1e-8 * float(np.max(np.abs(op.rmatvec(prob.y) / norms))), 1e-300)
        cfg = FistaConfig(lam=lam)
    sol = fista(ScaledColumnsOperator(op, 1.0 / norms), prob.y, cfg)
    d_hat = sol.x / norms

    design, grid = prob.design, prob.grid
    D = d_hat.reshape(grid.size, design.n_users, order="F")
    channels, supports = [], []
    # joint support refit: LS over all retained columns keeps the per-user
    # interference consistent with the shared pilot mixing
    cols, col_meta = [], []
    per_user_budget = op.shape[0] // design.n_users
    for u in range(design.n_users):
        sup = _support_from_magnitudes(np.abs(D[:, u]), per_user_budget)
        supports.append(sup)
        for k in sup:
            e = np.zeros(op.shape[1], dtype=np.complex128)
            e[u * grid.size + k] = 1.0
            cols.append(op.matvec(e))
            col_meta.append((u, k))
    if cols:
        A_sub = np.stack(cols, axis=1)
        gains, *_ = np.linalg.lstsq(A_sub, prob.y, rcond=None)
    else:
        gains = np.array([], dtype=np.complex128)
    per_user_gains: list[list[complex]] = [[] for _ in range(design.n_users)]
    for (u, _k), g in zip(col_meta, gains):
        per_user_gains[u].append(g)
    for u in range(design.n_users):
        channels.append(channel_from_grid(
            supports[u], np.array(per_user_gains[u], dtype=np.complex128),
            grid, design.n_bs, design.n_ms))

    runtime = time.perf_counter() - t0
    nm_total, nm_users = None, None
    if channel_truth is not None:
        H_true = assemble_all(channel_truth)
        nm_total = nmse(H_true, channels)
        nm_users = [nmse([Ht], [Hh]) for Ht, Hh in zip(H_true, channels)]
    return CsResult(channels, supports, nm_total, nm_users,
                    runtime, sol.converged, sol.iterations)
