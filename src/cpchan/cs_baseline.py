"""Direct compressed-sensing multiuser estimator (no tensor decomposition).

The mode-3 unfolding of the measurement satisfies

    Y_(3)^T = (P^T kron Q^T) Sigma_bar D_bar S^T + noise

so with y = vec(Y_(3)^T) and Phi = (P^T kron Q^T) Sigma_bar,

    y = (S kron Phi) d + w,      d = vec(D_bar),

one large l1-regularized problem over all users' grid coefficients.  The
(S kron Phi) operator is the grid dictionary operator shared with the CPF
refinement (``sparse_solver.StackedGridOperator``, one block per user)
followed by one pilot-mixing product; the dense matrix is only assembled in
oracle tests at toy sizes.  Like every grid dictionary operator it has
unit-norm columns (the pilots mix with S over its column norms); its
``atom_norms()``, pilot norm times grid atom norm, turn coefficients into gains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channel_sim import GeometricChannel
from .channel_recovery import _support_from_magnitudes, channel_from_grid, score_against_truth
from .measurement import MeasurementTensor, noise_std_per_entry
from .sparse_solver import (
    AngleGrid,
    FistaConfig,
    StackedGridOperator,
    fista,
    universal_lambda,
)
from .tensor_core import unfold
from .training_design import TrainingDesign


class PilotKronOperator:
    """Matrix-free (S kron Phi) with unit-norm columns: coefficients are
    vec(D_bar), D_bar of shape (grid.size, n_users).

    The grid operator maps vec(D_bar) to vec(M), M = Phi D_bar of shape
    (m_bs * t_prime, n_users); the pilots then mix it as M S^T (adjoint:
    Z S-bar).  Both products act on the transposes, which are the row-major
    reshapes of the vectors, so nothing is copied.
    """

    def __init__(self, design: TrainingDesign, grid: AngleGrid):
        self._s_norms = np.linalg.norm(design.S, axis=0)
        self.S = design.S / self._s_norms
        self._S_H = self.S.conj().T
        self.n_users = design.n_users
        self.grid_op = StackedGridOperator(design, grid, self.n_users)
        self.shape = (design.t * self.grid_op.m_bs * self.grid_op.t_prime,
                      self.grid_op.shape[1])

    def matvec(self, d, support=None):
        # vec(M S^T) is the row-major (t, m_bs t') array S M^T
        Mt = self.grid_op.matvec(d, support).reshape(self.n_users, -1)
        return (self.S @ Mt).ravel()

    def rmatvec(self, y, out=None):
        """(S kron Phi)^H y, written into ``out`` (a coefficient-length
        vector) when given."""
        # vec(Z S-bar) is the row-major (U, m_bs t') array S^H Z^T
        Zt = y.reshape(self.S.shape[0], -1)
        return self.grid_op.rmatvec((self._S_H @ Zt).ravel(), out=out)

    def kron_factors(self) -> tuple[np.ndarray, ...]:
        """(S, G_P, G_Q), the unit-column factors of S kron Phi."""
        return (self.S, *self.grid_op.kron_factors())

    def atom_norms(self) -> np.ndarray:
        """Per-column norms of the physical atoms kron(s_u, Phi_k)."""
        return self.grid_op.atom_norms() * np.repeat(self._s_norms, self.grid_op.grid.size)

    def column(self, u: int, k: int) -> np.ndarray:
        """Unit column of user u's grid atom k: kron(S[:, u], Phi_k)."""
        return np.kron(self.S[:, u], self.grid_op.column(k))


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
    """FISTA on the unit-column operator, per-user support refit, reassembly."""
    t0 = time.perf_counter()
    op = prob.operator
    if cfg is None:
        if prob.noise_std > 0.0:
            lam = universal_lambda(prob.noise_std, op.shape[1], lambda_scale)
        else:
            lam = max(1e-8 * float(np.max(np.abs(op.rmatvec(prob.y)))), 1e-300)
        cfg = FistaConfig(lam=lam)
    sol = fista(op, prob.y, cfg)

    design, grid = prob.design, prob.grid
    norms = op.atom_norms().reshape(grid.size, design.n_users, order="F")
    D = sol.x.reshape(grid.size, design.n_users, order="F") / norms
    per_user_budget = op.shape[0] // design.n_users
    supports = [_support_from_magnitudes(np.abs(D[:, u]), per_user_budget)
                for u in range(design.n_users)]
    # joint support refit: LS over all retained columns keeps the per-user
    # interference consistent with the shared pilot mixing; the columns are
    # the physical atoms, so the LS solution is the path gains
    cols = [op.column(u, k) * norms[k, u] for u, sup in enumerate(supports) for k in sup]
    if cols:
        gains, *_ = np.linalg.lstsq(np.stack(cols, axis=1), prob.y, rcond=None)
    else:
        gains = np.array([], dtype=np.complex128)
    per_user_gains = np.split(gains, np.cumsum([sup.size for sup in supports])[:-1])
    channels = [channel_from_grid(sup, g, grid, design.n_bs, design.n_ms)
                for sup, g in zip(supports, per_user_gains)]

    runtime = time.perf_counter() - t0
    nm_total, nm_users = score_against_truth(channel_truth, channels)
    return CsResult(channels, supports, nm_total, nm_users,
                    runtime, sol.converged, sol.iterations)
