"""Complex l1-regularized least squares (FISTA) and angle-grid dictionaries.

The solver minimizes

    F(x) = || y - A x ||_2^2 + lam * || x ||_1

(note: no 1/2 on the quadratic).  The gradient Lipschitz constant is
L = 2 * sigma_max(A)^2, the proximal step is complex soft-thresholding with
threshold lam / L (magnitude shrink, phase preserved), so for A = I the fixed
point is x = soft(y, lam / 2).

``A`` may be a dense ndarray or any object exposing ``shape``, ``matvec`` and
``rmatvec``.  The one AoA/AoD grid dictionary operator, ``StackedGridOperator``,
lives here too: it applies the dictionary matrix-free through its Kronecker
factors, batched over users, so the big dictionaries are never materialized.
The CPF refinement solves on it directly; the CS baseline mixes it with the
pilots (``cs_baseline.PilotKronOperator``).  Every grid dictionary operator
has unit-norm columns, so one l1 weight treats all atoms alike; a coefficient
divided by its ``atom_norms()`` entry (the physical atom's norm) is the gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class MatrixOperator:
    """Adapter giving a dense matrix the operator protocol."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=np.complex128)
        self.shape = self.M.shape

    def matvec(self, x):
        return self.M @ x

    def rmatvec(self, y):
        return self.M.conj().T @ y


def as_operator(A):
    return A if hasattr(A, "matvec") else MatrixOperator(A)


def top_singular_value(op, n_iters: int = 60, seed: int = 0) -> float:
    """Power iteration on A^H A; deterministic under the fixed seed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    x /= np.linalg.norm(x)
    s = 0.0
    for _ in range(n_iters):
        x = op.rmatvec(op.matvec(x))
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return 0.0
        s, x = np.sqrt(nrm), x / nrm
    return float(s)


def adjoint_mismatch(op, rng: np.random.Generator) -> float:
    """Relative |<Ax, y> - <x, A^H y>| on a random pair; 0 for a true adjoint."""
    x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    lhs = np.vdot(y, op.matvec(x))
    rhs = np.vdot(op.rmatvec(y), x)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# FISTA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FistaConfig:
    lam: float = 1e-3
    max_iters: int = 2000
    tol: float = 1e-8          # relative objective change
    step: float | None = None  # None -> 1 / (2 sigma_max^2) via power iteration

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class FistaResult:
    x: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True


def soft_threshold(v: np.ndarray, t: float, out=None, mag=None) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by t, keep phases.

    ``out`` (complex) receives the result and ``mag`` (real) holds the
    magnitudes; both have v's shape and are allocated when not given.
    """
    mag = np.abs(v, out=mag)
    np.maximum(mag, 1e-300, out=mag)
    np.divide(t, mag, out=mag)
    np.subtract(1.0, mag, out=mag)
    np.maximum(0.0, mag, out=mag)
    return np.multiply(v, mag, out=out)


def fista(A, y, cfg: FistaConfig) -> FistaResult:
    """FISTA on F(x) = ||y - A x||^2 + lam ||x||_1.

    The coefficient-length vectors live in buffers allocated once per call
    and updated in place: the iterate, the momentum point, the gradient step
    (thresholded in place into the next iterate, after which the two swap)
    and the magnitudes.  The arithmetic is that of the plain allocating
    loop, operation for operation.
    """
    op = as_operator(A)
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.shape[0] != op.shape[0]:
        raise ValueError(f"y length {y.shape[0]} does not match operator rows {op.shape[0]}")
    if cfg.step is not None:
        step = cfg.step
    else:
        smax = top_singular_value(op)
        if smax == 0.0:
            return FistaResult(np.zeros(op.shape[1], dtype=np.complex128), [0.0], 0, True)
        step = 1.0 / (2.0 * smax**2)

    # one block, not three vectors: a single large allocation per call also
    # keeps the allocator from trimming the heap under the operators'
    # per-iteration temporaries, which would page-fault them in afresh on
    # every iteration
    x, z, v = np.zeros((3, op.shape[1]), dtype=np.complex128)
    mag = np.empty(op.shape[1])
    ax = np.zeros(op.shape[0], dtype=np.complex128)
    az = ax                      # A z tracked through the linear momentum update
    t_momentum = 1.0
    trace = [float(np.linalg.norm(y) ** 2)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        # x_new = soft_threshold(z - step * (2 * A^H (A z - y))), built in v
        np.multiply(2.0, op.rmatvec(az - y), out=v)
        np.multiply(step, v, out=v)
        np.subtract(z, v, out=v)
        x_new = soft_threshold(v, cfg.lam * step, out=v, mag=mag)
        ax_new = op.matvec(x_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2)) / 2.0
        beta = (t_momentum - 1.0) / t_new
        # z = x_new + beta * (x_new - x)
        np.subtract(x_new, x, out=z)
        np.multiply(beta, z, out=z)
        np.add(x_new, z, out=z)
        az = ax_new + beta * (ax_new - ax)
        x, v = x_new, x
        ax, t_momentum = ax_new, t_new
        obj = float(np.linalg.norm(y - ax) ** 2 + cfg.lam * np.sum(np.abs(x, out=mag)))
        trace.append(obj)
        if abs(trace[-2] - obj) <= cfg.tol * max(abs(trace[-2]), 1e-30):
            converged = True
            break
    return FistaResult(x, trace, it, converged)


def universal_lambda(noise_std: float, n_atoms: int, c: float = 1.0) -> float:
    """Universal-threshold rule lam = c * sigma * sqrt(2 log n) for unit-norm atoms."""
    return float(c * noise_std * np.sqrt(2.0 * np.log(max(n_atoms, 2))))


# ---------------------------------------------------------------------------
# angle grid and dictionaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleGrid:
    """Uniform sin-domain grid over [-1, 1) for AoA (BS side) and AoD (MS side).

    Dictionary columns are ordered AoD-major: the column for AoD index i and
    AoA index j has linear index i * n_aoa + j.
    """

    n_aoa: int
    n_aod: int

    def __post_init__(self):
        if self.n_aoa < 1 or self.n_aod < 1:
            raise ValueError("grid sizes must be >= 1")

    @property
    def size(self) -> int:
        return self.n_aoa * self.n_aod

    @property
    def sin_aoa(self) -> np.ndarray:
        return -1.0 + 2.0 * np.arange(self.n_aoa) / self.n_aoa

    @property
    def sin_aod(self) -> np.ndarray:
        return -1.0 + 2.0 * np.arange(self.n_aod) / self.n_aod

    def cell(self, linear_index: int) -> tuple[int, int]:
        """(aod index, aoa index) of a linear dictionary column."""
        return divmod(int(linear_index), self.n_aoa)


def grid_responses(design, grid: AngleGrid):
    """Compressed steering responses (G_Q = Q^T a_bs over the AoA grid,
    G_P = P^T a_ms over the AoD grid)."""
    from .channel_sim import steering_from_sin
    G_Q = design.Q.T @ steering_from_sin(grid.sin_aoa, design.n_bs)
    G_P = design.P.T @ steering_from_sin(grid.sin_aod, design.n_ms)
    return G_Q, G_P


class StackedGridOperator:
    """Matrix-free grid dictionary Phi = (P^T kron Q^T) Sigma-bar with unit-norm
    columns, stacked block-diagonally over ``n_rhs`` right-hand sides (one per
    user).

    Column (i, j) of a block is G_P[:, i] kron G_Q[:, j] divided by its norm;
    the coefficient vector is the per-block AoD-major vectors one after
    another.  All blocks share the dictionary, so one batched application of
    the two small factor products replaces a Python loop over users.
    """

    def __init__(self, design, grid: AngleGrid, n_rhs: int = 1):
        if n_rhs < 1:
            raise ValueError("need at least one right-hand side")
        self.grid = grid
        self.n_rhs = n_rhs
        G_Q, G_P = grid_responses(design, grid)
        # dictionary column norms separate as ||G_P_i|| * ||G_Q_j||, so
        # per-factor normalization yields exactly unit-norm columns
        self._norms_q, self._norms_p = np.linalg.norm(G_Q, axis=0), np.linalg.norm(G_P, axis=0)
        self.G_Q, self.G_P = G_Q / self._norms_q, G_P / self._norms_p
        self.m_bs = self.G_Q.shape[0]
        self.t_prime = self.G_P.shape[0]
        self.shape = (self.m_bs * self.t_prime * n_rhs, grid.size * n_rhs)
        self._G_Qc = self.G_Q.conj()
        self._G_Pc = self.G_P.conj()
        X = np.empty((grid.n_aoa, grid.n_aod, n_rhs), dtype=np.complex128)
        Y = np.empty((self.m_bs, self.t_prime, n_rhs), dtype=np.complex128)
        self._fwd_path = np.einsum_path(
            "ma,adu,td->utm", self.G_Q, X, self.G_P, optimize="optimal")[0]
        self._adj_path = np.einsum_path(
            "ma,mtu,td->uda", self._G_Qc, Y, self._G_Pc, optimize="optimal")[0]

    def matvec(self, x):
        g = self.grid
        X = x.reshape(g.n_aoa, g.n_aod, self.n_rhs, order="F")
        # output written as (U, t', m) C-order == (m, t', U) F-order, so the
        # C-ravel below is the stacked per-block vec without a transpose copy
        out = np.einsum(
            "ma,adu,td->utm", self.G_Q, X, self.G_P, optimize=self._fwd_path)
        return out.ravel()

    def rmatvec(self, y):
        Y = y.reshape(self.m_bs, self.t_prime, self.n_rhs, order="F")
        X = np.einsum(
            "ma,mtu,td->uda", self._G_Qc, Y, self._G_Pc, optimize=self._adj_path)
        return X.ravel()

    def atom_norms(self) -> np.ndarray:
        """Per-column norms of the physical atoms kron(P^T a_ms, Q^T a_bs)."""
        return np.tile(np.outer(self._norms_q, self._norms_p).ravel(order="F"), self.n_rhs)

    def column(self, k: int) -> np.ndarray:
        """Unit column k of one block, kron(G_P[:, j], G_Q[:, i]), without a matvec."""
        j, i = self.grid.cell(k)
        return np.outer(self.G_Q[:, i], self.G_P[:, j]).ravel(order="F")


def build_dictionary(design, grid: AngleGrid) -> np.ndarray:
    """Dense (m_bs * t_prime) x (n_aoa * n_aod) dictionary via the mixed-product
    identity; intended for oracle tests and small grids only."""
    G_Q, G_P = grid_responses(design, grid)
    return np.kron(G_P, G_Q)
