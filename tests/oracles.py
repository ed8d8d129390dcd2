"""Reference objects the tests compare the library against.

Dense matrices and closed forms that the pipeline never builds: a dense
operator, the dense grid dictionary and its atoms one at a time, the adjoint
check, the analytic soft threshold, frame coherence and its Welch bound, and
on-grid channels.
Import as ``from oracles import ...``; pytest puts ``tests/`` on the path.
"""

import numpy as np

from cpchan.channel_sim import GeometricChannel, path_gain_variance
from cpchan.training_design import _coherences


class MatrixOperator:
    """A dense matrix with the operator protocol ``sparse_solver.fista`` takes."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=np.complex128)
        self.shape = self.M.shape

    def matvec(self, x, support=None):
        return self.M @ x

    def rmatvec(self, y, out=None):
        return np.matmul(self.M.conj().T, y, out=out)

    def kron_factors(self) -> tuple[np.ndarray]:
        """(M,): a dense matrix is its own single factor."""
        return (self.M,)


def adjoint_mismatch(op, rng: np.random.Generator) -> float:
    """Relative |<Ax, y> - <x, A^H y>| on a random pair; 0 for a true adjoint."""
    x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    lhs = np.vdot(y, op.matvec(x))
    rhs = np.vdot(op.rmatvec(y), x)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


def build_dictionary(design, grid) -> np.ndarray:
    """Dense (m_bs * t_prime) x (n_aoa * n_aod) grid dictionary, physical
    (not unit-norm) columns, via the mixed-product identity."""
    G_Q, G_P = design.responses(grid.sin_aoa, grid.sin_aod)
    return np.kron(G_P, G_Q)


def grid_atom(G_Q, G_P, grid, k) -> np.ndarray:
    """Column k of the grid dictionary with factors (G_Q, G_P), built alone:
    G_P[:, i] kron G_Q[:, j] for AoD index i and AoA index j, k = i n_aoa + j."""
    i, j = divmod(int(k), grid.n_aoa)
    return np.outer(G_Q[:, j], G_P[:, i]).ravel(order="F")


def pilot_atom(S, G_Q, G_P, grid, u, k) -> np.ndarray:
    """User u's column k of the pilot-mixed dictionary, kron(S[:, u], Phi_k)."""
    return np.kron(S[:, u], grid_atom(G_Q, G_P, grid, k))


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by t, keep phases; the
    arithmetic of ``sparse_solver._shrink``, allocating."""
    return v * np.maximum(0.0, 1.0 - t / np.maximum(np.abs(v), 1e-300))


def mutual_coherence(S) -> float:
    """Largest normalized inner product between distinct columns, by the
    kernel ``minimize_coherence`` ranks its frames with.

    Raises ValueError on a zero column, whose direction is undefined.
    """
    S = np.asarray(S, dtype=np.complex128)
    zero = np.flatnonzero(np.linalg.norm(S, axis=0) == 0.0)
    if zero.size:
        raise ValueError(f"column {zero[0]} of the frame is zero; its coherence is undefined")
    return float(_coherences(S[None])[0])


def welch_bound(t: int, u: int) -> float:
    """Lower bound on the coherence of u unit vectors in C^t (0 when u <= t)."""
    if u <= t:
        return 0.0
    return float(np.sqrt((u - t) / (t * (u - 1))))


def sample_channel_on_grid(rng, paths_per_user, n_bs, n_ms, sin_aoa_grid, sin_aod_grid):
    """A channel like ``channel_sim.sample_channel``'s, with sin-angles that
    are grid values.

    AoA and AoD grid indices are each drawn without replacement across all
    paths, so every path has a distinct AoA and a distinct AoD.  Shared
    coordinates would make steering columns collide, dropping the factor
    k-rank and breaking decomposition uniqueness; the fully distinct draw
    keeps on-grid oracle experiments in the identifiable regime.
    """
    paths_per_user = tuple(paths_per_user)
    total = sum(paths_per_user)
    if total > min(len(sin_aoa_grid), len(sin_aod_grid)):
        raise ValueError("more paths than distinct grid coordinates")
    var = path_gain_variance(n_bs, n_ms)
    aoa_idx = rng.choice(len(sin_aoa_grid), size=total, replace=False)
    aod_idx = rng.choice(len(sin_aod_grid), size=total, replace=False)
    gains = np.sqrt(var / 2) * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    return GeometricChannel(gains, np.asarray(sin_aoa_grid)[aoa_idx],
                            np.asarray(sin_aod_grid)[aod_idx], paths_per_user, n_bs, n_ms)
