"""Layered-pilot training artifacts and uniqueness (Kruskal-type) checks.

A training design consists of
  * P  (n_ms x t_prime)  common beamforming matrix, entries (1/n_ms) e^{j*theta},
  * Q  (n_bs x m_bs)     combining matrix, entries (1/n_bs) e^{j*theta},
  * S  (t x u)           pilot matrix with unit-norm columns, one per user.
It holds no path counts: those belong to the channel (measurement.ideal_factors).
``TrainingDesign.responses`` gives the compressed array responses Q^T a_bs and
P^T a_ms: the CP factors of the received tensor, whose k-ranks decide its
uniqueness, and the factors of the grid dictionaries.

The constant-modulus scaling of P and Q follows the analog phase-shifter
constraint (note the 1/n scaling, not 1/sqrt(n); it only shifts the global
SNR reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .channel_sim import steering_from_sin

KRANK_TOL = 1e-9          # subset dependent when sigma_min / sigma_max(full M) < tol
KRANK_EXHAUSTIVE_MAX = 20  # exhaustive subset search only up to this many items
COHERENCE_ITERS = 500     # projected-gradient steps per coherence-minimization start
COHERENCE_RESTARTS = 10   # random starts of the coherence minimization


@dataclass(frozen=True)
class TrainingDesign:
    P: np.ndarray  # n_ms x t_prime
    Q: np.ndarray  # n_bs x m_bs
    S: np.ndarray  # t x u

    def __post_init__(self):
        # private copies: freezing must not make the caller's arrays read-only
        P = np.array(self.P, dtype=np.complex128)
        Q = np.array(self.Q, dtype=np.complex128)
        S = np.array(self.S, dtype=np.complex128)
        for m in (P, Q, S):
            m.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "S", S)

    @property
    def n_ms(self) -> int:
        return self.P.shape[0]

    @property
    def n_bs(self) -> int:
        return self.Q.shape[0]

    @property
    def m_bs(self) -> int:
        return self.Q.shape[1]

    @property
    def t_prime(self) -> int:
        return self.P.shape[1]

    @property
    def t(self) -> int:
        return self.S.shape[0]

    @property
    def n_users(self) -> int:
        return self.S.shape[1]

    @cached_property
    def pilot_krank(self) -> int:
        """krank(S), searched once per design: the estimator's guard and the
        uniqueness check both read it."""
        return krank(self.S)

    def responses(self, sin_aoa, sin_aod) -> tuple[np.ndarray, np.ndarray]:
        """Compressed array responses (Q^T a_bs(sin_aoa), P^T a_ms(sin_aod)),
        one column per given sin-angle."""
        return (self.Q.T @ steering_from_sin(sin_aoa, self.n_bs),
                self.P.T @ steering_from_sin(sin_aod, self.n_ms))


def check_channel_fits(design: TrainingDesign, channel) -> None:
    """Raise ValueError unless the channel has the design's users and arrays."""
    for what, have, want, unit in (
            ("users", channel.n_users, design.n_users, "pilot columns"),
            ("BS antennas", channel.n_bs, design.n_bs, "rows of Q"),
            ("MS antennas", channel.n_ms, design.n_ms, "rows of P")):
        if have != want:
            raise ValueError(f"channel has {have} {what} but the design has {want} {unit}")


def random_unit_modulus(rng: np.random.Generator, rows: int, cols: int, scale: float) -> np.ndarray:
    """Matrix of entries scale * e^{j*theta}, theta i.i.d. uniform on [-pi, pi]."""
    theta = rng.uniform(-np.pi, np.pi, size=(rows, cols))
    return scale * np.exp(1j * theta)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT (unit-norm, mutually orthogonal columns)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def _coherences(S: np.ndarray) -> np.ndarray:
    """Mutual coherence of each t x u frame in a stack S of shape (R, t, u)."""
    S = S / np.linalg.norm(S, axis=1, keepdims=True)
    G = S.conj().transpose(0, 2, 1) @ S
    idx = np.arange(S.shape[2])
    G[:, idx, idx] = 0.0
    return np.abs(G).max(axis=(1, 2))


def minimize_coherence(rng: np.random.Generator, t: int, u: int) -> np.ndarray:
    """Near-Grassmannian frame of u unit-norm columns in C^t.

    Projected gradient descent on the smooth coherence surrogate
    sum_{i != j} |<s_i, s_j>|^{2p}, annealing the power p so the surrogate
    sharpens toward the max as iterations progress.  The COHERENCE_RESTARTS
    random starts are drawn one after another, then descend together as one
    (R, t, u) stack; each start's step is scaled by its own gradient norm, so
    every start follows the same iterates it would alone.  The frame of
    lowest coherence over all starts and iterations is returned, the earliest
    start and iteration winning ties.
    """
    starts = []
    for _ in range(COHERENCE_RESTARTS):
        S = rng.standard_normal((t, u)) + 1j * rng.standard_normal((t, u))
        S /= np.linalg.norm(S, axis=0)
        starts.append(S)
    S = np.stack(starts)
    best, best_mu = S.copy(), np.full(COHERENCE_RESTARTS, np.inf)
    idx = np.arange(u)
    for it in range(COHERENCE_ITERS):
        p = 4.0 + 28.0 * it / (COHERENCE_ITERS - 1)
        G = S.conj().transpose(0, 2, 1) @ S
        W = np.abs(G) ** (2 * (p - 1))
        W[:, idx, idx] = 0.0
        grad = 2 * p * (S @ (W * G))          # Wirtinger gradient of the surrogate
        # per-start Frobenius norm, summed as the unstacked norm sums it
        scale = np.maximum([np.linalg.norm(g) for g in grad], 1e-12)
        S = S - 0.1 * grad / scale[:, None, None]
        S /= np.maximum(np.linalg.norm(S, axis=1, keepdims=True), 1e-12)
        mu = _coherences(S)
        better = mu < best_mu
        best[better] = S[better]
        best_mu[better] = mu[better]
    return best[np.argmin(best_mu)]


def pilot_matrix(rng: np.random.Generator, t: int, u: int) -> np.ndarray:
    """Pilot matrix with unit-norm columns.

    Square case uses the unitary DFT (coherence 0); t > u takes the first u
    DFT columns; t < u runs the coherence-minimization heuristic.
    """
    if t < 2:
        raise ValueError("pilot length t must be >= 2 for identifiability")
    if t >= u:
        return dft_matrix(t)[:, :u]
    return minimize_coherence(rng, t, u)


def build_design(
    rng: np.random.Generator,
    n_bs: int,
    n_ms: int,
    m_bs: int,
    t_prime: int,
    t: int,
    paths_per_user,
) -> TrainingDesign:
    """Random constant-modulus P and Q plus a coherence-minimized pilot matrix
    with one column per user; only ``len(paths_per_user)`` is read."""
    return TrainingDesign(
        P=random_unit_modulus(rng, n_ms, t_prime, 1.0 / n_ms),
        Q=random_unit_modulus(rng, n_bs, m_bs, 1.0 / n_bs),
        S=pilot_matrix(rng, t, len(list(paths_per_user))),
    )


# ---------------------------------------------------------------------------
# k-rank machinery
# ---------------------------------------------------------------------------

class KrankLimitError(ValueError):
    """The k-rank needs an exhaustive subset search past its limit, so it is
    not computed; a uniqueness check that needs it is inconclusive."""


def _subset_independent(M: np.ndarray, cols, sigma_max: float) -> bool:
    sub = M[:, list(cols)]
    if len(cols) > M.shape[0]:
        return False
    s = np.linalg.svd(sub, compute_uv=False)
    return s[-1] > KRANK_TOL * sigma_max


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("krank needs a nonempty matrix")
    return M


def krank(M) -> int:
    """Kruskal rank: largest k such that every k-column subset is independent."""
    M = _as_matrix(M)
    return krank_partitioned(M, [1] * M.shape[1])


def krank_partitioned(M, blocks) -> int:
    """k'-rank of a column-partitioned matrix.

    The maximal r such that every choice of r blocks yields a jointly
    linearly independent set of columns.  With one column per block this is
    the Kruskal rank.  If the whole matrix has full column rank the answer is
    the block count (every subset of independent columns is independent), so
    the exhaustive search only runs for rank-deficient inputs, and raises
    KrankLimitError past KRANK_EXHAUSTIVE_MAX blocks.
    """
    M = _as_matrix(M)
    blocks = [int(b) for b in blocks]
    if sum(blocks) != M.shape[1]:
        raise ValueError(f"block sizes {blocks} do not sum to {M.shape[1]} columns")
    if any(b < 1 for b in blocks):
        raise ValueError("block sizes must be positive")
    n_blocks = len(blocks)
    s = np.linalg.svd(M, compute_uv=False)
    sigma_max = s[0]
    if sigma_max == 0.0:
        return 0
    if M.shape[1] <= M.shape[0] and s[-1] > KRANK_TOL * sigma_max:
        return n_blocks
    if n_blocks > KRANK_EXHAUSTIVE_MAX:
        raise KrankLimitError(
            f"k-rank of a rank-deficient matrix with {n_blocks} blocks exceeds "
            f"the exhaustive search limit of {KRANK_EXHAUSTIVE_MAX}")
    starts = np.concatenate([[0], np.cumsum(blocks)])
    col_sets = [range(starts[i], starts[i + 1]) for i in range(n_blocks)]
    k = 0
    for size in range(1, n_blocks + 1):
        if not all(_subset_independent(M, [c for b in chosen for c in col_sets[b]], sigma_max)
                   for chosen in combinations(range(n_blocks), size)):
            break
        k = size
    return k


# ---------------------------------------------------------------------------
# uniqueness report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessReport:
    regime: str                  # "single_path" or "multi_path"
    k_aq: int
    k_ap: int
    k_s: int
    kruskal_lhs: int
    kruskal_rhs: int
    kruskal_ok: bool
    dimension_ok: bool           # m_bs * t_prime >= sum L_u^2
    passed: bool

    def summary(self) -> str:
        return (
            f"regime={self.regime} k(A_Q)={self.k_aq} k(A_P)={self.k_ap} "
            f"k(S)={self.k_s} sum={self.kruskal_lhs} needed>={self.kruskal_rhs} "
            f"dim_ok={self.dimension_ok} -> {'PASS' if self.passed else 'FAIL'}"
        )


def check_uniqueness(design: TrainingDesign, channel) -> UniquenessReport:
    """Evaluate the identifiability conditions for a design/channel pair:
    m_bs * t_prime >= sum L_u^2 and k'(A_Q) + k'(A_P) + k(S) >= 2U + 2, with
    the partition ranks k' taken over per-user column blocks."""
    check_channel_fits(design, channel)
    A_Q, A_P = design.responses(channel.sin_aoa, channel.sin_aod)
    ppu = channel.paths_per_user
    k_s = design.pilot_krank
    k_aq, k_ap = krank_partitioned(A_Q, ppu), krank_partitioned(A_P, ppu)
    lhs, rhs = k_aq + k_ap + k_s, 2 * channel.n_users + 2
    # single-path users (unit blocks, where k' is the Kruskal rank) pass on the
    # rank sum alone: as k(S) <= U it needs k(A_Q) + k(A_P) >= U + 2, and with
    # k(A_Q) <= m_bs, k(A_P) <= t_prime, m_bs t_prime >= m_bs + t_prime - 1 > U
    dim_ok = design.m_bs * design.t_prime >= sum(l * l for l in ppu)
    regime = "single_path" if all(l == 1 for l in ppu) else "multi_path"
    return UniquenessReport(regime, k_aq, k_ap, k_s, lhs, rhs, lhs >= rhs, dim_ok,
                            dim_ok and lhs >= rhs)
