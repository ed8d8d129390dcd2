"""Complex l1-regularized least squares (FISTA) and angle-grid dictionaries.

The solver minimizes

    F(x) = || y - A x ||_2^2 + lam * || x ||_1

(note: no 1/2 on the quadratic).  The gradient Lipschitz constant is
L = 2 * sigma_max(A)^2, the proximal step is complex soft-thresholding with
threshold lam / L (magnitude shrink, phase preserved), so for A = I the fixed
point is x = soft(y, lam / 2).

FISTA's default step is 1 / L.  ``top_singular_value`` takes sigma_max(A)
exactly from the operator's ``kron_factors()``: the singular values of a
Kronecker product are the products of its factors' singular values, so
sigma_max is the product of the factors' largest, each from the eigenvalues
of the Gram of the factor's shorter side (at most 16 x 16 at table1).

After the first iterations the iterate keeps 1-2.5% of its coefficients
(in the support-tracking steps of table1's CS solve at 30 dB, a median of
about 1% and a 90th percentile of 2.3-2.5% of 65,536 pass the threshold),
so ``fista`` tracks supports: once at most n / 16 entries pass the threshold
test, the soft threshold and the iterate and momentum updates run on the
old and new supports only, and the l1 term on the new one.  The gradient
step, its magnitudes and the threshold mask still cover all n coefficients,
except on an operator that screens its adjoint: there they cover only the
rows of coefficients that can pass the threshold.  The iterates are those
of the plain dense loop bit for bit.

``A`` is an operator: any object exposing ``shape``,
``matvec(x, support=None)``, ``rmatvec(y, out=None)`` and
``kron_factors()``; an operator without ``kron_factors()`` needs an explicit
``FistaConfig.step``.  ``support`` is a hint: sorted indices outside which
``x`` is zero.  ``fista`` passes it in its support-tracking phase only (the
dense phase passes none); an operator may use it to run the product over
those columns alone, or ignore it.  ``rmatvec`` writes the adjoint into
``out``, a coefficient-length vector, when given, and returns it there.
An operator may also expose ``screened_rmatvec``, as the grid dictionary
does.  The one AoA/AoD grid dictionary operator, ``StackedGridOperator``,
lives here too: it applies the dictionary matrix-free through its Kronecker
factors, batched over users, so the big dictionaries are never
materialized, and it uses the hint once the support holds at most
1/SUPPORT_SHARE of the coefficients.  Its adjoint is two GEMMs, the small
first one giving one m_bs-entry row per user and AoD index; as every atom
has unit norm, no adjoint entry of that grid row exceeds the row's norm.
``screened_rmatvec`` runs the large second GEMM only on the rows whose
bound can pass a floor (a safe screening rule in the sense of El Ghaoui,
Viallon & Rabbani 2012, Pacific J. Optim. 8(4)).  The CPF refinement solves
on the grid operator directly; the CS baseline mixes it with the pilots
(``cs_baseline.PilotKronOperator``), which does not screen: at its plain
universal threshold 99.8-100% of the rows pass the bound.  Every grid
dictionary operator has unit-norm columns, so one l1 weight treats all atoms
alike; a coefficient divided by its ``atom_norms()`` entry (the physical
atom's norm) is the gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def top_singular_value(op) -> float:
    """sigma_max of ``op``, exact: the product of its ``kron_factors()``'
    largest singular values, each from the Gram of the factor's shorter side."""
    if not hasattr(op, "kron_factors"):
        raise TypeError(f"top_singular_value needs kron_factors() on {type(op).__name__}; "
                        "pass FistaConfig.step instead")
    grams = [F @ F.conj().T if F.shape[0] <= F.shape[1] else F.conj().T @ F
             for F in op.kron_factors()]
    return float(np.prod([np.sqrt(np.linalg.eigvalsh(G)[-1]) for G in grams]))


# ---------------------------------------------------------------------------
# FISTA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FistaConfig:
    lam: float
    max_iters: int = 2000
    tol: float = 1e-8          # relative objective change
    step: float | None = None  # None -> 1 / (2 sigma_max^2) from kron_factors()

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.step is not None and not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")


@dataclass(frozen=True)
class FistaResult:
    x: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True


def _shrink(v, mag, t, out=None):
    """Complex soft threshold of v at t (magnitudes shrunk by t, phases
    kept), given ``mag`` = |v|, which it overwrites."""
    np.maximum(mag, 1e-300, out=mag)
    np.divide(t, mag, out=mag)
    np.subtract(1.0, mag, out=mag)
    np.maximum(0.0, mag, out=mag)
    return np.multiply(v, mag, out=out)


# the loop tracks supports once at most 1/SPARSE_SHARE of the coefficients
# survive the threshold test; above that, fancy indexing costs more than the
# dense passes it saves
SPARSE_SHARE = 16


def _gradient_step(v, z, z_sup, z_at, neg_two_step, thresh, mag, below):
    """v = z - step * (2 A^H (A z - y)) in place in ``v`` (the adjoint, or
    the rows of it that ``z_at`` addresses), as (-(2 step) v) + z, with z
    read on ``z_sup`` (all of it when None), plus its magnitudes and the
    mask |v| <= thresh at the start of ``mag`` and ``below``.  Returns the
    number of candidates: entries the soft threshold does not zero."""
    np.multiply(v, neg_two_step, out=v)
    if z_sup is None:
        np.add(v, z, out=v)
    else:
        v[z_at] += z[z_sup]
    mag, below = mag[:v.size], below[:v.size]
    np.abs(v, out=mag)
    np.less_equal(mag, thresh, out=below)
    return v.size - np.count_nonzero(below)


def fista(A, y, cfg: FistaConfig) -> FistaResult:
    """FISTA on F(x) = ||y - A x||^2 + lam ||x||_1.

    Each iteration forms the gradient step v = z - step * 2 A^H (A z - y),
    built in place in the adjoint's buffer, its magnitudes |v| and the mask
    of candidates ~(|v| <= lam * step), the only entries the soft threshold
    can keep.  When the candidates number at most n / SPARSE_SHARE, the
    threshold and the iterate and momentum updates are computed on the old
    and new supports only, and the l1 term sums |x| over the candidates in
    index order (x is zero elsewhere); above that the loop stays dense and
    sums |x| over all n entries.  In the support-tracking step the forward
    product gets the candidates as its ``support`` hint (the iterate is zero
    outside them), so an operator that uses the hint multiplies by those
    columns only.

    After a support-tracking step, an operator with ``screened_rmatvec``
    (the grid dictionary) forms the next gradient step on the grid rows that
    can hold a candidate and on the rows of the momentum support only: off
    the momentum support v is the scaled adjoint alone, which the operator's
    bound keeps at or below the threshold on every row it skips.  The step,
    magnitudes and mask then run over those rows, and the same update uses
    their candidates; when the candidates exceed n / SPARSE_SHARE, the step
    is formed again from the full adjoint and the loop goes dense.  Either
    way the per-entry arithmetic is that of the plain allocating loop, so
    the iterates and the objective trace are the same bit for bit, and so
    are those of the allocating loop that passes the same ``support`` hint
    and sums the l1 term the same way.

    Memory: the iterate (a dense, zero-padded vector) and the momentum point
    start in one block allocated once per call; the magnitudes and the mask
    are one buffer each, and every adjoint of every operator, screened or
    full, is written into one more buffer of n entries (``rmatvec``'s
    ``out``).  The dense step thresholds in that buffer and then swaps
    roles: the buffer becomes the iterate, the old iterate's storage the
    next adjoint's buffer, so nothing is copied.  The result is the iterate
    itself when it ends in a buffer of its own, and a copy only when it ends
    in the block's row (made after the adjoint's buffer is freed), so a
    caller keeping the result keeps no work block, and returning it adds no
    n-vector to the peak.
    """
    if not hasattr(A, "matvec"):
        raise TypeError(f"fista needs an operator with shape, matvec(x, support=None), "
                        f"rmatvec(y, out=None) and kron_factors(), got {type(A).__name__}")
    y = np.asarray(y, dtype=np.complex128).ravel()
    if y.shape[0] != A.shape[0]:
        raise ValueError(f"y length {y.shape[0]} does not match operator rows {A.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y has non-finite entries")
    n = A.shape[1]
    trace = [float(np.linalg.norm(y) ** 2)]
    if cfg.step is not None:
        step = cfg.step
    else:
        smax = top_singular_value(A)
        if smax == 0.0:
            return FistaResult(np.zeros(n, dtype=np.complex128), trace, 0, True)
        step = 1.0 / (2.0 * smax**2)
    thresh = cfg.lam * step
    # -(2 step) g equals -(step (2 g)) exactly, because doubling is exact
    neg_two_step = -(2.0 * step)

    # one block, not two vectors: a single large allocation per call also
    # keeps the allocator from trimming the heap under the operators'
    # per-iteration temporaries, which would page-fault them in afresh on
    # every iteration
    x, z = np.zeros((2, n), dtype=np.complex128)
    mag = np.empty(n)
    below = np.empty(n, dtype=bool)
    # every adjoint, full or screened, is written here; a dense step hands
    # it to the iterate and takes the iterate's old storage in its place
    adj_buf = np.empty(n, dtype=np.complex128)
    screens = hasattr(A, "screened_rmatvec")
    # indices outside which x is zero and z is not read (its entries there
    # are zero in the dense loop but may be stale here); None while dense
    x_sup = z_sup = np.empty(0, dtype=np.intp)
    screen = False               # screen the next adjoint (after a support-tracking step)
    ax = np.zeros(A.shape[0], dtype=np.complex128)
    az = ax                      # A z tracked through the linear momentum update
    t_momentum = 1.0
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        r = az - y
        rows = None
        if screen:
            rows, v = A.screened_rmatvec(r, -neg_two_step, thresh, z_sup, adj_buf)
            width = v.shape[1]
            v = v.reshape(-1)
            # a kept row's position in the flat block minus its coefficient
            # index: an index k on the kept rows sits at k + shift[k // width]
            shift = np.empty(n // width, dtype=np.intp)
            shift[rows] = (np.arange(rows.size) - rows) * width
            n_cand = _gradient_step(v, z, z_sup, z_sup + shift[z_sup // width],
                                    neg_two_step, thresh, mag, below)
            if n_cand * SPARSE_SHARE > n:
                rows = None
        if rows is None:
            v = A.rmatvec(r, out=adj_buf)
            n_cand = _gradient_step(v, z, z_sup, z_sup, neg_two_step, thresh, mag, below)
        del r
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2)) / 2.0
        beta = (t_momentum - 1.0) / t_new
        if n_cand * SPARSE_SHARE > n:
            # x_new = soft threshold of v, in v; z = x_new + beta * (x_new - x)
            _shrink(v, mag, thresh, out=v)
            np.subtract(v, x, out=z)
            np.multiply(beta, z, out=z)
            np.add(v, z, out=z)
            # x_new becomes the iterate, the old iterate's storage the buffer
            x, adj_buf = adj_buf, x
            del v
            x_sup = z_sup = None
            screen = False
            ax_new = A.matvec(x)
            l1 = np.sum(np.abs(x, out=mag))
        else:
            is_cand = np.logical_not(below[:v.size], out=below[:v.size])
            cand = np.flatnonzero(is_cand)
            x_cand = v[cand]
            del v
            _shrink(x_cand, mag[cand], thresh, out=x_cand)
            if x_sup is None:
                x_sup = np.flatnonzero(x)
            if rows is None:
                x_at = x_sup
            else:
                x_at = x_sup + shift[x_sup // width]
                cand = rows[cand // width] * width + cand % width
            # the union of the supports: the candidates, then the old support
            # entries that are not candidates
            moved = np.concatenate((cand, x_sup[~is_cand[x_at]]))
            dx = x[moved]
            x[x_sup] = 0.0
            x[cand] = x_cand
            # z = x_new + beta * (x_new - x) on the union of the supports
            x_moved = x[moved]
            np.subtract(x_moved, dx, out=dx)
            np.multiply(beta, dx, out=dx)
            np.add(x_moved, dx, out=dx)
            z[moved] = dx
            x_sup, z_sup = cand, moved
            screen = screens
            ax_new = A.matvec(x, support=cand)
            # x is zero off the candidates, which run in index order
            l1 = np.sum(np.abs(x_cand))
        az = ax_new + beta * (ax_new - ax)
        ax, t_momentum = ax_new, t_new
        obj = float(np.linalg.norm(y - ax) ** 2 + cfg.lam * l1)
        trace.append(obj)
        if abs(trace[-2] - obj) <= cfg.tol * max(abs(trace[-2]), 1e-30):
            converged = True
            break
    if x.base is None:
        # x lives in the buffer a dense step handed it, which nothing else holds
        return FistaResult(x, trace, it, converged)
    # x is a row of the block: a copy, so that a caller keeping the result
    # does not keep the block; the buffer goes first, so that the copy does
    # not raise the peak
    del adj_buf
    return FistaResult(x.copy(), trace, it, converged)


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


# matvec runs over the support's columns once it holds at most
# 1/SUPPORT_SHARE of the coefficients: a support entry costs m_bs * t' complex
# multiply-adds, the dense GEMMs about m_bs per coefficient at a higher rate,
# and the measured crossovers sit near 1/44 (256x128 grid) and 1/55 (128x64)
SUPPORT_SHARE = 64


# The screen's bound must not fall below what fista computes.  A computed
# adjoint entry is a K = m_bs term complex dot product of w with a unit
# column (itself unit to a few ulp); with the scale by 2 step and the complex
# abs it exceeds ||w|| * scale by at most about (m_bs + 6) * 2^-53 relative,
# and _row_norms loses about as much again.  A margin of 1e-9 covers that
# for any m_bs up to about 10^6.  Below the normal range rounding is
# absolute, at most a few 2^-1074 per operation, which SCREEN_SLACK covers
# and which makes a floor under about 1e-301 keep every row.
SCREEN_MARGIN = 1e-9
SCREEN_SLACK = 2.0 ** -1000
# row norms inside these limits are safe to take from summed squares: no
# square overflows, and squares that underflow lose under 2^-100 relative
_NORM_SAFE = (2.0 ** -480, 2.0 ** 480)


def _row_norms(W):
    """Euclidean norms of the rows of complex W, free of underflow and overflow:
    rows whose squares would leave the safe range (zero, tiny, huge, NaN or
    inf rows) are rescaled by a power of two, an exact operation, first."""
    Wf = W.view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", Wf, Wf))
    odd = np.flatnonzero(~((norms >= _NORM_SAFE[0]) & (norms <= _NORM_SAFE[1])))
    if odd.size:
        Wo = Wf[odd]
        e = np.frexp(np.max(np.abs(Wo), axis=1))[1]
        S = np.ldexp(Wo, -e[:, None])
        with np.errstate(over="ignore"):
            norms[odd] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", S, S)), e)
    return norms


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
        G_Q, G_P = design.responses(grid.sin_aoa, grid.sin_aod)
        # dictionary column norms separate as ||G_P_i|| * ||G_Q_j||, so
        # per-factor normalization yields exactly unit-norm columns
        self._norms_q, self._norms_p = np.linalg.norm(G_Q, axis=0), np.linalg.norm(G_P, axis=0)
        self.G_Q, self.G_P = G_Q / self._norms_q, G_P / self._norms_p
        self.m_bs = self.G_Q.shape[0]
        self.t_prime = self.G_P.shape[0]
        self.shape = (self.m_bs * self.t_prime * n_rhs, grid.size * n_rhs)
        self._G_Qc = self.G_Q.conj()
        self._G_Pc = self.G_P.conj()

    # The coefficient vector, row-major, is (n_rhs, n_aod, n_aoa) and the
    # output vector, row-major, is (n_rhs, t', m_bs), the per-block vec of
    # G_Q X G_P^T; both products are two GEMMs on these views, no copies.

    def matvec(self, x, support=None):
        """Phi x.  ``support``, if given, holds strictly increasing indices
        outside which x is zero; when few enough, the product runs over
        those columns only."""
        n = self.shape[1]
        if support is not None:
            if support.size and (support[0] < 0 or support[-1] >= n
                                 or np.any(support[1:] <= support[:-1])):
                raise ValueError("support must be strictly increasing indices in [0, n)")
            if support.size * SUPPORT_SHARE <= n:
                return self._support_matvec(x, support)
        g = self.grid
        T = x.reshape(self.n_rhs * g.n_aod, g.n_aoa) @ self.G_Q.T
        return (self.G_P @ T.reshape(self.n_rhs, g.n_aod, self.m_bs)).ravel()

    def _support_matvec(self, x, support):
        # block u's output is sum over its entries k of
        # x_k G_P[:, aod_k] kron G_Q[:, aoa_k], i.e. G_P[:, aod] (G_Q[:, aoa] x)^T
        g = self.grid
        out = np.zeros((self.n_rhs, self.t_prime, self.m_bs), dtype=np.complex128)
        bounds = np.searchsorted(support, np.arange(self.n_rhs + 1) * g.size)
        aod, aoa = np.divmod(support, g.n_aoa)
        aod %= g.n_aod
        cols_p = np.take(self.G_P, aod, axis=1)
        cols_q = np.take(self.G_Q, aoa, axis=1)
        cols_q *= np.take(x, support)
        cols_q = cols_q.T
        for u in range(self.n_rhs):
            lo, hi = bounds[u], bounds[u + 1]
            if lo < hi:
                np.matmul(cols_p[:, lo:hi], cols_q[lo:hi], out=out[u])
        return out.ravel()

    def _first_stage(self, y):
        """The adjoint's first product, G_P^H applied to each block's output,
        as one m_bs-entry row per (block, AoD index)."""
        W = self._G_Pc.T @ y.reshape(self.n_rhs, self.t_prime, self.m_bs)
        return W.reshape(-1, self.m_bs)

    def rmatvec(self, y, out=None):
        """Phi^H y, written into ``out`` (a coefficient-length vector) when given."""
        W = self._first_stage(y)
        if out is not None:
            out = out.reshape(W.shape[0], -1)
        return np.matmul(W, self._G_Qc, out=out).ravel()

    def screened_rmatvec(self, y, scale, floor, forced, out):
        """The grid rows of Phi^H y that ``scale`` can lift above ``floor``.

        A grid row is the n_aoa coefficients of one (block, AoD index); its
        adjoint entries are the products of one first-stage row w with the
        unit columns of G_Q, so none exceeds ||w||.  Rows whose bound
        ``scale * ||w||`` (widened by SCREEN_MARGIN) is at most ``floor``
        are skipped: each of their entries e has |scale * e| <= floor as
        computed.  A NaN or inf row is never skipped.  The rows holding a
        coefficient index of ``forced`` are kept whatever their bound.

        Returns ``(rows, block)``: the kept rows in increasing order and the
        (rows.size, n_aoa) array of their adjoint entries, written into the
        front of ``out``, a coefficient-length buffer; ``block[i]`` is
        ``rmatvec(y)`` over row ``rows[i]``, bit for bit.
        """
        W = self._first_stage(y)
        bound = _row_norms(W)
        np.multiply(bound, scale * (1.0 + SCREEN_MARGIN), out=bound)
        np.add(bound, SCREEN_SLACK, out=bound)
        keep = np.logical_not(bound <= floor)
        width = self.grid.n_aoa
        keep[forced // width] = True
        rows = np.flatnonzero(keep)
        if rows.size == 1 and keep.size > 1:
            # numpy sends a one-row product to gemv, whose sums are not
            # gemm's: a second row keeps the block bit for bit rmatvec's
            rows = np.array([0, rows[0]] if rows[0] else [0, 1])
        block = out[:rows.size * width].reshape(rows.size, width)
        return rows, np.matmul(W[rows], self._G_Qc, out=block)

    def kron_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(G_P, G_Q), the unit-column factors: the operator is
        I_{n_rhs} kron G_P kron G_Q, so it has their singular values' products."""
        return self.G_P, self.G_Q

    def atom_norms(self) -> np.ndarray:
        """Per-column norms of the physical atoms kron(P^T a_ms, Q^T a_bs)."""
        return np.tile(np.outer(self._norms_q, self._norms_p).ravel(order="F"), self.n_rhs)

    def column(self, k: int) -> np.ndarray:
        """Unit column k of one block, kron(G_P[:, j], G_Q[:, i]), without a matvec."""
        j, i = self.grid.cell(k)
        return np.outer(self.G_Q[:, i], self.G_P[:, j]).ravel(order="F")

