"""CP decomposition by alternating least squares.

Two entry points:

* :func:`als_known_rank` -- plain ALS with the component count fixed; each
  sweep solves the three linear LS subproblems

      min_A || Y_(1)^T - kr(C, B) A^T ||_F^2     (and cyclically for B, C)

  exactly through the Gram normal equations.

* :func:`als_regularized` -- ridge-augmented ALS for unknown rank: the fit is
  traded against MU * (tr A A^H + tr B B^H + tr C C^H), each update solving
  the stacked-sqrt(MU) least squares problem in closed form.  After
  convergence, rank-one components whose energy z_k = ||a_k|| ||b_k|| ||c_k||
  falls below PRUNE_THRESHOLD of the largest are pruned; the surviving count
  is the rank estimate, and exact-LS sweeps at that rank polish the survivors.

A sweep never forms the Gram of a Khatri-Rao product from the product itself:
kr(C, B)^H kr(C, B) = (C^H C) * (B^H B) (elementwise), so each update solves
its R x R normal equations from the factor Grams kept across the sweep
(Kolda & Bader 2009).  The per-sweep fit is the norm of the mode-3 residual
Y_(3)^T - kr(B, A) C^T, reusing the product the C update formed; only each
run's first objective composes the dense tensor.

Both entry points own the tensor's scale: each divides Y by its Frobenius
norm once, runs every stage on that unit-norm copy (the ridge weight MU is
calibrated to unit signal energy, so the rank estimate does not depend on the
input's scale), and returns factors that fit Y itself, with C carrying ||Y||.
Callers pass the measurement tensor as it is.

A run without a given starting point starts from one random draw seeded by
AlsConfig.seed.  Starts are deliberately not picked by objective: under the
ridge penalty a fit that merges two paths into one component costs less, so
the lowest objective under-counts the rank.  Both entry points record
an objective trace on the unit-norm copy (fit, plus the trace penalty for the
ridge stage) that is non-increasing by construction since every update is an
exact minimizer of its subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor_core import ComplexTensor3, FactorTriple, compose, frobenius_norm, khatri_rao, unfold

RIDGE_FLOOR = 1e-12        # relative floor on the Gram diagonal for numerical safety
WARMUP_ITERS = 200         # ridge warm-up sweep budget for the known-rank solver
MU = 3e-3                  # ridge weight on unit-norm data; stable range [1e-3, 1e-2]
PRUNE_THRESHOLD = 1e-2     # drop components below this share of the largest energy


@dataclass(frozen=True)
class AlsConfig:
    max_iters: int = 1000
    tol: float = 1e-6          # relative change of stacked factors
    k_upper: int = 26          # regularized solver's component budget, ~2x table1's 13 paths
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.k_upper < 1:
            raise ValueError("k_upper must be >= 1")


@dataclass(frozen=True)
class CpResult:
    factors: FactorTriple
    iterations: int
    objective_trace: list[float] = field(default_factory=list)
    estimated_rank: int = 0
    converged: bool = True


def _init_factors(rng: np.random.Generator, dims, rank: int):
    out = []
    for d in dims:
        M = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        M /= np.maximum(np.linalg.norm(M, axis=0), 1e-12)
        out.append(M)
    return out


def _objective(Y: ComplexTensor3, A, B, C, mu) -> float:
    """Objective from a dense composed tensor; for one-off evaluations only,
    the sweeps compute theirs from the mode-3 residual."""
    obj = np.linalg.norm(Y.data - compose(FactorTriple(A, B, C)).data) ** 2
    if mu > 0:
        obj += mu * sum(np.linalg.norm(M) ** 2 for M in (A, B, C))
    return float(obj)


def _gram(M: np.ndarray) -> np.ndarray:
    return M.conj().T @ M


def _ridge_solve(G, V, Yn_T, mu: float, eye) -> np.ndarray:
    """Solve min_F ||Yn_T - V F^T||^2 + mu ||F||^2, given G = V^H V."""
    scale = max(np.trace(G).real / G.shape[0], 1e-300)
    return np.linalg.solve(G + (mu + RIDGE_FLOOR * scale) * eye, V.conj().T @ Yn_T).T


def _als_core(
    Y: ComplexTensor3,
    rank: int,
    cfg: AlsConfig,
    mu: float,
    init: FactorTriple | None = None,
) -> CpResult:
    Y1t = unfold(Y, 1).T
    Y2t = unfold(Y, 2).T
    Y3t = unfold(Y, 3).T
    if init is not None:
        A, B, C = init.A.copy(), init.B.copy(), init.C.copy()
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        A, B, C = _init_factors(rng, Y.dims, rank)
    eye = np.eye(rank)
    GB, GC = _gram(B), _gram(C)
    trace = [_objective(Y, A, B, C, mu)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        prev = (A, B, C)
        # kr(C, B)^H kr(C, B) = (C^H C) * (B^H B), and cyclically
        A = _ridge_solve(GC * GB, khatri_rao(C, B), Y1t, mu, eye)
        GA = _gram(A)
        B = _ridge_solve(GC * GA, khatri_rao(C, A), Y2t, mu, eye)
        GB = _gram(B)
        V3 = khatri_rao(B, A)
        C = _ridge_solve(GB * GA, V3, Y3t, mu, eye)
        GC = _gram(C)
        # mode-3 residual Y_(3)^T - kr(B, A) C^T, reusing the C update's product
        obj = np.linalg.norm(Y3t - V3 @ C.T) ** 2
        if mu > 0:
            obj += mu * (np.trace(GA).real + np.trace(GB).real + np.trace(GC).real)
        trace.append(float(obj))
        num = sum(np.linalg.norm(M - Mp) for M, Mp in zip((A, B, C), prev))
        den = sum(np.linalg.norm(M) for M in prev) + 1e-30
        if num / den < cfg.tol:
            converged = True
            break
    return CpResult(
        factors=FactorTriple(A, B, C),
        iterations=it,
        objective_trace=trace,
        estimated_rank=rank,
        converged=converged,
    )


def _gevd_init(Y: ComplexTensor3, rank: int) -> FactorTriple | None:
    """Algebraic initialization from the two-slice matrix pencil.

    Compressing the third mode to its two dominant directions turns the
    tensor into a pair of matrices S1 = A D0 B^T, S2 = A D1 B^T; the
    generalized eigenvectors of the pencil recover A directly, and B, C
    follow from per-component rank-one refits.  Exact in the noiseless
    identifiable case, and a far better ALS starting point than random
    factors whenever rank <= min of the first two dims.  Returns None when
    the construction does not apply or is numerically degenerate.
    """
    I, J, K = Y.dims
    if rank > min(I, J) or K < 2:
        return None
    if K == 2:
        Yc = Y.data
    else:
        W = np.linalg.svd(unfold(Y, 3), full_matrices=False)[0][:, :2]
        Yc = np.tensordot(Y.data, W.conj(), axes=([2], [0]))
    S1, S2 = Yc[:, :, 0], Yc[:, :, 1]
    U, s, Vh = np.linalg.svd(S1, full_matrices=False)
    if s[rank - 1] <= 1e-12 * s[0]:
        return None
    U_L, V_L = U[:, :rank], Vh[:rank].conj().T
    T1 = U_L.conj().T @ S1 @ V_L
    T2 = U_L.conj().T @ S2 @ V_L
    try:
        _, M = np.linalg.eig(T2 @ np.linalg.inv(T1))
        A0 = U_L @ M
        # rows of pinv(A0) Y_(1) are vec(b_l c_l^T); rank-one refits split them
        Z = np.linalg.lstsq(A0, unfold(Y, 1), rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(Z)):
        return None
    B0 = np.empty((J, rank), dtype=np.complex128)
    C0 = np.empty((K, rank), dtype=np.complex128)
    for l in range(rank):
        u1, s1, v1 = np.linalg.svd(Z[l].reshape(J, K, order="F"), full_matrices=False)
        B0[:, l] = u1[:, 0] * s1[0]
        C0[:, l] = v1[0]  # svd returns V^H; its first row already is the rank-one cofactor
    return FactorTriple(A0, B0, C0)


def _unit_norm(Y: ComplexTensor3) -> tuple[ComplexTensor3, float]:
    """Y / ||Y|| and ||Y||; every stage of an entry point fits that copy."""
    scale = frobenius_norm(Y)
    if scale == 0.0:
        raise ValueError("input tensor is zero")
    return ComplexTensor3(Y.data / scale), scale


def _at_scale(F: FactorTriple, scale: float) -> FactorTriple:
    """A fit of the unit-norm copy moved back to the input's scale through C."""
    return FactorTriple(F.A, F.B, F.C * scale)


def als_known_rank(Y: ComplexTensor3, L: int, cfg: AlsConfig | None = None) -> CpResult:
    """ALS fit with a fixed number of rank-one components.

    Initialization compares two candidates and keeps the better-fitting
    one: a short ridge-damped warm-up from one seeded random start, which
    avoids the slow "swamp" regime plain ALS falls into on near-collinear
    components, and the algebraic matrix-pencil construction
    (:func:`_gevd_init`), which is exact on noiseless identifiable inputs.
    The returned trace covers only the exact-LS stage, whose sweeps solve
    each subproblem exactly.
    """
    if L < 1:
        raise ValueError("rank must be >= 1")
    Yn, scale = _unit_norm(Y)
    cfg = cfg or AlsConfig()
    warm_cfg = replace(cfg, max_iters=min(cfg.max_iters, WARMUP_ITERS))
    init = _als_core(Yn, L, warm_cfg, mu=MU).factors
    # the pencil init is exact on clean identifiable data but fragile under
    # noise at high rank; keep whichever starting point already fits better
    pencil = _gevd_init(Yn, L)
    if pencil is not None:
        if _objective(Yn, pencil.A, pencil.B, pencil.C, 0.0) < _objective(
                Yn, init.A, init.B, init.C, 0.0):
            init = pencil
    res = _als_core(Yn, L, cfg, mu=0.0, init=init)
    return replace(res, factors=_at_scale(res.factors, scale))


def component_energies(F: FactorTriple) -> np.ndarray:
    """z_k = Frobenius norm of the k-th rank-one component."""
    return (np.linalg.norm(F.A, axis=0)
            * np.linalg.norm(F.B, axis=0)
            * np.linalg.norm(F.C, axis=0))


def prune_components(F: FactorTriple, threshold: float) -> tuple[FactorTriple, np.ndarray]:
    """Drop components with energy below threshold * max energy."""
    z = component_energies(F)
    if z.size == 0 or np.max(z) == 0.0:
        raise ValueError("all components are zero; degenerate input")
    keep = z >= threshold * np.max(z)
    return FactorTriple(F.A[:, keep], F.B[:, keep], F.C[:, keep]), keep


def als_regularized(Y: ComplexTensor3, cfg: AlsConfig | None = None) -> CpResult:
    """Rank-estimating ALS with a trace-norm style ridge on all factors.

    After the ridge stage converges and negligible components are pruned,
    the surviving components are polished by exact-LS sweeps at the fixed
    estimated rank.  The ridge shrinks every component toward zero, which
    biases the weak (but real) ones; the polish removes that bias without
    touching the rank decision.  The reported trace covers the ridge stage,
    whose objective the sweeps minimize monotonically.
    """
    cfg = cfg or AlsConfig()
    Yn, scale = _unit_norm(Y)
    res = _als_core(Yn, cfg.k_upper, cfg, mu=MU)
    pruned, keep = prune_components(res.factors, PRUNE_THRESHOLD)
    rank = int(np.sum(keep))
    polish = _als_core(Yn, rank, cfg, mu=0.0, init=pruned)
    return replace(res, factors=_at_scale(polish.factors, scale), estimated_rank=rank)
