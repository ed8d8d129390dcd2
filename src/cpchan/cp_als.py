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
  is the rank estimate, and at most POLISH_ITERS exact-LS sweeps at that rank
  polish the survivors.

A sweep never forms the Gram of a Khatri-Rao product from the product itself:
kr(C, B)^H kr(C, B) = (C^H C) * (B^H B) (elementwise), so each update solves
its R x R normal equations from the factor Grams kept across the sweep
(Kolda & Bader 2009).  The per-sweep fit is the norm of the mode-3 residual
Y_(3)^T - kr(B, A) C^T, reusing the product the C update formed; only each
run's first objective composes the dense tensor.

A sweep never updates a component that an earlier sweep zeroed.  The ridge
drives the rank-estimating stage's surplus components to exactly zero (on
table1, about half of its 26 by sweep 40-100).  A component whose C column is
all zero has zero rows and columns in every Hadamard Gram and a zero
right-hand side, so it stays zero and leaves the others' updates unchanged in
exact arithmetic.  The sweeps drop its columns, and the returned factors hold
zero columns in its place, so callers see the stage's shape.  RIDGE_FLOOR's
shift divides the Gram's trace by the stage's component count, dropped ones
included, so the live components keep the full sweep's arithmetic.

The ridge stage of :func:`als_regularized` also takes doubled steps, a line
search extrapolation with its step fixed at 2 (Bro 1998; Rajih, Comon &
Harshman 2008).  Once a component has been dropped and a sweep moves the
factors by less than EXTRAPOLATE_BELOW, the sweep is followed by
X + (X - X_prev) on all three factors.  The step is kept only when it lowers
the ridge objective, whose fit comes from the mode-3 residual, so each check
costs one more Khatri-Rao product.  On table1 this cuts the stage's sweeps by
about 40% and leaves every rank as it was.  Doubled steps from the first
dropped component on, or longer steps, changed the rank of some inputs.  No
other stage extrapolates.  The known-rank warm-up stops at WARMUP_ITERS
sweeps, so its end point depends on its path, and doubled steps there moved
the known-rank estimates.  The exact-LS stages do not converge within their
sweep budgets on table1 either way (the polish stops at POLISH_ITERS, the
known-rank main stage at MAX_ITERS), so doubled steps there only cost time.

The polish stops by a sweep count, not by a tolerance: on table1 its
objective's relative decrease per sweep stays above 1e-8 for 1000 sweeps, and
a tolerance of 1e-4, which stops it after 84-241 sweeps at 30 dB, never stops
it on some 10 dB inputs.

Both entry points own the tensor's scale: each divides Y by its Frobenius
norm once, runs every stage on that unit-norm copy (the ridge weight MU is
calibrated to unit signal energy, so the rank estimate does not depend on the
input's scale), and returns factors that fit Y itself, with C carrying ||Y||.
Callers pass the measurement tensor as it is.

A run without a given starting point starts from one random draw seeded by
the entry point's ``seed`` argument.  Starts are deliberately not picked by
objective: under the ridge penalty a fit that merges two paths into one
component costs less, so the lowest objective under-counts the rank.  Both
entry points record an objective trace on the unit-norm copy (fit, plus the
trace penalty for the ridge stage) that is non-increasing by construction:
every update is an exact minimizer of its subproblem, and a doubled step is
kept only when it lowers the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor_core import ComplexTensor3, FactorTriple, compose, frobenius_norm, khatri_rao, unfold

RIDGE_FLOOR = 1e-12        # relative floor on the Gram diagonal for numerical safety
MAX_ITERS = 1000           # sweep budget of every ALS stage
TOL = 1e-6                 # stop once the stacked factors move by less than this share
K_UPPER = 26               # rank-estimating solver's component budget, ~2x table1's 13 paths
WARMUP_ITERS = 200         # ridge warm-up sweep budget for the known-rank solver
# exact-LS polish sweep budget after the rank decision: paths of one user share
# a pilot column, so only each user's block is determined and the polish
# crawls (sweeps 200-1000 lower its objective by about 2% on table1), and
# channel_recovery.front_end re-fits A and B against the exact pilots after it
POLISH_ITERS = 200
MU = 3e-3                  # ridge weight on unit-norm data; stable range [1e-3, 1e-2]
PRUNE_THRESHOLD = 1e-2     # drop components below this share of the largest energy
# the ridge stage's doubled steps start once a sweep moves the factors by less
# than this share; earlier, while components are still sorting, they can carry
# a weak component into another basin and change the rank
EXTRAPOLATE_BELOW = 1e-2


class DegenerateDataError(ValueError):
    """The measurement admits no estimate: a zero tensor, no live component,
    or pilots too dependent for a unique decomposition.  The harness records
    it as a failed trial; any other ValueError is a programming error."""


@dataclass(frozen=True)
class CpResult:
    factors: FactorTriple
    iterations: int
    objective_trace: list[float] = field(default_factory=list)
    estimated_rank: int = 0
    converged: bool = True
    polish_sweeps: int = 0     # als_regularized's exact-LS polish; 0 elsewhere


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


def _ridge_solve(G, V, Yn_T, mu: float, eye, n_components: int) -> np.ndarray:
    """Solve min_F ||Yn_T - V F^T||^2 + mu ||F||^2, given G = V^H V.

    The floor's scale is the Gram's trace over the stage's component count,
    dropped components included: they add nothing to the trace."""
    scale = max(np.trace(G).real / n_components, 1e-300)
    return np.linalg.solve(G + (mu + RIDGE_FLOOR * scale) * eye, V.conj().T @ Yn_T).T


def _sweep_objective(Y3t, V3, C, grams, mu: float) -> float:
    """Fit from the mode-3 residual Y_(3)^T - kr(B, A) C^T, with V3 = kr(B, A),
    plus the ridge penalty from the traces of the factor Grams."""
    obj = np.linalg.norm(Y3t - V3 @ C.T) ** 2
    if mu > 0:
        obj += mu * sum(np.trace(G).real for G in grams)
    return float(obj)


def _doubled_step(Y3t, mu: float, factors, prev):
    """X + (X - X_prev) on all three factors, with its objective and Grams."""
    A, B, C = (M + (M - Mp) for M, Mp in zip(factors, prev))
    grams = [_gram(M) for M in (A, B, C)]
    return (A, B, C), grams, _sweep_objective(Y3t, khatri_rao(B, A), C, grams, mu)


def _with_dead_columns(M: np.ndarray, live: np.ndarray, rank: int) -> np.ndarray:
    """M's columns at positions ``live`` of a rank-column matrix, zero elsewhere."""
    out = np.zeros((M.shape[0], rank), dtype=M.dtype)
    out[:, live] = M
    return out


def _als_core(
    Y: ComplexTensor3,
    rank: int,
    max_iters: int,
    seed: int,
    mu: float,
    init: FactorTriple | None = None,
    extrapolate: bool = False,
) -> CpResult:
    """ALS sweeps from ``init`` (or the seeded random start) until the factors
    move by less than TOL or ``max_iters`` sweeps have run.

    A component whose C column is all zero at the start of a sweep is dropped
    from the sweeps; the returned factors hold zero columns in its place.
    With ``extrapolate``, once a component has been dropped, each unconverged
    sweep that moved the factors by less than EXTRAPOLATE_BELOW is followed
    by the doubled step X + (X - X_prev), kept only when it lowers the
    objective."""
    Y1t = unfold(Y, 1).T
    Y2t = unfold(Y, 2).T
    Y3t = unfold(Y, 3).T
    if init is not None:
        A, B, C = init.A.copy(), init.B.copy(), init.C.copy()
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        A, B, C = _init_factors(rng, Y.dims, rank)
    live = np.arange(rank)     # the stage's components still swept
    eye = np.eye(rank)
    GB, GC = _gram(B), _gram(C)
    trace = [_objective(Y, A, B, C, mu)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        zero = ~np.any(C, axis=0)
        if np.any(zero):
            # its rows and columns of every Hadamard Gram and its right-hand
            # sides are zero, so it stays zero and the others do not see it
            keep = ~zero
            live = live[keep]
            A, B, C = A[:, keep], B[:, keep], C[:, keep]
            GB, GC = GB[np.ix_(keep, keep)], GC[np.ix_(keep, keep)]
            eye = np.eye(live.size)
            if live.size == 0:
                # the next sweep would return the zero factors unchanged
                trace.append(float(np.linalg.norm(Y3t) ** 2))
                converged = True
                break
        prev = (A, B, C)
        # kr(C, B)^H kr(C, B) = (C^H C) * (B^H B), and cyclically
        A = _ridge_solve(GC * GB, khatri_rao(C, B), Y1t, mu, eye, rank)
        GA = _gram(A)
        B = _ridge_solve(GC * GA, khatri_rao(C, A), Y2t, mu, eye, rank)
        GB = _gram(B)
        V3 = khatri_rao(B, A)
        C = _ridge_solve(GB * GA, V3, Y3t, mu, eye, rank)
        GC = _gram(C)
        # the mode-3 residual reuses the C update's product
        obj = _sweep_objective(Y3t, V3, C, (GA, GB, GC), mu)
        num = sum(np.linalg.norm(M - Mp) for M, Mp in zip((A, B, C), prev))
        den = sum(np.linalg.norm(M) for M in prev) + 1e-30
        change = num / den
        converged = bool(change < TOL)
        if extrapolate and live.size < rank and TOL <= change < EXTRAPOLATE_BELOW:
            step, grams, step_obj = _doubled_step(Y3t, mu, (A, B, C), prev)
            if step_obj < obj:
                (A, B, C), (_, GB, GC), obj = step, grams, step_obj
        trace.append(obj)
        if converged:
            break
    if live.size < rank:
        A, B, C = (_with_dead_columns(M, live, rank) for M in (A, B, C))
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
        raise DegenerateDataError("input tensor is zero")
    return ComplexTensor3(Y.data / scale), scale


def _at_scale(F: FactorTriple, scale: float) -> FactorTriple:
    """A fit of the unit-norm copy moved back to the input's scale through C."""
    return FactorTriple(F.A, F.B, F.C * scale)


def als_known_rank(Y: ComplexTensor3, L: int, seed: int = 0) -> CpResult:
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
    init = _als_core(Yn, L, min(MAX_ITERS, WARMUP_ITERS), seed, mu=MU).factors
    # the pencil init is exact on clean identifiable data but fragile under
    # noise at high rank; keep whichever starting point already fits better
    pencil = _gevd_init(Yn, L)
    if pencil is not None:
        if _objective(Yn, pencil.A, pencil.B, pencil.C, 0.0) < _objective(
                Yn, init.A, init.B, init.C, 0.0):
            init = pencil
    res = _als_core(Yn, L, MAX_ITERS, seed, mu=0.0, init=init)
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
        raise DegenerateDataError("all components are zero; degenerate input")
    keep = z >= threshold * np.max(z)
    return FactorTriple(F.A[:, keep], F.B[:, keep], F.C[:, keep]), keep


def als_regularized(Y: ComplexTensor3, seed: int = 0) -> CpResult:
    """Rank-estimating ALS with a trace-norm style ridge on all factors.

    After the ridge stage converges and negligible components are pruned,
    the surviving components are polished by at most POLISH_ITERS exact-LS
    sweeps at the fixed estimated rank.  The ridge shrinks every component
    toward zero, which biases the weak (but real) ones; the polish removes
    that bias without touching the rank decision.  The reported iterations,
    convergence and trace cover the ridge stage, whose objective the sweeps
    minimize monotonically; ``polish_sweeps`` counts the polish's sweeps.
    """
    Yn, scale = _unit_norm(Y)
    res = _als_core(Yn, K_UPPER, MAX_ITERS, seed, mu=MU, extrapolate=True)
    pruned, keep = prune_components(res.factors, PRUNE_THRESHOLD)
    rank = int(np.sum(keep))
    polish = _als_core(Yn, rank, min(MAX_ITERS, POLISH_ITERS), seed, mu=0.0, init=pruned)
    return replace(res, factors=_at_scale(polish.factors, scale), estimated_rank=rank,
                   polish_sweeps=polish.iterations)
